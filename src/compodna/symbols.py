"""Composite-symbol algebra.

A composite symbol over a base alphabet of size q with resolution M is a
q-tuple of nonnegative integer counts summing to M: the mixture ratio of
bases synthesized at one strand position. A composite matrix holds n such
columns as one read-only (q, n) count array, int64 below M = 2^63 and Python
ints above, and is the codeword object everything else works on.

Counts stay exact integers, and all combinatorial sizes use
arbitrary-precision integers. Rounding frequencies to M units is the
largest-remainder (Hamilton) method in integer arithmetic, every column of a
count table in one pass: ties go to the lowest base index.

Base indices are 1-based throughout the public API (base 1 = "A" for DNA),
matching the column conventions of the marker construction.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class AlphabetParams:
    """Base-alphabet size q (>= 2) and resolution parameter M (>= 1)."""

    q: int
    M: int

    def __post_init__(self) -> None:
        _int_arg(self.q, "base alphabet size q", 2)
        _int_arg(self.M, "resolution parameter M", 1)


@dataclass(frozen=True)
class CompositeSymbol:
    """One column of a composite matrix: q nonnegative counts summing to M."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("composite symbol must have at least one count")
        for c in self.counts:
            if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                raise ValueError(f"counts must be nonnegative integers, got {self.counts}")

    @property
    def q(self) -> int:
        return len(self.counts)

    @property
    def resolution(self) -> int:
        return sum(self.counts)

    def validate(self, params: AlphabetParams) -> None:
        if self.q != params.q:
            raise ValueError(f"symbol has {self.q} counts, alphabet has q={params.q}")
        if self.resolution != params.M:
            raise ValueError(f"counts sum to {self.resolution}, expected M={params.M}")


def _count_dtype(m: int) -> type:
    """The count dtype of a composite matrix at resolution m: int64 below 2^63, Python ints above."""
    return np.int64 if m < 1 << 63 else object


@dataclass(frozen=True, eq=False)
class CompositeMatrix:
    """A q x n composite matrix, held as one read-only (q, n) count array.

    Row i - 1 of `counts` is base i, and every column is a composite symbol:
    nonnegative counts summing to M. The counts given are copied, as int64
    below M = 2^63 and as Python ints (object dtype) above. Any input but an
    int64 array is read entry by entry, and a bool is not an integer.
    """

    counts: np.ndarray
    params: AlphabetParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", self._checked(self.counts, self.params, copy=True))

    @classmethod
    def _owned(cls, counts: np.ndarray, params: AlphabetParams) -> "CompositeMatrix":
        """The matrix of an array its caller built and hands over: checked as any input is, but
        held as it is (made read-only) where its dtype already fits, so it is never held twice."""
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "params", params)
        object.__setattr__(matrix, "counts", cls._checked(counts, params, copy=False))
        return matrix

    @staticmethod
    def _checked(counts, params: AlphabetParams, copy: bool) -> np.ndarray:
        """`counts` checked as the class docstring says, read-only; an int64 array is copied only if `copy`."""
        q, m = params.q, params.M
        counts = counts if isinstance(counts, np.ndarray) else np.array(counts, dtype=object)
        if counts.dtype != np.int64:
            entries = counts.ravel().tolist()
            for c in entries:
                if not _is_int(c):
                    raise ValueError(f"counts must be integers, got {brief(c)}")
            counts = np.array([int(c) for c in entries], dtype=object).reshape(counts.shape)
        if counts.ndim != 2 or len(counts) != q or counts.shape[1] < 1:
            raise ValueError(f"composite matrix needs a ({q}, n) count array with n >= 1, got shape {counts.shape}")
        # Counts in [0, M] sum exactly in int64 while q * M < 2^63; a column outside that range is bad anyway.
        negative = (counts < 0).any(axis=0)
        exact = np.int64 if counts.dtype == np.int64 and q * m < 1 << 63 else object
        bad = np.flatnonzero(negative | (counts > m).any(axis=0) | (counts.sum(axis=0, dtype=exact) != m))
        if len(bad):
            j, column = bad[0] + 1, counts[:, bad[0]].tolist()
            if negative[j - 1]:
                raise ValueError(f"column {j}: counts must be nonnegative integers, got {brief_json(column)}")
            raise ValueError(f"column {j}: counts sum to {brief(sum(column))}, expected M={brief(m)}")
        counts = counts.astype(_count_dtype(m), copy=copy)
        counts.flags.writeable = False
        return counts

    @property
    def n(self) -> int:
        return self.counts.shape[1]

    @functools.cached_property
    def columns(self) -> tuple[CompositeSymbol, ...]:
        """The columns as composite symbols, built on first use."""
        return tuple(CompositeSymbol(tuple(col)) for col in self.counts.T.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompositeMatrix):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.counts, other.counts)

    def __hash__(self) -> int:
        return hash((self.columns, self.params))

    def to_json(self) -> str:
        return json.dumps({"q": self.params.q, "M": self.params.M, "columns": self.counts.T.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "CompositeMatrix":
        """Parse to_json's format; q, M and every count must be JSON integers."""
        obj = json_fields(json.loads(text), _MATRIX_FIELDS, "matrix")
        params = AlphabetParams(q=obj["q"], M=obj["M"])
        cols = []
        for j, col in enumerate(obj["columns"], start=1):
            entries = enumerate(json_value(col, "array", f"column {j}"), start=1)
            cols.append([json_value(x, "integer", f"column {j} entry {i}") for i, x in entries])
            if len(cols[-1]) != params.q:
                raise ValueError(f"column {j}: symbol has {len(cols[-1])} counts, alphabet has q={params.q}")
        return cls(np.array(cols, dtype=object).reshape(-1, params.q).T, params)


# The one reader of JSON input. A kind is a JSON value type; a bool is never
# an integer or a number. A table maps each key of an object to (kind,
# default), where the default REQUIRED makes the key mandatory.
_JSON_KINDS = {"integer": int, "number": (int, float), "bool": bool, "string": str, "object": dict, "array": list}
REQUIRED = object()
_MATRIX_FIELDS = {"q": ("integer", REQUIRED), "M": ("integer", REQUIRED), "columns": ("array", REQUIRED)}


def brief(value: object) -> str:
    """`value` for an error message. An integer (a numpy one as an int) of more
    than 50 digits is shown as its first ten digits and its length, read through
    Decimal: int-to-str conversion fails past 4300 digits (Python >= 3.10.7)."""
    from decimal import Decimal  # only error paths pay for the import

    if isinstance(value, np.integer):
        value = int(value)
    if isinstance(value, int):
        sign, digits, _ = Decimal(value).as_tuple()
        if len(digits) > 50:
            return f"{'-' * sign}{''.join(map(str, digits[:10]))}... ({len(digits)} digits)"
    return repr(value)


def _is_int(value: object) -> bool:
    """Whether `value` is an integer argument: an int or a numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _int_arg(value: object, name: str, lo: int, hi: Optional[int] = None, hi_shown: str = "", why: str = "") -> int:
    """`value` if it is an integer (_is_int) in [lo, hi), or at least lo where hi is None. Otherwise a ValueError
    names `name` and shows each number through brief (hi as `hi_shown`); a range error ends in ` (why)`."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {brief(value)}")
    if lo <= value and (hi is None or value < hi):
        return value
    note = f" ({why})" if why else ""
    if hi is None:
        raise ValueError(f"{name} must be >= {brief(lo)}, got {brief(value)}{note}")
    raise ValueError(f"{name} {brief(value)} outside [{brief(lo)}, {hi_shown or brief(hi)}){note}")


def brief_json(value: object) -> str:
    """`value` as JSON for an error message, with every integer in it shown by brief.

    Containers are walked in plain loops, one frame per level of nesting, so
    that any value json.loads returns renders within the recursion limit."""
    parts = []
    if isinstance(value, (list, tuple)):
        for item in value:
            parts.append(brief_json(item))
        return f"[{', '.join(parts)}]"
    if isinstance(value, dict):
        for key, item in value.items():
            parts.append(f"{json.dumps(str(key))}: {brief_json(item)}")
        return f"{{{', '.join(parts)}}}"
    return brief(value) if isinstance(value, int) and not isinstance(value, bool) else json.dumps(value, default=repr)


def json_value(value: object, kind: str, path: str):
    """`value` if it is a JSON `kind`; otherwise a ValueError naming `path`."""
    if not (isinstance(value, _JSON_KINDS[kind]) and isinstance(value, bool) == (kind == "bool")):
        article = "an" if kind[0] in "aeiou" else "a"
        raise ValueError(f"{path} must be {article} {kind}, got {brief_json(value)}")
    return value


def json_fields(obj: object, table: dict, path: str) -> dict:
    """Every field of the JSON object `obj` at `path`, read against `table`.

    A non-object, an unknown key, a missing required key and a value of the
    wrong kind are ValueErrors; a field is named `path.key`. A missing key
    takes its default, and a field whose default is None may also be null.
    """
    unknown = sorted(set(json_value(obj, "object", path)) - set(table))
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))} in {path}")
    fields = {}
    for key, (kind, default) in table.items():
        value = fields[key] = obj.get(key, default)
        if value is REQUIRED:
            raise ValueError(f"missing key {key!r} in {path}")
        if not (value is default is None):
            json_value(value, kind, f"{path}.{key}")
    return fields


def csv_row(values: Iterable[object]) -> str:
    """One CSV row, by the one cell rule: None is an empty cell, a bool is
    true or false, a float has 12 significant digits, anything else is str."""
    return ",".join([
        "" if v is None else ("true" if v else "false") if isinstance(v, bool)
        else f"{v:.12g}" if isinstance(v, float) else str(v)
        for v in values
    ])


def alphabet_size(params: AlphabetParams) -> int:
    """Number of composite symbols: C(M+q-1, q-1), exactly."""
    return math.comb(params.M + params.q - 1, params.q - 1)


def restricted_symbol_count(params: AlphabetParams, excluded_base: int) -> int:
    """Number of composite symbols whose count at `excluded_base` is nonzero.

    Equals C(M+q-1, q-1) - C(M+q-2, q-2): total symbols minus those that
    place zero weight on the excluded base.
    """
    q, m = params.q, params.M
    _int_arg(excluded_base, "base index", 1, q + 1)
    return math.comb(m + q - 1, q - 1) - math.comb(m + q - 2, q - 2)


def _compositions(parts: int, total: int) -> Iterator[tuple[int, ...]]:
    # Last coordinate descending, prefix recursively: yields the colex order
    # matching _rank_composition below.
    if parts == 1:
        yield (total,)
        return
    for last in range(total, -1, -1):
        for rest in _compositions(parts - 1, total - last):
            yield rest + (last,)


def _rank_composition(counts: Sequence[int]) -> int:
    # Combinadic rank via the partial-sum subset {x_1, x_1+x_2+1, ...}.
    rank = 0
    acc = 0
    for j, x in enumerate(counts[:-1], start=1):
        acc += x
        rank += math.comb(acc + j - 1, j)
    return rank


def _unrank_bars(index: int, parts: int, total: int) -> tuple[int, ...]:
    if total == 1:  # the unit vectors, in colex order the one at part parts - 1 - index: no bisection
        return (0,) * (parts - 1 - index) + (1,) + (0,) * index
    # Bar j is the largest s with C(s, j) <= r, bisected on [j - 1, hi): C(j - 1, j) = 0 <= r,
    # and r < C(hi, j) for hi = bar j + 1 (for the top bar, total + parts - 1: r < Q).
    r, hi = index, total + parts - 1
    subset = [0] * (parts - 1)
    for j in range(parts - 1, 0, -1):
        s = j - 1
        while hi - s > 1:
            mid = (s + hi) // 2
            if math.comb(mid, j) <= r:
                s = mid
            else:
                hi = mid
        subset[j - 1] = hi = s
        r -= math.comb(s, j)
    # Each count is the gap between consecutive bars among total + parts - 1 slots.
    edges = [-1, *subset, total + parts - 1]
    return tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


# An encoder unranks the same few symbols column after column (84 free and 56 breaker
# symbols at q = 4, M = 6), so they are memoized. The memo is bounded by the parts it
# holds, not by its entries: it keeps 4096 symbols of at most 256 parts, 2^20 parts in
# all, and a symbol of more parts (q > 256, where few repeat) is unranked afresh.
_unrank_memo = functools.lru_cache(maxsize=4096)(_unrank_bars)


@functools.wraps(_unrank_bars)
def _unrank_composition(index: int, parts: int, total: int) -> tuple[int, ...]:
    return (_unrank_memo if parts <= 256 else _unrank_bars)(index, parts, total)


def enumerate_symbols(params: AlphabetParams) -> list[CompositeSymbol]:
    """All Q symbols exactly once, in colexicographic order of counts."""
    return [CompositeSymbol(c) for c in _compositions(params.q, params.M)]


def rank_symbol(symbol: CompositeSymbol, params: AlphabetParams) -> int:
    """Index of `symbol` within enumerate_symbols(params), in [0, Q)."""
    symbol.validate(params)
    return _rank_composition(symbol.counts)


def unrank_symbol(index: int, params: AlphabetParams) -> CompositeSymbol:
    """Inverse of rank_symbol."""
    _int_arg(index, "symbol index", 0, alphabet_size(params))
    return CompositeSymbol(_unrank_composition(index, params.q, params.M))


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Largest remainders, exactly, down every column of a (q, n) table of nonnegative integers.

    A column of sum w > 0 gets the floors x * total // w, plus a unit at each of
    its total - sum(floors) largest remainders x * total % w, ties to the lowest
    row; a zero weight never gets one. Sums and products are int64 below
    max(x) * q * total = 2^63, and Python ints from there on.
    """
    exact = np.int64 if int(weights.max()) * len(weights) * max(total, 1) < 1 << 63 else object
    scaled, sums = weights.astype(exact) * total, weights.sum(axis=0, dtype=exact)
    floors = scaled // sums
    # Each column's rows by larger remainder, then lower row: a stable sort of minus the remainders.
    order = np.argsort(floors * sums - scaled, axis=0, kind="stable")
    units = np.zeros(weights.shape, dtype=bool)
    np.put_along_axis(units, order, np.arange(len(weights))[:, None] < total - floors.sum(axis=0), axis=0)
    return floors + units


def largest_remainder_apportion(values: Sequence[float], total: int) -> list[int]:
    """Round nonnegative reals to integers summing to `total`.

    Scales to the target sum, takes floors, then hands the leftover units to
    the largest fractional parts; ties go to the lowest index. Minimizes the
    L1 distance to the scaled input among integer vectors with that sum.
    Exact: floats are read at their binary value, over a common denominator.
    """
    _int_arg(total, "total", 0)
    try:
        ratios = [(v if isinstance(v, float) else operator.index(v)).as_integer_ratio() for v in values]
    except OverflowError:  # an infinity; a NaN is a ValueError already
        raise ValueError(f"values must be finite, got {values}") from None
    scale = math.lcm(*(d for _, d in ratios))
    weights = np.array([[p * (scale // d)] for p, d in ratios], dtype=object)
    if (weights < 0).any() or not weights.sum() > 0:
        raise ValueError("values must be nonnegative with a positive sum")
    return _apportion(weights, total)[:, 0].tolist()

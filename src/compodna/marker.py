"""Marker-based code construction for single strand breaks.

A codeword of length n carries a deterministic marker block of ell+2
columns at each end: an anchor-base column, ell marker-base columns at
full weight M, and another anchor column. So that the marker's base
pattern can never arise inside the data, every ell-th data column is a
"breaker": a column whose marker-base count is forced to zero. Fragments
of a broken strand are then positioned by which end markers they retain.

Column indices and base indices are 1-based throughout, matching the
construction's arithmetic (breaker columns are exactly the j with
(j + 2) mod ell == 0 inside the data region).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .symbols import (
    AlphabetParams,
    CompositeMatrix,
    CompositeSymbol,
    _unrank_composition,
    _rank_composition,
    alphabet_size,
    restricted_symbol_count,
)


class InvalidCodewordError(ValueError):
    """A matrix violates one of the codeword constraints; message names column and condition."""


@dataclass(frozen=True)
class MarkerCodeParams:
    """Layout parameters: alphabet, codeword length n, marker run length ell.

    `marker_base` fills the marker interior, `anchor_base` its two flanking
    columns. Defaults 1 and 2 ("A" interior, "C" anchors for DNA).
    """

    alphabet: AlphabetParams
    n: int
    ell: int
    marker_base: int = 1
    anchor_base: int = 2

    def __post_init__(self) -> None:
        q = self.alphabet.q
        if self.ell < 1:
            raise ValueError(f"marker run length ell must be >= 1, got {self.ell}")
        if self.n < 2 * (self.ell + 2) + 1:
            raise ValueError(
                f"n={self.n} too small: need n >= {2 * (self.ell + 2) + 1} "
                f"for two markers plus one data column"
            )
        for name, base in (("marker_base", self.marker_base), ("anchor_base", self.anchor_base)):
            if not 1 <= base <= q:
                raise ValueError(f"{name}={base} outside [1, {q}]")
        if self.marker_base == self.anchor_base:
            raise ValueError("marker_base and anchor_base must differ")

    @property
    def q(self) -> int:
        return self.alphabet.q

    @property
    def M(self) -> int:
        return self.alphabet.M

    @property
    def is_degenerate(self) -> bool:
        """ell == 1 makes every data column a breaker; permitted but wasteful."""
        return self.ell == 1

    def marker_pattern(self) -> tuple[int, ...]:
        """Base-index pattern of one marker block: anchor, marker x ell, anchor."""
        return (self.anchor_base,) + (self.marker_base,) * self.ell + (self.anchor_base,)

    def total_symbols(self) -> int:
        return alphabet_size(self.alphabet)

    def restricted_symbols(self) -> int:
        """Symbols carrying nonzero marker-base weight (forbidden at breakers)."""
        return restricted_symbol_count(self.alphabet, self.marker_base)


@dataclass(frozen=True)
class LayoutMap:
    """Partition of columns [1, n] into marker, breaker, and free positions."""

    marker_positions: frozenset[int]
    breaker_positions: frozenset[int]
    free_positions: frozenset[int]

    def data_positions(self) -> list[int]:
        """Breaker and free columns in ascending column order."""
        return sorted(self.breaker_positions | self.free_positions)


def layout(params: MarkerCodeParams) -> LayoutMap:
    """Column roles for the given parameters.

    Markers occupy [1, ell+2] and [n-ell-1, n]; breakers are the data
    columns j with (j + 2) mod ell == 0; the rest of the data is free.
    """
    marker = frozenset(_marker_columns(params))
    data = [j for j in range(1, params.n + 1) if j not in marker]
    breaker = frozenset(j for j in data if (j + 2) % params.ell == 0)
    free = frozenset(data) - breaker
    return LayoutMap(marker_positions=marker, breaker_positions=breaker, free_positions=free)


def _marker_column(params: MarkerCodeParams, base: int) -> CompositeSymbol:
    counts = [0] * params.q
    counts[base - 1] = params.M
    return CompositeSymbol(tuple(counts))


def _marker_columns(params: MarkerCodeParams) -> dict[int, CompositeSymbol]:
    """Constructed marker-block columns: marker_pattern() laid at both ends."""
    pattern = params.marker_pattern()
    offset = params.n - len(pattern)
    cols = {}
    for j, base in enumerate(pattern, start=1):
        cols[j] = cols[offset + j] = _marker_column(params, base)
    return cols


def _insert_zero(counts: tuple[int, ...], index0: int) -> tuple[int, ...]:
    return counts[:index0] + (0,) + counts[index0:]


def _delete_index(counts: tuple[int, ...], index0: int) -> tuple[int, ...]:
    return counts[:index0] + counts[index0 + 1 :]


def message_radices(params: MarkerCodeParams) -> list[int]:
    """Per-data-column alphabet sizes: Q at free columns, Q-R at breakers."""
    lay = layout(params)
    full = params.total_symbols()
    reduced = full - params.restricted_symbols()
    return [reduced if j in lay.breaker_positions else full for j in lay.data_positions()]


def construct_codeword(message: Sequence[int], params: MarkerCodeParams) -> CompositeMatrix:
    """Encode a mixed-radix message into a codeword matrix.

    One message symbol per data column, consumed in column order: free
    columns unrank over the full composite alphabet, breaker columns over
    the subalphabet with zero marker-base weight.
    """
    lay = layout(params)
    data = lay.data_positions()
    if len(message) != len(data):
        raise ValueError(f"message has {len(message)} symbols, layout expects {len(data)}")
    q, m = params.q, params.M
    radices = message_radices(params)
    cols = _marker_columns(params)
    mb0 = params.marker_base - 1
    for j, sym, radix in zip(data, message, radices):
        if not 0 <= sym < radix:
            raise ValueError(f"message symbol {sym} at column {j} outside radix [0, {radix})")
        if j in lay.breaker_positions:
            cols[j] = CompositeSymbol(_insert_zero(_unrank_composition(sym, q - 1, m), mb0))
        else:
            cols[j] = CompositeSymbol(_unrank_composition(sym, q, m))
    columns = tuple(cols[j] for j in range(1, params.n + 1))
    return CompositeMatrix(columns=columns, params=params.alphabet)


@dataclass(frozen=True)
class CodewordCheck:
    """Validation outcome; `violations` name the failed condition and column."""

    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_valid_codeword(matrix: CompositeMatrix, params: MarkerCodeParams) -> CodewordCheck:
    """Check the three codeword conditions plus column well-formedness.

    Condition 1: the four anchor columns put full weight on the anchor base.
    Condition 2: the marker-interior columns put full weight on the marker base.
    Condition 3: breaker columns carry zero marker-base weight.
    """
    violations = []
    if matrix.params != params.alphabet:
        violations.append(
            f"alphabet mismatch: matrix has (q={matrix.params.q}, M={matrix.params.M}), "
            f"params expect (q={params.q}, M={params.M})"
        )
        return CodewordCheck(ok=False, violations=tuple(violations))
    if matrix.n != params.n:
        violations.append(f"length mismatch: matrix has {matrix.n} columns, params expect {params.n}")
        return CodewordCheck(ok=False, violations=tuple(violations))
    expected = _marker_columns(params)
    lay = layout(params)
    mb0 = params.marker_base - 1
    for j, col in enumerate(matrix.columns, start=1):
        if j in expected:
            want = expected[j]
            if col != want:
                cond = 1 if want.counts[params.anchor_base - 1] == params.M else 2
                violations.append(f"column {j}: marker column mismatch (condition {cond})")
        elif j in lay.breaker_positions and col.counts[mb0] != 0:
            violations.append(
                f"column {j}: breaker column has nonzero marker-base count (condition 3)"
            )
    return CodewordCheck(ok=not violations, violations=tuple(violations))


def decode_matrix(codeword: CompositeMatrix, params: MarkerCodeParams) -> list[int]:
    """Inverse of construct_codeword; raises InvalidCodewordError on a bad matrix."""
    check = is_valid_codeword(codeword, params)
    if not check:
        raise InvalidCodewordError("; ".join(check.violations))
    lay = layout(params)
    mb0 = params.marker_base - 1
    message = []
    for j in lay.data_positions():
        counts = codeword.columns[j - 1].counts
        if j in lay.breaker_positions:
            message.append(_rank_composition(_delete_index(counts, mb0)))
        else:
            message.append(_rank_composition(counts))
    return message


def _breaker_cost(alphabet: AlphabetParams) -> float:
    """log_Q(Q/(Q-R)) symbols per breaker; R is the same for every excluded base."""
    Q = alphabet_size(alphabet)
    return math.log(Q / (Q - restricted_symbol_count(alphabet, 1)), Q)


def code_redundancy_formula(params: MarkerCodeParams) -> float:
    """Redundancy 2l + 4 + floor((n - 2(l+2))/l) log_Q(Q/(Q-R)), in symbols."""
    n, ell = params.n, params.ell
    return 2 * ell + 4 + ((n - 2 * (ell + 2)) // ell) * _breaker_cost(params.alphabet)


def measured_code_redundancy(params: MarkerCodeParams) -> float:
    """Redundancy from the actual layout: 2(l+2) + |breakers| log_Q(Q/(Q-R)).

    Can exceed code_redundancy_formula by one breaker's cost: the layout
    predicate may place one more breaker than the floor term accounts for.
    """
    lay = layout(params)
    return 2 * (params.ell + 2) + len(lay.breaker_positions) * _breaker_cost(params.alphabet)


@dataclass(frozen=True)
class OptimalMarkerLength:
    """Closed-form and integer-scan optima for the marker run length."""

    ell_formula: float
    ell_integer: int
    redundancy_at_optimum: float


def optimal_marker_length(q: int, M: int, n: int) -> OptimalMarkerLength:
    """Marker length minimizing the code redundancy.

    The continuous optimum is ell* = sqrt((n-4)/2 * log_Q(Q/(Q-R))) with
    minimized redundancy 4 + 2 sqrt(2(n-4) log_Q(Q/(Q-R))) - 2 log_Q(Q/(Q-R)).
    `ell_integer` scans code_redundancy_formula over all feasible integer
    ell (ties to the smaller ell).
    """
    if n < 9:
        raise ValueError(f"need n >= 9, got {n}")
    alphabet = AlphabetParams(q=q, M=M)
    lam = _breaker_cost(alphabet)
    ell_formula = math.sqrt((n - 4) / 2 * lam)
    red_opt = 4 + 2 * math.sqrt(2 * (n - 4) * lam) - 2 * lam

    best_ell, best_red = None, None
    for ell in range(1, (n - 5) // 2 + 1):
        red = code_redundancy_formula(MarkerCodeParams(alphabet=alphabet, n=n, ell=ell))
        if best_red is None or red < best_red:
            best_ell, best_red = ell, red
    return OptimalMarkerLength(ell_formula=ell_formula, ell_integer=best_ell, redundancy_at_optimum=red_opt)


def continuous_redundancy(q: int, M: int, n: int, ell: float) -> float:
    """Floor-free redundancy relaxation 2l + 4 + ((n-4)/l - 2) log_Q(Q/(Q-R))."""
    lam = _breaker_cost(AlphabetParams(q=q, M=M))
    return 2 * ell + 4 + ((n - 4) / ell - 2) * lam


def asymptotic_optimal_ell(Q: int, R: int, n: int) -> float:
    """Reference marker length log_{Q/R}(n / ln n) for order-optimal encoders.

    Balances the marker cost (growing in ell) against the expected
    constraint cost (R/Q)^ell * n; the additive O(1) term is taken as 0.
    """
    if not Q > R >= 1:
        raise ValueError(f"need Q > R >= 1, got Q={Q}, R={R}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return math.log(n / math.log(n)) / math.log(Q / R)


class FragmentClass(Enum):
    """How a sequenced fragment relates to the codeword's marker blocks."""

    FULL = "Full"
    PREFIX = "Prefix"
    SUFFIX = "Suffix"
    MARKER_ONLY = "MarkerOnly"
    DISCARD = "Discard"


def classify_fragment(fragment: Sequence[int], params: MarkerCodeParams) -> FragmentClass:
    """Classify a fragment by the marker blocks it retains.

    Full: length n with both markers. MarkerOnly: exactly one bare marker
    block. Prefix / Suffix: starts / ends with a complete marker block.
    Everything else is discarded, including fragments shorter than a marker
    block and sub-length fragments that match at both ends (ambiguous).
    """
    n = params.n
    length = len(fragment)
    if length > n:
        raise ValueError(f"fragment of length {length} exceeds codeword length {n}")
    pattern = params.marker_pattern()
    span = len(pattern)
    if length < span:
        return FragmentClass.DISCARD
    head = tuple(int(b) for b in fragment[:span])
    tail = tuple(int(b) for b in fragment[length - span :])
    starts = head == pattern
    ends = tail == pattern
    if length == span and starts:
        return FragmentClass.MARKER_ONLY
    if starts and ends:
        return FragmentClass.FULL if length == n else FragmentClass.DISCARD
    if starts:
        return FragmentClass.PREFIX
    if ends:
        return FragmentClass.SUFFIX
    return FragmentClass.DISCARD


def classification_interval(
    fragment: Sequence[int], params: MarkerCodeParams
) -> tuple[FragmentClass, Optional[tuple[int, int]]]:
    """Fragment class plus the column interval it covers (None if unusable)."""
    kind = classify_fragment(fragment, params)
    length = len(fragment)
    if kind is FragmentClass.FULL:
        return kind, (1, params.n)
    if kind is FragmentClass.PREFIX:
        return kind, (1, length)
    if kind is FragmentClass.SUFFIX:
        return kind, (params.n - length + 1, params.n)
    return kind, None


def classification_json(fragment: Sequence[int], params: MarkerCodeParams) -> dict:
    kind, interval = classification_interval(fragment, params)
    return {"class": kind.value, "interval": None if interval is None else list(interval)}

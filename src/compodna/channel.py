"""Strand-break channel simulator.

Pipeline: a codeword matrix is synthesized into S i.i.d. strands (each
position drawn from its column's base distribution), every strand suffers
stochastic backbone breaks, the resulting unordered fragments are pooled
and K of them sampled, fragments are positioned by their retained marker
blocks, and the composite matrix is re-estimated from the aligned base
counts.

A pool is held as arrays, not as fragment objects: the (S, n) strand
matrix of 1-based base indices (uint8 below q = 256, int16 from there) plus
one (strand, start, end) triplet per fragment (`FragmentPool`), strand-major.
Stages work in blocks of about `_BLOCK` draws or aligned bases, with no
per-strand or per-fragment loop. Below q = `_COLUMN_COUNT_Q`, a pool-order
sample whose fragments at their own columns cover `_COLUMN_COUNT_SHARE` of
the matrix is counted as its column counts less the gaps (align_pool).

Randomness comes from PCG64DXSM (O'Neill, "PCG: A family of simple fast
space-efficient statistically good algorithms", 2014), one 64-bit word a
draw. Synthesis, breaking, sampling and the message draw each read their
own lane: the stream keyed by (seed, lane). Synthesis and breaking read
theirs in rows through one reader (_lane_rows), under one rule: strand i's
row of w draws starts at draw i * w of its lane. A break row holds w
doubles (_break_width); a synthesis row holds ceil(n / k) words, k base-M
slots a word (see synthesize). So strand i reads the same draws whatever
the strand count or block size, and results are identical under any
execution order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .marker import FragmentClass, MarkerCodeParams, construct_codeword, layout, message_radices
from .marker import _check_radices, _class_rule
from .symbols import REQUIRED, AlphabetParams, CompositeMatrix, brief, brief_json, json_fields, json_value
from .symbols import _apportion, _count_dtype, _int_arg

# Substream lanes: strand synthesis, strand breaking, fragment sampling,
# and the message draw each get a disjoint key space.
LANE_SYNTH = 0
LANE_BREAK = 1
LANE_SAMPLE = 2
LANE_MESSAGE = 3

# Draws or aligned bases per vectorized block. This bounds every stage's working set but one,
# synthesis's chunk tables, which are sized by n * M^c (_chunk_tables) and capped by _TABLE_CAP.
# The column count reads blocks of 16 * _BLOCK positions, at most 255 rows each (uint8 sums).
_BLOCK = 1 << 14
# Entries in all of synthesis's chunk tables together: n = 1000 at M = 6 needs 326,592 at c = 4.
_TABLE_CAP = 1 << 19
# Compare passes below this q unless every chunk is 4 whole digits (synthesize, ms, 2 cores). At q = 4
# they beat c <= 2 tables 1.4-1.8x and c = 4 tables with a short last chunk ((4, 7, 100; 5,000 strands)
# 1.4-1.55 vs 1.9-2.0), but from q = 8 those tables are faster (passes -> tables): (8, 7, 100; 10,000
# strands) 3.5-3.8 -> 2.5-2.6, (16, 7, 100) 5.2 -> 2.5-2.7 and (20, 5, 100) 5.3 -> 2.3-2.5.
_TABLE_Q = 24
# align_pool counts by columns when that covers this share of the strand matrix; below
# it the gather is faster (the times cross near 0.63 at n = 100, 0.60 at n = 1000).
_COLUMN_COUNT_SHARE = 0.65
# align_pool counts by columns only below this q: its q - 1 passes cross the gather near q = 16
# at the share cut and near q = 48 over a whole pool (align_pool ratios, n = 100 and 1000).
_COLUMN_COUNT_Q = 16


def substream(seed: int, lane: int, index: int = 0) -> np.random.Generator:
    """Independent PCG64DXSM stream keyed by (seed, lane, index); seed an integer in [0, 2^64).

    Index 0 is the lane's own stream, which the batched stages read row by
    row (see the module docstring). Other indices give independent streams
    for per-item callers, such as one per strand for apply_breaks_traced.
    """
    _int_arg(seed, "seed", 0, 1 << 64, "2^64")  # SeedSequence would take a bool or an integer past 2^64
    _int_arg(lane, "substream lane", 0, 16)
    _int_arg(index, "substream index", 0, 1 << 60, "2^60")
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(lane, index))))


def _block_rows(stride: int) -> int:
    return max(1, _BLOCK // max(stride, 1))


def _lane_rows(draw: Callable[[int], np.ndarray], count: int, stride: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (row offset, block of rows) covering `count` rows, max(1, _BLOCK // stride) a block (_block_rows):
    row i is draws i * stride .. i * stride + stride - 1 of the lane that `draw(size)` reads on."""
    step = _block_rows(stride)
    for lo in range(0, count, step):
        rows = min(step, count - lo)
        yield lo, draw(rows * stride).reshape(rows, stride)


@dataclass(frozen=True)
class PerBond:
    """Each of the n-1 backbone bonds breaks independently with probability p."""

    p: float

    def __post_init__(self) -> None:
        # Check before converting: float() overflows on an int past 1e308.
        if not 0 <= self.p <= 1:
            raise ValueError(f"bond break probability must be in [0, 1], got {brief(self.p)}")
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True)
class _TBreaks:
    """The t-break models' one body. `bond_range` (lo, hi), 1-based inclusive,
    restricts the candidate bonds; None means all of [1, n-1]."""

    t: int
    bond_range: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        _int_arg(self.t, "break count", 0)
        if self.bond_range is not None:
            for i, end in enumerate(self.bond_range, start=1):
                _int_arg(end, f"bond range entry {i}", -math.inf)  # any integer: bonds(n) checks the fit
            self.bonds()

    def bonds(self, n: Optional[int] = None) -> tuple[int, int]:
        """Candidate bonds (lo, hi) on strands of length n, none at n = 1 (where only t = 0 fits);
        without n, only a given `bond_range` is checked, not its fit in [1, n-1]."""
        lo, hi = self.bond_range if self.bond_range is not None else (1, n - 1)
        if n is not None and (lo < 1 or hi > n - 1):
            raise ValueError(f"bond range ({lo}, {hi}) outside [1, {n - 1}]")
        if self.bond_range is not None and lo > hi:
            raise ValueError(f"bond range ({lo}, {hi}) is empty")
        if self.t > hi - lo + 1:
            raise ValueError(f"cannot place {self.t} distinct breaks among {hi - lo + 1} bonds")
        return lo, hi


# Siblings, not parent and child: an AtMostT must never pass as an ExactlyT.
@dataclass(frozen=True)
class ExactlyT(_TBreaks):
    """Exactly t breaks at uniformly chosen distinct bonds."""


@dataclass(frozen=True)
class AtMostT(_TBreaks):
    """Break count uniform over 0..t, at uniformly chosen distinct bonds."""


BreakModel = Union[PerBond, ExactlyT, AtMostT]


# A config's JSON tables, one per section; each key is also its dataclass field's name.
_T_FIELDS = {"t": ("integer", REQUIRED), "bond_range": ("array", None)}
_BREAK_MODELS = {
    "per_bond": (PerBond, {"p": ("number", REQUIRED)}),
    "exactly_t": (ExactlyT, _T_FIELDS),
    "at_most_t": (AtMostT, _T_FIELDS),
}
_CODE_FIELDS = dict.fromkeys(("q", "M", "n", "ell"), ("integer", REQUIRED)) | {
    "marker_base": ("integer", MarkerCodeParams.marker_base),
    "anchor_base": ("integer", MarkerCodeParams.anchor_base),
}
_CONFIG_FIELDS = {
    "code_params": ("object", REQUIRED),
    "strand_count": ("integer", REQUIRED),
    "break_model": ("object", REQUIRED),
    "sample_size": ("integer", None),
    "with_replacement": ("bool", False),
    "seed": ("integer", None),  # from_json_dict sets the default seed
}


def break_model_to_json_dict(model: BreakModel) -> dict:
    kind, table = next((kind, table) for kind, (cls, table) in _BREAK_MODELS.items() if isinstance(model, cls))
    out = {"kind": kind}
    for key in table:
        value = getattr(model, key)
        if value is not None:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def break_model_from_json_dict(obj: dict, path: str = "break_model") -> BreakModel:
    """Read a break model; a ValueError names any unknown key or mistyped field under `path`."""
    kind = json_value(json_value(obj, "object", path).get("kind"), "string", f"{path}.kind")
    if kind not in _BREAK_MODELS:
        raise ValueError(f"unknown break model kind {kind!r}")
    model, table = _BREAK_MODELS[kind]
    fields = json_fields(obj, dict(table, kind=("string", REQUIRED)), path)
    del fields["kind"]
    rng = fields.get("bond_range")
    if rng is not None:
        if len(rng) != 2:
            raise ValueError(f"{path}.bond_range must hold two integers, got {brief_json(rng)}")
        where = f"{path}.bond_range entry"
        fields["bond_range"] = tuple(json_value(b, "integer", f"{where} {i}") for i, b in enumerate(rng, start=1))
    return model(**fields)


@dataclass(frozen=True)
class ChannelConfig:
    """One end-to-end experiment: code, strand count, breaks, sampling, seed.

    `sample_size` None means "sample the whole pool". Sampling defaults to
    without replacement. A t-break model's bond range is checked against
    the code length here, before any strand is drawn.
    """

    code_params: MarkerCodeParams
    strand_count: int
    break_model: BreakModel
    sample_size: Optional[int]
    with_replacement: bool
    seed: int

    def __post_init__(self) -> None:
        _int_arg(self.strand_count, "strand_count", 1)
        if self.sample_size is not None:
            _int_arg(self.sample_size, "sample_size", 1, why="or null for the full pool")
        if not isinstance(self.break_model, PerBond):
            self.break_model.bonds(self.code_params.n)
        _slots_per_word(self.code_params.M)
        _check_radices(self.code_params)
        _base_dtype(self.code_params.q)

    def to_json_dict(self) -> dict:
        out = {key: getattr(self, key) for key in _CONFIG_FIELDS}
        out["code_params"] = {key: getattr(self.code_params, key) for key in _CODE_FIELDS}
        out["break_model"] = break_model_to_json_dict(self.break_model)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, obj: dict, default_seed: Optional[int] = None) -> "ChannelConfig":
        """Parse a config; a ValueError names any unknown key or mistyped field."""
        fields = json_fields(obj, dict(_CONFIG_FIELDS, seed=("integer", default_seed)), "config")
        cp = json_fields(fields["code_params"], _CODE_FIELDS, "config.code_params")
        fields["code_params"] = MarkerCodeParams(alphabet=AlphabetParams(q=cp.pop("q"), M=cp.pop("M")), **cp)
        if fields["seed"] is None:
            raise ValueError("config has no seed and no default seed is set")
        fields["break_model"] = break_model_from_json_dict(fields["break_model"], "config.break_model")
        return cls(**fields)

    @classmethod
    def from_json(cls, text: str, default_seed: Optional[int] = None) -> "ChannelConfig":
        return cls.from_json_dict(json.loads(text), default_seed=default_seed)


def _slots_per_word(m: int) -> int:
    """Base-M slots synthesis reads from one 64-bit word: the largest k <= 32 with M^k <= 2^32."""
    if m > 1 << 32:
        raise ValueError(f"synthesis draws base-M slots from 32 bits, so M must be <= 2^32, got M={brief(m)}")
    return next(k for k in range(32, 0, -1) if m**k <= 1 << 32)


def _base_dtype(q: int) -> np.dtype:
    """The strand matrix's dtype, and the width of a chunk table's lanes: 1-based bases as uint8
    below q = 256 and as int16 from there, so q may be at most 32,767."""
    if q > np.iinfo(np.int16).max:
        raise ValueError(f"synthesized strands hold bases as int16, so q must be <= 32767, got q={brief(q)}")
    return np.dtype(np.uint8 if q < 256 else np.int16)


def synthesize(matrix: CompositeMatrix, count: int, seed: int) -> np.ndarray:
    """Draw `count` i.i.d. strands from the matrix's column distributions.

    Returns a (count, n) array of 1-based base indices: uint8 below q = 256, int16 from q = 256
    up to 32,767. Each 64-bit word r of the synthesis lane holds k = _slots_per_word(M) base-M
    slots, the digits of v = floor(r * M^k / 2^64), least significant first: strand i reads words
    i*W .. i*W + W - 1, W = ceil(n / k), column w*k + d digit d of word w. So the
    first m strands are the same whatever `count` is. Slot s draws base b when
    cum_(b-1) <= s < cum_b (cum_b counts bases 1..b): each base is drawn with
    probability count / M to within 2^-32 (README, Determinism), a zero-count base never.
    A block's v is split into ceil(k / c) chunks of c digits, one chunk position of every word at
    a time, each looked up whole in its position's table (_chunk_tables), or at c = 1 compared
    with its column's q - 1 limits: one draw.
    """
    _int_arg(count, "strand count", 1)
    m, n, k = matrix.params.M, matrix.n, _slots_per_word(matrix.params.M)
    dtype = _base_dtype(matrix.params.q)  # raises past q = 32,767, before any table is built
    width, big = -(-n // k), np.uint64(m**k)
    c, table = _chunk_tables(matrix, k, width)
    chunk, chunks = m**c, -(-k // c)
    if table is None:
        limits = np.zeros((matrix.params.q - 1, width * k), dtype=np.min_scalar_type(m))  # padding slots are dropped
        limits[:, :n] = np.cumsum(matrix.counts, axis=0)[:-1]
    else:
        # Each word's first table entry, tiled over a block of _lane_rows: one flat add a chunk position.
        first = np.tile(np.arange(0, len(table), chunks * chunk, np.uint32), (min(count, _block_rows(width)), 1))
    strands = np.empty((count, n), dtype=dtype)

    # One block of rows r into `out`; a block's arrays die with its call, before the next is drawn.
    def compare(r: np.ndarray, out: np.ndarray) -> None:
        grid = np.empty((len(r), width, k), dtype=limits.dtype)
        for j, digit in enumerate(_chunk_values(r, big, chunk, chunks)):
            grid[:, :, j] = digit
        grid = grid.reshape(len(r), -1)
        above = np.zeros(grid.shape, dtype=strands.dtype)  # one pass per bound
        for limit in limits:
            above += grid >= limit
        np.add(above[:, :n], 1, out=out)

    def look_up(r: np.ndarray, out: np.ndarray) -> None:
        rows, lanes = len(r), np.empty((len(r), width, chunks), dtype=table.dtype)
        for j, value in enumerate(_chunk_values(r, big, chunk, chunks)):  # uint32 throughout: no buffered cast
            value += first[:rows]
            table[j * chunk :].take(value, out=lanes[:, :, j])
        lanes = lanes.view(f"<u{strands.itemsize}").reshape(rows, width, -1)  # c bases an entry
        out[:] = lanes[:, :, :k].reshape(rows, -1)[:, :n]

    fill = compare if table is None else look_up
    for lo, r in _lane_rows(substream(seed, LANE_SYNTH).bit_generator.random_raw, count, width):
        fill(r, strands[lo : lo + len(r)])
    return strands


def _chunk_values(r: np.ndarray, big: np.uint64, chunk: int, chunks: int) -> Iterator[np.ndarray]:
    """Yield chunk j = 0 .. chunks - 1 of the words r as one uint32 array each: digits j*c .. j*c + c - 1
    of v = floor(r * big / 2^64) in base M, chunk = M^c. r is overwritten; each chunk is the caller's
    to overwrite, and only valid until the next is drawn."""
    v = r >> 32
    v *= big
    r &= 0xFFFFFFFF
    r *= big
    r >>= 32
    v += r
    v >>= 32  # < 2^64 throughout
    v = v.astype(np.uint32)
    for _ in range(chunks - 1):
        rest = v // chunk
        v -= rest * chunk
        yield v
        v = rest
    yield v


def _chunk_tables(matrix: CompositeMatrix, k: int, width: int) -> tuple[int, Optional[np.ndarray]]:
    """Synthesis's lookup tables and c, the digits a chunk; (1, None) where the compare passes stay.

    Each of a strand's width * ceil(k / c) chunk positions has M^c entries, little-endian. Entry x
    at word w, chunk j packs the bases that x's digits e = 0 .. c - 1 draw at columns w*k + j*c + e,
    one a lane, lowest lane first: byte lanes, or two-byte lanes from q = 256 on. A lane past column
    n, or past the word's k digits (a short last chunk reads digit 0 there), holds any base and is
    dropped. The tables are outer sums of each column's slot->base map (bases 1..q, each repeated
    by its count), so no pass runs over q.

    c is the largest of 4, 2, 1 with c <= k and all tables under _TABLE_CAP entries. Below q =
    _TABLE_Q the q - 1 compare passes stay, unless every chunk is a whole one of 4 digits.
    """
    (q, n), m = matrix.counts.shape, matrix.params.M
    c = next((c for c in (4, 2, 1) if c <= k and width * -(-k // c) * m**c < _TABLE_CAP), 0)
    if not c or (q < _TABLE_Q and (c, k % c) != (4, 0)):
        return 1, None
    chunks = -(-k // c)
    slot_map = np.ones((width * k, m), dtype=np.uint16)
    slot_map[:n] = np.repeat(np.tile(np.arange(1, q + 1, dtype=np.uint16), n), matrix.counts.T.ravel()).reshape(n, m)
    bases = np.ones((width, chunks * c, m), dtype=np.uint16)
    bases[:, :k] = slot_map.reshape(width, k, m)
    bases = bases.reshape(width * chunks, c, m)
    lane = _base_dtype(q).itemsize
    table = np.zeros((len(bases), 1), dtype=f"u{lane * c}")
    for e in range(c):  # digit e leads the entries built so far: entry x = sum of digit_e * M^e
        shifted = bases[:, e, :, None].astype(table.dtype) << 8 * lane * e
        table = (shifted + table[:, None, :]).reshape(len(bases), -1)
    return c, table.astype(f"<u{lane * c}", copy=False).ravel()


def _break_width(model: BreakModel, n: int) -> int:
    """Uniforms per strand: one per bond, or a count draw (unused by ExactlyT) plus t Floyd draws."""
    _int_arg(n, "strand length n", -math.inf)  # the type only: the range message below keeps its wording
    if n < 1:
        raise ValueError(f"strand length must be >= 1, got n={brief(n)}")
    return n - 1 if isinstance(model, PerBond) else model.t + 1


def _cuts(u: np.ndarray, n: int, model: BreakModel) -> tuple[np.ndarray, np.ndarray]:
    """The cut core: uniform rows -> the row-major (row, bond) pairs of their cuts,
    bond b joining columns b and b+1, each row's bonds ascending. PerBond cuts
    bond b when u[:, b - 1] < p. The t-models run Floyd's sampling of distinct
    bonds on all rows at once: u[:, 0] draws AtMostT's count, u[:, 1 + s] step
    s's candidate, checked against the row's earlier picks (t(t-1)/2 compares)."""
    if isinstance(model, PerBond):
        row, col = np.nonzero(u < model.p)
        return row, col + 1
    lo, hi = model.bonds(n)
    span, t = hi - lo + 1, model.t
    # A row drawing c < t bonds skips Floyd's first t - c steps; a skipped
    # step's pick is hi + 1, never a candidate, so it is never taken.
    exact = isinstance(model, ExactlyT)
    skip = 0 if exact else t - np.minimum((u[:, 0] * (t + 1)).astype(np.intp), t)
    picks = np.full((len(u), t), hi + 1)
    # Floyd: for j = span-t .. span-1 pick r uniform in [0, j]; take j if r is taken.
    for step in range(t):
        j = span - t + step
        pick = lo + np.minimum((u[:, 1 + step] * (j + 1)).astype(np.intp), j)
        if step:
            pick[(picks[:, :step] == pick[:, None]).any(axis=1)] = lo + j
        picks[:, step] = pick if exact else np.where(step >= skip, pick, hi + 1)
    if t > 1:
        picks.sort(axis=1)
    if exact:  # every row has its t picks
        return np.arange(len(u)).repeat(t), picks.ravel()
    row, col = np.nonzero(picks <= hi)
    return row, picks[row, col]


@dataclass(frozen=True, eq=False)
class FragmentPool:
    """Fragments as parallel int32 arrays: strand row, first and last column.

    Columns are 1-based and inclusive. break_strands lists each strand's
    fragments left to right, strands in order.
    """

    strand: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def __len__(self) -> int:
        return len(self.strand)

    def __getitem__(self, idx) -> "FragmentPool":
        return FragmentPool(self.strand[idx], self.start[idx], self.end[idx])


def break_strands(n: int, model: BreakModel, count: int, seed: int) -> FragmentPool:
    """Break `count` strands of length n; the fragments of all of them.

    Strand i (the pool's strand row i) reads row i of the break lane, so
    the first m strands break the same way whatever `count` is.
    """
    _int_arg(count, "strand count", 1)
    width = _break_width(model, n)
    lane = _lane_rows(substream(seed, LANE_BREAK).random, count, width)
    blocks = [(lo, *_cuts(u, n, model)) for lo, u in lane]
    row = np.concatenate([row + lo for lo, row, _ in blocks])
    bond = np.concatenate([bond for _, _, bond in blocks], dtype=np.int32)  # the triplets' type: unbuffered scatters
    # Row-major cut c of strand r ends fragment r + c and starts fragment r + c + 1.
    after = np.arange(len(row)) + row + 1
    strand = np.repeat(np.arange(count, dtype=np.int32), np.bincount(row, minlength=count) + 1)
    start = np.ones(len(strand), dtype=np.int32)
    start[after] = bond + 1
    end = np.full(len(strand), n, dtype=np.int32)
    end[after - 1] = bond
    return FragmentPool(strand=strand, start=start, end=end)


def apply_breaks_traced(strand: np.ndarray, model: BreakModel, rng: np.random.Generator) -> list[tuple[int, np.ndarray]]:
    """Split a strand at stochastic bonds into in-order (1-based start column, fragment) pairs.

    Draws one row of the cut core's uniforms from `rng`.
    """
    strand = np.asarray(strand)
    n = len(strand)
    _, bonds = _cuts(rng.random(_break_width(model, n))[None, :], n, model)
    return [(int(s) + 1, piece) for s, piece in zip([0, *bonds], np.split(strand, bonds))]


def sample_fragments(
    pool: Union[FragmentPool, Sequence], k: int, with_replacement: bool, rng: np.random.Generator
) -> Union[FragmentPool, list]:
    """Uniformly sample k pool items.

    A FragmentPool gives a FragmentPool of the sampled triplets in pool order (the whole
    pool without replacement is the pool itself, and nothing is drawn); any other
    sequence gives a list of its sampled items, in randomized order.
    """
    size = len(pool)
    if size < 1:
        raise ValueError("fragment pool is empty")
    _int_arg(k, "sample size", 1)
    if with_replacement:
        idx = rng.integers(0, size, size=k)
    else:
        if k > size:
            raise ValueError(f"cannot sample {brief(k)} fragments from a pool of {size} without replacement")
        if k == size and isinstance(pool, FragmentPool):
            return pool
        idx = rng.permutation(size)[:k]
    if isinstance(pool, FragmentPool):
        return pool[np.sort(idx)]
    return [pool[i] for i in idx]


# Class codes: indices into tuple(FragmentClass). Full, Prefix and Suffix,
# the classes that align, come first.
_CLASSES = tuple(FragmentClass)
_FULL, _PREFIX, _SUFFIX, _MARKER_ONLY, _DISCARD = range(len(_CLASSES))

# The class of each code head + 2 * tail + 4 * full + 8 * bare: classify_fragment's rule as a table.
_CLASS_OF = np.array([_CLASSES.index(_class_rule(*(c >> bit & 1 for bit in range(4)))) for c in range(16)], np.int8)


@dataclass
class AlignmentResult:
    """Per-position base counts and per-class fragment tallies.

    `classes` holds each fragment's class, in input order, as an index
    into tuple(FragmentClass).
    """

    count_table: np.ndarray  # (q, n) int64
    tallies: dict[FragmentClass, int]
    classes: np.ndarray  # int8


def _marker_at(flat: np.ndarray, pos: np.ndarray, pattern: Sequence[int]) -> np.ndarray:
    """Whether flat[pos + c] == pattern[c] at every c (windows inside flat); column c takes pos from flat[c:]."""
    hit = np.ones(len(pos), dtype=bool)
    for c, base in enumerate(pattern):
        hit &= flat[c:].take(pos) == base
    return hit


def _align(bases: np.ndarray, offsets: np.ndarray, lengths: np.ndarray, params: MarkerCodeParams) -> AlignmentResult:
    """The classify/count core over fragments flat[offsets[i] : offsets[i] + lengths[i]].

    flat ravels `bases`, integers in 1..q: a 1-D concatenation (align_and_count) or the (rows, n)
    strand matrix, of which align_pool's rule counts some fragments by its column counts
    (_count_by_columns); the rest are gathered (_gathered). _classify compares heads and tails
    with marker_pattern() in one pass and reads each class from _CLASS_OF, classify_fragment's
    rules as a table; fragments longer than n are discarded. Prefixes and full strands anchor at
    column 1, suffixes at column n.
    """
    q, n, flat = params.q, params.n, bases.ravel()
    if flat.dtype.kind not in "iu":  # a real passes the range check, but the gathers would truncate it
        raise ValueError(f"bases must be integers, got dtype {flat.dtype}")
    if flat.size and not 1 <= flat.min() <= flat.max() <= q:
        raise ValueError(f"bases must lie in 1..{q}, got {flat[(flat < 1) | (flat > q)][0]}")
    classes = _classify(flat, offsets, lengths, params)  # a call, so its arrays are freed before the count
    table = np.zeros(q * n, dtype=np.int64)
    # Exact forms that beat np.where, % and np.diff: numpy divides by a scalar through libdivide
    # but has no fast path for the remainder.
    gather, anchor = classes <= _SUFFIX, (n - lengths) * (classes == _SUFFIX)
    if bases.ndim == 2 and q < _COLUMN_COUNT_Q:
        mine = gather & (anchor == offsets - offsets // n * n)  # at their own columns
        mine[1:] &= offsets[1:] != offsets[:-1]  # first copies
        lo, hi = offsets[mine], lengths[mine]
        hi += lo
        if hi.sum() - lo.sum() >= _COLUMN_COUNT_SHARE * flat.size and (lo[1:] >= hi[:-1]).all():
            _count_by_columns(flat.reshape(-1, n), lo, hi, table)
            gather &= ~mine
    usable = np.flatnonzero(gather)
    if len(usable):
        table += _gathered(flat, offsets[usable], lengths[usable], anchor[usable], q, n)
    tallies = {kind: int(np.count_nonzero(classes == c)) for c, kind in enumerate(_CLASSES)}
    return AlignmentResult(count_table=table.reshape(q, n), tallies=tallies, classes=classes)


def _classify(flat: np.ndarray, offsets: np.ndarray, lengths: np.ndarray, params: MarkerCodeParams) -> np.ndarray:
    """Class codes of the fragments flat[offsets[i] : offsets[i] + lengths[i]]: one marker pass over
    the heads and tails of those from one marker block to n long, then one _CLASS_OF lookup."""
    pattern, n = params.marker_pattern(), params.n
    span = len(pattern)
    fit = (lengths >= span) & (lengths <= n)
    fit = slice(None) if fit.all() else np.flatnonzero(fit)
    at = offsets[fit].astype(np.intp)  # the heads' windows, then the tails': indices take() reads as they are
    code = (lengths == n) * np.uint8(4) + (lengths == span) * np.uint8(8)
    code[fit] += _marker_at(flat, at, pattern)
    at += lengths[fit] - span
    code[fit] += _marker_at(flat, at, pattern) * np.uint8(2)
    return _CLASS_OF.take(code)


def _gathered(flat: np.ndarray, offsets: np.ndarray, lengths: np.ndarray, columns: np.ndarray, q: int,
              n: int) -> np.ndarray:
    """The flat (q * n) count of the runs flat[offsets[i] : offsets[i] + lengths[i]], run i from 0-based
    column columns[i] on: one bincount per block, blocks ending where the running length passes a
    multiple of `_BLOCK`."""
    table = np.zeros(q * n, dtype=np.int64)
    bounds = [0, *(np.flatnonzero(np.diff(np.cumsum(lengths) // _BLOCK)) + 1), len(lengths)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        off, size = offsets[a:b], lengths[a:b]
        idx = np.arange(int(size.sum()))  # the block's bases, then their flat indices
        idx += np.repeat(off - np.cumsum(size) + size, size)
        # A base at flat index i counts at (base - 1) * n + column = flat[i] * n + i + shift.
        key = flat[idx].astype(np.intp)
        key *= n
        key += idx
        key += np.repeat(columns[a:b] - off - n, size)
        table += np.bincount(key, minlength=q * n)
    return table


def _count_by_columns(strands: np.ndarray, lo: np.ndarray, hi: np.ndarray, table: np.ndarray) -> None:
    """Count into the zero flat (q * n) `table` the bases of `strands` in the ascending, disjoint
    flat ranges [lo[i], hi[i]), at their own columns: the column counts of the whole matrix, less
    the bases in the gaps between the ranges, gathered row by row. Bases 2..q are counted one pass
    each over blocks of at most 16 * _BLOCK positions and 255 rows, a block's hits summed per
    column in uint8; base 1 takes what they leave of the rows."""
    rows, n = strands.shape
    counts = table.reshape(-1, n)
    # A reduce's inner loop runs along a row, so `fold` rows laid side by side (about _BLOCK / 4
    # bases) make one wide row; the rows % fold left over are counted as they are. Smaller reduce
    # calls cost more than they save; a block's counts are summed in uint8, so its rows stop at 255.
    fold = max(1, _BLOCK // 4 // n)
    wide = rows - rows % fold
    for part in strands[:wide].reshape(-1, fold * n), strands[wide:]:
        step = min(max(1, 16 * _BLOCK // part.shape[1]), np.iinfo(np.uint8).max)
        for top in range(0, len(part), step):
            for b in range(1, len(counts)):
                hits = (part[top : top + step] == b + 1).view(np.uint8).sum(axis=0, dtype=np.uint8)
                counts[b] += hits.reshape(-1, n).sum(axis=0, dtype=np.intp)
    counts[0] = rows - counts[1:].sum(axis=0)
    inner = np.flatnonzero(lo[1:] > hi[:-1])  # ranges that a gap follows, the last range aside
    # The gaps [a, b): before the first range, after each inner one and after the last; empty ones go.
    a, b = np.concatenate(([0], hi[inner], hi[-1:])), np.concatenate((lo[:1], lo[inner + 1], [strands.size]))
    a, b = a[a < b], b[a < b]
    if not len(a):
        return
    first = a // n
    pieces = (b - 1) // n - first + 1  # rows each gap meets
    row = np.arange(pieces.sum()) + np.repeat(first - np.cumsum(pieces) + pieces, pieces)
    start = np.maximum(np.repeat(a, pieces), row * n)
    end = np.minimum(np.repeat(b, pieces), row * n + n)
    table -= _gathered(strands.ravel(), start, end - start, start - row * n, len(counts), n)


def align_and_count(samples: Sequence[np.ndarray], params: MarkerCodeParams) -> AlignmentResult:
    """Position each fragment by its marker class and accumulate base counts.

    Prefixes anchor at column 1, suffixes at column n, full strands cover
    everything; marker-only and discarded fragments (including any longer
    than n, which cannot be positioned) contribute nothing.
    """
    frags = [np.asarray(frag) for frag in samples]
    lengths = np.array([len(frag) for frag in frags], dtype=np.intp)
    flat = np.concatenate(frags) if frags else np.empty(0, dtype=np.int16)
    if flat.ndim != 1:  # a 2-D input would be read as a strand matrix
        raise ValueError(f"fragments must be 1-D arrays of bases, got {flat.ndim}-D")
    return _align(flat, np.cumsum(lengths) - lengths, lengths, params)


def align_pool(strands: np.ndarray, fragments: FragmentPool, params: MarkerCodeParams) -> AlignmentResult:
    """align_and_count for fragments held as triplets inside the strand matrix.

    Full fragments, Prefixes from column 1 and Suffixes to column n sit at their own
    columns. Those not a later copy of the fragment before them, if ascending and disjoint
    (as in break_strands' order) and covering `_COLUMN_COUNT_SHARE` of the matrix, are
    counted as its column counts less the bases in the gaps between them, below q =
    `_COLUMN_COUNT_Q`.
    """
    if strands.ndim != 2 or strands.shape[1] != params.n:
        raise ValueError(f"strand matrix has shape {strands.shape}, but params expect n={params.n} columns")
    s, a, b = fragments.strand, fragments.start, fragments.end
    bad = (s < 0) | (s >= len(strands)) | (a < 1) | (a > b) | (b > params.n)
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"fragment {i} (strand {s[i]}, columns {a[i]}..{b[i]}) is outside the {strands.shape} matrix")
    # int32 positions while every flat index, and a gathered run's shift, stays far inside its range.
    index = np.int32 if strands.size < 1 << 30 else np.intp
    offsets = s.astype(index) * params.n + (a - 1)
    return _align(strands, offsets, (b - a + 1).astype(index), params)


class ZeroCoverageError(ValueError):
    """A data column has no aligned base it may weigh; message names its role and column."""


def estimate_matrix(count_table: np.ndarray, params: MarkerCodeParams) -> CompositeMatrix:
    """Re-estimate the codeword from aligned base counts.

    Marker columns take their single value. Each data column apportions M
    over its allowed bases in proportion to their counts (largest remainders,
    exactly, ties to the lower base), so a breaker column never weighs the
    marker base. Columns are apportioned in blocks of about `_BLOCK` counts,
    so the working set beside the table and the estimate stays small at any q.
    """
    q, n, lay = params.q, params.n, layout(params)
    if count_table.shape != (q, n) or count_table.dtype.kind not in "iu":
        raise ValueError(f"count table must be a ({q}, {n}) integer array, got {count_table.dtype} {count_table.shape}")
    if (count_table < 0).any():
        j = (count_table < 0).any(axis=0).argmax() + 1
        raise ValueError(f"count table column {j}: counts must be nonnegative, got {count_table[:, j - 1].tolist()}")
    counts = np.empty((q, n), dtype=_count_dtype(params.M))
    step = max(1, _BLOCK // q)
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        weights = np.where(lay.allowed[:, block], np.where(lay.fixed[block], 1, count_table[:, block]), 0)
        bare = np.flatnonzero(~weights.any(axis=0))  # not a sum, which may pass int64
        if len(bare):
            j = lo + bare[0] + 1
            raise ZeroCoverageError(f"no usable coverage at {lay.roles[j - 1]} column {j}")
        counts[:, block] = _apportion(weights, params.M)
    return CompositeMatrix._owned(counts, params.alphabet)


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregate outcome of one channel experiment."""

    fragments_sampled: int
    discarded_fraction: float
    marker_only_fraction: float
    coverage_min: float
    coverage_mean: float
    symbol_error_count: int
    exact_recovery: bool
    estimated_matrix: CompositeMatrix

    def to_json_dict(self) -> dict:
        return {**vars(self), "estimated_matrix": json.loads(self.estimated_matrix.to_json())}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


@dataclass
class TraceStats:
    """Ground-truth bookkeeping from a traced run (test mode only).

    A sampled fragment's true class is positional: Full if it runs from
    column 1 to column n, Prefix if it starts at column 1, Suffix if it
    ends at column n, Discard otherwise. `confusion[true][predicted]`
    counts sampled fragments by true class and classifier output; a
    classification error is an output its true position contradicts.
    """

    sampled_fragments: int
    classification_errors: int
    true_class_counts: dict[str, int]
    confusion: dict[str, dict[str, int]]


def random_message(params: MarkerCodeParams, seed: int) -> list[int]:
    """Seed-derived uniform message over the layout's mixed radices, each at most 2^63."""
    _check_radices(params)
    # One array draw reads the lane as one scalar draw per radix would.
    return substream(seed, LANE_MESSAGE).integers(0, np.array(message_radices(params), dtype=np.uint64)).tolist()


def _trace_stats(picked: FragmentPool, predicted: np.ndarray, n: int) -> TraceStats:
    at_start, at_end = picked.start == 1, picked.end == n
    true = np.full(len(picked), _DISCARD, dtype=np.intp)
    true[at_end] = _SUFFIX
    true[at_start] = _PREFIX
    true[at_start & at_end] = _FULL
    k = len(_CLASSES)
    confusion = np.bincount(true * k + predicted, minlength=k * k).reshape(k, k)
    # Contradicted: a predicted marker at column 1 (Full, Prefix), at column n (Full, Suffix)
    # or at either (MarkerOnly) that the fragment's position lacks.
    head, tail = (predicted == _FULL) | (predicted == _PREFIX), (predicted == _FULL) | (predicted == _SUFFIX)
    errors = ((head & ~at_start) | (tail & ~at_end) | ((predicted == _MARKER_ONLY) & ~at_start & ~at_end)).sum()
    names = [kind.value for kind in _CLASSES]
    return TraceStats(
        sampled_fragments=len(picked),
        classification_errors=int(errors),
        true_class_counts={names[t]: int(confusion[t].sum()) for t in (_FULL, _PREFIX, _SUFFIX, _DISCARD)},
        confusion={names[t]: dict(zip(names, confusion[t].tolist())) for t in (_FULL, _PREFIX, _SUFFIX, _DISCARD)},
    )


def _run(config: ChannelConfig) -> tuple[ExperimentReport, FragmentPool, np.ndarray]:
    """The pipeline: the report, the sampled pool and its predicted class codes."""
    params, seed, count = config.code_params, config.seed, config.strand_count
    codeword = construct_codeword(random_message(params, seed), params)
    strands = synthesize(codeword, count, seed)
    pool = break_strands(params.n, config.break_model, count, seed)
    k = config.sample_size if config.sample_size is not None else len(pool)
    picked = sample_fragments(pool, k, config.with_replacement, substream(seed, LANE_SAMPLE))
    aligned = align_pool(strands, picked, params)
    estimated = estimate_matrix(aligned.count_table, params)
    errors = int((estimated.counts != codeword.counts).any(axis=0).sum())
    coverage = aligned.count_table.sum(axis=0)[~layout(params).fixed]
    report = ExperimentReport(
        fragments_sampled=k,
        discarded_fraction=aligned.tallies[FragmentClass.DISCARD] / k,
        marker_only_fraction=aligned.tallies[FragmentClass.MARKER_ONLY] / k,
        coverage_min=float(coverage.min()),
        coverage_mean=float(coverage.mean()),
        symbol_error_count=errors,
        exact_recovery=errors == 0,
        estimated_matrix=estimated,
    )
    return report, picked, aligned.classes


def run_experiment(config: ChannelConfig, workers: int = 1) -> ExperimentReport:
    """Run the full pipeline; deterministic given the config (incl. seed).

    The stages are the public ones, chained on the layout its params hold: random_message,
    construct_codeword, synthesize, break_strands, sample_fragments, align_pool, estimate_matrix.
    `workers` (at least 1) is accepted for compatibility and has no effect; the report is
    byte-identical at any valid value.
    """
    _int_arg(workers, "workers", 1)
    return _run(config)[0]


def run_experiment_traced(config: ChannelConfig) -> tuple[ExperimentReport, TraceStats]:
    """run_experiment plus ground-truth classification checks (test mode).

    The tracing draws no extra randomness, so the report is identical to
    run_experiment's for the same config.
    """
    report, picked, classes = _run(config)
    return report, _trace_stats(picked, classes, config.code_params.n)

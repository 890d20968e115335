"""Strand-break channel simulator.

Pipeline: a codeword matrix is synthesized into S i.i.d. strands (each
position drawn from its column's base distribution), every strand suffers
stochastic backbone breaks, the resulting unordered fragments are pooled
and K of them sampled, fragments are positioned by their retained marker
blocks, and the composite matrix is re-estimated from the aligned base
counts.

A pool is held as arrays, not as fragment objects: the (S, n) strand
matrix of 1-based base indices plus one (strand, start, end) triplet per
fragment (`FragmentPool`), strand-major. Synthesis, breaking and alignment
run over blocks of `_BLOCK` strands or fragments, with no per-strand or
per-fragment Python loop.

Randomness is counter-based (Philox4x64-10; Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC'11). Synthesis, breaking, sampling
and the message draw each read their own lane: the stream keyed by
(seed, lane). Strand i's row of w uniforms starts at counter block
i * ceil(w / 4) of its lane (a block holds four doubles), so strand i
reads the same draws whatever the strand count or block size, and results
are identical under any execution order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .marker import FragmentClass, MarkerCodeParams, construct_codeword, layout, message_radices
from .symbols import REQUIRED, AlphabetParams, CompositeMatrix, json_fields, json_value, largest_remainder_apportion

# Substream lanes: strand synthesis, strand breaking, fragment sampling,
# and the message draw each get a disjoint key space.
LANE_SYNTH = 0
LANE_BREAK = 1
LANE_SAMPLE = 2
LANE_MESSAGE = 3

# Strands or fragments per vectorized block: bounds the working set.
_BLOCK = 256

# Doubles per Philox4x64 counter block.
_DOUBLES_PER_BLOCK = 4


def substream(seed: int, lane: int, index: int = 0) -> np.random.Generator:
    """Independent Philox stream keyed by (seed, lane, index); seed in [0, 2^64).

    Index 0 is the lane's own stream, which the batched stages read row by
    row (see the module docstring). Other indices give independent streams
    for per-item callers, such as one per strand for apply_breaks_traced.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    if not 0 <= index < 1 << 60:
        raise ValueError(f"substream index {index} outside [0, 2^60)")
    key = np.array([seed, (lane << 60) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniform_rows(seed: int, lane: int, count: int, width: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (row offset, block of uniform rows) covering `count` rows.

    Row i holds the `width` uniforms of strand i: the lane's stream from
    counter block i * ceil(width / 4), so a strand's row does not depend on
    how many strands are drawn or which block reads it.
    """
    stride = -(-width // _DOUBLES_PER_BLOCK) * _DOUBLES_PER_BLOCK
    gen = substream(seed, lane)
    for lo in range(0, count, _BLOCK):
        rows = min(_BLOCK, count - lo)
        yield lo, gen.random(rows * stride).reshape(rows, stride)[:, :width]


@dataclass(frozen=True)
class PerBond:
    """Each of the n-1 backbone bonds breaks independently with probability p."""

    p: float

    def __post_init__(self) -> None:
        # Check before converting: float() overflows on an int past 1e308.
        if not 0 <= self.p <= 1:
            raise ValueError(f"bond break probability must be in [0, 1], got {self.p}")
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True)
class _TBreaks:
    """The t-break models' one body. `bond_range` (lo, hi), 1-based inclusive,
    restricts the candidate bonds; None means all of [1, n-1]."""

    t: int
    bond_range: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"break count must be >= 0, got {self.t}")
        if self.bond_range is not None:
            self.bonds()

    def bonds(self, n: Optional[int] = None) -> tuple[int, int]:
        """Candidate bonds (lo, hi) on strands of length n; without n, only a
        given `bond_range` is checked, not its fit in [1, n-1]."""
        lo, hi = self.bond_range if self.bond_range is not None else (1, n - 1)
        if n is not None and (lo < 1 or hi > n - 1):
            raise ValueError(f"bond range ({lo}, {hi}) outside [1, {n - 1}]")
        if lo > hi:
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
            raise ValueError(f"{path}.bond_range must hold two integers, got {json.dumps(rng, default=repr)}")
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
        if self.strand_count < 1:
            raise ValueError(f"strand_count must be >= 1, got {self.strand_count}")
        if self.sample_size is not None and self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1 (or null for full pool), got {self.sample_size}")
        if not isinstance(self.break_model, PerBond):
            self.break_model.bonds(self.code_params.n)

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


def synthesize(matrix: CompositeMatrix, count: int, seed: int) -> np.ndarray:
    """Draw `count` i.i.d. strands from the matrix's column distributions.

    Returns a (count, n) array of 1-based base indices. Strand i reads row
    i of the synthesis lane, so the first m strands are the same whatever
    `count` is.
    """
    if count < 1:
        raise ValueError(f"strand count must be >= 1, got {count}")
    # Integer cumsum, then one division: the last threshold is exactly 1.0
    # and a zero-count base gets an empty interval, so it is never drawn.
    cum = (np.cumsum(matrix.count_array(), axis=0) / matrix.params.M)[:-1, :]
    strands = np.ones((count, matrix.n), dtype=np.int16)
    for lo, u in _uniform_rows(seed, LANE_SYNTH, count, matrix.n):
        block = strands[lo : lo + len(u)]
        for threshold in cum:
            block += u >= threshold
    return strands


def _break_width(model: BreakModel, n: int) -> int:
    """Uniforms per strand: one per bond, or AtMostT's count draw (unused by
    ExactlyT) plus t Floyd draws."""
    return n - 1 if isinstance(model, PerBond) else model.t + 1


def _cut_mask(u: np.ndarray, n: int, model: BreakModel) -> np.ndarray:
    """The cut core: uniform rows -> (rows, n) mask of fragment start columns.

    Column 0 always starts a fragment; column b (0-based) starts one when
    bond b, between 1-based columns b and b+1, breaks. t-break models place
    their bonds by Floyd's sampling of distinct values, vectorized over
    rows: u[:, 0] draws AtMostT's count, u[:, 1 + s] step s's candidate.
    """
    rows = len(u)
    mask = np.zeros((rows, n), dtype=bool)
    mask[:, 0] = True
    if isinstance(model, PerBond):
        mask[:, 1:] = u < model.p
        return mask
    lo, hi = model.bonds(n)
    span, t = hi - lo + 1, model.t
    counts = t if isinstance(model, ExactlyT) else np.minimum((u[:, 0] * (t + 1)).astype(np.intp), t)
    row = np.arange(rows)
    # Floyd: for j = span-c .. span-1 pick r uniform in [0, j]; take j if r is
    # taken. A row drawing c < t bonds skips the first t-c steps by setting
    # column 0, which always starts a fragment.
    for step in range(t):
        j = span - t + step
        pick = lo + np.minimum((u[:, 1 + step] * (j + 1)).astype(np.intp), j)
        pick = np.where(mask[row, pick], lo + j, pick)
        mask[row, np.where(step >= t - counts, pick, 0)] = True
    return mask


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
    if count < 1:
        raise ValueError(f"strand count must be >= 1, got {count}")
    strand_parts, start_parts = [], []
    for lo, u in _uniform_rows(seed, LANE_BREAK, count, _break_width(model, n)):
        rows, cols = np.nonzero(_cut_mask(u, n, model))
        strand_parts.append((rows + lo).astype(np.int32))
        start_parts.append(cols.astype(np.int32))
    strand, start0 = np.concatenate(strand_parts), np.concatenate(start_parts)
    # A fragment ends (1-based) where the strand's next one starts (0-based).
    end = np.full_like(start0, n)
    end[:-1] = np.where(start0[1:] == 0, n, start0[1:])
    return FragmentPool(strand=strand, start=start0 + 1, end=end)


def apply_breaks_traced(
    strand: np.ndarray, model: BreakModel, rng: np.random.Generator
) -> list[tuple[int, np.ndarray]]:
    """Split a strand at stochastic bonds into in-order (1-based start column, fragment) pairs.

    Draws one row of the cut core's uniforms from `rng`.
    """
    strand = np.asarray(strand)
    n = len(strand)
    starts = np.nonzero(_cut_mask(rng.random(_break_width(model, n))[None, :], n, model)[0])[0]
    return [(int(s) + 1, piece) for s, piece in zip(starts, np.split(strand, starts[1:]))]


def sample_fragments(
    pool: Union[FragmentPool, Sequence], k: int, with_replacement: bool, rng: np.random.Generator
) -> Union[FragmentPool, list]:
    """Uniformly sample k pool items, in randomized order.

    A FragmentPool gives a FragmentPool of the sampled triplets; any other
    sequence gives a list of its sampled items.
    """
    size = len(pool)
    if size < 1:
        raise ValueError("fragment pool is empty")
    if k < 1:
        raise ValueError(f"sample size must be >= 1, got {k}")
    if with_replacement:
        idx = rng.integers(0, size, size=k)
    else:
        if k > size:
            raise ValueError(f"cannot sample {k} fragments from a pool of {size} without replacement")
        idx = rng.permutation(size)[:k]
    if isinstance(pool, FragmentPool):
        return pool[idx]
    return [pool[i] for i in idx]


# Class codes: indices into tuple(FragmentClass). Full, Prefix and Suffix,
# the classes that align, come first.
_CLASSES = tuple(FragmentClass)
_FULL, _PREFIX, _SUFFIX, _MARKER_ONLY, _DISCARD = range(len(_CLASSES))


@dataclass
class AlignmentResult:
    """Per-position base counts and per-class fragment tallies.

    `classes` holds each fragment's class, in input order, as an index
    into tuple(FragmentClass).
    """

    count_table: np.ndarray  # (q, n) int64
    tallies: dict[FragmentClass, int]
    classes: np.ndarray  # int8


def _align(flat: np.ndarray, offsets: np.ndarray, lengths: np.ndarray, params: MarkerCodeParams) -> AlignmentResult:
    """The classify/count core over fragments flat[offsets[i] : offsets[i] + lengths[i]].

    Head and tail windows are compared against marker_pattern(), with the
    rules of classify_fragment; fragments longer than n are discarded.
    Prefixes and full strands anchor at column 1, suffixes at column n,
    and the aligned bases of a block accumulate in one bincount over
    (base, column).
    """
    q, n = params.q, params.n
    pattern = np.asarray(params.marker_pattern())
    span = len(pattern)
    window = np.arange(span)
    classes = np.empty(len(offsets), dtype=np.int8)
    table = np.zeros(q * n, dtype=np.int64)
    for lo in range(0, len(offsets), _BLOCK):
        off, length = offsets[lo : lo + _BLOCK], lengths[lo : lo + _BLOCK]
        fits = np.nonzero((length >= span) & (length <= n))[0]
        starts = np.zeros(len(off), dtype=bool)
        ends = np.zeros(len(off), dtype=bool)
        starts[fits] = (flat[off[fits, None] + window] == pattern).all(axis=1)
        ends[fits] = (flat[(off[fits] + length[fits] - span)[:, None] + window] == pattern).all(axis=1)
        kind = np.full(len(off), _DISCARD, dtype=np.int8)
        kind[ends] = _SUFFIX
        kind[starts] = _PREFIX
        both = starts & ends
        kind[both] = np.where(length[both] == n, _FULL, _DISCARD)
        kind[starts & (length == span)] = _MARKER_ONLY
        classes[lo : lo + len(off)] = kind

        usable = kind <= _SUFFIX
        size = length[usable]
        first = np.cumsum(size) - size  # each fragment's first slot among the block's aligned bases
        column0 = np.where(kind[usable] == _SUFFIX, n - size, 0)
        slot = np.arange(int(size.sum()))
        bases = flat[slot + np.repeat(off[usable] - first, size)].astype(np.intp)
        table += np.bincount((bases - 1) * n + slot + np.repeat(column0 - first, size), minlength=q * n)
    tallies = np.bincount(classes, minlength=len(_CLASSES))
    return AlignmentResult(
        count_table=table.reshape(q, n),
        tallies={kind: int(c) for kind, c in zip(_CLASSES, tallies)},
        classes=classes,
    )


def align_and_count(samples: Sequence[np.ndarray], params: MarkerCodeParams) -> AlignmentResult:
    """Position each fragment by its marker class and accumulate base counts.

    Prefixes anchor at column 1, suffixes at column n, full strands cover
    everything; marker-only and discarded fragments (including any longer
    than n, which cannot be positioned) contribute nothing.
    """
    frags = [np.asarray(frag) for frag in samples]
    lengths = np.array([len(frag) for frag in frags], dtype=np.intp)
    flat = np.concatenate(frags) if frags else np.empty(0, dtype=np.int16)
    return _align(flat, np.cumsum(lengths) - lengths, lengths, params)


def align_pool(strands: np.ndarray, fragments: FragmentPool, params: MarkerCodeParams) -> AlignmentResult:
    """align_and_count for fragments held as triplets into the strand matrix."""
    offsets = fragments.strand.astype(np.intp) * strands.shape[1] + fragments.start - 1
    return _align(strands.ravel(), offsets, (fragments.end - fragments.start + 1).astype(np.intp), params)


class ZeroCoverageError(ValueError):
    """A data column has no aligned base it may weigh; message names its role and column."""


def estimate_matrix(count_table: np.ndarray, params: MarkerCodeParams) -> CompositeMatrix:
    """Re-estimate the codeword from aligned base counts.

    Marker columns take their single value. Each data column apportions M
    over its allowed bases in proportion to their empirical frequencies
    (largest remainders), so a breaker column never weighs the marker base.
    """
    q, m, n = params.q, params.M, params.n
    if count_table.shape != (q, n):
        raise ValueError(f"count table shape {count_table.shape} != ({q}, {n})")
    lay = layout(params)
    freqs = count_table.astype(float).T.tolist()
    cols = {j: lay.column(j, (m,)) for j in lay.marker_positions}
    for j in lay.data_positions():
        weights = [freqs[j - 1][b] for b in lay.bases[j - 1]]
        if sum(weights) <= 0:
            raise ZeroCoverageError(f"no usable coverage at {lay.roles[j - 1]} column {j}")
        cols[j] = lay.column(j, largest_remainder_apportion(weights, m))
    return CompositeMatrix(columns=tuple(cols[j] for j in range(1, n + 1)), params=params.alphabet)


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
    """Seed-derived uniform message over the layout's mixed radices."""
    gen = substream(seed, LANE_MESSAGE)
    return [int(gen.integers(0, radix)) for radix in message_radices(params)]


def _trace_stats(picked: FragmentPool, predicted: np.ndarray, n: int) -> TraceStats:
    at_start, at_end = picked.start == 1, picked.end == n
    true = np.full(len(picked), _DISCARD, dtype=np.intp)
    true[at_end] = _SUFFIX
    true[at_start] = _PREFIX
    true[at_start & at_end] = _FULL
    k = len(_CLASSES)
    confusion = np.bincount(true * k + predicted, minlength=k * k).reshape(k, k)
    # Contradicted cells: a predicted marker the fragment's true position lacks.
    errors = (
        confusion[[_PREFIX, _SUFFIX, _DISCARD], _FULL].sum()
        + confusion[[_SUFFIX, _DISCARD], _PREFIX].sum()
        + confusion[[_PREFIX, _DISCARD], _SUFFIX].sum()
        + confusion[_DISCARD, _MARKER_ONLY]
    )
    names = [kind.value for kind in _CLASSES]
    return TraceStats(
        sampled_fragments=len(picked),
        classification_errors=int(errors),
        true_class_counts={names[t]: int(confusion[t].sum()) for t in (_FULL, _PREFIX, _SUFFIX, _DISCARD)},
        confusion={
            names[t]: {name: int(c) for name, c in zip(names, confusion[t])} for t in (_FULL, _PREFIX, _SUFFIX, _DISCARD)
        },
    )


def _run(config: ChannelConfig) -> tuple[ExperimentReport, FragmentPool, np.ndarray]:
    """The pipeline: the report, the sampled pool and its predicted class codes."""
    params, seed, count = config.code_params, config.seed, config.strand_count
    codeword = construct_codeword(random_message(params, seed), params)
    truth = codeword.count_array()
    strands = synthesize(codeword, count, seed)
    pool = break_strands(params.n, config.break_model, count, seed)
    k = config.sample_size if config.sample_size is not None else len(pool)
    picked = sample_fragments(pool, k, config.with_replacement, substream(seed, LANE_SAMPLE))

    aligned = align_pool(strands, picked, params)
    estimated = estimate_matrix(aligned.count_table, params)
    est_counts = estimated.count_array()
    errors = int((est_counts != truth).any(axis=0).sum())

    data_cols = [j - 1 for j in layout(params).data_positions()]
    coverage = aligned.count_table.sum(axis=0)[data_cols]
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

    The stages are the public ones, chained: random_message,
    construct_codeword, synthesize, break_strands, sample_fragments,
    align_pool, estimate_matrix. `workers` is accepted for compatibility
    and has no effect; the report is byte-identical at any value.
    """
    return _run(config)[0]


def run_experiment_traced(config: ChannelConfig) -> tuple[ExperimentReport, TraceStats]:
    """run_experiment plus ground-truth classification checks (test mode).

    The tracing draws no extra randomness, so the report is identical to
    run_experiment's for the same config.
    """
    report, picked, classes = _run(config)
    return report, _trace_stats(picked, classes, config.code_params.n)

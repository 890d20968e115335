"""Strand-break channel simulator.

Pipeline: a codeword matrix is synthesized into S i.i.d. strands (each
position drawn from its column's base distribution), every strand suffers
stochastic backbone breaks, the resulting unordered fragments are pooled
and K of them sampled, fragments are positioned by their retained marker
blocks, and the composite matrix is re-estimated from the aligned base
counts.

Randomness is counter-based (Philox) with one substream per (seed, lane,
strand index), so results are identical under any execution order or
degree of parallelism. Strands are arrays of 1-based base indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .marker import (
    FragmentClass,
    MarkerCodeParams,
    _marker_columns,
    classify_fragment,
    construct_codeword,
    layout,
    message_radices,
)
from .symbols import AlphabetParams, CompositeMatrix, CompositeSymbol, largest_remainder_apportion

_MASK64 = (1 << 64) - 1

# Substream lanes: strand synthesis, strand breaking, fragment sampling,
# and the message draw each get a disjoint key space.
LANE_SYNTH = 0
LANE_BREAK = 1
LANE_SAMPLE = 2
LANE_MESSAGE = 3


def substream(seed: int, lane: int, index: int = 0) -> np.random.Generator:
    """Independent Philox stream keyed by (seed, lane, index)."""
    if not 0 <= index < 1 << 60:
        raise ValueError(f"substream index {index} outside [0, 2^60)")
    key = np.array([seed & _MASK64, ((lane << 60) | index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PerBond:
    """Each of the n-1 backbone bonds breaks independently with probability p."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"bond break probability must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class ExactlyT:
    """Exactly t breaks at uniformly chosen distinct bonds.

    `bond_range` (lo, hi), 1-based inclusive, restricts the candidate bonds;
    None means all of [1, n-1].
    """

    t: int
    bond_range: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"break count must be >= 0, got {self.t}")


@dataclass(frozen=True)
class AtMostT:
    """Break count uniform over 0..t, at uniformly chosen distinct bonds."""

    t: int
    bond_range: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"break count must be >= 0, got {self.t}")


BreakModel = Union[PerBond, ExactlyT, AtMostT]


def break_model_to_json_dict(model: BreakModel) -> dict:
    if isinstance(model, PerBond):
        return {"kind": "per_bond", "p": model.p}
    kind = "exactly_t" if isinstance(model, ExactlyT) else "at_most_t"
    out = {"kind": kind, "t": model.t}
    if model.bond_range is not None:
        out["bond_range"] = list(model.bond_range)
    return out


def _reject_unknown_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))} in {where}")


def break_model_from_json_dict(obj: dict) -> BreakModel:
    kind = obj["kind"]
    if kind not in ("per_bond", "exactly_t", "at_most_t"):
        raise ValueError(f"unknown break model kind {kind!r}")
    fields = {"p"} if kind == "per_bond" else {"t", "bond_range"}
    _reject_unknown_keys(obj, {"kind"} | fields, "break_model")
    if kind == "per_bond":
        return PerBond(p=float(obj["p"]))
    rng = obj.get("bond_range")
    bond_range = None if rng is None else (int(rng[0]), int(rng[1]))
    if kind == "exactly_t":
        return ExactlyT(t=int(obj["t"]), bond_range=bond_range)
    return AtMostT(t=int(obj["t"]), bond_range=bond_range)


_CONFIG_KEYS = {"code_params", "strand_count", "break_model", "sample_size", "with_replacement", "seed"}
_CODE_PARAMS_KEYS = {"q", "M", "n", "ell", "marker_base", "anchor_base"}


@dataclass(frozen=True)
class ChannelConfig:
    """One end-to-end experiment: code, strand count, breaks, sampling, seed.

    `sample_size` None means "sample the whole pool". Sampling defaults to
    without replacement.
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

    def to_json_dict(self) -> dict:
        cp = self.code_params
        return {
            "code_params": {
                "q": cp.q,
                "M": cp.M,
                "n": cp.n,
                "ell": cp.ell,
                "marker_base": cp.marker_base,
                "anchor_base": cp.anchor_base,
            },
            "strand_count": self.strand_count,
            "break_model": break_model_to_json_dict(self.break_model),
            "sample_size": self.sample_size,
            "with_replacement": self.with_replacement,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, obj: dict, default_seed: Optional[int] = None) -> "ChannelConfig":
        _reject_unknown_keys(obj, _CONFIG_KEYS, "config")
        cp = obj["code_params"]
        _reject_unknown_keys(cp, _CODE_PARAMS_KEYS, "code_params")
        params = MarkerCodeParams(
            alphabet=AlphabetParams(q=int(cp["q"]), M=int(cp["M"])),
            n=int(cp["n"]),
            ell=int(cp["ell"]),
            marker_base=int(cp.get("marker_base", 1)),
            anchor_base=int(cp.get("anchor_base", 2)),
        )
        seed = obj.get("seed", default_seed)
        if seed is None:
            raise ValueError("config has no seed and no default seed is set")
        size = obj.get("sample_size")
        return cls(
            code_params=params,
            strand_count=int(obj["strand_count"]),
            break_model=break_model_from_json_dict(obj["break_model"]),
            sample_size=None if size is None else int(size),
            with_replacement=bool(obj.get("with_replacement", False)),
            seed=int(seed),
        )

    @classmethod
    def from_json(cls, text: str, default_seed: Optional[int] = None) -> "ChannelConfig":
        return cls.from_json_dict(json.loads(text), default_seed=default_seed)


def synthesize(matrix: CompositeMatrix, count: int, seed: int, first_index: int = 0) -> np.ndarray:
    """Draw `count` i.i.d. strands from the matrix's column distributions.

    Returns a (count, n) array of 1-based base indices. Strand i uses
    substream(seed, LANE_SYNTH, first_index + i), so pools are identical
    however the work is split.
    """
    if count < 1:
        raise ValueError(f"strand count must be >= 1, got {count}")
    # Integer cumsum, then one division: the last threshold is exactly 1.0
    # and a zero-count base gets an empty interval, so it is never drawn.
    cum = (np.cumsum(matrix.count_array(), axis=0) / matrix.params.M)[:-1, :]
    n = matrix.n
    strands = np.empty((count, n), dtype=np.int16)
    for i in range(count):
        u = substream(seed, LANE_SYNTH, first_index + i).random(n)
        strands[i] = 1 + (u[None, :] >= cum).sum(axis=0)
    return strands


def _cut_bonds(n: int, model: BreakModel, rng: np.random.Generator) -> np.ndarray:
    if isinstance(model, PerBond):
        return 1 + np.nonzero(rng.random(n - 1) < model.p)[0]
    lo, hi = model.bond_range if model.bond_range is not None else (1, n - 1)
    if not 1 <= lo <= hi <= n - 1:
        raise ValueError(f"bond range ({lo}, {hi}) outside [1, {n - 1}]")
    available = hi - lo + 1
    t = model.t
    if isinstance(model, AtMostT):
        t = int(rng.integers(0, model.t + 1))
    if t > available:
        raise ValueError(f"cannot place {t} distinct breaks among {available} bonds")
    if t == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(np.arange(lo, hi + 1), size=t, replace=False))


def apply_breaks(strand: np.ndarray, model: BreakModel, rng: np.random.Generator) -> list[np.ndarray]:
    """Split a strand at stochastic bond positions; fragments partition it in order."""
    bonds = _cut_bonds(len(strand), model, rng)
    return np.split(np.asarray(strand), bonds)


def apply_breaks_traced(
    strand: np.ndarray, model: BreakModel, rng: np.random.Generator
) -> list[tuple[int, np.ndarray]]:
    """Test-mode variant of apply_breaks: pairs each fragment with its true
    1-based start column. Draws the same randomness as apply_breaks."""
    bonds = _cut_bonds(len(strand), model, rng)
    pieces = np.split(np.asarray(strand), bonds)
    starts = [1] + [int(b) + 1 for b in bonds]
    return list(zip(starts, pieces))


def sample_fragments(pool: Sequence, k: int, with_replacement: bool, rng: np.random.Generator) -> list:
    """Uniformly sample k pool items, in randomized order.

    The items are usually fragments; run_experiment samples (start, fragment)
    pairs so that traced runs keep each fragment's true start column.
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
    return [pool[i] for i in idx]


@dataclass
class AlignmentResult:
    """Per-position base counts and per-class fragment tallies."""

    count_table: np.ndarray  # (q, n) int64
    tallies: dict[FragmentClass, int]


def align_and_count(samples: Sequence[np.ndarray], params: MarkerCodeParams) -> AlignmentResult:
    """Position each fragment by its marker class and accumulate base counts.

    Prefixes anchor at column 1, suffixes at column n, full strands cover
    everything; marker-only and discarded fragments (including any longer
    than n, which cannot be positioned) contribute nothing.
    """
    q, n = params.q, params.n
    table = np.zeros((q, n), dtype=np.int64)
    tallies = {kind: 0 for kind in FragmentClass}
    for frag in samples:
        frag = np.asarray(frag)
        if len(frag) > n:
            kind = FragmentClass.DISCARD
        else:
            kind = classify_fragment(frag, params)
        tallies[kind] += 1
        if kind is FragmentClass.FULL or kind is FragmentClass.PREFIX:
            start0 = 0
        elif kind is FragmentClass.SUFFIX:
            start0 = n - len(frag)
        else:
            continue
        np.add.at(table, (frag - 1, np.arange(start0, start0 + len(frag))), 1)
    return AlignmentResult(count_table=table, tallies=tallies)


class ZeroCoverageError(ValueError):
    """A data column received no aligned fragments; message names the column."""


def estimate_matrix(count_table: np.ndarray, params: MarkerCodeParams) -> CompositeMatrix:
    """Re-estimate the codeword from aligned base counts.

    Marker columns are set to their constructed values. Data columns are
    quantized from empirical frequencies by largest-remainder apportionment;
    breaker columns first project the marker base to zero and apportion the
    remainder over the other bases.
    """
    q, m, n = params.q, params.M, params.n
    if count_table.shape != (q, n):
        raise ValueError(f"count table shape {count_table.shape} != ({q}, {n})")
    breakers = layout(params).breaker_positions
    markers = _marker_columns(params)
    mb0 = params.marker_base - 1
    cols: list[CompositeSymbol] = []
    for j in range(1, n + 1):
        if j in markers:
            cols.append(markers[j])
            continue
        freqs = count_table[:, j - 1].astype(float)
        if freqs.sum() <= 0:
            raise ZeroCoverageError(f"no coverage at data column {j}")
        if j in breakers:
            rest = [freqs[i] for i in range(q) if i != mb0]
            if sum(rest) <= 0:
                raise ZeroCoverageError(f"no usable coverage at breaker column {j}")
            counts = largest_remainder_apportion(rest, m)
            counts.insert(mb0, 0)
        else:
            counts = largest_remainder_apportion(freqs.tolist(), m)
        cols.append(CompositeSymbol(tuple(counts)))
    return CompositeMatrix(columns=tuple(cols), params=params.alphabet)


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
        return {
            "fragments_sampled": self.fragments_sampled,
            "discarded_fraction": self.discarded_fraction,
            "marker_only_fraction": self.marker_only_fraction,
            "coverage_min": self.coverage_min,
            "coverage_mean": self.coverage_mean,
            "symbol_error_count": self.symbol_error_count,
            "exact_recovery": self.exact_recovery,
            "estimated_matrix": json.loads(self.estimated_matrix.to_json()),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


@dataclass
class TraceStats:
    """Ground-truth bookkeeping from a traced run (test mode only)."""

    sampled_fragments: int
    classification_errors: int
    true_class_counts: dict[str, int]


def random_message(params: MarkerCodeParams, seed: int) -> list[int]:
    """Seed-derived uniform message over the layout's mixed radices."""
    gen = substream(seed, LANE_MESSAGE)
    return [int(gen.integers(0, radix)) for radix in message_radices(params)]


def _classification_error(kind: FragmentClass, start: int, length: int, n: int) -> bool:
    end = start + length - 1
    if kind is FragmentClass.FULL:
        return length != n
    if kind is FragmentClass.PREFIX:
        return start != 1
    if kind is FragmentClass.SUFFIX:
        return end != n
    if kind is FragmentClass.MARKER_ONLY:
        return not (start == 1 or end == n)
    return False


def _run(config: ChannelConfig, trace: bool):
    params = config.code_params
    seed = config.seed
    message = random_message(params, seed)
    codeword = construct_codeword(message, params)
    truth = codeword.count_array()
    strands = synthesize(codeword, config.strand_count, seed)
    pool = [
        piece
        for i, strand in enumerate(strands)
        for piece in apply_breaks_traced(strand, config.break_model, substream(seed, LANE_BREAK, i))
    ]
    k = config.sample_size if config.sample_size is not None else len(pool)
    picked = sample_fragments(pool, k, config.with_replacement, substream(seed, LANE_SAMPLE))
    samples = [frag for _, frag in picked]

    aligned = align_and_count(samples, params)
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
    if not trace:
        return report, None

    stats = TraceStats(sampled_fragments=k, classification_errors=0, true_class_counts={})
    for start, frag in picked:
        kind = classify_fragment(frag, params)
        stats.true_class_counts[kind.value] = stats.true_class_counts.get(kind.value, 0) + 1
        if _classification_error(kind, start, len(frag), params.n):
            stats.classification_errors += 1
    return report, stats


def run_experiment(config: ChannelConfig, workers: int = 1) -> ExperimentReport:
    """Run the full pipeline; deterministic given the config (incl. seed).

    The stages are the public ones, chained: random_message,
    construct_codeword, synthesize, apply_breaks_traced per strand,
    sample_fragments, align_and_count, estimate_matrix. `workers` is
    accepted for compatibility and has no effect; the report is
    byte-identical at any value.
    """
    report, _ = _run(config, trace=False)
    return report


def run_experiment_traced(config: ChannelConfig, workers: int = 1) -> tuple[ExperimentReport, TraceStats]:
    """run_experiment plus ground-truth classification checks (test mode).

    The tracing draws no extra randomness, so the report is identical to
    run_experiment's for the same config.
    """
    report, stats = _run(config, trace=True)
    return report, stats

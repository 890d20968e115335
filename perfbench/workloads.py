"""Benchmark workloads: inputs derived from a seed, one timed operation each,
and the correctness gates applied to every output.

Every operation is one closed-loop, single-threaded call into the library's
public API (`workers=1`). A call that raises, or whose output fails a check,
is a failed operation; it never aborts the run.

Why these workloads:

- sim-short: the paper's single-break regime (q=4, M=6, n=100, ell=3,
  10,000 strands, exactly one break in bonds 5..95, full pool). Every
  fragment is positionable, so time goes to per-strand synthesis and
  breaking and to per-fragment alignment.
- sim-long: the same channel layer used differently (n=1000, ell=5, 6,000
  strands, per-bond p=0.002, 8,000 fragments sampled with replacement).
  Synthesis dominates, about 38% of sampled fragments are discarded, the
  sampling path runs, and alignment is a small share. It runs on request
  only; BENCHMARK.json leaves it out to afford longer runs of the others.
- rll-sweep: exact RLL counting behind the redundancy bounds (Q=84, R=56,
  ell 1..10 x n 200..5000 step 200), one CSV row per operation; nearly all
  time is big-integer work. Rows whose count exceeds Python's 4300-digit
  int-to-str limit fail at this commit and are counted as failures.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from compodna import channel, marker, rll, symbols
from compodna.marker import FragmentClass

from spans import SpanFactory, Tracer, untraced

DNA = symbols.AlphabetParams(q=4, M=6)

# Tolerance of the redundancy sandwich and of the recomputed redundancy.
REDUNDANCY_TOL = 1e-9


def derive_seed(seed: int, index: int) -> int:
    """Per-experiment config seed, a pure function of (workload seed, index)."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class Outcome:
    """One operation: wall seconds, and why it failed (None when it passed)."""

    batch: int
    seconds: float
    error: Optional[str] = None
    wrong_output: bool = False


class SimWorkload:
    """Channel experiments: one `run_experiment` call per operation."""

    unit = "experiment"
    # Tail percentile basis (run.tail): p66.7, which leaves ten or more
    # samples beyond it in runs of 30 or more experiments.
    tail_basis = 30

    def __init__(
        self,
        name: str,
        seed: int,
        code: marker.MarkerCodeParams,
        strand_count: int,
        break_model: channel.BreakModel,
        sample_size: Optional[int],
        with_replacement: bool,
        clean_classification: bool,
    ) -> None:
        self.name = name
        self.seed = seed
        self.code = code
        self.strand_count = strand_count
        self.break_model = break_model
        self.sample_size = sample_size
        self.with_replacement = with_replacement
        # Single-break regime: every fragment must be classified correctly
        # and none discarded.
        self.clean_classification = clean_classification
        self.data_columns = marker.layout(code).data_positions()

    def config(self, index: int) -> channel.ChannelConfig:
        return channel.ChannelConfig(
            code_params=self.code,
            strand_count=self.strand_count,
            break_model=self.break_model,
            sample_size=self.sample_size,
            with_replacement=self.with_replacement,
            seed=derive_seed(self.seed, index),
        )

    def batches(self) -> Iterator[list[int]]:
        index = 0
        while True:
            yield [index]
            index += 1

    def run(self, batch: int, index: int, tracer: Optional[Tracer] = None) -> Outcome:
        config = self.config(index)
        span: SpanFactory = tracer.for_experiment(f"{self.name}/{index}") if tracer else untraced
        with span("bench.operation") as root:
            start = time.perf_counter()
            try:
                with span("channel.run_experiment"):
                    report = channel.run_experiment(config, workers=1)
            except Exception as exc:  # a failed operation, not a crash
                return Outcome(batch, time.perf_counter() - start, describe(exc))
            seconds = time.perf_counter() - start
            try:
                with span("channel.random_message"):
                    message = channel.random_message(config.code_params, config.seed)
                problems = self._check(config, report, message, span)
                if tracer is not None:
                    problems += self._replay(config, report, message, span)
            except Exception as exc:
                problems = [describe(exc)]
        if tracer is not None:
            seconds = root.seconds
        if problems:
            return Outcome(batch, seconds, "; ".join(problems), wrong_output=True)
        return Outcome(batch, seconds)

    def _check(
        self, config: channel.ChannelConfig, report: channel.ExperimentReport, message: list[int], span: SpanFactory
    ) -> list[str]:
        params = config.code_params
        estimate = report.estimated_matrix
        problems = []
        if not report.exact_recovery:
            problems.append(f"not an exact recovery: {report.symbol_error_count} symbol errors")
        with span("marker.is_valid_codeword"):
            check = marker.is_valid_codeword(estimate, params)
        if not check:
            problems.append("estimate is not a valid codeword: " + "; ".join(check.violations[:3]))
            return problems
        with span("marker.decode_matrix"):
            decoded = marker.decode_matrix(estimate, params)
        if decoded != message:
            problems.append("decoded message differs from the drawn message")
        with span("symbols.rank_unrank") as s:
            bad = 0
            for j in self.data_columns:
                col = estimate.columns[j - 1]
                if symbols.unrank_symbol(symbols.rank_symbol(col, params.alphabet), params.alphabet) != col:
                    bad += 1
            s.counts["columns"] = len(self.data_columns)
        if bad:
            problems.append(f"{bad} data columns do not survive rank/unrank")
        return problems

    def _replay(
        self, config: channel.ChannelConfig, report: channel.ExperimentReport, message: list[int], span: SpanFactory
    ) -> list[str]:
        """Re-run the pipeline stage by stage on the same substreams."""
        params, seed, count = config.code_params, config.seed, config.strand_count
        with span("marker.construct_codeword"):
            codeword = marker.construct_codeword(message, params)
        with span("channel.synthesize") as s:
            strands = channel.synthesize(codeword, count, seed)
            s.counts["positions"] = int(strands.size)
        with span("channel.apply_breaks") as s:
            per_strand = [
                channel.apply_breaks_traced(
                    strands[i], config.break_model, channel.substream(seed, channel.LANE_BREAK, i)
                )
                for i in range(count)
            ]
            pool = [frag for pieces in per_strand for _, frag in pieces]
            s.counts["calls"] = count
            s.counts["fragments"] = len(pool)
            s.counts["cuts"] = len(pool) - count
        start_of = {id(frag): start for pieces in per_strand for start, frag in pieces}
        k = config.sample_size if config.sample_size is not None else len(pool)
        with span("channel.sample_fragments") as s:
            samples = channel.sample_fragments(
                pool, k, config.with_replacement, channel.substream(seed, channel.LANE_SAMPLE)
            )
            s.counts["sampled"] = len(samples)
        with span("channel.align_and_count") as s:
            aligned = channel.align_and_count(samples, params)
            s.counts.update({kind.value: n for kind, n in aligned.tallies.items()})
        with span("channel.estimate_matrix") as s:
            estimate = channel.estimate_matrix(aligned.count_table, params)
            s.counts["coverage_min"] = report.coverage_min
        with span("marker.classify_fragment") as s:
            wrong = sum(
                misclassified(marker.classify_fragment(frag, params), start_of[id(frag)], len(frag), params.n)
                for frag in samples
            )
            s.counts["misclassified"] = wrong

        problems = []
        if estimate != report.estimated_matrix:
            problems.append("staged replay does not reproduce run_experiment's estimate")
        discards = aligned.tallies[FragmentClass.DISCARD]
        if self.clean_classification and (wrong or discards):
            problems.append(f"{wrong} misclassified and {discards} discarded fragments in the single-break regime")
        return problems


def misclassified(kind: FragmentClass, start: int, length: int, n: int) -> bool:
    """Whether a class contradicts the fragment's true 1-based start column."""
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


def decimal_digits(x: int) -> int:
    """Decimal digit count of a positive int without int-to-str conversion."""
    digits = max(1, int((x.bit_length() - 1) * math.log10(2)))
    while 10**digits <= x:
        digits += 1
    return digits


def log_decimal(digits: str) -> float:
    """Natural log of a decimal integer string, without parsing it into an int
    (which Python limits to 4300 digits); exact to double precision."""
    head = digits[:17]
    return math.log(int(head)) + (len(digits) - len(head)) * math.log(10)


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.12g}"


def format_row(Q: int, R: int, ell: int, n: int, rep: rll.BoundReport) -> str:
    """The sweep CSV row for one bound report (schema of rll.SWEEP_CSV_HEADER)."""
    return (
        f"{Q},{R},{ell},{n},{rep.exact_count},{_fmt(rep.exact_redundancy)},"
        f"{_fmt(rep.lower_bound)},{_fmt(rep.upper_bound_union)},"
        f"{_fmt(rep.upper_bound_lll)},{_fmt(rep.trivial_bound)}"
    )


def check_row(row: str, Q: int, R: int, ell: int, n: int) -> tuple[list[str], bool]:
    """Problems with one sweep row, and whether the bound sandwich is violated."""
    fields = row.split(",")
    if len(fields) != 10 or fields[:4] != [str(Q), str(R), str(ell), str(n)]:
        return [f"malformed row for ell={ell}, n={n}: {row[:80]!r}"], False
    digits = fields[4]
    if not digits.isdigit() or digits.startswith("0"):
        return [f"ell={ell}, n={n}: exact_count {digits[:40]!r} is not a positive integer"], False
    exact, lower, trivial = float(fields[5]), float(fields[6]), float(fields[9])
    union = None if fields[7] == "" else float(fields[7])
    problems = []
    recomputed = n - log_decimal(digits) / math.log(Q)
    if not math.isclose(exact, recomputed, rel_tol=1e-11, abs_tol=REDUNDANCY_TOL):
        problems.append(f"ell={ell}, n={n}: exact_redundancy {exact} != n - log_Q(count) = {recomputed}")
    sandwich_ok = lower <= exact + REDUNDANCY_TOL and exact <= trivial + REDUNDANCY_TOL
    if union is not None:
        sandwich_ok = sandwich_ok and exact <= union + REDUNDANCY_TOL
    if not sandwich_ok:
        problems.append(f"ell={ell}, n={n}: bound sandwich violated ({lower}, {exact}, {union}, {trivial})")
    return problems, not sandwich_ok


class RllWorkload:
    """Redundancy-bound sweep: one `sweep_csv_rows` row per operation.

    A batch is one full grid pass, in an order shuffled from the seed.
    """

    unit = "row"

    def __init__(self, name: str, seed: int, Q: int, R: int, ells: list[int], ns: list[int]) -> None:
        self.name = name
        self.seed = seed
        self.Q, self.R = Q, R
        self.grid = [(ell, n) for ell in ells for n in ns]
        # The tail is read at the percentile one grid pass gives (p96), so it
        # names the same grid point however many passes a run makes.
        self.tail_basis = len(self.grid)

    def batches(self) -> Iterator[list[tuple[int, int]]]:
        order = random.Random(self.seed)
        while True:
            grid = list(self.grid)
            order.shuffle(grid)
            yield grid

    def run(self, batch: int, point: tuple[int, int], tracer: Optional[Tracer] = None) -> Outcome:
        ell, n = point
        Q, R = self.Q, self.R
        span: SpanFactory = tracer.for_experiment(f"{self.name}/{batch}/ell={ell},n={n}") if tracer else untraced
        error = None
        problems: list[str] = []
        with span("bench.operation") as root:
            start = time.perf_counter()
            try:
                with span("rll.sweep_csv_rows"):
                    rows = rll.sweep_csv_rows(Q, R, [ell], [n])
            except Exception as exc:  # a failed operation, not a crash
                rows, error = None, describe(exc)
            seconds = time.perf_counter() - start
            try:
                if rows is not None:
                    problems, violated = check_row(rows[0], Q, R, ell, n)
                    root.counts["sandwich_violations"] = int(violated)
                if tracer is not None:
                    problems += self._replay(rows, ell, n, span)
            except Exception as exc:
                problems.append(describe(exc))
            root.counts["rows_ok"] = int(error is None and not problems)
            root.counts["rows_failed"] = 1 - root.counts["rows_ok"]
        if tracer is not None:
            seconds = root.seconds
        if error is not None:
            return Outcome(batch, seconds, error)
        if problems:
            return Outcome(batch, seconds, "; ".join(problems), wrong_output=True)
        return Outcome(batch, seconds)

    def _replay(self, rows: Optional[list[str]], ell: int, n: int, span: SpanFactory) -> list[str]:
        """Count, bound report and row formatting as separate timed stages."""
        params = rll.RllParams(Q=self.Q, R=self.R, ell=ell, n=n)
        with span("rll.count_rll_exact") as s:
            count = rll.count_rll_exact(params)
            s.counts["digits"] = decimal_digits(count)
        with span("rll.bound_report"):
            report = rll.bound_report(params)
        try:
            with span("rll.format_row"):
                row = format_row(self.Q, self.R, ell, n, report)
        except ValueError:
            row = None  # the same int-to-str limit that failed the operation
        if report.exact_count != count:
            return [f"ell={ell}, n={n}: bound_report count differs from count_rll_exact"]
        if rows is not None and row != rows[0]:
            return [f"ell={ell}, n={n}: staged row differs from sweep_csv_rows"]
        return []


Workload = Union[SimWorkload, RllWorkload]


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The named workload at full size, or a tiny size for the smoke test."""
    if name == "sim-short":
        return SimWorkload(
            name,
            seed,
            marker.MarkerCodeParams(alphabet=DNA, n=100, ell=3),
            strand_count=2_000 if tiny else 10_000,
            break_model=channel.ExactlyT(t=1, bond_range=(5, 95)),
            sample_size=None,
            with_replacement=False,
            clean_classification=True,
        )
    if name == "sim-long":
        n = 300 if tiny else 1000
        return SimWorkload(
            name,
            seed,
            marker.MarkerCodeParams(alphabet=DNA, n=n, ell=5),
            strand_count=2_000 if tiny else 6_000,
            break_model=channel.PerBond(p=0.002 * 1000 / n),
            sample_size=3_000 if tiny else 8_000,
            with_replacement=True,
            clean_classification=False,
        )
    if name == "rll-sweep":
        Q = symbols.alphabet_size(DNA)
        R = symbols.restricted_symbol_count(DNA, 1)
        if tiny:
            return RllWorkload(name, seed, Q, R, [1, 10], [200, 2400])
        return RllWorkload(name, seed, Q, R, list(range(1, 11)), list(range(200, 5001, 200)))
    raise ValueError(f"unknown workload {name!r}")

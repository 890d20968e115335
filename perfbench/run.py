#!/usr/bin/env python3
"""compodna benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim-short --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each was chosen): sim-short and
rll-sweep, named in BENCHMARK.json, and sim-long, run on request only. One
single-threaded process issues each library call after the previous one
returns (closed loop, one client, `workers=1`) for the given number of
seconds, checks every output, and counts a call that raises or returns a
wrong output as a failed operation.

With --trace 0 the last stdout line holds the end-to-end metrics of an
untraced run. With --trace 1 the run is split: an untraced half, then a
traced half that records a span around every library call the benchmark
makes and replays each operation stage by stage; the last line then holds
the per-layer metrics taken from those spans, plus `trace_overhead_s`.
The lines before it print every metric with its unit, the environment and
the first failures. The full result and the spans are written under
perfbench/out/.

Operation times are also reported in units of a fixed reference kernel
timed between operations (reference.py), which cancels the drift of a
shared host's speed; these are the bounded end-to-end timings.

During the timed loop, between operations, the benchmark times its own
set-up (import of compodna plus building the inputs) in fresh interpreters.
After the loop, it checks the `compodna` CLI against the library
(clichecks.py).

The library is imported from the checkout's `src`; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional, Sequence

import reference

# sim-long runs on request only; BENCHMARK.json names the other two.
WORKLOADS = ("sim-short", "sim-long", "rll-sweep")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is timed SETUP_REPEATS times, spread evenly over the timed loop
# (between operations), so that their median spans the host's state over
# the whole run.
SETUP_REPEATS = 12
# A reference sample is taken before an operation once this many seconds
# have passed since the last one.
REF_PERIOD_S = 0.25
# setup_s is scaled to a host on which one reference pass takes this long,
# as set-up runs in fresh interpreters and cannot be timed in `ref` per
# operation; the raw median is reported as setup_raw_s.
REF_NOMINAL_S = 0.010
SETUP_TIMEOUT_S = 60

# Timings of operations are in units of the reference kernel's time around
# each operation ("ref", see reference.py), which cancels host drift.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_ref": "1/ref",
    "op_ref_p50": "ref",
    "op_ref_tail": "ref",
    "peak_rss_mb": "MB",
}
# Raw seconds and workload figures, some defined on some workloads only (0
# elsewhere); they are printed on every run and reported in the traced run.
WORKLOAD_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ref_s": "s",
    "setup_raw_s": "s",
    "strands_per_s": "1/s",
    "experiment_s_p50": "s",
    "experiment_s_tail": "s",
    "rows_per_s": "1/s",
    "sweep_s": "s",
    "ops_failed_frac": "fraction",
}
TALLIES = ("Full", "Prefix", "Suffix", "MarkerOnly", "Discard")
LAYER_UNITS = {
    "channel.synthesize_s": "s",
    "channel.synthesize_positions": "count",
    "channel.apply_breaks_s": "s",
    "channel.fragments": "count",
    "channel.cuts": "count",
    "channel.align_and_count_s": "s",
    "channel.usable_frac": "fraction",
    **{f"channel.tally.{kind}": "count" for kind in TALLIES},
    "channel.sample_fragments_s": "s",
    "channel.estimate_matrix_s": "s",
    "channel.coverage_min": "count",
    "channel.misclassified": "count",
    "channel.run_experiment_s": "s",
    "trace_overhead_s": "s",
    "marker.construct_codeword_s": "s",
    "marker.is_valid_codeword_s": "s",
    "marker.decode_matrix_s": "s",
    "symbols.rank_unrank_s": "s",
    "rll.count_rll_exact_s": "s",
    "rll.bound_report_s": "s",
    "rll.format_row_s": "s",
    "rll.count_digits_max": "count",
    "rll.rows_ok": "count",
    "rll.rows_failed": "count",
    "rll.sandwich_violations": "count",
    "cli.cold_start_s": "s",
    "cli.simulate_s": "s",
    "cli.bounds_s": "s",
    "cli.overhead_s": "s",
    **WORKLOAD_UNITS,
}


def bootstrap() -> bool:
    """Put the checkout's `src` first on sys.path; False when it is missing."""
    if not (SRC / "compodna" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def tail(values: Sequence[float], basis: Optional[int] = None) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, but never below
    the median (fewer than 21 samples): (value, percentile).

    With `basis`, the percentile is the one that rule gives for `basis`
    samples, read off all the values. A run's sample count follows the
    host's speed; a fixed percentile keeps the tail from moving with it.
    """
    ordered = sorted(values)
    n = basis or len(ordered)
    rank = max(n - 11, (n - 1) // 2) + 1
    return ordered[-(-rank * len(ordered) // n) - 1], 100.0 * rank / n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "compodna").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "int_max_str_digits": sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None,
        "workload_seed": seed,
    }


def time_setup(workload: str, seed: int, tiny: bool) -> float:
    """Set-up seconds of one fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), "1" if tiny else "0"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def measure(
    wl, seconds: float, tracer=None, setup: Optional[Callable[[], None]] = None
) -> tuple[list, list[float], list[float]]:
    """Closed loop over whole batches until `seconds` of wall time have passed.

    Returns the outcomes, the reference samples taken between operations,
    and for each outcome the mean of the samples just before and just after
    it: the host's speed around that operation. `setup`, when given, is
    called SETUP_REPEATS times between operations, evenly over the loop.
    """
    outcomes: list = []
    refs: list[float] = []
    before: list[int] = []
    setups = 0 if setup else SETUP_REPEATS
    reference.sample()  # warm-up
    start = time.perf_counter()
    last_ref = start - REF_PERIOD_S
    for b, batch in enumerate(wl.batches()):
        for key in batch:
            if setups < SETUP_REPEATS and time.perf_counter() - start >= setups * seconds / SETUP_REPEATS:
                setup()
                setups += 1
            if time.perf_counter() - last_ref >= REF_PERIOD_S:
                refs.append(reference.sample())
                last_ref = time.perf_counter()
            before.append(len(refs) - 1)
            outcomes.append(wl.run(b, key, tracer))
        if time.perf_counter() - start >= seconds:
            break
    for _ in range(setups, SETUP_REPEATS):  # a loop shorter than planned
        setup()
    refs.append(reference.sample())
    return outcomes, refs, [(refs[i] + refs[i + 1]) / 2 for i in before]


def workload_metrics(
    wl, outcomes: list, refs: list[float], local_refs: list[float]
) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end figures of one untraced loop: (contract metrics, workload figures)."""
    durations = [o.seconds for o in outcomes]
    costs = [d / r for d, r in zip(durations, local_refs)]
    busy = sum(durations)
    completed = sum(1 for o in outcomes if o.error is None)
    p50 = statistics.median(durations)
    tail_s, _ = tail(durations, wl.tail_basis)
    contract = {
        "ops_per_ref": completed / sum(costs),
        "op_ref_p50": statistics.median(costs),
        "op_ref_tail": tail(costs, wl.tail_basis)[0],
    }
    figures = dict.fromkeys(WORKLOAD_UNITS, 0.0)
    figures.update(ops_per_s=completed / busy, op_s_p50=p50, op_s_tail=tail_s, ref_s=statistics.fmean(refs))
    figures["ops_failed_frac"] = (len(outcomes) - completed) / len(outcomes)
    if wl.unit == "experiment":
        figures.update(strands_per_s=completed * wl.strand_count / busy, experiment_s_p50=p50, experiment_s_tail=tail_s)
    else:
        passes: Counter = Counter()
        for o in outcomes:
            passes[o.batch] += o.seconds
        figures.update(rows_per_s=completed / busy, sweep_s=statistics.median(passes.values()))
    return contract, figures


def layer_metrics(tracer, traced: list, untraced: list, cli_times: dict[str, float]) -> dict[str, float]:
    ops = len(traced)
    seconds = tracer.seconds_by_name()

    def per_op(span: str) -> float:
        return seconds.get(span, 0.0) / ops

    def counts(span: str, key: str) -> list[float]:
        return [c.get(key, 0) for c in tracer.counts_by_name(span)]

    aligned = tracer.counts_by_name("channel.align_and_count")
    sampled = sum(sum(c.values()) for c in aligned)
    usable = sum(c["Full"] + c["Prefix"] + c["Suffix"] for c in aligned)
    out = {
        "channel.synthesize_s": per_op("channel.synthesize"),
        "channel.synthesize_positions": sum(counts("channel.synthesize", "positions")) / ops,
        "channel.apply_breaks_s": per_op("channel.apply_breaks"),
        "channel.fragments": sum(counts("channel.apply_breaks", "fragments")) / ops,
        "channel.cuts": sum(counts("channel.apply_breaks", "cuts")) / ops,
        "channel.align_and_count_s": per_op("channel.align_and_count"),
        "channel.usable_frac": usable / sampled if sampled else 0.0,
        **{f"channel.tally.{kind}": sum(counts("channel.align_and_count", kind)) / ops for kind in TALLIES},
        "channel.sample_fragments_s": per_op("channel.sample_fragments"),
        "channel.estimate_matrix_s": per_op("channel.estimate_matrix"),
        "channel.coverage_min": min(counts("channel.estimate_matrix", "coverage_min"), default=0.0),
        "channel.misclassified": sum(counts("marker.classify_fragment", "misclassified")),
        "channel.run_experiment_s": per_op("channel.run_experiment"),
        "trace_overhead_s": statistics.fmean(o.seconds for o in traced)
        - statistics.fmean(o.seconds for o in untraced),
        "marker.construct_codeword_s": per_op("marker.construct_codeword"),
        "marker.is_valid_codeword_s": per_op("marker.is_valid_codeword"),
        "marker.decode_matrix_s": per_op("marker.decode_matrix"),
        "symbols.rank_unrank_s": per_op("symbols.rank_unrank"),
        "rll.count_rll_exact_s": per_op("rll.count_rll_exact"),
        "rll.bound_report_s": per_op("rll.bound_report"),
        "rll.format_row_s": per_op("rll.format_row"),
        "rll.count_digits_max": max(counts("rll.count_rll_exact", "digits"), default=0),
        "rll.rows_ok": sum(counts("bench.operation", "rows_ok")),
        "rll.rows_failed": sum(counts("bench.operation", "rows_failed")),
        "rll.sandwich_violations": sum(counts("bench.operation", "sandwich_violations")),
    }
    for key in ("cold_start", "simulate", "bounds", "overhead"):
        out[f"cli.{key}_s"] = cli_times.get(key, 0.0)
    return out


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full result (see module docstring)."""
    import clichecks
    import workloads
    from spans import Tracer

    load_before = os.getloadavg()
    time_setup(workload, seed, tiny)  # warm-up: compiles bytecode, fills the file cache
    setup_times: list[float] = []
    wl = workloads.build(workload, seed, tiny)

    untraced, refs, local_refs = measure(
        wl, seconds / 2 if trace else seconds, setup=lambda: setup_times.append(time_setup(workload, seed, tiny))
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer = traced = None
    if trace:
        tracer = Tracer()
        traced = measure(wl, seconds / 2, tracer)[0]

    sim_short = workloads.build("sim-short", seed, tiny)
    cli_times, cli_failures = clichecks.run_cli_checks(ROOT, sim_short, bounds_ell=1 + seed % 10)

    contract, figures = workload_metrics(wl, untraced, refs, local_refs)
    setup_raw_s = statistics.median(setup_times)
    contract.update(setup_s=setup_raw_s * REF_NOMINAL_S / figures["ref_s"], peak_rss_mb=peak_rss_mb)
    figures.update(setup_raw_s=setup_raw_s)
    figures.update(setup_s=contract["setup_s"], peak_rss_mb=peak_rss_mb)
    outcomes = untraced + (traced or [])
    if trace:
        metrics = {**layer_metrics(tracer, traced, untraced, cli_times), **figures}
        units = LAYER_UNITS
        tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
    else:
        metrics, units = contract, E2E_UNITS
    errors = Counter(o.error for o in outcomes if o.error is not None)
    wrong = sum(1 for o in outcomes if o.wrong_output)
    tail_s, tail_pct = tail([o.seconds for o in untraced], wl.tail_basis)
    return {
        "correct": wrong == 0 and not cli_failures,
        "attempted": len(outcomes),
        "failed": sum(errors.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "operation": wl.unit,
        "end_to_end": {name: {"value": contract[name], "unit": unit} for name, unit in E2E_UNITS.items()},
        "workload_metrics": {
            **{name: {"value": figures[name], "unit": unit} for name, unit in WORKLOAD_UNITS.items()},
            "setup_s": {"value": figures["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
        "tail": {"percentile": tail_pct, "samples": len(untraced), "value": tail_s},
        "untraced_op_seconds": [o.seconds for o in untraced],
        "setup_samples_s": setup_times,
        "reference_samples_s": refs,
        "untraced_op_local_reference_s": local_refs,
        "cli_seconds": cli_times,
        "cli_failures": cli_failures,
        "failures": [{"error": e, "count": c} for e, c in errors.most_common()],
        "environment": {**environment(seed), "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
    }


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result (last line of stdout)."""
    print(
        f"# compodna benchmark: workload={result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} trace={result['trace']}"
    )
    print("# environment " + json.dumps(result["environment"]))
    tail_info = result["tail"]
    print(
        f"# {result['attempted']} operations ({result['operation']} each), {result['failed']} failed; "
        f"tail = p{tail_info['percentile']:.1f} of {tail_info['samples']} untraced samples; "
        f"outputs {'correct' if result['correct'] else 'WRONG'}"
    )
    groups = {"workload_metrics": result["workload_metrics"], "end_to_end": result["end_to_end"]}
    if result["trace"]:
        groups["per_layer"] = {k: v for k, v in result["metrics"].items() if k not in WORKLOAD_UNITS}
    for group, metrics in groups.items():
        print(f"# {group}:")
        for name, m in metrics.items():
            print(f"#   {name:32s} {m['value']:.6g} {m['unit']}")
    for failure in result["cli_failures"]:
        print(f"# CLI check failed: {failure}")
    for failure in result["failures"][:5]:
        print(f"# failed x{failure['count']}: {failure['error'][:200]}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def save(result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not bootstrap():
        print(f"error: compodna sources not found under {SRC}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    save(result)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

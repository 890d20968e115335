"""Checks of the `compodna` command line against the in-process API.

Each check runs the CLI as a child process (`python -m compodna.cli`) from
the checkout's `src`, waits for it with a timeout, and compares its stdout
byte for byte with what the library returns in process. The wall times give
the CLI's per-call cost to a shell user.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from compodna import channel, rll

from workloads import SimWorkload, describe

CHILD_TIMEOUT_S = 150
BOUNDS_N = (200, 1000, 200)  # n lo, hi, step: far below the 4300-digit limit at every ell


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


class Cli:
    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = dict(os.environ)
        self.env.pop("COMPODNA_SEED", None)
        paths = [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)

    def __call__(self, args: list[str], stdin: bytes = b"") -> tuple[bytes, float]:
        """Stdout of one CLI call and its wall time; raises if it fails."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "compodna.cli", *args],
            input=stdin,
            capture_output=True,
            env=self.env,
            cwd=self.root,
            timeout=CHILD_TIMEOUT_S,
        )
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"compodna {args[0]} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return proc.stdout, seconds


def run_cli_checks(root: Path, sim: SimWorkload, bounds_ell: int) -> tuple[dict[str, float], list[str]]:
    """CLI wall times (seconds) and the list of failed checks.

    `simulate` runs one sim config at --workers 1 and at --workers 2 (capped
    at the core count); both must equal the in-process report. `bounds` runs
    one ell over a range of n that every build can format.
    """
    cli = Cli(root)
    times: dict[str, float] = {}
    failures: list[str] = []

    try:
        out, times["cold_start"] = cli(["alphabet", "--q", "4", "--M", "6"])
        if json.loads(out) != {"Q": 84, "R": 56}:
            failures.append(f"compodna alphabet printed {out[:80]!r}")
    except Exception as exc:
        failures.append(f"compodna alphabet: {describe(exc)}")

    config = sim.config(0)
    try:
        report, in_process_sim = _timed(channel.run_experiment, config, 1)
        expected = (report.to_json() + "\n").encode()
    except Exception as exc:
        failures.append(f"in-process run_experiment for the simulate check: {describe(exc)}")
        expected = None
    for workers in sorted({1, min(2, os.cpu_count() or 1)}) if expected else ():
        try:
            out, seconds = cli(["simulate", "--config", "-", "--workers", str(workers)], config.to_json().encode())
        except Exception as exc:
            failures.append(f"compodna simulate --workers {workers}: {describe(exc)}")
            continue
        if workers == 1:
            times["simulate"] = seconds
        if out != expected:
            failures.append(f"compodna simulate --workers {workers} differs from run_experiment().to_json()")

    lo, hi, step = BOUNDS_N
    try:
        rows, in_process_bounds = _timed(rll.sweep_csv_rows, 84, 56, [bounds_ell], range(lo, hi + 1, step))
        expected = ("\n".join([rll.SWEEP_CSV_HEADER, *rows]) + "\n").encode()
        out, times["bounds"] = cli(
            ["bounds", "--Q", "84", "--R", "56", "--ell-range", str(bounds_ell), "--n-range", f"{lo}:{hi}:{step}"]
        )
        if out != expected:
            failures.append(f"compodna bounds --ell-range {bounds_ell} differs from sweep_csv_rows")
    except Exception as exc:
        failures.append(f"bounds check: {describe(exc)}")

    if "simulate" in times and "bounds" in times:
        times["overhead"] = (times["simulate"] - in_process_sim + times["bounds"] - in_process_bounds) / 2
    return times, failures

"""Smoke test of the benchmark at tiny input sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert result["correct"] is True
    assert 0 <= result["failed"] < result["attempted"]
    if trace:
        failed_frac = result["metrics"]["ops_failed_frac"]["value"]
        assert (failed_frac > 0) == (result["failed"] > 0)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _flaky(real, fault):
    """Wrap `real` so that its first call is replaced by `fault`."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fault(*args, **kwargs) if len(calls) == 1 else real(*args, **kwargs)

    return wrapper


def test_injected_exception_lands_in_ops_failed_frac(monkeypatch):
    assert run.bootstrap()
    from compodna import channel

    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(channel, "run_experiment", _flaky(channel.run_experiment, boom))
    result = run.run_benchmark("sim-short", 5, 1.0, trace=False, tiny=True)
    assert result["failed"] == 1
    assert result["correct"] is True
    assert result["workload_metrics"]["ops_failed_frac"]["value"] == 1 / result["attempted"]
    assert result["failures"][0]["error"] == "RuntimeError: injected failure"


def test_injected_wrong_output_is_a_failed_and_incorrect_operation(monkeypatch):
    assert run.bootstrap()
    from compodna import channel

    real = channel.run_experiment

    def wrong(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), exact_recovery=False)

    monkeypatch.setattr(channel, "run_experiment", _flaky(real, wrong))
    result = run.run_benchmark("sim-short", 5, 1.0, trace=True, tiny=True)
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["workload_metrics"]["ops_failed_frac"]["value"] > 0


def test_without_library_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion checks its stated tolerance and runtime budget.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np

from compodna import (
    AlphabetParams,
    ChannelConfig,
    ExactlyT,
    MarkerCodeParams,
    RllParams,
    alphabet_size,
    construct_codeword,
    continuous_redundancy,
    count_rll_brute,
    count_rll_exact,
    forbidden_block_count,
    message_radices,
    optimal_marker_length,
    redundancy_exact,
    redundancy_lower_bound,
    redundancy_trivial_bound,
    redundancy_upper_bounds,
    restricted_symbol_count,
    run_experiment_traced,
    synthesize,
    window_count_closed_form,
)
from compodna.cli import main
from compodna.rll import verify_summation_identities_grid

DNA = AlphabetParams(q=4, M=6)


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_alphabet_reproduction():
    start = time.perf_counter()
    q_size = alphabet_size(DNA)
    r_size = restricted_symbol_count(DNA, 1)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    ok = q_size == 84 and r_size == 56 and elapsed_ms < 1.0
    check(1, "alphabet reproduction", ok, f"Q={q_size}, R={r_size}, {elapsed_ms:.3f} ms")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for Q in (2, 3, 4):
        for R in range(Q):
            for ell in range(1, 5):
                for n in range(13):
                    params = RllParams(Q=Q, R=R, ell=ell, n=n)
                    checked += 1
                    if count_rll_exact(params) != count_rll_brute(params):
                        mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    check(2, "oracle equivalence", ok, f"{checked} instances, {mismatches} mismatches, {elapsed:.1f} s")


def test_criterion_3_closed_form_window_count():
    failures = 0
    checked = 0
    for Q in range(2, 7):
        for R in range(Q):
            for ell in range(1, 6):
                checked += 1
                closed = window_count_closed_form(Q, R, ell)
                if closed != count_rll_exact(RllParams(Q=Q, R=R, ell=ell, n=2 * ell)):
                    failures += 1
                blocks = sum(
                    forbidden_block_count(j, k, Q, R, ell)
                    for j in range(1, ell + 2)
                    for k in range(ell, 2 * ell - j + 2)
                )
                if Q ** (2 * ell) - blocks != closed:
                    failures += 1
    check(3, "closed-form window count", failures == 0, f"{checked} points, {failures} failures")


def test_criterion_4_bound_sandwich():
    violations = 0
    checked = 0
    for Q in (2, 3, 4):
        for R in range(Q):
            for ell in range(1, 5):
                for n in range(41):
                    params = RllParams(Q=Q, R=R, ell=ell, n=n)
                    exact = redundancy_exact(params)
                    checked += 1
                    if redundancy_lower_bound(params) > exact + 1e-9:
                        violations += 1
                    if exact > redundancy_trivial_bound(params) + 1e-9:
                        violations += 1
                    if n >= ell:
                        union = redundancy_upper_bounds(params).union
                        if union is not None and exact > union + 1e-9:
                            violations += 1
    check(4, "bound sandwich", violations == 0, f"{checked} points, {violations} violations")


def test_criterion_5_summation_identities():
    failures = verify_summation_identities_grid(points=20, seed=7, max_ell=8)
    check(5, "summation identities", failures == 0, f"20 random points, {failures} failures")


def test_criterion_6_corollary_consistency():
    problems = []
    for n in (50, 100, 500, 1000, 5000):
        opt = optimal_marker_length(4, 6, n)
        lo, hi = math.floor(opt.ell_formula), math.ceil(opt.ell_formula)
        if min(abs(opt.ell_integer - lo), abs(opt.ell_integer - hi)) > 1:
            problems.append(f"n={n}: scan optimum {opt.ell_integer} far from {opt.ell_formula:.3f}")
        substituted = continuous_redundancy(4, 6, n, opt.ell_formula)
        if abs(substituted - opt.redundancy_at_optimum) > 1e-9:
            problems.append(f"n={n}: substitution mismatch {substituted} vs {opt.redundancy_at_optimum}")

    # The closed-form optimum evaluates to ~0.352 sqrt(n-4) at (q=4, M=6);
    # the sometimes-quoted 0.24 sqrt(n) coefficient is not reproduced. That
    # discrepancy must be real and documented in the README.
    coef = optimal_marker_length(4, 6, 5000).ell_formula / math.sqrt(5000 - 4)
    if abs(coef - 0.352) > 1e-3:
        problems.append(f"coefficient {coef:.4f} not ~0.352")
    if abs(coef - 0.24) < 0.05:
        problems.append("coefficient unexpectedly matches the quoted 0.24")
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    if "0.24" not in readme or "0.352" not in readme:
        problems.append("README does not document the 0.24 vs 0.352 discrepancy")
    check(6, "corollary consistency", not problems, "; ".join(problems) or f"coef={coef:.4f}")


def test_criterion_7_marker_uniqueness():
    start = time.perf_counter()
    violations = 0
    strands_checked = 0
    rng = random.Random(2024)
    for ell in (3, 5):
        params = MarkerCodeParams(alphabet=DNA, n=100, ell=ell)
        pattern = np.array(params.marker_pattern(), dtype=np.int16)
        span = len(pattern)
        expected = np.zeros(params.n - span + 1, dtype=bool)
        expected[0] = expected[params.n - span] = True
        for codeword_idx in range(50):
            message = [rng.randrange(r) for r in message_radices(params)]
            codeword = construct_codeword(message, params)
            strands = synthesize(codeword, 100, seed=1000 * ell + codeword_idx)
            windows = np.lib.stride_tricks.sliding_window_view(strands, span, axis=1)
            hits = (windows == pattern).all(axis=2)
            violations += int((hits != expected[None, :]).sum())
            strands_checked += len(strands)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and strands_checked == 10_000 and elapsed < 60.0
    check(7, "marker uniqueness", ok, f"{strands_checked} strands, {violations} violations, {elapsed:.1f} s")


def test_criterion_8_single_break_recovery():
    start = time.perf_counter()
    params = MarkerCodeParams(alphabet=DNA, n=100, ell=3)
    data_bonds = (params.ell + 2, params.n - params.ell - 2)
    failures = []
    for seed in range(20):
        config = ChannelConfig(
            code_params=params,
            strand_count=10_000,
            break_model=ExactlyT(t=1, bond_range=data_bonds),
            sample_size=None,
            with_replacement=False,
            seed=seed,
        )
        report, stats = run_experiment_traced(config)
        if stats.classification_errors != 0:
            failures.append(f"seed {seed}: {stats.classification_errors} misclassifications")
        if stats.true_class_counts.get("Discard", 0) != 0:
            failures.append(f"seed {seed}: unexpected discards")
        if report.discarded_fraction != 0:
            failures.append(f"seed {seed}: {report.discarded_fraction:g} of fragments discarded")
        if not report.exact_recovery:
            failures.append(f"seed {seed}: recovery failed ({report.symbol_error_count} errors)")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    check(8, "single-break recovery", ok, "; ".join(failures) or f"20 seeds, {elapsed:.1f} s")


def test_criterion_9_determinism(capsys, tmp_path):
    config = {
        "code_params": {"q": 4, "M": 6, "n": 100, "ell": 3, "marker_base": 1, "anchor_base": 2},
        "strand_count": 2000,
        "break_model": {"kind": "per_bond", "p": 0.01},
        "sample_size": None,
        "with_replacement": False,
        "seed": 77,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    outputs = []
    runs = [[], [], ["--workers", str(max(2, os.cpu_count() or 2))]]
    for extra in runs:
        code = main(["simulate", "--config", str(path), *extra])
        out = capsys.readouterr().out
        outputs.append((code, out))
    codes_ok = all(code == 0 for code, _ in outputs)
    identical = len({out for _, out in outputs}) == 1
    with capsys.disabled():
        check(9, "determinism", codes_ok and identical,
              f"3 runs (incl. {runs[-1][1]} workers), byte-identical={identical}")

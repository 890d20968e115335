"""Command-line front end.

Subcommands: alphabet, count, bounds, optimal-ell, encode, decode,
simulate, verify. All output is JSON or CSV on stdout; exit status is 2
for flag errors, 1 for failed verification or any stage error, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import channel, marker, rll, symbols

SEED_ENV_VAR = "COMPODNA_SEED"


def _parse_range(text: str, flag: str) -> list[int]:
    """"lo:hi" or "lo:hi:step" (inclusive), or a single integer; an error names `flag`."""
    bad = ValueError(f"{flag}: bad range {text!r}")
    try:
        parts = [int(part) for part in text.split(":")]
    except ValueError:
        raise bad from None
    if len(parts) == 1:
        return parts
    lo, hi, step = (parts + [1])[:3]
    if len(parts) > 3 or step < 1 or hi < lo:
        raise bad
    return list(range(lo, hi + 1, step))


def _worker_count(text: str) -> int:
    """--workers: an integer >= 1; argparse reports anything else as a flag error naming the flag."""
    try:
        return symbols._int_arg(int(text), "workers", 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}") from None


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_alphabet(args: argparse.Namespace) -> int:
    params = symbols.AlphabetParams(q=args.q, M=args.M)
    out = {
        "Q": symbols.alphabet_size(params),
        "R": symbols.restricted_symbol_count(params, 1),  # the same for every excluded base
    }
    print(json.dumps(out))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    params = rll.RllParams(Q=args.Q, R=args.R, ell=args.ell, n=args.n)
    count = rll.count_rll_brute(params) if args.brute else rll.count_rll_exact(params)
    print(count)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    ells, ns = _parse_range(args.ell_range, "--ell-range"), _parse_range(args.n_range, "--n-range")
    # Every row is computed before any is printed, so a bad point prints no table.
    print("\n".join([rll.SWEEP_CSV_HEADER, *rll.sweep_csv_rows(args.Q, args.R, ells, ns)]))
    return 0


def _cmd_optimal_ell(args: argparse.Namespace) -> int:
    opt = marker.optimal_marker_length(args.q, args.M, args.n)
    out = {
        "ell_formula": opt.ell_formula,
        "ell_integer": opt.ell_integer,
        "redundancy_closed_form": opt.redundancy_at_optimum,
        "redundancy_at_integer": opt.redundancy_at_integer,
    }
    print(json.dumps(out))
    return 0


def _code_params(args: argparse.Namespace, q: int, M: int, n: int) -> marker.MarkerCodeParams:
    return marker.MarkerCodeParams(
        alphabet=symbols.AlphabetParams(q=q, M=M),
        n=n,
        ell=args.ell,
        marker_base=args.marker_base,
        anchor_base=args.anchor_base,
    )


def _cmd_encode(args: argparse.Namespace) -> int:
    message = symbols.json_value(json.loads(_read_input(args.message)), "array", "message")
    digits = [symbols.json_value(x, "integer", f"message entry {i}") for i, x in enumerate(message, start=1)]
    params = _code_params(args, args.q, args.M, args.n)
    matrix = marker.construct_codeword(digits, params)
    print(matrix.to_json())
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    matrix = symbols.CompositeMatrix.from_json(_read_input(args.matrix))
    params = _code_params(args, matrix.params.q, matrix.params.M, matrix.n)
    print(json.dumps(marker.decode_matrix(matrix, params)))
    return 0


def _env_seed() -> Optional[int]:
    text = os.environ.get(SEED_ENV_VAR)
    try:
        return None if text is None else int(text)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from None


def _load_config(entry: object, args: argparse.Namespace, env_seed: Optional[int]) -> channel.ChannelConfig:
    """A config entry's config; --seed overrides its seed, which overrides `env_seed` ($COMPODNA_SEED)."""
    if args.seed is not None:
        entry = dict(symbols.json_value(entry, "object", "config"), seed=args.seed)
    return channel.ChannelConfig.from_json_dict(entry, default_seed=env_seed)


SIMULATE_CSV_HEADER = (
    "seed,q,M,n,ell,marker_base,anchor_base,strand_count,break_kind,break_param,"
    "bond_lo,bond_hi,sample_size,with_replacement,fragments_sampled,"
    "discarded_fraction,marker_only_fraction,coverage_min,coverage_mean,"
    "symbol_error_count,exact_recovery"
)


def _simulate_csv_row(config: channel.ChannelConfig, report: channel.ExperimentReport) -> str:
    cp = config.code_params
    model = channel.break_model_to_json_dict(config.break_model)
    lo, hi = model.get("bond_range", (None, None))
    return symbols.csv_row((
        config.seed, cp.q, cp.M, cp.n, cp.ell, cp.marker_base, cp.anchor_base, config.strand_count, model["kind"],
        model.get("p", model.get("t")), lo, hi, config.sample_size, config.with_replacement, report.fragments_sampled,
        report.discarded_fraction, report.marker_only_fraction, report.coverage_min, report.coverage_mean,
        report.symbol_error_count, report.exact_recovery,
    ))


def _cmd_simulate(args: argparse.Namespace) -> int:
    obj = json.loads(_read_input(args.config))
    env_seed = _env_seed()
    if not args.sweep:
        report = channel.run_experiment(_load_config(obj, args, env_seed), workers=args.workers)
        print(report.to_json())
        return 0
    symbols.json_value(obj, "array", "a --sweep config file")
    # A config that fails to load or to run is reported and skipped; the
    # sweep still runs the rest.
    print(SIMULATE_CSV_HEADER)
    failed = 0
    for index, entry in enumerate(obj):
        try:
            config = _load_config(entry, args, env_seed)
            report = channel.run_experiment(config, workers=args.workers)
        except (ValueError, MemoryError) as exc:
            print(f"error: config {index}: {exc}", file=sys.stderr)
            failed += 1
            continue
        print(_simulate_csv_row(config, report))
    return 1 if failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.grid == "small":
        qs, max_ell, max_n = (2, 3), 3, 8
        window_qs, window_max_ell = (2, 3, 4), 3
        points = 10
    else:
        qs, max_ell, max_n = (2, 3, 4), 4, 12
        window_qs, window_max_ell = (2, 3, 4, 5, 6), 5
        points = 20

    oracle_checked = oracle_failed = 0
    for Q in qs:
        for R in range(Q):
            for ell in range(1, max_ell + 1):
                for n in range(max_n + 1):
                    params = rll.RllParams(Q=Q, R=R, ell=ell, n=n)
                    oracle_checked += 1
                    if rll.count_rll_exact(params) != rll.count_rll_brute(params):
                        oracle_failed += 1

    window_checked = window_failed = decomp_failed = 0
    for Q in window_qs:
        for R in range(Q):
            for ell in range(1, window_max_ell + 1):
                window_checked += 1
                closed = rll.window_count_closed_form(Q, R, ell)
                if closed != rll.count_rll_exact(rll.RllParams(Q=Q, R=R, ell=ell, n=2 * ell)):
                    window_failed += 1
                blocks = sum(
                    rll.forbidden_block_count(j, k, Q, R, ell)
                    for j in range(1, ell + 2)
                    for k in range(ell, 2 * ell - j + 2)
                )
                if Q ** (2 * ell) - blocks != closed:
                    decomp_failed += 1

    summation_failed = rll.verify_summation_identities_grid(points=points)

    failed = oracle_failed + window_failed + decomp_failed + summation_failed
    out = {
        "oracle_equivalence": {"checked": oracle_checked, "failed": oracle_failed},
        "window_identity": {"checked": window_checked, "failed": window_failed},
        "decomposition_identity": {"checked": window_checked, "failed": decomp_failed},
        "summation_identities": {"checked": points, "failed": summation_failed},
        "passed": failed == 0,
    }
    print(json.dumps(out, indent=2))
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="compodna", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alphabet", help="composite alphabet size Q and restricted count R")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.set_defaults(func=_cmd_alphabet)

    p = sub.add_parser("count", help="exact run-length-limited sequence count")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--brute", action="store_true", help="use the exhaustive oracle instead of the exact count")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("bounds", help="redundancy bound table as CSV")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--ell-range", required=True, dest="ell_range", help="lo:hi[:step] or single value")
    p.add_argument("--n-range", required=True, dest="n_range", help="lo:hi[:step] or single value")
    p.set_defaults(func=_cmd_bounds)

    # Flags that several commands share, each written once.
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--q", type=int, required=True)
    size.add_argument("--M", type=int, required=True)
    size.add_argument("--n", type=int, required=True)
    code = argparse.ArgumentParser(add_help=False)
    code.add_argument("--ell", type=int, required=True)
    code.add_argument("--marker-base", type=int, default=marker.MarkerCodeParams.marker_base, dest="marker_base")
    code.add_argument("--anchor-base", type=int, default=marker.MarkerCodeParams.anchor_base, dest="anchor_base")

    p = sub.add_parser("optimal-ell", parents=[size], help="redundancy-minimizing marker length")
    p.set_defaults(func=_cmd_optimal_ell)

    p = sub.add_parser("encode", parents=[size, code], help="message JSON -> codeword matrix JSON")
    p.add_argument("--message", default="-", help="path to message JSON array, or - for stdin")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", parents=[code], help="codeword matrix JSON -> message JSON")
    p.add_argument("--matrix", default="-", help="path to matrix JSON, or - for stdin")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="run channel experiment(s) from a config JSON")
    p.add_argument("--config", required=True, help="path to config JSON, or - for stdin")
    p.add_argument("--sweep", action="store_true", help="config holds an array; emit CSV")
    p.add_argument("--seed", type=int, default=None, help=f"override config seed (also {SEED_ENV_VAR})")
    p.add_argument("--workers", type=_worker_count, default=1, help="at least 1; no effect on output")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="oracle-equivalence and identity suites")
    p.add_argument("--grid", choices=("small", "full"), default="full")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact counts run to tens of thousands of digits, past the interpreter's
    # int-to-str limit (Python >= 3.10.7); lift it while a command runs.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, OSError, RecursionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())

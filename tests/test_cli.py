"""Command-line interface behavior and output formats."""

import contextlib
import copy
import io
import json
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from compodna import (
    AlphabetParams,
    ChannelConfig,
    CompositeMatrix,
    MarkerCodeParams,
    RllParams,
    count_rll_exact,
    message_radices,
    optimal_marker_length,
    run_experiment,
)
from compodna import channel
from compodna.cli import SIMULATE_CSV_HEADER, main
from compodna.rll import SWEEP_CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE_CONFIG = {
    "code_params": {"q": 4, "M": 6, "n": 40, "ell": 3, "marker_base": 1, "anchor_base": 2},
    "strand_count": 300,
    "break_model": {"kind": "exactly_t", "t": 1, "bond_range": [5, 35]},
    "sample_size": None,
    "with_replacement": False,
    "seed": 11,
}


class TestAlphabet:
    def test_dna_example(self, capsys):
        code, out, _ = run_cli(capsys, "alphabet", "--q", "4", "--M", "6")
        assert code == 0
        assert json.loads(out) == {"Q": 84, "R": 56}

    def test_default_excluded_base(self, capsys):
        # R is counted with base 1 excluded; it is the same for every base.
        code, out, _ = run_cli(capsys, "alphabet", "--q", "2", "--M", "5")
        assert code == 0
        assert json.loads(out) == {"Q": 6, "R": 5}

    def test_invalid_base_is_stage_error(self, capsys):
        # a base alphabet of one base
        code, _, err = run_cli(capsys, "alphabet", "--q", "1", "--M", "6")
        assert code == 1
        assert err.startswith("error: ") and "base alphabet size" in err

    def test_excluded_base_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["alphabet", "--q", "4", "--M", "6", "--excluded-base", "1"])
        assert exc.value.code == 2


class TestCount:
    def test_example(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--Q", "2", "--R", "1", "--ell", "2", "--n", "8")
        assert code == 0
        assert out.strip() == "55"

    def test_brute_agrees_with_dp(self, capsys):
        for Q, R, ell, n in [(2, 1, 2, 8), (3, 2, 3, 10), (4, 1, 1, 6)]:
            args = ["count", "--Q", str(Q), "--R", str(R), "--ell", str(ell), "--n", str(n)]
            _, dp_out, _ = run_cli(capsys, *args)
            _, brute_out, _ = run_cli(capsys, *args, "--brute")
            assert dp_out == brute_out

    def test_brute_too_large_is_stage_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "--Q", "2", "--R", "1", "--ell", "2", "--n", "30", "--brute")
        assert code == 1
        assert "error" in err

    def test_count_past_int_str_digit_limit(self, capsys):
        # 9609 digits: past the interpreter's default 4300-digit int-to-str limit.
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, out, err = run_cli(capsys, "count", "--Q", "84", "--R", "56", "--ell", "10", "--n", "5000")
        assert code == 0, err
        digits = out.strip()
        assert len(digits) == 9609
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit
            sys.set_int_max_str_digits(0)
        try:
            assert digits == str(count_rll_exact(RllParams(Q=84, R=56, ell=10, n=5000)))
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


class TestBounds:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--Q", "84", "--R", "56", "--ell-range", "2:4", "--n-range", "20:40:10"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + 3 * 3
        first = lines[1].split(",")
        assert first[:4] == ["84", "56", "2", "20"]
        int(first[4])
        float(first[5])

    def test_single_point_ranges(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--Q", "2", "--R", "1", "--ell-range", "2", "--n-range", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[4] == "55"

    def test_range_with_four_fields_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--Q", "2", "--R", "1", "--ell-range", "1:3:1:9", "--n-range", "8"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "1:3:1:9" in err

    @pytest.mark.parametrize("flag", ["--ell-range", "--n-range"])
    @pytest.mark.parametrize("text", ["abc", "1:x", "1:3:"])
    def test_malformed_range_names_its_flag(self, capsys, flag, text):
        ranges = {"--ell-range": "2", "--n-range": "8", flag: text}
        code, out, err = run_cli(capsys, "bounds", "--Q", "2", "--R", "1", *(x for pair in ranges.items() for x in pair))
        assert code == 1
        assert out == ""
        assert err == f"error: {flag}: bad range {text!r}\n"

    def test_rows_past_int_str_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, out, err = run_cli(
            capsys, "bounds", "--Q", "84", "--R", "56", "--ell-range", "10", "--n-range", "5000"
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert len(lines[1].split(",")[4]) == 9609
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit


class TestOptimalEll:
    def test_dna_n100(self, capsys):
        code, out, _ = run_cli(capsys, "optimal-ell", "--q", "4", "--M", "6", "--n", "100")
        assert code == 0
        obj = json.loads(out)
        assert obj["ell_integer"] == 3
        assert obj["ell_formula"] == pytest.approx(3.449855845460932, abs=1e-9)
        assert obj["redundancy_closed_form"] == pytest.approx(17.303527325407853, abs=1e-9)
        assert obj["redundancy_at_integer"] == pytest.approx(17.4384408465381, abs=1e-9)

    @pytest.mark.parametrize("q, M, n", [(4, 6, 9), (4, 6, 500), (2, 1, 57), (3, 2, 1000)])
    def test_prints_the_library_optimum(self, capsys, q, M, n):
        code, out, _ = run_cli(capsys, "optimal-ell", "--q", str(q), "--M", str(M), "--n", str(n))
        assert code == 0
        opt = optimal_marker_length(q, M, n)
        assert json.loads(out) == {
            "ell_formula": opt.ell_formula,
            "ell_integer": opt.ell_integer,
            "redundancy_closed_form": opt.redundancy_at_optimum,
            "redundancy_at_integer": opt.redundancy_at_integer,
        }


class TestEncodeDecode:
    def test_roundtrip_via_files(self, capsys, tmp_path):
        params = MarkerCodeParams(alphabet=AlphabetParams(q=4, M=6), n=40, ell=3)
        rng = random.Random(2)
        message = [rng.randrange(r) for r in message_radices(params)]
        msg_path = tmp_path / "message.json"
        msg_path.write_text(json.dumps(message))
        code, matrix_json, _ = run_cli(
            capsys, "encode", "--q", "4", "--M", "6", "--n", "40", "--ell", "3",
            "--message", str(msg_path),
        )
        assert code == 0
        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text(matrix_json)
        code, decoded, _ = run_cli(capsys, "decode", "--ell", "3", "--matrix", str(matrix_path))
        assert code == 0
        assert json.loads(decoded) == message

    def test_encode_rejects_radix_violation(self, capsys, tmp_path):
        msg_path = tmp_path / "message.json"
        msg_path.write_text(json.dumps([84] + [0] * 29))  # column 6 is free, radix 84
        code, _, err = run_cli(
            capsys, "encode", "--q", "4", "--M", "6", "--n", "40", "--ell", "3",
            "--message", str(msg_path),
        )
        assert code == 1
        assert "radix" in err

    def test_decode_rejects_tampered_matrix(self, capsys, tmp_path):
        msg_path = tmp_path / "message.json"
        msg_path.write_text(json.dumps([0] * 30))
        _, matrix_json, _ = run_cli(
            capsys, "encode", "--q", "4", "--M", "6", "--n", "40", "--ell", "3",
            "--message", str(msg_path),
        )
        obj = json.loads(matrix_json)
        obj["columns"][1] = [0, 6, 0, 0]  # overwrite a marker-interior column
        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "decode", "--ell", "3", "--matrix", str(matrix_path))
        assert code == 1
        assert "column 2" in err

    @pytest.mark.parametrize(
        "message, where",
        [
            ([3.9, 0, 2], "message entry 1 must be an integer, got 3.9"),
            ([3, 0, True], "message entry 3 must be an integer, got true"),
            (5, "message must be an array, got 5"),
        ],
        ids=["float", "bool", "not-an-array"],
    )
    def test_encode_rejects_non_integer_entries(self, capsys, tmp_path, message, where):
        msg_path = tmp_path / "message.json"
        msg_path.write_text(json.dumps(message))
        code, out, err = run_cli(
            capsys, "encode", "--q", "2", "--M", "3", "--n", "13", "--ell", "3", "--message", str(msg_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and where in err

    def test_decode_rejects_non_integer_count(self, capsys, tmp_path):
        msg_path = tmp_path / "message.json"
        msg_path.write_text(json.dumps([3, 0, 2]))
        _, matrix_json, _ = run_cli(
            capsys, "encode", "--q", "2", "--M", "3", "--n", "13", "--ell", "3", "--message", str(msg_path)
        )
        obj = json.loads(matrix_json)
        obj["columns"][5] = [0.9, 3]  # the first data column; int() would read it as [0, 3]
        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "decode", "--ell", "3", "--matrix", str(matrix_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "column 6 entry 1 must be an integer, got 0.9" in err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[1, 2]", "matrix must be an object, got [1, 2]"),
            ('{"q": 2, "M": 3, "columns": [[3, 0], 3]}', "column 2 must be an array, got 3"),
            ('{"q": 2, "M": 3}', "missing key 'columns' in matrix"),
        ],
        ids=["array-matrix", "int-column", "no-columns"],
    )
    def test_decode_rejects_malformed_matrix(self, capsys, tmp_path, text, where):
        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text(text)
        code, out, err = run_cli(capsys, "decode", "--ell", "3", "--matrix", str(matrix_path))
        assert code == 1
        assert out == ""
        assert err == f"error: {where}\n"


class TestSimulate:
    def _write_config(self, tmp_path, **overrides):
        config = dict(BASE_CONFIG, **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_single_run_report(self, capsys, tmp_path):
        # The CLI prints the library's report; whether one seed recovers exactly is
        # chance, so the recovery rate is checked over many seeds below.
        path = self._write_config(tmp_path)
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        assert out == run_experiment(ChannelConfig.from_json_dict(BASE_CONFIG)).to_json() + "\n"
        assert json.loads(out)["fragments_sampled"] == 600

    def test_recovery_rate(self):
        # Measured: about 387 of 400 seeds recover exactly (rate 0.967), so 200 seeds
        # give 193.5 on average with sd 2.5; 180 is more than 5 sd below that.
        exact = sum(run_experiment(ChannelConfig.from_json_dict(dict(BASE_CONFIG, seed=seed))).exact_recovery
                    for seed in range(200))
        assert exact >= 180

    def test_resolution_past_two_to_the_32_is_one_error_line(self, capsys, tmp_path):
        path = self._write_config(tmp_path, code_params={"q": 2, "M": 2**33, "n": 40, "ell": 3})
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1 and out == ""
        assert err == "error: synthesis draws base-M slots from 32 bits, so M must be <= 2^32, got M=8589934592\n"

    def test_radix_past_two_to_the_63_fails_at_load(self, capsys, tmp_path, monkeypatch):
        # q = 4, M = 2^31: M fits synthesis, but free-column radices C(M + 3, 3) pass 2^63.
        params = MarkerCodeParams(alphabet=AlphabetParams(q=4, M=2**31), n=40, ell=3)
        message = f"message draw needs radices <= 2^63, but column 6 has radix {message_radices(params)[0]}"
        big = dict(BASE_CONFIG, code_params={"q": 4, "M": 2**31, "n": 40, "ell": 3})
        drawn = channel.random_message

        def draw(params, seed):
            assert params.M == 6, "the config loaded and its message draw ran"
            return drawn(params, seed)

        monkeypatch.setattr(channel, "random_message", draw)
        path = self._write_config(tmp_path, **big)
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        path.write_text(json.dumps([big, BASE_CONFIG]))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--sweep")
        assert code == 1 and err == f"error: config 0: {message}\n"
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == [str(BASE_CONFIG["seed"])]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        path = self._write_config(tmp_path)
        _, first, _ = run_cli(capsys, "simulate", "--config", str(path))
        _, second, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert first == second

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        path = self._write_config(tmp_path)
        _, base, _ = run_cli(capsys, "simulate", "--config", str(path))
        _, overridden, _ = run_cli(capsys, "simulate", "--config", str(path), "--seed", "12")
        _, again, _ = run_cli(capsys, "simulate", "--config", str(path), "--seed", "12")
        assert overridden != base
        assert overridden == again

    def test_env_var_supplies_missing_seed(self, capsys, tmp_path, monkeypatch):
        config = dict(BASE_CONFIG)
        del config["seed"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1 and "seed" in err
        monkeypatch.setenv("COMPODNA_SEED", "11")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        _, explicit, _ = run_cli(capsys, "simulate", "--config", str(self._write_config(tmp_path)))
        assert out == explicit

    def test_malformed_env_seed_is_one_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COMPODNA_SEED", "abc")
        code, out, err = run_cli(capsys, "simulate", "--config", str(self._write_config(tmp_path)))
        assert code == 1 and out == ""
        assert err == "error: COMPODNA_SEED must be an integer, got 'abc'\n"
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps([dict(BASE_CONFIG, seed=s) for s in (1, 2, 3)]))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--sweep")
        assert code == 1 and out == ""
        assert err == "error: COMPODNA_SEED must be an integer, got 'abc'\n"

    def test_sweep_csv(self, capsys, tmp_path):
        configs = [dict(BASE_CONFIG, seed=s) for s in (1, 2)]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(configs))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--sweep")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == SIMULATE_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "1"
        assert lines[2].split(",")[0] == "2"
        assert lines[1].split(",")[-1] in ("true", "false")

    def test_sweep_row_layout(self, capsys, tmp_path):
        # Every row has the header's cells; config cells read the config back,
        # empty where a value is missing, and report cells read the report back.
        configs = [
            dict(BASE_CONFIG, seed=1, break_model={"kind": "per_bond", "p": 0.01}),
            dict(BASE_CONFIG, seed=2),
            dict(BASE_CONFIG, seed=3, break_model={"kind": "exactly_t", "t": 1}),
            dict(BASE_CONFIG, seed=4, break_model={"kind": "at_most_t", "t": 2}, sample_size=250),
            dict(BASE_CONFIG, seed=5, sample_size=700, with_replacement=True),
        ]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(configs))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--sweep")
        assert code == 0
        header, *rows = out.splitlines()
        assert len(rows) == len(configs)
        for config, row in zip(configs, rows):
            cells = dict(zip(header.split(","), row.split(",")))
            assert len(row.split(",")) == len(SIMULATE_CSV_HEADER.split(","))
            model = config["break_model"]
            lo, hi = model.get("bond_range", ("", ""))
            assert cells["seed"] == str(config["seed"])
            assert [cells[key] for key in config["code_params"]] == [str(v) for v in config["code_params"].values()]
            assert cells["break_kind"] == model["kind"]
            assert float(cells["break_param"]) == model.get("p", model.get("t"))
            assert (cells["bond_lo"], cells["bond_hi"]) == (str(lo), str(hi))
            assert cells["sample_size"] == ("" if config["sample_size"] is None else str(config["sample_size"]))
            assert cells["with_replacement"] == ("true" if config["with_replacement"] else "false")
            _, report, _ = run_cli(capsys, "simulate", "--config", str(self._write_config(tmp_path, **config)))
            for key, value in json.loads(report).items():
                if key != "estimated_matrix":
                    assert cells[key] == (str(value).lower() if isinstance(value, bool) else f"{value:.12g}")

    def test_sweep_runs_every_config(self, capsys, tmp_path):
        # The middle config samples one fragment of a once-broken strand, so
        # some column has no coverage; the configs either side still run.
        configs = [dict(BASE_CONFIG, seed=1), dict(BASE_CONFIG, seed=2, sample_size=1), dict(BASE_CONFIG, seed=3)]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(configs))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--sweep")
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == SIMULATE_CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "3"]
        assert err.startswith("error: config 1: ") and "coverage" in err
        assert len(err.strip().splitlines()) == 1

    def test_sweep_reports_a_config_that_fails_to_load(self, capsys, tmp_path):
        # A typo in the middle config skips it, like a config that fails to run.
        configs = [dict(BASE_CONFIG, seed=1), dict(BASE_CONFIG, seed=2, sample_sise=10), dict(BASE_CONFIG, seed=3)]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(configs))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--sweep")
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == SIMULATE_CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "3"]
        assert err.startswith("error: config 1: ") and "sample_sise" in err
        assert len(err.strip().splitlines()) == 1

    def test_sweep_rejects_seeds_outside_64_bits(self, capsys, tmp_path):
        # Reduced modulo 2^64, -1 would alias 2^64 - 1 and 2^64 would alias 0.
        configs = [dict(BASE_CONFIG, seed=seed) for seed in (-1, 2**64 - 1, 2**64)]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(configs))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--sweep")
        assert code == 1
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == [str(2**64 - 1)]
        assert err.splitlines() == [
            "error: config 0: seed -1 outside [0, 2^64)",
            f"error: config 2: seed {2**64} outside [0, 2^64)",
        ]

    def test_oversized_p_is_an_error_line(self, capsys, tmp_path):
        # 10**400 has no float; the range check must come before float().
        config = dict(BASE_CONFIG, break_model={"kind": "per_bond", "p": 10**400})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: bond break probability must be in [0, 1], got 1000")
        assert len(err.splitlines()) == 1

    def test_sweep_runs_past_an_oversized_p(self, capsys, tmp_path):
        configs = [dict(BASE_CONFIG, seed=1, break_model={"kind": "per_bond", "p": 10**400}), dict(BASE_CONFIG, seed=2)]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(configs))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--sweep")
        assert code == 1
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["2"]
        assert err.startswith("error: config 0: bond break probability must be in [0, 1]")
        assert len(err.splitlines()) == 1

    def test_an_allocation_past_any_address_space_is_an_error_line(self, capsys, tmp_path):
        # 10^15 strands of 100 one-byte bases are about 89 PiB: the allocation is refused at
        # once, and the sweep runs the next config.
        huge = dict(BASE_CONFIG, code_params=dict(BASE_CONFIG["code_params"], n=100), strand_count=10**15, seed=1)
        path = self._write_config(tmp_path, **huge)
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        path.write_text(json.dumps([huge, dict(BASE_CONFIG, seed=2)]))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--sweep")
        assert code == 1
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["2"]
        assert err.startswith("error: config 0: ") and len(err.splitlines()) == 1

    def test_huge_p_error_names_the_range_briefly(self, capsys, tmp_path):
        # 10**5000 is past the 4300-digit int-to-str limit of this process.
        path = tmp_path / "config.json"
        config = dict(BASE_CONFIG, break_model={"kind": "per_bond", "p": "P"})
        path.write_text(json.dumps(config).replace('"P"', "1" + "0" * 5000))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: bond break probability must be in [0, 1], got 1000000000")
        assert len(err) < 200

    def test_huge_mistyped_field_error_is_short(self, capsys, tmp_path):
        # A huge integer where an object belongs, top level and inside an array.
        for field in ('"code_params": P', '"code_params": [[P]]'):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(dict(BASE_CONFIG, code_params="C")).replace('"code_params": "C"', field)
                            .replace("P", "1" + "0" * 5000))
            code, out, err = run_cli(capsys, "simulate", "--config", str(path))
            assert code == 1 and out == ""
            assert err.startswith("error: config.code_params must be an object, got ") and "(5001 digits)" in err
            assert len(err) < 200

    def test_sweep_requires_array(self, capsys, tmp_path):
        path = self._write_config(tmp_path)
        code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--sweep")
        assert code == 1
        assert "array" in err

    def test_stage_error_exit_code(self, capsys, tmp_path):
        path = self._write_config(tmp_path, sample_size=100_000)  # pool is far smaller
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert "error" in err

    def test_config_typo_exit_code(self, capsys, tmp_path):
        path = self._write_config(tmp_path, sample_sise=10)
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "sample_sise" in err

    def test_mistyped_config_exit_code(self, capsys, tmp_path):
        path = self._write_config(tmp_path, strand_count=None)
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "strand_count" in err

    def test_workers_flag_preserves_output(self, capsys, tmp_path):
        path = self._write_config(tmp_path)
        _, serial, _ = run_cli(capsys, "simulate", "--config", str(path))
        _, parallel, _ = run_cli(capsys, "simulate", "--config", str(path), "--workers", "4")
        assert serial == parallel


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _json_paths(doc, path=()):
    """The path of every value in a JSON document, the document itself first."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _encode(message):
    """`compodna encode` on a message; main turns a ValueError into exit 1."""
    stdin = io.StringIO(json.dumps(message))
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["encode", "--q", "2", "--M", "3", "--n", "13", "--ell", "3", "--message", "-"]) in (0, 1)


class TestJsonInputs:
    # A valid config, matrix and message, and how each is read.
    INPUTS = {
        "config": (BASE_CONFIG, ChannelConfig.from_json_dict),
        "matrix": (
            {"q": 2, "M": 3, "columns": [[3, 0], [0, 3], [0, 3], [0, 3], [3, 0], [3, 0], [3, 0], [2, 1]]},
            lambda doc: CompositeMatrix.from_json(json.dumps(doc)),
        ),
        "message": ([3, 0, 2], _encode),
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_replaced_field_loads_or_is_a_value_error(self, name, data):
        # Never a TypeError, KeyError or AttributeError, whatever the shape.
        doc, load = self.INPUTS[name]
        path = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
        try:
            load(_replaced(doc, path, data.draw(JSON_VALUES, label="value")))
        except ValueError:
            pass


@pytest.mark.parametrize("argv", [
    ["encode", "--q", "2", "--M", "3", "--n", "13", "--ell", "3", "--message", "-"],
    ["decode", "--ell", "3", "--matrix", "-"],
    ["simulate", "--config", "-"],
])
def test_deeply_nested_input_is_an_error_line(capsys, argv):
    # json.loads raises RecursionError, not ValueError, past its nesting limit.
    with mock.patch.object(sys, "stdin", io.StringIO("[" * 100_000)):
        code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["bounds", "--Q", "1", "--R", "0", "--ell-range", "1", "--n-range", "5"],
    ["count", "--Q", "1", "--R", "0", "--ell", "1", "--n", "5"],
])
def test_alphabet_of_one_is_an_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: alphabet size Q must be >= 2, got 1\n"


class TestVerify:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--grid", "small")
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert obj["oracle_equivalence"]["failed"] == 0
        assert obj["summation_identities"]["failed"] == 0


class TestFlagErrors:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--Q", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_exits_2(self, capsys, tmp_path, workers):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(BASE_CONFIG))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(path), "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["abc", "1.5", ""])
    def test_workers_not_an_integer_exits_2(self, capsys, tmp_path, workers):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(BASE_CONFIG))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(path), "--workers", workers])
        assert exc.value.code == 2
        assert f"argument --workers: must be an integer >= 1, got {workers!r}" in capsys.readouterr().err

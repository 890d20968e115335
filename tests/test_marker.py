"""Marker code construction, validation, optima, and fragment classification."""

import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compodna import (
    AlphabetParams,
    ChannelConfig,
    CompositeMatrix,
    FragmentClass,
    InvalidCodewordError,
    MarkerCodeParams,
    PerBond,
    alphabet_size,
    asymptotic_optimal_ell,
    classify_fragment,
    code_redundancy_formula,
    construct_codeword,
    continuous_redundancy,
    decode_matrix,
    estimate_matrix,
    is_valid_codeword,
    layout,
    measured_code_redundancy,
    message_radices,
    optimal_marker_length,
    random_message,
    restricted_symbol_count,
    run_experiment,
    synthesize,
)
from compodna import marker
from compodna.marker import _check_radices

DNA = AlphabetParams(q=4, M=6)
LAMBDA_DNA = math.log(3) / math.log(84)  # log_Q(Q/(Q-R)) at (q=4, M=6)


def marker_params(n=100, ell=3, **kw):
    return MarkerCodeParams(alphabet=DNA, n=n, ell=ell, **kw)


@st.composite
def params_and_message(draw):
    q = draw(st.integers(2, 4))
    M = draw(st.integers(1, 4))
    ell = draw(st.integers(1, 4))
    n = draw(st.integers(2 * (ell + 2) + 1, 40))
    marker_base = draw(st.integers(1, q))
    anchor_base = draw(st.integers(1, q).filter(lambda b: b != marker_base))
    params = MarkerCodeParams(
        alphabet=AlphabetParams(q=q, M=M), n=n, ell=ell,
        marker_base=marker_base, anchor_base=anchor_base,
    )
    message = [draw(st.integers(0, radix - 1)) for radix in message_radices(params)]
    return params, message


class TestLayout:
    def test_breaker_positions_n100_ell5(self):
        lay = layout(marker_params(n=100, ell=5))
        assert sorted(lay.breaker_positions) == list(range(8, 94, 5))
        assert len(lay.breaker_positions) == 18

    def test_minimal_length_single_data_column(self):
        lay = layout(marker_params(n=9, ell=2))
        assert sorted(lay.marker_positions) == [1, 2, 3, 4, 6, 7, 8, 9]
        assert lay.breaker_positions == frozenset()  # (5+2) mod 2 = 1
        assert lay.free_positions == frozenset({5})

    def test_marker_block_size(self):
        for ell in (1, 2, 3, 5, 8):
            lay = layout(marker_params(n=60, ell=ell))
            assert len(lay.marker_positions) == 2 * (ell + 2)

    @given(params_and_message())
    def test_partition_of_columns(self, pm):
        params, _ = pm
        lay = layout(params)
        all_positions = lay.marker_positions | lay.breaker_positions | lay.free_positions
        assert all_positions == frozenset(range(1, params.n + 1))
        assert not lay.marker_positions & lay.breaker_positions
        assert not lay.marker_positions & lay.free_positions
        assert not lay.breaker_positions & lay.free_positions

    def test_degenerate_window_all_breakers(self):
        params = marker_params(n=20, ell=1)
        lay = layout(params)
        assert lay.free_positions == frozenset()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            MarkerCodeParams(alphabet=DNA, n=8, ell=2)

    @pytest.mark.parametrize("ell", [0, -2])
    def test_ell_below_1_rejected(self, ell):
        with pytest.raises(ValueError, match=rf"^marker run length ell must be >= 1, got {ell}$"):
            MarkerCodeParams(alphabet=DNA, n=30, ell=ell)

    def test_base_constraints(self):
        with pytest.raises(ValueError):
            MarkerCodeParams(alphabet=DNA, n=30, ell=3, marker_base=1, anchor_base=1)
        with pytest.raises(ValueError):
            MarkerCodeParams(alphabet=DNA, n=30, ell=3, marker_base=5)

    def test_a_layout_is_freed_with_its_params(self):
        # Each layout at q = 32,767 holds a mask of 3.3 to 3.9 M cells. Only its params object
        # holds it, so each of the 20 is freed with the params it was built for.
        alphabet = AlphabetParams(q=32767, M=1)
        tracemalloc.start()
        try:
            for n in range(100, 120):
                assert layout(MarkerCodeParams(alphabet=alphabet, n=n, ell=3)).allowed.shape == (32767, n)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 8 << 20

    @pytest.mark.parametrize("q, m, n", [(4, 6, 100), (2048, 1, 40)])  # sim-short's shape; past 2^16 cells
    def test_one_build_a_params_object(self, monkeypatch, q, m, n):
        # A params object builds its layout on first use and holds it; an equal object builds its own.
        built, calls = marker._build_layout, []
        monkeypatch.setattr(marker, "_build_layout", lambda params: calls.append(params) or built(params))
        objects = [MarkerCodeParams(alphabet=AlphabetParams(q=q, M=m), n=n, ell=3) for _ in range(2)]
        for params in objects:
            message = random_message(params, 1)
            codeword = construct_codeword(message, params)
            assert is_valid_codeword(codeword, params)
            assert decode_matrix(codeword, params) == message
            assert estimate_matrix(np.array(codeword.counts), params) == codeword
            run_experiment(ChannelConfig(params, 200, PerBond(0.01), None, False, 1))
        assert list(map(id, calls)) == list(map(id, objects))


class TestConstruct:
    def test_marker_block_base_pattern(self):
        # columns 1..5 carry bases C,A,A,A,C at full weight for ell=3
        params = marker_params(n=30, ell=3)
        cw = construct_codeword([0] * len(message_radices(params)), params)
        want = [(0, 6, 0, 0), (6, 0, 0, 0), (6, 0, 0, 0), (6, 0, 0, 0), (0, 6, 0, 0)]
        assert [c.counts for c in cw.columns[:5]] == want
        assert [c.counts for c in cw.columns[-5:]] == want

    def test_zero_message_uses_first_symbols(self):
        params = marker_params(n=30, ell=3)
        lay = layout(params)
        cw = construct_codeword([0] * len(message_radices(params)), params)
        for j in lay.free_positions:
            assert cw.columns[j - 1].counts == (0, 0, 0, 6)  # colex-first of the full alphabet
        for j in lay.breaker_positions:
            assert cw.columns[j - 1].counts == (0, 0, 0, 6)  # colex-first with marker base zeroed

    def test_breaker_columns_avoid_marker_base(self):
        params = marker_params(n=40, ell=3)
        radices = message_radices(params)
        rng = random.Random(5)
        cw = construct_codeword([rng.randrange(r) for r in radices], params)
        for j in layout(params).breaker_positions:
            assert cw.columns[j - 1].counts[params.marker_base - 1] == 0

    def test_message_radices(self):
        params = marker_params(n=40, ell=3)
        lay = layout(params)
        radices = message_radices(params)
        data = lay.data_positions()
        assert len(radices) == len(data)
        for j, radix in zip(data, radices):
            assert radix == (28 if j in lay.breaker_positions else 84)

    def test_radix_violation_rejected(self):
        params = marker_params(n=30, ell=3)
        radices = message_radices(params)
        message = [0] * len(radices)
        message[0] = radices[0]  # one past the top
        with pytest.raises(ValueError, match="radix"):
            construct_codeword(message, params)

    @pytest.mark.parametrize("symbol", [1.5, 83.9, 1.0, True, np.float64(1)], ids=repr)
    def test_symbol_that_is_not_an_integer_rejected(self, symbol):
        # Column 6 is free (radix 84): none of these is out of range, so each would be encoded as its floor.
        params = marker_params(n=30, ell=3)
        message = [0] * len(message_radices(params))
        message[0] = symbol
        with pytest.raises(ValueError, match=r"at column 6 is not an integer$"):
            construct_codeword(message, params)

    def test_huge_symbol_named_briefly_with_its_radix(self):
        # Past 4300 digits, str() of the symbol would raise in place of the message.
        params = marker_params(n=30, ell=3)
        message = [0] * len(message_radices(params))
        message[0] = -(10**5000)
        message_re = r"^message symbol -1000000000\.\.\. \(5001 digits\) at column 6 outside radix \[0, 84\)$"
        with pytest.raises(ValueError, match=message_re):
            construct_codeword(message, params)

    def test_huge_radix_named_briefly(self):
        # M = 10^60 puts a free column's radix C(M + 3, 3) past 50 digits.
        params = MarkerCodeParams(alphabet=AlphabetParams(q=4, M=10**60), n=30, ell=3)
        message = [0] * len(message_radices(params))
        message[0] = -1
        message_re = r"^message symbol -1 at column 6 outside radix \[0, 1666666666\.\.\. \(180 digits\)\)$"
        with pytest.raises(ValueError, match=message_re):
            construct_codeword(message, params)

    def test_numpy_integer_symbols_accepted(self):
        params = marker_params(n=30, ell=3)
        message = np.arange(len(message_radices(params))) % 28
        assert construct_codeword(message, params) == construct_codeword(message.tolist(), params)

    def test_length_mismatch_rejected(self):
        params = marker_params(n=30, ell=3)
        with pytest.raises(ValueError, match="message"):
            construct_codeword([0], params)

    def test_thousand_random_roundtrips(self):
        params = marker_params(n=30, ell=3)
        radices = message_radices(params)
        rng = random.Random(12345)
        for _ in range(1000):
            message = [rng.randrange(r) for r in radices]
            assert decode_matrix(construct_codeword(message, params), params) == message

    @given(params_and_message())
    @settings(max_examples=150)
    def test_roundtrip_varied_params(self, pm):
        params, message = pm
        cw = construct_codeword(message, params)
        assert is_valid_codeword(cw, params)
        assert decode_matrix(cw, params) == message

    @given(params_and_message())
    @settings(max_examples=300)
    def test_estimate_recovers_codeword_varied_roles(self, pm):
        # marker, anchor and breaker roles over every base, marker_base = q included
        params, message = pm
        cw = construct_codeword(message, params)
        for k in (1, 7):
            assert estimate_matrix(k * cw.counts, params) == cw

    def test_check_radices_names_the_first_layout_column_past_2_to_the_63(self):
        # Both sides of 2^63: at q = 2 the free radix is M + 1 (a breaker's 1); at q = 3
        # it is C(M + 2, 2), while the breaker radix is M + 1. At ell = 5 the first data
        # column is a breaker, so a free radix past 2^63 is named at the second.
        outcomes = set()
        for q, m in itertools.product((2, 3), (2**32 - 2, 2**32 - 1, 2**63 - 1, 2**63)):
            for ell, extra in itertools.product(range(1, 6), (1, 2, 7)):
                params = MarkerCodeParams(alphabet=AlphabetParams(q=q, M=m), n=2 * (ell + 2) + extra, ell=ell)
                lay = layout(params)
                data = lay.data_positions()
                over = [j for j in data if lay.radices[j - 1] > 1 << 63]
                outcomes.add(tuple((lay.roles[j - 1], j == data[0]) for j in over[:1]))
                if not over:
                    _check_radices(params)
                    continue
                with pytest.raises(ValueError, match=rf"but column {over[0]} has radix {lay.radices[over[0] - 1]}$"):
                    _check_radices(params)
        assert outcomes == {(), (("breaker", True),), (("free", True),), (("free", False),)}

    def test_exhaustive_roundtrip_over_small_message_space(self):
        params = MarkerCodeParams(alphabet=AlphabetParams(q=3, M=2), n=13, ell=2)
        radices = message_radices(params)
        assert math.prod(radices) <= 10_000
        seen = set()
        for combo in itertools.product(*[range(r) for r in radices]):
            message = list(combo)
            cw = construct_codeword(message, params)
            assert decode_matrix(cw, params) == message
            seen.add(tuple(c.counts for c in cw.columns))
        assert len(seen) == math.prod(radices)  # encoding is injective


class TestUnitResolution:
    def test_codeword_at_q_32767_takes_few_binomials(self, monkeypatch):
        # At M = 1 a column's symbol is a unit vector, read off its index. Bisecting q - 1 bars
        # per column took about 4.5 million math.comb calls for this codeword.
        params = MarkerCodeParams(alphabet=AlphabetParams(q=32767, M=1), n=100, ell=3)
        rng = random.Random(7)
        message = [rng.randrange(r) for r in message_radices(params)]
        comb, calls = math.comb, itertools.count()

        def counted(*args):
            next(calls)
            return comb(*args)

        monkeypatch.setattr(math, "comb", counted)
        cw = construct_codeword(message, params)
        monkeypatch.undo()
        assert next(calls) < 1000
        assert decode_matrix(cw, params) == message


class TestHugeResolution:
    """Codewords on both sides of M = 2^63, where counts leave int64 for Python ints."""

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("m", [2**63 - 1, 2**63, 10**30])
    def test_codeword_round_trip(self, q, m):
        params = MarkerCodeParams(alphabet=AlphabetParams(q=q, M=m), n=20, ell=3)
        radices = message_radices(params)
        rng = random.Random(m)
        for message in ([r - 1 for r in radices], [rng.randrange(r) for r in radices]):
            cw = construct_codeword(message, params)
            assert is_valid_codeword(cw, params)
            text = cw.to_json()
            again = CompositeMatrix.from_json(text)
            assert again == cw and again.to_json() == text
            assert decode_matrix(again, params) == message
        tampered = json.loads(text)
        tampered["columns"][1] = [1, m - 1] + [0] * (q - 2)  # marker interior column 2
        bad = CompositeMatrix.from_json(json.dumps(tampered))
        with pytest.raises(InvalidCodewordError, match="^column 2: marker column mismatch"):
            decode_matrix(bad, params)


class TestValidation:
    def _codeword(self, params, seed=0):
        rng = random.Random(seed)
        return construct_codeword([rng.randrange(r) for r in message_radices(params)], params)

    def test_constructed_codewords_valid(self):
        params = marker_params(n=30, ell=3)
        assert is_valid_codeword(self._codeword(params), params)

    def test_uniform_matrix_invalid(self):
        params = MarkerCodeParams(alphabet=AlphabetParams(q=4, M=4), n=30, ell=3)
        matrix = CompositeMatrix(np.ones((4, 30), dtype=np.int64), params.alphabet)
        check = is_valid_codeword(matrix, params)
        assert not check
        assert any("column 1" in v for v in check.violations)

    def test_tampered_marker_column_names_column(self):
        params = marker_params(n=30, ell=3)
        cw = self._codeword(params)
        counts = cw.counts.copy()
        counts[:, 1] = (0, 6, 0, 0)  # marker interior column 2 overwritten
        bad = CompositeMatrix(counts, params.alphabet)
        with pytest.raises(InvalidCodewordError, match="column 2"):
            decode_matrix(bad, params)

    def test_violated_breaker_names_condition_3(self):
        params = marker_params(n=30, ell=3)
        cw = self._codeword(params)
        j = min(layout(params).breaker_positions)
        counts = cw.counts.copy()
        counts[:, j - 1] = (6, 0, 0, 0)  # full weight on the marker base
        bad = CompositeMatrix(counts, params.alphabet)
        check = is_valid_codeword(bad, params)
        assert not check
        assert any("condition 3" in v and f"column {j}" in v for v in check.violations)
        with pytest.raises(InvalidCodewordError, match="condition 3"):
            decode_matrix(bad, params)

    def test_alphabet_mismatch_is_the_one_violation(self):
        params = marker_params(n=30, ell=3)
        other = self._codeword(MarkerCodeParams(alphabet=AlphabetParams(q=4, M=5), n=30, ell=3))
        check = is_valid_codeword(other, params)
        assert not check
        assert check.violations == ("alphabet mismatch: matrix has (q=4, M=5), params expect (q=4, M=6)",)

    def test_dimension_mismatch(self):
        params = marker_params(n=30, ell=3)
        other = self._codeword(marker_params(n=31, ell=3))
        assert not is_valid_codeword(other, params)


class TestRedundancy:
    def test_formula_and_measured_n100_ell5(self):
        params = marker_params(n=100, ell=5)
        assert code_redundancy_formula(params) == pytest.approx(14 + 17 * LAMBDA_DNA, abs=1e-12)
        assert code_redundancy_formula(params) == pytest.approx(18.215116479704925, abs=1e-9)
        assert measured_code_redundancy(params) == pytest.approx(14 + 18 * LAMBDA_DNA, abs=1e-12)
        assert measured_code_redundancy(params) == pytest.approx(18.46306450792286, abs=1e-9)

    def test_breaker_term_vanishes_without_restricted_symbols(self):
        # the breaker term is floor((n - 2(l+2))/l) * log_Q(Q/(Q-R)); at R=0 only 2l+4 is left
        n, ell = 100, 5
        assert 2 * ell + 4 + ((n - 2 * (ell + 2)) // ell) * math.log(84 / 84, 84) == 2 * ell + 4

    @given(params_and_message())
    def test_measured_at_least_marker_cost(self, pm):
        params, _ = pm
        assert measured_code_redundancy(params) >= 2 * params.ell + 4 - 1e-12

    @given(params_and_message())
    def test_measured_within_one_breaker_of_formula(self, pm):
        params, _ = pm
        Q = alphabet_size(params.alphabet)
        R = restricted_symbol_count(params.alphabet, params.marker_base)
        cost = math.log(Q / (Q - R), Q)
        diff = measured_code_redundancy(params) - code_redundancy_formula(params)
        assert -1e-9 <= diff <= cost + 1e-9


class TestOptimalMarkerLength:
    def test_dna_n100(self):
        opt = optimal_marker_length(4, 6, 100)
        assert opt.ell_formula == pytest.approx(math.sqrt(48 * LAMBDA_DNA), abs=1e-12)
        assert opt.ell_formula == pytest.approx(3.449855845460932, abs=1e-9)
        assert opt.ell_integer == 3
        assert code_redundancy_formula(marker_params(n=100, ell=3)) == pytest.approx(
            17.4384408465381, abs=1e-9
        )
        assert opt.redundancy_at_optimum == pytest.approx(
            4 + 2 * math.sqrt(2 * 96 * LAMBDA_DNA) - 2 * LAMBDA_DNA, abs=1e-12
        )

    def test_closed_form_matches_continuous_relaxation(self):
        for n in (50, 100, 500, 1000, 5000):
            opt = optimal_marker_length(4, 6, n)
            assert continuous_redundancy(4, 6, n, opt.ell_formula) == pytest.approx(
                opt.redundancy_at_optimum, abs=1e-9
            )

    def test_integer_scan_achieves_minimum(self):
        for n in (20, 57, 100, 333):
            opt = optimal_marker_length(4, 6, n)
            reds = {
                ell: code_redundancy_formula(marker_params(n=n, ell=ell))
                for ell in range(1, (n - 5) // 2 + 1)
            }
            best = min(reds.values())
            assert reds[opt.ell_integer] == best
            # ties resolve to the smallest ell
            assert opt.ell_integer == min(e for e, r in reds.items() if r == best)

    @pytest.mark.parametrize("q, M", [(2, 1), (2, 3), (3, 2), (4, 6), (5, 10)])
    def test_stopped_scan_equals_the_full_scan(self, q, M):
        # The scan stops once 2 ell + 4 passes the best redundancy; the full scan's
        # minimum over (redundancy, ell) pairs is the oracle, ties to the smaller ell.
        alphabet = AlphabetParams(q=q, M=M)
        for n in [*range(9, 401), *([200_000] if (q, M) == (4, 6) else [])]:
            best = min((code_redundancy_formula(MarkerCodeParams(alphabet=alphabet, n=n, ell=ell)), ell)
                       for ell in range(1, (n - 5) // 2 + 1))
            opt = optimal_marker_length(q, M, n)
            assert (opt.redundancy_at_integer, opt.ell_integer) == best

    def test_redundancy_at_integer_is_the_formula_at_ell_integer(self):
        for n in range(9, 201):
            opt = optimal_marker_length(4, 6, n)
            assert opt.redundancy_at_integer == code_redundancy_formula(marker_params(n=n, ell=opt.ell_integer))

    def test_integer_scan_near_continuous_optimum(self):
        for n in (50, 100, 500, 1000, 5000):
            opt = optimal_marker_length(4, 6, n)
            lo, hi = math.floor(opt.ell_formula), math.ceil(opt.ell_formula)
            assert min(abs(opt.ell_integer - lo), abs(opt.ell_integer - hi)) <= 1

    def test_continuous_relaxation_unimodal(self):
        n = 400
        opt = optimal_marker_length(4, 6, n)
        ells = [opt.ell_formula * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)]
        reds = [continuous_redundancy(4, 6, n, e) for e in ells]
        trough = reds.index(min(reds))
        assert all(reds[i] > reds[i + 1] for i in range(trough))
        assert all(reds[i] < reds[i + 1] for i in range(trough, len(reds) - 1))

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            optimal_marker_length(4, 6, 8)


class TestAsymptoticEll:
    def test_reference_point(self):
        val = asymptotic_optimal_ell(84, 56, 10**6)
        n = 10**6
        assert val == pytest.approx(math.log(n / math.log(n)) / math.log(1.5), abs=1e-12)
        assert val == pytest.approx(27.59724183345321, abs=1e-9)

    def test_grows_without_bound(self):
        prev = 0.0
        for n in (10**3, 10**4, 10**5, 10**6, 10**7):
            cur = asymptotic_optimal_ell(84, 56, n)
            assert cur > prev
            prev = cur

    def test_balances_marker_and_constraint_costs(self):
        # ell* (Q/R)^(ell*) should track n within a constant factor
        for n in (10**3, 10**4, 10**5, 10**6, 10**7):
            ell = asymptotic_optimal_ell(84, 56, n)
            ratio = ell * 1.5**ell / n
            assert 0.1 <= ratio <= 10

    def test_preconditions(self):
        with pytest.raises(ValueError):
            asymptotic_optimal_ell(3, 3, 100)
        with pytest.raises(ValueError):
            asymptotic_optimal_ell(3, 0, 100)
        with pytest.raises(ValueError):
            asymptotic_optimal_ell(3, 1, 2)


class TestClassifyFragment:
    def _strand(self, params, seed=3):
        rng = random.Random(seed)
        cw = construct_codeword([rng.randrange(r) for r in message_radices(params)], params)
        return synthesize(cw, 1, seed=seed)[0]

    def test_full_strand(self):
        params = marker_params(n=40, ell=3)
        assert classify_fragment(self._strand(params), params) is FragmentClass.FULL

    def test_data_break_gives_prefix_and_suffix(self):
        params = marker_params(n=40, ell=3)
        strand = self._strand(params)
        bond = params.ell + 5
        assert classify_fragment(strand[:bond], params) is FragmentClass.PREFIX
        assert classify_fragment(strand[bond:], params) is FragmentClass.SUFFIX

    def test_break_inside_start_marker(self):
        params = marker_params(n=40, ell=3)
        strand = self._strand(params)
        assert classify_fragment(strand[:3], params) is FragmentClass.DISCARD
        assert classify_fragment(strand[3:], params) is FragmentClass.SUFFIX

    def test_marker_only(self):
        params = marker_params(n=40, ell=3)
        assert classify_fragment(params.marker_pattern(), params) is FragmentClass.MARKER_ONLY
        strand = self._strand(params)
        assert classify_fragment(strand[: params.ell + 2], params) is FragmentClass.MARKER_ONLY

    def test_boundary_breaks_yield_marker_only_pieces(self):
        params = marker_params(n=40, ell=3)
        strand = self._strand(params)
        span = params.ell + 2
        assert classify_fragment(strand[:span], params) is FragmentClass.MARKER_ONLY
        assert classify_fragment(strand[span:], params) is FragmentClass.SUFFIX
        assert classify_fragment(strand[: params.n - span], params) is FragmentClass.PREFIX
        assert classify_fragment(strand[params.n - span :], params) is FragmentClass.MARKER_ONLY

    def test_double_marker_short_fragment_ambiguous(self):
        params = marker_params(n=40, ell=3)
        pattern = params.marker_pattern()
        assert classify_fragment(pattern + pattern, params) is FragmentClass.DISCARD

    def test_short_and_markerless_fragments_discarded(self):
        params = marker_params(n=40, ell=3)
        assert classify_fragment([1, 2], params) is FragmentClass.DISCARD
        assert classify_fragment([3] * 20, params) is FragmentClass.DISCARD

    def test_overlong_fragment_rejected(self):
        params = marker_params(n=40, ell=3)
        with pytest.raises(ValueError, match="exceeds"):
            classify_fragment([1] * 41, params)

    def test_single_break_completeness_interior_bonds(self):
        params = marker_params(n=40, ell=3)
        strand = self._strand(params)
        n, ell = params.n, params.ell
        for bond in range(ell + 3, n - ell - 2):  # strictly inside the data region
            left, right = strand[:bond], strand[bond:]
            assert classify_fragment(left, params) is FragmentClass.PREFIX, bond
            assert classify_fragment(right, params) is FragmentClass.SUFFIX, bond


class TestMarkerUniqueness:
    @pytest.mark.parametrize("ell", [3, 5])
    def test_pattern_occurs_only_at_designed_positions(self, ell):
        params = marker_params(n=60, ell=ell)
        pattern = np.array(params.marker_pattern(), dtype=np.int16)
        span = len(pattern)
        rng = random.Random(ell)
        for trial in range(10):
            message = [rng.randrange(r) for r in message_radices(params)]
            cw = construct_codeword(message, params)
            strands = synthesize(cw, 50, seed=trial)
            windows = np.lib.stride_tricks.sliding_window_view(strands, span, axis=1)
            hits = (windows == pattern).all(axis=2)
            expected = np.zeros(params.n - span + 1, dtype=bool)
            expected[0] = expected[params.n - span] = True
            assert (hits == expected[None, :]).all()

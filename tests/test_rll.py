"""Run-length-limited counting, closed forms, and redundancy bounds."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from compodna import (
    BoundReport,
    RllParams,
    bound_report,
    count_rll_brute,
    count_rll_exact,
    forbidden_block_count,
    is_run_length_limited,
    lll_premises_hold,
    redundancy_exact,
    redundancy_lower_bound,
    redundancy_trivial_bound,
    redundancy_upper_bounds,
    sweep_csv_rows,
    verify_summation_identities,
    window_count_closed_form,
)
from compodna.rll import SWEEP_CSV_HEADER, verify_summation_identities_grid

LOG2_E = math.log2(math.e)


def _count_by_steps(params: RllParams) -> int:
    """Reference count: n steps of the trailing-restricted-run DP.

    State r in [0, ell-1] is the length of the trailing restricted run.
    Appending an unrestricted symbol (Q-R ways) resets r to 0; appending a
    restricted symbol (R ways) advances r, and is dropped when the run
    would reach ell.
    """
    Q, R, ell, n = params.Q, params.R, params.ell, params.n
    state = [1] + [0] * (ell - 1)
    total = 1
    for _ in range(n):
        state = [(Q - R) * total] + [R * state[r] for r in range(ell - 1)]
        total = sum(state)
    return total


@pytest.mark.parametrize("Q", [1, 0])
def test_alphabet_of_fewer_than_two_rejected(Q):
    # Every figure is in log base Q; at Q = 1 the bounds divided by log 1.
    with pytest.raises(ValueError, match=f"alphabet size Q must be >= 2, got {Q}"):
        RllParams(Q=Q, R=0, ell=1, n=5)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"R": 4}, r"^restricted-subset size R 4 outside \[0, 4\)$"),
        ({"R": -1}, r"^restricted-subset size R -1 outside \[0, 4\)$"),
        ({"ell": 0}, r"^window length ell must be >= 1, got 0$"),
        ({"n": -1}, r"^sequence length n must be >= 0, got -1$"),
    ],
    ids=["R=Q", "R<0", "ell=0", "n<0"],
)
def test_params_out_of_range_rejected(fields, message):
    with pytest.raises(ValueError, match=message):
        RllParams(**{"Q": 4, "R": 1, "ell": 2, "n": 5, **fields})


class TestMembership:
    def test_no_restricted_symbols(self):
        assert is_run_length_limited([False] * 10, 3)

    def test_violating_window(self):
        assert not is_run_length_limited([True, True, False], 2)

    def test_runs_below_threshold(self):
        assert is_run_length_limited([True, True, False, True, True], 3)

    @pytest.mark.parametrize("ell", [0, -1])
    def test_window_below_1_rejected(self, ell):
        with pytest.raises(ValueError, match=rf"^window length ell must be >= 1, got {ell}$"):
            is_run_length_limited([True], ell)

    def test_short_sequences_vacuous(self):
        assert is_run_length_limited([True, True], 3)
        assert is_run_length_limited([], 1)

    @given(st.lists(st.booleans(), max_size=12), st.integers(1, 5))
    def test_equivalent_to_max_run(self, flags, ell):
        max_run = run = 0
        for f in flags:
            run = run + 1 if f else 0
            max_run = max(max_run, run)
        assert is_run_length_limited(flags, ell) == (max_run < ell)


class TestBruteCount:
    @pytest.mark.parametrize(
        "Q,R,ell,n,expected",
        [
            (2, 1, 2, 3, 5),
            (2, 1, 2, 4, 8),
            (3, 0, 2, 5, 3**5),
            (5, 0, 3, 4, 5**4),
        ],
    )
    def test_examples(self, Q, R, ell, n, expected):
        assert count_rll_brute(RllParams(Q=Q, R=R, ell=ell, n=n)) == expected

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            count_rll_brute(RllParams(Q=2, R=1, ell=2, n=21))


class TestExactCount:
    @pytest.mark.parametrize(
        "Q,R,ell,n,expected",
        [
            (2, 1, 2, 8, 55),
            (3, 1, 1, 5, 32),
            (2, 1, 2, 0, 1),
            (7, 3, 4, 0, 1),
        ],
    )
    def test_examples(self, Q, R, ell, n, expected):
        assert count_rll_exact(RllParams(Q=Q, R=R, ell=ell, n=n)) == expected

    def test_matches_brute_small_grid(self):
        for Q in (2, 3):
            for R in range(Q):
                for ell in (1, 2, 3):
                    for n in range(9):
                        params = RllParams(Q=Q, R=R, ell=ell, n=n)
                        assert count_rll_exact(params) == count_rll_brute(params), params

    @given(Q=st.integers(2, 5), R=st.integers(0, 4), n=st.integers(0, 30))
    def test_window_one_forces_unrestricted(self, Q, R, n):
        if R >= Q:
            return
        assert count_rll_exact(RllParams(Q=Q, R=R, ell=1, n=n)) == (Q - R) ** n

    @given(Q=st.integers(2, 5), ell=st.integers(1, 4), n=st.integers(0, 20), data=st.data())
    def test_monotone_in_restricted_size(self, Q, ell, n, data):
        R = data.draw(st.integers(0, Q - 2))
        lo = count_rll_exact(RllParams(Q=Q, R=R + 1, ell=ell, n=n))
        hi = count_rll_exact(RllParams(Q=Q, R=R, ell=ell, n=n))
        assert lo <= hi

    @given(Q=st.integers(2, 5), R=st.integers(0, 4), ell=st.integers(1, 4), n=st.integers(0, 20))
    def test_monotone_in_window_length(self, Q, R, ell, n):
        if R >= Q:
            return
        a = count_rll_exact(RllParams(Q=Q, R=R, ell=ell, n=n))
        b = count_rll_exact(RllParams(Q=Q, R=R, ell=ell + 1, n=n))
        assert a <= b

    @given(Q=st.integers(2, 4), R=st.integers(0, 3), ell=st.integers(1, 4), n=st.integers(0, 24))
    @settings(max_examples=150)
    def test_segment_bound(self, Q, R, ell, n):
        if R >= Q:
            return
        count = count_rll_exact(RllParams(Q=Q, R=R, ell=ell, n=n))
        window = window_count_closed_form(Q, R, ell)
        assert count <= window ** (n // (2 * ell)) * Q ** (n % (2 * ell))

    @given(Q=st.integers(2, 100), ell=st.integers(1, 12), n=st.integers(0, 400), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_step_dp(self, Q, ell, n, data):
        R = data.draw(st.integers(0, Q - 1))
        params = RllParams(Q=Q, R=R, ell=ell, n=n)
        assert count_rll_exact(params) == _count_by_steps(params)

    @pytest.mark.parametrize(
        "Q,R,ell",
        [
            (2, 0, 3), (84, 0, 10),                 # R = 0: every sequence qualifies
            (2, 1, 3), (84, 83, 10), (100, 99, 12),  # R = Q-1: one unrestricted symbol
            (2, 1, 1), (84, 56, 1),                  # ell = 1: fast path
            (3, 1, 2), (84, 56, 7), (7, 4, 12),
        ],
    )
    def test_edge_lengths_match_step_dp(self, Q, R, ell):
        for n in (0, ell - 1, ell, ell + 1, 2 * ell):
            params = RllParams(Q=Q, R=R, ell=ell, n=n)
            assert count_rll_exact(params) == _count_by_steps(params), n
        assert count_rll_exact(RllParams(Q=Q, R=R, ell=ell, n=2 * ell)) == window_count_closed_form(Q, R, ell)

    def test_dna_point_matches_step_dp(self):
        # A 9609-digit count, the largest of the rll-sweep grid (ell 10, n 5000).
        params = RllParams(Q=84, R=56, ell=10, n=5000)
        count = count_rll_exact(params)
        assert count == _count_by_steps(params)
        assert math.floor(math.log10(count)) + 1 == 9609

    def test_large_length_smoke(self):
        count = count_rll_exact(RllParams(Q=2, R=1, ell=2, n=10_000))
        assert count.bit_length() > 6000  # grows like the golden ratio


class TestWindowClosedForm:
    @pytest.mark.parametrize(
        "Q,R,ell,expected",
        [
            (2, 1, 2, 8),
            (3, 1, 1, 4),
            (5, 0, 3, 5**6),
        ],
    )
    def test_examples(self, Q, R, ell, expected):
        assert window_count_closed_form(Q, R, ell) == expected

    def test_matches_exact_count_grid(self):
        for Q in range(2, 7):
            for R in range(Q):
                for ell in range(1, 6):
                    closed = window_count_closed_form(Q, R, ell)
                    exact = count_rll_exact(RllParams(Q=Q, R=R, ell=ell, n=2 * ell))
                    assert closed == exact, (Q, R, ell)


class TestForbiddenBlocks:
    def test_full_run_case(self):
        assert forbidden_block_count(1, 4, Q=2, R=1, ell=2) == 1  # R^(2l)

    def test_run_from_start_case(self):
        assert forbidden_block_count(1, 2, Q=2, R=1, ell=2) == 2  # R^k Q^(2l-k-1) (Q-R)

    def test_interior_case(self):
        # j=2, k=2 < 2l-j+1=3: R^k Q^(2l-k-2) (Q-R)^2
        assert forbidden_block_count(2, 2, Q=3, R=1, ell=2) == 1 * 3**0 * 4

    @pytest.mark.parametrize("j,k", [(0, 2), (4, 2), (1, 1), (1, 5), (2, 4)])
    def test_out_of_range_rejected(self, j, k):
        with pytest.raises(ValueError):
            forbidden_block_count(j, k, Q=2, R=1, ell=2)

    def test_decomposition_identity_grid(self):
        for Q in range(2, 5):
            for R in range(Q):
                for ell in range(1, 5):
                    total = sum(
                        forbidden_block_count(j, k, Q, R, ell)
                        for j in range(1, ell + 2)
                        for k in range(ell, 2 * ell - j + 2)
                    )
                    assert Q ** (2 * ell) - total == window_count_closed_form(Q, R, ell), (Q, R, ell)


class TestRedundancyFigures:
    def test_exact_example(self):
        red = redundancy_exact(RllParams(Q=2, R=1, ell=2, n=8))
        assert red == pytest.approx(8 - math.log2(55), abs=1e-12)
        assert red == pytest.approx(2.21864028647534, abs=1e-9)

    def test_exact_zero_when_unrestricted(self):
        assert redundancy_exact(RllParams(Q=3, R=0, ell=2, n=10)) == pytest.approx(0.0, abs=1e-12)

    def test_exact_window_one(self):
        red = redundancy_exact(RllParams(Q=3, R=1, ell=1, n=5))
        assert red == pytest.approx(5 * (1 - math.log(2) / math.log(3)), abs=1e-12)
        assert red == pytest.approx(1.845351232142713, abs=1e-9)

    def test_lower_bound_example(self):
        lb = redundancy_lower_bound(RllParams(Q=2, R=1, ell=2, n=8))
        assert lb == pytest.approx(LOG2_E * 0.25 * 0.5 * 2, abs=1e-12)
        assert lb == pytest.approx(0.36067376022224085, abs=1e-9)

    def test_lower_bound_degenerate_cases(self):
        assert redundancy_lower_bound(RllParams(Q=4, R=0, ell=2, n=20)) == 0.0
        assert redundancy_lower_bound(RllParams(Q=4, R=2, ell=3, n=6)) == 0.0
        assert redundancy_lower_bound(RllParams(Q=4, R=2, ell=3, n=5)) == 0.0  # n < 2l

    def test_upper_bounds_need_a_whole_window(self):
        message = r"^sequence length n must be >= 5, got 3 \(at least the window length ell\)$"
        with pytest.raises(ValueError, match=message):
            redundancy_upper_bounds(RllParams(Q=4, R=1, ell=5, n=3))

    def test_upper_bounds_union_absent_at_saturation(self):
        up = redundancy_upper_bounds(RllParams(Q=2, R=1, ell=2, n=8))
        # S = 0.25 * (1 + 0.5 * 6) = 1.0 exactly: union bound does not apply
        assert up.union is None
        assert up.lll == pytest.approx(math.e * LOG2_E, abs=1e-12)

    def test_upper_bounds_zero_when_unrestricted(self):
        up = redundancy_upper_bounds(RllParams(Q=5, R=0, ell=3, n=12))
        assert up.union == 0.0
        assert up.lll == 0.0
        assert up.lll_premises_hold

    def test_upper_bounds_dna_point(self):
        up = redundancy_upper_bounds(RllParams(Q=84, R=56, ell=8, n=100))
        s = (56 / 84) ** 8 * (1 + (1 - 56 / 84) * 92)
        assert s > 1  # union bound inapplicable here
        assert up.union is None
        assert up.lll == pytest.approx(math.e * math.log(math.e, 84) * s, abs=1e-12)

    def test_union_bound_present_when_survival_positive(self):
        params = RllParams(Q=84, R=56, ell=12, n=100)
        up = redundancy_upper_bounds(params)
        s = (56 / 84) ** 12 * (1 + (1 - 56 / 84) * 88)
        assert s < 1
        assert up.union == pytest.approx(math.log(math.e, 84) * s / (1 - s), abs=1e-12)
        assert redundancy_exact(params) <= up.union + 1e-9

    def test_trivial_bound_examples(self):
        assert redundancy_trivial_bound(RllParams(Q=2, R=1, ell=2, n=8)) == pytest.approx(4.0, abs=1e-12)
        assert redundancy_trivial_bound(RllParams(Q=5, R=2, ell=4, n=3)) == 0.0
        assert redundancy_trivial_bound(RllParams(Q=84, R=56, ell=5, n=100)) == pytest.approx(
            20 * math.log(3) / math.log(84), abs=1e-12
        )
        assert redundancy_trivial_bound(RllParams(Q=84, R=56, ell=5, n=100)) == pytest.approx(
            4.958960564358733, abs=1e-9
        )

    def test_lll_premises_recorded(self):
        # Short windows violate the local-lemma premises, long ones satisfy them.
        assert not lll_premises_hold(2, 1, 2)
        assert lll_premises_hold(2, 1, 12)

    @given(Q=st.integers(2, 4), R=st.integers(0, 3), ell=st.integers(1, 4), n=st.integers(0, 24))
    @settings(max_examples=200)
    def test_bound_sandwich(self, Q, R, ell, n):
        if R >= Q:
            return
        params = RllParams(Q=Q, R=R, ell=ell, n=n)
        exact = redundancy_exact(params)
        assert redundancy_lower_bound(params) <= exact + 1e-9
        assert exact <= redundancy_trivial_bound(params) + 1e-9
        if n >= ell:
            up = redundancy_upper_bounds(params)
            if up.union is not None:
                assert exact <= up.union + 1e-9


class TestSummationIdentities:
    @pytest.mark.parametrize("Q,R,ell", [(2, 1, 3), (84, 56, 5), (3, 2, 2)])
    def test_examples(self, Q, R, ell):
        assert verify_summation_identities(Q, R, ell)

    def test_random_grid_clean(self):
        assert verify_summation_identities_grid(points=20, seed=7) == 0

    def test_needs_window_at_least_two(self):
        with pytest.raises(ValueError):
            verify_summation_identities(3, 1, 1)

    @given(Q=st.integers(2, 40), ell=st.integers(2, 8), data=st.data())
    @settings(max_examples=60)
    def test_random_points(self, Q, ell, data):
        R = data.draw(st.integers(0, Q - 1))
        assert verify_summation_identities(Q, R, ell)


class TestBoundReport:
    def test_fields_and_json_names(self):
        # field order is the column order of the sweep CSV after Q,R,ell,n
        rep = bound_report(RllParams(Q=2, R=1, ell=2, n=8))
        names = [f.name for f in dataclasses.fields(BoundReport)]
        assert names == [
            "exact_count",
            "exact_redundancy",
            "lower_bound",
            "upper_bound_union",
            "upper_bound_lll",
            "trivial_bound",
        ]
        assert names == SWEEP_CSV_HEADER.split(",")[4:]
        assert rep.exact_count == 55
        assert rep.upper_bound_union is None

    def test_redundancy_consistent_with_count(self):
        rep = bound_report(RllParams(Q=3, R=2, ell=3, n=20))
        derived = 20 - math.log(rep.exact_count) / math.log(3)
        assert rep.exact_redundancy == pytest.approx(derived, rel=1e-9)

    def test_sweep_rows_parse(self):
        rows = sweep_csv_rows(3, 1, [1, 2], [0, 5, 10])
        assert len(rows) == 6
        header_cols = SWEEP_CSV_HEADER.split(",")
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(header_cols)
            int(cells[4])  # exact_count parses as integer

"""Channel pipeline: synthesis, breaking, sampling, alignment, estimation."""

import dataclasses
import hashlib
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from compodna import (
    AlphabetParams,
    AtMostT,
    ChannelConfig,
    CompositeMatrix,
    CompositeSymbol,
    ExactlyT,
    FragmentClass,
    MarkerCodeParams,
    PerBond,
    RllParams,
    ZeroCoverageError,
    align_and_count,
    apply_breaks_traced,
    asymptotic_optimal_ell,
    construct_codeword,
    estimate_matrix,
    forbidden_block_count,
    is_run_length_limited,
    layout,
    message_radices,
    optimal_marker_length,
    random_message,
    rank_symbol,
    redundancy_upper_bounds,
    restricted_symbol_count,
    run_experiment,
    run_experiment_traced,
    sample_fragments,
    substream,
    synthesize,
    unrank_symbol,
    verify_summation_identities,
)
from compodna import channel, marker
from compodna.symbols import brief
from compodna.channel import LANE_BREAK, LANE_SAMPLE, LANE_SYNTH, align_pool, break_strands

DNA = AlphabetParams(q=4, M=6)


def make_codeword(params, seed=0):
    rng = random.Random(seed)
    return construct_codeword([rng.randrange(r) for r in message_radices(params)], params)


def make_config(n=60, ell=3, strand_count=500, break_model=None, sample_size=None,
                with_replacement=False, seed=99):
    params = MarkerCodeParams(alphabet=DNA, n=n, ell=ell)
    return ChannelConfig(
        code_params=params,
        strand_count=strand_count,
        break_model=break_model if break_model is not None else ExactlyT(t=0),
        sample_size=sample_size,
        with_replacement=with_replacement,
        seed=seed,
    )


class TestSynthesize:
    def test_deterministic_column_always_same_base(self):
        matrix = CompositeMatrix(np.transpose([(0, 6, 0, 0), (2, 2, 1, 1)]), DNA)
        strands = synthesize(matrix, 300, seed=4)
        assert (strands[:, 0] == 2).all()

    def test_uniform_column_frequencies_within_3_sigma(self):
        uniform = AlphabetParams(q=4, M=4)
        matrix = CompositeMatrix(np.transpose([(1, 1, 1, 1), (4, 0, 0, 0)]), uniform)
        s = 100_000
        strands = synthesize(matrix, s, seed=11)
        sigma = math.sqrt(0.25 * 0.75 / s)
        for base in (1, 2, 3, 4):
            freq = (strands[:, 0] == base).mean()
            assert abs(freq - 0.25) <= 3 * sigma

    def test_same_seed_same_pool(self):
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        cw = make_codeword(params)
        a = synthesize(cw, 40, seed=21)
        b = synthesize(cw, 40, seed=21)
        assert (a == b).all()

    def test_split_invocation_matches_single_call(self, monkeypatch):
        # word-addressed strand rows: a smaller call draws the first rows
        # of a larger one, at cuts on either side of 256-row blocks (rows of
        # 3 words at n = 30, 12 slots a word, so _BLOCK = 256 * 3 words)
        monkeypatch.setattr(channel, "_BLOCK", 256 * 3)
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        cw = make_codeword(params)
        whole = synthesize(cw, 600, seed=21)
        for m in (1, 25, 255, 256, 257, 511, 513):
            assert (synthesize(cw, m, seed=21) == whole[:m]).all()

    def test_values_are_valid_bases(self):
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        strands = synthesize(make_codeword(params), 200, seed=1)
        assert strands.min() >= 1 and strands.max() <= 4

    @pytest.mark.parametrize("m", [2, 6, 2**20], ids=["tables M=2", "tables M=6", "compare passes"])
    def test_bytes_below_q_256_and_int16_from_there(self, m):
        # A zero-count base 256 leaves every draw where it was, so both matrices draw the same
        # strands: as uint8 at q = 255 and as int16 at q = 256. Column 1 always draws base 255.
        rng = np.random.default_rng(m)
        counts = rng.multinomial(m, rng.dirichlet(np.full(255, 0.05)), size=40).T
        counts[:, 0], counts[-1, 0] = 0, m
        narrow = synthesize(CompositeMatrix(counts, AlphabetParams(q=255, M=m)), 300, seed=5)
        wide = synthesize(CompositeMatrix(np.vstack([counts, np.zeros((1, 40), dtype=np.int64)]),
                                          AlphabetParams(q=256, M=m)), 300, seed=5)
        assert narrow.dtype == np.uint8 and wide.dtype == np.int16
        assert np.array_equal(narrow, wide) and narrow.max() == 255


class _ConstantWordGenerator:
    """Stand-in generator whose every synthesis word is `word`, by default all ones, 2^64 - 1."""

    def __init__(self, word=2**64 - 1):
        self.word = word

    @property
    def bit_generator(self):
        return self

    def random_raw(self, size):
        return np.full(size, self.word, dtype=np.uint64)


class TestZeroWeightBases:
    # (1,4,1,0) at q=4, M=6: the last base weighs nothing, so it owns no slot.
    # An all-ones word gives v = M^k - 1, every slot M - 1, the top slot, which
    # must draw the last base that owns one.
    SYMBOL = CompositeSymbol((1, 4, 1, 0))

    def _assert_no_zero_count_draws(self, matrix, monkeypatch):
        monkeypatch.setattr(channel, "substream", lambda *args: _ConstantWordGenerator())
        strands = synthesize(matrix, 3, seed=0)
        counts = matrix.counts
        drawn = counts[strands - 1, np.arange(matrix.n)]
        assert (drawn > 0).all()

    def test_bare_matrix(self, monkeypatch):
        matrix = CompositeMatrix(np.transpose([self.SYMBOL.counts] * 3), DNA)
        self._assert_no_zero_count_draws(matrix, monkeypatch)

    def test_trailing_zero_count_bases(self, monkeypatch):
        # The last two bases weigh nothing, or the first two and the last:
        # the top slot must skip two empty bases at the end, or one at the end
        # after two empty ones at the start.
        matrix = CompositeMatrix(np.transpose([(2, 4, 0, 0), (0, 0, 6, 0), (3, 0, 3, 0)]), DNA)
        self._assert_no_zero_count_draws(matrix, monkeypatch)

    def test_bottom_slot_skips_leading_zero_count_bases(self, monkeypatch):
        # An all-zeros word gives every slot 0, which draws the first base that owns one.
        matrix = CompositeMatrix(np.transpose([(0, 4, 2, 0), (0, 0, 0, 6), (1, 0, 5, 0)]), DNA)
        monkeypatch.setattr(channel, "substream", lambda *args: _ConstantWordGenerator(0))
        assert (synthesize(matrix, 3, seed=0) == [2, 4, 1]).all()

    def test_marker_base_q_layout(self, monkeypatch):
        # Breaker columns carry zero weight on the marker base, here base q.
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3, marker_base=4, anchor_base=1)
        free = rank_symbol(self.SYMBOL, DNA)
        breaker = rank_symbol(CompositeSymbol((1, 4, 1)), AlphabetParams(q=3, M=6))
        lay = layout(params)
        message = [breaker if j in lay.breaker_positions else free for j in lay.data_positions()]
        codeword = construct_codeword(message, params)
        assert all(codeword.columns[j - 1] == self.SYMBOL for j in lay.breaker_positions)
        self._assert_no_zero_count_draws(codeword, monkeypatch)


class TestApplyBreaks:
    def _strand(self, n=60, seed=2):
        params = MarkerCodeParams(alphabet=DNA, n=n, ell=3)
        return synthesize(make_codeword(params), 1, seed=seed)[0]

    def test_no_breaks_single_fragment(self):
        strand = self._strand()
        pieces = apply_breaks_traced(strand, ExactlyT(t=0), substream(5, LANE_BREAK, 0))
        assert len(pieces) == 1
        assert pieces[0][0] == 1
        assert (pieces[0][1] == strand).all()

    def test_one_break_partitions_strand(self):
        strand = self._strand()
        pieces = apply_breaks_traced(strand, ExactlyT(t=1), substream(5, LANE_BREAK, 0))
        assert len(pieces) == 2
        assert (np.concatenate([frag for _, frag in pieces]) == strand).all()

    def test_partition_property_all_models(self):
        strand = self._strand()
        models = [PerBond(p=0.2), ExactlyT(t=3), AtMostT(t=4), ExactlyT(t=2, bond_range=(10, 20))]
        for i, model in enumerate(models):
            pieces = apply_breaks_traced(strand, model, substream(7, LANE_BREAK, i))
            frags = [frag for _, frag in pieces]
            assert all(len(f) > 0 for f in frags)
            assert (np.concatenate(frags) == strand).all()

    def test_bond_range_respected(self):
        strand = self._strand()
        for i in range(200):
            pieces = apply_breaks_traced(strand, ExactlyT(t=1, bond_range=(10, 20)), substream(3, LANE_BREAK, i))
            assert len(pieces) == 2
            start2 = pieces[1][0]
            assert 11 <= start2 <= 21

    def test_at_most_t_spread(self):
        strand = self._strand()
        counts = set()
        for i in range(300):
            pieces = apply_breaks_traced(strand, AtMostT(t=2), substream(9, LANE_BREAK, i))
            counts.add(len(pieces) - 1)
        assert counts == {0, 1, 2}

    def test_per_bond_mean_fragments_within_3_sigma(self):
        n, s, p = 100, 100_000, 0.01
        # one break_strands call over the lane; each strand adds one fragment per break
        total_breaks = len(break_strands(n, PerBond(p=p), s, seed=17)) - s
        mean = (n - 1) * p
        sigma = math.sqrt(s * (n - 1) * p * (1 - p))
        assert abs(total_breaks - s * mean) <= 3 * sigma

    def test_too_many_breaks_rejected(self):
        strand = self._strand()
        with pytest.raises(ValueError):
            apply_breaks_traced(strand, ExactlyT(t=2, bond_range=(5, 5)), substream(1, LANE_BREAK, 0))

    def test_traced_matches_untraced(self):
        # The per-strand traced split on the lane's own stream cuts where the
        # batched (untraced) core cuts strand row 0.
        strand = self._strand()
        traced = apply_breaks_traced(strand, ExactlyT(t=2), substream(31, LANE_BREAK, 0))
        pool = break_strands(len(strand), ExactlyT(t=2), 1, seed=31)
        assert len(traced) == len(pool) == 3
        pos = 1
        for (start, frag), first, last in zip(traced, pool.start, pool.end):
            assert start == pos == first
            assert (frag == strand[first - 1 : last]).all()
            pos += len(frag)
        assert pos == len(strand) + 1


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: make_config(sample_size=0), r"^sample_size must be >= 1, got 0 \(or null for the full pool\)$"),
        (lambda: synthesize(make_codeword(make_config().code_params), 0, 1), r"^strand count must be >= 1, got 0$"),
        (lambda: break_strands(30, PerBond(0.1), -1, 1), r"^strand count must be >= 1, got -1$"),
        (lambda: sample_fragments([1, 2], 0, True, substream(1, LANE_SAMPLE)), r"^sample size must be >= 1, got 0$"),
    ],
    ids=["sample_size", "synthesize", "break_strands", "sample_fragments"],
)
def test_counts_below_1_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestSampleFragments:
    def test_full_pool_without_replacement_is_permutation(self):
        pool = [np.array([i]) for i in range(50)]
        out = sample_fragments(pool, 50, False, substream(3, LANE_SAMPLE))
        assert sorted(int(f[0]) for f in out) == list(range(50))
        assert [int(f[0]) for f in out] != list(range(50))  # order randomized

    def test_with_replacement_frequencies(self):
        pool = [np.array([i]) for i in range(10)]
        k = 10_000
        out = sample_fragments(pool, k, True, substream(8, LANE_SAMPLE))
        counts = np.bincount([int(f[0]) for f in out], minlength=10)
        sigma = math.sqrt(k * 0.1 * 0.9)
        assert (np.abs(counts - k / 10) <= 3 * sigma).all()

    def test_same_seed_same_sample(self):
        pool = [np.array([i]) for i in range(30)]
        a = sample_fragments(pool, 10, False, substream(5, LANE_SAMPLE))
        b = sample_fragments(pool, 10, False, substream(5, LANE_SAMPLE))
        assert [int(f[0]) for f in a] == [int(f[0]) for f in b]

    def test_oversampling_without_replacement_rejected(self):
        pool = [np.array([1])]
        with pytest.raises(ValueError):
            sample_fragments(pool, 2, False, substream(1, LANE_SAMPLE))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            sample_fragments([], 1, False, substream(1, LANE_SAMPLE))

    def test_fragment_pool_sample_is_the_draw_in_pool_order(self):
        pool = break_strands(30, PerBond(p=0.1), 40, seed=2)
        size = len(pool)
        for k, replace in ((size // 3, False), (size - 1, False), (size // 2, True), (3 * size, True)):
            gen = substream(4, LANE_SAMPLE)
            idx = gen.integers(0, size, size=k) if replace else gen.permutation(size)[:k]
            picked = sample_fragments(pool, k, replace, substream(4, LANE_SAMPLE))
            want = pool[np.sort(idx)]
            for got, expected in zip((picked.strand, picked.start, picked.end), (want.strand, want.start, want.end)):
                assert (got == expected).all()
        gen = substream(4, LANE_SAMPLE)
        assert sample_fragments(pool, size, False, gen) is pool
        assert gen.random() == substream(4, LANE_SAMPLE).random()  # nothing drawn


class TestAlignAndCount:
    def test_full_fragments_cover_everything(self):
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        cw = make_codeword(params)
        strands = synthesize(cw, 20, seed=6)
        result = align_and_count(list(strands), params)
        assert result.tallies[FragmentClass.FULL] == 20
        assert (result.count_table.sum(axis=0) == 20).all()
        # counts reproduce the strands exactly
        for j in range(params.n):
            col = np.bincount(strands[:, j], minlength=5)[1:]
            assert (result.count_table[:, j] == col).all()

    def test_prefix_suffix_pair_reassembles_strand(self):
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        strand = synthesize(make_codeword(params), 1, seed=8)[0]
        result = align_and_count([strand[:10], strand[10:]], params)
        assert result.tallies[FragmentClass.PREFIX] == 1
        assert result.tallies[FragmentClass.SUFFIX] == 1
        assert (result.count_table.sum(axis=0) == 1).all()
        reconstructed = result.count_table.argmax(axis=0) + 1
        assert (reconstructed == strand).all()

    def test_markerless_fragment_discarded_without_counts(self):
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        result = align_and_count([np.array([3, 4, 3, 4, 3, 4, 3])], params)
        assert result.tallies[FragmentClass.DISCARD] == 1
        assert result.count_table.sum() == 0

    @pytest.mark.parametrize("dtype", [object, np.complex128])
    def test_rejects_bases_that_are_not_machine_numbers(self, dtype):
        # Bases must have an integer dtype: the count's gathers would truncate anything else.
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        strand = np.array(synthesize(make_codeword(params), 1, seed=8)[0], dtype=dtype)
        with pytest.raises(ValueError, match=f"got dtype {np.dtype(dtype)}$"):
            align_and_count([strand[:10], strand[10:]], params)

    def test_overlong_fragment_counted_as_discard(self):
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        result = align_and_count([np.ones(31, dtype=np.int16)], params)
        assert result.tallies[FragmentClass.DISCARD] == 1
        assert result.count_table.sum() == 0


class TestAlignPoolWidth:
    def test_rejects_a_strand_matrix_of_another_width(self):
        # Strands of n = 40 counted under n = 30 params would land at the wrong columns.
        wide = MarkerCodeParams(alphabet=DNA, n=40, ell=3)
        strands = synthesize(make_codeword(wide), 4, seed=2)
        pool = break_strands(40, ExactlyT(t=1), 4, seed=2)
        with pytest.raises(ValueError, match=r"shape \(4, 40\), but params expect n=30 columns$"):
            align_pool(strands, pool, MarkerCodeParams(alphabet=DNA, n=30, ell=3))


class TestAlignPoolTriplets:
    """A triplet must name a strand row of the matrix and columns 1 <= start <= end <= n."""

    PARAMS = MarkerCodeParams(alphabet=DNA, n=30, ell=3)

    @pytest.mark.parametrize("strand, start, end", [(0, 31, 60), (7, 1, 30), (-1, 1, 30), (0, 0, 30), (0, 9, 8)])
    def test_rejects_a_triplet_outside_the_matrix(self, strand, start, end):
        # Columns 31..60 of strand 0 would be read from strand 1; row 7 of 4 from past the matrix.
        strands = synthesize(make_codeword(self.PARAMS), 4, seed=2)
        pool = break_strands(30, ExactlyT(t=1), 4, seed=2)
        bad = channel.FragmentPool(*(np.append(getattr(pool, f), v).astype(np.int32)
                                     for f, v in zip(("strand", "start", "end"), (strand, start, end))))
        message = rf"fragment {len(pool)} \(strand {strand}, columns {start}..{end}\) is outside the \(4, 30\) matrix$"
        with pytest.raises(ValueError, match=message):
            align_pool(strands, bad, self.PARAMS)

    def test_names_the_first_bad_triplet(self):
        strands = synthesize(make_codeword(self.PARAMS), 4, seed=2)
        pool = channel.FragmentPool(np.array([0, 9, 0, 5], dtype=np.int32), np.array([1, 1, 40, 1], dtype=np.int32),
                                    np.array([30, 30, 50, 30], dtype=np.int32))
        with pytest.raises(ValueError, match=r"^fragment 1 \(strand 9, columns 1..30\)"):
            align_pool(strands, pool, self.PARAMS)


class TestBasesOutsideTheAlphabet:
    """Alignment counts bases 1..q only: any other value, or a non-integer dtype, is rejected
    whichever entry point reads it, instead of being counted as some other base."""

    PARAMS = MarkerCodeParams(alphabet=DNA, n=30, ell=3)

    def _strands(self):
        # Signed, so that the -2 cases can be written: synthesize returns uint8 strands at q = 4.
        return synthesize(make_codeword(self.PARAMS), 50, seed=3).astype(np.int16)

    @pytest.mark.parametrize("value", [9, 0, -2])
    def test_align_pool_rejects_a_base_outside_1_to_q(self, value):
        # The pool covers the whole matrix, so it is counted by columns, which took any value
        # but 2..q for base 1.
        strands = self._strands()
        strands[7, 12] = value
        pool = break_strands(30, ExactlyT(t=1), 50, seed=3)
        with pytest.raises(ValueError, match=rf"bases must lie in 1..4, got {value}$"):
            align_pool(strands, pool, self.PARAMS)

    @pytest.mark.parametrize("value", [9, 0, -2])
    def test_align_and_count_rejects_a_base_outside_1_to_q(self, value):
        strands = self._strands()
        strands[7, 12] = value
        with pytest.raises(ValueError, match=rf"bases must lie in 1..4, got {value}$"):
            align_and_count(list(strands), self.PARAMS)

    def test_rejects_real_bases(self):
        # 3.5 would be truncated and counted as base 3.
        strands = self._strands().astype(np.float64)
        strands[7, 12] = 3.5
        pool = break_strands(30, ExactlyT(t=1), 50, seed=3)
        with pytest.raises(ValueError, match="got dtype float64$"):
            align_pool(strands, pool, self.PARAMS)
        with pytest.raises(ValueError, match="got dtype float64$"):
            align_and_count(list(strands), self.PARAMS)

    def test_rejects_two_dimensional_fragments(self):
        with pytest.raises(ValueError, match="fragments must be 1-D arrays of bases, got 2-D$"):
            align_and_count([self._strands()[:2], self._strands()[2:]], self.PARAMS)


def float_estimate(count_table, params):
    """estimate_matrix's counts by float scaling, v / w * M, one column at a time: the
    reference wherever no exact tie makes the floats' rounding decide."""
    lay, m = layout(params), params.M
    out = np.zeros((params.q, params.n), dtype=np.int64)
    for j, (role, bases) in enumerate(zip(lay.roles, map(np.flatnonzero, lay.allowed.T))):
        weights = [float(count_table[b, j]) for b in bases]
        if role in ("anchor", "marker"):
            weights = [1.0]
        scaled = [v / sum(weights) * m for v in weights]
        floors = [math.floor(v) for v in scaled]
        for i in sorted(range(len(bases)), key=lambda i: (floors[i] - scaled[i], i))[: m - sum(floors)]:
            floors[i] += 1
        out[list(bases), j] = floors
    return out


def exact_tie_columns(count_table, params):
    """0-based data columns where two allowed bases share a nonzero remainder x * M mod w."""
    lay = layout(params)
    tied = set()
    for j in lay.data_positions():
        x = [int(count_table[b, j - 1]) for b in np.flatnonzero(lay.allowed[:, j - 1])]
        remainders = [v * params.M % sum(x) for v in x if v * params.M % sum(x)]
        if len(set(remainders)) < len(remainders):
            tied.add(j - 1)
    return tied


class TestEstimateMatrix:
    @given(data=st.data(), q=st.integers(2, 4), m=st.integers(1, 12), ell=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_float_estimate_where_no_exact_tie(self, data, q, m, ell):
        params = MarkerCodeParams(alphabet=AlphabetParams(q=q, M=m), n=2 * (ell + 2) + 8, ell=ell)
        cells = st.integers(0, 40) | st.integers(0, 10**6)
        table = np.array(data.draw(st.lists(cells, min_size=q * params.n, max_size=q * params.n)))
        table = table.reshape(q, params.n)
        lay = layout(params)
        assume(all(table[lay.allowed[:, j - 1], j - 1].sum() > 0 for j in lay.data_positions()))
        estimate = np.transpose([col.counts for col in estimate_matrix(table, params).columns])
        differ = set(np.flatnonzero((estimate != float_estimate(table, params)).any(axis=0)).tolist())
        assert differ <= exact_tie_columns(table, params)

    def test_exact_ties_go_to_the_lower_base(self):
        # Free column 15 weighs (1, 1, 0, 7) of 9: remainders 6, 6, 0, 6 share the two leftover units.
        params = MarkerCodeParams(alphabet=DNA, n=20, ell=2)
        table = np.ones((4, 20), dtype=np.int64)
        table[:, 14] = (1, 1, 0, 7)
        assert estimate_matrix(table, params).columns[14].counts == (1, 1, 0, 4)

    @pytest.mark.parametrize("table", [np.ones((4, 30)), np.ones((4, 29), dtype=np.int64)], ids=["float", "shape"])
    def test_rejects_a_table_that_is_not_integer_counts(self, table):
        # Integer apportionment would truncate float weights.
        with pytest.raises(ValueError, match=r"count table must be a \(4, 30\) integer array"):
            estimate_matrix(table, MarkerCodeParams(alphabet=DNA, n=30, ell=3))

    @pytest.mark.parametrize("column", [(3, -3, 0, 0), (5, -1, 2, 2)])
    def test_rejects_a_negative_count_naming_its_column(self, column):
        # Not a missing-coverage error, nor one about the estimate's own column.
        table = np.ones((4, 30), dtype=np.int64)
        table[:, 5] = column
        message = re.escape(f"count table column 6: counts must be nonnegative, got {list(column)}")
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            estimate_matrix(table, MarkerCodeParams(alphabet=DNA, n=30, ell=3))
        assert not isinstance(info.value, ZeroCoverageError)

    def test_column_sum_past_int64_is_apportioned_exactly(self):
        # Free column 6 weighs its four bases 2^62 each: their sum 2^64 wraps int64 to 0.
        table = np.ones((4, 30), dtype=np.int64)
        table[:, 5] = 2**62
        assert estimate_matrix(table, MarkerCodeParams(alphabet=DNA, n=30, ell=3)).columns[5].counts == (2, 2, 1, 1)

    def test_noiseless_high_coverage_recovers_exactly(self):
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        cw = make_codeword(params, seed=13)
        strands = synthesize(cw, 10_000, seed=13)
        result = align_and_count(list(strands), params)
        assert estimate_matrix(result.count_table, params) == cw

    def test_breaker_columns_never_get_marker_base(self):
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        # feed a table that pushes mass onto the marker base everywhere
        table = np.ones((4, 30), dtype=np.int64)
        table[0, :] = 50
        est = estimate_matrix(table, params)
        for j in layout(params).breaker_positions:
            assert est.columns[j - 1].counts[0] == 0

    def test_zero_coverage_names_column(self):
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        table = np.ones((4, 30), dtype=np.int64)
        table[:, 7] = 0  # a data column
        with pytest.raises(ZeroCoverageError, match="column 8"):
            estimate_matrix(table, params)

    @pytest.mark.parametrize("column, role, marker_weight", [(7, "breaker", 0), (7, "breaker", 5), (8, "free", 0)])
    def test_zero_coverage_names_role_and_column(self, column, role, marker_weight):
        # A breaker column seen only on the marker base has no base it may weigh.
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        table = np.ones((4, 30), dtype=np.int64)
        table[:, column - 1] = 0
        table[0, column - 1] = marker_weight
        with pytest.raises(ZeroCoverageError, match=f"^no usable coverage at {role} column {column}$"):
            estimate_matrix(table, params)

    def test_marker_columns_do_not_need_coverage(self):
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        table = np.ones((4, 30), dtype=np.int64)
        for j in layout(params).marker_positions:
            table[:, j - 1] = 0
        est = estimate_matrix(table, params)
        assert est.columns[0].counts == (0, 6, 0, 0)
        assert est.columns[1].counts == (6, 0, 0, 0)


class TestRunExperiment:
    def test_break_free_channel_recovers(self):
        config = make_config(n=60, ell=3, strand_count=1000, break_model=ExactlyT(t=0),
                             sample_size=1000, seed=42)
        report = run_experiment(config)
        assert report.exact_recovery
        assert report.symbol_error_count == 0
        assert report.fragments_sampled == 1000
        assert report.discarded_fraction == 0.0
        assert report.coverage_min == 1000.0

    def test_single_break_on_data_bonds_recovers(self):
        config = make_config(
            n=60, ell=3, strand_count=10_000,
            break_model=ExactlyT(t=1, bond_range=(5, 55)), seed=7,
        )
        report, stats = run_experiment_traced(config)
        assert report.exact_recovery
        assert report.discarded_fraction == 0.0
        assert stats.classification_errors == 0

    def test_double_breaks_produce_discards(self):
        config = make_config(n=60, ell=3, strand_count=10_000, break_model=ExactlyT(t=2), seed=3)
        report = run_experiment(config)
        assert report.discarded_fraction > 0.0
        assert report.fragments_sampled == 30_000

    def test_classification_sound_under_any_break_model(self):
        for model in (PerBond(p=0.03), ExactlyT(t=2), AtMostT(t=3)):
            config = make_config(n=60, ell=3, strand_count=2000, break_model=model, seed=17)
            _, stats = run_experiment_traced(config)
            assert stats.classification_errors == 0

    def test_classification_sound_at_scale(self):
        # over 10^5 fragments, every Prefix truly starts the strand and
        # every Suffix truly ends it
        config = make_config(n=100, ell=3, strand_count=30_000, break_model=PerBond(p=0.03), seed=23)
        _, stats = run_experiment_traced(config)
        assert stats.sampled_fragments >= 100_000
        assert stats.classification_errors == 0

    def test_report_json_deterministic(self):
        config = make_config(strand_count=400, break_model=PerBond(p=0.02), seed=31)
        a = run_experiment(config).to_json()
        b = run_experiment(config).to_json()
        assert a == b

    def test_workers_do_not_change_report(self):
        config = make_config(strand_count=1000, break_model=PerBond(p=0.05), seed=5)
        serial = run_experiment(config, workers=1).to_json()
        for workers in (2, 4, 8):
            assert run_experiment(config, workers=workers).to_json() == serial

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_rejected(self, workers):
        config = make_config(strand_count=50, break_model=PerBond(p=0.05), seed=5)
        with pytest.raises(ValueError, match="workers"):
            run_experiment(config, workers=workers)

    def test_seed_changes_outcome(self):
        base = make_config(strand_count=200, break_model=PerBond(p=0.1), seed=1)
        other = make_config(strand_count=200, break_model=PerBond(p=0.1), seed=2)
        assert run_experiment(base).to_json() != run_experiment(other).to_json()

    def test_sample_size_limits_fragments(self):
        config = make_config(strand_count=500, break_model=ExactlyT(t=0), sample_size=123, seed=9)
        report = run_experiment(config)
        assert report.fragments_sampled == 123

    def test_oversampling_without_replacement_fails(self):
        config = make_config(strand_count=10, break_model=ExactlyT(t=0), sample_size=11, seed=9)
        with pytest.raises(ValueError):
            run_experiment(config)

    def test_with_replacement_allows_oversampling(self):
        config = make_config(strand_count=10, break_model=ExactlyT(t=0), sample_size=50,
                             with_replacement=True, seed=9)
        assert run_experiment(config).fragments_sampled == 50

    def test_report_json_shape(self):
        config = make_config(strand_count=100, seed=2)
        obj = json.loads(run_experiment(config).to_json())
        assert list(obj.keys()) == [
            "fragments_sampled",
            "discarded_fraction",
            "marker_only_fraction",
            "coverage_min",
            "coverage_mean",
            "symbol_error_count",
            "exact_recovery",
            "estimated_matrix",
        ]
        assert set(obj["estimated_matrix"].keys()) == {"q", "M", "columns"}


class TestPipelineContract:
    """run_experiment is the public stages chained on the same lanes."""

    @pytest.mark.parametrize("with_replacement", [False, True])
    @pytest.mark.parametrize("model", [PerBond(p=0.03), ExactlyT(t=1, bond_range=(5, 55)), AtMostT(t=2)])
    def test_matches_staged_public_pipeline(self, model, with_replacement):
        config = make_config(strand_count=600, break_model=model, sample_size=700,
                             with_replacement=with_replacement, seed=41)
        params, seed = config.code_params, config.seed
        codeword = construct_codeword(random_message(params, seed), params)
        strands = synthesize(codeword, config.strand_count, seed)
        pool = break_strands(params.n, model, config.strand_count, seed)
        picked = sample_fragments(pool, 700, with_replacement, substream(seed, LANE_SAMPLE))
        aligned = align_pool(strands, picked, params)
        estimate = estimate_matrix(aligned.count_table, params)

        report = run_experiment(config)
        assert report.estimated_matrix == estimate
        errors = int((estimate.counts != codeword.counts).any(axis=0).sum())
        coverage = aligned.count_table.sum(axis=0)[[j - 1 for j in layout(params).data_positions()]]
        assert report.fragments_sampled == 700
        assert report.discarded_fraction == aligned.tallies[FragmentClass.DISCARD] / 700
        assert report.marker_only_fraction == aligned.tallies[FragmentClass.MARKER_ONLY] / 700
        assert report.coverage_min == float(coverage.min())
        assert report.coverage_mean == float(coverage.mean())
        assert report.symbol_error_count == errors
        assert report.exact_recovery == (errors == 0)

        # The triplets name the same fragments the list-of-fragments stage counts.
        listed = align_and_count(
            [strands[s, a - 1 : b] for s, a, b in zip(picked.strand, picked.start, picked.end)], params
        )
        assert (listed.count_table == aligned.count_table).all()
        assert listed.tallies == aligned.tallies


class TestBondRangeValidation:
    """t-break models are checked when built, not per strand mid-run."""

    def test_config_rejects_range_beyond_code_length(self):
        for bond_range in ((0, 70), (5, 70), (0, 10)):
            with pytest.raises(ValueError, match="outside"):
                make_config(n=60, break_model=ExactlyT(t=1, bond_range=bond_range))

    def test_config_rejects_more_breaks_than_bonds(self):
        with pytest.raises(ValueError, match="cannot place"):
            make_config(n=60, break_model=ExactlyT(t=60))
        with pytest.raises(ValueError, match="cannot place"):
            make_config(n=60, break_model=AtMostT(t=60))

    def test_models_reject_empty_or_overfull_range(self):
        for kind in (ExactlyT, AtMostT):
            with pytest.raises(ValueError, match="empty"):
                kind(t=1, bond_range=(9, 3))
            with pytest.raises(ValueError, match="cannot place"):
                kind(t=3, bond_range=(5, 6))

    @pytest.mark.parametrize("kind", [ExactlyT, AtMostT])
    @pytest.mark.parametrize("bond_range, entry, shown", [((2.5, 20), 1, "2.5"), ((5, 20.0), 2, "20.0"),
                                                          ((True, 20), 1, "True")], ids=repr)
    def test_models_reject_an_entry_that_is_not_an_integer(self, kind, bond_range, entry, shown):
        # A float end once built a model that run_experiment then ran, truncating the candidate bonds.
        with pytest.raises(ValueError, match=rf"^bond range entry {entry} must be an integer, got {shown}$"):
            kind(t=1, bond_range=bond_range)

    def test_models_accept_numpy_integer_entries(self):
        assert ExactlyT(t=1, bond_range=(np.int64(5), np.uint8(20))).bonds(30) == (5, 20)

    @pytest.mark.parametrize("kind", [ExactlyT, AtMostT])
    @pytest.mark.parametrize("bond_range, shown", [((1, 2, 3), "[1, 2, 3]"), ((5,), "[5]"), ([], "[]"), (5, "5"),
                                                   ("ab", '"ab"')], ids=repr)
    def test_models_reject_a_range_that_is_not_two_integers(self, kind, bond_range, shown):
        # Unpacking (lo, hi) once raised "too many values to unpack" or "not enough values to unpack".
        with pytest.raises(ValueError, match=rf"^bond range must hold two integers, got {re.escape(shown)}$"):
            kind(t=1, bond_range=bond_range)

    @pytest.mark.parametrize("kind", [ExactlyT, AtMostT])
    def test_models_hold_the_range_as_a_tuple_of_ints(self, kind):
        # A list range was held as given: unhashable, and unequal to the same range as a tuple.
        model = kind(t=1, bond_range=[np.int64(5), 20])
        assert model == kind(t=1, bond_range=(5, 20)) and hash(model) == hash(kind(t=1, bond_range=(5, 20)))
        assert type(model.bond_range) is tuple and [type(end) for end in model.bond_range] == [int, int]
        assert json.dumps(channel.break_model_to_json_dict(model)).endswith('"bond_range": [5, 20]}')

    def test_simulate_exits_before_synthesis(self, tmp_path, monkeypatch, capsys):
        from compodna.cli import main

        obj = json.loads(make_config(n=60).to_json())
        obj["break_model"] = {"kind": "exactly_t", "t": 1, "bond_range": [0, 70]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))

        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesize ran before the config was rejected")

        monkeypatch.setattr(channel, "synthesize", no_synthesis)
        assert main(["simulate", "--config", str(path)]) == 1
        assert "bond range (0, 70) outside [1, 59]" in capsys.readouterr().err


@pytest.mark.parametrize("bond_range", [None, (5, 55)])
@pytest.mark.parametrize("kind, other, json_kind", [(ExactlyT, AtMostT, "exactly_t"), (AtMostT, ExactlyT, "at_most_t")])
def test_t_models_share_a_body_but_stay_distinct(kind, other, json_kind, bond_range):
    # An AtMostT that passed as an ExactlyT would be written as exactly_t and
    # draw exactly t breaks.
    model = kind(t=1, bond_range=bond_range)
    assert not isinstance(model, other)
    assert model != other(t=1, bond_range=bond_range)
    assert len({model, other(t=1, bond_range=bond_range), kind(t=1, bond_range=bond_range)}) == 2
    assert repr(model) == f"{kind.__name__}(t=1, bond_range={bond_range!r})"
    changed = dataclasses.replace(model, t=2)
    assert type(changed) is kind and changed == kind(t=2, bond_range=bond_range)
    for name in ("t", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, 2)
    obj = channel.break_model_to_json_dict(model)
    assert obj["kind"] == json_kind
    again = channel.break_model_from_json_dict(obj)
    assert type(again) is kind and again == model


class TestBondBreakProbability:
    """PerBond's p is a real number in [0, 1]; anything else is named, not compared."""

    @pytest.mark.parametrize("p", [True, False, "0.1", None, [0.1], 0.1j], ids=repr)
    def test_a_bool_or_a_non_number_is_rejected(self, p):
        # True was once held as p = 1.0, and the others raised TypeError from the range check.
        message = rf"^bond break probability must be a real number, got {re.escape(brief(p))}$"
        with pytest.raises(ValueError, match=message):
            PerBond(p)

    @pytest.mark.parametrize("p", [0, 1, 0.25, np.float32(0.25), np.int64(0), Fraction(1, 4)], ids=repr)
    def test_a_real_number_in_range_is_held_as_a_float(self, p):
        assert type(PerBond(p).p) is float and PerBond(p).p == float(p)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, math.inf])
    def test_out_of_range_keeps_its_message(self, p):
        message = rf"^bond break probability must be in \[0, 1\], got {re.escape(brief(p))}$"
        with pytest.raises(ValueError, match=message):
            PerBond(p)


class TestSeedRange:
    """Seeds outside [0, 2^64) are rejected, not reduced onto a seed inside it."""

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_substream_rejects(self, seed):
        with pytest.raises(ValueError, match=rf"seed {seed} outside \[0, 2\^64\)"):
            substream(seed, LANE_SYNTH)

    def test_substream_accepts_the_ends(self):
        assert substream(0, LANE_SYNTH).random() != substream(2**64 - 1, LANE_SYNTH).random()

    def test_run_experiment_rejects(self):
        with pytest.raises(ValueError, match="seed 18446744073709551616 outside"):
            run_experiment(make_config(seed=2**64))

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, np.float64(2)], ids=repr)
    def test_substream_rejects_a_seed_that_is_not_an_integer(self, seed):
        # A float seed would otherwise reach the stream's seeding, and 1.0 would run as seed 1.
        with pytest.raises(ValueError, match=rf"seed must be an integer, got {re.escape(repr(seed))}$"):
            substream(seed, LANE_SYNTH)

    def test_substream_accepts_a_numpy_integer_seed(self):
        assert substream(np.uint64(7), LANE_SYNTH).random() == substream(7, LANE_SYNTH).random()

    def test_float_seed_rejected_end_to_end(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5$"):
            run_experiment(make_config(seed=1.5))
        with pytest.raises(ValueError, match="seed must be an integer, got 1.9$"):
            random_message(make_config().code_params, 1.9)


class TestLaneAndLengthRange:
    """substream's lane and break_strands' n are checked before numpy sees them."""

    @pytest.mark.parametrize("lane", [-1, 16, 2**70])
    def test_substream_rejects_a_lane_outside_16(self, lane):
        with pytest.raises(ValueError, match=rf"substream lane {lane} outside \[0, 16\)$"):
            substream(1, lane)

    @pytest.mark.parametrize("index", [-1, 2**60])
    def test_substream_rejects_an_index_outside_2_to_the_60(self, index):
        with pytest.raises(ValueError, match=rf"^substream index {index} outside \[0, 2\^60\)$"):
            substream(1, 0, index)

    def test_substream_accepts_lane_15(self):
        assert substream(1, 15).random() != substream(1, 0).random()

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_every_lane_and_index_starts_its_own_stream(self, seed):
        firsts = {substream(seed, lane, index).bit_generator.random_raw() for lane in range(16) for index in range(3)}
        assert len(firsts) == 16 * 3

    @pytest.mark.parametrize("n", [30.0, 2.5, True, "30"], ids=repr)
    def test_break_strands_rejects_n_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match=rf"^strand length n must be an integer, got {re.escape(repr(n))}$"):
            break_strands(n, PerBond(0.1), 3, 1)

    def test_break_strands_accepts_a_numpy_integer_n(self):
        pool, again = break_strands(np.int64(30), PerBond(0.1), 3, 1), break_strands(30, PerBond(0.1), 3, 1)
        assert all((a == b).all() for a, b in zip(vars(pool).values(), vars(again).values()))

    @pytest.mark.parametrize("n", [0, -3])
    def test_break_strands_rejects_n_below_1(self, n):
        with pytest.raises(ValueError, match=rf"strand length must be >= 1, got n={n}$"):
            break_strands(n, PerBond(0.5), 3, 1)

    @pytest.mark.parametrize("model", [PerBond(0.5), ExactlyT(0), AtMostT(0)], ids=repr)
    def test_apply_breaks_traced_rejects_an_empty_strand(self, model):
        # The check break_strands makes, before numpy sees the empty strand.
        with pytest.raises(ValueError, match=r"strand length must be >= 1, got n=0$"):
            apply_breaks_traced(np.array([], np.uint8), model, substream(1, LANE_BREAK))

    def test_break_strands_at_n_1_keeps_each_strand_whole(self):
        pool = break_strands(1, PerBond(0.5), 3, 1)
        assert pool.strand.tolist() == [0, 1, 2] and pool.start.tolist() == pool.end.tolist() == [1, 1, 1]

    @pytest.mark.parametrize("kind", [ExactlyT, AtMostT])
    def test_zero_breaks_at_n_1_need_no_bond(self, kind):
        # A one-base strand has no bond; t = 0 places none, so each strand stays whole, as under PerBond above.
        pool = break_strands(1, kind(t=0), 3, 1)
        assert pool.strand.tolist() == [0, 1, 2] and pool.start.tolist() == pool.end.tolist() == [1, 1, 1]
        pieces = apply_breaks_traced(np.array([3]), kind(t=0), substream(1, LANE_BREAK, 0))
        assert [(s, piece.tolist()) for s, piece in pieces] == [(1, [3])]
        with pytest.raises(ValueError, match=r"cannot place 1 distinct breaks among 0 bonds"):
            break_strands(1, kind(t=1), 3, 1)


class TestHugeValuesInErrors:
    """A rejected integer past the 4300-digit int-to-str limit is named briefly, by the range it misses."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda v: PerBond(p=v), r"bond break probability must be in \[0, 1\], got 1000000000\.\.\. \(5001 digits\)$"),
            (lambda v: ExactlyT(t=-v), r"break count must be >= 0, got -1000000000\.\.\. \(5001 digits\)$"),
            (lambda v: substream(v, LANE_SYNTH), r"seed 1000000000\.\.\. \(5001 digits\) outside \[0, 2\^64\)$"),
            (lambda v: make_config(strand_count=-v), r"strand_count must be >= 1, got -1000000000\.\.\. \(5001 digits\)$"),
        ],
        ids=["p", "t", "seed", "strand_count"],
    )
    def test_message_names_the_range(self, make, message):
        with pytest.raises(ValueError, match=message) as exc:
            make(10**5000)
        assert len(str(exc.value)) < 200

    HUGE = r"1000000000\.\.\. \(5001 digits\)"

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda v: AlphabetParams(q=-v, M=1), rf"base alphabet size q must be >= 2, got -{HUGE}"),
            (lambda v: AlphabetParams(q=2, M=-v), rf"resolution parameter M must be >= 1, got -{HUGE}"),
            (lambda v: MarkerCodeParams(DNA, n=30, ell=-v), rf"marker run length ell must be >= 1, got -{HUGE}"),
            (lambda v: MarkerCodeParams(DNA, n=-v, ell=3),
             rf"codeword length n must be >= 11, got -{HUGE} \(too small for two markers plus one data column\)"),
            (lambda v: MarkerCodeParams(DNA, n=30, ell=3, marker_base=v), rf"marker_base {HUGE} outside \[1, 5\)"),
            (lambda v: MarkerCodeParams(DNA, n=30, ell=3, anchor_base=v), rf"anchor_base {HUGE} outside \[1, 5\)"),
            (lambda v: RllParams(Q=-v, R=0, ell=1, n=0), rf"alphabet size Q must be >= 2, got -{HUGE}"),
            (lambda v: RllParams(Q=4, R=v, ell=1, n=0), rf"restricted-subset size R {HUGE} outside \[0, 4\)"),
            (lambda v: RllParams(Q=4, R=1, ell=-v, n=0), rf"window length ell must be >= 1, got -{HUGE}"),
            (lambda v: RllParams(Q=4, R=1, ell=1, n=-v), rf"sequence length n must be >= 0, got -{HUGE}"),
            (lambda v: make_config(sample_size=-v),
             rf"sample_size must be >= 1, got -{HUGE} \(or null for the full pool\)"),
            (lambda v: substream(1, v), rf"substream lane {HUGE} outside \[0, 16\)"),
            (lambda v: substream(1, 0, v), rf"substream index {HUGE} outside \[0, 2\^60\)"),
            (lambda v: synthesize(make_codeword(make_config().code_params), -v, 1),
             rf"strand count must be >= 1, got -{HUGE}"),
            (lambda v: break_strands(30, PerBond(0.1), -v, 1), rf"strand count must be >= 1, got -{HUGE}"),
            (lambda v: sample_fragments([1, 2], -v, False, substream(1, LANE_SAMPLE)),
             rf"sample size must be >= 1, got -{HUGE}"),
            (lambda v: sample_fragments([1, 2], v, False, substream(1, LANE_SAMPLE)),
             rf"cannot sample {HUGE} fragments from a pool of 2 without replacement"),
            (lambda v: run_experiment(make_config(), workers=-v), rf"workers must be >= 1, got -{HUGE}"),
            (lambda v: unrank_symbol(v, DNA), rf"symbol index {HUGE} outside \[0, 84\)"),
            (lambda v: restricted_symbol_count(DNA, v), rf"base index {HUGE} outside \[1, 5\)"),
            (lambda v: optimal_marker_length(4, 6, -v), rf"codeword length n must be >= 9, got -{HUGE}"),
            (lambda v: asymptotic_optimal_ell(84, -v, 100), rf"restricted-subset size R must be >= 1, got -{HUGE}"),
            (lambda v: asymptotic_optimal_ell(-v, 56, 100), rf"alphabet size Q must be >= 57, got -{HUGE}"),
            (lambda v: asymptotic_optimal_ell(84, 56, -v), rf"length n must be >= 3, got -{HUGE}"),
            (lambda v: is_run_length_limited([], -v), rf"window length ell must be >= 1, got -{HUGE}"),
            (lambda v: forbidden_block_count(v, 2, Q=2, R=1, ell=2), rf"run start j {HUGE} outside \[1, 4\)"),
            (lambda v: forbidden_block_count(1, v, Q=2, R=1, ell=2),
             rf"run length k {HUGE} outside \[2, 5\) \(for run start j=1\)"),
            (lambda v: redundancy_upper_bounds(RllParams(Q=4, R=1, ell=v, n=3)),
             rf"sequence length n must be >= {HUGE}, got 3 \(at least the window length ell\)"),
        ],
        ids=["q", "M", "ell", "n", "marker_base", "anchor_base", "Q", "R", "rll-ell", "rll-n", "sample_size", "lane",
             "index", "synthesize", "break_strands", "sample_fragments", "without-replacement", "workers",
             "unrank_symbol", "restricted_symbol_count", "optimal_marker_length", "asymptotic-R", "asymptotic-Q",
             "asymptotic-n", "is_run_length_limited", "run-start", "run-length", "upper-bounds"],
    )
    def test_every_integer_argument_names_its_range(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$") as exc:
            make(10**5000)
        assert len(str(exc.value)) < 200

    def test_mistyped_field_names_its_kind(self):
        obj = json.loads(make_config().to_json())
        with pytest.raises(ValueError, match=rf"^config\.code_params must be an object, got {self.HUGE}$"):
            ChannelConfig.from_json_dict(dict(obj, code_params=10**5000))
        with pytest.raises(ValueError, match=rf"^config\.seed must be an integer, got \[{self.HUGE}\]$"):
            ChannelConfig.from_json_dict(dict(obj, seed=[10**5000]))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda v: ExactlyT(1, (5, v)).bonds(30), rf"bond range \(5, {HUGE}\) outside \[1, 29\]"),
            (lambda v: AtMostT(1, (v, 5)), rf"bond range \({HUGE}, 5\) is empty"),
            (lambda v: ExactlyT(v).bonds(30), rf"cannot place {HUGE} distinct breaks among 29 bonds"),
        ],
        ids=["outside", "empty", "t"],
    )
    def test_bond_range_messages_show_numbers_briefly(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make(10**5000)

    def test_bond_range_of_three_names_its_entries(self):
        model = {"kind": "exactly_t", "t": 1, "bond_range": [10**5000, 1, 2]}
        with pytest.raises(ValueError, match=rf"must hold two integers, got \[{self.HUGE}, 1, 2\]$"):
            channel.break_model_from_json_dict(model)


class TestIntegerArguments:
    """An integer argument is an int or a numpy integer, never a float or a bool, and a rejected
    one is named in the error. Each site below takes `make(value)` and is valid at `good`."""

    SITES = {
        "q": (lambda v: AlphabetParams(q=v, M=6), "base alphabet size q", 4),
        "M": (lambda v: AlphabetParams(q=4, M=v), "resolution parameter M", 6),
        "ell": (lambda v: MarkerCodeParams(DNA, n=30, ell=v), "marker run length ell", 3),
        "n": (lambda v: MarkerCodeParams(DNA, n=v, ell=3), "codeword length n", 30),
        "marker_base": (lambda v: MarkerCodeParams(DNA, n=30, ell=3, marker_base=v), "marker_base", 1),
        "anchor_base": (lambda v: MarkerCodeParams(DNA, n=30, ell=3, anchor_base=v), "anchor_base", 2),
        "Q": (lambda v: RllParams(Q=v, R=1, ell=2, n=5), "alphabet size Q", 4),
        "R": (lambda v: RllParams(Q=4, R=v, ell=2, n=5), "restricted-subset size R", 1),
        "rll-ell": (lambda v: RllParams(Q=4, R=1, ell=v, n=5), "window length ell", 2),
        "rll-n": (lambda v: RllParams(Q=4, R=1, ell=2, n=v), "sequence length n", 5),
        "t": (lambda v: ExactlyT(t=v), "break count", 1),
        "strand_count": (lambda v: make_config(strand_count=v), "strand_count", 20),
        "sample_size": (lambda v: make_config(sample_size=v), "sample_size", 10),
        "lane": (lambda v: substream(1, v), "substream lane", 2),
        "index": (lambda v: substream(1, 0, v), "substream index", 3),
        "synthesize": (lambda v: synthesize(make_codeword(make_config().code_params), v, 1), "strand count", 5),
        "break_strands": (lambda v: break_strands(30, PerBond(0.1), v, 1), "strand count", 5),
        "sample_fragments": (lambda v: sample_fragments([1, 2], v, True, substream(1, LANE_SAMPLE)), "sample size", 2),
        "workers": (lambda v: run_experiment(make_config(strand_count=20), workers=v), "workers", 2),
        "unrank_symbol": (lambda v: unrank_symbol(v, DNA), "symbol index", 5),
        "restricted_symbol_count": (lambda v: restricted_symbol_count(DNA, v), "base index", 2),
        "optimal_marker_length": (lambda v: optimal_marker_length(4, 6, v), "codeword length n", 30),
        "asymptotic-R": (lambda v: asymptotic_optimal_ell(84, v, 100), "restricted-subset size R", 56),
        "asymptotic-Q": (lambda v: asymptotic_optimal_ell(v, 56, 100), "alphabet size Q", 84),
        "asymptotic-n": (lambda v: asymptotic_optimal_ell(84, 56, v), "length n", 100),
        "is_run_length_limited": (lambda v: is_run_length_limited([True], v), "window length ell", 2),
        "run-start": (lambda v: forbidden_block_count(v, 2, Q=2, R=1, ell=2), "run start j", 1),
        "run-length": (lambda v: forbidden_block_count(1, v, Q=2, R=1, ell=2), "run length k", 2),
        "identities": (lambda v: verify_summation_identities(3, 1, v), "window length ell", 2),
    }

    @pytest.mark.parametrize("kind", [float, bool, np.float64], ids=["float", "bool", "np.float64"])
    @pytest.mark.parametrize("site", list(SITES))
    def test_a_float_or_a_bool_is_rejected(self, site, kind):
        make, name, good = self.SITES[site]
        value = kind(good)
        # Each value is in range, so before it was read as the integer it equals (or failed inside numpy).
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(brief(value))}$"):
            make(value)

    @pytest.mark.parametrize("site", list(SITES))
    def test_a_numpy_integer_is_accepted(self, site):
        make, _, good = self.SITES[site]
        make(np.int64(good))


class TestResolutionLimits:
    """Synthesis reads base-M slots from 32 bits and the message draw radices up to 2^63:
    past either limit a run stops with an error naming the value, before any draw."""

    @pytest.mark.parametrize("m, shown", [(2**32 + 1, "4294967297"), (10**5000, r"1000000000\.\.\. \(5001 digits\)")],
                             ids=["2^32+1", "10^5000"])
    def test_config_and_synthesize_reject_m_past_2_to_the_32(self, m, shown, monkeypatch):
        message = rf"so M must be <= 2\^32, got M={shown}$"
        alphabet = AlphabetParams(q=2, M=m)
        with pytest.raises(ValueError, match=message):
            ChannelConfig(MarkerCodeParams(alphabet=alphabet, n=20, ell=2), 10, ExactlyT(t=1), None, False, 1)

        def no_draw(*args):
            raise AssertionError("synthesize drew before rejecting M")

        monkeypatch.setattr(channel, "substream", no_draw)
        with pytest.raises(ValueError, match=message):
            synthesize(CompositeMatrix(np.transpose([(m, 0)] * 3), alphabet), 5, seed=1)

    @pytest.mark.parametrize("q", [32768, 40000])
    def test_config_and_synthesize_reject_q_past_int16(self, q, monkeypatch):
        # Strands hold bases as int16: base 32768 would wrap to -32768.
        message = rf"so q must be <= 32767, got q={q}$"
        alphabet = AlphabetParams(q=q, M=1)
        with pytest.raises(ValueError, match=message):
            ChannelConfig(MarkerCodeParams(alphabet=alphabet, n=13, ell=3), 2, ExactlyT(t=1), None, False, 1)
        counts = np.zeros((q, 13), dtype=np.int64)
        counts[q - 1] = 1  # every column on base q

        def no_draw(*args):
            raise AssertionError("synthesize drew before rejecting q")

        monkeypatch.setattr(channel, "substream", no_draw)
        with pytest.raises(ValueError, match=message):
            synthesize(CompositeMatrix(counts, alphabet), 2, seed=1)

    def test_message_draw_names_a_radix_past_2_to_the_63(self):
        params = MarkerCodeParams(alphabet=AlphabetParams(q=4, M=2**31), n=20, ell=2)
        column, radix = layout(params).data_positions()[0], message_radices(params)[0]
        with pytest.raises(ValueError, match=rf"radices <= 2\^63, but column {column} has radix {radix}$"):
            random_message(params, 1)

    def test_config_rejects_a_radix_past_2_to_the_63(self, monkeypatch):
        # q = 4, M = 2^31: M fits synthesis, but free-column radices C(M + 3, 3) pass 2^63.
        params = MarkerCodeParams(alphabet=AlphabetParams(q=4, M=2**31), n=20, ell=2)
        column, radix = layout(params).data_positions()[0], message_radices(params)[0]

        def no_draw(*args):
            raise AssertionError("a stream was opened before the config was rejected")

        monkeypatch.setattr(channel, "substream", no_draw)
        with pytest.raises(ValueError, match=rf"radices <= 2\^63, but column {column} has radix {radix}$"):
            ChannelConfig(params, 10, ExactlyT(t=1), None, False, 1)

    @pytest.mark.parametrize("q, m, n, error", [(4, 6, 10**30, None), (32767, 1, 40, None), (10**30, 1, 40, "column 6")],
                             ids=["n=10^30", "q=32767", "q=10^30"])
    def test_config_load_does_not_build_the_layout(self, monkeypatch, q, m, n, error):
        # Any n, and q up to the int16 cap, load, or fail on a radix, without an O(n) or O(q) layout.
        def no_layout(*args):
            raise AssertionError("the config built the layout")

        for module in (channel, marker):
            monkeypatch.setattr(module, "layout", no_layout)
        monkeypatch.setattr(channel, "message_radices", no_layout)
        params = MarkerCodeParams(alphabet=AlphabetParams(q=q, M=m), n=n, ell=3)
        if error is None:
            ChannelConfig(params, 10, ExactlyT(t=1, bond_range=(5, 15)), None, False, 1)
        else:
            with pytest.raises(ValueError, match=f"{error} has radix {q}$"):
                ChannelConfig(params, 10, ExactlyT(t=1, bond_range=(5, 15)), None, False, 1)

    def test_message_draw_takes_a_radix_of_2_to_the_63(self):
        # q = 2: a free column's radix is M + 1, a breaker's 1.
        params = MarkerCodeParams(alphabet=AlphabetParams(q=2, M=2**63 - 1), n=20, ell=2)
        assert max(message_radices(params)) == 2**63
        assert all(0 <= symbol < 2**63 for symbol in random_message(params, 1))


class TestMemoryLinearInQ:
    """Every q the strands hold runs in memory linear in q * n: no stage compares the
    bases of a column pairwise or copies the base limits once per strand."""

    @staticmethod
    def _traced(call):
        """call()'s result and the peak of the memory traced while it ran."""
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_synthesis_and_estimation_stay_small_at_q_1024(self):
        params = MarkerCodeParams(alphabet=AlphabetParams(q=1024, M=2), n=40, ell=3)
        codeword = construct_codeword(random_message(params, 1), params)
        strands, peak = self._traced(lambda: synthesize(codeword, 2000, seed=1))
        assert peak < 8 << 20
        table = align_pool(strands, break_strands(40, PerBond(0.01), 2000, seed=1), params).count_table
        estimate, peak = self._traced(lambda: estimate_matrix(table, params))
        assert peak < 8 << 20
        assert estimate == codeword

    def test_estimation_at_q_32767_stays_within_three_tables(self):
        # Apportioned in column blocks: beside the table, only the estimate is held whole.
        params = MarkerCodeParams(alphabet=AlphabetParams(q=32767, M=1), n=100, ell=3)
        codeword = construct_codeword(random_message(params, 1), params)
        table = np.array(codeword.counts)  # one aligned base a column, the codeword's own
        estimate, peak = self._traced(lambda: estimate_matrix(table, params))
        assert estimate == codeword
        assert peak < 3 * table.nbytes

    def test_estimate_is_held_once_at_q_32767(self):
        # estimate_matrix hands its array to the matrix it returns, which does not copy it.
        params = MarkerCodeParams(alphabet=AlphabetParams(q=32767, M=1), n=100, ell=3)
        codeword = construct_codeword(random_message(params, 1), params)
        table = np.array(codeword.counts)
        estimate, peak = self._traced(lambda: estimate_matrix(table, params))
        assert estimate == codeword
        assert peak < 1.5 * estimate.counts.nbytes

    def test_run_experiment_at_sim_short_keeps_its_heap_budget(self):
        # glibc trims the heap past twice the largest freed mmapped chunk, here the 1 MB byte strand
        # matrix; an operation whose temporaries pass that budget gives its pages back at every end
        # and faults them in again at the next start.
        params = MarkerCodeParams(alphabet=DNA, n=100, ell=3)
        config = ChannelConfig(params, 10_000, ExactlyT(1, (5, 95)), None, False, 1)
        run_experiment(config)  # the first call's one-off costs (the layout its params hold) are no operation's
        report, peak = self._traced(lambda: run_experiment(config))
        assert report.exact_recovery
        assert peak < 2_200_000

    def test_run_experiment_at_q_32767(self):
        params = MarkerCodeParams(alphabet=AlphabetParams(q=32767, M=1), n=13, ell=3)
        config = ChannelConfig(params, 8, PerBond(0.01), None, False, 1)
        report, peak = self._traced(lambda: run_experiment(config))
        assert report.exact_recovery
        assert peak < 64 << 20


class TestLayoutBuiltOnce:
    """A params object builds its layout on first use and holds it, so one run_experiment builds it
    once at any q * n, here past 2^16 cells."""

    def test_one_build_a_run(self, monkeypatch):
        params = MarkerCodeParams(alphabet=AlphabetParams(q=2048, M=1), n=40, ell=3)
        assert params.q * params.n > 1 << 16
        built, calls = marker._build_layout, []

        def record(params):
            calls.append(params)
            return built(params)

        monkeypatch.setattr(marker, "_build_layout", record)
        report = run_experiment(ChannelConfig(params, 8, PerBond(0.01), None, False, 1))
        assert calls == [params]
        assert report.exact_recovery


class TestMessageDraw:
    """random_message draws every radix in one call; it reads the message lane as one
    scalar draw per radix, in column order, would."""

    @staticmethod
    def digest(message):
        return hashlib.sha256(json.dumps(message).encode()).hexdigest()

    @pytest.mark.parametrize("q, m, n, ell", [(4, 6, 100, 3), (4, 6, 1000, 5), (3, 2**20, 60, 3), (4, 2**20, 60, 4),
                                              (2, 2**63 - 1, 40, 3)],
                             ids=["84/56", "n=1000", "mixed past 2^32", "past 2^32", "radix 2^63"])
    def test_matches_per_radix_draws(self, q, m, n, ell):
        params = MarkerCodeParams(alphabet=AlphabetParams(q=q, M=m), n=n, ell=ell)
        for seed in range(20):
            gen = substream(seed, channel.LANE_MESSAGE)
            scalar = [int(gen.integers(0, radix)) for radix in message_radices(params)]
            assert self.digest(random_message(params, seed)) == self.digest(scalar)


class TestTraceStats:
    def _traced(self, model, seed=3, strand_count=2000):
        config = make_config(n=60, strand_count=strand_count, break_model=model, seed=seed)
        params = config.code_params
        report, stats = run_experiment_traced(config)
        codeword = construct_codeword(random_message(params, seed), params)
        strands = synthesize(codeword, strand_count, seed)
        pool = break_strands(params.n, model, strand_count, seed)
        picked = sample_fragments(pool, len(pool), False, substream(seed, LANE_SAMPLE))
        return stats, picked, align_pool(strands, picked, params)

    @pytest.mark.parametrize("model", [PerBond(p=0.05), ExactlyT(t=2), AtMostT(t=3),
                                       ExactlyT(t=1, bond_range=(5, 55))])
    def test_confusion_margins(self, model):
        stats, picked, aligned = self._traced(model)
        assert sum(stats.true_class_counts.values()) == stats.sampled_fragments == len(picked)
        for true, row in stats.confusion.items():
            assert sum(row.values()) == stats.true_class_counts[true]
        for kind in FragmentClass:
            assert sum(row[kind.value] for row in stats.confusion.values()) == aligned.tallies[kind]

    def test_true_classes_are_positional(self):
        stats, picked, aligned = self._traced(PerBond(p=0.05))
        first, last = picked.start == 1, picked.end == 60
        assert stats.true_class_counts == {
            "Full": int((first & last).sum()),
            "Prefix": int((first & ~last).sum()),
            "Suffix": int((~first & last).sum()),
            "Discard": int((~first & ~last).sum()),
        }
        # Short end pieces are discarded by the classifier but are true
        # prefixes and suffixes, so the two Discard counts differ.
        assert stats.true_class_counts["Discard"] != aligned.tallies[FragmentClass.DISCARD]

    def test_errors_are_contradicted_predictions(self):
        stats, _, _ = self._traced(PerBond(p=0.05))
        c = stats.confusion
        contradicted = (
            sum(c[t]["Full"] for t in ("Prefix", "Suffix", "Discard"))
            + sum(c[t]["Prefix"] for t in ("Suffix", "Discard"))
            + sum(c[t]["Suffix"] for t in ("Prefix", "Discard"))
            + c["Discard"]["MarkerOnly"]
        )
        assert stats.classification_errors == contradicted == 0

    def test_each_contradicted_cell_counts_once(self):
        # One fragment per true class on a strand of length 10, against
        # every predicted class: an error is a predicted marker end the
        # fragment's true position lacks.
        spans = {"Full": (1, 10), "Prefix": (1, 5), "Suffix": (6, 10), "Discard": (3, 7)}
        for true, (start, end) in spans.items():
            for code, kind in enumerate(FragmentClass):
                picked = channel.FragmentPool(np.zeros(1, np.int32), np.array([start], np.int32),
                                              np.array([end], np.int32))
                stats = channel._trace_stats(picked, np.array([code], np.int8), 10)
                expected = {
                    FragmentClass.FULL: (start, end) != (1, 10),
                    FragmentClass.PREFIX: start != 1,
                    FragmentClass.SUFFIX: end != 10,
                    FragmentClass.MARKER_ONLY: start != 1 and end != 10,
                    FragmentClass.DISCARD: False,
                }[kind]
                assert stats.classification_errors == int(expected), (true, kind)
                assert stats.confusion[true][kind.value] == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_data_break_is_never_discarded(self, seed):
        # Acceptance 8's config. One break on a data bond leaves a prefix and
        # a suffix, so no fragment is truly Discard; the classifier must not
        # discard any either.
        params = MarkerCodeParams(alphabet=DNA, n=100, ell=3)
        config = make_config(n=100, strand_count=10_000, seed=seed,
                             break_model=ExactlyT(t=1, bond_range=(params.ell + 2, params.n - params.ell - 2)))
        report, stats = run_experiment_traced(config)
        assert sum(row["Discard"] for row in stats.confusion.values()) == 0
        assert report.discarded_fraction == 0.0
        assert stats.classification_errors == 0


class TestConfigSerialization:
    def test_roundtrip(self):
        config = make_config(break_model=ExactlyT(t=1, bond_range=(5, 55)), sample_size=77)
        again = ChannelConfig.from_json(config.to_json())
        assert again == config

    def test_roundtrip_all_models(self):
        for model in (PerBond(p=0.25), ExactlyT(t=3), AtMostT(t=2, bond_range=(1, 9))):
            config = make_config(break_model=model)
            assert ChannelConfig.from_json(config.to_json()) == config

    def test_default_seed_used_when_missing(self):
        obj = json.loads(make_config(seed=1).to_json())
        del obj["seed"]
        config = ChannelConfig.from_json_dict(obj, default_seed=555)
        assert config.seed == 555
        with pytest.raises(ValueError, match="seed"):
            ChannelConfig.from_json_dict(obj)

    def test_unknown_break_kind_rejected(self):
        obj = json.loads(make_config().to_json())
        obj["break_model"] = {"kind": "mystery"}
        with pytest.raises(ValueError, match="mystery"):
            ChannelConfig.from_json_dict(obj)

    def test_message_depends_only_on_seed(self):
        params = MarkerCodeParams(alphabet=DNA, n=40, ell=3)
        assert random_message(params, seed=1) == random_message(params, seed=1)
        assert random_message(params, seed=1) != random_message(params, seed=2)

    def test_unknown_top_level_key_rejected(self):
        obj = json.loads(make_config().to_json())
        obj["sample_sise"] = 10
        with pytest.raises(ValueError, match="sample_sise"):
            ChannelConfig.from_json_dict(obj)

    def test_unknown_code_params_key_rejected(self):
        obj = json.loads(make_config().to_json())
        obj["code_params"]["marker_bsae"] = 3
        with pytest.raises(ValueError, match="marker_bsae"):
            ChannelConfig.from_json_dict(obj)

    def test_unknown_break_model_key_rejected(self):
        obj = json.loads(make_config(break_model=PerBond(p=0.1)).to_json())
        obj["break_model"]["t"] = 2  # a field of the other kinds, not of per_bond
        with pytest.raises(ValueError, match="'t'"):
            ChannelConfig.from_json_dict(obj)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "with_replacement", "false"),  # a truthy string
            (None, "strand_count", 50.9),
            (None, "strand_count", None),
            ("code_params", "ell", True),  # a bool is not an integer
            ("break_model", "bond_range", [5, 55, 7]),
            (None, "break_model", []),
            (None, "code_params", 3),
        ],
    )
    def test_mistyped_field_rejected(self, section, key, value):
        obj = json.loads(make_config(break_model=ExactlyT(t=1, bond_range=(5, 55))).to_json())
        (obj if section is None else obj[section])[key] = value
        with pytest.raises(ValueError, match=key):
            ChannelConfig.from_json_dict(obj)


class TestCheckedIntegersHeldAsInts:
    """A params object or config built from numpy integers holds each as the Python int that
    _int_arg returns: before, it held the numpy integer, which json.dumps cannot write."""

    def test_a_numpy_config_writes_and_reads_back(self):
        code = MarkerCodeParams(AlphabetParams(q=np.int64(4), M=6), n=60, ell=3)
        config = ChannelConfig(code, 20, ExactlyT(np.int64(1)), None, False, 1)
        assert ChannelConfig.from_json(config.to_json()) == config
        assert repr(ExactlyT(np.int64(1))) == "ExactlyT(t=1, bond_range=None)"

    def test_every_integer_field_is_an_int(self):
        i = np.int64
        code = MarkerCodeParams(AlphabetParams(q=i(4), M=np.uint8(6)), n=i(60), ell=i(3), marker_base=i(3),
                                anchor_base=np.int32(1))
        config = ChannelConfig(code, i(20), AtMostT(i(2), (i(5), np.uint16(50))), i(10), np.True_, np.uint64(7))
        rll_params = RllParams(Q=i(84), R=i(56), ell=i(3), n=np.uint32(20))
        held = [
            code.q, code.M, code.n, code.ell, code.marker_base, code.anchor_base,
            config.strand_count, config.break_model.t, *config.break_model.bond_range, config.sample_size,
            config.seed, rll_params.Q, rll_params.R, rll_params.ell, rll_params.n,
        ]
        assert [type(value) for value in held] == [int] * len(held)
        assert config.with_replacement is True
        assert json.loads(config.to_json())["seed"] == 7


class TestConfigChecksEveryField:
    """ChannelConfig checks each field when it is built, not when run_experiment first reads it."""

    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, r"seed -1 outside \[0, 2\^64\)"),
            (2**70, r"seed 1180591620717411303424 outside \[0, 2\^64\)"),
            (1.5, "seed must be an integer, got 1.5"),
            ("x", "seed must be an integer, got 'x'"),
            (True, "seed must be an integer, got True"),
        ],
        ids=repr,
    )
    def test_a_bad_seed_is_rejected_when_built(self, seed, message):
        # Each was held until run_experiment drew its first stream.
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_config(seed=seed)

    @pytest.mark.parametrize("value", ["yes", 1, None, 0.0], ids=repr)
    def test_with_replacement_must_be_a_bool(self, value):
        # "yes" was held and written out, and the config then failed to read back.
        with pytest.raises(ValueError, match=rf"^with_replacement must be a bool, got {re.escape(repr(value))}$"):
            make_config(with_replacement=value)

    def test_a_numpy_bool_is_held_as_a_bool(self):
        config = make_config(with_replacement=np.False_)
        assert config.with_replacement is False and ChannelConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize(
        "field, value",
        [("code_params", DNA), ("code_params", None), ("break_model", 0.1), ("break_model", PerBond)],
        ids=["alphabet", "none", "float", "class"],
    )
    def test_a_part_of_the_wrong_type_is_named(self, field, value):
        # Each raised AttributeError from the first field read.
        with pytest.raises(ValueError, match=rf"^{field} must be a "):
            dataclasses.replace(make_config(), **{field: value})

"""Property tests of the array channel core: split invariance, the array
classifier/counter against a per-fragment oracle, the column count against
the gather, Floyd bond draws, the cut and synthesis cores against scalar
references, synthesis's chunk values and table sizes, block-size invariance,
and the pinned outputs of synthesis, breaking and run_experiment."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compodna import (
    AlphabetParams,
    AtMostT,
    ChannelConfig,
    CompositeMatrix,
    ExactlyT,
    FragmentClass,
    MarkerCodeParams,
    PerBond,
    align_and_count,
    apply_breaks_traced,
    classify_fragment,
    construct_codeword,
    message_radices,
    random_message,
    run_experiment_traced,
    sample_fragments,
    substream,
    synthesize,
)
from compodna import channel
from compodna.channel import LANE_BREAK, LANE_SAMPLE, LANE_SYNTH, FragmentPool, align_pool, break_strands

DNA = AlphabetParams(q=4, M=6)
PROPERTY = settings(max_examples=40, deadline=None)


def oracle_align(fragments, params):
    """Per-fragment reference: classify_fragment plus np.add.at at its anchor."""
    q, n = params.q, params.n
    table = np.zeros((q, n), dtype=np.int64)
    classes = []
    for frag in fragments:
        frag = np.asarray(frag)
        kind = FragmentClass.DISCARD if len(frag) > n else classify_fragment(frag, params)
        classes.append(kind)
        if kind is FragmentClass.FULL or kind is FragmentClass.PREFIX:
            start0 = 0
        elif kind is FragmentClass.SUFFIX:
            start0 = n - len(frag)
        else:
            continue
        np.add.at(table, (frag - 1, np.arange(start0, start0 + len(frag))), 1)
    return classes, table


@st.composite
def code_params(draw):
    q = draw(st.integers(2, 4))
    ell = draw(st.integers(1, 4))
    n = draw(st.integers(2 * (ell + 2) + 1, 40))
    marker_base = draw(st.integers(1, q))  # includes marker_base = q
    anchor_base = draw(st.sampled_from([b for b in range(1, q + 1) if b != marker_base]))
    return MarkerCodeParams(alphabet=AlphabetParams(q=q, M=draw(st.integers(1, 6))), n=n, ell=ell,
                            marker_base=marker_base, anchor_base=anchor_base)


def random_fragments(params, rng, count):
    """Fragments of every length class, with and without marker blocks at each end."""
    n, q = params.n, params.q
    pattern = np.array(params.marker_pattern())
    span = len(pattern)
    lengths = {
        "short": lambda: int(rng.integers(0, span)),
        "span": lambda: span,
        "mid": lambda: int(rng.integers(span, n + 1)),
        "n": lambda: n,
        "long": lambda: int(rng.integers(n + 1, n + 6)),
    }
    names = list(lengths)
    frags = []
    for _ in range(count):
        length = lengths[names[rng.integers(len(names))]]()
        frag = rng.integers(1, q + 1, size=length).astype(np.int16)
        if length >= span and rng.random() < 0.6:
            frag[:span] = pattern
        if length >= span and rng.random() < 0.6:
            frag[length - span :] = pattern
        frags.append(frag)
    return frags


def random_codeword(params, rng):
    return construct_codeword([int(rng.integers(r)) for r in message_radices(params)], params)


MODELS = st.one_of(
    st.builds(PerBond, p=st.floats(0.0, 0.3)),
    st.builds(ExactlyT, t=st.integers(0, 4)),
    st.builds(AtMostT, t=st.integers(0, 4)),
)


class TestSplitInvariance:
    @PROPERTY
    @given(
        n=st.integers(11, 40),
        model=MODELS,
        cuts=st.lists(st.integers(1, 599), max_size=4),
        seed=st.integers(0, 2**63),
    )
    def test_slices_read_the_same_rows(self, n, model, cuts, seed):
        count = 600
        params = MarkerCodeParams(alphabet=DNA, n=n, ell=3)
        codeword = random_codeword(params, np.random.default_rng(seed % 1000))
        with pytest.MonkeyPatch.context() as patch:
            # 1000 draws or bases a block. Synthesis blocks hold 1000 // W strands of
            # W = ceil(n / 12) words: 250 to 500 from n = 13 on, so 600 strands cross them,
            # while at n <= 12 one block holds them all. Break blocks hold 1000 // w rows of w draws:
            # 25 to 100 under PerBond and 200 to 1000 under the t-models, and
            # column-count blocks 8000 // n = 200 to 727 (all 600 at n <= 13); the gaps' gather
            # ends a block every 1000 bases. A share of 0 counts by columns whatever is covered.
            patch.setattr(channel, "_BLOCK", 1000)
            patch.setattr(channel, "_COLUMN_COUNT_SHARE", 0)
            whole = synthesize(codeword, count, seed)
            pool = break_strands(n, model, count, seed)
            # Strand i's bases and cuts do not depend on how many strands are drawn.
            for m in [*sorted(set(cuts)), count]:
                assert (synthesize(codeword, m, seed) == whole[:m]).all()
                head = break_strands(n, model, m, seed)
                mine = pool.strand < m
                assert (head.strand == pool.strand[mine]).all()
                assert (head.start == pool.start[mine]).all()
                assert (head.end == pool.end[mine]).all()
            aligned = align_pool(whole, pool, params)
        frags = [whole[s, a - 1 : b] for s, a, b in zip(pool.strand, pool.start, pool.end)]
        gathered = align_and_count(frags, params)
        assert (aligned.count_table == gathered.count_table).all()
        assert (aligned.classes == gathered.classes).all()

    @PROPERTY
    @given(n=st.integers(11, 40), model=MODELS, index=st.integers(0, 300), seed=st.integers(0, 2**63))
    def test_per_strand_wrapper_reads_the_lane_row(self, n, model, index, seed):
        # apply_breaks_traced on a generator placed at strand `index`'s row
        # cuts exactly where break_strands does.
        width = n - 1 if isinstance(model, PerBond) else model.t + 1
        rng = substream(seed, LANE_BREAK)
        rng.bit_generator.advance(index * width)
        strand = np.arange(1, n + 1)
        pieces = apply_breaks_traced(strand, model, rng)
        pool = break_strands(n, model, index + 1, seed)
        mine = pool.strand == index
        assert [start for start, _ in pieces] == pool.start[mine].tolist()
        assert [int(piece[-1]) for _, piece in pieces] == pool.end[mine].tolist()


class TestArrayClassifierMatchesOracle:
    @PROPERTY
    @given(params=code_params(), count=st.integers(0, 600), seed=st.integers(0, 2**32))
    def test_fragment_lists(self, params, count, seed):
        frags = random_fragments(params, np.random.default_rng(seed), count)
        classes, table = oracle_align(frags, params)
        result = align_and_count(frags, params)
        assert [tuple(FragmentClass)[c] for c in result.classes] == classes
        assert (result.count_table == table).all()
        assert result.tallies == {kind: classes.count(kind) for kind in FragmentClass}

    @PROPERTY
    @given(params=code_params(), model=MODELS, replace=st.booleans(), seed=st.integers(0, 2**32))
    def test_pool_triplets(self, params, model, replace, seed):
        if not isinstance(model, PerBond) and model.t > params.n - 1:
            return
        rng = np.random.default_rng(seed)
        strands = synthesize(random_codeword(params, rng), 300, seed)
        pool = break_strands(params.n, model, 300, seed)
        picked = sample_fragments(pool, int(rng.integers(1, 2 * len(pool))) if replace else len(pool),
                                  replace, substream(seed, LANE_SAMPLE))
        picked = picked[rng.permutation(len(picked))]  # triplets out of pool order
        frags = [strands[s, a - 1 : b] for s, a, b in zip(picked.strand, picked.start, picked.end)]
        classes, table = oracle_align(frags, params)
        result = align_pool(strands, picked, params)
        assert [tuple(FragmentClass)[c] for c in result.classes] == classes
        assert (result.count_table == table).all()


    def test_first_block_without_usable_fragments(self):
        # 256 one-base fragments, all discarded, come first; the rest are whole strands.
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        strands = synthesize(random_codeword(params, np.random.default_rng(3)), 300, seed=3)
        pool = FragmentPool(
            strand=np.arange(300, dtype=np.int32),
            start=np.array([5] * 256 + [1] * 44, dtype=np.int32),
            end=np.array([5] * 256 + [30] * 44, dtype=np.int32),
        )
        frags = [strands[s, a - 1 : b] for s, a, b in zip(pool.strand, pool.start, pool.end)]
        classes, table = oracle_align(frags, params)
        assert set(classes[:256]) == {FragmentClass.DISCARD} and classes[256:] == [FragmentClass.FULL] * 44
        for result in (align_pool(strands, pool, params), align_and_count(frags, params)):
            assert [tuple(FragmentClass)[c] for c in result.classes] == classes
            assert (result.count_table == table).all() and table.sum() == 44 * 30


class TestClassTable:
    """channel._CLASS_OF at each fragment's code head + 2 * tail + 4 * (length == n) + 8 * (length ==
    span) against classify_fragment, on fragments that realize all ten reachable codes: no marker,
    either marker, both markers on a short fragment, Full, and a bare block with and without a marker."""

    def test_matches_classify_fragment(self):
        params = MarkerCodeParams(alphabet=DNA, n=20, ell=3)
        pattern, n = list(params.marker_pattern()), params.n
        span, filler = len(pattern), [b for b in range(1, 5) if b not in pattern]
        rng = np.random.default_rng(5)
        frags = []
        for length, head, tail in itertools.product(range(1, n + 1), (0, 1), (0, 1)):
            frag = rng.choice(filler, size=length).astype(np.int16)
            if length >= span:
                frag[:span] = pattern if head else frag[:span]
                frag[length - span :] = pattern if tail else frag[length - span :]
            frags.append(frag)
        result = align_and_count(frags, params)
        codes = set()
        for frag, predicted in zip(frags, result.classes):
            length = len(frag)
            head = length >= span and list(frag[:span]) == pattern
            tail = length >= span and list(frag[length - span :]) == pattern
            code = head + 2 * tail + 4 * (length == n) + 8 * (length == span)
            codes.add(code)
            want = tuple(FragmentClass).index(classify_fragment(frag, params))
            assert channel._CLASS_OF[code] == want and predicted == want
        assert codes == {0, 1, 2, 3, 4, 5, 6, 7, 8, 11}
        assert {code: tuple(FragmentClass)[channel._CLASS_OF[code]].value for code in codes} == {
            0: "Discard", 1: "Prefix", 2: "Suffix", 3: "Discard", 4: "Discard", 5: "Prefix", 6: "Suffix", 7: "Full",
            8: "Discard", 11: "MarkerOnly"}
        assert all(result.tallies.values())  # every class occurs


def plant_markers(strands, params, rng, share):
    """Write the marker pattern from a data column on, in about `share` of the strands,
    so that fragments starting or ending there carry a false marker."""
    pattern = np.array(params.marker_pattern())
    span, n = len(pattern), params.n
    rows = np.flatnonzero(rng.random(len(strands)) < share)
    for row, at in zip(rows, rng.integers(span, max(span, n - 2 * span) + 1, size=len(rows))):
        strands[row, at : at + span] = pattern


class TestInPlaceCountMatchesGather:
    """align_pool on break_strands pools in pool order: counted by columns (share rule 0,
    or the default) and gathered alone (share rule infinite) give the same result."""

    @PROPERTY
    @given(params=code_params(), model=MODELS, sample=st.sampled_from(["full", "part", "replace"]),
           plant=st.sampled_from([0, 0.3]), seed=st.integers(0, 2**32))
    def test_pool_order_samples(self, params, model, sample, plant, seed):
        if not isinstance(model, PerBond) and model.t > params.n - 1:
            return
        rng = np.random.default_rng(seed)
        strands = synthesize(random_codeword(params, rng), 300, seed)
        plant_markers(strands, params, rng, plant)
        pool = break_strands(params.n, model, 300, seed)
        k = {"full": len(pool), "part": int(rng.integers(1, len(pool) + 1)), "replace": 2 * len(pool)}[sample]
        picked = sample_fragments(pool, k, sample == "replace", substream(seed, LANE_SAMPLE))
        shares = []  # the share rule in force at each count by columns
        results = []
        with pytest.MonkeyPatch.context() as patch:
            counted = channel._count_by_columns

            def record(*args):
                shares.append(channel._COLUMN_COUNT_SHARE)
                return counted(*args)

            patch.setattr(channel, "_count_by_columns", record)
            for share in (0, channel._COLUMN_COUNT_SHARE, math.inf):
                patch.setattr(channel, "_COLUMN_COUNT_SHARE", share)
                results.append(align_pool(strands, picked, params))
        assert shares[:1] == [0] and math.inf not in shares
        for result in results[:2]:
            assert (result.count_table == results[2].count_table).all()
            assert (result.classes == results[2].classes).all()
            assert result.tallies == results[2].tallies


class TestRepeatedFragments:
    """In a pool-order sample drawn with replacement, the first copy of a repeated fragment
    counts by columns and its later copies are gathered."""

    def test_first_copies_count_by_columns(self, monkeypatch):
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        strands = synthesize(random_codeword(params, np.random.default_rng(6)), 400, 6)
        pool = break_strands(30, ExactlyT(t=1, bond_range=(6, 24)), 400, 6)
        picked = sample_fragments(pool, 2 * len(pool), True, substream(6, LANE_SAMPLE))
        offsets, lengths = picked.strand * 30 + picked.start, picked.end - picked.start + 1
        first = np.diff(offsets, prepend=-1) != 0
        once = first & (np.diff(offsets, append=offsets[-1] + 1) != 0)
        # First copies cover about 1 - e^-2 = 0.86 of the matrix, fragments drawn once about
        # 2e^-2 = 0.27: only the first-copy rule reaches the share cut.
        assert lengths[first].sum() > 0.8 * strands.size and lengths[once].sum() < 0.35 * strands.size
        counted, calls = channel._count_by_columns, []

        def record(strands, lo, hi, table):
            calls.append(np.stack((lo, hi), axis=1).ravel())  # the ranges' edges, interleaved
            counted(strands, lo, hi, table)

        monkeypatch.setattr(channel, "_count_by_columns", record)
        by_columns = align_pool(strands, picked, params)
        assert len(calls) == 1
        monkeypatch.setattr(channel, "_COLUMN_COUNT_SHARE", math.inf)
        gathered = align_pool(strands, picked, params)
        assert len(calls) == 1
        assert (by_columns.count_table == gathered.count_table).all()
        assert (by_columns.classes == gathered.classes).all()
        assert by_columns.tallies == gathered.tallies
        # The column count covered exactly the first copies of the usable fragments.
        usable = by_columns.classes <= tuple(FragmentClass).index(FragmentClass.SUFFIX)
        assert (calls[0][1::2] - calls[0][::2]).sum() == lengths[first & usable].sum()


class TestColumnCountGaps:
    """The column count less the gaps against the gather alone (share rule infinite), at every
    block size: a gap from flat index 0, one to the matrix's end, gaps of whole rows, gaps
    across row ends, a gap inside every row, no gap, and no range at all (one gap)."""

    N, ROWS = 30, 12
    # Break model, fragments left out as (strand, "all" | "head" | "tail"), and a check of
    # the gaps (flat [start, end) ranges) for an n-column, r-row matrix.
    TWO = ExactlyT(t=1, bond_range=(6, 24))  # a Prefix and a Suffix per strand
    CASES = {
        "no gap": (TWO, [], lambda gaps, n, r: gaps == []),
        "from index 0": (ExactlyT(t=0), [(0, "all")], lambda gaps, n, r: gaps == [(0, n)]),
        "to the end": (ExactlyT(t=0), [(ROWS - 1, "all")], lambda gaps, n, r: gaps == [((r - 1) * n, r * n)]),
        "whole rows": (ExactlyT(t=0), [(3, "all"), (4, "all"), (5, "all")],
                       lambda gaps, n, r: gaps == [(3 * n, 6 * n)]),
        "across row ends": (
            TWO,
            [(0, "head"), (6, "tail"), (7, "all"), (8, "head"), (ROWS - 1, "tail")],
            lambda gaps, n, r: len(gaps) == 3 and gaps[0][0] == 0 and gaps[2][1] == r * n
            and 6 * n < gaps[1][0] < 7 * n and 8 * n < gaps[1][1] < 9 * n,
        ),
        "inside rows": (ExactlyT(t=2, bond_range=(6, 24)), [],
                        lambda gaps, n, r: [a // n for a, _ in gaps] == list(range(r))
                        and all(a // n == (b - 1) // n for a, b in gaps)),
        # Only the middle pieces stay, all Discard: no fragment sits at its own columns.
        "no range": (ExactlyT(t=2, bond_range=(6, 24)),
                     [(row, part) for row in range(ROWS) for part in ("head", "tail")],
                     lambda gaps, n, r: gaps == [(0, r * n)]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_gather(self, case, monkeypatch):
        model, dropped, check = self.CASES[case]
        params = MarkerCodeParams(alphabet=DNA, n=self.N, ell=3)
        strands = synthesize(random_codeword(params, np.random.default_rng(4)), self.ROWS, 4)
        pool = break_strands(self.N, model, self.ROWS, 4)
        keep = np.ones(len(pool), dtype=bool)
        for row, part in dropped:
            keep &= ~((pool.strand == row) & {"all": True, "head": pool.start == 1, "tail": pool.end == self.N}[part])
        pool = pool[keep]
        counted, edges = channel._count_by_columns, []

        def record(strands, lo, hi, table):
            edges.append(np.stack((lo, hi), axis=1).ravel())
            counted(strands, lo, hi, table)

        monkeypatch.setattr(channel, "_count_by_columns", record)
        for cap in TestBlockSizes.CAPS:
            monkeypatch.setattr(channel, "_BLOCK", cap)
            monkeypatch.setattr(channel, "_COLUMN_COUNT_SHARE", 0)
            by_columns = align_pool(strands, pool, params)
            monkeypatch.setattr(channel, "_COLUMN_COUNT_SHARE", math.inf)
            gathered = align_pool(strands, pool, params)
            assert (by_columns.count_table == gathered.count_table).all()
            assert (by_columns.classes == gathered.classes).all()
            assert by_columns.tallies == gathered.tallies
        # One count by columns per block size, over the gaps the case means to make.
        assert len(edges) == len(TestBlockSizes.CAPS)
        bounds = np.concatenate(([0], edges[0], [strands.size])).reshape(-1, 2)
        assert check([(int(a), int(b)) for a, b in bounds if a < b], self.N, self.ROWS)


class TestCountPaths:
    """Which count path align_pool takes: no gather at all for a whole single-break pool,
    and the column count only below q = _COLUMN_COUNT_Q, whatever the share rule."""

    def test_a_whole_single_break_pool_gathers_nothing(self, monkeypatch):
        # Bonds 6..24 leave every fragment a Prefix or a Suffix longer than the marker block:
        # the column count reads them all, and no gap is left.
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        strands = synthesize(random_codeword(params, np.random.default_rng(8)), 400, 8)
        pool = break_strands(30, ExactlyT(t=1, bond_range=(6, 24)), 400, 8)
        gathered, calls = channel._gathered, []

        def record(*args):
            calls.append(len(args[1]))
            return gathered(*args)

        monkeypatch.setattr(channel, "_gathered", record)
        by_columns = align_pool(strands, pool, params)
        assert calls == []
        assert by_columns.tallies[FragmentClass.PREFIX] == by_columns.tallies[FragmentClass.SUFFIX] == 400
        assert all(type(tally) is int for tally in by_columns.tallies.values())  # the report divides them
        monkeypatch.setattr(channel, "_COLUMN_COUNT_SHARE", math.inf)
        alone = align_pool(strands, pool, params)
        assert len(calls) == 1 and (by_columns.count_table == alone.count_table).all()

    @pytest.mark.parametrize("q", [channel._COLUMN_COUNT_Q - 1, channel._COLUMN_COUNT_Q, 1024])
    def test_column_count_only_below_the_q_cut(self, q, monkeypatch):
        params = MarkerCodeParams(alphabet=AlphabetParams(q=q, M=2), n=40, ell=3)
        strands = synthesize(random_codeword(params, np.random.default_rng(q)), 300, q)
        pool = break_strands(40, ExactlyT(t=1, bond_range=(6, 34)), 300, q)
        counted, calls = channel._count_by_columns, []

        def record(*args):
            calls.append(q)
            counted(*args)

        monkeypatch.setattr(channel, "_count_by_columns", record)
        monkeypatch.setattr(channel, "_COLUMN_COUNT_SHARE", 0)
        result = align_pool(strands, pool, params)
        assert calls == ([q] if q < channel._COLUMN_COUNT_Q else [])
        monkeypatch.setattr(channel, "_COLUMN_COUNT_SHARE", math.inf)
        gathered = align_pool(strands, pool, params)
        assert (result.count_table == gathered.count_table).all() and result.count_table.sum() == 300 * 40
        assert (result.classes == gathered.classes).all() and result.tallies == gathered.tallies


def marker_at_by_bases(flat, pos, pattern):
    """Per-base reference for channel._marker_at: one gather and compare per pattern column."""
    hit = np.ones(len(pos), dtype=bool)
    for c, base in enumerate(pattern):
        hit &= flat[pos + c] == base
    return hit


class TestMarkerWords:
    """_marker_at must agree with the per-base reference on every window, including one with
    only its last base wrong, and on windows that end at flat's last element."""

    @settings(max_examples=200, deadline=None)
    @given(ell=st.integers(1, 6), dtype=st.sampled_from([np.int16, np.int64]), size=st.integers(0, 60),
           plants=st.lists(st.tuples(st.integers(0, 60), st.integers(-1, 7)), max_size=8),
           windows=st.integers(0, 20), seed=st.integers(0, 2**32))
    def test_matches_per_base_compare(self, ell, dtype, size, plants, windows, seed):
        pattern = MarkerCodeParams(alphabet=DNA, n=2 * ell + 5, ell=ell).marker_pattern()
        span, rng = len(pattern), np.random.default_rng(seed)
        flat = rng.integers(1, 4, size=size).astype(dtype)
        # Plant whole patterns, or patterns with one base changed, so windows that nearly match occur.
        for at, wrong in plants:
            if at + span <= size:
                flat[at : at + span] = pattern
                if 0 <= wrong < span:
                    flat[at + wrong] = 3
        last = size - span  # the window ending at flat's last element
        pos = np.zeros(0, dtype=np.intp)
        if last >= 0 and windows:
            pos = np.array([*rng.integers(0, last + 1, size=windows), last, *(at for at, _ in plants if at <= last)])
        assert (channel._marker_at(flat, pos, pattern) == marker_at_by_bases(flat, pos, pattern)).all()

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("size", [0, 2, 9])
    def test_no_positions(self, dtype, size):
        pattern = MarkerCodeParams(alphabet=DNA, n=11, ell=3).marker_pattern()
        hit = channel._marker_at(np.ones(size, dtype=dtype), np.zeros(0, dtype=np.intp), pattern)
        assert hit.dtype == bool and hit.shape == (0,)

    def test_empty_pool(self):
        # No fragment at all: nothing is classified or counted.
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        empty = np.zeros(0, dtype=np.int32)
        result = align_pool(np.zeros((0, 30), dtype=np.int16), FragmentPool(empty, empty, empty), params)
        assert len(result.classes) == 0 and result.count_table.sum() == 0
        assert align_and_count([], params).count_table.sum() == 0


class TestInt16ColumnCounts:
    def test_blocks_stop_at_32767_rows(self, monkeypatch):
        # With a large _BLOCK, one block would hold all 40,000 rows, past int16's range.
        monkeypatch.setattr(channel, "_BLOCK", 1 << 20)
        strands = np.full((40_000, 10), 3, dtype=np.int16)
        table = np.zeros(4 * 10, dtype=np.int64)
        channel._count_by_columns(strands, np.array([0]), np.array([strands.size]), table)
        assert (table.reshape(4, 10) == np.array([[0], [0], [40_000], [0]])).all()

    # At n = 25 and _BLOCK = 4000, 40 rows fold into one wide row, and 32 wide rows make a
    # block: none, part of one, and three blocks of wide rows, each with and without leftovers.
    @pytest.mark.parametrize("rows", [0, 39, 40, 123, 2800, 2817])
    def test_folded_rows_and_leftover_rows(self, rows, monkeypatch):
        monkeypatch.setattr(channel, "_BLOCK", 4000)
        strands = np.random.default_rng(rows).integers(1, 5, size=(rows, 25)).astype(np.int16)
        table = np.zeros(4 * 25, dtype=np.int64)
        channel._count_by_columns(strands, np.array([0]), np.array([strands.size]), table)
        assert (table.reshape(4, 25) == [(strands == b).sum(axis=0) for b in range(1, 5)]).all()


class TestByteColumnCounts:
    def test_leftover_blocks_stop_at_255_rows(self):
        # At n = 13 and the default _BLOCK, 315 rows fold into a wide row, so all 300 rows are
        # leftovers, counted in blocks of at most 255: a block of 256 rows would wrap in uint8.
        assert channel._BLOCK // 4 // 13 == 315
        strands = np.full((300, 13), 2, dtype=np.int16)
        table = np.zeros(4 * 13, dtype=np.int64)
        channel._count_by_columns(strands, np.array([0]), np.array([strands.size]), table)
        assert (table.reshape(4, 13) == np.array([[0], [300], [0], [0]])).all()


class TestFloydDraws:
    @PROPERTY
    @given(
        n=st.integers(11, 60),
        lo=st.integers(1, 59),
        width=st.integers(1, 59),
        t=st.integers(0, 8),
        seed=st.integers(0, 2**63),
    )
    def test_exactly_t_distinct_in_range(self, n, lo, width, t, seed):
        hi = min(lo + width - 1, n - 1)
        if lo > hi or t > hi - lo + 1:
            return
        pool = break_strands(n, ExactlyT(t=t, bond_range=(lo, hi)), 300, seed)
        # t + 1 fragments per strand: t distinct bonds
        assert (np.bincount(pool.strand, minlength=300) == t + 1).all()
        bonds = pool.start[pool.start > 1] - 1
        assert ((bonds >= lo) & (bonds <= hi)).all()

    def test_mean_bond_is_range_centre(self):
        lo, hi, t, strands = 10, 50, 3, 20_000
        pool = break_strands(60, ExactlyT(t=t, bond_range=(lo, hi)), strands, seed=12)
        bonds = pool.start[pool.start > 1] - 1
        width = hi - lo + 1
        # i.i.d. standard error; draws without replacement only shrink it
        sigma = math.sqrt((width**2 - 1) / 12 / len(bonds))
        assert len(bonds) == strands * t
        assert abs(bonds.mean() - (lo + hi) / 2) <= 3 * sigma


def lane_rows(seed, lane, count, width):
    """The lane's doubles, row i from draw i * width, read in one call."""
    return substream(seed, lane).random(count * width).reshape(count, width)


def floyd_reference(u, n, model):
    """One row's bonds, by Floyd's algorithm as written: for j = span-c .. span-1
    pick r uniform in [0, j] from the next double; add j if r is already taken."""
    lo, hi = model.bonds(n)
    span, t = hi - lo + 1, model.t
    count = t if isinstance(model, ExactlyT) else min(int(u[0] * (t + 1)), t)
    taken = set()
    for step in range(t - count, t):
        j = span - t + step
        r = min(int(u[1 + step] * (j + 1)), j)
        taken.add(lo + (j if lo + r in taken else r))
    return sorted(taken)


T_MODELS = [ExactlyT(t=0), ExactlyT(t=1), ExactlyT(t=3), ExactlyT(t=2, bond_range=(3, 8)), ExactlyT(t=10),
            AtMostT(t=2), AtMostT(t=5), AtMostT(t=4, bond_range=(2, 6))]


class TestCutCoreMatchesScalarReference:
    @pytest.mark.parametrize("model", T_MODELS, ids=repr)
    @pytest.mark.parametrize("n", [11, 40])
    def test_t_models(self, model, n):
        count, seed = 300, 2**63 + n
        u = lane_rows(seed, LANE_BREAK, count, model.t + 1)
        pool = break_strands(n, model, count, seed)
        cut = pool.start > 1
        for i in range(count):
            bonds = floyd_reference(u[i], n, model)
            assert (pool.start[cut & (pool.strand == i)] - 1).tolist() == bonds
            if i < 20:
                rng = substream(seed, LANE_BREAK)
                rng.bit_generator.advance(i * (model.t + 1))
                strand = np.arange(1, n + 1)
                assert [start for start, _ in apply_breaks_traced(strand, model, rng)] == [1] + [b + 1 for b in bonds]

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.3, 1.0])
    def test_per_bond(self, p):
        n, count, seed = 40, 300, 77
        u = lane_rows(seed, LANE_BREAK, count, n - 1)
        pool = break_strands(n, PerBond(p=p), count, seed)
        cut = pool.start > 1
        for i in range(count):
            assert (pool.start[cut & (pool.strand == i)] - 1).tolist() == [b + 1 for b in range(n - 1) if u[i, b] < p]


    @pytest.mark.parametrize("n, model", [(100, ExactlyT(t=1, bond_range=(5, 95))), (40, PerBond(p=0.1)),
                                          (30, AtMostT(t=4)), (11, ExactlyT(t=0))], ids=repr)
    @pytest.mark.parametrize("block", [None, 7])
    def test_rows_are_unpadded(self, n, model, block, monkeypatch):
        # Strand i's cuts are _cuts over draws i * w .. i * w + w - 1 of the lane, with no padding between rows.
        count, seed = 500, 2**40 + n
        if block is not None:
            monkeypatch.setattr(channel, "_BLOCK", block)
        width = channel._break_width(model, n)
        row, bond = channel._cuts(substream(seed, LANE_BREAK).random(count * width).reshape(count, width), n, model)
        pool = break_strands(n, model, count, seed)
        cut = pool.start > 1
        assert pool.strand[cut].tolist() == row.tolist()
        assert (pool.start[cut] - 1).tolist() == bond.tolist()


class TestSynthesisMatchesScalarReference:
    """synthesize against exact Python integers from the lane's raw 64-bit words."""

    # (q, M, n, k): k = 11 slots a word at M = 7, so n = 19 takes W = 2 words and 3
    # padding slots; M = 70000 and M = 2^32 give one slot a word; M = 1 gives 32 slots of 0.
    # Chunk tables: q = 300 packs bases past 255 in two-byte lanes; M = 10 reads k = 9 digits
    # in chunks of 2 (n = 160 puts chunks of 4 past the table cap), the last one short; and
    # M = 5242 and 5243 at n = 100 lie on either side of the cap, one-digit chunks or none.
    CASES = [(4, 7, 19, 11), (4, 6, 30, 12), (3, 70000, 13, 1), (2, 2**32, 9, 1), (4, 1, 40, 32),
             (300, 2, 40, 32), (24, 10, 160, 9), (24, 5242, 100, 2), (24, 5243, 100, 2)]

    def test_rows_read_their_words(self, monkeypatch):
        count, seed = 200, 9
        # The default block, and 7 words a block: then a block holds 7 // W rows (or one), so the lane is
        # read in many short calls, and row i must still start at word i * W of the one stream.
        for (q, m, n, k), block in itertools.product(self.CASES, [channel._BLOCK, 7]):
            assert m**k <= 2**32 and (k == 32 or m ** (k + 1) > 2**32)
            monkeypatch.setattr(channel, "_BLOCK", block)
            rng = np.random.default_rng(m + n)
            cuts = np.sort(rng.integers(0, m + 1, size=(n, q - 1)), axis=1)  # cumulative counts, zeros included
            columns = np.diff(cuts, prepend=0, append=m)
            strands = synthesize(CompositeMatrix(columns.T, AlphabetParams(q=q, M=m)), count, seed)
            width = -(-n // k)
            words = substream(seed, LANE_SYNTH).bit_generator.random_raw(count * width).tolist()
            for i in range(count):
                # Word w's v = floor(r * M^k / 2^64); column w * k + d reads v's base-M digit d.
                values = [r * m**k >> 64 for r in words[i * width : (i + 1) * width]]
                slots = [v // m**d % m for v in values for d in range(k)]
                drawn = [next(b for b, c in enumerate(np.cumsum(col), start=1) if s < c)
                         for s, col in zip(slots, columns)]
                assert strands[i].tolist() == drawn, f"M={m}, block {block}, strand {i}"


class TestChunkValues:
    """Synthesis indexes its chunk tables in uint32: a word's first entry plus a chunk value. So every
    chunk value lies in [0, M^c) and every table holds fewer than _TABLE_CAP < 2^32 entries."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(2, 2**32), words=st.lists(st.integers(0, 2**64 - 1), max_size=8), data=st.data())
    def test_chunks_are_the_digits_below_m_to_the_c(self, m, words, data):
        k = channel._slots_per_word(m)
        c = data.draw(st.sampled_from([c for c in (4, 2, 1) if c <= k]), label="c")
        chunk, chunks = m**c, -(-k // c)
        words = [0, 2**64 - 1, *words]
        split = channel._chunk_values(np.array(words, dtype=np.uint64), np.uint64(m**k), chunk, chunks)
        values = [value.copy() for value in split]
        assert len(values) == chunks and all(value.dtype == np.uint32 for value in values)
        for w, r in enumerate(words):
            v = r * m**k >> 64  # the word's k base-M digits, chunk j = digits j*c .. j*c + c - 1, below M^c
            assert [int(value[w]) for value in values] == [v // chunk**j % chunk for j in range(chunks)]

    @settings(max_examples=100, deadline=None)
    @given(q=st.integers(2, 400), m=st.integers(1, 64) | st.integers(1, 2**32), n=st.integers(1, 2000),
           data=st.data())
    def test_tables_stay_below_the_cap(self, q, m, n, data):
        assert channel._TABLE_CAP < 2**32
        counts = np.zeros((q, n), dtype=np.int64)
        counts[data.draw(st.integers(0, q - 1), label="base"), :] = m
        k = channel._slots_per_word(m)
        width = -(-n // k)
        c, table = channel._chunk_tables(CompositeMatrix(counts, AlphabetParams(q=q, M=m)), k, width)
        if table is not None:
            # M^c entries for each of the width * ceil(k / c) chunk positions: every index lies below.
            assert len(table) == width * -(-k // c) * m**c < channel._TABLE_CAP


class TestBlockSizes:
    """Results do not depend on `_BLOCK`, from one draw or base per block to the whole input."""

    CAPS = [1, 2, 37, 1000, 10**9]

    @pytest.mark.parametrize("model, sample", [(ExactlyT(t=2), None), (PerBond(p=0.05), 200), (AtMostT(t=3), None)],
                             ids=repr)
    def test_run_experiment(self, model, sample, monkeypatch):
        config = ChannelConfig(MarkerCodeParams(alphabet=DNA, n=30, ell=3), 150, model, sample, sample is not None, 5)
        monkeypatch.setattr(channel, "_COLUMN_COUNT_SHARE", 0)  # two pools cover under the cut: count by columns anyway
        results = []
        for cap in self.CAPS:
            monkeypatch.setattr(channel, "_BLOCK", cap)
            report, stats = run_experiment_traced(config)
            results.append((report.to_json(), vars(stats)))
        assert all(result == results[0] for result in results[1:])

    @pytest.mark.parametrize("model", [PerBond(p=0.1), ExactlyT(t=2), AtMostT(t=3)], ids=repr)
    def test_synthesis_and_breaks(self, model, monkeypatch):
        params = MarkerCodeParams(alphabet=DNA, n=30, ell=3)
        codeword = random_codeword(params, np.random.default_rng(1))
        results = []
        for cap in self.CAPS:
            monkeypatch.setattr(channel, "_BLOCK", cap)
            pool = break_strands(params.n, model, 150, 5)
            results.append((synthesize(codeword, 150, 5), pool.strand, pool.start, pool.end))
        for result in results[1:]:
            assert all((a == b).all() for a, b in zip(result, results[0]))

    @PROPERTY
    @given(params=code_params(), count=st.integers(0, 300), seed=st.integers(0, 2**32))
    def test_alignment(self, params, count, seed):
        rng = np.random.default_rng(seed)
        frags = random_fragments(params, rng, count)
        strands = synthesize(random_codeword(params, rng), 50, seed)
        pool = break_strands(params.n, AtMostT(t=min(3, params.n - 1)), 50, seed)
        picked = pool[rng.integers(0, len(pool), size=2 * len(pool))]
        picked_frags = [strands[s, a - 1 : b] for s, a, b in zip(picked.strand, picked.start, picked.end)]
        pool_frags = [strands[s, a - 1 : b] for s, a, b in zip(pool.strand, pool.start, pool.end)]
        expected = [oracle_align(frags, params), oracle_align(picked_frags, params), oracle_align(pool_frags, params)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(channel, "_COLUMN_COUNT_SHARE", 0)  # the pool in pool order is counted by columns
            for cap in self.CAPS:
                patch.setattr(channel, "_BLOCK", cap)
                results = [align_and_count(frags, params), align_pool(strands, picked, params),
                           align_pool(strands, pool, params)]
                for result, (classes, table) in zip(results, expected):
                    assert [tuple(FragmentClass)[c] for c in result.classes] == classes
                    assert (result.count_table == table).all()
                    assert result.tallies == {kind: classes.count(kind) for kind in FragmentClass}


class TestRunExperimentPinned:
    """run_experiment_traced's reports and TraceStats on a grid, hashed and pinned:
    a change to any stream or report moves the hash."""

    PINNED = "7c0cf72bb244837abbdb19fa48a3f5aad456768fa4ce9e277126996f802bcf2b"

    def test_grid_hash(self):
        digest = hashlib.sha256()
        models = [PerBond(p=0.05), ExactlyT(t=1, bond_range=(5, 15)), ExactlyT(t=3), AtMostT(t=3)]
        for alphabet in (DNA, AlphabetParams(q=2, M=3)):
            for n, ell in ((20, 2), (60, 3)):
                for model in models:
                    for sample, replace in ((None, False), (150, False), (400, True)):
                        for seed in (1, 2):
                            params = MarkerCodeParams(alphabet=alphabet, n=n, ell=ell)
                            config = ChannelConfig(params, 300, model, sample, replace, seed)
                            try:
                                report, stats = run_experiment_traced(config)
                                digest.update(report.to_json().encode())
                                digest.update(json.dumps(vars(stats), sort_keys=True).encode())
                            except ValueError as exc:
                                digest.update(f"{type(exc).__name__}: {exc}".encode())
        assert digest.hexdigest() == self.PINNED


class TestStreamsPinned:
    """synthesize's and break_strands' outputs at seed 1, hashed and pinned: the table lookups
    (byte and two-byte lanes), the compare passes (M = 64 and 70,000) and all three break models."""

    SYNTHESIS = [
        ((4, 6, 100), 10_000, "0709d5e6290003ea1d738fd7e55b58c6f34101e8bcba0df4ab75537829c2b480"),
        ((1024, 2, 40), 2_000, "041846d80a8bdb631027569f8a418863ab11907eb44e11a2af169b0a73a4af03"),
        ((32767, 1, 13), 8, "43889507f88ed57bfaee119abf891d354b83bfe68515911a70becb6630b765e4"),
        ((4, 64, 1000), 2_000, "015b4ccd67b3dff7b0e51723e83bbc91446428c24213f843ccd6d61273da0387"),
        ((4, 70000, 40), 2_000, "59327c5a8df7e85b415120becd50bcad7d170e79524bcaf2c55e29cff10da6cf"),
    ]
    BREAKS = [
        (PerBond(0.002), 1000, "c40bfb843297de671605a8a931a9df9f183debcfdb791cb0c5f3b430adc26eda"),
        (ExactlyT(1, (5, 95)), 100, "2cccdf639f5b3531368eda12ba48d6319bb5f4a4448558d30b170badcecb4a4c"),
        (AtMostT(3), 100, "8dbd60eb45100e38cdc84369e6eca76b09a037f6b5e2618da45d6265a3c09a76"),
    ]

    # Ids name the case, not its hash, so a stream change moves the pins and keeps the test names.
    @pytest.mark.parametrize("code, count, pinned", SYNTHESIS, ids=[f"q{q}-M{m}-n{n}" for (q, m, n), _, _ in SYNTHESIS])
    def test_synthesis(self, code, count, pinned):
        q, m, n = code
        params = MarkerCodeParams(alphabet=AlphabetParams(q=q, M=m), n=n, ell=3)
        codeword = construct_codeword(random_message(params, 1), params)
        strands = synthesize(codeword, count, seed=1)
        assert hashlib.sha256(strands.astype("<i2").tobytes()).hexdigest() == pinned

    @pytest.mark.parametrize("model, n, pinned", BREAKS, ids=[f"{model!r}-n{n}" for model, n, _ in BREAKS])
    def test_breaks(self, model, n, pinned):
        pool = break_strands(n, model, 3000, seed=1)
        triplets = np.concatenate([pool.strand, pool.start, pool.end]).astype("<i4")
        assert hashlib.sha256(triplets.tobytes()).hexdigest() == pinned

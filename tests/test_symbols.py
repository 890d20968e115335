"""Composite symbol algebra: enumeration, ranking, apportionment, serialization, CSV cells."""

import itertools
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compodna import (
    AlphabetParams,
    CompositeMatrix,
    CompositeSymbol,
    alphabet_size,
    enumerate_symbols,
    largest_remainder_apportion,
    rank_symbol,
    restricted_symbol_count,
    unrank_symbol,
)
from compodna.symbols import _unrank_composition, _unrank_memo, csv_row, json_value


def brute_symbols(q: int, M: int) -> set[tuple[int, ...]]:
    """Independent enumeration oracle via product-filter."""
    return {c for c in itertools.product(range(M + 1), repeat=q) if sum(c) == M}


def brute_min_l1(freqs, q: int, M: int) -> float:
    """Exhaustive minimum L1 distance between counts/M and normalized freqs."""
    total = sum(freqs)
    target = [f / total for f in freqs]
    return min(
        sum(abs(c / M - t) for c, t in zip(cand, target))
        for cand in brute_symbols(q, M)
    )


def fraction_apportion(values, total: int) -> list[int]:
    """Largest remainders over exact rationals, ties to the lowest index: the oracle."""
    exact = [Fraction(v) for v in values]
    scaled = [x * total / sum(exact) for x in exact]
    out = [math.floor(s) for s in scaled]
    for i in sorted(range(len(out)), key=lambda i: (out[i] - scaled[i], i))[: total - sum(out)]:
        out[i] += 1
    return out


class TestAlphabetSize:
    @pytest.mark.parametrize(
        "q,M,expected",
        [
            (4, 6, 84),
            (4, 1, 4),
            (2, 5, 6),
        ],
    )
    def test_examples(self, q, M, expected):
        assert alphabet_size(AlphabetParams(q=q, M=M)) == expected

    @given(q=st.integers(2, 5), M=st.integers(1, 7))
    def test_matches_enumeration(self, q, M):
        params = AlphabetParams(q=q, M=M)
        assert alphabet_size(params) == len(enumerate_symbols(params))

    def test_matches_brute_oracle(self):
        assert alphabet_size(AlphabetParams(q=2, M=5)) == len(brute_symbols(2, 5))
        assert alphabet_size(AlphabetParams(q=4, M=6)) == len(brute_symbols(4, 6))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            AlphabetParams(q=1, M=3)
        with pytest.raises(ValueError):
            AlphabetParams(q=4, M=0)


class TestRestrictedSymbolCount:
    @pytest.mark.parametrize(
        "q,M,base,expected",
        [
            (4, 6, 1, 56),
            (2, 1, 1, 1),
            # exhaustive enumeration gives 3 symbols of (q=3, M=2) with x_2 > 0
            (3, 2, 2, 3),
        ],
    )
    def test_examples(self, q, M, base, expected):
        assert restricted_symbol_count(AlphabetParams(q=q, M=M), base) == expected

    @pytest.mark.parametrize("q,M", [(2, 3), (3, 2), (4, 4), (4, 6)])
    def test_matches_enumeration_for_every_base(self, q, M):
        params = AlphabetParams(q=q, M=M)
        symbols = enumerate_symbols(params)
        for base in range(1, q + 1):
            expected = sum(1 for s in symbols if s.counts[base - 1] > 0)
            assert restricted_symbol_count(params, base) == expected

    def test_invalid_base_index(self):
        params = AlphabetParams(q=4, M=6)
        for bad in (0, 5, -1):
            with pytest.raises(ValueError):
                restricted_symbol_count(params, bad)


class TestEnumeration:
    def test_binary_resolution_one(self):
        params = AlphabetParams(q=2, M=1)
        assert [s.counts for s in enumerate_symbols(params)] == [(0, 1), (1, 0)]

    def test_binary_resolution_two(self):
        assert len(enumerate_symbols(AlphabetParams(q=2, M=2))) == 3

    def test_dna_example_complete_and_unique(self):
        symbols = enumerate_symbols(AlphabetParams(q=4, M=6))
        assert len(symbols) == 84
        assert len({s.counts for s in symbols}) == 84
        assert {s.counts for s in symbols} == brute_symbols(4, 6)

    @given(q=st.integers(2, 4), M=st.integers(1, 6))
    def test_all_symbols_valid(self, q, M):
        params = AlphabetParams(q=q, M=M)
        for s in enumerate_symbols(params):
            s.validate(params)


class TestRankUnrank:
    def test_first_symbol(self):
        params = AlphabetParams(q=2, M=1)
        assert rank_symbol(CompositeSymbol((0, 1)), params) == 0

    def test_last_symbol_dna(self):
        params = AlphabetParams(q=4, M=6)
        assert unrank_symbol(83, params) == enumerate_symbols(params)[-1]

    @given(q=st.integers(2, 5), M=st.integers(1, 6), data=st.data())
    def test_bijection(self, q, M, data):
        params = AlphabetParams(q=q, M=M)
        size = alphabet_size(params)
        k = data.draw(st.integers(0, size - 1))
        assert rank_symbol(unrank_symbol(k, params), params) == k

    # At M = 1 every symbol is a unit vector, unranked without bisecting any bar.
    @pytest.mark.parametrize("q,M", [(2, 1), (3, 3), (4, 6), (3, 1), (5, 1), (7, 1), (9, 1)])
    def test_consistent_with_enumeration(self, q, M):
        params = AlphabetParams(q=q, M=M)
        for i, s in enumerate(enumerate_symbols(params)):
            assert rank_symbol(s, params) == i
            assert unrank_symbol(i, params) == s

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_round_trip_at_huge_resolution(self, q):
        # Each bar is bisected with O(log M) binomials, so M = 10^12 unranks at once.
        params = AlphabetParams(q=q, M=10**12)
        size = alphabet_size(params)
        for k in (0, 1, size // 3, size // 2 + 12345, size - 2, size - 1):
            symbol = unrank_symbol(k, params)
            assert sum(symbol.counts) == params.M and rank_symbol(symbol, params) == k
        assert unrank_symbol(size - 1, params).counts == (params.M,) + (0,) * (q - 1)

    @pytest.mark.parametrize("q, m", [(2, 1), (3, 6), (4, 6), (5, 4), (2, 2**63 - 1), (4, 10**30)])
    def test_memoized_unrank_matches_the_bisection(self, q, m):
        size = math.comb(m + q - 1, q - 1)
        indices = sorted({*range(min(size, 100)), size // 3, size // 2, size - 1})
        for k in indices * 2:  # the second pass reads the cache
            assert _unrank_composition(k, q, m) == _unrank_composition.__wrapped__(k, q, m)
        assert _unrank_memo.cache_info().maxsize is not None

    def test_memo_holds_at_most_2_to_the_20_parts(self):
        # 200 symbols at q = 32,767 have 6.5 M parts; a memo may keep at most 2^20 of them.
        params = AlphabetParams(q=32767, M=1)
        held = 0
        for counts in [unrank_symbol(index, params).counts for index in range(200)]:
            # The list, the loop and getrefcount hold three references; a memo's would be a fourth.
            held += len(counts) if sys.getrefcount(counts) > 3 else 0
        assert held <= 1 << 20

    def test_out_of_range_index(self):
        params = AlphabetParams(q=4, M=6)
        for bad in (-1, 84, 1000):
            with pytest.raises(ValueError):
                unrank_symbol(bad, params)

    def test_malformed_symbol(self):
        params = AlphabetParams(q=4, M=6)
        with pytest.raises(ValueError):
            rank_symbol(CompositeSymbol((1, 1, 1, 1)), params)  # sums to 4, not 6
        with pytest.raises(ValueError):
            rank_symbol(CompositeSymbol((6, 0, 0)), params)  # wrong length


class TestQuantize:
    """largest_remainder_apportion as the quantizer of a frequency vector to M units."""

    def test_exact_multiples_pass_through(self):
        assert largest_remainder_apportion((3, 3, 0, 0), 6) == [3, 3, 0, 0]

    def test_tie_goes_to_lowest_index(self):
        assert largest_remainder_apportion((0.5, 0.5), 1) == [1, 0]

    def test_near_uniform_triple(self):
        # brute-force L1 minimization over all 20 symbols of q=4, M=3 picks (1, 1, 1, 0)
        assert largest_remainder_apportion((0.34, 0.33, 0.33, 0.0), 3) == [1, 1, 1, 0]

    @pytest.mark.parametrize("values, want", [([6, 1, 3], [4, 0, 2]), ((1, 1, 7), [1, 1, 4])])
    def test_exact_ties_go_to_lowest_index(self, values, want):
        # Scaled through floats, the tied fractional parts (3/5 twice, 2/3 three times) differ.
        assert largest_remainder_apportion(values, 6) == want

    @pytest.mark.parametrize("values, total", [([1, 1, 1], 10**18), ([1, 2], 2**60 + 1)])
    def test_sum_holds_at_large_totals(self, values, total):
        counts = largest_remainder_apportion(values, total)
        assert sum(counts) == total and counts == fraction_apportion(values, total)

    @given(
        values=st.lists(st.integers(0, 10**20) | st.floats(0, 1e6), min_size=1, max_size=6).filter(any),
        total=st.integers(0, 12) | st.integers(0, 10**30),
    )
    @settings(max_examples=300)
    def test_matches_the_fraction_oracle(self, values, total):
        assert largest_remainder_apportion(values, total) == fraction_apportion(values, total)

    @pytest.mark.parametrize("total, message", [(5.5, "must be an integer, got 5.5"), (True, "must be an integer, got True"),
                                                (-1, "must be >= 0, got -1")], ids=repr)
    def test_total_must_be_a_nonnegative_integer(self, total, message):
        # A float total once returned floats, [2.0, 4.0] for ([1, 2], 5.5), summing to 6.
        with pytest.raises(ValueError, match=rf"^total {re.escape(message)}$"):
            largest_remainder_apportion([1, 2], total)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            largest_remainder_apportion((0.0, 0.0, 0.0, 0.0), 6)

    @pytest.mark.parametrize("values", [(math.inf, 1.0), (math.nan, 1.0), (-1, 2)], ids=["inf", "nan", "negative"])
    def test_non_finite_or_negative_rejected(self, values):
        with pytest.raises(ValueError):
            largest_remainder_apportion(values, 6)

    @given(
        q=st.integers(2, 4),
        M=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_sums_to_resolution_and_achieves_l1_minimum(self, q, M, data):
        freqs = data.draw(
            st.lists(st.floats(0, 1, allow_nan=False), min_size=q, max_size=q).filter(
                lambda v: sum(v) > 1e-6
            )
        )
        counts = largest_remainder_apportion(freqs, M)
        assert len(counts) == q and min(counts) >= 0
        assert sum(counts) == M
        total = sum(freqs)
        achieved = sum(abs(c / M - f / total) for c, f in zip(counts, freqs))
        assert achieved <= brute_min_l1(freqs, q, M) + 1e-12

    @given(q=st.integers(2, 4), M=st.integers(1, 6), data=st.data())
    def test_idempotent_on_valid_symbols(self, q, M, data):
        params = AlphabetParams(q=q, M=M)
        k = data.draw(st.integers(0, alphabet_size(params) - 1))
        sym = unrank_symbol(k, params)
        assert tuple(largest_remainder_apportion([c / M for c in sym.counts], M)) == sym.counts


class TestMatrixSerialization:
    def _random_matrix(self, data, q, M, n):
        params = AlphabetParams(q=q, M=M)
        size = alphabet_size(params)
        cols = tuple(
            unrank_symbol(data.draw(st.integers(0, size - 1)), params) for _ in range(n)
        )
        return CompositeMatrix(np.transpose([col.counts for col in cols]), params)

    @given(q=st.integers(2, 4), M=st.integers(1, 6), n=st.integers(1, 8), data=st.data())
    def test_json_roundtrip_bit_exact(self, q, M, n, data):
        matrix = self._random_matrix(data, q, M, n)
        text = matrix.to_json()
        again = CompositeMatrix.from_json(text)
        assert again == matrix
        assert again.to_json() == text

    @pytest.mark.parametrize(
        "text, where",
        [
            ('{"q": 2.0, "M": 3, "columns": [[3, 0]]}', "q must be an integer, got 2.0"),
            ('{"q": 2, "M": true, "columns": [[3, 0]]}', "M must be an integer, got true"),
            ('{"q": 2, "M": 3, "columns": [[3, 0], [0.9, 3]]}', "column 2 entry 1 must be an integer, got 0.9"),
            ('{"q": 2, "M": 3, "columns": [[2, true]]}', "column 1 entry 2 must be an integer, got true"),
            ('{"q": 2, "M": 3, "columns": [[3, 0], 3]}', "column 2 must be an array, got 3"),
            ("[1, 2]", r"matrix must be an object, got \[1, 2\]"),
            ('{"q": 2, "M": 3}', "missing key 'columns' in matrix"),
            ('{"q": 2, "M": 3, "columns": [[3, 0]], "n": 1}', r"unknown key\(s\) 'n' in matrix"),
        ],
        ids=["float-q", "bool-M", "float-count", "bool-count", "int-column", "array-matrix", "no-columns", "unknown-key"],
    )
    def test_from_json_rejects_non_integers(self, text, where):
        with pytest.raises(ValueError, match=where):
            CompositeMatrix.from_json(text)

    def test_json_shape(self):
        params = AlphabetParams(q=2, M=2)
        matrix = CompositeMatrix(np.transpose([(1, 1), (0, 2)]), params)
        assert matrix.to_json() == '{"q": 2, "M": 2, "columns": [[1, 1], [0, 2]]}'

    def test_invalid_column_rejected(self):
        params = AlphabetParams(q=2, M=2)
        with pytest.raises(ValueError, match="column 2"):
            CompositeMatrix(np.transpose([(1, 1), (1, 2)]), params)


class TestCountArray:
    """CompositeMatrix's one (q, n) count array and its checks."""

    def test_a_symbol_needs_a_count(self):
        with pytest.raises(ValueError, match="^composite symbol must have at least one count$"):
            CompositeSymbol(())

    def test_a_matrix_is_never_equal_to_another_type(self):
        matrix = CompositeMatrix([[6], [0]], AlphabetParams(q=2, M=6))
        assert matrix.__eq__(3) is NotImplemented
        assert matrix != 3 and matrix != "matrix"

    def test_bool_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative integers"):
            CompositeSymbol((True, 5))
        params = AlphabetParams(q=2, M=6)
        for counts in ([[True], [5]], np.array([[True], [False]]), np.array([[1], [True]], dtype=object)):
            with pytest.raises(ValueError, match="counts must be integers, got True"):
                CompositeMatrix(counts, params)

    @pytest.mark.parametrize(
        "counts, where",
        [
            (np.array([[6, -1], [0, 7]]), r"column 2: counts must be nonnegative integers, got \[-1, 7\]"),
            (np.array([[6, 2], [0, 5]]), "column 2: counts sum to 7, expected M=6"),
            ([[6, 2**64], [0, 6]], "column 2: counts sum to"),
            (np.array([[1.0], [5.0]]), "counts must be integers, got 1.0"),
            (np.zeros((3, 2), dtype=np.int64), r"needs a \(2, n\) count array with n >= 1, got shape \(3, 2\)"),
            (np.zeros((2, 0), dtype=np.int64), r"got shape \(2, 0\)"),
        ],
        ids=["negative", "sum", "past-int64", "float", "rows", "no-columns"],
    )
    def test_invalid_counts_rejected(self, counts, where):
        with pytest.raises(ValueError, match=where):
            CompositeMatrix(counts, AlphabetParams(q=2, M=6))

    def test_an_int64_array_is_copied(self):
        given_counts = np.array([[6, 1], [0, 5]], dtype=np.int64)
        matrix = CompositeMatrix(given_counts, AlphabetParams(q=2, M=6))
        assert not np.shares_memory(matrix.counts, given_counts) and given_counts.flags.writeable
        given_counts[0, 0] = 0
        assert matrix.counts.tolist() == [[6, 1], [0, 5]]

    @pytest.mark.parametrize("m, dtype", [(6, np.int64), (2**63 - 1, np.int64), (2**63, object), (10**30, object)])
    def test_dtype_by_resolution_read_only_and_copied(self, m, dtype):
        given_counts = np.array([[m, 1], [0, m - 1]], dtype=object)
        matrix = CompositeMatrix(given_counts, AlphabetParams(q=2, M=m))
        assert matrix.counts.dtype == dtype and not matrix.counts.flags.writeable
        given_counts[0, 0] = 0
        assert matrix.counts.tolist() == [[m, 1], [0, m - 1]]
        assert matrix.columns == (CompositeSymbol((m, 0)), CompositeSymbol((1, m - 1)))
        same = CompositeMatrix([[m, 1], [0, m - 1]], AlphabetParams(q=2, M=m))
        assert same == matrix and hash(same) == hash(matrix)
        assert matrix != CompositeMatrix([[m, 0], [0, m]], AlphabetParams(q=2, M=m))


@pytest.mark.parametrize(
    "value, cell",
    [(None, ""), (True, "true"), (False, "false"), (0, "0"), (10**30, "1" + "0" * 30),
     (5000.0, "5000"), (0.0, "0"), (1e-13, "1e-13")],
)
def test_csv_cell_rule(value, cell):
    assert csv_row([value]) == cell
    assert csv_row(["x", value, 1]) == f"x,{cell},1"


class TestHugeIntegersInTypeErrors:
    """A mistyped value names its integers through brief at any depth: one past the
    4300-digit int-to-str limit must not raise that limit's error instead."""

    BIG = 10**5000

    def test_top_level(self):
        with pytest.raises(ValueError, match=r"^x must be an object, got 1000000000\.\.\. \(5001 digits\)$"):
            json_value(self.BIG, "object", "x")

    def test_inside_arrays_and_objects(self):
        value = [1, [-self.BIG, True, None], {"a": 10**60, "b": "s"}, 2.5]
        shown = '[1, [-1000000000... (5001 digits), true, null], {"a": 1000000000... (61 digits), "b": "s"}, 2.5]'
        with pytest.raises(ValueError) as exc:
            json_value(value, "object", "x")
        assert str(exc.value) == f"x must be an object, got {shown}"

    def test_deeply_nested_value(self):
        # One frame per level: as deep as json.loads itself goes, within reason.
        value = [10**5000]
        for _ in range(300):
            value = {"a": [value]}
        with pytest.raises(ValueError) as exc:
            json_value(value, "integer", "x")
        assert str(exc.value).endswith("[1000000000... (5001 digits)]" + "]}" * 300)

    @pytest.mark.parametrize("value", [[1, 2], {"k": [3, {"j": None}]}, 10**49, -(10**49), "s", 0.1, False])
    def test_small_values_read_as_json(self, value):
        with pytest.raises(ValueError) as exc:
            json_value(value, "integer" if not isinstance(value, int) or isinstance(value, bool) else "array", "x")
        assert str(exc.value).endswith(f"got {json.dumps(value)}")

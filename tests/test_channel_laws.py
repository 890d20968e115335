"""The channel's exact laws, checked by Pearson chi-square tests.

Each statistic is compared with its chi-square law (Pearson; Knuth, TAOCP
Vol. 2, §3.3.1). Seeds are fixed, and the whole file shares one family-wise
false-alarm rate, FAMILY_ALPHA, split evenly (Bonferroni) over the
STATISTICS statistics below: a correct channel fails any of them with
probability at most 1e-4 in all. Never re-seed a test to make it pass.

The laws:
- synthesis: column j's bases are i.i.d. with law counts[:, j] / M, a
  zero-count base never appears, strands are independent, and so are two
  columns whose slots are digits of one 64-bit word;
- PerBond(p): every bond breaks independently with probability p, so a
  fragment spans columns [a, b] with probability
  (1 if a = 1, else p) (1 - p)^(b - a) (1 if b = n, else p);
- ExactlyT and AtMostT: given a strand's break count c, its bonds are a
  uniform c-subset of the bond range;
- AtMostT(t): the break count is uniform on 0..t;
- a full PerBond(p) pool: with K ~ Binomial(n - 1, p) breaks a strand has
  one Full fragment if K = 0, one Prefix and one Suffix if K >= 1, and
  max(K - 1, 0) middle fragments; and data column j is counted iff the
  strand has no break among bonds 1..j-1 or none among bonds j..n-1;
- estimation: a data column of composition x whose aligned coverage is c
  receives Multinomial(c, x / M) bases, independently of every other
  column given the breaks, so it is recovered with the exact probability
  that the largest-remainder apportionment of such a draw gives x back.
"""

import itertools
import math
from collections import defaultdict

import numpy as np
import pytest

from compodna import (
    AlphabetParams,
    AtMostT,
    CompositeMatrix,
    ExactlyT,
    FragmentClass,
    MarkerCodeParams,
    PerBond,
    construct_codeword,
    estimate_matrix,
    layout,
    random_message,
    synthesize,
)
from compodna import channel
from compodna.channel import align_pool, break_strands

FAMILY_ALPHA = 1e-4
STATISTICS = 16  # every chi-square statistic computed in this file
ALPHA = FAMILY_ALPHA / STATISTICS

DNA = AlphabetParams(q=4, M=6)


def chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for X ~ chi-square(df): the regularized upper gamma Q(df/2, x/2),
    by its series below a + 1 and its continued fraction above (Lentz)."""
    a, x = df / 2, x / 2
    if x <= 0:
        return 1.0
    log_front = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1:
        term = total = 1 / a
        k = a
        while term > total * 1e-16:
            k += 1
            term *= x / k
            total += term
        return max(0.0, 1 - total * math.exp(log_front))
    tiny = 1e-300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1 / d
        h *= d * c
        if abs(d * c - 1) < 1e-16:
            break
    return math.exp(log_front) * h


def assert_fits(statistic: float, df: int) -> None:
    p_value = chi2_sf(statistic, df)
    assert p_value >= ALPHA, f"chi-square {statistic:.1f} on {df} df: p = {p_value:.3g} < {ALPHA:.3g}"


def pearson(observed: np.ndarray, expected: np.ndarray) -> float:
    return float(((observed - expected) ** 2 / expected).sum())


class TestChiSquareLaw:
    # Exact values: chi2(2) has survival exp(-x/2); chi2(1) has erfc(sqrt(x/2)).
    @pytest.mark.parametrize("x", [0.1, 1.0, 2.5, 9.0, 40.0])
    def test_matches_closed_forms(self, x):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-10)
        assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-10)

    def test_even_df_poisson_sum(self):
        # chi2(2k) survival at x is P(Poisson(x/2) < k).
        for df, x in [(10, 3.0), (10, 25.0), (90, 70.0), (90, 130.0)]:
            lam, k = x / 2, df // 2
            exact = sum(math.exp(-lam + i * math.log(lam) - math.lgamma(i + 1)) for i in range(k))
            assert chi2_sf(x, df) == pytest.approx(exact, rel=1e-9)


class TestSynthesisLaw:
    # Zero-count bases in the middle, first and last, a point mass and the
    # uniform-as-possible column.
    COLUMNS = ((2, 0, 3, 1), (0, 2, 2, 2), (1, 4, 1, 0), (0, 0, 0, 6), (3, 3, 0, 0), (2, 1, 2, 1), (1, 1, 1, 3))

    def _strands(self, count, seed):
        matrix = CompositeMatrix(np.transpose(self.COLUMNS), DNA)
        return synthesize(matrix, count, seed), matrix.counts

    def test_columns_follow_their_counts(self):
        s = 40_000
        strands, counts = self._strands(s, seed=2024)
        statistic, df = 0.0, 0
        for j in range(len(self.COLUMNS)):
            observed = np.bincount(strands[:, j] - 1, minlength=4)
            weighed = counts[:, j] > 0
            assert (observed[~weighed] == 0).all(), f"column {j + 1} drew a zero-count base"
            statistic += pearson(observed[weighed], s * counts[weighed, j] / DNA.M)
            df += int(weighed.sum()) - 1
        assert_fits(statistic, df)

    def test_consecutive_strands_are_independent(self):
        # Strand i's last base and strand i+1's first: the product law.
        s = 40_000
        strands, counts = self._strands(s + 1, seed=77)
        last, first = counts[:, -1] / DNA.M, counts[:, 0] / DNA.M
        law = np.outer(last, first).ravel()
        observed = np.bincount((strands[:-1, -1] - 1) * 4 + strands[1:, 0] - 1, minlength=16)
        assert (observed[law == 0] == 0).all()
        assert_fits(pearson(observed[law > 0], s * law[law > 0]), int((law > 0).sum()) - 1)

    def test_columns_of_one_word_are_independent(self):
        # Columns 1 and 2 are digits 0 and 1 of each strand's first word: the product law.
        s = 40_000
        strands, counts = self._strands(s, seed=91)
        law = np.outer(counts[:, 0] / DNA.M, counts[:, 1] / DNA.M).ravel()
        observed = np.bincount((strands[:, 0] - 1) * 4 + strands[:, 1] - 1, minlength=16)
        assert (observed[law == 0] == 0).all()
        assert_fits(pearson(observed[law > 0], s * law[law > 0]), int((law > 0).sum()) - 1)


def bond_cuts(n, model, strands, seed):
    """Each strand's break count and the (strand, bond) pair of every cut."""
    pool = break_strands(n, model, strands, seed)
    cut = pool.start > 1
    return np.bincount(pool.strand, minlength=strands) - 1, pool.strand[cut], pool.start[cut] - 1


def subset_statistic(counts, strand, bonds, lo, hi):
    """Chi-square statistic and df of the law "given c, the bonds are a uniform c-subset of [lo, hi]".

    Strands are grouped by c. A uniform c-subset's indicator has covariance
    pi (1 - pi) span / (span - 1) (I - J / span) with pi = c / span, so the
    group's Pearson statistic times (span - 1) / (span - c) is chi-square
    on span - 1 df; the groups are independent given the counts.
    """
    span = hi - lo + 1
    statistic, df = 0.0, 0
    for c in range(1, span):
        rows = counts == c
        if rows.sum() == 0:
            continue
        observed = np.bincount(bonds[rows[strand]] - lo, minlength=span)
        assert len(observed) == span and bonds[rows[strand]].min() >= lo
        statistic += pearson(observed, np.full(span, rows.sum() * c / span)) * (span - 1) / (span - c)
        df += span - 1
    return statistic, df


class TestBreakLaws:
    def test_per_bond_rates(self):
        n, s, p = 40, 20_000, 0.05
        _, _, bonds = bond_cuts(n, PerBond(p=p), s, seed=314)
        observed = np.bincount(bonds - 1, minlength=n - 1)
        # Each bond: a binomial(s, p) count, so (O - sp)^2 / (sp(1 - p)) is one df.
        statistic = float(((observed - s * p) ** 2 / (s * p * (1 - p))).sum())
        assert_fits(statistic, n - 1)

    def test_per_bond_fragment_spans(self):
        # Per strand, span indicators X_k, X_l have E[X_k X_l] = 0 for overlapping spans,
        # law_k law_l / p for adjacent ones (they share the bond between them) and law_k law_l
        # for the others (their bonds are disjoint). Fragments tile the strand, so a start at
        # a > 1 is an end at a - 1: the covariance is singular, and the Pearson form of the
        # span counts takes its pseudo-inverse, on as many df as its rank.
        n, s, p = 40, 20_000, 0.05
        pool = break_strands(n, PerBond(p=p), s, seed=2718)
        a, b = np.triu_indices(n)  # 0-based first and last columns, a <= b
        law = np.where(a == 0, 1, p) * (1 - p) ** (b - a) * np.where(b == n - 1, 1, p)
        joint = np.outer(law, law)
        joint[(a[:, None] <= b) & (a <= b[:, None])] = 0
        joint[(b[:, None] + 1 == a) | (b + 1 == a[:, None])] /= p
        values, vectors = np.linalg.eigh(joint + np.diag(law) - np.outer(law, law))
        rank = values > 1e-9 * values.max()
        observed = np.bincount((pool.start - 1) * n + pool.end - 1, minlength=n * n).reshape(n, n)[a, b]
        assert observed.sum() == len(pool)
        deviation = observed - s * law
        assert np.abs(vectors[:, ~rank].T @ deviation).max() < 1e-6  # the tiling holds exactly
        projected = vectors[:, rank].T @ deviation
        assert_fits(float((projected**2 / values[rank]).sum()) / s, int(rank.sum()))

    @pytest.mark.parametrize(
        "n, model, seed",
        [
            (30, ExactlyT(t=1), 5),
            (40, ExactlyT(t=3, bond_range=(6, 25)), 6),
            (12, ExactlyT(t=9), 7),
        ],
    )
    def test_exactly_t_bonds_are_a_uniform_subset(self, n, model, seed):
        s = 20_000
        counts, strand, bonds = bond_cuts(n, model, s, seed)
        assert (counts == model.t).all()
        assert_fits(*subset_statistic(counts, strand, bonds, *model.bonds(n)))

    @pytest.mark.parametrize("n, model, seed", [(25, AtMostT(t=4), 8), (40, AtMostT(t=2, bond_range=(10, 30)), 9)])
    def test_at_most_t_bonds_are_a_uniform_subset(self, n, model, seed):
        counts, strand, bonds = bond_cuts(n, model, 20_000, seed)
        assert_fits(*subset_statistic(counts, strand, bonds, *model.bonds(n)))

    def test_at_most_t_count_is_uniform(self):
        t, s = 5, 30_000
        counts, _, _ = bond_cuts(30, AtMostT(t=t), s, seed=10)
        assert counts.max() <= t
        assert_fits(pearson(np.bincount(counts, minlength=t + 1), np.full(t + 1, s / (t + 1))), t)


def mahalanobis(deviation: np.ndarray, covariance: np.ndarray, count: int) -> float:
    """The Pearson statistic of a sum of `count` i.i.d. vectors with the given
    per-vector covariance: chi-square on len(deviation) df for large counts."""
    return float(deviation @ np.linalg.solve(covariance, deviation)) / count


class TestPerBondFragmentLaws:
    """A full PerBond pool aligned in pool order and counted by columns by align_pool."""

    N, ELL, P, S = 40, 3, 0.05, 20_000

    def _aligned(self, seed, monkeypatch):
        params = MarkerCodeParams(alphabet=DNA, n=self.N, ell=self.ELL)
        strands = synthesize(construct_codeword(random_message(params, seed), params), self.S, seed)
        pool = break_strands(self.N, PerBond(p=self.P), self.S, seed)
        counted, covered = channel._count_by_columns, []

        def record(strands, lo, hi, table):
            covered.append(int((hi - lo).sum()))
            counted(strands, lo, hi, table)

        # Such a pool covers about 0.71 of the matrix, near the share cut: lift the cut.
        monkeypatch.setattr(channel, "_COLUMN_COUNT_SHARE", 0)
        monkeypatch.setattr(channel, "_count_by_columns", record)
        aligned = align_pool(strands, pool, params)
        # Every usable fragment sits at its own columns: one count by columns reads it all.
        assert covered == [aligned.count_table.sum()]
        return params, pool, aligned

    def test_tallies_by_true_class(self, monkeypatch):
        params, pool, aligned = self._aligned(15, monkeypatch)
        n, span, s = self.N, self.ELL + 2, self.S
        at_start, at_end = pool.start == 1, pool.end == n
        length = pool.end - pool.start + 1
        # Markers are unique, so the predicted class follows from position and length.
        expected = np.full(len(pool), tuple(FragmentClass).index(FragmentClass.DISCARD))
        for kind, where in [
            (FragmentClass.PREFIX, at_start & (length > span)),
            (FragmentClass.SUFFIX, at_end & (length > span)),
            (FragmentClass.FULL, at_start & at_end),
            (FragmentClass.MARKER_ONLY, (at_start | at_end) & (length == span)),
        ]:
            expected[where] = tuple(FragmentClass).index(kind)
        assert (aligned.classes == expected).all()
        full, middle = int((at_start & at_end).sum()), int((~at_start & ~at_end).sum())
        assert (at_start & ~at_end).sum() == (at_end & ~at_start).sum() == s - full
        # Per strand: [K = 0] and max(K - 1, 0), with K ~ Binomial(n - 1, p).
        bonds, p = n - 1, self.P
        none = (1 - p) ** bonds
        mean = bonds * p - 1 + none
        var = bonds * p * (1 - p) + (bonds * p - 1) ** 2 - none - mean**2
        covariance = np.array([[none * (1 - none), -none * mean], [-none * mean, var]])
        assert_fits(mahalanobis(np.array([full - s * none, middle - s * mean]), covariance, s), 2)

    def test_data_column_coverage(self, monkeypatch):
        params, _, aligned = self._aligned(16, monkeypatch)
        cols = np.array(layout(params).data_positions())
        observed = aligned.count_table.sum(axis=0)[cols - 1]
        # Columns j < k split the bonds into [1, j-1], [j, k-1] and [k, n-1], clean
        # with probabilities x, y, z; both are counted iff two of the three are clean.
        keep = 1 - self.P
        lo, hi = np.minimum.outer(cols, cols), np.maximum.outer(cols, cols)
        x, y, z = keep ** (lo - 1), keep ** (hi - lo), keep ** (self.N - hi)
        both = x * y + x * z + y * z - 2 * x * y * z
        covered = np.diag(both)
        covariance = both - np.outer(covered, covered)
        assert_fits(mahalanobis(observed - self.S * covered, covariance, self.S), len(cols))


def realized_coverage(pool, n: int, span: int) -> np.ndarray:
    """Each column's count of usable fragments over it, read off their positions: those longer
    than a marker block that start at column 1 or end at column n."""
    usable = ((pool.start == 1) | (pool.end == n)) & (pool.end - pool.start + 1 > span)
    steps = np.bincount(pool.start[usable] - 1, minlength=n + 1) - np.bincount(pool.end[usable], minlength=n + 1)
    return np.cumsum(steps)[:n]


def recovery_chances(c: int, m: int, q: int, compositions) -> dict:
    """P(recover | x, c) for each composition x: the exact chance that a Multinomial(c, x / M)
    draw, apportioned to M by largest remainders with ties to the lower base, gives x back.

    Every outcome y (c split over q bases, by stars and bars) is apportioned once, here and
    not by the library, and its multinomial weight is summed over the outcomes giving x."""
    bars = np.array(list(itertools.combinations(range(c + q - 1), q - 1))).reshape(-1, q - 1)
    y = np.diff(np.column_stack((np.full(len(bars), -1), bars, np.full(len(bars), c + q - 1))), axis=1) - 1
    floors, remainders = divmod(y * m, c)
    # Bases by larger remainder, then lower base (the keys are distinct); the first M - sum(floors) get a unit.
    rank = np.argsort(np.argsort(q * -remainders + np.arange(q), axis=1), axis=1)
    apportioned = floors + (rank < m - floors.sum(axis=1, keepdims=True))
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, c + 1)))))
    ways = np.exp(log_factorial[c] - log_factorial[y].sum(axis=1))
    chances = {}
    for x in compositions:
        back = (apportioned == x).all(axis=1)
        chances[x] = float((ways[back] * np.prod((np.array(x) / m) ** y[back], axis=1)).sum())
    return chances


class TestEstimateLaw:
    """Whole pools on n = 40, ell = 3: the recovered data columns, grouped by (x, c), against
    P(recover | x, c). A group is a Pearson cell of its own when its binomial variance is at
    least 5; the others are pooled into one cell. A column of chance 0 or 1 must go that way."""

    N, ELL = 40, 3

    def _recoveries(self, model, strands, seeds):
        """{(x, c): [columns, recovered]} over the data columns of one experiment a seed. The
        aligned coverage must be the coverage the pool's positions give, at every column."""
        params = MarkerCodeParams(alphabet=DNA, n=self.N, ell=self.ELL)
        data, groups = np.flatnonzero(~layout(params).fixed), defaultdict(lambda: [0, 0])
        for seed in seeds:
            codeword = construct_codeword(random_message(params, seed), params)
            pool = break_strands(self.N, model, strands, seed)
            table = align_pool(synthesize(codeword, strands, seed), pool, params).count_table
            coverage = table.sum(axis=0)
            assert (coverage == realized_coverage(pool, self.N, self.ELL + 2)).all()
            recovered = (estimate_matrix(table, params).counts == codeword.counts).all(axis=0)
            for j in data:
                group = groups[tuple(codeword.counts[:, j].tolist()), int(coverage[j])]
                group[0] += 1
                group[1] += int(recovered[j])
        return groups

    def _statistic(self, groups):
        by_coverage = defaultdict(set)
        for x, c in groups:
            by_coverage[c].add(x)
        chances = {(x, c): p for c, xs in by_coverage.items() for x, p in recovery_chances(c, DNA.M, DNA.q, xs).items()}
        statistic, df, pooled = 0.0, 0, np.zeros(3)
        for key, (columns, recovered) in groups.items():
            p = chances[key]
            if p in (0.0, 1.0):
                assert recovered == columns * p, f"x, c = {key}: {recovered} of {columns} recovered, chance {p}"
                continue
            cell = np.array([recovered, columns * p, columns * p * (1 - p)])
            if cell[2] >= 5:
                statistic, df = statistic + (cell[0] - cell[1]) ** 2 / cell[2], df + 1
            else:
                pooled += cell
        if pooled[2] > 0:
            statistic, df = statistic + (pooled[0] - pooled[1]) ** 2 / pooled[2], df + 1
        return statistic, df

    def test_matches_a_separate_enumeration(self):
        # x = (1, 2, 0, 3) at M = 6, as a separate enumeration over the three weighed bases gave them.
        x = (1, 2, 0, 3)
        got = [recovery_chances(c, DNA.M, DNA.q, [x])[x] for c in (10, 20, 60)]
        assert got == pytest.approx([0.243, 0.370, 0.779], abs=5e-4)

    def test_without_breaks(self):
        # Every strand is one Full fragment: every data column's coverage is the strand count.
        groups = self._recoveries(PerBond(p=0), 8, range(4000, 4200))
        assert {c for _, c in groups} == {8}
        assert_fits(*self._statistic(groups))

    def test_per_bond_breaks(self):
        assert_fits(*self._statistic(self._recoveries(PerBond(p=0.02), 10, range(5000, 5200))))

    def test_one_break(self):
        assert_fits(*self._statistic(self._recoveries(ExactlyT(t=1), 8, range(6000, 6200))))

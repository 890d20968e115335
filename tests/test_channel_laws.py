"""The channel's exact laws, checked by Pearson chi-square tests.

Each statistic is compared with its chi-square law (Pearson; Knuth, TAOCP
Vol. 2, §3.3.1). Seeds are fixed, and the whole file shares one family-wise
false-alarm rate, FAMILY_ALPHA, split evenly (Bonferroni) over the
STATISTICS statistics below: a correct channel fails any of them with
probability at most 1e-4 in all. Never re-seed a test to make it pass.

The laws:
- synthesis: column j's bases are i.i.d. with law counts[:, j] / M, a
  zero-count base never appears, and strands are independent;
- PerBond(p): every bond breaks independently with probability p;
- ExactlyT and AtMostT: given a strand's break count c, its bonds are a
  uniform c-subset of the bond range;
- AtMostT(t): the break count is uniform on 0..t.
"""

import math

import numpy as np
import pytest

from compodna import AlphabetParams, AtMostT, CompositeMatrix, CompositeSymbol, ExactlyT, PerBond, synthesize
from compodna.channel import break_strands

FAMILY_ALPHA = 1e-4
STATISTICS = 9  # every chi-square statistic computed in this file
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
        matrix = CompositeMatrix(columns=tuple(CompositeSymbol(c) for c in self.COLUMNS), params=DNA)
        return synthesize(matrix, count, seed), matrix.count_array()

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

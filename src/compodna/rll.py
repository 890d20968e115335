"""Run-length-limited counting and redundancy bounds for composite alphabets.

Sequences are drawn from an alphabet of size Q in which R symbols form a
restricted subset. A sequence of length n is ell-run-length-limited when
every window of ell consecutive positions contains at least one symbol from
outside the restricted subset, i.e. no run of ell or more restricted symbols
occurs. Only the split of the alphabet into restricted / unrestricted
matters for counting, so everything here works on (Q, R, ell, n).

Exact counts follow a linear recurrence of order ell; count_rll_exact
evaluates it as x^n mod its characteristic polynomial, in O(ell^2 log n)
big-integer multiplications, and count_rll_brute is the exhaustive oracle.

Redundancy figures are measured in symbols, log base Q:
redundancy = n - log_Q(count).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .symbols import _int_arg, csv_row

_BRUTE_LIMIT = 20


@dataclass(frozen=True)
class RllParams:
    """Alphabet size Q, restricted-subset size R, window length ell, length n."""

    Q: int
    R: int
    ell: int
    n: int

    def __post_init__(self) -> None:
        # Every figure here is in log base Q, which needs Q >= 2.
        _int_arg(self.Q, "alphabet size Q", 2)
        _int_arg(self.R, "restricted-subset size R", 0, self.Q)
        _int_arg(self.ell, "window length ell", 1)
        _int_arg(self.n, "sequence length n", 0)


def is_run_length_limited(restricted_flags: Sequence[bool], ell: int) -> bool:
    """True when no window of ell consecutive positions is fully restricted.

    `restricted_flags[i]` marks position i as carrying a restricted symbol.
    Sequences shorter than ell qualify vacuously (no full window exists).
    """
    _int_arg(ell, "window length ell", 1)
    run = 0
    for flag in restricted_flags:
        run = run + 1 if flag else 0
        if run >= ell:
            return False
    return True


def count_rll_brute(params: RllParams) -> int:
    """Exhaustive count over all 2^n restricted/unrestricted patterns.

    Independent oracle for count_rll_exact: each valid position-class
    pattern (a string, "1" at each restricted position) with t restricted
    positions contributes R^t * (Q-R)^(n-t). Only feasible for small n.
    """
    Q, R, ell, n = params.Q, params.R, params.ell, params.n
    if n > _BRUTE_LIMIT:
        raise ValueError(f"brute-force count limited to n <= {_BRUTE_LIMIT}, got n={n}")
    good, run = Q - R, "1" * ell
    total = 0
    for pattern in map("".join, product("01", repeat=n)):
        if run not in pattern:
            t = pattern.count("1")
            total += R**t * good ** (n - t)
    return total


def _reduce(poly: list[int], tail: Sequence[int]) -> None:
    """Reduce `poly` (coefficients, lowest degree first) in place modulo
    x^ell - sum_j tail[j] x^j, where ell = len(tail), leaving ell coefficients.

    Each top coefficient folds down onto the ell below it, highest degree
    first, so every addend is a big x small product.
    """
    ell = len(tail)
    for d in range(len(poly) - 1, ell - 1, -1):
        top = poly[d]
        base = d - ell
        for j, t in enumerate(tail):
            poly[base + j] += top * t
    del poly[ell:]


def _square(poly: list[int]) -> list[int]:
    """Schoolbook square: ell(ell+1)/2 big x big products."""
    ell = len(poly)
    out = [0] * (2 * ell - 1)
    for i, a in enumerate(poly):
        out[2 * i] += a * a
        twice = a << 1
        for j in range(i + 1, ell):
            out[i + j] += twice * poly[j]
    return out


def count_rll_exact(params: RllParams) -> int:
    """Exact size of the run-length-limited set, from x^n mod the recurrence.

    Splitting a sequence at its last unrestricted symbol, followed by k < ell
    restricted ones, gives c_n = (Q-R) sum_{k<ell} R^k c_{n-1-k} for n >= ell,
    with c_i = Q^i for i < ell. So c_n = sum_i b_i Q^i, where
    b = x^n mod P(x) and P(x) = x^ell - (Q-R) sum_{k<ell} R^k x^(ell-1-k).
    x^n mod P is built from x^0, left to right over the bits of n: a square
    per bit and a multiply by x (shift, then one reduction) per set bit, so
    the count costs O(ell^2 log n) big-integer multiplications. Every
    coefficient is a non-negative exact int.
    """
    Q, R, ell, n = params.Q, params.R, params.ell, params.n
    # x^ell = sum_j tail[j] x^j mod P, with tail[j] = (Q-R) R^(ell-1-j).
    tail = [(Q - R) * R ** (ell - 1 - j) for j in range(ell)]
    poly = [1] + [0] * (ell - 1)  # x^0
    for bit in bin(n)[2:]:
        poly = _square(poly)
        _reduce(poly, tail)
        if bit == "1":
            poly.insert(0, 0)
            _reduce(poly, tail)
    total = 0
    for b in reversed(poly):
        total = total * Q + b
    return total


def window_count_closed_form(Q: int, R: int, ell: int) -> int:
    """Exact count of run-length-limited sequences of length 2*ell.

    Evaluates Q^(2l) - (l+1) R^l Q^l + l R^(l+1) Q^(l-1) in integer
    arithmetic; equals count_rll_exact at n = 2*ell.
    """
    RllParams(Q=Q, R=R, ell=ell, n=0)
    return Q ** (2 * ell) - (ell + 1) * R**ell * Q**ell + ell * R ** (ell + 1) * Q ** (ell - 1)


def forbidden_block_count(j: int, k: int, Q: int, R: int, ell: int) -> int:
    """Number of length-2*ell sequences whose first restricted run of length
    >= ell starts at position j and has length exactly k.

    Valid index pairs are j in [1, ell+1], k in [ell, 2*ell-j+1]. Summing
    over all valid pairs gives Q^(2l) - window_count_closed_form.
    """
    RllParams(Q=Q, R=R, ell=ell, n=0)
    _int_arg(j, "run start j", 1, ell + 2)
    _int_arg(k, "run length k", ell, 2 * ell - j + 2, why=f"for run start j={j}")
    # The run is flanked by an unrestricted symbol on each of its f sides that does not touch an end.
    f = (j > 1) + (j + k - 1 < 2 * ell)
    return R**k * (Q - R) ** f * Q ** (2 * ell - k - f)


def _log_q(value: int, Q: int) -> float:
    # math.log handles arbitrary-size ints without overflow.
    return math.log(value) / math.log(Q)


def redundancy_exact(params: RllParams) -> float:
    """n - log_Q(exact count), from count_rll_exact."""
    count = count_rll_exact(params)
    return params.n - _log_q(count, params.Q)


def redundancy_lower_bound(params: RllParams) -> float:
    """Lower bound log_Q(e) (R/Q)^l (1 - R/Q) (n - 2l)/2; zero when n < 2l."""
    Q, R, ell, n = params.Q, params.R, params.ell, params.n
    if n < 2 * ell:
        return 0.0
    ratio = R / Q
    return math.log(math.e, Q) * ratio**ell * (1 - ratio) * (n - 2 * ell) / 2


@dataclass(frozen=True)
class RllUpperBounds:
    """Union-bound and local-lemma redundancy upper bounds.

    `union` is None whenever the union-bound derivation does not apply
    (its survival probability S reaches 1). `lll` is always evaluated, but
    its derivation assumes the local-lemma premises, which hold only for
    large enough ell; `lll_premises_hold` records the numeric check.
    """

    union: Optional[float]
    lll: float
    lll_premises_hold: bool


def lll_premises_hold(Q: int, R: int, ell: int) -> bool:
    """Numeric check of the local-lemma premise inequalities.

    With pi = (R/Q)^l (1 - R/Q) and pi1 = (R/Q)^l, weights phi = e*pi and
    phi1 = e*pi1 satisfy the lemma's conditions exactly when
    e((2l+2) pi + pi1) <= 1 and e((l-1) pi + pi1) <= 1.
    """
    ratio = R / Q
    pi1 = ratio**ell
    pi = pi1 * (1 - ratio)
    return (
        math.e * ((2 * ell + 2) * pi + pi1) <= 1.0
        and math.e * ((ell - 1) * pi + pi1) <= 1.0
    )


def redundancy_upper_bounds(params: RllParams) -> RllUpperBounds:
    """Both redundancy upper bounds.

    Let S = (R/Q)^l (1 + (1 - R/Q)(n - l)). The union-bound variant is
    log_Q(e) S / (1 - S), defined only for S < 1. The local-lemma variant
    e log_Q(e) S is always reported.
    """
    Q, R, ell, n = params.Q, params.R, params.ell, params.n
    _int_arg(n, "sequence length n", ell, why="at least the window length ell")
    ratio = R / Q
    s = ratio**ell * (1 + (1 - ratio) * (n - ell))
    log_q_e = math.log(math.e, Q)
    union = log_q_e * s / (1 - s) if s < 1 else None
    return RllUpperBounds(union=union, lll=math.e * log_q_e * s, lll_premises_hold=lll_premises_hold(Q, R, ell))


def redundancy_trivial_bound(params: RllParams) -> float:
    """Baseline bound floor(n/l) log_Q(Q/(Q-R)) from forcing every l-th position."""
    Q, R, ell, n = params.Q, params.R, params.ell, params.n
    return (n // ell) * math.log(Q / (Q - R), Q)


def verify_summation_identities(Q: int, R: int, ell: int) -> bool:
    """Cross-check the algebraic identities behind the closed-form window count.

    Evaluates three identities in exact rational arithmetic and returns True
    only if all hold exactly:

    1. sum_{j=1}^{l} R^(2l-j) Q^j (1-R/Q) + sum_{k=l}^{2l-1} R^k Q^(2l-k) (1-R/Q)
       == 2 (QR)^l (1 - (R/Q)^l)
    2. sum_{j=1}^{l-1} sum_{k=l}^{2l-j-1} R^k Q^(2l-k) (1-R/Q)^2
       == (QR)^l ((l-1) - l(R/Q) + (R/Q)^l)
    3. the change-of-summation-order identity
       sum_{j=1}^{l-1} sum_{i=0}^{l-j-1} x^i == sum_{i=0}^{l-2} sum_{j=1}^{l-1-i} x^i
       at x = R/Q.
    """
    RllParams(Q=Q, R=R, ell=ell, n=0)
    _int_arg(ell, "window length ell", 2)
    x = Fraction(R, Q)
    one_minus = 1 - x

    lhs1 = sum(Fraction(R ** (2 * ell - j) * Q**j) * one_minus for j in range(1, ell + 1))
    lhs1 += sum(Fraction(R**k * Q ** (2 * ell - k)) * one_minus for k in range(ell, 2 * ell))
    rhs1 = 2 * Fraction((Q * R) ** ell) * (1 - x**ell)

    lhs2 = sum(
        Fraction(R**k * Q ** (2 * ell - k)) * one_minus**2
        for j in range(1, ell)
        for k in range(ell, 2 * ell - j)
    )
    rhs2 = Fraction((Q * R) ** ell) * ((ell - 1) - ell * x + x**ell)

    lhs3 = sum(x**i for j in range(1, ell) for i in range(ell - j))
    rhs3 = sum(x**i for i in range(ell - 1) for _ in range(1, ell - i))

    return lhs1 == rhs1 and lhs2 == rhs2 and lhs3 == rhs3


def verify_summation_identities_grid(points: int = 20, seed: int = 7, max_ell: int = 8) -> int:
    """Run verify_summation_identities on a seeded random grid; returns failure count."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(points):
        Q = rng.randint(2, 100)
        R = rng.randint(0, Q - 1)
        ell = rng.randint(2, max_ell)
        if not verify_summation_identities(Q, R, ell):
            failures += 1
    return failures


@dataclass(frozen=True)
class BoundReport:
    """Exact count plus the four redundancy figures for one parameter point."""

    exact_count: int
    exact_redundancy: float
    lower_bound: float
    upper_bound_union: Optional[float]
    upper_bound_lll: float
    trivial_bound: float


def bound_report(params: RllParams) -> BoundReport:
    """Exact count and all redundancy figures for one (Q, R, ell, n)."""
    count = count_rll_exact(params)
    # For n < ell every sequence qualifies and the redundancy is exactly 0,
    # so 0 is a valid stand-in where the upper-bound formulas do not apply.
    upper = redundancy_upper_bounds(params) if params.n >= params.ell else RllUpperBounds(None, 0.0, False)
    return BoundReport(
        exact_count=count,
        exact_redundancy=params.n - _log_q(count, params.Q),
        lower_bound=redundancy_lower_bound(params),
        upper_bound_union=upper.union,
        upper_bound_lll=upper.lll,
        trivial_bound=redundancy_trivial_bound(params),
    )


SWEEP_CSV_HEADER = ",".join(["Q", "R", "ell", "n", *(field.name for field in fields(BoundReport))])


def sweep_csv_rows(Q: int, R: int, ells: Sequence[int], ns: Sequence[int]) -> list[str]:
    """One CSV row per (Q, R, ell, n), in SWEEP_CSV_HEADER's columns."""
    reports = ((ell, n, bound_report(RllParams(Q=Q, R=R, ell=ell, n=n))) for ell in ells for n in ns)
    # vars() reads the fields shallowly; dataclasses.astuple would deep-copy them.
    return [csv_row((Q, R, ell, n, *vars(rep).values())) for ell, n, rep in reports]

"""Marker-based code construction for single strand breaks.

A codeword of length n carries a deterministic marker block of ell+2
columns at each end: an anchor-base column, ell marker-base columns at
full weight M, and another anchor column. So that the marker's base
pattern can never arise inside the data, every ell-th data column is a
"breaker": a column whose marker-base count is forced to zero. Fragments
of a broken strand are then positioned by which end markers they retain.

Each column is a composition of M over the bases its role allows (see
layout()); encoding, validation, decoding and estimation all read that
one table.

Column indices and base indices are 1-based throughout, matching the
construction's arithmetic (breaker columns are exactly the j with
(j + 2) mod ell == 0 inside the data region); only the layout's
allowed-base mask is 0-based, its row b - 1 being base b.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .symbols import AlphabetParams, CompositeMatrix, alphabet_size, brief, restricted_symbol_count
from .symbols import _composition_count, _count_dtype, _int_arg, _is_int, _rank_composition, _unrank_composition


class InvalidCodewordError(ValueError):
    """A matrix violates one of the codeword constraints; message names column and condition."""


@dataclass(frozen=True)
class MarkerCodeParams:
    """Layout parameters: alphabet, codeword length n, marker run length ell.

    `marker_base` fills the marker interior, `anchor_base` its two flanking
    columns. Defaults 1 and 2 ("A" interior, "C" anchors for DNA).
    """

    alphabet: AlphabetParams
    n: int
    ell: int
    marker_base: int = 1
    anchor_base: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "ell", _int_arg(self.ell, "marker run length ell", 1))
        why = "too small for two markers plus one data column"
        object.__setattr__(self, "n", _int_arg(self.n, "codeword length n", 2 * self.ell + 5, why=why))
        object.__setattr__(self, "marker_base", _int_arg(self.marker_base, "marker_base", 1, self.q + 1))
        object.__setattr__(self, "anchor_base", _int_arg(self.anchor_base, "anchor_base", 1, self.q + 1))
        if self.marker_base == self.anchor_base:
            raise ValueError("marker_base and anchor_base must differ")

    @property
    def q(self) -> int:
        return self.alphabet.q

    @property
    def M(self) -> int:
        return self.alphabet.M

    def marker_pattern(self) -> tuple[int, ...]:
        """Base-index pattern of one marker block: anchor, marker x ell, anchor."""
        return (self.anchor_base,) + (self.marker_base,) * self.ell + (self.anchor_base,)

    @functools.cached_property
    def _layout(self) -> LayoutMap:
        return _build_layout(self)


@dataclass(frozen=True, eq=False)
class LayoutMap:
    """Each column's role and the bases it may weigh, column 1 first.

    A role is "anchor", "marker", "breaker" or "free". `allowed` is a read-only
    (q, n) mask: allowed[b - 1, j - 1] when column j may weigh base b. Every
    column is a composition of M over its allowed bases; an anchor or marker
    column has one, so its only value is full weight on it.
    """

    alphabet: AlphabetParams
    roles: tuple[str, ...]
    allowed: np.ndarray
    radices: tuple[int, ...]  # values per column: C(M+k-1, k-1) for k allowed bases

    def _positions(self, role: str) -> frozenset[int]:
        return frozenset(j for j, r in enumerate(self.roles, start=1) if r == role)

    @property
    def marker_positions(self) -> frozenset[int]:
        """Anchor and marker columns: both marker blocks."""
        return frozenset((np.flatnonzero(self.fixed) + 1).tolist())

    @property
    def breaker_positions(self) -> frozenset[int]:
        return self._positions("breaker")

    @property
    def free_positions(self) -> frozenset[int]:
        return self._positions("free")

    def data_positions(self) -> list[int]:
        """Breaker and free columns in ascending column order."""
        return (np.flatnonzero(~self.fixed) + 1).tolist()

    @functools.cached_property
    def fixed(self) -> np.ndarray:
        """(n,) mask of the anchor and marker columns, whose one value is full weight on their base."""
        return np.array([role in ("anchor", "marker") for role in self.roles])


def layout(params: MarkerCodeParams) -> LayoutMap:
    """Column roles and allowed bases for the given parameters.

    The marker blocks occupy [1, ell+2] and [n-ell-1, n], laid out as
    marker_pattern(); breakers are the data columns j with
    (j + 2) mod ell == 0; the rest of the data is free. Every encode, check,
    decode and estimate asks for it, so it is built on first use and held
    as long as the params object.
    """
    return params._layout


def _build_layout(params: MarkerCodeParams) -> LayoutMap:
    ell, span, bases = params.ell, params.ell + 2, np.arange(1, params.q + 1)
    masks = {
        "anchor": bases == params.anchor_base,
        "marker": bases == params.marker_base,
        "breaker": bases != params.marker_base,
        "free": bases > 0,
    }
    radix = {role: _composition_count(int(mask.sum()), params.M) for role, mask in masks.items()}
    block = ["anchor" if base == params.anchor_base else "marker" for base in params.marker_pattern()]
    data = [_data_role(j, ell) for j in range(span + 1, params.n - span + 1)]
    roles = tuple(block + data + block)
    allowed = np.column_stack([masks[role] for role in roles])
    allowed.flags.writeable = False
    return LayoutMap(params.alphabet, roles, allowed, tuple(map(radix.__getitem__, roles)))


def _data_role(j: int, ell: int) -> str:
    return "breaker" if (j + 2) % ell == 0 else "free"


def _check_radices(params: MarkerCodeParams) -> None:
    """A ValueError names the first data column whose radix passes 2^63, in O(ell) time and
    memory at any n and q: roles repeat every ell data columns, and a breaker weighs q - 1
    bases, a free column q. It reads the first ell data columns, from ell + 3; the layout is not built."""
    radix = {"breaker": _composition_count(params.q - 1, params.M), "free": alphabet_size(params.alphabet)}
    for j in range(params.ell + 3, min(params.n - params.ell - 2, 2 * params.ell + 2) + 1):
        if (value := radix[_data_role(j, params.ell)]) > 1 << 63:
            raise ValueError(f"message draw needs radices <= 2^63, but column {j} has radix {brief(value)}")


def message_radices(params: MarkerCodeParams) -> list[int]:
    """Per-data-column alphabet sizes: Q at free columns, Q-R at breakers."""
    lay = layout(params)
    return [lay.radices[j - 1] for j in lay.data_positions()]


def construct_codeword(message: Sequence[int], params: MarkerCodeParams) -> CompositeMatrix:
    """Encode a mixed-radix message into a codeword matrix.

    One message symbol per data column, consumed in column order. Every
    column unranks its symbol over its allowed bases; marker-block columns
    take symbol 0.
    """
    lay = layout(params)
    data = lay.data_positions()
    if len(message) != len(data):
        raise ValueError(f"message has {len(message)} symbols, layout expects {len(data)}")
    symbols = [0] * params.n
    for j, sym in zip(data, message):
        if type(sym) is not int and not _is_int(sym):  # a message of ints never pays for _is_int
            raise ValueError(f"message symbol {brief(sym)} at column {j} is not an integer")
        radix = lay.radices[j - 1]
        if not 0 <= sym < radix:
            raise ValueError(f"message symbol {brief(sym)} at column {j} outside radix [0, {brief(radix)})")
        symbols[j - 1] = sym
    m = params.M
    counts = np.zeros((params.q, params.n), dtype=_count_dtype(m))
    # The transposed mask lists every column's allowed bases in order, column by column.
    parts = lay.allowed.sum(axis=0).tolist()
    scatter = chain.from_iterable(map(_unrank_composition, symbols, parts, repeat(m)))
    counts.T[lay.allowed.T] = np.fromiter(scatter, dtype=counts.dtype, count=sum(parts))
    return CompositeMatrix._owned(counts, params.alphabet)


@dataclass(frozen=True)
class CodewordCheck:
    """Validation outcome; `violations` name the failed condition and column."""

    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


# What a column of each role violates when it weighs a base outside its own.
_VIOLATIONS = {
    "anchor": "marker column mismatch (condition 1)",
    "marker": "marker column mismatch (condition 2)",
    "breaker": "breaker column has nonzero marker-base count (condition 3)",
}


def is_valid_codeword(matrix: CompositeMatrix, params: MarkerCodeParams) -> CodewordCheck:
    """Check that no column weighs a base outside its allowed ones.

    Condition 1: the four anchor columns put full weight on the anchor base.
    Condition 2: the marker-interior columns put full weight on the marker base.
    Condition 3: breaker columns carry zero marker-base weight.
    """
    if matrix.params != params.alphabet:
        violation = (
            f"alphabet mismatch: matrix has (q={brief(matrix.params.q)}, M={brief(matrix.params.M)}), "
            f"params expect (q={brief(params.q)}, M={brief(params.M)})"
        )
        return CodewordCheck(ok=False, violations=(violation,))
    if matrix.n != params.n:
        violation = f"length mismatch: matrix has {matrix.n} columns, params expect {params.n}"
        return CodewordCheck(ok=False, violations=(violation,))
    # A column's counts sum to M, so all of M on its allowed bases means no
    # weight anywhere else; a column that may weigh every base always has it.
    lay = layout(params)
    short = np.flatnonzero(np.where(lay.allowed, matrix.counts, 0).sum(axis=0) != params.M)
    violations = tuple(f"column {j + 1}: {_VIOLATIONS[lay.roles[j]]}" for j in short)
    return CodewordCheck(ok=not violations, violations=violations)


def decode_matrix(codeword: CompositeMatrix, params: MarkerCodeParams) -> list[int]:
    """Inverse of construct_codeword; raises InvalidCodewordError on a bad matrix."""
    check = is_valid_codeword(codeword, params)
    if not check:
        raise InvalidCodewordError("; ".join(check.violations))
    # construct_codeword's scatter order: every column's allowed bases, column by column; then the data columns.
    lay = layout(params)
    flat, edges = codeword.counts.T[lay.allowed.T].tolist(), [0, *np.cumsum(lay.allowed.sum(axis=0)).tolist()]
    return [_rank_composition(flat[a:b]) for a, b, fixed in zip(edges, edges[1:], lay.fixed.tolist()) if not fixed]


def _breaker_cost(alphabet: AlphabetParams) -> float:
    """log_Q(Q/(Q-R)) symbols per breaker; R is the same for every excluded base."""
    Q = alphabet_size(alphabet)
    return math.log(Q / (Q - restricted_symbol_count(alphabet, 1)), Q)


def code_redundancy_formula(params: MarkerCodeParams) -> float:
    """Redundancy 2l + 4 + floor((n - 2(l+2))/l) log_Q(Q/(Q-R)), in symbols."""
    n, ell = params.n, params.ell
    return 2 * ell + 4 + ((n - 2 * (ell + 2)) // ell) * _breaker_cost(params.alphabet)


def measured_code_redundancy(params: MarkerCodeParams) -> float:
    """Redundancy from the actual layout: 2(l+2) + |breakers| log_Q(Q/(Q-R)).

    Can exceed code_redundancy_formula by one breaker's cost: the layout
    predicate may place one more breaker than the floor term accounts for.
    """
    lay = layout(params)
    return 2 * (params.ell + 2) + len(lay.breaker_positions) * _breaker_cost(params.alphabet)


@dataclass(frozen=True)
class OptimalMarkerLength:
    """Closed-form and integer-scan optima for the marker run length."""

    ell_formula: float
    ell_integer: int
    redundancy_at_optimum: float
    redundancy_at_integer: float


def optimal_marker_length(q: int, M: int, n: int) -> OptimalMarkerLength:
    """Marker length minimizing the code redundancy.

    The continuous optimum is ell* = sqrt((n-4)/2 * log_Q(Q/(Q-R))) with
    minimized redundancy 4 + 2 sqrt(2(n-4) log_Q(Q/(Q-R))) - 2 log_Q(Q/(Q-R)).
    `ell_integer` minimizes code_redundancy_formula over the feasible integer
    ell (ties to the smaller ell); `redundancy_at_integer` is that minimum.
    """
    _int_arg(n, "codeword length n", 9)
    alphabet = AlphabetParams(q=q, M=M)
    lam = _breaker_cost(alphabet)
    ell_formula = math.sqrt((n - 4) / 2 * lam)
    red_opt = 4 + 2 * math.sqrt(2 * (n - 4) * lam) - 2 * lam

    # Ascending ell, ties to the smaller. The redundancy is at least 2 ell + 4 (its
    # floor term is >= 0), so no ell with 2 ell + 4 above the best so far can beat it.
    best_red, best_ell = math.inf, 0
    for ell in range(1, (n - 5) // 2 + 1):
        if 2 * ell + 4 > best_red:
            break
        red = code_redundancy_formula(MarkerCodeParams(alphabet=alphabet, n=n, ell=ell))
        if red < best_red:
            best_red, best_ell = red, ell
    return OptimalMarkerLength(ell_formula, best_ell, red_opt, best_red)


def continuous_redundancy(q: int, M: int, n: int, ell: float) -> float:
    """Floor-free redundancy relaxation 2l + 4 + ((n-4)/l - 2) log_Q(Q/(Q-R))."""
    lam = _breaker_cost(AlphabetParams(q=q, M=M))
    return 2 * ell + 4 + ((n - 4) / ell - 2) * lam


def asymptotic_optimal_ell(Q: int, R: int, n: int) -> float:
    """Reference marker length log_{Q/R}(n / ln n) for order-optimal encoders.

    Balances the marker cost (growing in ell) against the expected
    constraint cost (R/Q)^ell * n; the additive O(1) term is taken as 0.
    """
    _int_arg(R, "restricted-subset size R", 1)
    _int_arg(Q, "alphabet size Q", R + 1)
    _int_arg(n, "length n", 3)
    return math.log(n / math.log(n)) / math.log(Q / R)


class FragmentClass(Enum):
    """How a sequenced fragment relates to the codeword's marker blocks."""

    FULL = "Full"
    PREFIX = "Prefix"
    SUFFIX = "Suffix"
    MARKER_ONLY = "MarkerOnly"
    DISCARD = "Discard"


def classify_fragment(fragment: Sequence[int], params: MarkerCodeParams) -> FragmentClass:
    """Classify a fragment by the marker blocks it retains.

    Full: length n with both markers. MarkerOnly: exactly one bare marker
    block. Prefix / Suffix: starts / ends with a complete marker block.
    Everything else is discarded, including fragments shorter than a marker
    block and sub-length fragments that match at both ends (ambiguous).
    """
    n, length = params.n, len(fragment)
    if length > n:
        raise ValueError(f"fragment of length {length} exceeds codeword length {n}")
    pattern = params.marker_pattern()
    span = len(pattern)
    head = tuple(int(b) for b in fragment[:span]) == pattern
    tail = length >= span and tuple(int(b) for b in fragment[length - span :]) == pattern
    return _class_rule(head, tail, length == n, length == span)


def _class_rule(head: bool, tail: bool, full: bool, bare: bool) -> FragmentClass:
    """The class of a fragment that starts (head) or ends (tail) with the marker block and whose
    length is n (full) or one block (bare); the channel's class table is this rule too."""
    if bare and head:
        return FragmentClass.MARKER_ONLY
    if head and tail:
        return FragmentClass.FULL if full else FragmentClass.DISCARD
    if head:
        return FragmentClass.PREFIX
    return FragmentClass.SUFFIX if tail else FragmentClass.DISCARD

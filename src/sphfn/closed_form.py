"""Closed-form values of the averaged two-row characters at short cycles.

All values refer to the group of permutations of N = n1 + n2 + n3 points, the
subgroup preserving the three consecutive blocks, the irreducible character of
two-row shape [N - k, k], and its average over one subgroup coset:

    Phi(g) = (1 / |H|) * sum over h in H of chi(g h).

The closed forms below evaluate Phi at the identity, at the embedded 2-cycles
joining two blocks, and at the embedded 3-cycle through all three.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .characters import check_m, m_range, multiplicity
from .core import BlockTriple, check_int, check_k, check_sizes, cycle_blocks, pair_blocks

__all__ = [
    "SphericalQuery",
    "phi_identity",
    "phi_2cycle",
    "zeta",
    "xi",
    "g3_diagonal_coeff",
    "phi_3cycle",
    "phi_special",
    "phi_2cycle_two_factor",
    "phi_closed_form",
]


@dataclass(frozen=True)
class SphericalQuery:
    """One evaluation request: block sizes, shape parameter k, cycle support.

    The cycle is the set of blocks the embedded cycle runs through: one block
    means the identity, two a transposition, three the 3-cycle.
    """

    n: BlockTriple
    k: int
    cycle: tuple[int, ...]

    def __post_init__(self):
        check_k(self.n.N, self.k)
        if cycle_blocks(self.cycle) != self.cycle:
            raise ValueError(f"cycle must be sorted distinct blocks, got {self.cycle}")


def phi_identity(n: BlockTriple, k: int) -> Fraction:
    """Phi at the identity: the number of invariant vectors in the module."""
    return Fraction(multiplicity(n, k))


def phi_2cycle(n: BlockTriple, k: int, pair: tuple[int, int] = (1, 2)) -> Fraction:
    """Phi at the 2-cycle joining the first points of two blocks.

    Equals the sum over the multiplicity range of the transposition
    eigenvalues ((m - na)(m - nb) - m) / (na nb); the sum telescopes into the
    cubic-free polynomial of _two_cycle_ratio. Empty range gives 0.
    """
    return Fraction(*_two_cycle_ratio(*_pair_sizes(n, k, pair), k))


def _pair_sizes(n: BlockTriple, k: int, pair: tuple[int, int]) -> tuple[int, int, int]:
    """Check k and the pair; the sizes of the pair's blocks, then the third's."""
    check_k(n.N, k)
    a, b, c = pair_blocks(pair)
    sizes = n.sizes
    return sizes[a - 1], sizes[b - 1], sizes[c - 1]


def _two_cycle_ratio(na: int, nb: int, nc: int, k: int) -> tuple[int, int]:
    """The 2-cycle value between blocks of sizes na and nb, the third of size nc.

    An unreduced pair (num, den) with den > 0; the caller has checked k. The
    telescoped bracket is kept over the integers as 6 times its value.
    """
    m_lower = max(0, k - nc)
    m_upper = min(na, nb, k, na + nb - k)
    if m_lower > m_upper:
        return 0, 1
    mu = m_upper - m_lower
    inner6 = (
        6 * (m_lower * m_lower + na * nb)
        - (6 * m_lower + 3 * mu) * (na + nb)
        + (6 * m_lower + 2 * mu) * (mu - 1)
    )
    return (mu + 1) * inner6, 6 * na * nb


def zeta(n: BlockTriple, k: int, m: int) -> int:
    """Numerator of the diagonal 3-cycle entry before boundary correction.

    k must pass core.check_k and m must be an int; as a polynomial in m,
    zeta takes any int m.
    """
    check_k(n.N, k)
    check_int("m", m)
    n1, n2, n3 = n.sizes
    return (
        m * m * (3 * k - 2 * m)
        + m * (n3 * n3 - k * k)
        - (n3 - k + m) * (m * (n1 + n2 + n3) - n1 * n2)
    )


def xi(n: BlockTriple, k: int, m: int) -> Fraction:
    """Off-diagonal correction term; 0 whenever one of its linear factors is.

    The generic formula divides by n1 + n2 - 2m, which vanishes only when
    m = n1 = n2; there the pole cancels against n1 n2 - m^2 and the reduced
    product applies. Any other zero denominator would mean a caller bug.
    k must pass core.check_k and m must be an int. An m outside m_range is
    taken: the telescoped sum reads xi at m_L - 1, and xi vanishes at m = k.
    """
    check_k(n.N, k)
    check_int("m", m)
    return Fraction(*_xi_ratio(n, k, m))


def _xi_ratio(n: BlockTriple, k: int, m: int) -> tuple[int, int]:
    """xi as an unreduced pair (num, den); den > 0 whenever m <= min(n1, n2)."""
    n1, n2, n3 = n.sizes
    head = (m + 1) * (n3 - k + m + 1) * (k - m)
    if head == 0:
        return 0, 1
    if n1 + n2 - 2 * m != 0:
        return head * (n1 * n2 - m * m), n1 + n2 - 2 * m
    if m == n1 == n2:
        return head * m, 1
    raise ValueError(f"xi undefined at m = {m} for n = {n.sizes}, k = {k}")


def g3_diagonal_coeff(n: BlockTriple, k: int, m: int) -> Fraction:
    """Diagonal entry of the averaged 3-cycle action on the m-th basis vector.

    There is a basis vector for each m in m_range(n, k) only; any other m
    raises ValueError, as HahnContext does.
    """
    check_m(n, k, m)
    n1, n2, n3 = n.sizes
    return Fraction(1, n1 * n2 * n3) * (
        zeta(n, k, m) - xi(n, k, m) + xi(n, k, m - 1)
    )


def _power_sums(lower: int, upper: int) -> tuple[int, int, int, int]:
    """Sums of m^0, m^1, m^2, m^3 over lower <= m <= upper, for lower >= 0.

    Each is a prefix sum over 0 <= m <= upper less one over 0 <= m < lower:
    with t = upper (upper + 1) / 2 and b = (lower - 1) lower / 2, the squares
    give (t (2 upper + 1) - b (2 lower - 1)) / 3 and the cubes t^2 - b^2.
    """
    t = upper * (upper + 1) // 2
    b = (lower - 1) * lower // 2
    return (
        upper - lower + 1,
        t - b,
        (t * (2 * upper + 1) - b * (2 * lower - 1)) // 3,
        t * t - b * b,
    )


def phi_3cycle(n: BlockTriple, k: int) -> Fraction:
    """Phi at the 3-cycle through the first points of the three blocks.

    The sum of the diagonal entries telescopes: all xi terms cancel except at
    the top of the range. The zeta terms, a cubic in m, are summed in O(1)
    through the power sums of m over the range; see _phi_3cycle_ratio.
    """
    return Fraction(*_phi_3cycle_ratio(n, k, *m_range(n, k)))


def _phi_3cycle_ratio(n: BlockTriple, k: int, m_lower: int, m_upper: int) -> tuple[int, int]:
    """phi_3cycle as an unreduced pair (num, den) with den > 0.

    The caller passes (m_lower, m_upper) = m_range(n, k), which has checked
    k. The pair is (total xd - xn, n1 n2 n3 xd), with total the zeta sum and
    xi(m_U) = xn / xd. The tests prove it equal, at every input, to a second
    grouping of the same sum in terms of m_L, k - m_U and m_U - m_L.
    """
    if m_lower > m_upper:
        return 0, 1
    n1, n2, n3 = n.sizes
    N = n1 + n2 + n3
    # zeta(m) = -2 m^3 + (3k - N) m^2 + c1 m + c0
    c1 = n3 * n3 - k * k - (n3 - k) * N + n1 * n2
    c0 = (n3 - k) * n1 * n2
    s0, s1, s2, s3 = _power_sums(m_lower, m_upper)
    total = -2 * s3 + (3 * k - N) * s2 + c1 * s1 + c0 * s0
    xn, xd = _xi_ratio(n, k, m_upper)
    return total * xd - xn, n1 * n2 * n3 * xd


def phi_special(n: BlockTriple, k: int, cycle: tuple[int, ...] = (1, 2, 3)) -> Optional[Fraction]:
    """Boundary and symmetric shortcut values, or None when no shortcut applies.

    Covered: k equal to the sum of two block sizes, k = N/2, and all blocks
    equal (2-cycle shortcuts exist for the first two families only). These
    duplicate the general formulas and exist to cross-check them.

    The two-block-sum cases have multiplicity one automatically whenever the
    query is admissible; k = N/2 does not, so that display is only offered
    when its multiplicity-one hypothesis holds. The cycle is a set of
    blocks, in any order, checked by core.cycle_blocks.
    """
    cycle = cycle_blocks(cycle)
    n1, n2, n3 = n.sizes
    N = n.N
    m_lower, m_upper = m_range(n, k)
    if cycle == (1, 2, 3):
        if k == n1 + n3:
            return Fraction(-1, n2)
        if k == n2 + n3:
            return Fraction(-1, n1)
        if k == n1 + n2:
            return Fraction(-1, n3)
        if 2 * k == N and m_lower == m_upper:
            half = N // 2
            prod = (half - n1) * (half - n2) * (half - n3)
            pairs = (
                (half - n1) * (half - n2)
                + (half - n1) * (half - n3)
                + (half - n2) * (half - n3)
            )
            return Fraction(-prod - pairs, n1 * n2 * n3)
        if n1 == n2 == n3:
            # factor (b^2 - 3bk/2 + k(k - 1)/2) / b^2, over the integers
            b = n1
            factor = k + 1 if k <= b else 3 * b - 2 * k + 1
            return Fraction(factor * (2 * b * b - 3 * b * k + k * (k - 1)), 2 * b * b)
        return None
    if cycle == (1, 2):
        if k == n1 + n3:
            return Fraction(-1, n2)
        if k == n2 + n3:
            return Fraction(-1, n1)
        if k == n1 + n2:
            return Fraction(1)
        if 2 * k == N and m_lower == m_upper:
            half = N // 2
            return Fraction((half - n1) * (half - n2) - half + n3, n1 * n2)
        return None
    return None


def phi_2cycle_two_factor(n1: int, n2: int, k: int) -> Fraction:
    """Two-block analogue: subgroup of two consecutive blocks, 2-cycle between.

    The 2-cycle kernel with an empty third block, under the same k rule,
    0 <= 2k <= n1 + n2. The invariant is unique for k <= min(n1, n2), where
    the value is (n1 n2 - (n1 + n2) k + k (k - 1)) / (n1 n2); past min(n1, n2)
    there is none, and the value is 0.
    """
    check_sizes((n1, n2))
    check_k(n1 + n2, k)
    return Fraction(*_two_cycle_ratio(n1, n2, 0, k))


def phi_closed_form(query: SphericalQuery) -> Fraction:
    """Dispatch a query to the matching closed form."""
    if len(query.cycle) == 1:
        return phi_identity(query.n, query.k)
    if len(query.cycle) == 2:
        return phi_2cycle(query.n, query.k, query.cycle)
    return phi_3cycle(query.n, query.k)

"""Weighted traces pairing the averaged characters with degree polynomials.

Given strictly decreasing integer degrees (d1, d2, d3) and a coupling kappa,
each block gets a shifted degree: later blocks shift the earlier ones, so
dt1 = d1 + kappa (n2 + n3), dt2 = d2 + kappa n3, dt3 = d3. The trace of the
p-th power of the associated commuting operator decomposes over embedded
cycles: each subset A of blocks contributes the averaged character at the
cycle through A, a complete homogeneous polynomial in the shifted degrees of
A, and the factorials of the block sizes in A, weighted by (-kappa)^(|A|-1).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import _range_count, dim_two_row, m_range, multiplicity
from .closed_form import SphericalQuery, _phi_3cycle_ratio, _two_cycle_ratio, phi_closed_form
from .core import BlockTriple, check_int, check_rational

__all__ = [
    "DegreeTriple",
    "ShiftedDegrees",
    "shifted_degrees",
    "eigenvalue_sum",
    "eigenvalue_sum_recheck",
    "KappaZeroDiagnostic",
    "kappa_zero_diagnostic",
]


def _check_order(p: int) -> None:
    """Reject an operator power that is not an int >= 1 (a bool is not)."""
    check_int("p", p)
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")


# Block sizes repeat across calls. The factorial of a block of size s holds
# about s log2(s) bits: all sizes up to 1,024 together take 0.70 MB.
@functools.lru_cache(maxsize=1024)
def _factorial(size: int) -> int:
    return math.factorial(size)


@dataclass(frozen=True)
class DegreeTriple:
    """Strictly decreasing nonnegative int degrees per block plus the coupling.

    kappa is an int, a Fraction or a string that Fraction parses exactly,
    such as "1/3"; a float or a bool raises ValueError.
    """

    d1: int
    d2: int
    d3: int
    kappa: Fraction = Fraction(0)

    def __post_init__(self):
        if [*map(type, self.degrees)] != [int] * 3:
            raise ValueError(f"degrees must be ints, got {self.degrees!r}")
        if not self.d1 > self.d2 > self.d3 >= 0:
            raise ValueError(f"need d1 > d2 > d3 >= 0, got {(self.d1, self.d2, self.d3)}")
        kappa = Fraction(self.kappa) if isinstance(self.kappa, str) else self.kappa
        check_rational("kappa", kappa)
        object.__setattr__(self, "kappa", Fraction(kappa))

    @property
    def degrees(self) -> tuple[int, int, int]:
        return (self.d1, self.d2, self.d3)


@dataclass(frozen=True)
class ShiftedDegrees:
    """The coupled degrees; the last one never shifts (dt3 = d3 exactly)."""

    dt1: Fraction
    dt2: Fraction
    dt3: Fraction

    def __iter__(self):
        return iter((self.dt1, self.dt2, self.dt3))

    def select(self, A: tuple[int, ...]) -> list[Fraction]:
        values = (self.dt1, self.dt2, self.dt3)
        return [values[a - 1] for a in A]


def shifted_degrees(d: DegreeTriple, n: BlockTriple) -> ShiftedDegrees:
    """Shift each degree by kappa times the total size of the later blocks."""
    return ShiftedDegrees(
        d.d1 + d.kappa * (n.n2 + n.n3),
        d.d2 + d.kappa * n.n3,
        Fraction(d.d3),
    )


def eigenvalue_sum(n: BlockTriple, d: DegreeTriple, k: int, p: int) -> Fraction:
    """The trace of the p-th operator power on the isotypic block [N - k, k].

    dim * sum over sizes l = 1..min(p+1, 3) of (-kappa)^(l-1) times the sum
    over l-subsets A of Phi(cycle through A) * h_{p+1-l}(shifted degrees of A)
    times the product of factorials of the block sizes in A.

    With kappa = P/q in lowest terms the shifted degrees are a_i / q for
    integers a_i, and h_{p+1-l} is homogeneous, so every term is an integer
    over the common denominator q^p:
    (-kappa)^(l-1) h_{p+1-l}(dt_A) = (-P)^(l-1) h_{p+1-l}(a_A) / q^p.
    The seven small terms c_A = (-P)^(|A|-1) h_{p+1-|A|}(a_A) Phi_A are put
    over one denominator D = 6 d123 (c_123 = 0 when p = 1). Here d123 is the
    3-cycle kernel's own denominator n1 n2 n3 xd, or n1 n2 n3 at p = 1 and on
    an empty range, so every pair denominator 6 na nb divides D. The terms
    are combined with the factorials f_i = n_i! and f23 = f2 f3 as
    f1 (c1 + f2 c12 + f3 c13 + f23 c123) + f2 c2 + f3 c3 + f23 c23,
    two products of two factorial-sized integers, so that one Fraction,
    which reduces, is built at the end. The factorials come from a bounded
    cache (_factorial). One loop builds the three pair sums h_{p-1}(a_i, a_j)
    and, from the running h_j(a1, a2), h_{p-2}(a1, a2, a3) through
    h_j(a1, a2, a3) = h_j(a1, a2) + a3 h_{j-1}(a1, a2, a3).

    One m_range call checks k and gives the range that the multiplicity
    Phi_1 counts and the 3-cycle kernel sums over; dim_two_row checks k
    once more. The other Phi values come from the integer kernels that
    phi_2cycle and phi_3cycle share: _two_cycle_ratio on the sizes of each
    pair, with the third block last, and _phi_3cycle_ratio.
    eigenvalue_sum_recheck takes the other route, through SphericalQuery
    and phi_closed_form.
    """
    _check_order(p)
    n1, n2, n3 = n.sizes
    m_lower, m_upper = m_range(n, k)
    P, q = d.kappa.numerator, d.kappa.denominator
    a1, a2, a3 = q * d.d1 + P * (n2 + n3), q * d.d2 + P * n3, q * d.d3
    f1, f2, f3 = _factorial(n1), _factorial(n2), _factorial(n3)
    n12, d12 = _two_cycle_ratio(n1, n2, n3, k)
    n13, d13 = _two_cycle_ratio(n1, n3, n2, k)
    n23, d23 = _two_cycle_ratio(n2, n3, n1, k)
    if p >= 2 and m_lower <= m_upper:
        n123, d123 = _phi_3cycle_ratio(n, k, m_lower, m_upper)
    else:  # no 3-cycle term
        n123, d123 = 0, n1 * n2 * n3
    # h_{p-1} of the three pairs, through h_j(x, y) = x h_{j-1}(x, y) + y^j,
    # and h_{p-2}(a1, a2, a3) = h_{p-2}(a1, a2) + a3 h_{p-3}(a1, a2, a3).
    h12 = h13 = h23 = y2 = y3 = 1
    h123 = 0
    for _ in range(p - 1):
        h123 = h12 + a3 * h123
        y2 *= a2
        y3 *= a3
        h12 = a1 * h12 + y2
        h13 = a1 * h13 + y3
        h23 = a2 * h23 + y3
    common = 6 * d123
    c = common * _range_count(m_lower, m_upper)
    c1, c2, c3 = c * a1**p, c * a2**p, c * a3**p
    c12 = -P * h12 * n12 * (common // d12)
    c13 = -P * h13 * n13 * (common // d13)
    c23 = -P * h23 * n23 * (common // d23)
    c123 = 6 * P * P * h123 * n123
    f23 = f2 * f3
    total = f1 * (c1 + f2 * c12 + f3 * c13 + f23 * c123) + f2 * c2 + f3 * c3 + f23 * c23
    return Fraction(dim_two_row(n1 + n2 + n3, k) * total, common * q**p)

def _h_by_enumeration(values, degree: int) -> Fraction:
    """Complete homogeneous sum spelled out monomial by monomial."""
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(range(len(values)), degree):
        total += math.prod((values[i] for i in combo), start=Fraction(1))
    return total


def eigenvalue_sum_recheck(n: BlockTriple, d: DegreeTriple, k: int, p: int) -> Fraction:
    """Same trace along an independent code path.

    Subsets are enumerated outermost and the h values come from brute-force
    monomial enumeration rather than the recurrence; transcription slips in
    either path would break the exact agreement with eigenvalue_sum.
    """
    _check_order(p)
    sd = shifted_degrees(d, n)
    total = Fraction(0)
    for A in (
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3),
    ):
        if p + 1 - len(A) < 0:
            continue
        phi = phi_closed_form(SphericalQuery(n, k, A))
        h = _h_by_enumeration(sd.select(A), p + 1 - len(A))
        factorials = math.prod(math.factorial(n.size(a)) for a in A)
        total += (-d.kappa) ** (len(A) - 1) * phi * h * factorials
    return dim_two_row(n.N, k) * total


@dataclass(frozen=True)
class KappaZeroDiagnostic:
    """Uncoupled trace next to the naive size-weighted power sum.

    At kappa = 0 every monomial basis vector is an eigenvector with eigenvalue
    sum of n_j d_j^p, which suggests multiplicity * dim * that sum; the
    implemented expansion instead carries n_a! in place of n_a. The pair is
    reported side by side and deliberately not asserted equal.
    """

    formula: Fraction
    reference: Fraction

    @property
    def agree(self) -> bool:
        return self.formula == self.reference


def kappa_zero_diagnostic(n: BlockTriple, d: DegreeTriple, k: int, p: int) -> KappaZeroDiagnostic:
    """Evaluate both kappa = 0 candidates for the same trace."""
    uncoupled = DegreeTriple(d.d1, d.d2, d.d3, Fraction(0))
    formula = eigenvalue_sum(n, uncoupled, k, p)
    reference = (
        multiplicity(n, k)
        * dim_two_row(n.N, k)
        * Fraction(sum(n.size(a) * d.degrees[a - 1] ** p for a in (1, 2, 3)))
    )
    return KappaZeroDiagnostic(formula, reference)

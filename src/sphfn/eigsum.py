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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import dim_two_row, multiplicity
from .closed_form import SphericalQuery, _phi_2cycle_ratio, _phi_3cycle_ratio, phi_closed_form
from .core import BlockTriple, check_k, complete_homogeneous

__all__ = [
    "DegreeTriple",
    "ShiftedDegrees",
    "shifted_degrees",
    "h_subset",
    "eigenvalue_sum",
    "eigenvalue_sum_recheck",
    "KappaZeroDiagnostic",
    "kappa_zero_diagnostic",
]


@dataclass(frozen=True)
class DegreeTriple:
    """Strictly decreasing nonnegative degrees per block plus the coupling."""

    d1: int
    d2: int
    d3: int
    kappa: Fraction = Fraction(0)

    def __post_init__(self):
        if not self.d1 > self.d2 > self.d3 >= 0:
            raise ValueError(f"need d1 > d2 > d3 >= 0, got {(self.d1, self.d2, self.d3)}")
        object.__setattr__(self, "kappa", Fraction(self.kappa))

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


def h_subset(sd: ShiftedDegrees, A: tuple[int, ...], m: int) -> Fraction:
    """Complete homogeneous polynomial of degree m in the degrees selected by A."""
    if not A:
        raise ValueError("subset A must be nonempty")
    return Fraction(complete_homogeneous(sd.select(A), m))


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
    over one common denominator of the Phi values (c_123 = 0 when p = 1) and
    combined with the factorials f_i = n_i! in Horner form,
    f1 (c1 + f2 (c12 + f3 c123) + f3 c13) + f2 (c2 + f3 c23) + f3 c3,
    so that one Fraction is built at the end. Each Phi comes from the
    integer kernels behind phi_identity, phi_2cycle and phi_3cycle, which
    keep the 3-cycle self-check; eigenvalue_sum_recheck takes the other
    route, through SphericalQuery and phi_closed_form.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    check_k(n.N, k)
    P, q = d.kappa.numerator, d.kappa.denominator
    a1, a2, a3 = q * d.d1 + P * (n.n2 + n.n3), q * d.d2 + P * n.n3, q * d.d3
    f1, f2, f3 = (math.factorial(size) for size in n.sizes)
    phi1 = multiplicity(n, k)
    n12, d12 = _phi_2cycle_ratio(n, k, (1, 2))
    n13, d13 = _phi_2cycle_ratio(n, k, (1, 3))
    n23, d23 = _phi_2cycle_ratio(n, k, (2, 3))
    if p >= 2:
        n123, d123 = _phi_3cycle_ratio(n, k)
        h123 = complete_homogeneous((a1, a2, a3), p - 2)
    else:  # no 3-cycle term
        n123, d123, h123 = 0, 1, 0
    common = math.lcm(d12, d13, d23, d123)
    c1, c2, c3 = (common * phi1 * a**p for a in (a1, a2, a3))
    c12 = -P * complete_homogeneous((a1, a2), p - 1) * n12 * (common // d12)
    c13 = -P * complete_homogeneous((a1, a3), p - 1) * n13 * (common // d13)
    c23 = -P * complete_homogeneous((a2, a3), p - 1) * n23 * (common // d23)
    c123 = P * P * h123 * n123 * (common // d123)
    total = f1 * (c1 + f2 * (c12 + f3 * c123) + f3 * c13) + f2 * (c2 + f3 * c23) + f3 * c3
    return Fraction(dim_two_row(n.N, k) * total, common * q**p)


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
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
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

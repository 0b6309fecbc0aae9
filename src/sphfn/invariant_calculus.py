"""Operators on invariant coefficient tables.

A table f(u, v) encodes a subgroup-invariant vector of the degree-k module.
The maps here implement the subgroup-averaged action of the embedded short
cycles on such vectors, entirely in terms of the orbit labels: translating a
squarefree monomial by a transposition or 3-cycle moves at most one chosen
point between blocks, so each operator couples only neighboring labels.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from . import linalg
from .characters import m_range
from .core import ZERO, BlockTriple, pair_blocks
from .hahn import CoeffTable, HahnContext, admissible_grid, psi1, psi2, psi_table

__all__ = [
    "check_difference_equation",
    "apply_rho_g2",
    "g2_eigenvalue",
    "apply_rho_g3",
    "extract_leading_coeff",
    "InvariantExpansion",
    "expand_in_psi_basis",
]


def check_difference_equation(table: CoeffTable) -> bool:
    """Whether the table satisfies the divergence-free recurrence.

    Membership of the encoded vector in the degree-k module is equivalent to
    (n1-u) f(u+1, v) + (n2-v) f(u, v+1) + (n3-k+1+u+v) f(u, v) = 0 at every
    label (u, v) of the degree-(k-1) rectangle u + v <= k - 1, with f read as
    zero off the grid.
    """
    n, k = table.n, table.k
    for u in range(n.n1 + 1):
        for v in range(n.n2 + 1):
            if u + v > k - 1:
                continue
            lhs = (
                (n.n1 - u) * table.get(u + 1, v)
                + (n.n2 - v) * table.get(u, v + 1)
                + (n.n3 - k + 1 + u + v) * table.get(u, v)
            )
            if lhs != 0:
                return False
    return True


def apply_rho_g2(table: CoeffTable, pair: tuple[int, int] = (1, 2)) -> CoeffTable:
    """Table of the subgroup-averaged translate by the 2-cycle joining two blocks.

    The average over the subgroup turns the single embedded transposition into
    the uniform mixture of all transpositions with one point in each of the
    two blocks; that mixture moves the label by at most one unit.
    """
    n, k = table.n, table.k
    a, b, _ = pair_blocks(pair)
    na, nb = n.size(a), n.size(b)
    entries: dict[tuple[int, int], Fraction] = {}
    for u, v in admissible_grid(n, k):
        w = k - u - v
        if (a, b) == (1, 2):
            stay = (n.n1 - u) * (n.n2 - v) + u * v
            moved = u * (n.n2 - v) * table.get(u - 1, v + 1) + (n.n1 - u) * v * table.get(u + 1, v - 1)
        elif (a, b) == (1, 3):
            stay = (n.n1 - u) * (n.n3 - w) + u * w
            moved = u * (n.n3 - w) * table.get(u - 1, v) + (n.n1 - u) * w * table.get(u + 1, v)
        else:
            stay = (n.n2 - v) * (n.n3 - w) + v * w
            moved = v * (n.n3 - w) * table.get(u, v - 1) + (n.n2 - v) * w * table.get(u, v + 1)
        entries[(u, v)] = Fraction(stay * table.get(u, v) + moved, na * nb)
    return CoeffTable(n, k, entries)


def g2_eigenvalue(m: int, n1: int, n2: int) -> Fraction:
    """Eigenvalue of the block-1/block-2 averaged transposition on the m-th vector."""
    return Fraction((m - n1) * (m - n2) - m, n1 * n2)


def apply_rho_g3(table: CoeffTable) -> CoeffTable:
    """Table of the subgroup-averaged translate by the 3-cycle through all blocks.

    Averaging gives the uniform mixture of 3-cycles (i j l) with i, j, l in
    blocks 1, 2, 3; each chosen point of the monomial either sits on the cycle
    or not, which yields the eight-term stencil below.
    """
    n, k = table.n, table.k
    n1, n2, n3 = n.sizes
    entries: dict[tuple[int, int], Fraction] = {}
    for u, v in admissible_grid(n, k):
        w = k - u - v
        total = (
            u * v * w * table.get(u, v)
            + (n1 - u) * v * w * table.get(u + 1, v)
            + u * v * (n3 - w) * table.get(u, v - 1)
            + (n1 - u) * v * (n3 - w) * table.get(u + 1, v - 1)
            + u * (n2 - v) * w * table.get(u - 1, v + 1)
            + (n1 - u) * (n2 - v) * w * table.get(u, v + 1)
            + u * (n2 - v) * (n3 - w) * table.get(u - 1, v)
            + (n1 - u) * (n2 - v) * (n3 - w) * table.get(u, v)
        )
        entries[(u, v)] = Fraction(total, n1 * n2 * n3)
    return CoeffTable(n, k, entries)


def extract_leading_coeff(table: CoeffTable, m: int) -> Fraction:
    """Coefficient of the m-th basis vector in a table supported on labels >= m - 1.

    The basis is triangular along the v = 0 edge: the j-th vector vanishes at
    (u, 0) for u < j. Given that the expansion of the table has no component
    below index m - 1 (checked via its edge values), two edge evaluations
    determine the m-th coefficient.
    """
    n, k = table.n, table.k
    for u in range(min(m - 1, n.n1 + 1)):
        if table.get(u, 0) != 0:
            raise ValueError(
                f"edge value at ({u}, 0) is nonzero; components below {m - 1} present"
            )
    ctx = HahnContext(n, k, m)
    lead = psi1(ctx, m) * psi2(ctx, m, 0)
    if lead == 0:
        raise ArithmeticError(f"degenerate edge value for m = {m}, n = {n.sizes}, k = {k}")
    correction = Fraction(m * (k - m - n.n3), n.n1 + n.n2 - 2 * m + 2)
    return (table.get(m, 0) - correction * table.get(m - 1, 0)) / lead


class InvariantExpansion:
    """Exact coordinates of an invariant vector in the Hahn basis."""

    __slots__ = ("_n", "_k", "_coeffs")

    def __init__(self, n: BlockTriple, k: int, coeffs: Mapping[int, object]):
        m_lower, m_upper = m_range(n, k)
        bad = [m for m in coeffs if not m_lower <= m <= m_upper]
        if bad:
            raise ValueError(f"indices {bad} outside [{m_lower}, {m_upper}]")
        self._n = n
        self._k = k
        self._coeffs = {m: Fraction(coeffs[m]) for m in sorted(coeffs)}

    @property
    def n(self) -> BlockTriple:
        return self._n

    @property
    def k(self) -> int:
        return self._k

    def coefficient(self, m: int) -> Fraction:
        return self._coeffs.get(m, ZERO)

    def items(self):
        return iter(self._coeffs.items())

    def as_table(self) -> CoeffTable:
        entries: dict[tuple[int, int], Fraction] = {}
        for m, c in self._coeffs.items():
            for uv, value in psi_table(HahnContext(self._n, self._k, m)).items():
                entries[uv] = entries.get(uv, ZERO) + c * value
        return CoeffTable(self._n, self._k, entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InvariantExpansion):
            return NotImplemented
        indices = set(self._coeffs) | set(other._coeffs)
        return (
            self._n == other._n
            and self._k == other._k
            and all(self.coefficient(m) == other.coefficient(m) for m in indices)
        )

    def __repr__(self) -> str:
        inner = {m: str(c) for m, c in self._coeffs.items() if c != 0}
        return f"InvariantExpansion(n={self._n.sizes}, k={self._k}, {inner})"


def expand_in_psi_basis(table: CoeffTable) -> InvariantExpansion:
    """Solve for the unique Hahn-basis coordinates of the table.

    Raises ValueError when the table lies outside the span, which catches any
    operator that would leak out of the invariant subspace.
    """
    n, k = table.n, table.k
    m_lower, m_upper = m_range(n, k)
    labels = table.labels()
    indices = list(range(m_lower, m_upper + 1))
    if not indices:
        if table.is_zero():
            return InvariantExpansion(n, k, {})
        raise ValueError("nonzero table but the basis is empty")
    columns = [psi_table(HahnContext(n, k, m)) for m in indices]
    matrix = [[col.get(u, v) for col in columns] for u, v in labels]
    rhs = [table.get(u, v) for u, v in labels]
    coords = linalg.solve(matrix, rhs)
    return InvariantExpansion(n, k, dict(zip(indices, coords)))

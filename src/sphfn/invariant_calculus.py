"""Operators on invariant coefficient tables.

A table f(u, v) encodes a subgroup-invariant vector of the degree-k module;
its label x = (u, v, k - u - v) counts the chosen points in each block. One
rule gives the subgroup-averaged action of a cycle p_1 -> ... -> p_r -> p_1
through one point of each listed block, in ascending block order as
embed_cycle builds it, moving the coordinate at E to g(E) as VkVector.apply
does. Each p_i, in block b_i, is chosen (weight x_b_i) or not (n_b_i - x_b_i);
a chosen p_i is the image of p_(i-1), so that pattern reads f at x with one
point fewer in b_i and one more in b_(i-1). The image is the weighted sum
over the 2^r patterns divided by the product of the n_b.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Mapping

from . import linalg
from .characters import m_range
from .core import ZERO, BlockTriple, pair_blocks
from .hahn import CoeffTable, HahnContext, _check_n_k, _psi_values, psi1, psi2, psi_table

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
    zero off the grid. The table is scaled to integers once.
    """
    n, k = table.n, table.k
    values, _ = linalg.over_common_denominator(x for _, x in table.items())
    f = dict(zip(table.labels(), values))
    for u in range(min(n.n1, k - 1) + 1):
        for v in range(min(n.n2, k - 1 - u) + 1):
            if (
                (n.n1 - u) * f.get((u + 1, v), 0)
                + (n.n2 - v) * f.get((u, v + 1), 0)
                + (n.n3 - k + 1 + u + v) * f.get((u, v), 0)
            ):
                return False
    return True


def _averaged_cycle(table: CoeffTable, blocks: tuple[int, ...]) -> CoeffTable:
    """The module docstring's rule for ascending blocks, summed in integers."""
    n, k = table.n, table.k
    grid = table.labels()
    values, scale = linalg.over_common_denominator(x for _, x in table.items())
    scaled = dict(zip(grid, values))
    sizes = [n.size(b) for b in blocks]
    patterns = []
    for chosen in itertools.product((True, False), repeat=len(blocks)):
        step = [0, 0, 0]  # from the label to the source's label
        for i, b in enumerate(blocks):
            step[b - 1] -= chosen[i]
            step[blocks[i - 1] - 1] += chosen[i]
        patterns.append((chosen, step[0], step[1]))
    entries = []
    for u, v in grid:
        counts = [(u, v, k - u - v)[b - 1] for b in blocks]
        total = 0
        for chosen, du, dv in patterns:
            source = scaled.get((u + du, v + dv))
            if source:
                weight = 1
                for c, x, size in zip(chosen, counts, sizes):
                    weight *= x if c else size - x
                total += weight * source
        entries.append(Fraction(total, scale * math.prod(sizes)))
    return CoeffTable._from_grid(n, k, grid, entries)


def apply_rho_g2(table: CoeffTable, pair: tuple[int, int] = (1, 2)) -> CoeffTable:
    """Table of the subgroup-averaged translate by the 2-cycle joining two blocks."""
    return _averaged_cycle(table, pair_blocks(pair)[:2])


def g2_eigenvalue(m: int, n1: int, n2: int) -> Fraction:
    """Eigenvalue of the block-1/block-2 averaged transposition on the m-th vector."""
    return Fraction((m - n1) * (m - n2) - m, n1 * n2)


def apply_rho_g3(table: CoeffTable) -> CoeffTable:
    """Table of the subgroup-averaged translate by the 3-cycle through all blocks."""
    return _averaged_cycle(table, (1, 2, 3))


def extract_leading_coeff(table: CoeffTable, m: int) -> Fraction:
    """Coefficient of the m-th basis vector in a table supported on labels >= m - 1.

    The basis is triangular along the v = 0 edge: the j-th vector vanishes at
    (u, 0) for u < j. Given that the expansion of the table has no component
    below index m - 1 (checked via its edge values), two edge evaluations
    determine the m-th coefficient; psi_m(m, 0) is nonzero, as
    expand_in_psi_basis shows.
    """
    n, k = table.n, table.k
    ctx = HahnContext(n, k, m)
    for u in range(min(m - 1, n.n1 + 1)):
        if table.get(u, 0) != 0:
            raise ValueError(
                f"edge value at ({u}, 0) is nonzero; components below {m - 1} present"
            )
    lead = psi1(ctx, m) * psi2(ctx, m, 0)
    correction = Fraction(m * (k - m - n.n3), n.n1 + n.n2 - 2 * m + 2)
    return (table.get(m, 0) - correction * table.get(m - 1, 0)) / lead


class InvariantExpansion:
    """Exact coordinates of an invariant vector in the Hahn basis."""

    __slots__ = ("_n", "_k", "_coeffs")

    def __init__(self, n: BlockTriple, k: int, coeffs: Mapping[int, object]):
        _check_n_k(n, k)
        bad = [m for m in coeffs if type(m) is not int]
        if bad:
            raise ValueError(f"indices {bad} are not ints")
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
    """The unique Hahn-basis coordinates of the table, read off the v = 0 edge.

    The basis is triangular there: psi_j(u, 0) = 0 for u < j, and psi_m(m, 0)
    = (n1+n2-m-k+1)_{k-m} (k-m)! (n2-m+1)_m (-1)^m m! is nonzero, as m <= n2
    and m <= n1+n2-k. (m, 0) is on the grid for m_L <= m <= m_U, so forward
    substitution along it gives the only coordinates the table can have. The
    table must equal their combination at every label, checked exactly in
    integers, or ValueError is raised as an inconsistent linear system; this
    catches any operator that would leak out of the invariant subspace.
    """
    n, k = table.n, table.k
    m_lower, m_upper = m_range(n, k)
    indices = range(m_lower, m_upper + 1)
    if not indices:
        if table.is_zero():
            return InvariantExpansion(n, k, {})
        raise ValueError("nonzero table but the basis is empty")
    grid = table.labels()
    values, scale = linalg.over_common_denominator(x for _, x in table.items())
    columns = [_psi_values(HahnContext(n, k, m), grid) for m in indices]
    coords = []  # the table times scale is sum_j coords[j] columns[j]
    for m, column in zip(indices, columns):
        a = grid.index((m, 0))
        below = sum(c * col[a] for c, col in zip(coords, columns))
        coords.append((values[a] - below) / Fraction(column[a]))
    numerators, common = linalg.over_common_denominator(coords)
    for row, y in zip(zip(*columns), values):
        if sum(map(operator.mul, numerators, row)) != y * common:
            raise ValueError("inconsistent linear system")
    return InvariantExpansion(
        n, k, {m: Fraction(x, common * scale) for m, x in zip(indices, numerators)}
    )

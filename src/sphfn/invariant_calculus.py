"""Operators on invariant coefficient tables.

A table f(u, v) encodes a subgroup-invariant vector of the degree-k module;
its label x = (u, v, k - u - v) counts the chosen points in each block. One
rule gives the subgroup-averaged action of a cycle p_1 -> ... -> p_r -> p_1
through one point of each listed block, in ascending block order as
embed_cycle builds it, moving the coordinate at E to g(E) as VkVector.apply
does. Each p_i, in block b_i, is chosen (weight x_b_i) or not (n_b_i - x_b_i);
a chosen p_i is the image of p_(i-1), so that pattern reads f at x with one
point fewer in b_i and one more in b_(i-1). The image is the weighted sum
over the 2^r patterns divided by the product of the n_b. Every operator
here works on a table's integers and scale, never a Fraction per label.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Mapping

from . import linalg
from .characters import m_range
from .core import ZERO, BlockTriple, check_rational, pair_blocks
from .hahn import CoeffTable, HahnContext, _check_n_k, _hahn_E, _psi_values
from .hahn import _psi1_parameters, _psi2_parameters, admissible_grid

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
    zero off the grid. It is checked on the table's integer numerators.
    """
    n, k = table.n, table.k
    f, _ = table._numerators()
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
    """The module docstring's rule for ascending blocks, summed in integers.

    The table's numerators are laid out flat with a border of zeros, label (u, v)
    at (u + 1) * width + v + 1, so each pattern's source is one fixed offset
    from the label and reads 0 off the grid. The weights of a label's
    patterns are the products of one of (x_b, n_b - x_b) per block, in the
    order itertools.product gives both; the image is over scale * prod(n_b).
    """
    n, k = table.n, table.k
    numerators, scale = table._numerators()
    width = k + 3
    flat = [0] * (width * width)
    for (u, v), x in numerators.items():
        flat[(u + 1) * width + v + 1] = x
    offsets = []
    for chosen in itertools.product((True, False), repeat=len(blocks)):
        step = [0, 0, 0]  # from the label to the source's label
        for i, b in enumerate(blocks):
            step[b - 1] -= chosen[i]
            step[blocks[i - 1] - 1] += chosen[i]
        offsets.append(step[0] * width + step[1])
    sizes = [n.size(b) for b in blocks]
    entries = []
    for u, v in numerators:
        x = (u, v, k - u - v)
        pairs = [(x[b - 1], size - x[b - 1]) for b, size in zip(blocks, sizes)]
        here = (u + 1) * width + v + 1
        total = 0
        for weight, offset in zip(map(math.prod, itertools.product(*pairs)), offsets):
            source = flat[here + offset]
            if source:
                total += weight * source
        entries.append(total)
    return CoeffTable._from_grid(n, k, numerators, entries, scale * math.prod(sizes))


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
    HahnContext(n, k, m)  # checks m against m_range(n, k)
    f, scale = table._numerators()
    for u in range(min(m - 1, n.n1 + 1)):
        if f.get((u, 0)):
            raise ValueError(
                f"edge value at ({u}, 0) is nonzero; components below {m - 1} present"
            )
    # psi_m(m, 0) through hahn_E's body: n, k and m were checked just above.
    (first, at_first), (second, at_second) = _psi1_parameters(n, k, m), _psi2_parameters(n, k, m)
    lead = _hahn_E(*first, *at_first(m)) * _hahn_E(*second, *at_second(m, 0))
    # The correction m (k - m - n3) / (n1 + n2 - 2m + 2) put over its denominator.
    over = n.n1 + n.n2 - 2 * m + 2
    difference = f.get((m, 0), 0) * over - m * (k - m - n.n3) * f.get((m - 1, 0), 0)
    return Fraction(difference, over * scale * lead)


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
        for value in coeffs.values():
            check_rational("coefficient", value)
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
        """The combination of the psi columns, summed in integers over one denominator."""
        n, k = self._n, self._k
        coeffs, common = linalg.over_common_denominator(self._coeffs.values())
        used = [(m, c) for m, c in zip(self._coeffs, coeffs) if c]
        grid = admissible_grid(n, k)
        totals = [0] * len(grid)
        for (_, c), column in zip(used, _psi_values(n, k, [m for m, _ in used], grid)):
            totals = [total + c * x for total, x in zip(totals, column)]
        return CoeffTable._from_grid(n, k, grid, totals, common)

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
    numerators, scale = table._numerators()
    grid, values = list(numerators), list(numerators.values())
    columns = _psi_values(n, k, list(indices), grid)
    # The table times scale is sum_j coords[j] columns[j] / common, with
    # common growing by the part of each pivot the residual leaves.
    coords, common = [], 1
    for m, column in zip(indices, columns):
        a = grid.index((m, 0))
        residual = values[a] * common - sum(c * col[a] for c, col in zip(coords, columns))
        pivot = column[a]
        g = math.gcd(residual, pivot)
        coords = [c * (pivot // g) for c in coords]
        coords.append(residual // g)
        common *= pivot // g
    g = math.gcd(common, *coords)
    coords, common = [c // g for c in coords], common // g
    for row, y in zip(zip(*columns), values):
        if sum(map(operator.mul, coords, row)) != y * common:
            raise ValueError("inconsistent linear system")
    return InvariantExpansion(
        n, k, {m: Fraction(x, common * scale) for m, x in zip(indices, coords)}
    )

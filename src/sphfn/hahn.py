"""Two-variable Hahn polynomials and the invariant coefficient tables they fill.

An invariant vector of the degree-k module is determined by one rational per
orbit of the three-block subgroup on squarefree monomials; orbits are labeled
by the pair (u, v) counting chosen points in blocks 1 and 2. The tables built
here evaluate the product of a one-variable Hahn polynomial in u + v and a
two-variable one in (u, v).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .characters import m_range
from .core import ZERO, BlockTriple, binom, pochhammer

__all__ = [
    "hahn_E",
    "HahnContext",
    "psi1",
    "psi2",
    "CoeffTable",
    "admissible_grid",
    "psi_table",
]


def hahn_E(m: int, alpha: int, beta: int, gamma, t) -> Fraction:
    """Degree-m Hahn-type polynomial E_m(alpha, beta, gamma; t).

    E_m = sum_i (-1)^i C(m, i) (beta-m+1)_i (alpha-m+1)_{m-i} (-t)_i (t-gamma)_{m-i}.
    """
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    total = Fraction(0)
    for i in range(m + 1):
        term = (
            binom(m, i)
            * pochhammer(beta - m + 1, i)
            * pochhammer(alpha - m + 1, m - i)
            * pochhammer(-t, i)
            * pochhammer(t - gamma, m - i)
        )
        if i % 2:
            term = -term
        total += term
    return Fraction(total)


@dataclass(frozen=True)
class HahnContext:
    """Block sizes, degree k and multiplicity label m for one invariant vector."""

    n: BlockTriple
    k: int
    m: int

    def __post_init__(self):
        m_lower, m_upper = m_range(self.n, self.k)
        if not m_lower <= self.m <= m_upper:
            raise ValueError(
                f"m = {self.m} outside [{m_lower}, {m_upper}] "
                f"for n = {self.n.sizes}, k = {self.k}"
            )


def psi1(ctx: HahnContext, t) -> Fraction:
    """One-variable factor, a polynomial of degree k - m in t = u + v."""
    n = ctx.n
    return hahn_E(ctx.k - ctx.m, n.n3, n.n1 + n.n2 - 2 * ctx.m, ctx.k - ctx.m, ctx.k - t)


def psi2(ctx: HahnContext, u, v) -> Fraction:
    """Two-variable factor, a degree-m Hahn polynomial in v on the line u + v."""
    n = ctx.n
    return hahn_E(ctx.m, n.n2, n.n1, u + v, v)


def admissible_grid(n: BlockTriple, k: int) -> list[tuple[int, int]]:
    """Orbit labels (u, v) with u from block 1, v from block 2, k-u-v from block 3."""
    return [
        (u, v)
        for u in range(min(n.n1, k) + 1)
        for v in range(min(n.n2, k - u) + 1)
        if k - u - v <= n.n3
    ]


class CoeffTable:
    """Coefficients of an invariant vector, one Fraction per orbit label (u, v)."""

    __slots__ = ("_n", "_k", "_entries")

    def __init__(self, n: BlockTriple, k: int, entries: Mapping[tuple[int, int], object]):
        grid = set(admissible_grid(n, k))
        bad = set(entries) - grid
        if bad:
            raise ValueError(f"labels {sorted(bad)} outside the grid for k = {k}")
        self._n = n
        self._k = k
        self._entries = {uv: Fraction(entries.get(uv, 0)) for uv in grid}

    @property
    def n(self) -> BlockTriple:
        return self._n

    @property
    def k(self) -> int:
        return self._k

    def get(self, u: int, v: int) -> Fraction:
        """Entry at (u, v); zero off the grid, so boundary cases need no care."""
        return self._entries.get((u, v), ZERO)

    def labels(self) -> list[tuple[int, int]]:
        return sorted(self._entries)

    def items(self) -> Iterable[tuple[tuple[int, int], Fraction]]:
        return ((uv, self._entries[uv]) for uv in sorted(self._entries))

    def is_zero(self) -> bool:
        return all(value == 0 for value in self._entries.values())

    def scaled(self, factor) -> "CoeffTable":
        factor = Fraction(factor)
        return CoeffTable(
            self._n, self._k, {uv: factor * x for uv, x in self._entries.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffTable):
            return NotImplemented
        return (
            self._n == other._n
            and self._k == other._k
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self._n, self._k, tuple(sorted(self._entries.items()))))

    def __repr__(self) -> str:
        nonzero = {uv: str(x) for uv, x in self.items() if x != 0}
        return f"CoeffTable(n={self._n.sizes}, k={self._k}, {nonzero})"


def psi_table(ctx: HahnContext) -> CoeffTable:
    """The invariant vector labeled m, tabulated over the orbit grid."""
    first_factor = {
        t: psi1(ctx, t) for t in {u + v for u, v in admissible_grid(ctx.n, ctx.k)}
    }
    entries = {
        (u, v): first_factor[u + v] * psi2(ctx, u, v)
        for (u, v) in admissible_grid(ctx.n, ctx.k)
    }
    return CoeffTable(ctx.n, ctx.k, entries)

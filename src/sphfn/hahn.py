"""Two-variable Hahn polynomials and the invariant coefficient tables they fill.

An invariant vector of the degree-k module is determined by one rational per
orbit of the three-block subgroup on squarefree monomials; orbits are labeled
by the pair (u, v) counting chosen points in blocks 1 and 2. The tables built
here evaluate the product of a one-variable Hahn polynomial in u + v and a
two-variable one in (u, v).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .characters import m_range
from .core import ZERO, BlockTriple

__all__ = [
    "hahn_E",
    "HahnContext",
    "psi1",
    "psi2",
    "CoeffTable",
    "admissible_grid",
    "psi_table",
]


def _rising(a, m: int) -> list:
    """The rising factorials (a)_0, (a)_1, ..., (a)_m, built in one pass."""
    values = [1]
    for i in range(m):
        values.append(values[-1] * (a + i))
    return values


def _hahn_weights(m: int, alpha: int, beta: int) -> list[int]:
    """The t-free integers (-1)^i C(m, i) (beta-m+1)_i (alpha-m+1)_{m-i} of E_m."""
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    lower = _rising(beta - m + 1, m)
    upper = _rising(alpha - m + 1, m)
    return [
        (-1) ** i * math.comb(m, i) * lower[i] * upper[m - i] for i in range(m + 1)
    ]


def _hahn_sum(weights: list[int], lower: list, upper: list):
    """sum_i w_i (-t)_i (t-gamma)_{m-i}, given lower = _rising(-t, m) and
    upper = _rising(t - gamma, m); an integer when t and gamma are."""
    return sum(map(operator.mul, weights, map(operator.mul, lower, reversed(upper))))


def hahn_E(m: int, alpha: int, beta: int, gamma, t) -> Fraction:
    """Degree-m Hahn-type polynomial E_m(alpha, beta, gamma; t).

    E_m = sum_i (-1)^i C(m, i) (beta-m+1)_i (alpha-m+1)_{m-i} (-t)_i (t-gamma)_{m-i}.

    The t-free weights and the t-dependent sum are split so that psi_table
    can compute the weights once per table and the rising factorials once
    per axis value; this is the only body of E_m.
    """
    weights = _hahn_weights(m, alpha, beta)
    return Fraction(_hahn_sum(weights, _rising(-t, m), _rising(t - gamma, m)))


def _check_n_k(n: BlockTriple, k: int) -> None:
    """Reject n that is not a BlockTriple and k that is not an int (a bool is not)."""
    if not isinstance(n, BlockTriple):
        raise ValueError(f"n must be a BlockTriple, got {n!r}")
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")


@dataclass(frozen=True)
class HahnContext:
    """Block sizes, degree k and multiplicity label m for one invariant vector."""

    n: BlockTriple
    k: int
    m: int

    def __post_init__(self):
        _check_n_k(self.n, self.k)
        if type(self.m) is not int:
            raise ValueError(f"m must be an int, got {self.m!r}")
        m_lower, m_upper = m_range(self.n, self.k)
        if not m_lower <= self.m <= m_upper:
            raise ValueError(
                f"m = {self.m} outside [{m_lower}, {m_upper}] "
                f"for n = {self.n.sizes}, k = {self.k}"
            )


def _psi1_parameters(ctx: HahnContext):
    """psi1's (degree, alpha, beta), and its (gamma, t) at t = u + v."""
    n, k, m = ctx.n, ctx.k, ctx.m
    return (k - m, n.n3, n.n1 + n.n2 - 2 * m), lambda t: (k - m, k - t)


def _psi2_parameters(ctx: HahnContext):
    """psi2's (degree, alpha, beta), and its (gamma, t) at (u, v)."""
    n = ctx.n
    return (ctx.m, n.n2, n.n1), lambda u, v: (u + v, v)


def psi1(ctx: HahnContext, t) -> Fraction:
    """One-variable factor, a polynomial of degree k - m in t = u + v."""
    shape, at = _psi1_parameters(ctx)
    return hahn_E(*shape, *at(t))


def psi2(ctx: HahnContext, u, v) -> Fraction:
    """Two-variable factor, a degree-m Hahn polynomial in v on the line u + v."""
    shape, at = _psi2_parameters(ctx)
    return hahn_E(*shape, *at(u, v))


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
        _check_n_k(n, k)
        grid = admissible_grid(n, k)
        bad = set(entries).difference(grid)
        if bad:
            raise ValueError(f"labels {sorted(bad)} outside the grid for k = {k}")
        self._n = n
        self._k = k
        # In grid order, which is sorted: labels(), items() and the hash read it as is.
        self._entries = {uv: Fraction(entries.get(uv, 0)) for uv in grid}

    @classmethod
    def _from_grid(cls, n: BlockTriple, k: int, grid: Iterable, values: Iterable) -> "CoeffTable":
        """Fractions in the order of grid = admissible_grid(n, k), taken unchecked."""
        table = object.__new__(cls)
        table._n, table._k, table._entries = n, k, dict(zip(grid, values))
        return table

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
        return list(self._entries)

    def items(self) -> Iterable[tuple[tuple[int, int], Fraction]]:
        return self._entries.items()

    def is_zero(self) -> bool:
        return all(value == 0 for value in self._entries.values())

    def scaled(self, factor) -> "CoeffTable":
        factor = Fraction(factor)
        values = [factor * x for x in self._entries.values()]
        return CoeffTable._from_grid(self._n, self._k, self._entries, values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffTable):
            return NotImplemented
        return (
            self._n == other._n
            and self._k == other._k
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self._n, self._k, tuple(self._entries.items())))

    def __repr__(self) -> str:
        nonzero = {uv: str(x) for uv, x in self.items() if x != 0}
        return f"CoeffTable(n={self._n.sizes}, k={self._k}, {nonzero})"


def _psi_values(ctx: HahnContext, grid: list[tuple[int, int]]) -> list[int]:
    """The integers psi1(u + v) psi2(u, v) at the labels of grid, in order.

    Each factor's Hahn weights are taken once and psi1 once per value of
    u + v. psi2 at (u, v) has t = v and gamma = u + v, so its sum reads
    (-v)_i and (t - gamma)_{m-i} = (-u)_{m-i} off one rising list per axis value."""
    (degree, *first_shape), first_at = _psi1_parameters(ctx)
    first_weights = _hahn_weights(degree, *first_shape)
    second_weights = _hahn_weights(*_psi2_parameters(ctx)[0])
    first_factor = {}
    for t in {u + v for u, v in grid}:
        gamma, s = first_at(t)
        first_factor[t] = _hahn_sum(first_weights, _rising(-s, degree), _rising(s - gamma, degree))
    axis = [_rising(-x, ctx.m) for x in range(ctx.k + 1)]
    return [first_factor[u + v] * _hahn_sum(second_weights, axis[v], axis[u]) for u, v in grid]


def psi_table(ctx: HahnContext) -> CoeffTable:
    """The invariant vector labeled m over the orbit grid: psi1(u + v) psi2(u, v)."""
    grid = admissible_grid(ctx.n, ctx.k)
    return CoeffTable._from_grid(ctx.n, ctx.k, grid, map(Fraction, _psi_values(ctx, grid)))

"""Two-variable Hahn polynomials and the invariant coefficient tables they fill.

An invariant vector of the degree-k module is determined by one rational per
orbit of the three-block subgroup on squarefree monomials; orbits are labeled
by the pair (u, v) counting chosen points in blocks 1 and 2. The tables built
here evaluate the product of a one-variable Hahn polynomial in u + v and a
two-variable one in (u, v).

A CoeffTable holds integer numerators over one scale, and builds Fractions
only for get and items. The psi values are integers: _psi_values builds the
columns of one (n, k) in one pass, on every call of psi_table,
expand_in_psi_basis and InvariantExpansion.as_table; nothing is cached.
hahn_E, psi1 and psi2 evaluate at given points.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .characters import check_m
from .core import ZERO, BlockTriple, check_int, check_rational

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
    lower, upper = _rising(beta - m + 1, m), _rising(alpha - m + 1, m)
    return [(-1) ** i * math.comb(m, i) * lower[i] * upper[m - i] for i in range(m + 1)]


def _hahn_E(m: int, alpha: int, beta: int, gamma, t):
    """hahn_E's body, unchecked; an int when gamma and t are."""
    terms = map(operator.mul, _rising(-t, m), reversed(_rising(t - gamma, m)))
    return sum(map(operator.mul, _hahn_weights(m, alpha, beta), terms))


def hahn_E(m: int, alpha: int, beta: int, gamma, t) -> Fraction:
    """Degree-m Hahn-type polynomial E_m(alpha, beta, gamma; t).

    E_m = sum_i (-1)^i C(m, i) (beta-m+1)_i (alpha-m+1)_{m-i} (-t)_i (t-gamma)_{m-i}.

    m, alpha and beta must be ints and gamma and t ints or Fractions, so the
    sum is exact; a float or a bool raises ValueError naming the argument.
    The package calls the body, _hahn_E, unchecked on ints it built itself.
    """
    for name, value in (("m", m), ("alpha", alpha), ("beta", beta)):
        check_int(name, value)
    check_rational("gamma", gamma)
    check_rational("t", t)
    return Fraction(_hahn_E(m, alpha, beta, gamma, t))


def _check_n_k(n: BlockTriple, k: int) -> None:
    """Reject n that is not a BlockTriple and k that is not an int (a bool is not)."""
    if not isinstance(n, BlockTriple):
        raise ValueError(f"n must be a BlockTriple, got {n!r}")
    check_int("k", k)


@dataclass(frozen=True)
class HahnContext:
    """Block sizes, degree k and multiplicity label m for one invariant vector."""

    n: BlockTriple
    k: int
    m: int

    def __post_init__(self):
        _check_n_k(self.n, self.k)
        check_m(self.n, self.k, self.m)


def _psi1_parameters(n: BlockTriple, k: int, m: int):
    """psi1's (degree, alpha, beta), and its (gamma, t) at t = u + v."""
    return (k - m, n.n3, n.n1 + n.n2 - 2 * m), lambda t: (k - m, k - t)


def _psi2_parameters(n: BlockTriple, k: int, m: int):
    """psi2's (degree, alpha, beta), and its (gamma, t) at (u, v)."""
    return (m, n.n2, n.n1), lambda u, v: (u + v, v)


def psi1(ctx: HahnContext, t) -> Fraction:
    """One-variable factor, a polynomial of degree k - m in t = u + v."""
    shape, at = _psi1_parameters(ctx.n, ctx.k, ctx.m)
    return hahn_E(*shape, *at(t))


def psi2(ctx: HahnContext, u, v) -> Fraction:
    """Two-variable factor, a degree-m Hahn polynomial in v on the line u + v."""
    shape, at = _psi2_parameters(ctx.n, ctx.k, ctx.m)
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
    """Coefficients of an invariant vector: one integer per orbit label (u, v), in grid
    order, over one scale > 0 in lowest terms, so a zero table has scale 1."""

    __slots__ = ("_n", "_k", "_entries", "_scale")

    def __init__(self, n: BlockTriple, k: int, entries: Mapping[tuple[int, int], object]):
        _check_n_k(n, k)
        grid = admissible_grid(n, k)
        bad = set(entries).difference(grid)
        if bad:
            raise ValueError(f"labels {sorted(bad)} outside the grid for k = {k}")
        for value in entries.values():
            check_rational("entry", value)
        values = [entries.get(uv, 0) for uv in grid]
        # Over the lcm of the reduced denominators the numerators are in lowest terms.
        scale = math.lcm(*(x.denominator for x in values))
        self._n, self._k, self._scale = n, k, scale
        self._entries = {uv: x.numerator * scale // x.denominator for uv, x in zip(grid, values)}

    @classmethod
    def _from_grid(cls, n: BlockTriple, k: int, grid: Iterable, values: list, scale: int):
        """Integers over scale > 0 in the order of admissible_grid(n, k), unchecked, reduced."""
        g = math.gcd(scale, *values)
        if g > 1:
            values, scale = [x // g for x in values], scale // g
        table = object.__new__(cls)
        table._n, table._k, table._entries, table._scale = n, k, dict(zip(grid, values)), scale
        return table

    @property
    def n(self) -> BlockTriple:
        return self._n

    @property
    def k(self) -> int:
        return self._k

    def get(self, u: int, v: int) -> Fraction:
        """Entry at (u, v); zero off the grid, so boundary cases need no care."""
        return Fraction(self._entries[u, v], self._scale) if (u, v) in self._entries else ZERO

    def labels(self) -> list[tuple[int, int]]:
        return list(self._entries)

    def items(self) -> Iterable[tuple[tuple[int, int], Fraction]]:
        return {uv: Fraction(x, self._scale) for uv, x in self._entries.items()}.items()

    def _numerators(self) -> tuple[dict[tuple[int, int], int], int]:
        """The integers by label, in grid order, and the scale they are over."""
        return self._entries, self._scale

    def is_zero(self) -> bool:
        return not any(self._entries.values())

    def scaled(self, factor) -> "CoeffTable":
        check_rational("factor", factor)
        values = [factor.numerator * x for x in self._entries.values()]
        scale = self._scale * factor.denominator
        return CoeffTable._from_grid(self._n, self._k, self._entries, values, scale)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffTable):
            return NotImplemented
        mine, theirs = (self._n, self._k, self._scale), (other._n, other._k, other._scale)
        return mine == theirs and self._entries == other._entries

    def __hash__(self):
        return hash((self._n, self._k, self._scale, tuple(self._entries.values())))

    def __repr__(self) -> str:
        nonzero = {uv: str(x) for uv, x in self.items() if x != 0}
        return f"CoeffTable(n={self._n.sizes}, k={self._k}, {nonzero})"


def _psi_values(n: BlockTriple, k: int, ms: list[int], grid: list) -> list[list[int]]:
    """The integer columns psi1(u + v) psi2(u, v) at the labels of grid, one per m in ms.

    Both factors are sums sum_i w_i (-b)_i (-a)_{d-i}, with (a, b) = (u, v) for psi2 and
    (t - m, k - t) for psi1 at t = u + v. (-x)_i is 0 past i = x, so one axis of (-x)_i,
    i <= x <= k, serves all, and each sum runs over max(0, d - a) <= i <= min(d, b) only:
    empty for psi2 where u + v < m, and the one term i = k - t for psi1 where t >= m.
    """
    axis = [_rising(-x, x) for x in range(k + 1)]
    columns = []
    for m in ms:
        first_weights = _hahn_weights(*_psi1_parameters(n, k, m)[0])
        second_weights = _hahn_weights(*_psi2_parameters(n, k, m)[0])
        first = [0] * m + [
            first_weights[k - t] * axis[k - t][-1] * axis[t - m][-1] for t in range(m, k + 1)
        ]
        # psi2's i-th term is lows[v][i] highs[u][i - max(0, m - u)]; map stops at min(m, v).
        lows = [list(map(operator.mul, second_weights, a)) for a in axis]
        highs = [a[min(u, m)::-1] for u, a in enumerate(axis)]
        columns.append([
            first[u + v] * sum(map(operator.mul, lows[v] if u >= m else lows[v][m - u:], highs[u]))
            for u, v in grid
        ])
    return columns


def psi_table(ctx: HahnContext) -> CoeffTable:
    """The invariant vector labeled m over the orbit grid: psi1(u + v) psi2(u, v)."""
    grid = admissible_grid(ctx.n, ctx.k)
    (column,) = _psi_values(ctx.n, ctx.k, [ctx.m], grid)
    return CoeffTable._from_grid(ctx.n, ctx.k, grid, column, 1)

"""Symmetric group characters via the Murnaghan-Nakayama rule.

The recursion runs on beta numbers (first-column hook lengths), where removing
a border strip of size s means lowering one beta number by s; the strip height
is the count of beta numbers jumped over, which carries the sign.
"""
from __future__ import annotations

import functools
import math
from collections import Counter

from .core import BlockTriple, Partition, check_int, check_N, check_k

__all__ = [
    "mn_character",
    "two_row",
    "dim_two_row",
    "centralizer_order",
    "m_range",
    "multiplicity",
]


def _beta_numbers(lam: tuple[int, ...]) -> list[int]:
    L = len(lam)
    return [lam[i] + (L - 1 - i) for i in range(L)]


def _partition_from_beta(beta: list[int]) -> tuple[int, ...]:
    beta = sorted(beta, reverse=True)
    L = len(beta)
    parts = [beta[i] - (L - 1 - i) for i in range(L)]
    return tuple(p for p in parts if p > 0)


@functools.cache
def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1 if not lam else 0
    s = mu[0]
    rest = mu[1:]
    beta = _beta_numbers(lam)
    beta_set = set(beta)
    total = 0
    for b in beta:
        target = b - s
        if target < 0 or target in beta_set:
            continue
        height = sum(1 for c in beta if target < c < b)
        removed = [c for c in beta if c != b] + [target]
        total += (-1) ** height * _mn(_partition_from_beta(removed), rest)
    return total


def _check_weights(lam: Partition, mu: Partition) -> None:
    if lam.weight != mu.weight:
        raise ValueError(
            f"weights differ: |lam| = {lam.weight}, |mu| = {mu.weight}"
        )


def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value chi^lam at cycle type mu."""
    _check_weights(lam, mu)
    return _mn(lam.parts, mu.parts)


# A Partition is immutable, so each oracle call can share one; 1,024 holds
# every shape with N <= 62. Typed, so that a k of True or 1.0 is not served
# the shape cached for 1 but refused by check_k.
@functools.lru_cache(maxsize=1024, typed=True)
def two_row(N: int, k: int) -> Partition:
    """The two-row shape [N - k, k]; k = 0 degenerates to the single row [N]."""
    check_N(N)
    check_k(N, k)
    return Partition((N - k, k) if k > 0 else (N,))


def dim_two_row(N: int, k: int) -> int:
    """Dimension of the irreducible module of shape [N - k, k]."""
    check_N(N)
    check_k(N, k)
    # C(N, k) - C(N, k - 1) = C(N, k) (N - 2k + 1) / (N - k + 1), exactly.
    return math.comb(N, k) * (N - 2 * k + 1) // (N - k + 1)


def centralizer_order(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    order = 1
    for part, count in Counter(mu.parts).items():
        order *= part**count * math.factorial(count)
    return order


def m_range(n: BlockTriple, k: int) -> tuple[int, int]:
    """Inclusive bounds (m_L, m_U) of the multiplicity parameter m.

    The pair indexes the irreducible components of shape [N - k, k] inside the
    permutation module on cosets of the three-block subgroup; the range is
    empty when m_L > m_U.
    """
    n1, n2, n3 = n.n1, n.n2, n.n3
    check_k(n1 + n2 + n3, k)
    return max(0, k - n3), min(n1, n2, k, n1 + n2 - k)


def check_m(n: BlockTriple, k: int, m: int) -> None:
    """Reject k as m_range does, then a label m that is not an int (a bool is
    not) or lies outside m_range(n, k)."""
    m_lower, m_upper = m_range(n, k)
    check_int("m", m)
    if not m_lower <= m <= m_upper:
        raise ValueError(f"m = {m} outside [{m_lower}, {m_upper}] for n = {n.sizes}, k = {k}")


def _range_count(m_lower: int, m_upper: int) -> int:
    """The number of m with m_lower <= m <= m_upper; 0 for an empty range."""
    return max(0, m_upper - m_lower + 1)


def multiplicity(n: BlockTriple, k: int) -> int:
    """Multiplicity of the shape [N - k, k] in the coset module of the subgroup."""
    return _range_count(*m_range(n, k))

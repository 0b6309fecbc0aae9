"""Exact combinatorial substrate: rationals, partitions, permutations, block data.

Every scalar in this package is a :class:`fractions.Fraction` (or a plain int
where the value is known to be integral); no floating point appears anywhere.

This module also owns the input rules every value is indexed by: int block
sizes n_j >= 1 (check_sizes), an int point count N >= 0 where a caller gives
N itself (check_N), a two-row shape [N - k, k] with an int k,
0 <= 2k <= N (check_k), a pair of distinct blocks (pair_blocks), a cycle
through a nonempty set of blocks (cycle_blocks), an int size bound for the
brute-force oracles and sweeps (check_bound) and an int index argument of
the arithmetic helpers (check_int). Other modules call these rather than
restate a rule; only the CLI words the cycle rule again, to quote its input.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Partition",
    "BlockTriple",
    "Permutation",
    "pochhammer",
    "binom",
    "complete_homogeneous",
    "cycle_type",
    "compose",
    "young_subgroup_elements",
    "embed_cycle",
    "partitions",
]

# The shared zero for lookups that default to it; a Fraction is immutable.
ZERO = Fraction(0)

# Entries of a Partition or Permutation are ints exactly when the set of
# their types lies within this one; a bool is not an int here.
_INTS = frozenset({int})


def check_N(N: int) -> None:
    """Reject a point count that is not an int (a bool is not) or is below 0."""
    if type(N) is not int or N < 0:
        raise ValueError(f"N must be an int >= 0, got {N!r}")


def check_k(N: int, k: int) -> None:
    """Reject a shape parameter that is not an int (a bool is not) or lies
    outside 0 <= 2k <= N."""
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 0 or 2 * k > N:
        raise ValueError(f"need 0 <= 2k <= N, got k = {k}, N = {N}")


def check_int(name: str, value: int) -> None:
    """Reject an index argument that is not an int (a bool is not)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def check_bound(bound: int) -> None:
    """Reject an oracle size bound that is not an int (a bool is not)."""
    check_int("bound", bound)


def check_sizes(sizes: tuple[int, ...]) -> None:
    """Reject block sizes that are not ints (a bool is not) or are below 1."""
    for size in sizes:
        if type(size) is not int:
            raise ValueError(f"block sizes must be ints, got {sizes!r}")
    if min(sizes) < 1:
        raise ValueError(f"block sizes must be >= 1, got {sizes}")


def pair_blocks(pair: Iterable[int]) -> tuple[int, int, int]:
    """The two blocks of a pair in ascending order, then the third block."""
    blocks = tuple(sorted(pair))
    if blocks not in {(1, 2), (1, 3), (2, 3)}:
        raise ValueError(f"pair must be two distinct blocks, got {pair}")
    a, b = blocks
    return a, b, 6 - a - b


def cycle_blocks(A: Iterable[int]) -> tuple[int, ...]:
    """The blocks a cycle runs through, sorted; a nonempty subset of {1, 2, 3}."""
    blocks = tuple(sorted(set(A)))
    if blocks not in {(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)}:
        raise ValueError(f"cycle must be a nonempty subset of {{1, 2, 3}}, got {blocks}")
    return blocks


class Partition:
    """A weakly decreasing sequence of positive ints (a bool is not one)."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(parts)
        if not _INTS.issuperset(map(type, parts)):
            raise ValueError(f"partition parts must be ints, got {parts}")
        for p in parts:
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        self._parts = parts

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        return sum(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i: int) -> int:
        return self._parts[i]

    def __iter__(self):
        return iter(self._parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition{self._parts}"


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse lexicographic order."""
    if n == 0:
        yield Partition(())
        return

    def rec(remaining: int, largest: int, prefix: list[int]):
        if remaining == 0:
            yield Partition(prefix)
            return
        for p in range(min(remaining, largest), 0, -1):
            prefix.append(p)
            yield from rec(remaining - p, p, prefix)
            prefix.pop()

    yield from rec(n, n, [])


@dataclass(frozen=True)
class BlockTriple:
    """Sizes (n1, n2, n3) of the three consecutive blocks partitioning [1, N]."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        check_sizes(self.sizes)

    @property
    def N(self) -> int:
        return self.n1 + self.n2 + self.n3

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    def size(self, block: int) -> int:
        """Size of block 1, 2 or 3."""
        return self.sizes[block - 1]

    def interval(self, block: int) -> range:
        """The 1-based positions belonging to the given block."""
        start = 1 + sum(self.sizes[: block - 1])
        return range(start, start + self.sizes[block - 1])

    def __repr__(self) -> str:
        return f"BlockTriple{self.sizes}"


class Permutation:
    """A permutation of [1, N] in one-line notation: images[i-1] = p(i).

    The images must be ints; a bool is not one.
    """

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        ints = _INTS.issuperset(map(type, images))
        if not ints or sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of [1, {len(images)}]: {images}")
        self._images = images

    @classmethod
    def identity(cls, N: int) -> "Permutation":
        return cls(range(1, N + 1))

    @classmethod
    def from_cycle(cls, cycle: Sequence[int], N: int) -> "Permutation":
        """The cyclic permutation cycle[0] -> cycle[1] -> ... -> cycle[0] in S_N."""
        images = list(range(1, N + 1))
        for a, b in zip(cycle, cycle[1:] + type(cycle)([cycle[0]])):
            images[a - 1] = b
        return cls(images)

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def N(self) -> int:
        return len(self._images)

    def __call__(self, i: int) -> int:
        return self._images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.N
        for i, x in enumerate(self._images):
            inv[x - 1] = i + 1
        return Permutation(inv)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation{self._images}"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i)): q is applied first.

    This is the one fixed composition convention of the package; averaged
    characters do not depend on it, but the oracles must all use the same one.
    """
    if p.N != q.N:
        raise ValueError(f"size mismatch: {p.N} vs {q.N}")
    pi = p.images
    return Permutation(pi[x - 1] for x in q.images)


def cycle_type(p: Permutation) -> Partition:
    """Cycle lengths of p, fixed points included, as a partition of N."""
    images = p.images
    seen = [False] * p.N
    lengths = []
    for start in range(1, p.N + 1):
        if seen[start - 1]:
            continue
        length = 0
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            length += 1
            i = images[i - 1]
        lengths.append(length)
    lengths.sort(reverse=True)
    return Partition(lengths)


def pochhammer(a, j: int):
    """Rising factorial a(a+1)...(a+j-1); the empty product (j=0) is 1.

    a may be an int or a Fraction; j is an int >= 0.
    """
    check_int("j", j)
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    result = a - a + 1  # 1 in the arithmetic type of a
    for i in range(j):
        result *= a + i
    return result


def binom(n: int, k: int) -> int:
    """Binomial coefficient of ints n and k, 0 outside the range 0 <= k <= n."""
    check_int("n", n)
    check_int("k", k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def complete_homogeneous(values: Sequence, degree: int):
    """h_degree(values): the sum of all monomials of the given total degree.

    Computed through the generating function 1 / prod(1 - c_i t), one value at
    a time; exact for int and Fraction inputs. The degree is an int >= 0.
    """
    check_int("degree", degree)
    if degree < 0:
        raise ValueError(f"need degree >= 0, got {degree}")
    h = [1] + [0] * degree
    for c in values:
        for j in range(1, degree + 1):
            h[j] += c * h[j - 1]
    return h[degree]


def young_subgroup_elements(n: BlockTriple) -> Iterator[Permutation]:
    """All n1! n2! n3! permutations moving each block interval within itself."""
    block_arrangements = [
        list(itertools.permutations(n.interval(b))) for b in (1, 2, 3)
    ]
    for part1, part2, part3 in itertools.product(*block_arrangements):
        yield Permutation(part1 + part2 + part3)


def embed_cycle(A: Iterable[int], n: BlockTriple) -> Permutation:
    """Canonical cycle through the first index of each block listed in A.

    Blocks are visited in ascending order; a single block gives the identity.
    """
    points = [n.interval(b).start for b in cycle_blocks(A)]
    return Permutation.from_cycle(points, n.N)

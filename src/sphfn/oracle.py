"""Brute-force cross-checks for every closed form in the package.

Two oracles, independent of each other and of the Hahn machinery:

* the character oracle averages Murnaghan-Nakayama values over a subgroup
  coset. When the coset's representative is the identity or one cycle with at
  most one moved point per block, it counts the coset's cycle types class by
  class, block by block; for any other representative it enumerates the
  coset, straight from the definition;
* the module oracle realizes the irreducible module inside the space spanned
  by squarefree degree-k monomials, cut out by the vanishing of the divergence,
  and takes the trace of project-then-translate on its invariant vectors.

Both refuse to run past a size bound: the subgroup order n1! n2! n3! for the
character oracle, C(N, k) for the module oracle. They exist to be right, not
fast.

The invariant basis of each (n, k) is solved once and kept in a bounded
cache (the 512 most recent), so the five cycles of one (n, k) and
invariants_in_Vk share one nullspace. Sharing skips no check: every call
still checks each basis table and each projected image for divergence, and
every VkVector handed out checks its own.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping

from . import linalg
from .characters import centralizer_order, mn_character, two_row
from .core import (
    ZERO,
    BlockTriple,
    Partition,
    Permutation,
    binom,
    check_k,
    check_sizes,
    compose,
    cycle_type,
    partitions,
)
from .hahn import CoeffTable, admissible_grid

__all__ = [
    "OracleBoundExceeded",
    "DEFAULT_BOUND",
    "phi_character_oracle",
    "two_factor_character_oracle",
    "VkVector",
    "build_Vk_basis",
    "invariants_in_Vk",
    "coeff_table_from_invariant",
    "project_to_invariant",
    "phi_module_oracle",
]

DEFAULT_BOUND = 10**6


class OracleBoundExceeded(Exception):
    """Raised when a brute-force enumeration would exceed the configured bound."""


Histogram = tuple[tuple[Partition, int], ...]


def _histogram(counts: Counter) -> Histogram:
    """Cycle-type counts keyed by parts, as (Partition, count) pairs in parts order."""
    return tuple((Partition(parts), count) for parts, count in sorted(counts.items()))


def _enumerated_type_counts(sizes: tuple[int, ...], g_images: tuple[int, ...]) -> Histogram:
    """Cycle-type histogram of {g h : h in the block subgroup}, by enumeration.

    The blocks are consecutive intervals of the given sizes; any g is allowed.
    """
    g = Permutation(g_images)
    starts = itertools.accumulate(sizes, initial=1)
    blocks = [itertools.permutations(range(s, s + m)) for s, m in zip(starts, sizes)]
    counts: Counter = Counter()
    for parts in itertools.product(*blocks):
        h = Permutation(itertools.chain.from_iterable(parts))
        counts[cycle_type(compose(g, h)).parts] += 1
    return _histogram(counts)


def _class_type_counts(sizes: tuple[int, ...], marked: tuple[bool, ...]) -> Histogram:
    """Cycle-type histogram of {g h : h in the block subgroup}, by class counting.

    Here g is the identity or one cycle through one point of each marked
    block. The cycle type of g h is that of h, except that the h-cycles
    through g's moved points merge into one, whose length is their sum. In a
    marked block of size m, (m-1)!/z_nu permutations put the marked point on
    an L-cycle and give the other points the type nu of m - L; in an unmarked
    block, m!/z_nu permutations have the type nu of m.
    """
    # (merged length, other cycle lengths) -> number of h, one block at a time
    states: Counter = Counter({(0, ()): 1})
    for m, is_marked in zip(sizes, marked):
        if is_marked:
            options = [
                (L, nu.parts, math.factorial(m - 1) // centralizer_order(nu))
                for L in range(1, m + 1)
                for nu in partitions(m - L)
            ]
        else:
            options = [
                (0, nu.parts, math.factorial(m) // centralizer_order(nu))
                for nu in partitions(m)
            ]
        grown: Counter = Counter()
        for (merged, rest), count in states.items():
            for L, parts, ways in options:
                grown[merged + L, tuple(sorted(rest + parts, reverse=True))] += count * ways
        states = grown
    counts: Counter = Counter()
    for (merged, rest), count in states.items():
        parts = rest + (merged,) if merged else rest
        counts[tuple(sorted(parts, reverse=True))] += count
    return _histogram(counts)


@functools.lru_cache(maxsize=None)
def _coset_type_counts(sizes: tuple[int, int, int], g_images: tuple[int, ...]) -> Histogram:
    """Cycle-type histogram of {g h : h in the block subgroup}, cached.

    Counted by class when g moves at most one point per block: with three
    blocks that is at most three moved points, so g is the identity or one
    cycle. Any other g is enumerated.
    """
    ends = list(itertools.accumulate(sizes))
    blocks = [bisect.bisect_left(ends, i) for i, image in enumerate(g_images, 1) if image != i]
    if len(set(blocks)) < len(blocks):
        return _enumerated_type_counts(sizes, g_images)
    return _class_type_counts(sizes, tuple(b in blocks for b in range(len(sizes))))


def _check_permutation(g: Permutation, n: BlockTriple) -> None:
    if g.N != n.N:
        raise ValueError(f"permutation acts on {g.N} points, blocks cover {n.N}")


def _check_order(sizes: tuple[int, ...], bound: int) -> int:
    """The subgroup order, the product of the block factorials, if within bound."""
    order = math.prod(map(math.factorial, sizes))
    if order > bound:
        raise OracleBoundExceeded(
            f"subgroup order {order} exceeds bound {bound} for n = {sizes}"
        )
    return order


def _coset_average(shape: Partition, histogram: Histogram, order: int) -> Fraction:
    """The character of shape summed over a coset's cycle types, over its size."""
    total = 0
    for mu, count in histogram:
        total += count * mn_character(shape, mu)
    return Fraction(total, order)


def phi_character_oracle(
    n: BlockTriple, k: int, g: Permutation, bound: int = DEFAULT_BOUND
) -> Fraction:
    """Average of the two-row character over the coset of g.

    The bound caps the subgroup order n1! n2! n3!, however the coset's cycle
    types are counted.
    """
    _check_permutation(g, n)
    order = _check_order(n.sizes, bound)
    shape = two_row(n.N, k)
    return _coset_average(shape, _coset_type_counts(n.sizes, g.images), order)


@functools.lru_cache(maxsize=None)
def _two_factor_type_counts(n1: int, n2: int) -> Histogram:
    """Cycle-type histogram of the coset of the 2-cycle joining two blocks."""
    return _class_type_counts((n1, n2), (True, True))


def two_factor_character_oracle(
    n1: int, n2: int, k: int, bound: int = DEFAULT_BOUND
) -> Fraction:
    """Same average for two blocks only, at the 2-cycle joining them.

    The rest of the package stays three-block. The bound caps the subgroup
    order n1! n2!.
    """
    check_sizes((n1, n2))
    shape = two_row(n1 + n2, k)
    order = _check_order((n1, n2), bound)
    return _coset_average(shape, _two_factor_type_counts(n1, n2), order)


class VkVector:
    """A divergence-free vector in the span of squarefree degree-k monomials.

    Coordinates are indexed by sorted k-tuples; absent subsets read as zero.
    The constructor rejects any key that is not a k-subset of [1, N], and two
    keys naming the same subset. It then enforces the defining condition,
    that dropping one point from each subset sums to zero over every
    (k-1)-subset; the sums run in integers, on the coordinates scaled by the
    lcm of their denominators. Every vector this module hands out passes
    through here; phi_module_oracle builds no vector and makes the same
    divergence check itself, on every vector it uses.
    """

    __slots__ = ("_N", "_k", "_coords")

    def __init__(self, N: int, k: int, coords: Mapping[tuple[int, ...], object]):
        self._N = N
        self._k = k
        given: set[tuple[int, ...]] = set()
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for subset, value in coords.items():
            key = tuple(sorted(subset))
            if len(key) != k or len(set(key)) != k or key and not 1 <= key[0] <= key[-1] <= N:
                raise ValueError(f"not a k-subset of [1, {N}]: {subset}")
            if key in given:
                raise ValueError(f"subset {key} given twice")
            given.add(key)
            if not isinstance(value, Fraction):
                value = Fraction(value)
            if value != 0:
                cleaned[key] = value
        self._coords = cleaned
        if not self._divergence_free():
            raise ValueError("coordinates violate the divergence condition")

    def _divergence_free(self) -> bool:
        values, _ = linalg.over_common_denominator(self._coords.values())
        sums: dict[tuple[int, ...], int] = {}
        for subset, x in zip(self._coords, values):
            for i in range(len(subset)):
                smaller = subset[:i] + subset[i + 1:]
                sums[smaller] = sums.get(smaller, 0) + x
        return not any(sums.values())

    @property
    def N(self) -> int:
        return self._N

    @property
    def k(self) -> int:
        return self._k

    def coord(self, subset: Iterable[int]) -> Fraction:
        return self._coords.get(tuple(sorted(subset)), ZERO)

    def items(self):
        return iter(sorted(self._coords.items()))

    def apply(self, g: Permutation) -> "VkVector":
        """Translate: the coordinate at E moves to g(E)."""
        if g.N != self._N:
            raise ValueError(f"permutation acts on {g.N} points, vector lives on {self._N}")
        return VkVector(
            self._N,
            self._k,
            {tuple(g(i) for i in subset): x for subset, x in self._coords.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, VkVector):
            return NotImplemented
        return (
            self._N == other._N
            and self._k == other._k
            and self._coords == other._coords
        )

    def __repr__(self) -> str:
        return f"VkVector(N={self._N}, k={self._k}, {len(self._coords)} nonzero)"


def _subsets(N: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, N + 1), k))


def _check_space_bound(N: int, k: int, bound: int) -> None:
    size = binom(N, k)
    if size > bound:
        raise OracleBoundExceeded(
            f"monomial space size C({N},{k}) = {size} exceeds bound {bound}"
        )


def build_Vk_basis(N: int, k: int, bound: int = DEFAULT_BOUND) -> list[VkVector]:
    """Basis of the divergence-free subspace, from the raw linear system.

    One equation per (k-1)-subset; the kernel has dimension
    C(N, k) - C(N, k-1). Small N only.
    """
    check_k(N, k)
    _check_space_bound(N, k, bound)
    if k == 0:
        return [VkVector(N, 0, {(): Fraction(1)})]
    columns = _subsets(N, k)
    column_index = {subset: j for j, subset in enumerate(columns)}
    rows = []
    for smaller in _subsets(N, k - 1):
        row = [0] * len(columns)
        for j in range(1, N + 1):
            if j not in smaller:
                row[column_index[tuple(sorted(smaller + (j,)))]] = 1
        rows.append(row)
    kernel = linalg.nullspace(rows, ncols=len(columns))
    return [
        VkVector(N, k, {subset: value for subset, value in zip(columns, vec)})
        for vec in kernel
    ]


def _point_blocks(n: BlockTriple) -> list[int]:
    """The block (1, 2 or 3) of each point 1..N, at index point - 1."""
    return [1] * n.n1 + [2] * n.n2 + [3] * n.n3


def _labelled_subsets(n: BlockTriple, k: int) -> list[tuple[tuple[int, ...], tuple[int, int]]]:
    """Every k-subset of [1, N] in lexicographic order, with its orbit label.

    The label (u, v) counts the subset's points in blocks 1 and 2. The block
    tuples come from the same combinations of the points' blocks, so they
    line up with the subsets.
    """
    return [
        (subset, (blocks.count(1), blocks.count(2)))
        for subset, blocks in zip(
            itertools.combinations(range(1, n.N + 1), k),
            itertools.combinations(_point_blocks(n), k),
        )
    ]


# 512 holds every (n, k) with blocks <= 4 (288 of them).
@functools.lru_cache(maxsize=512)
def _invariant_tables(n: BlockTriple, k: int) -> tuple[CoeffTable, ...]:
    """Orbit-constant solutions of the raw divergence system, cached per (n, k).

    Invariance under the block subgroup forces one unknown per orbit label;
    every (k-1)-subset then contributes one equation on those unknowns, with
    a 1 for each point j outside it, at the label of the subset plus j. All
    equations are imposed verbatim, without collapsing them into the label
    recurrence, so this stays independent of the difference-equation code.
    A (k-1)-subset's label need not be on the degree-k grid, so its three
    target labels are looked up once with .get; a point j outside the subset
    only ever lands on a target that exists.
    """
    if k == 0:
        return (CoeffTable(n, 0, {(0, 0): Fraction(1)}),)
    labels = admissible_grid(n, k)
    label_index = {uv: j for j, uv in enumerate(labels)}
    point_blocks = _point_blocks(n)
    seen: set[tuple[int, ...]] = set()
    rows = []
    for smaller, (u, v) in _labelled_subsets(n, k - 1):
        targets = (
            label_index.get((u + 1, v)),
            label_index.get((u, v + 1)),
            label_index.get((u, v)),
        )
        inside = set(smaller)
        row = [0] * len(labels)
        for j, block in enumerate(point_blocks, 1):
            if j not in inside:
                row[targets[block - 1]] += 1
        key = tuple(row)
        if key not in seen:  # repeated subsets give literally equal equations
            seen.add(key)
            rows.append(row)
    kernel = linalg.nullspace(rows, ncols=len(labels))
    return tuple(
        CoeffTable(n, k, {uv: value for uv, value in zip(labels, vec)})
        for vec in kernel
    )


def invariants_in_Vk(n: BlockTriple, k: int, bound: int = DEFAULT_BOUND) -> list[VkVector]:
    """Basis of the subgroup-invariant divergence-free vectors.

    The count equals the multiplicity of the two-row shape; each vector is
    constant on subset orbits and so corresponds to one coefficient table.
    """
    check_k(n.N, k)
    _check_space_bound(n.N, k, bound)
    labelled = _labelled_subsets(n, k)
    vectors = []
    for table in _invariant_tables(n, k):
        entries = dict(table.items())
        vectors.append(VkVector(n.N, k, {subset: entries[uv] for subset, uv in labelled}))
    return vectors


def _check_points(vec: VkVector, n: BlockTriple) -> None:
    if vec.N != n.N:
        raise ValueError(f"vector lives on {vec.N} points, blocks cover {n.N}")


def coeff_table_from_invariant(vec: VkVector, n: BlockTriple) -> CoeffTable:
    """Read the orbit constants off an invariant vector; reject non-constant ones."""
    _check_points(vec, n)
    entries: dict[tuple[int, int], Fraction] = {}
    for subset, uv in _labelled_subsets(n, vec.k):
        value = vec.coord(subset)
        if entries.setdefault(uv, value) != value:
            raise ValueError(f"vector is not constant on the orbit {uv}")
    return CoeffTable(n, vec.k, entries)


def project_to_invariant(vec: VkVector, n: BlockTriple) -> VkVector:
    """Average the vector over each subset orbit of the block subgroup."""
    _check_points(vec, n)
    labelled = _labelled_subsets(n, vec.k)
    sums: dict[tuple[int, int], Fraction] = {}
    sizes: Counter = Counter()
    for subset, uv in labelled:
        sums[uv] = sums.get(uv, ZERO) + vec.coord(subset)
        sizes[uv] += 1
    means = {uv: sums[uv] / sizes[uv] for uv in sums}
    return VkVector(vec.N, vec.k, {subset: means[uv] for subset, uv in labelled})


def phi_module_oracle(
    n: BlockTriple, k: int, g: Permutation, bound: int = DEFAULT_BOUND
) -> Fraction:
    """Trace of translate-then-project on the invariant divergence-free vectors.

    Equals the coset character average because projecting onto subgroup
    invariants and averaging the character are the same operator trace.

    A basis table T is the vector x_E = T(label of E). Translating it by g
    and averaging over each orbit O_b gives the table
    P(b) = sum over a of C[b][a] T(a) / |O_b|, where C[b][a] counts the
    subsets E with label a whose image g(E) has label b. One pass over the
    C(N, k) subsets counts C, the orbit sizes, and for every (k-1)-subset S
    the labels of the subsets that contain S; the divergence of an
    orbit-constant vector at S is the sum of its values over those labels.

    No vector is built, so the checks VkVector would make run here, in
    integers: each basis table and each projected table must be divergence
    free at every (k-1)-subset, or ValueError is raised. The translated
    vector is not checked on its own: the divergence commutes with
    permutations, so it is divergence free exactly when the basis vector is.
    The projected table is constant on orbits by construction, and solve
    raises if it leaves the span of the basis.
    """
    _check_permutation(g, n)
    check_k(n.N, k)
    _check_space_bound(n.N, k, bound)
    basis_tables = _invariant_tables(n, k)
    if not basis_tables:
        return Fraction(0)
    labels = admissible_grid(n, k)
    label_index = {uv: a for a, uv in enumerate(labels)}
    point_blocks = _point_blocks(n)
    image_blocks = [point_blocks[g(i) - 1] for i in range(1, n.N + 1)]
    counts = [[0] * len(labels) for _ in labels]
    sizes = [0] * len(labels)
    faces: dict[tuple[int, ...], list[int]] = {}
    for subset, uv in _labelled_subsets(n, k):
        a = label_index[uv]
        sizes[a] += 1
        moved = [image_blocks[i - 1] for i in subset]
        counts[label_index[moved.count(1), moved.count(2)]][a] += 1
        for i in range(k):
            faces.setdefault(subset[:i] + subset[i + 1:], [0] * len(labels))[a] += 1
    divergence = {tuple(row) for row in faces.values()}

    def check(values: list[int], what: str) -> None:
        if any(sum(d * x for d, x in zip(row, values)) for row in divergence):
            raise ValueError(f"{what} violates the divergence condition")

    common_size = math.lcm(*sizes)
    matrix = [[table.get(u, v) for table in basis_tables] for u, v in labels]
    trace = Fraction(0)
    for i, table in enumerate(basis_tables):
        values, scale = linalg.over_common_denominator(table.get(u, v) for u, v in labels)
        check(values, f"invariant vector {i}")
        image = [sum(c * x for c, x in zip(row, values)) for row in counts]
        check([y * (common_size // size) for y, size in zip(image, sizes)], f"projected image {i}")
        rhs = [Fraction(y, scale * size) for y, size in zip(image, sizes)]
        coords = linalg.solve(matrix, rhs)
        trace += coords[i]
    return trace

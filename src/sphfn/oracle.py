"""Brute-force cross-checks for every closed form in the package.

Two oracles, independent of each other and of the Hahn machinery:

* the character oracle averages Murnaghan-Nakayama values over a subgroup
  coset. When the coset's representative is the identity or one cycle with at
  most one moved point per block, it counts the coset's cycle types class by
  class, block by block; for any other representative it enumerates the
  coset, straight from the definition. A class count depends only on the
  multiset of (block size, marked) pairs. Each histogram checks once that
  its cycle types share one weight, and every average checks the shape's
  weight against it;
* the module oracle realizes the irreducible module inside the space spanned
  by squarefree degree-k monomials, cut out by the vanishing of the divergence,
  and takes the trace of project-then-translate on its invariant vectors.

Both refuse to run past a size bound, an int (core.check_bound): the
subgroup order n1! n2! n3! for the character oracle, C(N, k) for the module
oracle. They exist to be right, not fast.

The caches; no value depends on what they hold:

* _block_options, unbounded, keyed by (block size, marked): a block's class
  options, the (merged length, cycle lengths, count) triples;
* _partition, unbounded, keyed by parts tuple: one Partition per cycle type,
  validated when first built;
* _class_type_counts, unbounded, keyed by the sorted (size, marked) pairs:
  one histogram per block multiset;
* _coset_type_counts, unbounded, keyed by (block sizes, images of g), and
  _two_factor_type_counts, unbounded, keyed by (n1, n2): a coset's
  histogram, class-counted histograms shared through _class_type_counts;
* Histogram.sums, one dict on each histogram, keyed by the parts of the
  shape: the sum of count * chi over the histogram, taken once per shape;
* _orbit_frame, bounded (the 512 most recent (n, k)), keyed by (n, k): the
  module oracle's orbit frame, its labels, the orbit of every k-subset
  (four bytes a subset), orbit sizes and distinct divergence rows, and the
  invariant basis, the integer kernel of those rows as linalg.nullspace
  returns it, shared by the five cycles of one (n, k), invariants_in_Vk and
  coeff_table_from_invariant.

A call of the module oracle counts how g moves subsets between orbits and
reads the trace off the reduced basis, with no linear solve. Caching skips
no check: every call still checks each basis table and each projected image
for divergence and for lying in the basis's span.

A VkVector is built one way, by _from_tables, which makes its keys itself,
every k-subset in lexicographic order, and reads each coordinate off an
integer table through the subset's orbit. A table is divergence free when
it is orthogonal to the divergence rows of its orbits, its vector's face
sums grouped by orbit; one kernel, _rows_cancel, checks every table
phi_module_oracle uses and every vector _from_tables builds, against the
orbit frame's rows, counted at one (k-1)-subset per (k-1)-label.
coeff_table_from_invariant is the one function that takes a vector from
outside; it refuses 2k > N and C(N, k) past its bound before it reads a
coordinate.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from array import array
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import linalg
from .characters import _check_weights, _mn, centralizer_order, two_row
from .core import (
    ZERO,
    BlockTriple,
    Partition,
    Permutation,
    binom,
    check_bound,
    check_k,
    check_sizes,
    compose,
    cycle_type,
    partitions,
)
from .hahn import CoeffTable, _check_n_k, admissible_grid

__all__ = [
    "OracleBoundExceeded",
    "DEFAULT_BOUND",
    "phi_character_oracle",
    "two_factor_character_oracle",
    "VkVector",
    "invariants_in_Vk",
    "coeff_table_from_invariant",
    "phi_module_oracle",
]

DEFAULT_BOUND = 10**6


class OracleBoundExceeded(Exception):
    """Raised when a brute-force enumeration would exceed the configured bound."""


class Histogram(tuple):
    """Cycle-type counts as (Partition, count) pairs in parts order.

    Compared, hashed and iterated as the tuple of its pairs. It also keeps
    its character sums, the sum of count * chi^lam over its pairs, keyed by
    the parts lam of the shape; _coset_average takes each sum once.
    """

    def __new__(cls, pairs: Iterable[tuple[Partition, int]]) -> "Histogram":
        histogram = super().__new__(cls, pairs)
        histogram.sums = {}
        return histogram


# One Partition per cycle type; a parts tuple is validated when first built.
_partition = functools.lru_cache(maxsize=None)(Partition)


def _histogram(counts: Counter) -> Histogram:
    """Cycle-type counts keyed by parts, as (Partition, count) pairs in parts
    order; every cycle type must have the same weight."""
    histogram = Histogram((_partition(parts), count) for parts, count in sorted(counts.items()))
    if len({mu.weight for mu, _ in histogram}) != 1:
        raise ValueError("cycle types of one coset differ in weight")
    return histogram


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


@functools.lru_cache(maxsize=None)
def _block_options(m: int, marked: bool) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """The (merged length L, parts of nu, number of h) choices in one block.

    In a marked block of size m, (m-1)!/z_nu permutations put the marked
    point on an L-cycle and give the other points the type nu of m - L; in an
    unmarked block, m!/z_nu permutations have the type nu of m, and L = 0.
    """
    if marked:
        return tuple(
            (L, nu.parts, math.factorial(m - 1) // centralizer_order(nu))
            for L in range(1, m + 1)
            for nu in partitions(m - L)
        )
    return tuple((0, nu.parts, math.factorial(m) // centralizer_order(nu)) for nu in partitions(m))


@functools.lru_cache(maxsize=None)
def _class_type_counts(blocks: tuple[tuple[int, bool], ...]) -> Histogram:
    """Cycle-type histogram of {g h : h in the block subgroup}, by class counting.

    The blocks are the sorted (size, marked) pairs, one histogram cached per
    multiset. Here g is the identity or one cycle through one point of each
    marked block. The cycle type of g h is that of h, except that the
    h-cycles through g's moved points merge into one, whose length is their
    sum. Each block's choices come from _block_options. The count is a
    product over blocks and the merged lengths add, so block order does not
    matter.
    """
    # (merged length, other cycle lengths) -> number of h, one block at a time
    states: Counter = Counter({(0, ()): 1})
    for m, is_marked in blocks:
        options = _block_options(m, is_marked)
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
    cycle. The class count is looked up by the sorted (size, marked) pairs,
    so triples that are one multiset of blocks share it. Any other g is
    enumerated.
    """
    ends = list(itertools.accumulate(sizes))
    blocks = [bisect.bisect_left(ends, i) for i, image in enumerate(g_images, 1) if image != i]
    if len(set(blocks)) < len(blocks):
        return _enumerated_type_counts(sizes, g_images)
    return _class_type_counts(tuple(sorted((m, b in blocks) for b, m in enumerate(sizes))))


def _check_permutation(g: Permutation, n: BlockTriple) -> None:
    if not isinstance(g, Permutation):
        raise ValueError(f"g must be a Permutation, got {g!r}")
    if g.N != n.N:
        raise ValueError(f"permutation acts on {g.N} points, blocks cover {n.N}")


def _decimal(factors: Iterable[int]) -> str | None:
    """The product of the factors in decimal, or None once it passes the
    int-to-str digit limit (4300 digits where the limit is off)."""
    cap = 10 ** (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300)
    product = 1
    for x in factors:
        product *= x
        if product >= cap:
            return None
    return str(product)


def _check_order(sizes: tuple[int, ...], bound: int) -> int:
    """The subgroup order, the product of the block factorials, if within bound.

    The product stops at the first block that passes the bound. A block of
    m points with 2^(m-1) > bound passes it untaken, since m! >= 2^(m-1).
    A refusal shows the order, or names its factorials past the digit limit.
    """
    order = 1
    for m in sizes:
        order = order * math.factorial(m) if m <= bound.bit_length() else bound + 1
        if order > bound:
            factors = itertools.chain.from_iterable(range(2, size + 1) for size in sizes)
            shown = _decimal(factors) or " ".join(f"{size}!" for size in sizes)
            raise OracleBoundExceeded(
                f"subgroup order {shown} exceeds bound {bound} for n = {sizes}"
            )
    return order


def _coset_average(shape: Partition, histogram: Histogram, order: int) -> Fraction:
    """The character of shape summed over a coset's cycle types, over its size.

    The histogram's cycle types share one weight, so one check covers them;
    it runs on every call. The sum at each shape is taken once and kept on
    the histogram.
    """
    _check_weights(shape, histogram[0][0])
    lam = shape.parts
    total = histogram.sums.get(lam)
    if total is None:
        total = histogram.sums[lam] = sum(count * _mn(lam, mu.parts) for mu, count in histogram)
    return Fraction(total, order)


def phi_character_oracle(
    n: BlockTriple, k: int, g: Permutation, bound: int = DEFAULT_BOUND
) -> Fraction:
    """Average of the two-row character over the coset of g.

    The bound caps the subgroup order n1! n2! n3!, however the coset's cycle
    types are counted.
    """
    check_bound(bound)
    _check_n_k(n, k)
    _check_permutation(g, n)
    order = _check_order(n.sizes, bound)
    shape = two_row(n.N, k)
    return _coset_average(shape, _coset_type_counts(n.sizes, g.images), order)


@functools.lru_cache(maxsize=None)
def _two_factor_type_counts(n1: int, n2: int) -> Histogram:
    """Cycle-type histogram of the coset of the 2-cycle joining two blocks."""
    return _class_type_counts(tuple(sorted(((n1, True), (n2, True)))))


def two_factor_character_oracle(
    n1: int, n2: int, k: int, bound: int = DEFAULT_BOUND
) -> Fraction:
    """Same average for two blocks only, at the 2-cycle joining them.

    The rest of the package stays three-block. The bound caps the subgroup
    order n1! n2!.
    """
    check_bound(bound)
    check_sizes((n1, n2))
    shape = two_row(n1 + n2, k)
    order = _check_order((n1, n2), bound)
    return _coset_average(shape, _two_factor_type_counts(n1, n2), order)


def _rows_cancel(rows: Iterable[Sequence[int]], values: Sequence[int]) -> bool:
    """Whether integer values, one per column, are orthogonal to every row."""
    return not any(sum(map(operator.mul, row, values)) for row in rows)


class VkVector:
    """A divergence-free vector in the span of squarefree degree-k monomials.

    Coordinates are indexed by sorted k-tuples; absent subsets read as zero.
    There is no public constructor: _from_tables builds every vector, from
    integer tables it checks against divergence rows, so every vector this
    module hands out sums to zero over the subsets containing each
    (k-1)-subset. phi_module_oracle builds no vector and makes the same row
    check itself, on every table it uses.
    """

    __slots__ = ("_N", "_k", "_coords")

    @classmethod
    def _from_tables(cls, N: int, k: int, orbit, divergence, rows, scale: int) -> list["VkVector"]:
        """One vector per integer table, row[a] / scale at each subset of orbit a.

        orbit gives a position in the tables for every k-subset of [1, N] in
        lexicographic order, so the keys are made here, not checked.
        divergence holds the distinct divergence rows of those orbits: a
        table's products with them are its vector's face sums, grouped by
        orbit, and ValueError is raised unless each is zero. The subsets of
        one orbit share one Fraction.
        """
        keys = list(itertools.combinations(range(1, N + 1), k))
        vectors = []
        for row in rows:
            if not _rows_cancel(divergence, row):
                raise ValueError("coordinates violate the divergence condition")
            values = [Fraction(x, scale) for x in row]
            vec = cls.__new__(cls)
            vec._N, vec._k = N, k
            pairs = zip(keys, map(values.__getitem__, orbit))
            vec._coords = dict(itertools.compress(pairs, map(row.__getitem__, orbit)))
            vectors.append(vec)
        return vectors

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


def _check_space_bound(N: int, k: int, bound: int) -> None:
    """Refuse C(N, k) past the bound, showing its value within the digit limit."""
    size = binom(N, k)
    if size > bound:
        shown = _decimal([size])
        value = f" = {shown}" if shown else ""
        raise OracleBoundExceeded(f"monomial space size C({N},{k}){value} exceeds bound {bound}")


def _label_codes(n: BlockTriple, k: int) -> list[int]:
    """Each point's share of the code u + v (k + 1) of a k-subset's label (u, v).

    A point adds 1 in block 1, k + 1 in block 2 and 0 in block 3, so the sum
    over a subset's points codes its label, and distinct labels get distinct
    codes because u, v <= k.
    """
    return [1] * n.n1 + [k + 1] * n.n2 + [0] * n.n3


class _OrbitFrame(NamedTuple):
    """Everything the module routines need of (n, k) that does not depend on g."""

    labels: tuple[tuple[int, int], ...]
    index: dict[int, int]  # label code -> position in labels
    orbit: array  # position in labels of every k-subset, in lexicographic order
    sizes: tuple[int, ...]  # orbit size per label, counted
    common: int  # lcm of the orbit sizes
    divergence: tuple[tuple[int, ...], ...]  # distinct divergence rows
    basis: tuple[tuple[tuple[int, ...], ...], int]  # their kernel: integer rows, one scale


# 512 holds every (n, k) with blocks <= 4 (288 of them).
@functools.lru_cache(maxsize=512)
def _orbit_frame(n: BlockTriple, k: int) -> _OrbitFrame:
    """The labels, orbits, sizes, divergence rows and invariant basis of (n, k), cached.

    Invariance under the block subgroup forces one unknown per orbit label.
    A subset's orbit is read off the sum of its points' label codes, taken
    over the same combinations as the points, and each orbit's size is
    counted off those orbits.

    The divergence of an orbit-constant vector at a (k-1)-subset S is the
    sum of its values over the labels of the k-subsets that contain S, so
    S's row counts those subsets label by label. The block subgroup permutes
    the (k-1)-subsets of one label and keeps containment, so all of them
    have one row: it is counted once, at the representative S_y made of the
    first y_b points of each block b, for each (k-1)-label y. The row walks
    the points p outside S_y and reads the orbit of S_y with p added off the
    same label codes. It is counted point by point, not written from the
    coefficients n_b - y_b of the label recurrence, so the basis, the kernel
    of the distinct rows from linalg.nullspace, stays independent of the
    difference-equation code that it is checked against; it is kept as
    nullspace returns it, integer rows over one scale, never a Fraction. At
    k = 0 there is no (k-1)-subset and the kernel is the one constant table.
    """
    labels = tuple(admissible_grid(n, k))
    base = k + 1
    index = {u + v * base: a for a, (u, v) in enumerate(labels)}
    codes = _label_codes(n, k)
    orbit = array("I", map(index.__getitem__, map(sum, itertools.combinations(codes, k))))
    counts = Counter(orbit)
    sizes = tuple(map(counts.__getitem__, range(len(labels))))
    starts = (0, n.n1, n.n1 + n.n2)
    rows = []
    for u, v in admissible_grid(n, k - 1) if k else ():
        blocks = zip(starts, (u, v, k - 1 - u - v))
        chosen = set(itertools.chain.from_iterable(range(s, s + y) for s, y in blocks))
        code = sum(map(codes.__getitem__, chosen))
        row = [0] * len(labels)
        for p, point_code in enumerate(codes):
            if p not in chosen:
                row[index[code + point_code]] += 1
        rows.append(tuple(row))
    divergence = tuple(sorted(set(rows)))
    kernel, scale = linalg.nullspace(divergence, ncols=len(labels))
    basis = tuple(map(tuple, kernel)), scale
    return _OrbitFrame(labels, index, orbit, sizes, math.lcm(*sizes), divergence, basis)


def _invariant_basis(n: BlockTriple, k: int) -> tuple[Sequence[Sequence[int]], int]:
    """The invariant basis of (n, k), off its cached orbit frame, as integer
    rows over one scale: table i is rows[i][a] / scale at label a. Not cached
    itself; phi_module_oracle and invariants_in_Vk take the basis only
    through this name, looked up at call time."""
    return _orbit_frame(n, k).basis


def invariants_in_Vk(n: BlockTriple, k: int, bound: int = DEFAULT_BOUND) -> list[VkVector]:
    """Basis of the subgroup-invariant divergence-free vectors.

    The count equals the multiplicity of the two-row shape; each vector is
    constant on subset orbits and so corresponds to one coefficient table.
    """
    check_bound(bound)
    _check_n_k(n, k)
    check_k(n.N, k)
    _check_space_bound(n.N, k, bound)
    frame = _orbit_frame(n, k)
    return VkVector._from_tables(n.N, k, frame.orbit, frame.divergence, *_invariant_basis(n, k))


def coeff_table_from_invariant(
    vec: VkVector, n: BlockTriple, bound: int = DEFAULT_BOUND
) -> CoeffTable:
    """Read the orbit constants off an invariant vector; reject non-constant
    ones, naming the orbit of the first subset that breaks the constant.
    Each value is compared with its orbit's first by identity, and by
    value only when the two are distinct objects. Refuses a bound that is
    not an int, a vec that is not a VkVector, one on another number of
    points than n covers, 2k > N and C(N, k) past the bound, all before the
    orbit frame."""
    check_bound(bound)
    if not isinstance(vec, VkVector):
        raise ValueError(f"vec must be a VkVector, got {vec!r}")
    _check_n_k(n, vec.k)
    if vec.N != n.N:
        raise ValueError(f"vector lives on {vec.N} points, blocks cover {n.N}")
    check_k(n.N, vec.k)
    _check_space_bound(n.N, vec.k, bound)
    frame = _orbit_frame(n, vec.k)
    subsets = itertools.combinations(range(1, n.N + 1), vec.k)
    values = map(vec._coords.get, subsets, itertools.repeat(ZERO))
    first = [None] * len(frame.labels)
    for a, value in zip(frame.orbit, values):
        kept = first[a]
        if kept is not value:
            if kept is None:
                first[a] = value
            elif kept != value:
                raise ValueError(f"vector is not constant on the orbit {frame.labels[a]}")
    return CoeffTable(n, vec.k, dict(zip(frame.labels, first)))


def phi_module_oracle(
    n: BlockTriple, k: int, g: Permutation, bound: int = DEFAULT_BOUND
) -> Fraction:
    """Trace of translate-then-project on the invariant divergence-free vectors.

    Equals the coset character average because projecting onto subgroup
    invariants and averaging the character are the same operator trace.

    A basis table T is the vector x_E = T(label of E). Translating it by g
    and averaging over each orbit O_b gives the table
    P(b) = sum over a of C[b][a] T(a) / |O_b|, where C[b][a] counts the
    subsets E with label a whose image g(E) has label b. The orbit frame of
    (n, k) and its integer basis are cached; each call makes one pass over
    the C(N, k) subsets to count C, the only part that depends on g.

    No vector is built, so the checks VkVector would make run here, in
    integers, on every call: each basis table and each projected table must
    be divergence free at every (k-1)-subset, or ValueError is raised. The
    translated vector is not checked on its own: the divergence commutes
    with permutations, so it is divergence free exactly when the basis
    vector is.

    The coordinates of a projected table are read off, not solved for. Over
    its one integer scale S, the basis from linalg.nullspace is S at each
    table's free label, its last nonzero one, and 0 at the other tables'
    free labels; that identity block is checked, or ValueError is raised.
    Coordinate j of a projected table is then its value at free label j,
    and the table must equal the combination those coordinates give at
    every label, checked exactly in integers, or ValueError is raised as an
    inconsistent linear system. The trace sums coordinate i of image i.
    """
    check_bound(bound)
    _check_n_k(n, k)
    _check_permutation(g, n)
    check_k(n.N, k)
    _check_space_bound(n.N, k, bound)
    # Table i is basis[i] / scale, in label order.
    basis, scale = _invariant_basis(n, k)
    if not basis:
        return Fraction(0)
    frame = _orbit_frame(n, k)
    labels = frame.labels
    for i, values in enumerate(basis):
        if not _rows_cancel(frame.divergence, values):
            raise ValueError(f"invariant vector {i} violates the divergence condition")
    free = [max((a for a, x in enumerate(values) if x), default=0) for values in basis]
    if any(
        values[f] != (scale if i == j else 0)
        for i, values in enumerate(basis)
        for j, f in enumerate(free)
    ):
        raise ValueError("invariant basis is not reduced at its free labels")

    # One pass over the subsets counts C. A subset E sums to the code of
    # the pair (label of E, label of g(E)): the first label code times
    # base2 plus the second, both codes being below base2.
    codes = _label_codes(n, k)
    base2 = (k + 1) ** 2
    moved = [code * base2 + codes[g(i) - 1] for i, code in enumerate(codes, 1)]
    counts = [[0] * len(labels) for _ in labels]
    for code, count in Counter(map(sum, itertools.combinations(moved, k))).items():
        a, b = divmod(code, base2)
        counts[frame.index[b]][frame.index[a]] = count

    columns = list(zip(*basis))
    trace = 0
    for i, values in enumerate(basis):
        # The projected table i, times scale * frame.common.
        image = [
            sum(map(operator.mul, row, values)) * (frame.common // size)
            for row, size in zip(counts, frame.sizes)
        ]
        if not _rows_cancel(frame.divergence, image):
            raise ValueError(f"projected image {i} violates the divergence condition")
        coords = [image[f] for f in free]
        if any(
            y * scale != sum(map(operator.mul, coords, column))
            for y, column in zip(image, columns)
        ):
            raise ValueError(f"projected image {i}: inconsistent linear system")
        trace += image[free[i]]
    return Fraction(trace, scale * frame.common)

"""Test references for the module layer: the raw divergence system of V_k,
vectors built from given coordinates, translation, and orbit means.

The package builds every VkVector one way, VkVector._from_tables, from
integer tables it checks against divergence rows. The vectors here go
through that same path, with one table column per k-subset and the raw
incidence rows of the (k-1)-subsets as divergence rows, so they share
nothing with the orbit frame that the package's own vectors come from.
"""
import itertools
from collections import defaultdict
from fractions import Fraction

from sphfn import linalg
from sphfn.hahn import CoeffTable
from sphfn.oracle import VkVector


def point_labels(n, k):
    """Every k-subset of [1, N] with its orbit label (u, v): its points in
    blocks 1 and 2, counted point by point."""
    point_blocks = [1] * n.n1 + [2] * n.n2 + [3] * n.n3
    return [
        (subset, (blocks.count(1), blocks.count(2)))
        for subset, blocks in zip(
            itertools.combinations(range(1, n.N + 1), k),
            itertools.combinations(point_blocks, k),
        )
    ]


def incidence_rows(columns, faces):
    """One raw divergence row per (k-1)-subset in faces: a 1 at each of the
    k-subsets in columns that contain it."""
    position = {face: i for i, face in enumerate(faces)}
    rows = [[0] * len(columns) for _ in position]
    for j, subset in enumerate(columns):
        for face in itertools.combinations(subset, len(subset) - 1) if subset else ():
            if face in position:
                rows[position[face]][j] = 1
    return rows


def raw_rows(N, k):
    """The columns and rows of the raw divergence system of V_k: one
    equation per (k-1)-subset, a 1 at each k-subset containing it."""
    columns = list(itertools.combinations(range(1, N + 1), k))
    faces = list(itertools.combinations(range(1, N + 1), k - 1)) if k else []
    return columns, incidence_rows(columns, faces)


def raw_kernel(N, k):
    """The columns and kernel vectors of the raw divergence system of V_k."""
    columns, rows = raw_rows(N, k)
    kernel, scale = linalg.nullspace(rows, ncols=len(columns))
    return columns, [[Fraction(x, scale) for x in vec] for vec in kernel]


def vector(N, k, coords):
    """The VkVector with the given coordinates, keyed by k-subsets of [1, N]
    with their points in any order, built by VkVector._from_tables.

    Each k-subset is its own column, and the divergence rows are the raw
    incidence rows of the (k-1)-subsets inside a nonzero coordinate's subset;
    every other row meets only zeros. _from_tables raises ValueError unless
    the coordinates cancel at every (k-1)-subset.
    """
    columns = list(itertools.combinations(range(1, N + 1), k))
    given = {tuple(sorted(subset)): x for subset, x in coords.items()}
    assert set(given) <= set(columns), (N, k, coords)
    table, scale = linalg.over_common_denominator(given.get(subset, 0) for subset in columns)
    faces = sorted(
        {face for subset, x in given.items() if x for face in itertools.combinations(subset, k - 1)}
        if k
        else ()
    )
    rows = incidence_rows(columns, faces)
    (vec,) = VkVector._from_tables(N, k, range(len(columns)), rows, [table], scale)
    return vec


def zero_vector(N, k):
    """The zero vector of V_k, assembled from its slots.

    _from_tables lists every k-subset's key before it reads a table, which
    is 2.7 million tuples at C(24, 12); tests of refusals that come before
    any coordinate is read take this instead.
    """
    vec = VkVector.__new__(VkVector)
    vec._N, vec._k, vec._coords = N, k, {}
    return vec


def basis(N, k):
    """One vector per kernel vector of the raw divergence system."""
    columns, kernel = raw_kernel(N, k)
    return [vector(N, k, dict(zip(columns, values))) for values in kernel]


def translate(vec, g):
    """The vector whose coordinate at g(E) is vec's coordinate at E."""
    return vector(vec.N, vec.k, {tuple(map(g, subset)): x for subset, x in vec.items()})


def averaged_translate(vec, n, g):
    """vec translated by g, then averaged over each orbit of the block
    subgroup, as a table of orbit means; the orbits come from point_labels."""
    moved = translate(vec, g)
    orbits = defaultdict(list)
    for subset, uv in point_labels(n, vec.k):
        orbits[uv].append(moved.coord(subset))
    return CoeffTable(n, vec.k, {uv: sum(values) / len(values) for uv, values in orbits.items()})

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphfn import linalg

entries = st.integers(min_value=-9, max_value=9).map(Fraction)


def matrix_strategy(max_rows=4, max_cols=4):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_cols).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def gauss_jordan_reference(matrix):
    """Plain Gauss-Jordan elimination over Fraction: the reduced row echelon
    form and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


mixed_entries = st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.fractions(min_value=-12, max_value=12, max_denominator=9),
)


@st.composite
def rational_matrices(draw):
    """Random rational matrices with int and Fraction entries, zero rows and repeats."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(mixed_entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        position = draw(st.integers(min_value=0, max_value=len(rows)))
        copied = draw(st.sampled_from(rows + [[0] * ncols]))
        scale = draw(st.sampled_from([1, -1, 2, Fraction(-3, 4)]))
        rows.insert(position, [scale * x for x in copied])
    return rows


def reference_solve(matrix, rhs):
    """solve read off the Fraction Gauss-Jordan reference: the refusal's
    message, or the right-hand column of the reduced augmented matrix."""
    ncols = len(matrix[0])
    echelon, pivots = gauss_jordan_reference([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return "inconsistent linear system"
    if len(pivots) < ncols:
        return "underdetermined linear system"
    return [echelon[r][ncols] for r in range(ncols)]


def test_solve_matches_fraction_gauss_jordan():
    """Seeded random int and Fraction systems: full-rank ones, and ones
    built from fewer random rows; right-hand sides either in the column
    space or random. Every outcome of solve turns up."""
    rng = random.Random(20261019)
    outcomes = Counter()
    for _ in range(600):
        ncols = rng.randint(1, 5)
        as_fractions = rng.random() < 0.5

        def entry():
            if as_fractions:
                return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            return rng.randint(-9, 9)

        nrows = rng.randint(1, 7)
        if rng.random() < 0.5:
            matrix = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        else:
            spanning = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, ncols))]
            matrix = [
                [sum(rng.randint(-2, 2) * row[c] for row in spanning) for c in range(ncols)]
                for _ in range(nrows)
            ]
        if rng.random() < 0.5:
            x = [entry() for _ in range(ncols)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
        else:
            rhs = [entry() for _ in range(nrows)]
        expected = reference_solve(matrix, rhs)
        try:
            solution = linalg.solve(matrix, rhs)
        except ValueError as exc:
            outcomes[str(exc)] += 1
            assert str(exc) == expected, (matrix, rhs)
        else:
            outcomes["solved"] += 1
            assert solution == expected, (matrix, rhs)
            assert all(type(x) is Fraction for x in solution)
    assert len(outcomes) == 3 and min(outcomes.values()) >= 50, outcomes


def over_scale(rows, scale):
    """nullspace's integer rows divided by its scale, as Fraction vectors."""
    return [[Fraction(x, scale) for x in row] for row in rows]


def reference_kernel(matrix, ncols):
    """The kernel read off the Fraction Gauss-Jordan reference: one vector
    per free column, 1 there and minus that column of the pivot rows."""
    echelon, pivots = gauss_jordan_reference(matrix)
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -echelon[r][f]
        kernel.append(vec)
    return kernel


def test_nullspace_matches_fraction_gauss_jordan():
    """Seeded random int and Fraction matrices, built as combinations of
    fewer random rows, so most are rank deficient; some have zero rows or
    no rows at all."""
    rng = random.Random(20261021)
    shapes = {"no rows": 0, "zero row": 0, "rank deficient": 0}
    for _ in range(600):
        ncols = rng.randint(1, 7)
        as_fractions = rng.random() < 0.5

        def entry():
            if as_fractions:
                return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            return rng.randint(-9, 9)

        spanning = [[entry() for _ in range(ncols)] for _ in range(rng.randint(0, 4))]
        matrix = []
        for _ in range(rng.randint(0, 6)):
            weights = [rng.randint(-2, 2) for _ in spanning]
            matrix.append([sum(w * row[c] for w, row in zip(weights, spanning)) for c in range(ncols)])
        rows, scale = linalg.nullspace(matrix, ncols=ncols)
        assert over_scale(rows, scale) == reference_kernel(matrix, ncols), matrix
        assert all(type(x) is int for row in rows for x in row) and type(scale) is int
        shapes["no rows"] += not matrix
        shapes["zero row"] += any(not any(row) for row in matrix)
        shapes["rank deficient"] += ncols - len(rows) < min(len(matrix), ncols)
    assert min(shapes.values()) >= 50, shapes


@given(rational_matrices())
def test_nullspace_matches_fraction_gauss_jordan_on_mixed_rows(m):
    """Rows of ints and Fractions mixed, with repeated, rescaled and zero rows."""
    rows, scale = linalg.nullspace(m)
    assert over_scale(rows, scale) == reference_kernel(m, len(m[0]))
    assert all(type(x) is int for row in rows for x in row) and type(scale) is int


@given(rational_matrices())
def test_nullspace_rows_are_primitive_over_the_least_scale(m):
    """Row i holds the scale at free column i and 0 at the other free
    columns; the scale is positive and shares no factor with every entry,
    so it is the lcm of the denominators of the Fraction kernel."""
    ncols = len(m[0])
    rows, scale = linalg.nullspace(m)
    free = [c for c in range(ncols) if c not in gauss_jordan_reference(m)[1]]
    assert len(rows) == len(free)
    assert scale > 0 and math.gcd(scale, *itertools.chain.from_iterable(rows)) == 1
    for i, row in enumerate(rows):
        assert [row[f] for f in free] == [scale if j == i else 0 for j in range(len(free))]
    kernel = reference_kernel(m, ncols)
    assert scale == math.lcm(*(x.denominator for vec in kernel for x in vec))


@pytest.mark.parametrize(
    "values,expected",
    [
        ([3, -4, 0], ([3, -4, 0], 1)),
        ((x for x in (2, 5)), ([2, 5], 1)),
        ([], ([], 1)),
        ([True, 2], ([1, 2], 1)),
        ([1, Fraction(1, 2), "1/3"], ([6, 3, 2], 6)),
        ([Fraction(4, 2), 0.5], ([4, 1], 2)),
    ],
)
def test_over_common_denominator(values, expected):
    """Ints come back as they are over 1; anything else is scaled by the
    lcm of its denominators, bools and strings going through Fraction."""
    ints, scale = linalg.over_common_denominator(values)
    assert (ints, scale) == expected
    assert all(type(x) is int for x in ints) and type(scale) is int


def test_nullspace_known():
    """A repeated row leaves one free column, and its kernel row holds the
    scale, here 1, there."""
    rows, scale = linalg.nullspace([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
    assert (rows, scale) == ([[-2, 1]], 1)
    assert all(type(x) is int for x in rows[0])


def test_nullspace_known_scale():
    """A kernel vector (-1/2, 1) comes back as the row (-1, 2) over 2, and
    the pivot's sign does not reach the scale."""
    assert linalg.nullspace([[2, 1]]) == ([[-1, 2]], 2)
    assert linalg.nullspace([[-2, 1]]) == ([[1, 2]], 2)
    assert linalg.nullspace([[1, 0], [0, 3]]) == ([], 1)


@given(matrix_strategy())
def test_rank_nullity(m):
    ncols = len(m[0])
    kernel, _ = linalg.nullspace(m)
    assert len(gauss_jordan_reference(m)[1]) + len(kernel) == ncols
    for vec in kernel:
        for row in m:
            assert sum(a * x for a, x in zip(row, vec)) == 0


@given(matrix_strategy(max_rows=4, max_cols=4))
def test_solve_round_trip(m):
    """A @ x recovered exactly whenever the system determines x."""
    ncols = len(m[0])
    x = [Fraction(i - 1, i + 1) for i in range(ncols)]
    rhs = [sum(a * xi for a, xi in zip(row, x)) for row in m]
    if len(gauss_jordan_reference(m)[1]) < ncols:
        with pytest.raises(ValueError):
            linalg.solve(m, rhs)
    else:
        assert linalg.solve(m, rhs) == x


def test_solve_inconsistent():
    with pytest.raises(ValueError):
        linalg.solve([[Fraction(1)], [Fraction(1)]], [Fraction(1), Fraction(2)])


@pytest.mark.parametrize(
    "matrix, rhs",
    [
        ([[1], [2]], [1]),  # an equation without a right-hand side
        ([[1, 0], [0, 1]], [1, 2, 3]),  # a right-hand side without an equation
    ],
)
def test_solve_rejects_mismatched_rhs(matrix, rhs):
    with pytest.raises(ValueError, match="equations but"):
        linalg.solve(matrix, rhs)


def test_nullspace_empty_matrix_needs_ncols():
    with pytest.raises(ValueError):
        linalg.nullspace([])
    basis, scale = linalg.nullspace([], ncols=2)
    assert len(basis) == 2
    assert (basis, scale) == ([[1, 0], [0, 1]], 1)


@pytest.mark.parametrize(
    "matrix, ncols, message",
    [
        ([[1, 0, 0]], 2, "2 columns but row 0 has 3 entries"),  # used to drop the last column
        ([[1, 0]], 3, "3 columns but row 0 has 2 entries"),  # used to raise IndexError
        ([[1, 0], [1]], None, "2 columns but row 1 has 1 entries"),
        ([[1, 0], [1]], 2, "2 columns but row 1 has 1 entries"),
    ],
)
def test_nullspace_rejects_rows_of_the_wrong_length(matrix, ncols, message):
    with pytest.raises(ValueError, match=message):
        linalg.nullspace(matrix, ncols=ncols)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1, 0], [1]], "2 columns but row 1 has 1 entries"),
        ([[1], [0, 1]], "1 columns but row 1 has 2 entries"),
    ],
)
def test_ragged_matrix_is_refused(matrix, message):
    with pytest.raises(ValueError, match=message):
        linalg.nullspace(matrix)
    with pytest.raises(ValueError, match=message):
        linalg.solve(matrix, [1, 2])

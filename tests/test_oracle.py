import functools
import itertools
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from sphfn import linalg, oracle
from sphfn.characters import _check_weights, _mn, centralizer_order, mn_character, multiplicity, two_row
from sphfn.closed_form import (
    SphericalQuery,
    phi_2cycle,
    phi_2cycle_two_factor,
    phi_3cycle,
    phi_closed_form,
)
from sphfn.core import (
    BlockTriple,
    Partition,
    Permutation,
    binom,
    cycle_type,
    embed_cycle,
    partitions,
    young_subgroup_elements,
)
from sphfn.hahn import CoeffTable, admissible_grid
from sphfn.invariant_calculus import check_difference_equation
from sphfn.oracle import (
    OracleBoundExceeded,
    VkVector,
    _class_type_counts,
    _coset_type_counts,
    _enumerated_type_counts,
    _two_factor_type_counts,
    build_Vk_basis,
    coeff_table_from_invariant,
    invariants_in_Vk,
    phi_character_oracle,
    phi_module_oracle,
    project_to_invariant,
    two_factor_character_oracle,
)
from sphfn.verify import run_suite

CYCLES = [(1,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
PAIRS = [(1, 2), (1, 3), (2, 3)]


def small_triples(max_block):
    return [
        BlockTriple(*sizes)
        for sizes in itertools.product(range(1, max_block + 1), repeat=3)
    ]


def reference_invariant_tables(n, k):
    """Orbit-constant solutions of the raw divergence system, written out.

    Invariance under the block subgroup forces one unknown per orbit label;
    every (k-1)-subset then contributes one equation on those unknowns, with
    a 1 for each point j outside it, at the label of the subset plus j. The
    module oracle's orbit frame builds its rows from the faces of the
    k-subsets instead; this loop is the construction it replaced.
    """
    if k == 0:
        return (CoeffTable(n, 0, {(0, 0): Fraction(1)}),)
    labels = admissible_grid(n, k)
    label_index = {uv: j for j, uv in enumerate(labels)}
    point_blocks = [1] * n.n1 + [2] * n.n2 + [3] * n.n3
    seen = set()
    rows = []
    for smaller, blocks in zip(
        itertools.combinations(range(1, n.N + 1), k - 1),
        itertools.combinations(point_blocks, k - 1),
    ):
        u, v = blocks.count(1), blocks.count(2)
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


def basis_tables(n, k):
    """The module oracle's invariant basis of (n, k) as coefficient tables,
    read off the integer rows and scale its one seam delivers."""
    rows, scale = oracle._invariant_basis(n, k)
    labels = admissible_grid(n, k)
    return tuple(
        CoeffTable(n, k, {uv: Fraction(x, scale) for uv, x in zip(labels, row)}) for row in rows
    )


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


def reference_orbit_rows(n, k):
    """Orbit sizes and distinct divergence rows of (n, k), faces as tuples.

    The orbit frame's former loop: every (k-1)-subset of each k-subset is a
    face, and each face counts the labels of the subsets that contain it.
    """
    labels = admissible_grid(n, k)
    index = {uv: a for a, uv in enumerate(labels)}
    sizes = [0] * len(labels)
    faces = {}
    for subset, uv in point_labels(n, k):
        a = index[uv]
        sizes[a] += 1
        for face in itertools.combinations(subset, k - 1) if k else ():
            faces.setdefault(face, [0] * len(labels))[a] += 1
    return tuple(sizes), tuple(sorted({tuple(row) for row in faces.values()}))


def reference_faces_cancel(coords, k):
    """The former divergence check: integer coordinates summed at every
    (k-1)-tuple face of their subsets."""
    sums = {}
    for subset, x in coords.items():
        for face in itertools.combinations(subset, k - 1) if k else ():
            sums[face] = sums.get(face, 0) + x
    return not any(sums.values())


def reference_incidence(N, k):
    """Each k-subset's faces from combinations(subset, k - 1), looked up in
    the list of (k-1)-subsets, flat and in lexicographic order, and the
    number of (k-1)-subsets."""
    if k == 0:
        return [], 0
    faces = list(itertools.combinations(range(1, N + 1), k - 1))
    position = {face: p for p, face in enumerate(faces)}
    flat = [
        position[face]
        for subset in itertools.combinations(range(1, N + 1), k)
        for face in itertools.combinations(subset, k - 1)
    ]
    return flat, len(faces)


def raw_kernel(N, k):
    """The columns and kernel vectors of the raw divergence system of V_k:
    one equation per (k-1)-subset, a 1 at each k-subset containing it."""
    columns = list(itertools.combinations(range(1, N + 1), k))
    rows = [
        [int(set(smaller) <= set(subset)) for subset in columns]
        for smaller in (itertools.combinations(range(1, N + 1), k - 1) if k else ())
    ]
    return columns, linalg.nullspace(rows, ncols=len(columns))


def action_trace(basis, g):
    """Trace of the translation action of g in the given basis, by solving."""
    if not basis:
        return Fraction(0)
    N, k = basis[0].N, basis[0].k
    subsets = list(itertools.combinations(range(1, N + 1), k))
    matrix = [[vec.coord(subset) for vec in basis] for subset in subsets]
    trace = Fraction(0)
    for i, vec in enumerate(basis):
        rhs = [vec.apply(g).coord(subset) for subset in subsets]
        trace += linalg.solve(matrix, rhs)[i]
    return trace


def reference_block_options(m, is_marked):
    """A block's class options, built inline as _class_type_counts once did."""
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
    return options


def reference_class_type_counts(blocks):
    """The class count with inline options and a fresh Partition per entry:
    the former _class_type_counts body, then the former _histogram."""
    states = Counter({(0, ()): 1})
    for m, is_marked in blocks:
        options = reference_block_options(m, is_marked)
        grown = Counter()
        for (merged, rest), count in states.items():
            for L, parts, ways in options:
                grown[merged + L, tuple(sorted(rest + parts, reverse=True))] += count * ways
        states = grown
    counts = Counter()
    for (merged, rest), count in states.items():
        parts = rest + (merged,) if merged else rest
        counts[tuple(sorted(parts, reverse=True))] += count
    histogram = tuple((Partition(parts), count) for parts, count in sorted(counts.items()))
    if len({mu.weight for mu, _ in histogram}) != 1:
        raise ValueError("cycle types of one coset differ in weight")
    return histogram


def reference_coset_average(shape, histogram, order):
    """The former _coset_average: the character summed entry by entry, every call."""
    _check_weights(shape, histogram[0][0])
    lam = shape.parts
    total = 0
    for mu, count in histogram:
        total += count * _mn(lam, mu.parts)
    return Fraction(total, order)


def clear_character_caches():
    for cache in (
        oracle._block_options,
        oracle._partition,
        _class_type_counts,
        _coset_type_counts,
        _two_factor_type_counts,
    ):
        cache.cache_clear()


class TestCharacterOracle:
    def test_smallest_case(self):
        n = BlockTriple(1, 1, 1)
        assert phi_character_oracle(n, 1, embed_cycle((1, 2, 3), n)) == -1
        assert phi_character_oracle(n, 1, embed_cycle((1, 2), n)) == 0
        assert phi_character_oracle(n, 1, embed_cycle((1,), n)) == 2

    def test_doubled_blocks(self):
        n = BlockTriple(2, 2, 2)
        assert phi_character_oracle(n, 1, embed_cycle((1, 2), n)) == 1
        assert phi_character_oracle(n, 1, embed_cycle((1, 2, 3), n)) == Fraction(1, 2)

    def test_matches_closed_forms(self):
        for n in small_triples(2):
            for k in range(n.N // 2 + 1):
                for cycle in CYCLES:
                    expected = phi_closed_form(SphericalQuery(n, k, cycle))
                    observed = phi_character_oracle(n, k, embed_cycle(cycle, n))
                    assert observed == expected, (n, k, cycle)

    def test_bound_refusal(self):
        n = BlockTriple(3, 2, 2)
        with pytest.raises(OracleBoundExceeded):
            phi_character_oracle(n, 1, embed_cycle((1, 2), n), bound=10)

    def test_refusal_message(self):
        with pytest.raises(OracleBoundExceeded) as excinfo:
            oracle._check_order((3, 2, 2), 10)
        assert str(excinfo.value) == "subgroup order 24 exceeds bound 10 for n = (3, 2, 2)"
        assert oracle._check_order((3, 2, 2), 24) == 24

    def test_refusal_stops_multiplying(self, monkeypatch):
        """The product stops at the first block past the bound, and a block
        of m points with 2^(m-1) past the bound is never factored."""
        taken = []
        factorial = math.factorial
        monkeypatch.setattr(math, "factorial", lambda m: taken.append(m) or factorial(m))
        for sizes, bound in [((100, 300, 300), 10**100), ((2, 10**7, 10**7), 10**6)]:
            with pytest.raises(OracleBoundExceeded):
                oracle._check_order(sizes, bound)
        assert taken == [100, 2]
        assert oracle._check_order((20, 1, 1), factorial(20)) == factorial(20)

    def test_refusal_past_the_digit_limit(self):
        """Blocks of 10^7 points: the refusal names the factorials, past the
        digit limit; with the interpreter's limit off, 4300 digits cap it."""
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("the interpreter has no int-to-str digit limit")
        saved = sys.get_int_max_str_digits()
        try:
            for limit in (4300, 0):
                sys.set_int_max_str_digits(limit)
                with pytest.raises(OracleBoundExceeded) as excinfo:
                    oracle._check_order((10**7,) * 3, oracle.DEFAULT_BOUND)
                assert str(excinfo.value) == (
                    "subgroup order 10000000! 10000000! 10000000! exceeds bound 1000000"
                    " for n = (10000000, 10000000, 10000000)"
                )
        finally:
            sys.set_int_max_str_digits(saved)

    def test_rejects_mismatched_permutation(self):
        with pytest.raises(ValueError):
            phi_character_oracle(BlockTriple(1, 1, 1), 1, Permutation.identity(4))

    def test_matches_closed_forms_to_block_six(self):
        for n in small_triples(6):
            for k in range(n.N // 2 + 1):
                for pair in ((1, 2), (1, 3), (2, 3)):
                    observed = phi_character_oracle(
                        n, k, embed_cycle(pair, n), bound=math.factorial(6) ** 3
                    )
                    assert observed == phi_2cycle(n, k, pair), (n, k, pair)
                observed = phi_character_oracle(
                    n, k, embed_cycle((1, 2, 3), n), bound=math.factorial(6) ** 3
                )
                assert observed == phi_3cycle(n, k), (n, k)

    def test_matches_closed_forms_to_block_eight(self):
        bound = math.factorial(8) ** 3
        compared = 0
        for n in small_triples(8):
            cycles = [(pair, embed_cycle(pair, n)) for pair in PAIRS]
            three = embed_cycle((1, 2, 3), n)
            for k in range(n.N // 2 + 1):
                for pair, g in cycles:
                    assert phi_character_oracle(n, k, g, bound) == phi_2cycle(n, k, pair), (
                        n,
                        k,
                        pair,
                    )
                assert phi_character_oracle(n, k, three, bound) == phi_3cycle(n, k), (n, k)
                compared += 4
        assert compared == 15360

    def test_coset_inside_the_subgroup(self):
        """A transposition inside block 1 lies in the subgroup, so its coset is
        the subgroup itself and the average is the multiplicity."""
        for n in small_triples(3):
            if n.n1 < 2:
                continue
            g = Permutation.from_cycle([1, 2], n.N)
            for k in range(n.N // 2 + 1):
                assert phi_character_oracle(n, k, g) == multiplicity(n, k), (n, k)


class TestClassCounting:
    """The class-counted histogram against enumerating the coset."""

    def test_embedded_cycles(self):
        for n in small_triples(4):
            for cycle in CYCLES:
                g = embed_cycle(cycle, n).images
                assert _coset_type_counts(n.sizes, g) == _enumerated_type_counts(n.sizes, g), (
                    n,
                    cycle,
                )

    def test_random_permutations(self):
        """Cycles through one arbitrary point per block are counted; shuffles
        mostly move two points of one block and take the enumeration."""
        rng = random.Random(20251018)
        for _ in range(100):
            n = BlockTriple(*(rng.randint(1, 4) for _ in range(3)))
            blocks = rng.sample((1, 2, 3), rng.randint(2, 3))
            points = [rng.choice(n.interval(b)) for b in blocks]
            shuffled = rng.sample(range(1, n.N + 1), n.N)
            for g in (Permutation.from_cycle(points, n.N).images, tuple(shuffled)):
                assert _coset_type_counts(n.sizes, g) == _enumerated_type_counts(n.sizes, g), (
                    n,
                    g,
                )

    def test_two_blocks(self):
        for n1 in range(1, 8):
            for n2 in range(1, 9 - n1):
                g = Permutation.from_cycle([1, n1 + 1], n1 + n2).images
                assert _two_factor_type_counts(n1, n2) == _enumerated_type_counts((n1, n2), g), (
                    n1,
                    n2,
                )

    def test_block_order_is_irrelevant(self):
        """Every order of one multiset of (size, marked) blocks counts the
        same histogram, the one cached under the sorted key."""
        count = _class_type_counts.__wrapped__
        patterns = [marked for marked in itertools.product((False, True), repeat=3) if sum(marked) >= 2]
        for sizes in itertools.combinations_with_replacement(range(1, 6), 3):
            for marked in patterns:
                blocks = list(zip(sizes, marked))
                histograms = {count(order) for order in itertools.permutations(blocks)}
                assert histograms == {_class_type_counts(tuple(sorted(blocks)))}, blocks

    def test_one_histogram_per_block_multiset(self):
        for cache in (_class_type_counts, _coset_type_counts):
            cache.cache_clear()
        for suite in ("twocycle", "threecycle"):
            assert run_suite(suite, 4).passed
        keys = {
            tuple(sorted((m, b in cycle) for b, m in enumerate(n.sizes, 1)))
            for n in small_triples(4)
            for cycle in PAIRS + [(1, 2, 3)]
        }
        assert _class_type_counts.cache_info().currsize == len(keys) == 60

    def test_histogram_refuses_mixed_weights(self):
        with pytest.raises(ValueError, match="differ in weight"):
            oracle._histogram(Counter({(2, 1): 1, (2,): 1}))

    def test_average_refuses_a_shape_of_another_weight(self):
        with pytest.raises(ValueError, match="weights differ"):
            oracle._coset_average(two_row(6, 1), _two_factor_type_counts(2, 3), 12)

    def test_histograms_hold_partitions(self):
        """Every counting path keys its histogram by Partitions of N, in parts order."""
        n = BlockTriple(2, 3, 2)
        histograms = [(_two_factor_type_counts(2, 3), 5)]
        for cycle in CYCLES:
            blocks = tuple(sorted((m, b in cycle) for b, m in enumerate(n.sizes, 1)))
            g = embed_cycle(cycle, n).images
            histograms.append((_class_type_counts(blocks), n.N))
            histograms.append((_enumerated_type_counts(n.sizes, g), n.N))
        for histogram, N in histograms:
            assert all(isinstance(mu, Partition) and mu.weight == N for mu, _ in histogram)
            keys = [mu.parts for mu, _ in histogram]
            assert keys == sorted(set(keys))


class TestCharacterOracleCaches:
    """The option, Partition and character-sum caches against the references."""

    @staticmethod
    def reference_values(max_block):
        """(n, cycle, k) -> (reference histogram, reference average)."""
        histograms, averages, values = {}, {}, {}
        for n in small_triples(max_block):
            order = math.prod(map(math.factorial, n.sizes))
            for cycle in CYCLES:
                key = tuple(sorted((m, b in cycle) for b, m in enumerate(n.sizes, 1)))
                if key not in histograms:
                    histograms[key] = reference_class_type_counts(key)
                for k in range(n.N // 2 + 1):
                    if (key, k) not in averages:
                        averages[key, k] = reference_coset_average(two_row(n.N, k), histograms[key], 1)
                    values[n, cycle, k] = histograms[key], averages[key, k] / order
        return values

    @staticmethod
    def assert_matches(values, order):
        bound = math.factorial(6) ** 3
        for n, cycle, k in order:
            histogram, average = values[n, cycle, k]
            g = embed_cycle(cycle, n)
            assert _coset_type_counts(n.sizes, g.images) == histogram, (n, cycle)
            assert phi_character_oracle(n, k, g, bound) == average, (n, cycle, k)

    def test_matches_references_to_block_six(self):
        values = self.reference_values(6)
        forward = list(values)
        clear_character_caches()
        self.assert_matches(values, forward)  # caches filled as the sweep goes
        self.assert_matches(values, forward)  # every cache warm
        clear_character_caches()
        self.assert_matches(values, forward[::-1])  # filled in another order
        self.assert_matches(values, forward)

    def test_block_options_match_the_inline_lists(self):
        oracle._block_options.cache_clear()
        for m in range(1, 9):
            for marked in (False, True):
                assert list(oracle._block_options(m, marked)) == reference_block_options(m, marked)
        assert oracle._block_options.cache_info().currsize == 16

    def test_two_factor_matches_references(self):
        clear_character_caches()
        for n1 in range(1, 8):
            for n2 in range(1, 9 - n1):
                histogram = reference_class_type_counts(tuple(sorted(((n1, True), (n2, True)))))
                assert _two_factor_type_counts(n1, n2) == histogram, (n1, n2)
                order = math.factorial(n1) * math.factorial(n2)
                for k in range(min(n1, n2) + 1):
                    expected = reference_coset_average(two_row(n1 + n2, k), histogram, order)
                    assert two_factor_character_oracle(n1, n2, k) == expected, (n1, n2, k)

    def test_sums_are_kept_per_shape(self):
        clear_character_caches()
        histogram = _two_factor_type_counts(3, 3)
        averages = [two_factor_character_oracle(3, 3, k) for k in range(4)]
        assert _two_factor_type_counts(3, 3) is histogram
        assert histogram.sums == {
            two_row(6, k).parts: average * 36 for k, average in enumerate(averages)
        }
        reference = reference_class_type_counts(((3, True), (3, True)))
        assert averages == [reference_coset_average(two_row(6, k), reference, 36) for k in range(4)]

    def test_one_partition_per_cycle_type(self):
        clear_character_caches()
        first = oracle._histogram(Counter({(3, 1): 2, (2, 2): 1}))
        second = oracle._histogram(Counter({(3, 1): 4, (4,): 1}))
        assert [mu.parts for mu, _ in first] == [(2, 2), (3, 1)]
        assert first[1][0] is second[0][0] is oracle._partition((3, 1))
        seen = {}
        for n in small_triples(4):
            for cycle in CYCLES:
                for mu, _ in _coset_type_counts(n.sizes, embed_cycle(cycle, n).images):
                    assert seen.setdefault(mu.parts, mu) is mu, mu

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((1, 3), "partition parts must be weakly decreasing, got (1, 3)"),
            ((2, 0), "partition parts must be positive, got (2, 0)"),
        ],
    )
    def test_bad_parts_still_raise(self, parts, message):
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                oracle._partition(parts)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                oracle._histogram(Counter({parts: 1}))


class TestTwoFactorOracle:
    def test_example(self):
        assert two_factor_character_oracle(3, 2, 1) == Fraction(1, 6)

    def test_matches_closed_form(self):
        for n1 in range(1, 8):
            for n2 in range(1, 9 - n1):
                for k in range(min(n1, n2) + 1):
                    assert two_factor_character_oracle(n1, n2, k) == (
                        phi_2cycle_two_factor(n1, n2, k)
                    ), (n1, n2, k)

    def test_matches_closed_form_at_every_k(self):
        """Past min(n1, n2) there is no invariant, and both read 0."""
        for N in range(2, 11):
            for n1 in range(1, N):
                for k in range(N // 2 + 1):
                    assert two_factor_character_oracle(n1, N - n1, k) == (
                        phi_2cycle_two_factor(n1, N - n1, k)
                    ), (n1, N - n1, k)

    def test_matches_closed_form_to_sixteen_points(self):
        compared = 0
        for N in range(2, 17):
            for n1 in range(1, N):
                for k in range(min(n1, N - n1) + 1):
                    observed = two_factor_character_oracle(n1, N - n1, k, bound=math.factorial(15))
                    assert observed == phi_2cycle_two_factor(n1, N - n1, k), (n1, N - n1, k)
                    compared += 1
        assert compared == 492

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundExceeded):
            two_factor_character_oracle(4, 3, 2, bound=100)

    @pytest.mark.parametrize("n1,n2", [(0, 3), (3, 0)])
    def test_rejects_empty_block(self, n1, n2):
        with pytest.raises(ValueError, match=rf"\({n1}, {n2}\)"):
            two_factor_character_oracle(n1, n2, 0, bound=0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            two_factor_character_oracle(2, 2, 3)
        with pytest.raises(ValueError):
            two_factor_character_oracle(2, 2, -1)


class TestVkVector:
    def test_normalizes_and_drops_zeros(self):
        vec = VkVector(4, 2, {(3, 1): 1, (4, 1): -1, (3, 2): -1, (4, 2): 1, (1, 2): 0})
        assert vec.coord((1, 3)) == 1
        assert vec.coord((4, 2)) == 1
        assert vec.coord((1, 2)) == 0
        assert list(vec.items()) == [
            ((1, 3), Fraction(1)),
            ((1, 4), Fraction(-1)),
            ((2, 3), Fraction(-1)),
            ((2, 4), Fraction(1)),
        ]

    @pytest.mark.parametrize(
        "coords", [{(1,): 1, (2,): 1}, {(1, 2): 1}, {(0,): 1}, {(5,): 1}, {(1, 1): 1}]
    )
    def test_rejects_bad_coordinates(self, coords):
        with pytest.raises(ValueError):
            VkVector(4, 1, coords)

    @pytest.mark.parametrize(
        "coords", [{(1.5,): 1, (2,): -1}, {(True,): 1, (2,): -1}, {("a",): 1, (2,): -1}]
    )
    def test_rejects_points_that_are_not_ints(self, coords):
        (subset,) = [key for key in coords if key != (2,)]
        with pytest.raises(ValueError) as excinfo:
            VkVector(3, 1, coords)
        assert str(excinfo.value) == f"not a k-subset of [1, 3]: {subset}"

    @pytest.mark.parametrize(
        "N, k, coords, message",
        [
            (4, 1, {(1, 2): 1}, "not a k-subset of [1, 4]: (1, 2)"),  # wrong length
            (3, 0, {(1,): 1}, "not a k-subset of [1, 3]: (1,)"),
            (4, 2, {(1, 1): 1}, "not a k-subset of [1, 4]: (1, 1)"),  # repeated point
            (4, 1, {(0,): 1}, "not a k-subset of [1, 4]: (0,)"),  # out of range
            (4, 2, {(5, 3): 1}, "not a k-subset of [1, 4]: (5, 3)"),
            (4, 2, {(1, 3): 1, (3, 1): 0}, "subset (1, 3) given twice"),
            (4, 2, {(2, 4): 1, (4, 2): 1, (0, 1): 1}, "subset (2, 4) given twice"),
        ],
    )
    def test_bad_subset_messages(self, N, k, coords, message):
        """Every refusal names the first bad key."""
        with pytest.raises(ValueError) as excinfo:
            VkVector(N, k, coords)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "N, k, message",
        [
            (4, 5, "k must be an int in [0, 4], got 5"),
            (4, -1, "k must be an int in [0, 4], got -1"),
            (4, 1.0, "k must be an int in [0, 4], got 1.0"),
            (4, True, "k must be an int in [0, 4], got True"),
            (0, 1, "k must be an int in [0, 0], got 1"),
        ],
    )
    def test_rejects_k_outside_the_points(self, N, k, message):
        """The subset rule checks k first, with no key given or with one."""
        for coords in ({}, {(): 1}):
            with pytest.raises(ValueError) as excinfo:
                VkVector(N, k, coords)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "N, k, coords, message",
        [
            (4.5, 1, {(1,): 1, (2,): -1}, "N must be an int >= 0, got 4.5"),
            (True, 0, {(): 1}, "N must be an int >= 0, got True"),
            ("4", 1, {}, "N must be an int >= 0, got '4'"),
            (-1, 0, {}, "N must be an int >= 0, got -1"),
        ],
    )
    def test_rejects_bad_n_before_k(self, N, k, coords, message):
        """The subset rule checks N before k and the keys."""
        with pytest.raises(ValueError) as excinfo:
            VkVector(N, k, coords)
        assert str(excinfo.value) == message

    def test_accepts_every_k_from_zero_to_n(self):
        assert VkVector(4, 0, {}).k == 0
        assert VkVector(4, 4, {}).k == 4
        assert VkVector(0, 0, {(): 1}).coord(()) == 1

    def test_face_sums_match_tuple_faces(self):
        """The bitmask face sums and the rows of the reference incidence
        against summing over (k-1)-tuples, on seeded random integer vectors
        with N <= 8: divergence-free combinations of the basis, the same with
        one coordinate bumped, and arbitrary ones."""
        rng = random.Random(20261020)
        outcomes = Counter()
        for _ in range(300):
            N = rng.randint(1, 8)
            k = rng.randint(0, N // 2)
            columns = list(itertools.combinations(range(1, N + 1), k))
            masks = [sum(1 << p for p in subset) for subset in columns]
            assert oracle._subset_keys(N, k, columns) == (columns, masks)
            free = [0] * len(columns)
            for vec in build_Vk_basis(N, k):
                weight = rng.randint(-3, 3)
                free = [x + weight * vec.coord(subset) for x, subset in zip(free, columns)]
            free, _ = linalg.over_common_denominator(free)
            bumped = list(free)
            bumped[rng.randrange(len(columns))] += rng.choice([-2, -1, 1, 2])
            arbitrary = [rng.choice([0, 0, rng.randint(-4, 4)]) for _ in columns]
            for values in (free, bumped, arbitrary):
                coords = dict(zip(columns, values))
                expected = reference_faces_cancel(coords, k)
                by_mask = oracle._faces_cancel(oracle._mask_faces(columns, masks), values)
                flat, count = reference_incidence(N, k)
                rows = [[0] * len(columns) for _ in range(count)]
                # Subset j's k faces sit at flat[j k : (j + 1) k].
                for position, f in enumerate(flat):
                    rows[f][position // k] = 1
                by_incidence = oracle._rows_cancel(rows, values)
                assert by_mask == by_incidence == expected, (N, k, values)
                outcomes[expected] += 1
                if expected:
                    VkVector(N, k, coords)
                else:
                    with pytest.raises(ValueError, match="divergence"):
                        VkVector(N, k, coords)
            assert reference_faces_cancel(dict(zip(columns, free)), k)
        assert outcomes[True] > 300 and outcomes[False] > 200

    def test_rejects_repeated_subset(self):
        coords = {(1, 3): 1, (1, 4): -1, (2, 3): -1, (2, 4): 1, (3, 1): 0}
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            VkVector(4, 2, coords)

    def test_rejects_divergence_violation(self):
        with pytest.raises(ValueError):
            VkVector(3, 1, {(1,): 1})
        with pytest.raises(ValueError):
            VkVector(4, 2, {(1, 2): 1, (3, 4): -1})

    def test_apply_transposition(self):
        vec = VkVector(4, 1, {(1,): 1, (2,): -1})
        g = Permutation.from_cycle([1, 2], 4)
        assert vec.apply(g) == VkVector(4, 1, {(1,): -1, (2,): 1})

    def test_apply_rejects_wrong_size(self):
        vec = VkVector(4, 1, {(1,): 1, (2,): -1})
        with pytest.raises(ValueError):
            vec.apply(Permutation.identity(5))


class TestBasis:
    @pytest.mark.parametrize("N,k,dim", [(3, 1, 2), (4, 2, 2), (6, 2, 9), (5, 0, 1)])
    def test_dimensions(self, N, k, dim):
        assert len(build_Vk_basis(N, k)) == dim

    def test_dimension_formula(self):
        for N in range(1, 7):
            for k in range(N // 2 + 1):
                expected = binom(N, k) - binom(N, k - 1)
                assert len(build_Vk_basis(N, k)) == expected, (N, k)

    def test_vectors_match_the_constructor(self):
        """Each basis vector equals VkVector built from its kernel vector."""
        for N in range(1, 7):
            for k in range(N // 2 + 1):
                columns, kernel = raw_kernel(N, k)
                expected = [VkVector(N, k, dict(zip(columns, vec))) for vec in kernel]
                assert build_Vk_basis(N, k) == expected, (N, k)

    def test_degree_zero_vector(self):
        (vec,) = build_Vk_basis(5, 0)
        assert vec.coord(()) == 1

    def test_basis_is_independent(self):
        basis = build_Vk_basis(5, 2)
        subsets = list(itertools.combinations(range(1, 6), 2))
        matrix = [[vec.coord(subset) for vec in basis] for subset in subsets]
        assert linalg.rank(matrix) == len(basis)

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundExceeded):
            build_Vk_basis(20, 10, bound=100)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            build_Vk_basis(3, 2)

    @pytest.mark.parametrize("N", [4, 5])
    def test_action_trace_is_two_row_character(self, N):
        """The divergence-free span really carries the two-row module."""
        moves = [
            Permutation.identity(N),
            Permutation.from_cycle([1, 2], N),
            Permutation.from_cycle([1, 2, 3], N),
            Permutation.from_cycle(list(range(1, N + 1)), N),
        ]
        for k in range(N // 2 + 1):
            basis = build_Vk_basis(N, k)
            shape = two_row(N, k)
            for g in moves:
                expected = mn_character(shape, cycle_type(g))
                assert action_trace(basis, g) == expected, (N, k, g)


class TestInvariants:
    def test_count_equals_multiplicity(self):
        for n in small_triples(3):
            for k in range(n.N // 2 + 1):
                assert len(invariants_in_Vk(n, k)) == multiplicity(n, k), (n, k)

    def test_fixed_by_the_subgroup(self):
        for n in [BlockTriple(2, 1, 2), BlockTriple(1, 2, 2)]:
            for k in range(n.N // 2 + 1):
                for vec in invariants_in_Vk(n, k):
                    for h in young_subgroup_elements(n):
                        assert vec.apply(h) == vec, (n, k)

    def test_tables_satisfy_difference_equation(self):
        for n in small_triples(2):
            for k in range(n.N // 2 + 1):
                for vec in invariants_in_Vk(n, k):
                    table = coeff_table_from_invariant(vec, n)
                    assert check_difference_equation(table), (n, k)

    def test_vectors_match_the_constructor(self):
        """At blocks <= 4, each invariant vector equals VkVector built from
        its table's value at every subset, item for item."""
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                labelled = point_labels(n, k)
                tables = basis_tables(n, k)
                vectors = invariants_in_Vk(n, k)
                assert len(vectors) == len(tables), (n, k)
                for vec, table in zip(vectors, tables):
                    expected = VkVector(n.N, k, {subset: table.get(*uv) for subset, uv in labelled})
                    assert vec == expected, (n, k)
                    assert list(vec.items()) == list(expected.items())
                    assert all(type(x) is Fraction for _, x in vec.items())

    def test_every_vector_handed_out_passes_the_constructor(self):
        """At blocks <= 4, every invariant vector, rebuilt from its own items
        through the constructor's bitmask face check, equals itself; the
        subsets of one orbit share one Fraction object."""
        compared = 0
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                labels = oracle._orbit_frame(n, k).labels
                for vec in invariants_in_Vk(n, k):
                    assert VkVector(n.N, k, dict(vec.items())) == vec, (n, k)
                    assert len({id(x) for _, x in vec.items()}) <= len(labels), (n, k)
                    compared += 1
        assert compared == 536

    def test_row_check_matches_tuple_faces(self):
        """_from_tables checks an orbit-constant table against the frame's
        divergence rows; at blocks <= 3, on seeded tables in the basis's
        span, the same bumped at one label, and arbitrary, it accepts
        exactly the tables whose vectors cancel at every tuple face."""
        rng = random.Random(20261021)
        outcomes = Counter()
        for n in small_triples(3):
            for k in range(n.N // 2 + 1):
                frame = oracle._orbit_frame(n, k)
                rows, _ = oracle._invariant_basis(n, k)
                subsets = list(itertools.combinations(range(1, n.N + 1), k))
                width = len(frame.labels)
                in_span = [0] * width
                for row in rows:
                    weight = rng.randint(-3, 3)
                    in_span = [x + weight * y for x, y in zip(in_span, row)]
                bumped = list(in_span)
                bumped[rng.randrange(width)] += rng.choice([-2, -1, 1, 2])
                arbitrary = [rng.choice([0, rng.randint(-4, 4)]) for _ in range(width)]
                for table in (in_span, bumped, arbitrary):
                    scale = rng.choice([1, 2, 6])
                    values = [Fraction(table[a], scale) for a in frame.orbit]
                    expected = reference_faces_cancel(
                        dict(zip(subsets, (table[a] for a in frame.orbit))), k
                    )
                    assert oracle._rows_cancel(frame.divergence, table) == expected, (n, k)
                    outcomes[expected] += 1
                    build = functools.partial(
                        VkVector._from_tables, n.N, k, frame.orbit, frame.divergence, [table], scale
                    )
                    if expected:
                        assert build() == [VkVector(n.N, k, dict(zip(subsets, values)))], (n, k)
                    else:
                        with pytest.raises(ValueError, match="divergence"):
                            build()
        assert outcomes[True] > 100 and outcomes[False] > 50, outcomes

    def test_orbit_rows_match_tuple_faces(self):
        """The frame's representative rows against the tuple-face loop: the
        same orbit sizes and distinct rows at every (n, k), blocks <= 4."""
        compared = 0
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                frame = oracle._orbit_frame(n, k)
                assert (frame.sizes, frame.divergence) == reference_orbit_rows(n, k), (n, k)
                compared += 1
        assert compared == 288

    def test_orbit_rows_match_tuple_faces_past_blocks_4(self):
        """The same at a seeded sample of 150 of the 1,008 (n, k) whose
        largest block is 5 or 6, the range the blocks <= 6 diffeq sweep
        reaches; every frame is built afresh."""
        pairs = [
            (n, k) for n in small_triples(6) if max(n.sizes) >= 5 for k in range(n.N // 2 + 1)
        ]
        assert len(pairs) == 1008
        sample = random.Random(20261020).sample(pairs, 150)
        assert max(n.N for n, _ in sample) == 18 and sum(k >= 2 for _, k in sample) >= 100
        for n, k in sample:
            frame = oracle._orbit_frame.__wrapped__(n, k)
            assert (frame.sizes, frame.divergence) == reference_orbit_rows(n, k), (n, k)

    def test_orbit_labels_match_point_labels(self):
        """The frame's orbits, read off summed label codes, against counting
        each subset's points block by block, at every (n, k) with blocks <= 4."""
        compared = 0
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                expected = [uv for _, uv in point_labels(n, k)]
                frame = oracle._orbit_frame(n, k)
                assert [frame.labels[a] for a in frame.orbit] == expected, (n, k)
                compared += 1
        assert compared == 288

    def test_table_rejects_non_constant_vector(self):
        n = BlockTriple(2, 2, 2)
        vec = VkVector(6, 1, {(1,): 1, (2,): -1})
        with pytest.raises(ValueError):
            coeff_table_from_invariant(vec, n)

    def test_non_constant_refusal_names_the_first_break(self):
        """Two orbits are not constant: (1, 1) appears first, at (1, 3), but
        (1, 0) breaks first, at (1, 6) before (2, 3), and is the one named."""
        n = BlockTriple(2, 2, 2)
        vec = VkVector(6, 2, {(1, 2): 1, (1, 5): -1, (2, 3): -1, (3, 5): 1})
        with pytest.raises(ValueError) as excinfo:
            coeff_table_from_invariant(vec, n)
        assert str(excinfo.value) == "vector is not constant on the orbit (1, 0)"

    def test_table_rejects_wrong_size(self):
        vec = VkVector(6, 1, {(1,): 1, (2,): -1})
        with pytest.raises(ValueError, match="vector lives on 6 points, blocks cover 4"):
            coeff_table_from_invariant(vec, BlockTriple(1, 1, 2))

    def test_projection_kills_mean_zero_orbits(self):
        n = BlockTriple(2, 2, 2)
        vec = VkVector(6, 1, {(1,): 1, (2,): -1})
        assert project_to_invariant(vec, n) == VkVector(6, 1, {})

    def test_projection_is_idempotent(self):
        n = BlockTriple(2, 2, 2)
        for vec in build_Vk_basis(6, 2):
            once = project_to_invariant(vec, n)
            assert project_to_invariant(once, n) == once

    def test_projection_fixes_invariants(self):
        n = BlockTriple(2, 1, 2)
        for k in range(n.N // 2 + 1):
            for vec in invariants_in_Vk(n, k):
                assert project_to_invariant(vec, n) == vec

    def test_projection_matches_the_constructor(self):
        """The projection equals VkVector built from the orbit means."""
        cases = [(BlockTriple(2, 2, 2), vec) for vec in build_Vk_basis(6, 2)]
        n = BlockTriple(2, 1, 2)
        cases += [(n, vec) for k in range(n.N // 2 + 1) for vec in invariants_in_Vk(n, k)]
        cases.append((BlockTriple(2, 2, 2), VkVector(6, 1, {(1,): 1, (2,): -1})))
        for n, vec in cases:
            labelled = point_labels(n, vec.k)
            orbits = {}
            for subset, uv in labelled:
                orbits.setdefault(uv, []).append(vec.coord(subset))
            means = {uv: sum(values) / len(values) for uv, values in orbits.items()}
            expected = VkVector(n.N, vec.k, {subset: means[uv] for subset, uv in labelled})
            assert project_to_invariant(vec, n) == expected, (n, vec)

    def test_projection_rejects_wrong_size(self):
        vec = VkVector(4, 1, {(1,): 1, (2,): -1})
        with pytest.raises(ValueError):
            project_to_invariant(vec, BlockTriple(1, 1, 1))

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundExceeded):
            invariants_in_Vk(BlockTriple(7, 7, 6), 10, bound=1000)

    @pytest.mark.parametrize("walk", [project_to_invariant, coeff_table_from_invariant])
    def test_walks_refuse_past_the_bound_before_walking(self, walk, monkeypatch):
        """Both walks check k and C(N, k) before they build an orbit frame."""
        def no_walk(n, k):
            raise AssertionError("walked")

        monkeypatch.setattr(oracle, "_orbit_frame", no_walk)
        with pytest.raises(OracleBoundExceeded) as excinfo:
            walk(VkVector(20, 10, {}), BlockTriple(7, 7, 6), bound=1000)
        assert str(excinfo.value) == "monomial space size C(20,10) = 184756 exceeds bound 1000"
        with pytest.raises(OracleBoundExceeded) as excinfo:
            walk(VkVector(24, 12, {}), BlockTriple(8, 8, 8))
        assert str(excinfo.value) == "monomial space size C(24,12) = 2704156 exceeds bound 1000000"
        with pytest.raises(ValueError) as excinfo:
            walk(VkVector(4, 3, {}), BlockTriple(2, 1, 1))
        assert str(excinfo.value) == "need 0 <= 2k <= N, got k = 3, N = 4"

    def test_reads_do_not_depend_on_the_frame_cache(self, monkeypatch):
        """coeff_table_from_invariant and project_to_invariant at blocks <= 3,
        k = 0 included, on each invariant vector and on one vector that is
        not invariant: a cleared, a warm and a one-entry orbit frame cache
        give the same tables and projections."""
        cache = oracle._orbit_frame
        cases = []
        for n in small_triples(3):
            for k in range(n.N // 2 + 1):
                cases += [(n, vec) for vec in invariants_in_Vk(n, k)]
            cases.append((n, VkVector(n.N, 1, {(1,): 1, (n.N,): -1})))
        assert any(vec.k == 0 for _, vec in cases)

        def reads(n, vec):
            projected = project_to_invariant(vec, n)
            try:
                table = coeff_table_from_invariant(vec, n)
            except ValueError as error:
                table = str(error)
            return table, projected

        cleared = {}
        for i, case in enumerate(cases):
            cache.cache_clear()
            cleared[i] = reads(*case)
        assert {i: reads(*case) for i, case in enumerate(cases)} == cleared
        assert cache.cache_info().hits > 0
        assert any(isinstance(table, str) for table, _ in cleared.values())
        assert any(isinstance(table, CoeffTable) for table, _ in cleared.values())

        # A one-entry cache, swept block triple by block triple, so that an
        # (n, k) comes back after others have evicted it.
        evicting = functools.lru_cache(maxsize=1)(cache.__wrapped__)
        monkeypatch.setattr(oracle, "_orbit_frame", evicting)
        overfilled = {i: reads(*case) for i, case in enumerate(cases)}
        info = evicting.cache_info()
        assert info.currsize == info.maxsize
        assert info.misses > len({(n, vec.k) for n, vec in cases})
        assert overfilled == cleared

    @pytest.mark.parametrize("walk", [project_to_invariant, coeff_table_from_invariant])
    def test_walks_run_at_the_bound(self, walk):
        n = BlockTriple(2, 1, 1)
        for vec in invariants_in_Vk(n, 1):
            assert walk(vec, n, bound=binom(4, 1)) == walk(vec, n)


class TestModuleOracle:
    def test_smallest_case(self):
        n = BlockTriple(1, 1, 1)
        assert phi_module_oracle(n, 1, embed_cycle((1, 2, 3), n)) == -1

    def test_zero_multiplicity(self):
        n = BlockTriple(1, 1, 4)
        assert phi_module_oracle(n, 3, embed_cycle((1, 2, 3), n)) == 0

    def test_matches_character_oracle(self):
        for n in small_triples(2):
            for k in range(n.N // 2 + 1):
                for cycle in CYCLES:
                    g = embed_cycle(cycle, n)
                    assert phi_module_oracle(n, k, g) == phi_character_oracle(n, k, g), (
                        n,
                        k,
                        cycle,
                    )

    def test_matches_closed_forms_to_block_four(self):
        compared = 0
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                for cycle in CYCLES:
                    expected = phi_closed_form(SphericalQuery(n, k, cycle))
                    assert phi_module_oracle(n, k, embed_cycle(cycle, n)) == expected, (
                        n,
                        k,
                        cycle,
                    )
                    compared += 1
        assert compared == 1440

    def test_rejects_tables_that_violate_divergence(self, monkeypatch):
        """Neither the oracle nor the invariants trust the kernel they are given."""
        n = BlockTriple(2, 1, 1)
        assert oracle._orbit_frame(n, 1).labels[2] == (1, 0)
        # The table that is 1 at (1, 0) and 0 elsewhere.
        monkeypatch.setattr(oracle, "_invariant_basis", lambda n, k: (((0, 0, 1),), 1))
        with pytest.raises(ValueError, match="invariant vector 0 violates the divergence"):
            phi_module_oracle(n, 1, embed_cycle((1, 2, 3), n))
        with pytest.raises(ValueError, match="coordinates violate the divergence"):
            invariants_in_Vk(n, 1)

    def test_span_check_refuses_a_basis_that_misses_an_image(self, monkeypatch):
        """With one of the two invariant tables at (1,1,1), k = 1, the moving
        cycles project the kept table out of its span."""
        n = BlockTriple(1, 1, 1)
        rows, scale = oracle._invariant_basis(n, 1)
        assert len(rows) == 2
        monkeypatch.setattr(oracle, "_invariant_basis", lambda n, k: (rows[:1], scale))
        for cycle in [(1, 2), (1, 2, 3)]:
            with pytest.raises(ValueError, match="inconsistent"):
                phi_module_oracle(n, 1, embed_cycle(cycle, n))

    def test_refuses_a_basis_not_reduced_at_its_free_labels(self, monkeypatch):
        """The trace is read off the reduced basis nullspace returns; a
        rescaled basis spans the same space but is refused, not solved."""
        n = BlockTriple(2, 2, 2)
        rows, scale = oracle._invariant_basis(n, 2)
        doubled = tuple(tuple(2 * x for x in row) for row in rows)
        monkeypatch.setattr(oracle, "_invariant_basis", lambda n, k: (doubled, scale))
        with pytest.raises(ValueError, match="not reduced"):
            phi_module_oracle(n, 2, embed_cycle((1, 2), n))

    def test_random_permutations(self):
        """Seeded shuffles, mostly not cycles, against the character oracle."""
        rng = random.Random(20261019)
        for _ in range(150):
            n = BlockTriple(*(rng.randint(1, 3) for _ in range(3)))
            k = rng.randint(0, n.N // 2)
            g = Permutation(tuple(rng.sample(range(1, n.N + 1), n.N)))
            assert phi_module_oracle(n, k, g) == phi_character_oracle(n, k, g), (n, k, g)

    def test_basis_matches_the_reference_system(self):
        """The frame's basis equals the kernel of the (k-1)-subset equations,
        table by table, at every (n, k) with blocks <= 4."""
        compared = 0
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                expected = reference_invariant_tables(n, k)
                assert basis_tables(n, k) == expected, (n, k)
                compared += 1
        assert compared == 288

    def test_basis_cache_is_bounded(self):
        n = BlockTriple(2, 1, 1)
        rows, scale = oracle._invariant_basis(n, 1)
        assert oracle._invariant_basis(n, 1) is oracle._orbit_frame(n, 1).basis
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        assert type(scale) is int and scale > 0
        assert oracle._invariant_basis(n, 0) == (((1,),), 1)
        assert not hasattr(oracle._invariant_basis, "cache_info")
        assert oracle._orbit_frame(n, 1).labels == ((0, 0), (0, 1), (1, 0))
        assert oracle._orbit_frame.cache_info().maxsize is not None

    def test_values_do_not_depend_on_the_basis_cache(self, monkeypatch):
        """Cleared, warm and overfilled (evicting) caches give the same values."""
        cache = oracle._orbit_frame
        pairs = [(n, k) for n in small_triples(3) for k in range(n.N // 2 + 1)]
        assert any(k == 0 for _, k in pairs)

        def value(n, k, cycle):
            return phi_module_oracle(n, k, embed_cycle(cycle, n))

        cleared = {}
        for n, k in pairs:
            for cycle in CYCLES:
                cache.cache_clear()
                cleared[n, k, cycle] = value(n, k, cycle)
        warm = {case: value(*case) for case in cleared}
        assert cache.cache_info().hits >= len(cleared) - len(pairs)
        assert warm == cleared

        # The same body behind a one-entry cache, swept cycle-major: each
        # call names a different (n, k) than the last, so its first lookup,
        # for the basis, misses and evicts, and its second, for the frame,
        # hits.
        evicting = functools.lru_cache(maxsize=1)(cache.__wrapped__)
        monkeypatch.setattr(oracle, "_orbit_frame", evicting)
        overfilled = {}
        for cycle in CYCLES:
            for n, k in pairs:
                overfilled[n, k, cycle] = value(n, k, cycle)
        info = evicting.cache_info()
        assert info.currsize == info.maxsize
        assert info.hits == len(cleared)
        assert info.misses == len(cleared)
        assert overfilled == cleared

    def test_bound_refusal(self):
        n = BlockTriple(7, 7, 6)
        with pytest.raises(OracleBoundExceeded):
            phi_module_oracle(n, 10, embed_cycle((1, 2), n), bound=1000)

    def test_rejects_bad_input(self):
        n = BlockTriple(1, 1, 1)
        with pytest.raises(ValueError):
            phi_module_oracle(n, 2, Permutation.identity(3))
        with pytest.raises(ValueError):
            phi_module_oracle(n, 1, Permutation.identity(5))

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from sphfn import linalg, oracle
from sphfn.characters import mn_character, multiplicity, two_row
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
    young_subgroup_elements,
)
from sphfn.hahn import CoeffTable
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

CYCLES = [(1,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def small_triples(max_block):
    return [
        BlockTriple(*sizes)
        for sizes in itertools.product(range(1, max_block + 1), repeat=3)
    ]


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

    def test_histograms_hold_partitions(self):
        """Every counting path keys its histogram by Partitions of N, in parts order."""
        n = BlockTriple(2, 3, 2)
        histograms = [(_two_factor_type_counts(2, 3), 5)]
        for cycle in CYCLES:
            marked = tuple(b in cycle for b in (1, 2, 3))
            g = embed_cycle(cycle, n).images
            histograms.append((_class_type_counts(n.sizes, marked), n.N))
            histograms.append((_enumerated_type_counts(n.sizes, g), n.N))
        for histogram, N in histograms:
            assert all(isinstance(mu, Partition) and mu.weight == N for mu, _ in histogram)
            keys = [mu.parts for mu, _ in histogram]
            assert keys == sorted(set(keys))


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

    def test_table_rejects_non_constant_vector(self):
        n = BlockTriple(2, 2, 2)
        vec = VkVector(6, 1, {(1,): 1, (2,): -1})
        with pytest.raises(ValueError):
            coeff_table_from_invariant(vec, n)

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

    def test_projection_rejects_wrong_size(self):
        vec = VkVector(4, 1, {(1,): 1, (2,): -1})
        with pytest.raises(ValueError):
            project_to_invariant(vec, BlockTriple(1, 1, 1))

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundExceeded):
            invariants_in_Vk(BlockTriple(7, 7, 6), 10, bound=1000)


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
        monkeypatch.setattr(
            oracle, "_invariant_tables", lambda n, k: [CoeffTable(n, k, {(1, 0): 1})]
        )
        with pytest.raises(ValueError, match="invariant vector 0 violates the divergence"):
            phi_module_oracle(n, 1, embed_cycle((1, 2, 3), n))
        with pytest.raises(ValueError, match="coordinates violate the divergence"):
            invariants_in_Vk(n, 1)

    def test_basis_cache_is_bounded(self):
        n = BlockTriple(2, 1, 1)
        assert isinstance(oracle._invariant_tables(n, 1), tuple)
        assert isinstance(oracle._invariant_tables(n, 0), tuple)
        assert oracle._invariant_tables.cache_info().maxsize is not None

    def test_values_do_not_depend_on_the_basis_cache(self, monkeypatch):
        """Cleared, warm and overfilled (evicting) caches give the same values."""
        tables = oracle._invariant_tables
        pairs = [(n, k) for n in small_triples(3) for k in range(n.N // 2 + 1)]
        assert any(k == 0 for _, k in pairs)

        def value(n, k, cycle):
            return phi_module_oracle(n, k, embed_cycle(cycle, n))

        cleared = {}
        for n, k in pairs:
            for cycle in CYCLES:
                tables.cache_clear()
                cleared[n, k, cycle] = value(n, k, cycle)
        warm = {case: value(*case) for case in cleared}
        assert tables.cache_info().hits >= len(cleared) - len(pairs)
        assert warm == cleared

        # The same body behind a one-entry cache, swept cycle-major: each
        # call names a different (n, k) than the last, so every lookup
        # misses and evicts.
        evicting = functools.lru_cache(maxsize=1)(tables.__wrapped__)
        monkeypatch.setattr(oracle, "_invariant_tables", evicting)
        overfilled = {}
        for cycle in CYCLES:
            for n, k in pairs:
                overfilled[n, k, cycle] = value(n, k, cycle)
        info = evicting.cache_info()
        assert info.currsize == info.maxsize
        assert info.hits == 0
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

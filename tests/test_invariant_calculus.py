import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphfn import linalg
from sphfn.characters import m_range, multiplicity
from sphfn.closed_form import g3_diagonal_coeff, phi_2cycle, phi_3cycle
from sphfn.core import BlockTriple, embed_cycle, pair_blocks
from sphfn.hahn import CoeffTable, HahnContext, admissible_grid, psi_table
from sphfn.invariant_calculus import (
    InvariantExpansion,
    _averaged_cycle,
    apply_rho_g2,
    apply_rho_g3,
    check_difference_equation,
    expand_in_psi_basis,
    extract_leading_coeff,
    g2_eigenvalue,
)
from sphfn.oracle import coeff_table_from_invariant, invariants_in_Vk

from module_reference import averaged_translate

PAIRS = [(1, 2), (1, 3), (2, 3)]


def small_triples(max_block):
    return [
        BlockTriple(*sizes)
        for sizes in itertools.product(range(1, max_block + 1), repeat=3)
    ]


def contexts(max_block):
    for n in small_triples(max_block):
        for k in range(n.N // 2 + 1):
            m_lower, m_upper = m_range(n, k)
            for m in range(m_lower, m_upper + 1):
                yield HahnContext(n, k, m)


def reference_apply_rho_g2(table, pair=(1, 2)):
    """The averaged 2-cycle written out by hand, one stencil per pair."""
    n, k = table.n, table.k
    a, b, _ = pair_blocks(pair)
    entries = {}
    for u, v in admissible_grid(n, k):
        w = k - u - v
        if (a, b) == (1, 2):
            stay = (n.n1 - u) * (n.n2 - v) + u * v
            moved = u * (n.n2 - v) * table.get(u - 1, v + 1) + (n.n1 - u) * v * table.get(u + 1, v - 1)
        elif (a, b) == (1, 3):
            stay = (n.n1 - u) * (n.n3 - w) + u * w
            moved = u * (n.n3 - w) * table.get(u - 1, v) + (n.n1 - u) * w * table.get(u + 1, v)
        else:
            stay = (n.n2 - v) * (n.n3 - w) + v * w
            moved = v * (n.n3 - w) * table.get(u, v - 1) + (n.n2 - v) * w * table.get(u, v + 1)
        entries[(u, v)] = Fraction(stay * table.get(u, v) + moved, n.size(a) * n.size(b))
    return CoeffTable(n, k, entries)


def reference_apply_rho_g3(table):
    """The averaged 3-cycle written out by hand: one term per pattern of chosen points."""
    n, k = table.n, table.k
    n1, n2, n3 = n.sizes
    entries = {}
    for u, v in admissible_grid(n, k):
        w = k - u - v
        total = (
            u * v * w * table.get(u, v)
            + (n1 - u) * v * w * table.get(u + 1, v)
            + u * v * (n3 - w) * table.get(u, v - 1)
            + (n1 - u) * v * (n3 - w) * table.get(u + 1, v - 1)
            + u * (n2 - v) * w * table.get(u - 1, v + 1)
            + (n1 - u) * (n2 - v) * w * table.get(u, v + 1)
            + u * (n2 - v) * (n3 - w) * table.get(u - 1, v)
            + (n1 - u) * (n2 - v) * (n3 - w) * table.get(u, v)
        )
        entries[(u, v)] = Fraction(total, n1 * n2 * n3)
    return CoeffTable(n, k, entries)


def reference_expand_in_psi_basis(table):
    """The dense solve: every psi table a column, every label an equation."""
    n, k = table.n, table.k
    m_lower, m_upper = m_range(n, k)
    labels = table.labels()
    indices = list(range(m_lower, m_upper + 1))
    if not indices:
        if table.is_zero():
            return InvariantExpansion(n, k, {})
        raise ValueError("nonzero table but the basis is empty")
    columns = [psi_table(HahnContext(n, k, m)) for m in indices]
    matrix = [[col.get(u, v) for col in columns] for u, v in labels]
    rhs = [table.get(u, v) for u, v in labels]
    coords = linalg.solve(matrix, rhs)
    return InvariantExpansion(n, k, dict(zip(indices, coords)))


def reference_check_difference_equation(table):
    """The recurrence in Fractions, over the whole (n1+1) x (n2+1) rectangle."""
    n, k = table.n, table.k
    return all(
        (n.n1 - u) * table.get(u + 1, v)
        + (n.n2 - v) * table.get(u, v + 1)
        + (n.n3 - k + 1 + u + v) * table.get(u, v)
        == 0
        for u in range(n.n1 + 1)
        for v in range(n.n2 + 1)
        if u + v <= k - 1
    )


def expansion_outcome(expand, table):
    """The expansion with its coefficients as (m, Fraction) pairs, or the error message."""
    try:
        return [(m, c, type(c)) for m, c in expand(table).items()]
    except ValueError as exc:
        return str(exc)


@st.composite
def arbitrary_tables(draw):
    """Any Fraction table on the grid: sparse or dense, in the module or not."""
    n = BlockTriple(*(draw(st.integers(min_value=1, max_value=6)) for _ in range(3)))
    k = draw(st.sampled_from([0, n.N // 2]) | st.integers(min_value=0, max_value=n.N // 2))
    value = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    entries = {}
    for uv in admissible_grid(n, k):
        if draw(st.booleans()):
            entries[uv] = draw(value)
    return CoeffTable(n, k, entries)


@st.composite
def expansions(draw, max_block=3):
    n = BlockTriple(*(draw(st.integers(min_value=1, max_value=max_block)) for _ in range(3)))
    k = draw(st.integers(min_value=0, max_value=n.N // 2))
    m_lower, m_upper = m_range(n, k)
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )
    coeffs = {m: draw(coeff) for m in range(m_lower, m_upper + 1)}
    return InvariantExpansion(n, k, coeffs)


@st.composite
def hahn_contexts(draw, max_block=6):
    n = BlockTriple(*(draw(st.integers(min_value=1, max_value=max_block)) for _ in range(3)))
    k = draw(st.integers(min_value=0, max_value=n.N // 2))
    m_lower, m_upper = m_range(n, k)
    assume(m_lower <= m_upper)
    return HahnContext(n, k, draw(st.integers(min_value=m_lower, max_value=m_upper)))


@st.composite
def member_or_arbitrary_tables(draw):
    """A table of the module (passes), or any table (almost always fails)."""
    if draw(st.booleans()):
        return draw(expansions()).as_table()
    return draw(arbitrary_tables())


class TestDifferenceEquation:
    def test_hand_built_member(self):
        n = BlockTriple(1, 1, 1)
        table = CoeffTable(n, 1, {(0, 0): 2, (1, 0): -1, (0, 1): -1})
        assert check_difference_equation(table)

    def test_constant_table_fails(self):
        n = BlockTriple(1, 1, 1)
        table = CoeffTable(n, 1, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        assert not check_difference_equation(table)

    def test_zero_table_passes(self):
        n = BlockTriple(2, 3, 2)
        assert check_difference_equation(CoeffTable(n, 2, {}))

    def test_hahn_tables_satisfy_it(self):
        for ctx in contexts(4):
            assert check_difference_equation(psi_table(ctx)), ctx

    @settings(max_examples=200, deadline=None)
    @given(member_or_arbitrary_tables())
    def test_matches_fraction_recurrence(self, table):
        assert check_difference_equation(table) == reference_check_difference_equation(table)

    def test_matches_fraction_recurrence_near_the_module(self):
        """Each Hahn table passes; one entry moved, it fails, in both versions."""
        rng = random.Random(22)
        outcomes = set()
        for ctx in contexts(4):
            table = psi_table(ctx)
            entries = dict(table.items())
            uv = rng.choice(table.labels())
            entries[uv] += Fraction(rng.randint(1, 9), rng.randint(1, 4))
            for candidate in (table, CoeffTable(ctx.n, ctx.k, entries)):
                member = check_difference_equation(candidate)
                assert member == reference_check_difference_equation(candidate), (ctx, uv)
                outcomes.add(member)
        assert outcomes == {True, False}


class TestRhoG2:
    def test_hand_example(self):
        n = BlockTriple(1, 1, 1)
        table = CoeffTable(n, 1, {(1, 0): -1, (0, 1): 1})
        image = apply_rho_g2(table, (1, 2))
        assert image == CoeffTable(n, 1, {(1, 0): 1, (0, 1): -1})

    def test_pair_order_irrelevant(self):
        n = BlockTriple(2, 1, 2)
        table = psi_table(HahnContext(n, 2, 1))
        assert apply_rho_g2(table, (2, 1)) == apply_rho_g2(table, (1, 2))
        assert apply_rho_g2(table, (3, 1)) == apply_rho_g2(table, (1, 3))

    @pytest.mark.parametrize("pair", [(1, 1), (0, 2), (2, 4)])
    def test_rejects_bad_pair(self, pair):
        table = CoeffTable(BlockTriple(1, 1, 1), 0, {(0, 0): 1})
        with pytest.raises(ValueError):
            apply_rho_g2(table, pair)

    def test_degree_zero_fixed(self):
        table = CoeffTable(BlockTriple(2, 3, 1), 0, {(0, 0): Fraction(5, 3)})
        for pair in PAIRS:
            assert apply_rho_g2(table, pair) == table
        assert apply_rho_g3(table) == table

    def test_first_pair_acts_diagonally(self):
        for ctx in contexts(4):
            table = psi_table(ctx)
            lam = g2_eigenvalue(ctx.m, ctx.n.n1, ctx.n.n2)
            assert apply_rho_g2(table, (1, 2)) == table.scaled(lam), ctx

    def test_preserves_the_module(self):
        for ctx in contexts(3):
            table = psi_table(ctx)
            for pair in PAIRS:
                assert check_difference_equation(apply_rho_g2(table, pair)), (ctx, pair)

    def test_eigenvalue_examples(self):
        assert g2_eigenvalue(0, 3, 5) == 1
        assert g2_eigenvalue(1, 1, 1) == -1
        assert g2_eigenvalue(1, 2, 3) == Fraction(1, 6)

    def test_eigenvalue_sum_is_twocycle_value(self):
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                m_lower, m_upper = m_range(n, k)
                total = sum(
                    (g2_eigenvalue(m, n.n1, n.n2) for m in range(m_lower, m_upper + 1)),
                    Fraction(0),
                )
                assert total == phi_2cycle(n, k, (1, 2)), (n, k)

    @pytest.mark.parametrize("pair", [(1, 3), (2, 3)])
    def test_other_pair_trace(self, pair):
        for n in small_triples(3):
            for k in range(n.N // 2 + 1):
                m_lower, m_upper = m_range(n, k)
                trace = Fraction(0)
                for m in range(m_lower, m_upper + 1):
                    image = apply_rho_g2(psi_table(HahnContext(n, k, m)), pair)
                    trace += expand_in_psi_basis(image).coefficient(m)
                assert trace == phi_2cycle(n, k, pair), (n, k, pair)

    @settings(max_examples=40, deadline=None)
    @given(expansions())
    def test_diagonal_on_arbitrary_invariants(self, expansion):
        image = expand_in_psi_basis(apply_rho_g2(expansion.as_table(), (1, 2)))
        for m, coeff in expansion.items():
            lam = g2_eigenvalue(m, expansion.n.n1, expansion.n.n2)
            assert image.coefficient(m) == lam * coeff


class TestRhoG3:
    def test_trace_on_smallest_case(self):
        n = BlockTriple(1, 1, 1)
        trace = Fraction(0)
        for m in (0, 1):
            image = apply_rho_g3(psi_table(HahnContext(n, 1, m)))
            trace += expand_in_psi_basis(image).coefficient(m)
        assert trace == -1
        assert phi_3cycle(n, 1) == -1

    def test_preserves_the_module(self):
        for ctx in contexts(4):
            assert check_difference_equation(apply_rho_g3(psi_table(ctx))), ctx

    def test_image_keeps_low_edge_clear(self):
        """The 3-cycle moves a vector at most one step down the filtration."""
        for ctx in contexts(4):
            image = apply_rho_g3(psi_table(ctx))
            for u in range(ctx.m - 1):
                assert image.get(u, 0) == 0, (ctx, u)

    def test_diagonal_matches_closed_coefficient(self):
        for ctx in contexts(3):
            image = apply_rho_g3(psi_table(ctx))
            observed = expand_in_psi_basis(image).coefficient(ctx.m)
            assert observed == g3_diagonal_coeff(ctx.n, ctx.k, ctx.m), ctx

    def test_trace_matches_threecycle_value(self):
        for n in small_triples(3):
            for k in range(n.N // 2 + 1):
                m_lower, m_upper = m_range(n, k)
                trace = Fraction(0)
                for m in range(m_lower, m_upper + 1):
                    image = apply_rho_g3(psi_table(HahnContext(n, k, m)))
                    trace += extract_leading_coeff(image, m)
                assert trace == phi_3cycle(n, k), (n, k)


class TestModuleAction:
    """The stencils against the module itself: translate, then average over orbits."""

    @staticmethod
    def invariant_tables(max_block):
        for n in small_triples(max_block):
            for k in range(n.N // 2 + 1):
                for vec in invariants_in_Vk(n, k):
                    yield n, vec, coeff_table_from_invariant(vec, n)

    @pytest.mark.parametrize("pair", PAIRS + [(2, 1), (3, 1), (3, 2)])
    def test_twocycle_is_the_averaged_translate(self, pair):
        for n, vec, table in self.invariant_tables(3):
            expected = averaged_translate(vec, n, embed_cycle(pair, n))
            assert apply_rho_g2(table, pair) == expected, (n, vec.k, pair)

    def test_threecycle_is_the_averaged_translate(self):
        for n, vec, table in self.invariant_tables(3):
            expected = averaged_translate(vec, n, embed_cycle((1, 2, 3), n))
            assert apply_rho_g3(table) == expected, (n, vec.k)

    def test_one_block_is_the_identity(self):
        for n, _, table in self.invariant_tables(3):
            for block in (1, 2, 3):
                assert _averaged_cycle(table, (block,)) == table, (n, table.k, block)


class TestReferenceStencils:
    """The one rule against the stencils written out by hand, on any table."""

    @settings(max_examples=200, deadline=None)
    @given(arbitrary_tables(), st.sampled_from(PAIRS + [(2, 1), (3, 1), (3, 2)]))
    def test_twocycle_matches_reference(self, table, pair):
        assert apply_rho_g2(table, pair) == reference_apply_rho_g2(table, pair)

    @settings(max_examples=200, deadline=None)
    @given(arbitrary_tables())
    def test_threecycle_matches_reference(self, table):
        assert apply_rho_g3(table) == reference_apply_rho_g3(table)

    def test_default_pair_is_blocks_one_and_two(self):
        table = psi_table(HahnContext(BlockTriple(2, 3, 2), 3, 1)).scaled(Fraction(2, 7))
        assert apply_rho_g2(table) == reference_apply_rho_g2(table, (1, 2))

    def test_hahn_tables_match_reference(self):
        for ctx in contexts(4):
            table = psi_table(ctx)
            assert apply_rho_g3(table) == reference_apply_rho_g3(table), ctx
            for pair in PAIRS:
                assert apply_rho_g2(table, pair) == reference_apply_rho_g2(table, pair), (ctx, pair)


class TestExtraction:
    def test_recovers_unit_coefficient(self):
        for ctx in contexts(4):
            assert extract_leading_coeff(psi_table(ctx), ctx.m) == 1, ctx

    def test_annihilates_previous_vector(self):
        for ctx in contexts(4):
            m_lower, _ = m_range(ctx.n, ctx.k)
            if ctx.m - 1 < m_lower:
                continue
            below = psi_table(HahnContext(ctx.n, ctx.k, ctx.m - 1))
            assert extract_leading_coeff(below, ctx.m) == 0, ctx

    def test_two_term_combination(self):
        n = BlockTriple(2, 2, 2)
        a, b = Fraction(3, 7), Fraction(-5, 2)
        table = InvariantExpansion(n, 2, {2: a, 1: b}).as_table()
        assert extract_leading_coeff(table, 2) == a

    def test_rejects_lower_components(self):
        n = BlockTriple(2, 2, 2)
        table = psi_table(HahnContext(n, 2, 0))
        with pytest.raises(ValueError):
            extract_leading_coeff(table, 2)

    def test_out_of_range_m_names_the_range(self):
        n = BlockTriple(3, 3, 3)
        table = psi_table(HahnContext(n, 3, 0))
        with pytest.raises(ValueError) as info:
            extract_leading_coeff(table, 5)
        assert str(info.value) == "m = 5 outside [0, 3] for n = (3, 3, 3), k = 3"


class TestExpansion:
    def test_rejects_out_of_range_index(self):
        n = BlockTriple(1, 1, 1)
        with pytest.raises(ValueError):
            InvariantExpansion(n, 1, {2: 1})

    @pytest.mark.parametrize(
        "coeffs,message",
        [
            ({0.5: 1}, "indices [0.5] are not ints"),
            ({0: 1, True: 2}, "indices [True] are not ints"),
            ({Fraction(1): 1}, "indices [Fraction(1, 1)] are not ints"),
        ],
    )
    def test_rejects_indices_that_are_not_ints(self, coeffs, message):
        with pytest.raises(ValueError) as info:
            InvariantExpansion(BlockTriple(1, 1, 1), 1, coeffs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "n,k,message",
        [
            ((3, 3, 3), 1, "n must be a BlockTriple, got (3, 3, 3)"),
            (BlockTriple(1, 1, 1), 1.0, "k must be an int, got 1.0"),
            (BlockTriple(1, 1, 1), True, "k must be an int, got True"),
        ],
    )
    def test_rejects_non_int_k_and_non_triple_n(self, n, k, message):
        with pytest.raises(ValueError) as info:
            InvariantExpansion(n, k, {})
        assert str(info.value) == message

    def test_coefficient_defaults_to_zero(self):
        expansion = InvariantExpansion(BlockTriple(2, 2, 2), 2, {1: 5})
        assert expansion.coefficient(0) == 0
        assert expansion.coefficient(1) == 5
        assert list(expansion.items()) == [(1, Fraction(5))]

    def test_unit_expansions(self):
        for ctx in contexts(3):
            expansion = expand_in_psi_basis(psi_table(ctx))
            assert expansion == InvariantExpansion(ctx.n, ctx.k, {ctx.m: 1}), ctx

    def test_halves_example(self):
        n = BlockTriple(1, 1, 1)
        coeffs = {0: Fraction(-1, 2), 1: Fraction(-1, 2)}
        table = InvariantExpansion(n, 1, coeffs).as_table()
        assert table == CoeffTable(n, 1, {(0, 0): -1, (1, 0): 1})
        assert expand_in_psi_basis(table) == InvariantExpansion(n, 1, coeffs)

    def test_zero_table(self):
        n = BlockTriple(2, 1, 2)
        expansion = expand_in_psi_basis(CoeffTable(n, 2, {}))
        m_lower, m_upper = m_range(n, 2)
        assert all(
            expansion.coefficient(m) == 0 for m in range(m_lower, m_upper + 1)
        )

    def test_rejects_table_outside_span(self):
        n = BlockTriple(1, 1, 1)
        with pytest.raises(ValueError, match="^inconsistent linear system$"):
            expand_in_psi_basis(CoeffTable(n, 1, {(0, 0): 1}))

    def test_zero_table_with_empty_basis(self):
        n = BlockTriple(1, 1, 4)
        assert m_range(n, 3) == (0, -1)
        expansion = expand_in_psi_basis(CoeffTable(n, 3, {}))
        assert expansion == InvariantExpansion(n, 3, {})
        assert list(expansion.items()) == []

    def test_rejects_nonzero_table_with_empty_basis(self):
        n = BlockTriple(1, 1, 4)
        assert multiplicity(n, 3) == 0
        with pytest.raises(ValueError, match="^nonzero table but the basis is empty$"):
            expand_in_psi_basis(CoeffTable(n, 3, {(0, 0): 1}))

    def test_matches_dense_solve_at_blocks_le_5(self):
        """Every Hahn table, its 3-cycle image and its three 2-cycle images."""
        for ctx in contexts(5):
            table = psi_table(ctx)
            images = [table, apply_rho_g3(table)] + [apply_rho_g2(table, p) for p in PAIRS]
            for image in images:
                expected = expansion_outcome(reference_expand_in_psi_basis, image)
                assert isinstance(expected, list), ctx
                assert expansion_outcome(expand_in_psi_basis, image) == expected, ctx

    def test_matches_dense_solve_outside_the_span(self):
        """Seeded tables off the span: a Hahn table with one entry moved, and
        random tables, including at an (n, k) with an empty basis."""
        rng = random.Random(22)
        messages = set()
        for ctx in contexts(4):
            entries = dict(psi_table(ctx).items())
            uv = rng.choice(list(entries))
            entries[uv] += Fraction(rng.randint(1, 9), rng.randint(1, 4))
            noise = {uv: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for uv in entries}
            for candidate in (entries, noise):
                table = CoeffTable(ctx.n, ctx.k, candidate)
                expected = expansion_outcome(reference_expand_in_psi_basis, table)
                assert expansion_outcome(expand_in_psi_basis, table) == expected, ctx
                messages.add(expected if isinstance(expected, str) else None)
        empty = CoeffTable(BlockTriple(1, 1, 4), 3, {(0, 0): Fraction(2, 3)})
        expected = expansion_outcome(reference_expand_in_psi_basis, empty)
        assert expansion_outcome(expand_in_psi_basis, empty) == expected
        assert "inconsistent linear system" in messages

    @settings(max_examples=100, deadline=None)
    @given(member_or_arbitrary_tables())
    def test_matches_dense_solve_on_any_table(self, table):
        expected = expansion_outcome(reference_expand_in_psi_basis, table)
        assert expansion_outcome(expand_in_psi_basis, table) == expected

    @settings(max_examples=60, deadline=None)
    @given(expansions(max_block=6))
    def test_round_trip(self, expansion):
        assert expand_in_psi_basis(expansion.as_table()) == expansion


def assert_matches_fraction_reference(table):
    """The table equals, with an equal hash, the checked constructor fed its
    own Fractions, and holds its integers in lowest terms: scale 1 if zero."""
    reference = CoeffTable(table.n, table.k, dict(table.items()))
    assert table == reference and hash(table) == hash(reference), table
    numerators, scale = table._numerators()
    assert scale > 0 and math.gcd(scale, *numerators.values()) == 1, table
    assert scale == 1 or not table.is_zero(), table


class TestIntegerTables:
    """Each producer of integer tables against the Fraction values it reports."""

    @settings(max_examples=60, deadline=None)
    @given(hahn_contexts(), arbitrary_tables(), st.fractions(max_denominator=9), st.data())
    def test_producers_agree_with_the_fraction_reference(self, ctx, other, factor, data):
        table = psi_table(ctx)
        for source in (table, other):
            images = [apply_rho_g2(source, pair) for pair in PAIRS] + [apply_rho_g3(source)]
            for image in [source, *images, source.scaled(factor), source.scaled(0)]:
                assert_matches_fraction_reference(image)
        m_lower, m_upper = m_range(ctx.n, ctx.k)
        coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
        coeffs = {m: data.draw(coeff) for m in range(m_lower, m_upper + 1)}
        assert_matches_fraction_reference(InvariantExpansion(ctx.n, ctx.k, coeffs).as_table())
        for vec in invariants_in_Vk(ctx.n, ctx.k):
            assert_matches_fraction_reference(coeff_table_from_invariant(vec, ctx.n))

    def test_zero_tables_have_scale_one(self):
        n = BlockTriple(2, 3, 2)
        zero = CoeffTable(n, 3, {})
        tables = [
            zero,
            CoeffTable(n, 3, {(1, 1): Fraction(0, 7)}),
            psi_table(HahnContext(n, 3, 1)).scaled(0),
            CoeffTable(n, 3, {(1, 1): Fraction(2, 7)}).scaled(Fraction(0, 5)),
            InvariantExpansion(n, 3, {1: 0}).as_table(),
            apply_rho_g3(zero),
        ]
        for table in tables:
            assert_matches_fraction_reference(table)
            assert table._numerators()[1] == 1 and table == zero and repr(table) == repr(zero)

    @settings(max_examples=60, deadline=None)
    @given(expansions(max_block=6), st.data())
    def test_one_label_moved_off_the_span_is_refused(self, expansion, data):
        """For k >= 1 no table with one nonzero entry meets the difference
        equation, so a member moved at one label is off the span."""
        n, k = expansion.n, expansion.k
        m_lower, m_upper = m_range(n, k)
        assume(k >= 1 and m_lower <= m_upper)
        entries = dict(expansion.as_table().items())
        uv = data.draw(st.sampled_from(sorted(entries)))
        entries[uv] += data.draw(st.fractions(max_denominator=5).filter(bool))
        with pytest.raises(ValueError, match="^inconsistent linear system$"):
            expand_in_psi_basis(CoeffTable(n, k, entries))

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphfn import hahn, linalg
from sphfn.characters import m_range, multiplicity
from sphfn.core import BlockTriple, pochhammer
from sphfn.hahn import (
    CoeffTable,
    HahnContext,
    admissible_grid,
    hahn_E,
    psi1,
    psi2,
    psi_table,
)


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


def reference_hahn_E(m, alpha, beta, gamma, t):
    """E_m term by term, one pochhammer per factor: the definition itself."""
    total = Fraction(0)
    for i in range(m + 1):
        term = (
            math.comb(m, i)
            * pochhammer(beta - m + 1, i)
            * pochhammer(alpha - m + 1, m - i)
            * pochhammer(-t, i)
            * pochhammer(t - gamma, m - i)
        )
        total += -term if i % 2 else term
    return total


small_ints = st.integers(min_value=-12, max_value=12)
small_fractions = st.fractions(min_value=-12, max_value=12, max_denominator=7)


class TestHahnE:
    @given(
        st.integers(min_value=0, max_value=9),
        small_ints,
        small_ints,
        small_ints | small_fractions,
        small_ints | small_fractions,
    )
    def test_matches_reference(self, m, alpha, beta, gamma, t):
        value = hahn_E(m, alpha, beta, gamma, t)
        assert type(value) is Fraction
        assert value == reference_hahn_E(m, alpha, beta, gamma, t)


    def test_degree_zero(self):
        assert hahn_E(0, 3, 4, 5, 7) == 1

    @pytest.mark.parametrize("m,alpha,gamma", [(1, 2, 3), (2, 4, 1), (3, 5, 5)])
    def test_at_zero(self, m, alpha, gamma):
        expected = pochhammer(alpha - m + 1, m) * pochhammer(-gamma, m)
        assert hahn_E(m, alpha, 9, gamma, 0) == expected

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            hahn_E(-1, 1, 1, 1, 1)


class TestContext:
    def test_rejects_out_of_range_m(self):
        n = BlockTriple(1, 1, 1)
        with pytest.raises(ValueError):
            HahnContext(n, 1, 2)
        with pytest.raises(ValueError):
            HahnContext(n, 2, 0)

    @pytest.mark.parametrize(
        "k,m,message",
        [
            (3, 1.5, "m must be an int, got 1.5"),
            (3, Fraction(1), "m must be an int, got Fraction(1, 1)"),
            (3, True, "m must be an int, got True"),
            (1.0, 1, "k must be an int, got 1.0"),
            (True, 0, "k must be an int, got True"),
            (1.5, 1.5, "k must be an int, got 1.5"),
        ],
    )
    def test_rejects_non_int_k_and_m(self, k, m, message):
        with pytest.raises(ValueError) as info:
            HahnContext(BlockTriple(3, 3, 3), k, m)
        assert str(info.value) == message

    def test_rejects_blocks_that_are_not_a_block_triple(self):
        with pytest.raises(ValueError) as info:
            HahnContext((3, 3, 3), 3, 1)
        assert str(info.value) == "n must be a BlockTriple, got (3, 3, 3)"


class TestSpecialValues:
    """The edge evaluations that the coefficient-extraction formula relies on."""

    @pytest.mark.parametrize("ctx", list(contexts(3)), ids=str)
    def test_psi1_at_m(self, ctx):
        n, k, m = ctx.n, ctx.k, ctx.m
        expected = math.factorial(k - m) * pochhammer(n.n1 + n.n2 - k - m + 1, k - m)
        assert psi1(ctx, m) == expected

    @pytest.mark.parametrize("ctx", list(contexts(3)), ids=str)
    def test_psi1_at_m_plus_one(self, ctx):
        n, k, m = ctx.n, ctx.k, ctx.m
        if k == m:
            assert psi1(ctx, k) == 1
            return
        expected = -math.factorial(k - m) * pochhammer(
            n.n1 + n.n2 - k - m + 1, k - m - 1
        ) * (n.n3 - k + m + 1)
        assert psi1(ctx, m + 1) == expected

    @pytest.mark.parametrize("ctx", list(contexts(3)), ids=str)
    def test_psi2_on_axis(self, ctx):
        n, m = ctx.n, ctx.m
        for u in range(n.n1 + 1):
            expected = (-1) ** m * pochhammer(-n.n2, m) * pochhammer(-u, m)
            assert psi2(ctx, u, 0) == expected

    @pytest.mark.parametrize("ctx", list(contexts(4)), ids=str)
    def test_psi2_vanishes_below_degree(self, ctx):
        for u, v in admissible_grid(ctx.n, ctx.k):
            if u + v < ctx.m:
                assert psi2(ctx, u, v) == 0

    @pytest.mark.parametrize("ctx", list(contexts(3)), ids=str)
    def test_edge_entry_product_form(self, ctx):
        """f(m,0) in closed form; the (2m - n1 - n2) argument is load-bearing."""
        n, k, m = ctx.n, ctx.k, ctx.m
        expected = (
            (-1) ** (k - m)
            * pochhammer(2 * m - n.n1 - n.n2, k - m)
            * pochhammer(-n.n2, m)
            * math.factorial(m)
            * math.factorial(k - m)
        )
        assert psi_table(ctx).get(m, 0) == expected


class TestEdgeDiagonal:
    """The triangular v = 0 edge that expand_in_psi_basis substitutes along."""

    def test_closed_form_and_nonzero_at_blocks_le_8(self):
        checked = 0
        for ctx in contexts(8):
            n, k, m = ctx.n, ctx.k, ctx.m
            assert (m, 0) in admissible_grid(n, k), ctx
            edge = [(u, 0) for u in range(m + 1)]
            values = hahn._psi_values(ctx, edge)
            assert values[:m] == [0] * m, ctx
            expected = (
                pochhammer(n.n1 + n.n2 - m - k + 1, k - m)
                * math.factorial(k - m)
                * pochhammer(n.n2 - m + 1, m)
                * (-1) ** m
                * math.factorial(m)
            )
            assert values[m] == expected != 0, ctx
            checked += 1
        assert checked == 9784


class TestCoeffTable:
    def test_grid(self):
        n = BlockTriple(1, 1, 1)
        assert sorted(admissible_grid(n, 1)) == [(0, 0), (0, 1), (1, 0)]
        assert sorted(admissible_grid(n, 0)) == [(0, 0)]
        wide = BlockTriple(2, 2, 1)
        assert (2, 1) in admissible_grid(wide, 3)
        assert (0, 0) not in admissible_grid(wide, 3)

    def test_off_grid_reads_zero(self):
        n = BlockTriple(1, 1, 1)
        table = CoeffTable(n, 1, {(0, 0): 5})
        assert table.get(0, 0) == 5
        assert table.get(1, 0) == 0
        assert table.get(-1, 2) == 0

    @pytest.mark.parametrize(
        "n,k,message",
        [
            (BlockTriple(1, 1, 1), 1.0, "k must be an int, got 1.0"),
            (BlockTriple(1, 1, 1), True, "k must be an int, got True"),
            ((1, 1, 1), 1, "n must be a BlockTriple, got (1, 1, 1)"),
        ],
    )
    def test_rejects_non_int_k_and_non_triple_n(self, n, k, message):
        with pytest.raises(ValueError) as info:
            CoeffTable(n, k, {})
        assert str(info.value) == message

    def test_rejects_off_grid_labels(self):
        n = BlockTriple(1, 1, 1)
        with pytest.raises(ValueError):
            CoeffTable(n, 1, {(1, 1): 1})

    def test_scaling_and_equality(self):
        n = BlockTriple(1, 1, 1)
        table = CoeffTable(n, 1, {(0, 0): 2, (1, 0): -1, (0, 1): -1})
        assert table.scaled(Fraction(1, 2)) == CoeffTable(
            n, 1, {(0, 0): 1, (1, 0): Fraction(-1, 2), (0, 1): Fraction(-1, 2)}
        )
        assert not table.is_zero()
        assert CoeffTable(n, 1, {}).is_zero()

    def test_insertion_order_is_irrelevant(self):
        n = BlockTriple(2, 3, 2)
        grid = admissible_grid(n, 3)
        values = {uv: Fraction(i + 1, 3) for i, uv in enumerate(grid)}
        forward = CoeffTable(n, 3, values)
        backward = CoeffTable(n, 3, dict(reversed(values.items())))
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert forward.labels() == backward.labels() == grid
        assert list(backward.items()) == [(uv, values[uv]) for uv in grid]


class TestPsiTable:
    def test_hand_values(self):
        n = BlockTriple(1, 1, 1)
        assert psi_table(HahnContext(n, 1, 0)) == CoeffTable(
            n, 1, {(0, 0): 2, (1, 0): -1, (0, 1): -1}
        )
        assert psi_table(HahnContext(n, 1, 1)) == CoeffTable(
            n, 1, {(0, 0): 0, (1, 0): -1, (0, 1): 1}
        )

    @pytest.mark.parametrize(
        "n", small_triples(4), ids=lambda n: str(n.sizes)
    )
    def test_linear_independence(self, n):
        """The basis tables have full rank equal to the multiplicity."""
        for k in range(n.N // 2 + 1):
            m_lower, m_upper = m_range(n, k)
            if m_lower > m_upper:
                continue
            grid = admissible_grid(n, k)
            tables = [
                psi_table(HahnContext(n, k, m)) for m in range(m_lower, m_upper + 1)
            ]
            matrix = [[t.get(u, v) for t in tables] for (u, v) in grid]
            assert linalg.rank(matrix) == multiplicity(n, k)

    def test_entries_are_fractions_as_the_checked_constructor_builds(self):
        for ctx in contexts(4):
            table = psi_table(ctx)
            assert all(type(x) is Fraction for _, x in table.items()), ctx
            assert table == CoeffTable(ctx.n, ctx.k, dict(table.items())), ctx
            assert table.labels() == admissible_grid(ctx.n, ctx.k), ctx

    def test_entries_are_psi1_times_psi2(self):
        for ctx in contexts(5):
            for (u, v), value in psi_table(ctx).items():
                assert value == psi1(ctx, u + v) * psi2(ctx, u, v), (ctx, (u, v))

    def test_matches_reference_at_blocks_le_9(self):
        """Every entry, for every m, against the term-by-term definition.

        Both factors recur across triples (psi2 does not depend on n3 or k),
        so the reference is evaluated once per distinct argument list.
        """
        reference = functools.cache(reference_hahn_E)
        for ctx in contexts(9):
            first_shape, first_at = hahn._psi1_parameters(ctx)
            second_shape, second_at = hahn._psi2_parameters(ctx)
            for (u, v), value in psi_table(ctx).items():
                expected = reference(*first_shape, *first_at(u + v)) * reference(
                    *second_shape, *second_at(u, v)
                )
                assert value == expected, (ctx, (u, v))

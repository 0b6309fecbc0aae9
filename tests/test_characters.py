import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphfn.characters import (
    centralizer_order,
    dim_two_row,
    m_range,
    mn_character,
    multiplicity,
    two_row,
)
from sphfn.core import BlockTriple, Partition, binom, cycle_type, partitions, young_subgroup_elements


@st.composite
def partition_strategy(draw, max_weight: int = 8) -> Partition:
    n = draw(st.integers(min_value=1, max_value=max_weight))
    options = list(partitions(n))
    return draw(st.sampled_from(options))


class TestMurnaghanNakayama:
    def test_s3_table(self):
        shape = Partition((2, 1))
        assert mn_character(shape, Partition((3,))) == -1
        assert mn_character(shape, Partition((2, 1))) == 0
        assert mn_character(shape, Partition((1, 1, 1))) == 2

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            mn_character(Partition((2, 1)), Partition((2, 2)))

    @given(partition_strategy())
    def test_trivial_rep(self, mu):
        assert mn_character(Partition((mu.weight,)), mu) == 1

    @given(partition_strategy())
    def test_sign_rep(self, mu):
        expected = (-1) ** (mu.weight - len(mu))
        assert mn_character(Partition((1,) * mu.weight), mu) == expected

    @pytest.mark.parametrize("N", range(1, 7))
    def test_orthogonality(self, N):
        """Exact row and column orthogonality of the full table."""
        shapes = list(partitions(N))
        classes = list(partitions(N))
        table = {
            (lam, mu): mn_character(lam, mu) for lam in shapes for mu in classes
        }
        order = math.factorial(N)
        for lam, lam2 in itertools.product(shapes, repeat=2):
            total = sum(
                Fraction(order, centralizer_order(mu)) * table[(lam, mu)] * table[(lam2, mu)]
                for mu in classes
            )
            assert total == (order if lam == lam2 else 0)
        for mu, nu in itertools.product(classes, repeat=2):
            total = sum(table[(lam, mu)] * table[(lam, nu)] for lam in shapes)
            assert total == (centralizer_order(mu) if mu == nu else 0)

    def test_two_row_values_follow_youngs_rule(self):
        """chi^[N-k,k] = f_k - f_(k-1), with f_j the t^j coefficient of
        the product over cycles of (1 + t^len): Young's rule, an independent
        path to the two-row characters."""
        for N in range(1, 16):
            for mu in partitions(N):
                f = [1] + [0] * N
                for length in mu:
                    for j in range(N, length - 1, -1):
                        f[j] += f[j - length]
                for k in range(N // 2 + 1):
                    expected = f[k] - (f[k - 1] if k else 0)
                    assert mn_character(two_row(N, k), mu) == expected, (mu, k)

    def test_centralizer_orders_sum_to_group_order(self):
        for N in range(1, 7):
            assert sum(
                Fraction(math.factorial(N), centralizer_order(mu))
                for mu in partitions(N)
            ) == math.factorial(N)


class TestTwoRow:
    def test_shapes(self):
        assert two_row(5, 2) == Partition((3, 2))
        assert two_row(4, 0) == Partition((4,))
        with pytest.raises(ValueError):
            two_row(3, 2)

    def test_dimensions(self):
        assert dim_two_row(6, 0) == 1
        assert dim_two_row(6, 2) == 9
        assert dim_two_row(3, 1) == 2
        with pytest.raises(ValueError):
            dim_two_row(5, 3)

    def test_dimension_is_a_difference_of_binomials(self):
        """The one-binomial form against C(N, k) - C(N, k - 1), for N <= 400."""
        for N in range(401):
            for k in range(N // 2 + 1):
                assert dim_two_row(N, k) == binom(N, k) - binom(N, k - 1), (N, k)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_dimension_is_character_at_identity(self, N):
        for k in range(N // 2 + 1):
            assert dim_two_row(N, k) == mn_character(two_row(N, k), Partition((1,) * N))


class TestMultiplicity:
    def test_m_range_examples(self):
        assert m_range(BlockTriple(1, 1, 1), 1) == (0, 1)
        assert m_range(BlockTriple(3, 2, 1), 2) == (1, 2)
        assert m_range(BlockTriple(2, 3, 4), 0) == (0, 0)

    def test_multiplicity_examples(self):
        assert multiplicity(BlockTriple(1, 1, 1), 1) == 2
        assert multiplicity(BlockTriple(3, 2, 1), 2) == 2
        assert multiplicity(BlockTriple(4, 2, 2), 0) == 1
        # empty range
        assert multiplicity(BlockTriple(1, 1, 4), 3) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            m_range(BlockTriple(1, 1, 1), 2)

    @pytest.mark.parametrize(
        "sizes", list(itertools.product(range(1, 4), repeat=3))
    )
    def test_frobenius_average(self, sizes):
        """Multiplicity equals the subgroup average of the character."""
        n = BlockTriple(*sizes)
        order = math.prod(math.factorial(s) for s in sizes)
        for k in range(n.N // 2 + 1):
            shape = two_row(n.N, k)
            total = sum(
                mn_character(shape, cycle_type(h))
                for h in young_subgroup_elements(n)
            )
            assert Fraction(total, order) == multiplicity(n, k)

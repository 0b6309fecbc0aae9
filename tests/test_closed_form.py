import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphfn.closed_form
from sphfn.characters import m_range, multiplicity
from sphfn.closed_form import (
    SphericalQuery,
    _pair_sizes,
    _phi_3cycle_ratio,
    _phi_3cycle_redundant,
    _power_sums,
    _two_cycle_ratio,
    _xi_ratio,
    g3_diagonal_coeff,
    phi_2cycle,
    phi_2cycle_two_factor,
    phi_3cycle,
    phi_closed_form,
    phi_identity,
    phi_special,
    xi,
    zeta,
)
from sphfn.core import BlockTriple, compose, embed_cycle, young_subgroup_elements
from sphfn.eigsum import DegreeTriple, eigenvalue_sum, eigenvalue_sum_recheck
from sphfn.invariant_calculus import g2_eigenvalue

CYCLES = [(1,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def small_triples(max_block):
    return [
        BlockTriple(*sizes)
        for sizes in itertools.product(range(1, max_block + 1), repeat=3)
    ]


@st.composite
def triple_and_k(draw, max_block=300):
    """A block triple with blocks up to max_block and an admissible k."""
    n = BlockTriple(*draw(st.tuples(*[st.integers(1, max_block)] * 3)))
    return n, draw(st.integers(0, n.N // 2))


PAIRS = [(1, 2), (1, 3), (2, 3)]


def diagonal_sum(n, k):
    """The 3-cycle value as the diagonal entries summed term by term."""
    m_lower, m_upper = m_range(n, k)
    return sum(
        (g3_diagonal_coeff(n, k, m) for m in range(m_lower, m_upper + 1)),
        Fraction(0),
    )


def fixed_point_average(n, cycle):
    """Average of fix(g h) - 1 over the subgroup, g the embedded cycle.

    For k = 1 the two-row character is the permutation character minus one,
    so this is an independent hand computation of the k = 1 value.
    """
    g = embed_cycle(cycle, n)
    total = Fraction(0)
    count = 0
    for h in young_subgroup_elements(n):
        gh = compose(g, h)
        total += sum(1 for i in range(1, n.N + 1) if gh(i) == i) - 1
        count += 1
    return total / count


class TestIdentityValue:
    @pytest.mark.parametrize(
        "sizes,k,expected",
        [((1, 1, 1), 1, 2), ((3, 2, 1), 2, 2), ((1, 1, 4), 3, 0), ((2, 2, 2), 0, 1)],
    )
    def test_examples(self, sizes, k, expected):
        n = BlockTriple(*sizes)
        assert phi_identity(n, k) == expected
        assert phi_identity(n, k) == multiplicity(n, k)


class TestTwoCycle:
    @pytest.mark.parametrize(
        "sizes,k,expected",
        [
            ((1, 1, 1), 1, Fraction(0)),
            ((2, 2, 2), 1, Fraction(1)),
            ((1, 4, 2), 3, Fraction(-1, 4)),
            ((1, 1, 4), 3, Fraction(0)),
        ],
    )
    def test_examples(self, sizes, k, expected):
        assert phi_2cycle(BlockTriple(*sizes), k) == expected

    def test_degree_zero_is_one(self):
        for n in small_triples(3):
            for pair in [(1, 2), (1, 3), (2, 3)]:
                assert phi_2cycle(n, 0, pair) == 1

    def test_rejects_inadmissible_k(self):
        n = BlockTriple(1, 2, 1)
        with pytest.raises(ValueError):
            phi_2cycle(n, 3)
        with pytest.raises(ValueError):
            phi_2cycle(n, -1)

    def test_swapping_the_pair_blocks(self):
        n = BlockTriple(2, 5, 3)
        swapped = BlockTriple(5, 2, 3)
        for k in range(n.N // 2 + 1):
            assert phi_2cycle(n, k, (1, 2)) == phi_2cycle(swapped, k, (1, 2))

    def test_small_k_reduction(self):
        """With k at most every block size the value is one plain quadratic."""
        for n in small_triples(4):
            for k in range(min(n.sizes) + 1):
                display = Fraction(k + 1, n.n1 * n.n2) * (
                    n.n1 * n.n2
                    - Fraction(k * (n.n1 + n.n2), 2)
                    + Fraction(k * (k - 1), 3)
                )
                assert phi_2cycle(n, k, (1, 2)) == display, (n, k)

    @given(triple_and_k(), st.sampled_from(PAIRS))
    def test_sums_the_eigenvalues_at_real_sizes(self, query, pair):
        n, k = query
        a, b = pair
        (c,) = {1, 2, 3} - {a, b}
        na, nb, nc = n.size(a), n.size(b), n.size(c)
        m_lower, m_upper = m_range(BlockTriple(na, nb, nc), k)
        total = sum(
            (g2_eigenvalue(m, na, nb) for m in range(m_lower, m_upper + 1)),
            Fraction(0),
        )
        assert phi_2cycle(n, k, pair) == total

    @given(triple_and_k(), st.sampled_from(PAIRS))
    def test_invariant_under_swapping_the_pair_blocks(self, query, pair):
        n, k = query
        a, b = pair
        sizes = list(n.sizes)
        sizes[a - 1], sizes[b - 1] = sizes[b - 1], sizes[a - 1]
        assert phi_2cycle(BlockTriple(*sizes), k, pair) == phi_2cycle(n, k, pair)


class TestZetaXi:
    def test_smallest_case_values(self):
        n = BlockTriple(1, 1, 1)
        assert zeta(n, 1, 0) == 0
        assert zeta(n, 1, 1) == -1
        assert xi(n, 1, 0) == Fraction(1, 2)
        assert xi(n, 1, 1) == 0
        assert g3_diagonal_coeff(n, 1, 0) == Fraction(-1, 2)
        assert g3_diagonal_coeff(n, 1, 1) == Fraction(-1, 2)

    @pytest.mark.parametrize("sizes,k", [((2, 3, 2), 3), ((1, 1, 1), 1), ((4, 4, 4), 5)])
    def test_boundary_zeros(self, sizes, k):
        n = BlockTriple(*sizes)
        assert xi(n, k, -1) == 0
        assert xi(n, k, k) == 0

    def test_third_block_zero(self):
        assert xi(BlockTriple(3, 3, 1), 3, 1) == 0

    def test_equal_blocks_pole_cancels(self):
        assert xi(BlockTriple(2, 2, 4), 3, 2) == 24

    def test_undefined_interior_pole(self):
        with pytest.raises(ValueError):
            xi(BlockTriple(1, 3, 3), 3, 2)

    def test_display_at_smaller_block(self):
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                m = min(n.n1, n.n2)
                head = (m + 1) * (n.n3 - k + m + 1) * (k - m)
                assert xi(n, k, m) == head * m, (n, k)

    def test_display_at_upper_range_end(self):
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                m = n.n1 + n.n2 - k
                if m == k:
                    continue
                display = (m + 1) * (n.n3 - k + m + 1) * (n.n1 * n.n2 - m * m)
                assert xi(n, k, m) == display, (n, k)


class TestThreeCycle:
    @pytest.mark.parametrize(
        "sizes,k,expected",
        [
            ((1, 1, 1), 1, Fraction(-1)),
            ((2, 2, 2), 1, Fraction(1, 2)),
            ((2, 2, 2), 2, Fraction(-3, 4)),
            ((2, 2, 2), 3, Fraction(-1, 2)),
            ((1, 4, 2), 3, Fraction(-1, 4)),
            ((1, 2, 3), 3, Fraction(-1, 3)),
            ((1, 1, 4), 3, Fraction(0)),
        ],
    )
    def test_examples(self, sizes, k, expected):
        assert phi_3cycle(BlockTriple(*sizes), k) == expected

    def test_rejects_inadmissible_k(self):
        with pytest.raises(ValueError):
            phi_3cycle(BlockTriple(1, 1, 1), 2)

    def test_sums_the_diagonal(self):
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                m_lower, m_upper = m_range(n, k)
                total = sum(
                    (g3_diagonal_coeff(n, k, m) for m in range(m_lower, m_upper + 1)),
                    Fraction(0),
                )
                assert phi_3cycle(n, k) == total, (n, k)

    def test_sums_the_diagonal_to_block_eight(self):
        for n in small_triples(8):
            for k in range(n.N // 2 + 1):
                assert phi_3cycle(n, k) == diagonal_sum(n, k), (n, k)

    @settings(deadline=None)
    @given(triple_and_k())
    def test_sums_the_diagonal_at_real_sizes(self, query):
        n, k = query
        assert phi_3cycle(n, k) == diagonal_sum(n, k)

    def test_symmetric_in_block_sizes(self):
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                value = phi_3cycle(n, k)
                for perm in itertools.permutations(n.sizes):
                    assert phi_3cycle(BlockTriple(*perm), k) == value, (n, k, perm)

    @given(triple_and_k())
    def test_invariant_under_block_permutations_at_real_sizes(self, query):
        n, k = query
        value = phi_3cycle(n, k)
        for perm in itertools.permutations(n.sizes):
            assert phi_3cycle(BlockTriple(*perm), k) == value, perm


def redundant_pair(n, k):
    """The redundant 3-cycle regrouping's pair, fed the range and xi(m_U)."""
    m_lower, m_upper = m_range(n, k)
    return _phi_3cycle_redundant(n, k, m_lower, m_upper, *_xi_ratio(n, k, m_upper))


class TestIntegerKernels:
    def test_redundant_regrouping_agrees_to_block_eight(self):
        for n in small_triples(8):
            for k in range(n.N // 2 + 1):
                m_lower, m_upper = m_range(n, k)
                if m_lower <= m_upper:
                    assert Fraction(*redundant_pair(n, k)) == phi_3cycle(n, k), (n, k)

    @given(triple_and_k())
    def test_redundant_regrouping_agrees_as_integer_pairs_at_real_sizes(self, query):
        n, k = query
        m_lower, m_upper = m_range(n, k)
        if m_lower <= m_upper:
            num, den = _phi_3cycle_ratio(n, k, m_lower, m_upper)
            rnum, rden = redundant_pair(n, k)
            assert den > 0 and rden > 0 and num * rden == rnum * den, (n, k)

    @staticmethod
    def check_ratios(n, k):
        num, den = _phi_3cycle_ratio(n, k, *m_range(n, k))
        assert den > 0 and Fraction(num, den) == phi_3cycle(n, k), (n, k)
        for pair in PAIRS:
            num, den = _two_cycle_ratio(*_pair_sizes(n, k, pair), k)
            assert den > 0 and Fraction(num, den) == phi_2cycle(n, k, pair), (n, k, pair)

    def test_ratios_give_the_public_values(self):
        for n in small_triples(5):
            for k in range(n.N // 2 + 1):
                self.check_ratios(n, k)

    @given(triple_and_k())
    def test_ratios_give_the_public_values_at_real_sizes(self, query):
        self.check_ratios(*query)

    def test_two_cycle_kernel_on_permuted_sizes(self):
        """The kernel takes the pair's sizes in either order, then the third."""
        for n in small_triples(8):
            for k in range(n.N // 2 + 1):
                for pair in PAIRS:
                    (c,) = {1, 2, 3} - set(pair)
                    a, b = pair
                    expected = _two_cycle_ratio(*_pair_sizes(n, k, pair), k)
                    for x, y in ((a, b), (b, a)):
                        sizes = (n.size(x), n.size(y), n.size(c))
                        assert _two_cycle_ratio(*sizes, k) == expected, (n, k, pair, x)

    def test_power_sums_match_direct_sums(self):
        for lower in range(61):
            for upper in range(lower, 61):
                expected = tuple(sum(m**e for m in range(lower, upper + 1)) for e in range(4))
                assert _power_sums(lower, upper) == expected, (lower, upper)

    def test_xi_ratio_denominator_is_positive_up_to_the_range_top(self):
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                m_lower, m_upper = m_range(n, k)
                for m in range(m_lower - 1, m_upper + 1):
                    assert _xi_ratio(n, k, m)[1] > 0, (n, k, m)


class TestSelfCheckRuns:
    """The 3-cycle self-check fails on the smallest possible disagreement."""

    @pytest.fixture
    def off_by_one_step(self, monkeypatch):
        """Shift the redundant pair by one unit of its denominator,
        6 n1 n2 n3 xd: the smallest change its value can make."""
        original = _phi_3cycle_redundant

        def shifted(n, k, m_lower, m_upper, xn, xd):
            num, den = original(n, k, m_lower, m_upper, xn, xd)
            assert den == 6 * n.n1 * n.n2 * n.n3 * xd
            return num + 1, den

        monkeypatch.setattr(sphfn.closed_form, "_phi_3cycle_redundant", shifted)

    @pytest.mark.parametrize("sizes,k", [((2, 2, 2), 1), ((3, 1, 2), 2), ((7, 5, 4), 5)])
    def test_phi_3cycle_raises(self, off_by_one_step, sizes, k):
        with pytest.raises(AssertionError, match="^3-cycle regroupings disagree"):
            phi_3cycle(BlockTriple(*sizes), k)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_eigenvalue_sum_raises_from_order_two(self, off_by_one_step, p):
        d = DegreeTriple(3, 1, 0, Fraction(-1, 2))
        with pytest.raises(AssertionError, match="^3-cycle regroupings disagree"):
            eigenvalue_sum(BlockTriple(3, 1, 2), d, 2, p)

    def test_eigenvalue_sum_skips_the_3_cycle_at_order_one(self, off_by_one_step):
        """At p = 1 the expansion has no 3-cycle term, so nothing is checked."""
        n, d = BlockTriple(3, 1, 2), DegreeTriple(3, 1, 0, Fraction(-1, 2))
        assert eigenvalue_sum(n, d, 2, 1) == eigenvalue_sum_recheck(n, d, 2, 1)


class TestSpecialValues:
    def test_agree_with_general_forms(self):
        for n in small_triples(5):
            for k in range(n.N // 2 + 1):
                shortcut = phi_special(n, k, (1, 2, 3))
                if shortcut is not None:
                    assert shortcut == phi_3cycle(n, k), (n, k)
                shortcut = phi_special(n, k, (1, 2))
                if shortcut is not None:
                    assert shortcut == phi_2cycle(n, k, (1, 2)), (n, k)

    def test_equal_blocks_display_at_every_b_up_to_60(self):
        """All three blocks of size b, every k: the display's two branches,
        k <= b and k > b, against the general 3-cycle form."""
        for b in range(1, 61):
            n = BlockTriple(b, b, b)
            for k in range(3 * b // 2 + 1):
                assert phi_special(n, k) == phi_3cycle(n, k), (b, k)

    @given(st.data())
    def test_equal_blocks_display_up_to_b_10000(self, data):
        b = data.draw(st.integers(1, 10**4))
        k = data.draw(st.integers(0, 3 * b // 2))
        n = BlockTriple(b, b, b)
        assert phi_special(n, k) == phi_3cycle(n, k), (b, k)

    @pytest.mark.parametrize(
        "sizes,k,cycle,expected",
        [
            ((1, 4, 2), 3, (1, 2, 3), Fraction(-1, 4)),
            ((4, 1, 2), 3, (1, 2, 3), Fraction(-1, 4)),
            ((1, 1, 4), 2, (1, 2, 3), Fraction(-1, 4)),
            ((1, 2, 3), 3, (1, 2, 3), Fraction(-1, 3)),
            ((2, 2, 4), 4, (1, 2, 3), Fraction(-1, 4)),
            ((2, 2, 2), 1, (1, 2, 3), Fraction(1, 2)),
            ((2, 2, 2), 3, (1, 2, 3), Fraction(-1, 2)),
            ((1, 4, 2), 3, (1, 2), Fraction(-1, 4)),
            ((1, 1, 4), 2, (1, 2), Fraction(1)),
            ((1, 2, 3), 3, (1, 2), Fraction(1)),
        ],
    )
    def test_pinned_shortcuts(self, sizes, k, cycle, expected):
        assert phi_special(BlockTriple(*sizes), k, cycle) == expected

    def test_no_shortcut_returns_none(self):
        n = BlockTriple(2, 3, 4)
        assert phi_special(n, 2, (1, 2, 3)) is None
        assert phi_special(n, 2, (1, 2)) is None

    def test_other_pairs_have_no_shortcut(self):
        n = BlockTriple(1, 4, 2)
        assert phi_special(n, 3, (1, 3)) is None
        assert phi_special(n, 3, (2, 3)) is None
        assert phi_special(n, 3, (1,)) is None

    def test_cycle_in_any_order(self):
        """The cycle names its blocks in any order, as a set."""
        n = BlockTriple(1, 2, 4)
        assert phi_special(n, 3, (1, 2)) == Fraction(1)
        assert phi_special(n, 3, (2, 1)) == Fraction(1)
        assert phi_special(n, 3, (3, 1, 2)) == phi_special(n, 3, (1, 2, 3))

    @pytest.mark.parametrize("cycle", [(7,), (), (0, 1), (1, 4)])
    def test_rejects_a_cycle_outside_the_blocks(self, cycle):
        with pytest.raises(ValueError, match="cycle must be a nonempty subset"):
            phi_special(BlockTriple(1, 2, 4), 3, cycle)

    def test_half_degree_needs_single_invariant(self):
        """k = N/2 alone does not justify the shortcut display."""
        assert multiplicity(BlockTriple(1, 1, 4), 3) == 0
        assert phi_special(BlockTriple(1, 1, 4), 3, (1, 2, 3)) is None
        assert phi_special(BlockTriple(1, 4, 1), 3, (1, 2, 3)) is None


class TestTwoFactor:
    @pytest.mark.parametrize(
        "n1,n2,k,expected",
        [
            (3, 2, 1, Fraction(1, 6)),
            (1, 1, 1, Fraction(-1)),
            (4, 7, 0, Fraction(1)),
            (5, 5, 5, Fraction(-1, 5)),
        ],
    )
    def test_examples(self, n1, n2, k, expected):
        assert phi_2cycle_two_factor(n1, n2, k) == expected

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            phi_2cycle_two_factor(2, 3, 3)
        with pytest.raises(ValueError):
            phi_2cycle_two_factor(2, 3, -1)

    @pytest.mark.parametrize("n1,n2", [(0, 3), (3, 0)])
    def test_rejects_empty_block(self, n1, n2):
        with pytest.raises(ValueError, match=rf"\({n1}, {n2}\)"):
            phi_2cycle_two_factor(n1, n2, 0)

    def test_matches_top_eigenvalue(self):
        """The unique invariant sits at index k, so the value is its eigenvalue."""
        for n1 in range(1, 7):
            for n2 in range(1, 7):
                for k in range(min(n1, n2) + 1):
                    assert phi_2cycle_two_factor(n1, n2, k) == g2_eigenvalue(k, n1, n2)


class TestQueryDispatch:
    def test_rejects_bad_queries(self):
        n = BlockTriple(1, 1, 1)
        with pytest.raises(ValueError):
            SphericalQuery(n, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            SphericalQuery(n, 1, (2, 1))
        with pytest.raises(ValueError):
            SphericalQuery(n, 1, (1, 1))
        with pytest.raises(ValueError):
            SphericalQuery(n, 1, ())
        with pytest.raises(ValueError):
            SphericalQuery(n, 1, (1, 4))

    def test_routes_by_cycle_length(self):
        n = BlockTriple(2, 3, 2)
        assert phi_closed_form(SphericalQuery(n, 2, (2,))) == phi_identity(n, 2)
        assert phi_closed_form(SphericalQuery(n, 2, (1, 3))) == phi_2cycle(n, 2, (1, 3))
        assert phi_closed_form(SphericalQuery(n, 2, (1, 2, 3))) == phi_3cycle(n, 2)


class TestAgainstFixedPointCount:
    """k = 1 values recomputed from nothing but fixed-point counts."""

    @pytest.mark.parametrize("cycle", CYCLES)
    def test_linear_case(self, cycle):
        for n in small_triples(3):
            query = SphericalQuery(n, 1, cycle)
            assert phi_closed_form(query) == fixed_point_average(n, cycle), n

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphfn.characters import dim_two_row, multiplicity
from sphfn.core import BlockTriple
from sphfn.eigsum import (
    DegreeTriple,
    ShiftedDegrees,
    eigenvalue_sum,
    eigenvalue_sum_recheck,
    h_subset,
    kappa_zero_diagnostic,
    shifted_degrees,
)


def small_triples(max_block):
    return [
        BlockTriple(*sizes)
        for sizes in itertools.product(range(1, max_block + 1), repeat=3)
    ]


class TestDegreeTriple:
    def test_accepts_strictly_decreasing(self):
        d = DegreeTriple(5, 3, 0)
        assert d.degrees == (5, 3, 0)
        assert d.kappa == 0

    @pytest.mark.parametrize("degrees", [(1, 1, 0), (0, 1, 2), (2, 1, -1), (3, 3, 3)])
    def test_rejects_bad_degrees(self, degrees):
        with pytest.raises(ValueError):
            DegreeTriple(*degrees)

    def test_kappa_becomes_exact(self):
        d = DegreeTriple(2, 1, 0, "1/3")
        assert d.kappa == Fraction(1, 3)
        assert isinstance(d.kappa, Fraction)


class TestShiftedDegrees:
    def test_uncoupled_degrees_unchanged(self):
        sd = shifted_degrees(DegreeTriple(2, 1, 0), BlockTriple(3, 2, 4))
        assert tuple(sd) == (2, 1, 0)

    def test_unit_coupling(self):
        sd = shifted_degrees(DegreeTriple(2, 1, 0, 1), BlockTriple(1, 1, 1))
        assert tuple(sd) == (4, 2, 0)

    def test_fractional_coupling(self):
        sd = shifted_degrees(DegreeTriple(3, 2, 1, Fraction(1, 2)), BlockTriple(2, 3, 4))
        assert sd == ShiftedDegrees(Fraction(13, 2), Fraction(4), Fraction(1))

    def test_last_degree_never_shifts(self):
        for n in small_triples(3):
            sd = shifted_degrees(DegreeTriple(9, 5, 2, Fraction(7, 3)), n)
            assert sd.dt3 == 2

    def test_select(self):
        sd = ShiftedDegrees(Fraction(4), Fraction(2), Fraction(1))
        assert sd.select((1, 3)) == [4, 1]
        assert sd.select((2,)) == [2]
        assert sd.select((1, 2, 3)) == [4, 2, 1]


class TestHSubset:
    def test_degree_zero_is_one(self):
        sd = ShiftedDegrees(Fraction(4), Fraction(2), Fraction(1))
        for A in [(1,), (2, 3), (1, 2, 3)]:
            assert h_subset(sd, A, 0) == 1

    def test_single_block_powers(self):
        sd = ShiftedDegrees(Fraction(4), Fraction(3, 2), Fraction(1))
        assert h_subset(sd, (2,), 3) == Fraction(27, 8)

    def test_pair_examples(self):
        sd = ShiftedDegrees(Fraction(4), Fraction(2), Fraction(1))
        assert h_subset(sd, (1, 2), 1) == 6
        assert h_subset(sd, (1, 2), 2) == 16 + 8 + 4

    def test_matches_monomial_enumeration(self):
        sd = ShiftedDegrees(Fraction(4), Fraction(3, 2), Fraction(-1))
        for A in [(1,), (1, 2), (2, 3), (1, 2, 3)]:
            for m in range(5):
                values = sd.select(A)
                expected = sum(
                    (
                        math.prod(combo, start=Fraction(1))
                        for combo in itertools.combinations_with_replacement(values, m)
                    ),
                    Fraction(0),
                )
                assert h_subset(sd, A, m) == expected, (A, m)

    def test_empty_subset_rejected(self):
        sd = ShiftedDegrees(Fraction(4), Fraction(2), Fraction(1))
        with pytest.raises(ValueError):
            h_subset(sd, (), 2)


class TestEigenvalueSum:
    def test_rejects_nonpositive_power(self):
        n = BlockTriple(1, 1, 1)
        d = DegreeTriple(2, 1, 0)
        with pytest.raises(ValueError):
            eigenvalue_sum(n, d, 1, 0)
        with pytest.raises(ValueError):
            eigenvalue_sum_recheck(n, d, 1, 0)

    def test_pinned_value(self):
        n = BlockTriple(1, 1, 1)
        assert eigenvalue_sum(n, DegreeTriple(2, 1, 0, 1), 1, 2) == 78

    def test_uncoupled_closed_value(self):
        """At kappa = 0 only single blocks survive the subset expansion."""
        d = DegreeTriple(3, 2, 0)
        for n in small_triples(2):
            for k in range(n.N // 2 + 1):
                for p in (1, 2, 3):
                    expected = (
                        multiplicity(n, k)
                        * dim_two_row(n.N, k)
                        * sum(
                            math.factorial(n.size(a)) * d.degrees[a - 1] ** p
                            for a in (1, 2, 3)
                        )
                    )
                    assert eigenvalue_sum(n, d, k, p) == expected, (n, k, p)

    def test_two_paths_agree(self):
        """Every block triple up to 3, every k (empty multiplicity ranges
        included), p = 1 (no 3-cycle term) to 4 and six couplings."""
        for n in small_triples(3):
            for k in range(n.N // 2 + 1):
                for kappa in (0, 1, -1, Fraction(-1, 2), Fraction(2, 3), -3):
                    for degrees in ((2, 1, 0), (4, 2, 1)):
                        d = DegreeTriple(*degrees, kappa)
                        for p in range(1, 5):
                            assert eigenvalue_sum(n, d, k, p) == (
                                eigenvalue_sum_recheck(n, d, k, p)
                            ), (n, k, kappa, degrees, p)

    @pytest.mark.parametrize(
        "sizes,degrees,kappa,equal",
        [
            ((1, 1, 1), (3, 2, 0), -1, (1, 2)),
            ((1, 2, 1), (3, 2, 0), -1, (1, 3)),
            ((2, 1, 1), (5, 2, 1), -1, (2, 3)),
            ((1, 1, 1), (5, 3, 1), -2, (1, 2, 3)),
        ],
    )
    def test_two_paths_agree_at_coinciding_shifted_degrees(self, sizes, degrees, kappa, equal):
        n, d = BlockTriple(*sizes), DegreeTriple(*degrees, kappa)
        sd = shifted_degrees(d, n)
        assert len(set(sd.select(equal))) == 1, tuple(sd)
        for k in range(n.N // 2 + 1):
            for p in range(1, 7):
                assert eigenvalue_sum(n, d, k, p) == eigenvalue_sum_recheck(n, d, k, p), (k, p)

    def test_empty_multiplicity_range_gives_zero(self):
        n = BlockTriple(1, 1, 4)
        assert multiplicity(n, 3) == 0
        for p in range(1, 5):
            d = DegreeTriple(3, 2, 0, Fraction(2, 3))
            assert eigenvalue_sum(n, d, 3, p) == 0 == eigenvalue_sum_recheck(n, d, 3, p)

    @given(st.data())
    def test_two_paths_agree_at_real_sizes(self, data):
        """Blocks up to 300 and kappa with denominators up to 6, so that the
        common denominator q^p of the integer kernel is often above 1."""
        n = BlockTriple(*data.draw(st.tuples(*[st.integers(1, 300)] * 3)))
        k = data.draw(st.integers(0, n.N // 2))
        degrees = sorted(data.draw(st.sets(st.integers(0, 60), min_size=3, max_size=3)))
        kappa = data.draw(st.fractions(-20, 20, max_denominator=6))
        p = data.draw(st.integers(1, 6))
        d = DegreeTriple(*reversed(degrees), kappa)
        assert eigenvalue_sum(n, d, k, p) == eigenvalue_sum_recheck(n, d, k, p)

    @pytest.mark.parametrize("sizes,k,p", [((1, 1, 1), 1, 1), ((2, 1, 2), 2, 2), ((1, 2, 2), 1, 3)])
    def test_polynomial_in_kappa(self, sizes, k, p):
        """The trace has degree at most p + 1 in the coupling.

        A (p + 2)-th finite difference of any such polynomial vanishes, so
        evaluating at p + 3 consecutive integers certifies the bound exactly.
        """
        n = BlockTriple(*sizes)
        order = p + 2
        values = [
            eigenvalue_sum(n, DegreeTriple(3, 2, 0, kappa), k, p)
            for kappa in range(order + 1)
        ]
        difference = sum(
            (-1) ** j * math.comb(order, j) * values[order - j] for j in range(order + 1)
        )
        assert difference == 0


class TestKappaZeroDiagnostic:
    def test_small_blocks_agree(self):
        diag = kappa_zero_diagnostic(BlockTriple(2, 2, 5), DegreeTriple(2, 1, 0), 2, 2)
        assert diag.formula == 810
        assert diag.reference == 810
        assert diag.agree

    def test_large_block_with_degree_disagrees(self):
        diag = kappa_zero_diagnostic(BlockTriple(3, 1, 1), DegreeTriple(2, 1, 0), 2, 2)
        assert diag.formula == 125
        assert diag.reference == 65
        assert not diag.agree

    def test_agreement_pattern(self):
        """Both candidates coincide exactly when n! = n on every block that
        carries a nonzero degree."""
        d = DegreeTriple(2, 1, 0)
        for n in small_triples(3):
            for k in range(n.N // 2 + 1):
                diag = kappa_zero_diagnostic(n, d, k, 2)
                should_agree = all(
                    math.factorial(n.size(a)) == n.size(a)
                    for a in (1, 2, 3)
                    if d.degrees[a - 1] != 0
                ) or multiplicity(n, k) == 0
                assert diag.agree == should_agree, (n, k)

    def test_ignores_coupling_on_input(self):
        """The diagnostic always evaluates at kappa = 0."""
        n = BlockTriple(2, 2, 2)
        with_coupling = kappa_zero_diagnostic(n, DegreeTriple(2, 1, 0, 5), 1, 2)
        without = kappa_zero_diagnostic(n, DegreeTriple(2, 1, 0), 1, 2)
        assert with_coupling == without

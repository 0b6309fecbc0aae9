import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sphfn.eigsum
from sphfn.characters import dim_two_row, multiplicity
from sphfn.closed_form import phi_3cycle
from sphfn.core import BlockTriple, complete_homogeneous
from sphfn.eigsum import (
    DegreeTriple,
    ShiftedDegrees,
    eigenvalue_sum,
    eigenvalue_sum_recheck,
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

    @pytest.mark.parametrize(
        "degrees, message",
        [
            ((2.5, 1, 0), "degrees must be ints, got (2.5, 1, 0)"),
            ((2, 1.0, 0), "degrees must be ints, got (2, 1.0, 0)"),
            ((2, True, 0), "degrees must be ints, got (2, True, 0)"),
            ((2, 1, False), "degrees must be ints, got (2, 1, False)"),
            (("2", 1, 0), "degrees must be ints, got ('2', 1, 0)"),
            ((Fraction(2), 1, 0), "degrees must be ints, got (Fraction(2, 1), 1, 0)"),
        ],
    )
    def test_rejects_degrees_that_are_not_ints(self, degrees, message):
        with pytest.raises(ValueError) as excinfo:
            DegreeTriple(*degrees, 1)
        assert str(excinfo.value) == message

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
            assert complete_homogeneous(sd.select(A), 0) == 1

    def test_single_block_powers(self):
        sd = ShiftedDegrees(Fraction(4), Fraction(3, 2), Fraction(1))
        assert complete_homogeneous(sd.select((2,)), 3) == Fraction(27, 8)

    def test_pair_examples(self):
        sd = ShiftedDegrees(Fraction(4), Fraction(2), Fraction(1))
        assert complete_homogeneous(sd.select((1, 2)), 1) == 6
        assert complete_homogeneous(sd.select((1, 2)), 2) == 16 + 8 + 4

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
                assert complete_homogeneous(sd.select(A), m) == expected, (A, m)


class TestEigenvalueSum:
    def test_rejects_nonpositive_power(self):
        n = BlockTriple(1, 1, 1)
        d = DegreeTriple(2, 1, 0)
        with pytest.raises(ValueError):
            eigenvalue_sum(n, d, 1, 0)
        with pytest.raises(ValueError):
            eigenvalue_sum_recheck(n, d, 1, 0)

    @pytest.mark.parametrize(
        "p, message",
        [
            (2.0, "p must be an int, got 2.0"),
            (True, "p must be an int, got True"),
            (Fraction(2), "p must be an int, got Fraction(2, 1)"),
            ("2", "p must be an int, got '2'"),
            (0, "need p >= 1, got 0"),
            (-3, "need p >= 1, got -3"),
        ],
    )
    def test_rejects_powers_that_are_not_positive_ints(self, p, message):
        n, d = BlockTriple(2, 3, 4), DegreeTriple(2, 1, 0, 1)
        for evaluate in (eigenvalue_sum, kappa_zero_diagnostic):
            with pytest.raises(ValueError) as excinfo:
                evaluate(n, d, 2, p)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "p, message",
        [
            (2.0, "p must be an int, got 2.0"),
            (True, "p must be an int, got True"),
            (Fraction(2), "p must be an int, got Fraction(2, 1)"),
            (0, "need p >= 1, got 0"),
        ],
    )
    def test_recheck_rejects_powers_that_are_not_positive_ints(self, p, message):
        """The independent path takes its powers through the same rule."""
        with pytest.raises(ValueError) as excinfo:
            eigenvalue_sum_recheck(BlockTriple(2, 3, 4), DegreeTriple(2, 1, 0, 1), 2, p)
        assert str(excinfo.value) == message

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
        """Every block triple up to 3 and the three orders of (1, 1, 4), every
        k, p = 1 (no 3-cycle term) to 6 and six couplings: h_{p-2}(a1, a2, a3)
        up to degree 4 and the one common denominator, at every p that
        closed_stream draws.

        Blocks up to 3 have no empty multiplicity range; (1, 1, 4) at k = 3
        has one. 3-cycle values of 0 on a nonempty range occur at blocks up
        to 3, where the kernel's denominator is still the common one.
        """
        triples = small_triples(3) + [BlockTriple(*s) for s in ((1, 1, 4), (1, 4, 1), (4, 1, 1))]
        assert [n for n in triples for k in range(n.N // 2 + 1) if multiplicity(n, k) == 0] == (
            triples[-3:]
        )
        for sizes in ((1, 2, 2), (2, 1, 2), (2, 2, 1)):
            n = BlockTriple(*sizes)
            assert n in triples and multiplicity(n, 1) > 0 and phi_3cycle(n, 1) == 0, sizes
        for n in triples:
            for k in range(n.N // 2 + 1):
                for kappa in (0, 1, -1, Fraction(-1, 2), Fraction(2, 3), -3):
                    for degrees in ((2, 1, 0), (4, 2, 1)):
                        d = DegreeTriple(*degrees, kappa)
                        for p in range(1, 7):
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


class TestFactorialCache:
    """The block factorials come from a bounded cache; a value never depends
    on what it holds."""

    KAPPAS = (0, 1, Fraction(-1, 2), Fraction(7, 3))

    @staticmethod
    def cases():
        for n in small_triples(4):
            for k in range(n.N // 2 + 1):
                for kappa in TestFactorialCache.KAPPAS:
                    for p in range(1, 5):
                        yield n, DegreeTriple(4, 2, 1, kappa), k, p

    def test_cache_is_bounded(self):
        assert sphfn.eigsum._factorial.cache_info().maxsize is not None

    def test_cleared_cache(self):
        for case in self.cases():
            sphfn.eigsum._factorial.cache_clear()
            assert eigenvalue_sum(*case) == eigenvalue_sum_recheck(*case), case

    def test_warm_cache(self):
        cases = list(self.cases())
        for case in cases:
            eigenvalue_sum(*case)
        hits = sphfn.eigsum._factorial.cache_info().hits
        for case in cases:
            assert eigenvalue_sum(*case) == eigenvalue_sum_recheck(*case), case
        assert sphfn.eigsum._factorial.cache_info().hits == hits + 3 * len(cases)

    def test_one_entry_cache(self, monkeypatch):
        one_entry = functools.lru_cache(maxsize=1)(math.factorial)
        monkeypatch.setattr(sphfn.eigsum, "_factorial", one_entry)
        for case in self.cases():
            assert eigenvalue_sum(*case) == eigenvalue_sum_recheck(*case), case
        assert one_entry.cache_info().currsize == 1
        assert one_entry.cache_info().misses > 0


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

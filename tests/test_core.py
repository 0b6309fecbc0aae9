import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphfn.characters import dim_two_row, m_range, multiplicity, two_row
from sphfn.closed_form import (
    SphericalQuery,
    phi_2cycle,
    phi_2cycle_two_factor,
    phi_3cycle,
    phi_identity,
    phi_special,
)
from sphfn.eigsum import DegreeTriple, eigenvalue_sum
from sphfn.hahn import CoeffTable, HahnContext
from sphfn.invariant_calculus import apply_rho_g2
from sphfn.oracle import (
    coeff_table_from_invariant,
    invariants_in_Vk,
    phi_character_oracle,
    phi_module_oracle,
    two_factor_character_oracle,
)
from sphfn.core import (
    BlockTriple,
    Partition,
    Permutation,
    binom,
    complete_homogeneous,
    compose,
    cycle_type,
    embed_cycle,
    partitions,
    pochhammer,
    young_subgroup_elements,
)
from sphfn.verify import SUITES, run_suite

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


@st.composite
def permutation_strategy(draw, max_n: int = 8) -> Permutation:
    n = draw(st.integers(min_value=1, max_value=max_n))
    return Permutation(draw(st.permutations(list(range(1, n + 1)))))


class TestRationals:
    """The scalar type must behave as an exact field."""

    @given(rationals, rationals, rationals)
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a != 0:
            assert a * (1 / a) == 1

    @given(rationals)
    def test_normalization_idempotent(self, a):
        again = Fraction(a.numerator, a.denominator)
        assert (again.numerator, again.denominator) == (a.numerator, a.denominator)
        assert again.denominator > 0


class TestPartition:
    def test_validates_order(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((2.5, 1), "partition parts must be ints, got (2.5, 1)"),
            ((2.0, 1), "partition parts must be ints, got (2.0, 1)"),
            (("2", "1"), "partition parts must be ints, got ('2', '1')"),
            ((True,), "partition parts must be ints, got (True,)"),
            ((1, -1.5), "partition parts must be ints, got (1, -1.5)"),
        ],
    )
    def test_rejects_parts_that_are_not_ints(self, parts, message):
        """Parts are taken as given, never coerced with int()."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Partition(parts)

    def test_counts(self):
        assert len(list(partitions(5))) == 7
        assert len(list(partitions(6))) == 11
        assert list(partitions(0)) == [Partition(())]

    @given(st.integers(min_value=0, max_value=9))
    def test_enumeration_is_exact(self, n):
        seen = list(partitions(n))
        assert len(seen) == len(set(seen))
        assert all(p.weight == n for p in seen)


class TestPermutation:
    def test_composition_convention(self):
        # (1 3) after (1 2) is the 3-cycle 1 -> 2 -> 3 -> 1
        p = Permutation.from_cycle([1, 3], 3)
        q = Permutation.from_cycle([1, 2], 3)
        assert compose(p, q) == Permutation((2, 3, 1))
        assert cycle_type(compose(p, q)) == Partition((3,))

    @given(permutation_strategy())
    def test_inverse(self, p):
        assert compose(p, p.inverse()) == Permutation.identity(p.N)
        assert compose(p.inverse(), p) == Permutation.identity(p.N)

    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))),
            st.permutations(list(range(1, n + 1))),
        )
    ))
    def test_cycle_type_conjugacy(self, pair):
        g, h = Permutation(pair[0]), Permutation(pair[1])
        assert cycle_type(compose(g, h)) == cycle_type(compose(h, g))

    def test_cycle_type_examples(self):
        assert cycle_type(Permutation.identity(4)) == Partition((1, 1, 1, 1))
        assert cycle_type(Permutation.from_cycle([1, 2], 3)) == Partition((2, 1))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    @pytest.mark.parametrize(
        "images, message",
        [
            ([1.5, 2.7], "not a permutation of [1, 2]: (1.5, 2.7)"),
            ([2.0, 1.0], "not a permutation of [1, 2]: (2.0, 1.0)"),
            (("2", "1"), "not a permutation of [1, 2]: ('2', '1')"),
            ([True], "not a permutation of [1, 1]: (True,)"),
            ([2, True], "not a permutation of [1, 2]: (2, True)"),
            (["a", 1], "not a permutation of [1, 2]: ('a', 1)"),
        ],
    )
    def test_rejects_entries_that_are_not_ints(self, images, message):
        """Entries are taken as given, never coerced with int()."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Permutation(images)


class TestArithmeticHelpers:
    def test_pochhammer(self):
        assert pochhammer(5, 0) == 1
        assert pochhammer(2, 3) == 24
        assert pochhammer(-3, 5) == 0
        assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
        with pytest.raises(ValueError):
            pochhammer(1, -1)

    def test_binom(self):
        assert binom(6, 2) == 15
        assert binom(4, -1) == 0
        assert binom(0, 0) == 1
        assert binom(3, 5) == 0

    @given(
        st.lists(rationals, min_size=0, max_size=3),
        st.integers(min_value=0, max_value=6),
    )
    def test_complete_homogeneous_matches_enumeration(self, values, degree):
        expected = Fraction(0)
        for combo in itertools.combinations_with_replacement(range(len(values)), degree):
            term = Fraction(1)
            for i in combo:
                term *= values[i]
            expected += term
        assert complete_homogeneous(values, degree) == expected

    def test_complete_homogeneous_examples(self):
        assert complete_homogeneous([Fraction(7)], 0) == 1
        a, b = Fraction(2), Fraction(3)
        assert complete_homogeneous([a, b], 2) == a * a + a * b + b * b
        assert complete_homogeneous([Fraction(5)], 3) == 125


class TestBlocks:
    def test_block_triple(self):
        n = BlockTriple(2, 3, 4)
        assert n.N == 9
        assert list(n.interval(1)) == [1, 2]
        assert list(n.interval(2)) == [3, 4, 5]
        assert list(n.interval(3)) == [6, 7, 8, 9]
        with pytest.raises(ValueError):
            BlockTriple(5, 5, 0)

    def test_subgroup_enumeration(self):
        assert list(young_subgroup_elements(BlockTriple(1, 1, 1))) == [
            Permutation.identity(3)
        ]
        two = list(young_subgroup_elements(BlockTriple(2, 1, 1)))
        assert len(two) == 2
        assert Permutation((2, 1, 3, 4)) in two

    @given(st.tuples(*(st.integers(min_value=1, max_value=3),) * 3))
    def test_subgroup_count_and_stabilization(self, sizes):
        n = BlockTriple(*sizes)
        elements = list(young_subgroup_elements(n))
        import math

        assert len(elements) == len(set(elements))
        assert len(elements) == math.prod(math.factorial(s) for s in sizes)
        for h in elements:
            for block in (1, 2, 3):
                interval = set(n.interval(block))
                assert {h(i) for i in interval} == interval

    def test_embed_cycle(self):
        n = BlockTriple(2, 3, 4)
        assert embed_cycle((1,), n) == Permutation.identity(9)
        assert embed_cycle((1, 2), n) == Permutation.from_cycle([1, 3], 9)
        tiny = BlockTriple(1, 1, 1)
        assert embed_cycle((1, 2, 3), tiny) == Permutation.from_cycle([1, 2, 3], 3)
        with pytest.raises(ValueError):
            embed_cycle((), n)
        with pytest.raises(ValueError):
            embed_cycle((1, 4), n)


TINY = BlockTriple(1, 1, 1)  # N = 3, so k = 2 is the first k with 2k > N


def _k_rule_cases(k, message: str) -> list:
    degrees = DegreeTriple(2, 1, 0)
    identity = Permutation.identity(3)
    calls = {
        "two_row": lambda: two_row(3, k),
        "dim_two_row": lambda: dim_two_row(3, k),
        "m_range": lambda: m_range(TINY, k),
        "multiplicity": lambda: multiplicity(TINY, k),
        "phi_identity": lambda: phi_identity(TINY, k),
        "HahnContext": lambda: HahnContext(TINY, k, 0),
        "SphericalQuery": lambda: SphericalQuery(TINY, k, (1, 2)),
        "phi_2cycle": lambda: phi_2cycle(TINY, k),
        "phi_3cycle": lambda: phi_3cycle(TINY, k),
        "phi_special": lambda: phi_special(TINY, k),
        "eigenvalue_sum": lambda: eigenvalue_sum(TINY, degrees, k, 1),
        "phi_character_oracle": lambda: phi_character_oracle(TINY, k, identity),
        "two_factor_character_oracle": lambda: two_factor_character_oracle(1, 2, k),
        "phi_2cycle_two_factor": lambda: phi_2cycle_two_factor(1, 2, k),
        "invariants_in_Vk": lambda: invariants_in_Vk(TINY, k),
        "phi_module_oracle": lambda: phi_module_oracle(TINY, k, identity),
    }
    return [pytest.param(call, message, id=f"{name}-k={k!r}") for name, call in calls.items()]


def _bound_rule_cases(bound, message: str) -> list:
    identity = Permutation.identity(3)
    calls = {
        "phi_character_oracle": lambda: phi_character_oracle(TINY, 1, identity, bound),
        "two_factor_character_oracle": lambda: two_factor_character_oracle(1, 2, 1, bound),
        "invariants_in_Vk": lambda: invariants_in_Vk(TINY, 1, bound),
        "coeff_table_from_invariant": lambda: coeff_table_from_invariant(
            invariants_in_Vk(TINY, 1)[0], TINY, bound
        ),
        "phi_module_oracle": lambda: phi_module_oracle(TINY, 1, identity, bound),
        "run_suite": lambda: run_suite("eigen", 1, bound),
    }
    for suite in SUITES:
        calls[f"{suite}_suite"] = lambda suite=suite: next(SUITES[suite](1, bound))
    return [
        pytest.param(call, message, id=f"{name}-bound={bound!r}") for name, call in calls.items()
    ]


RULE_CASES = (
    _k_rule_cases(-1, "need 0 <= 2k <= N, got k = -1, N = 3")
    + _k_rule_cases(2, "need 0 <= 2k <= N, got k = 2, N = 3")
    # k is an int before its range is tested; a bool is not one.
    + _k_rule_cases(1.5, "k must be an int, got 1.5")
    + _k_rule_cases(True, "k must be an int, got True")
    + _k_rule_cases(0.0, "k must be an int, got 0.0")
    + [
        # N is an int >= 0 wherever a caller gives N itself, tested before k.
        pytest.param(lambda: two_row(4.0, 1), "N must be an int >= 0, got 4.0", id="two_row-N"),
        pytest.param(lambda: two_row(-1, 0), "N must be an int >= 0, got -1", id="two_row-N<0"),
        pytest.param(lambda: dim_two_row(True, 0), "N must be an int >= 0, got True",
                     id="dim_two_row-N=True"),
        pytest.param(lambda: dim_two_row(4.5, 1), "N must be an int >= 0, got 4.5",
                     id="dim_two_row-N"),
        pytest.param(lambda: BlockTriple(1, 0, 1), "block sizes must be >= 1, got (1, 0, 1)",
                     id="BlockTriple"),
        pytest.param(lambda: phi_2cycle_two_factor(0, 1, 0), "block sizes must be >= 1, got (0, 1)",
                     id="phi_2cycle_two_factor"),
        pytest.param(lambda: two_factor_character_oracle(1, 0, 0),
                     "block sizes must be >= 1, got (1, 0)", id="two_factor_character_oracle"),
        pytest.param(lambda: BlockTriple(2.0, 3, 4), "block sizes must be ints, got (2.0, 3, 4)",
                     id="BlockTriple-float"),
        pytest.param(lambda: BlockTriple(True, 1, 1), "block sizes must be ints, got (True, 1, 1)",
                     id="BlockTriple-bool"),
        pytest.param(lambda: BlockTriple(1, 2, "3"), "block sizes must be ints, got (1, 2, '3')",
                     id="BlockTriple-str"),
        pytest.param(lambda: phi_2cycle_two_factor(2.0, 3, 1),
                     "block sizes must be ints, got (2.0, 3)", id="phi_2cycle_two_factor-float"),
        pytest.param(lambda: phi_2cycle_two_factor(1, True, 0),
                     "block sizes must be ints, got (1, True)", id="phi_2cycle_two_factor-bool"),
        pytest.param(lambda: two_factor_character_oracle(2.0, 3, 1),
                     "block sizes must be ints, got (2.0, 3)", id="two_factor_character_oracle-float"),
        pytest.param(lambda: two_factor_character_oracle(True, 1, 0),
                     "block sizes must be ints, got (True, 1)", id="two_factor_character_oracle-bool"),
        pytest.param(lambda: phi_2cycle(TINY, 1, (1, 1)),
                     "pair must be two distinct blocks, got (1, 1)", id="phi_2cycle"),
        pytest.param(lambda: apply_rho_g2(CoeffTable(TINY, 1, {}), (1, 1)),
                     "pair must be two distinct blocks, got (1, 1)", id="apply_rho_g2"),
        pytest.param(lambda: embed_cycle((4,), TINY),
                     "cycle must be a nonempty subset of {1, 2, 3}, got (4,)", id="embed_cycle"),
        pytest.param(lambda: SphericalQuery(TINY, 1, (4,)),
                     "cycle must be a nonempty subset of {1, 2, 3}, got (4,)", id="SphericalQuery"),
        pytest.param(lambda: phi_character_oracle(TINY, 1, Permutation.identity(4)),
                     "permutation acts on 4 points, blocks cover 3", id="phi_character_oracle-points"),
        pytest.param(lambda: phi_module_oracle(TINY, 1, Permutation.identity(4)),
                     "permutation acts on 4 points, blocks cover 3", id="phi_module_oracle-points"),
        # Arguments of the wrong type are refused with ValueError, not AttributeError.
        pytest.param(lambda: phi_character_oracle(TINY, 1, (1, 2, 3)),
                     "g must be a Permutation, got (1, 2, 3)", id="phi_character_oracle-g"),
        pytest.param(lambda: phi_module_oracle(TINY, 1, (1, 2, 3)),
                     "g must be a Permutation, got (1, 2, 3)", id="phi_module_oracle-g"),
        pytest.param(lambda: coeff_table_from_invariant({(1,): 1}, TINY),
                     "vec must be a VkVector, got {(1,): 1}", id="coeff_table_from_invariant-vec"),
        pytest.param(lambda: phi_character_oracle((1, 1, 1), 1, Permutation.identity(3)),
                     "n must be a BlockTriple, got (1, 1, 1)", id="phi_character_oracle-n"),
        pytest.param(lambda: phi_module_oracle((1, 1, 1), 1, Permutation.identity(3)),
                     "n must be a BlockTriple, got (1, 1, 1)", id="phi_module_oracle-n"),
        pytest.param(lambda: invariants_in_Vk((1, 1, 1), 1),
                     "n must be a BlockTriple, got (1, 1, 1)", id="invariants_in_Vk-n"),
        pytest.param(lambda: coeff_table_from_invariant(invariants_in_Vk(TINY, 1)[0], (1, 1, 1)),
                     "n must be a BlockTriple, got (1, 1, 1)", id="coeff_table_from_invariant-n"),
        # The arithmetic helpers' index arguments are ints; a bool is not one.
        pytest.param(lambda: complete_homogeneous([1, 2], True), "degree must be an int, got True",
                     id="complete_homogeneous-degree=True"),
        pytest.param(lambda: complete_homogeneous([1, 2], 1.0), "degree must be an int, got 1.0",
                     id="complete_homogeneous-degree=1.0"),
        pytest.param(lambda: complete_homogeneous([1, 2], -1), "need degree >= 0, got -1",
                     id="complete_homogeneous-degree=-1"),
        pytest.param(lambda: pochhammer(3, True), "j must be an int, got True", id="pochhammer-j=True"),
        pytest.param(lambda: pochhammer(Fraction(1, 2), 2.0), "j must be an int, got 2.0",
                     id="pochhammer-j=2.0"),
        pytest.param(lambda: pochhammer(1, -1), "need j >= 0, got -1", id="pochhammer-j=-1"),
        pytest.param(lambda: binom(True, 1), "n must be an int, got True", id="binom-n=True"),
        pytest.param(lambda: binom(5.0, 2), "n must be an int, got 5.0", id="binom-n=5.0"),
        pytest.param(lambda: binom(5, 2.0), "k must be an int, got 2.0", id="binom-k=2.0"),
        pytest.param(lambda: binom(5, False), "k must be an int, got False", id="binom-k=False"),
    ]
    + _bound_rule_cases(1e6, "bound must be an int, got 1000000.0")
    + _bound_rule_cases(True, "bound must be an int, got True")
    + _bound_rule_cases("10", "bound must be an int, got '10'")
)


@pytest.mark.parametrize("call, message", RULE_CASES)
def test_input_rule_has_one_wording(call, message):
    """Every entry point rejects bad input with the message of the rule's owner in core."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_cached_shape_does_not_skip_the_k_rule():
    """two_row caches its shapes; a k equal to a cached int k but not an
    int itself is still refused, whatever ran before."""
    assert two_row(4, 0) == Partition((4,)) and two_row(4, 1) == Partition((3, 1))
    for k in (False, True, 0.0, 1.0):
        with pytest.raises(ValueError, match=f"^{re.escape(f'k must be an int, got {k!r}')}$"):
            two_row(4, k)

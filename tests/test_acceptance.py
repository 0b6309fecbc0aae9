"""End-to-end acceptance sweep: every guarantee of the package, checked exactly.

Each test covers one numbered criterion and prints a single PASS line when it
holds; every comparison is exact rational equality. The character oracle
counts coset cycle types by conjugacy class, so the whole file runs in
seconds; its slowest parts are the module oracle's linear algebra and the
Hahn tables.
"""
import itertools
import math
from fractions import Fraction

from sphfn.characters import centralizer_order, m_range, mn_character, multiplicity
from sphfn.closed_form import (
    SphericalQuery,
    g3_diagonal_coeff,
    phi_2cycle,
    phi_2cycle_two_factor,
    phi_3cycle,
    phi_closed_form,
    phi_identity,
    phi_special,
)
from sphfn.core import BlockTriple, embed_cycle, partitions
from sphfn.eigsum import DegreeTriple, eigenvalue_sum, eigenvalue_sum_recheck, kappa_zero_diagnostic
from sphfn.hahn import HahnContext, psi_table
from sphfn.invariant_calculus import (
    apply_rho_g2,
    apply_rho_g3,
    check_difference_equation,
    extract_leading_coeff,
    g2_eigenvalue,
)
from sphfn.oracle import (
    coeff_table_from_invariant,
    invariants_in_Vk,
    phi_character_oracle,
    phi_module_oracle,
    two_factor_character_oracle,
)

PAIRS = ((1, 2), (1, 3), (2, 3))
ALL_CYCLES = ((1,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


def block_sweep(max_block):
    for sizes in itertools.product(range(1, max_block + 1), repeat=3):
        yield BlockTriple(*sizes)


def k_values(n):
    return range(n.N // 2 + 1)


def report(number, label):
    print(f"criterion {number:2d} ({label}): PASS")


def test_criterion_01_twocycle_oracle_equivalence():
    for n in block_sweep(4):
        for k in k_values(n):
            for pair in PAIRS:
                closed = phi_2cycle(n, k, pair)
                oracle = phi_character_oracle(n, k, embed_cycle(pair, n))
                assert closed == oracle, (n, k, pair, closed, oracle)
    report(1, "2-cycle closed form vs character oracle, blocks <= 4")


def test_criterion_02_threecycle_oracle_equivalence():
    for n in block_sweep(4):
        for k in k_values(n):
            closed = phi_3cycle(n, k)
            oracle = phi_character_oracle(n, k, embed_cycle((1, 2, 3), n))
            assert closed == oracle, (n, k, closed, oracle)
    report(2, "3-cycle closed form vs character oracle, blocks <= 4")


def test_criterion_03_triple_method_agreement():
    for n in block_sweep(3):
        for k in k_values(n):
            for cycle in ALL_CYCLES:
                g = embed_cycle(cycle, n)
                closed = phi_closed_form(SphericalQuery(n, k, cycle))
                character = phi_character_oracle(n, k, g)
                module = phi_module_oracle(n, k, g)
                assert closed == character == module, (n, k, cycle)
    report(3, "closed form = character oracle = module oracle, blocks <= 3")


def test_criterion_04_eigen_relation():
    for n in block_sweep(6):
        for k in k_values(n):
            lower, upper = m_range(n, k)
            for m in range(lower, upper + 1):
                table = psi_table(HahnContext(n, k, m))
                lam = g2_eigenvalue(m, n.n1, n.n2)
                assert apply_rho_g2(table, (1, 2)) == table.scaled(lam), (n, k, m)
    report(4, "first-pair action is diagonal with the stated eigenvalue, blocks <= 6")


def test_criterion_05_difference_equation_membership():
    for n in block_sweep(4):
        for k in k_values(n):
            lower, upper = m_range(n, k)
            for m in range(lower, upper + 1):
                assert check_difference_equation(psi_table(HahnContext(n, k, m))), (n, k, m)
            for vec in invariants_in_Vk(n, k):
                table = coeff_table_from_invariant(vec, n)
                assert check_difference_equation(table), (n, k)
    report(5, "Hahn tables and module-oracle invariants satisfy the recurrence, blocks <= 4")


def test_criterion_06_diagonal_coefficient_closed_form():
    for n in block_sweep(5):
        for k in k_values(n):
            lower, upper = m_range(n, k)
            diagonal_sum = Fraction(0)
            for m in range(lower, upper + 1):
                image = apply_rho_g3(psi_table(HahnContext(n, k, m)))
                coeff = extract_leading_coeff(image, m)
                assert coeff == g3_diagonal_coeff(n, k, m), (n, k, m)
                diagonal_sum += coeff
            assert diagonal_sum == phi_3cycle(n, k), (n, k)
    report(6, "extracted 3-cycle diagonal matches zeta/xi form and sums to Phi, blocks <= 5")


def test_criterion_07_special_value_displays():
    # Three parameter choices per shortcut family; each value is checked
    # against the display, the general formula, and the character oracle.
    sum_cases = {
        "k = n1 + n3": (
            [((1, 4, 2), 3), ((1, 4, 1), 2), ((2, 5, 1), 3)],
            lambda n: Fraction(-1, n.n2),
            lambda n: Fraction(-1, n.n2),
        ),
        "k = n2 + n3": (
            [((4, 1, 2), 3), ((4, 1, 1), 2), ((5, 2, 1), 3)],
            lambda n: Fraction(-1, n.n1),
            lambda n: Fraction(-1, n.n1),
        ),
        "k = n1 + n2": (
            [((1, 1, 4), 2), ((1, 2, 5), 3), ((1, 3, 6), 4)],
            lambda n: Fraction(-1, n.n3),
            lambda n: Fraction(1),
        ),
    }
    for label, (choices, display3, display2) in sum_cases.items():
        for sizes, k in choices:
            n = BlockTriple(*sizes)
            for cycle, display, general in (
                ((1, 2, 3), display3(n), phi_3cycle(n, k)),
                ((1, 2), display2(n), phi_2cycle(n, k, (1, 2))),
            ):
                shortcut = phi_special(n, k, cycle)
                oracle = phi_character_oracle(n, k, embed_cycle(cycle, n))
                assert shortcut == display == general == oracle, (label, sizes, k, cycle)

    # k = N/2 with a one-dimensional invariant space; none of these k equal a
    # sum of two block sizes, so the half-degree display itself is exercised.
    for sizes, k in [((3, 3, 2), 4), ((2, 3, 3), 4), ((3, 3, 4), 5)]:
        n = BlockTriple(*sizes)
        assert 2 * k == n.N and multiplicity(n, k) == 1
        assert not any(k == n.size(a) + n.size(b) for a, b in PAIRS)
        for cycle, general in (((1, 2, 3), phi_3cycle(n, k)), ((1, 2), phi_2cycle(n, k))):
            shortcut = phi_special(n, k, cycle)
            oracle = phi_character_oracle(n, k, embed_cycle(cycle, n))
            assert shortcut is not None
            assert shortcut == general == oracle, (sizes, k, cycle)

    # equal blocks, both branches of the displayed value
    for sizes, k in [((1, 1, 1), 1), ((2, 2, 2), 1), ((2, 2, 2), 2), ((3, 3, 3), 3)]:
        n = BlockTriple(*sizes)
        assert k <= n.n1
        shortcut = phi_special(n, k, (1, 2, 3))
        oracle = phi_character_oracle(n, k, embed_cycle((1, 2, 3), n))
        assert shortcut is not None
        assert shortcut == phi_3cycle(n, k) == oracle, (sizes, k)
    for sizes, k in [((3, 3, 3), 4), ((4, 4, 4), 5), ((5, 5, 5), 6), ((5, 5, 5), 7)]:
        n = BlockTriple(*sizes)
        assert k > n.n1
        shortcut = phi_special(n, k, (1, 2, 3))
        oracle = phi_character_oracle(n, k, embed_cycle((1, 2, 3), n), bound=2 * 10**6)
        assert shortcut is not None
        assert shortcut == phi_3cycle(n, k) == oracle, (sizes, k)
    report(7, "every shortcut display vs general formula and oracle, 3+ choices each")


def test_criterion_08_two_factor_case():
    for N in range(2, 11):
        for n1 in range(1, N):
            n2 = N - n1
            for k in range(min(n1, n2) + 1):
                closed = phi_2cycle_two_factor(n1, n2, k)
                oracle = two_factor_character_oracle(n1, n2, k)
                assert closed == oracle, (n1, n2, k)
    report(8, "two-block closed form vs brute-force oracle, N <= 10")


def test_criterion_09_integrality():
    for n in block_sweep(4):
        for k in k_values(n):
            for a, b in PAIRS:
                scaled = n.size(a) * n.size(b) * phi_2cycle(n, k, (a, b))
                assert scaled.denominator == 1, (n, k, (a, b))
            scaled = n.n1 * n.n2 * n.n3 * phi_3cycle(n, k)
            assert scaled.denominator == 1, (n, k)
    report(9, "block-size products clear all denominators, blocks <= 4")


def test_criterion_10_character_infrastructure():
    for N in range(1, 7):
        shapes = list(partitions(N))
        classes = [(mu, centralizer_order(mu)) for mu in shapes]
        table = {
            (lam.parts, mu.parts): mn_character(lam, mu)
            for lam in shapes
            for mu in shapes
        }
        group_order = math.factorial(N)
        for lam in shapes:
            for nu in shapes:
                inner = sum(
                    Fraction(table[lam.parts, mu.parts] * table[nu.parts, mu.parts], z)
                    for mu, z in classes
                )
                assert inner == (1 if lam == nu else 0), (N, lam, nu)
        for mu, z_mu in classes:
            for nu, _ in classes:
                inner = sum(
                    table[lam.parts, mu.parts] * table[lam.parts, nu.parts]
                    for lam in shapes
                )
                assert inner == (z_mu if mu == nu else 0), (N, mu, nu)
        assert sum(group_order // z for _, z in classes) == group_order
    for n in block_sweep(4):
        for k in k_values(n):
            averaged = phi_character_oracle(n, k, embed_cycle((1,), n))
            assert averaged == multiplicity(n, k), (n, k)
    report(10, "character tables orthogonal (N <= 6); multiplicity = averaged trace")


def test_criterion_11_pinned_values():
    n = BlockTriple(1, 1, 1)
    assert phi_2cycle(n, 1) == 0
    assert phi_3cycle(n, 1) == -1
    assert phi_identity(n, 1) == 2
    n = BlockTriple(2, 2, 2)
    assert phi_2cycle(n, 1) == 1
    assert phi_3cycle(n, 1) == Fraction(1, 2)
    assert phi_3cycle(BlockTriple(1, 4, 2), 3) == Fraction(-1, 4)
    report(11, "hand-pinned reference values")


def test_criterion_12_eigsum_agreement():
    kappas = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3))
    for n in block_sweep(3):
        for k in k_values(n):
            for kappa in kappas:
                d = DegreeTriple(2, 1, 0, kappa)
                for p in range(1, 5):
                    direct = eigenvalue_sum(n, d, k, p)
                    recheck = eigenvalue_sum_recheck(n, d, k, p)
                    assert direct == recheck, (n, k, kappa, p)
    # The uncoupled consistency diagnostic is reported, not asserted: the two
    # candidates agree exactly when every block carrying a nonzero degree has
    # n! = n, i.e. size 1 or 2.
    for sizes, k in [((1, 1, 1), 1), ((2, 2, 2), 2), ((3, 1, 1), 2), ((2, 2, 5), 2)]:
        n = BlockTriple(*sizes)
        diag = kappa_zero_diagnostic(n, DegreeTriple(2, 1, 0), k, 2)
        print(
            f"kappa-zero diagnostic n={sizes} k={k} p=2: "
            f"formula {diag.formula} vs reference {diag.reference} (agree={diag.agree})"
        )
    report(12, "both trace evaluation paths agree on the kappa grid; diagnostic emitted")

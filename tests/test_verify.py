import pytest

import sphfn.verify
from sphfn.hahn import CoeffTable
from sphfn.oracle import OracleBoundExceeded
from sphfn.verify import SUITES, SweepReport, block_triples, run_suite


class TestSweepReport:
    def test_clean_report(self):
        report = SweepReport("demo", comparisons=7)
        assert report.passed
        assert report.summary() == "demo: 7 comparisons, 0 failures"

    def test_failing_report_shows_first_counterexample(self):
        report = SweepReport("demo", comparisons=3, failures=["a != b", "c != d"])
        assert not report.passed
        summary = report.summary()
        assert "demo: 3 comparisons, 2 failures" in summary
        assert "first counterexample: a != b" in summary
        assert "c != d" not in summary


class TestSweeps:
    def test_block_triples_count(self):
        assert sum(1 for _ in block_triples(2)) == 8

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suites_pass_on_small_blocks(self, name):
        report = run_suite(name, max_block=2)
        assert report.suite == name
        assert report.comparisons > 0
        assert report.passed, report.summary()

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense", max_block=1)

    def test_bound_refusal_propagates(self):
        with pytest.raises(OracleBoundExceeded):
            run_suite("twocycle", max_block=2, bound=1)


class TestCounterexamples:
    """One mismatch injected at n = (1, 1, 1), k = 1 through a name the suite
    looks up at call time: the summary counts it and quotes it first."""

    @pytest.mark.parametrize(
        "suite, summary",
        [
            ("twocycle", "twocycle: 6 comparisons, 3 failures\n"
             "  first counterexample: n=(1, 1, 1) k=1 cycle=(1, 2): closed 0 != oracle 1"),
            ("threecycle", "threecycle: 2 comparisons, 1 failures\n"
             "  first counterexample: n=(1, 1, 1) k=1 cycle=(1, 2, 3): closed -1 != oracle 0"),
        ],
    )
    def test_cycle_suites(self, monkeypatch, suite, summary):
        oracle = sphfn.verify.phi_character_oracle
        monkeypatch.setattr(
            sphfn.verify, "phi_character_oracle", lambda n, k, g, bound: oracle(n, k, g, bound) + k
        )
        assert run_suite(suite, max_block=1).summary() == summary

    def test_eigen(self, monkeypatch):
        eigenvalue = sphfn.verify.g2_eigenvalue
        monkeypatch.setattr(
            sphfn.verify, "g2_eigenvalue", lambda m, a, b: eigenvalue(m, a, b) + (m == 1)
        )
        assert run_suite("eigen", max_block=1).summary() == (
            "eigen: 3 comparisons, 1 failures\n"
            "  first counterexample: n=(1, 1, 1) k=1 m=1: averaged 2-cycle action is not scalar"
        )

    def test_diffeq_basis_tables(self, monkeypatch):
        psi_table = sphfn.verify.psi_table

        def broken(ctx):
            if (ctx.k, ctx.m) == (1, 1):
                return CoeffTable(ctx.n, 1, {(0, 0): 1})
            return psi_table(ctx)

        monkeypatch.setattr(sphfn.verify, "psi_table", broken)
        assert run_suite("diffeq", max_block=1).summary() == (
            "diffeq: 5 comparisons, 1 failures\n"
            "  first counterexample: n=(1, 1, 1) k=1 m=1: basis table fails the difference equation"
        )

    def test_diffeq_module_invariants(self, monkeypatch):
        read_table = sphfn.verify.coeff_table_from_invariant

        def broken(vec, n):
            table = read_table(vec, n)
            return CoeffTable(n, 1, {(0, 0): 1}) if table.k == 1 else table

        monkeypatch.setattr(sphfn.verify, "coeff_table_from_invariant", broken)
        assert run_suite("diffeq", max_block=1).summary() == (
            "diffeq: 5 comparisons, 1 failures\n"
            "  first counterexample: n=(1, 1, 1) k=1 vector 0: fails the difference equation"
        )

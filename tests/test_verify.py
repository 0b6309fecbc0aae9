import pytest

from sphfn.oracle import OracleBoundExceeded
from sphfn.verify import SUITES, SweepReport, block_triples, run_suite, run_suites


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

    def test_run_suites_preserves_order(self):
        reports = run_suites(["twocycle", "diffeq"], max_block=1)
        assert [r.suite for r in reports] == ["twocycle", "diffeq"]

    def test_bound_refusal_propagates(self):
        with pytest.raises(OracleBoundExceeded):
            run_suite("twocycle", max_block=2, bound=1)

import csv
import io
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

import sphfn.cli
import sphfn.verify
from sphfn.cli import main, render
from sphfn.core import BlockTriple
from sphfn.eigsum import DegreeTriple, eigenvalue_sum, kappa_zero_diagnostic


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def digit_limit():
    """The default int-to-str digit limit, where the interpreter has one.

    Yields a function that renders an int whatever the limit, for building
    expected strings.
    """
    if not hasattr(sys, "get_int_max_str_digits"):
        yield str
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)

    def unlimited_str(value: int) -> str:
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(4300)

    try:
        yield unlimited_str
    finally:
        sys.set_int_max_str_digits(saved)


def exact_text(value: Fraction, to_str) -> str:
    return f"{to_str(value.numerator)}/{to_str(value.denominator)}"


class TestRender:
    def test_always_slash_form(self):
        from fractions import Fraction

        assert render(Fraction(0)) == "0/1"
        assert render(Fraction(-1)) == "-1/1"
        assert render(Fraction(2, 4)) == "1/2"
        assert render(Fraction(5, -10)) == "-1/2"

    def test_values_past_the_digit_limit(self, digit_limit):
        """Numerators and denominators of 5,000 digits print exactly, and the
        interpreter's limit is what it was before."""
        value = Fraction(10**5000 + 7, 3 * 10**4999 + 1)
        before = getattr(sys, "get_int_max_str_digits", lambda: None)()
        text = render(value)
        assert text == exact_text(value, digit_limit)
        assert len(text) == 5001 + 1 + 5000
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == before

    def test_interpreter_without_a_limit(self, monkeypatch):
        for name in ("get_int_max_str_digits", "set_int_max_str_digits"):
            monkeypatch.delattr(sys, name, raising=False)
        assert render(Fraction(-3, 6)) == "-1/2"
        assert render(Fraction(10**50)) == f"{10**50}/1"


class TestCompute:
    def test_closed_form_json(self, runner):
        result = runner.invoke(
            main, ["compute", "--n", "1,1,1", "--k", "1", "--cycle", "1,2,3"]
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record == {
            "n": [1, 1, 1],
            "k": 1,
            "cycle": [1, 2, 3],
            "method": "closed_form",
            "value": "-1/1",
            "multiplicity": 2,
        }

    def test_all_methods_agree(self, runner):
        result = runner.invoke(
            main,
            ["compute", "--n", "1,1,1", "--k", "1", "--cycle", "1,2,3", "--method", "all"],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["agreement"] is True
        assert record["value"] == "-1/1"
        assert list(record) == [
            "n", "k", "cycle", "method", "value", "multiplicity", "agreement",
        ]

    @pytest.mark.parametrize(
        "fmt, stdout",
        [
            ("json", '{"n": [2, 2, 2], "k": 1, "cycle": [1, 2], "method": "closed_form", '
                     '"value": "1/1", "multiplicity": 2, "agreement": false}\n'),
            ("csv", 'n1,n2,n3,k,cycle,method,value,multiplicity,agreement\n'
                    '2,2,2,1,"1,2",closed_form,1/1,2,false\n'),
        ],
    )
    def test_disagreement_exits_one(self, runner, monkeypatch, fmt, stdout):
        """A disagreeing oracle is reported, with exit 1."""
        monkeypatch.setattr(sphfn.cli, "phi_character_oracle", lambda n, k, g, bound: Fraction(7))
        result = runner.invoke(
            main,
            ["compute", "--n", "2,2,2", "--k", "1", "--cycle", "1,2", "--method", "all",
             "--format", fmt],
        )
        assert result.exit_code == 1, result.output
        assert result.stdout == stdout
        assert result.stderr == ""

    def test_fractional_value(self, runner):
        result = runner.invoke(
            main,
            ["compute", "--n", "1,4,2", "--k", "3", "--cycle", "1,2,3", "--method", "all"],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["value"] == "-1/4"

    def test_zero_renders_with_denominator(self, runner):
        result = runner.invoke(
            main, ["compute", "--n", "1,1,1", "--k", "1", "--cycle", "1,2"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["value"] == "0/1"

    @pytest.mark.parametrize("method,name", [("oracle", "character_oracle"), ("module", "module_oracle")])
    def test_oracle_methods(self, runner, method, name):
        result = runner.invoke(
            main,
            ["compute", "--n", "2,2,2", "--k", "1", "--cycle", "1,2", "--method", method],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["method"] == name
        assert record["value"] == "1/1"

    def test_csv_matches_json(self, runner):
        args = ["compute", "--n", "1,4,2", "--k", "3", "--cycle", "1,2,3", "--method", "all"]
        as_json = json.loads(runner.invoke(main, args).output)
        csv_result = runner.invoke(main, args + ["--format", "csv"])
        assert csv_result.exit_code == 0, csv_result.output
        header, row = csv_result.output.strip().split("\n")
        assert header == "n1,n2,n3,k,cycle,method,value,multiplicity,agreement"
        assert '"1,2,3"' in row
        (parsed,) = csv.DictReader(io.StringIO(csv_result.output))
        assert [int(parsed[f"n{i}"]) for i in (1, 2, 3)] == as_json["n"]
        assert int(parsed["k"]) == as_json["k"]
        assert parsed["cycle"] == "1,2,3"
        assert parsed["value"] == as_json["value"]
        assert parsed["agreement"] == "true"

    def test_csv_blank_agreement_for_single_method(self, runner):
        result = runner.invoke(
            main,
            ["compute", "--n", "1,1,1", "--k", "1", "--cycle", "1,2", "--format", "csv"],
        )
        assert result.exit_code == 0, result.output
        (parsed,) = csv.DictReader(io.StringIO(result.output))
        assert parsed["agreement"] == ""

    def test_round_trip_reproduces_value(self, runner):
        first = json.loads(
            runner.invoke(
                main, ["compute", "--n", "2,3,2", "--k", "3", "--cycle", "1,3"]
            ).output
        )
        again = runner.invoke(
            main,
            [
                "compute",
                "--n", ",".join(str(x) for x in first["n"]),
                "--k", str(first["k"]),
                "--cycle", ",".join(str(b) for b in first["cycle"]),
            ],
        )
        assert json.loads(again.output)["value"] == first["value"]

    @pytest.mark.parametrize(
        "args, stderr",
        [
            (["--n", "0,1,1", "--k", "0", "--cycle", "1"],
             "error: block sizes must be >= 1, got (0, 1, 1)\n"),
            (["--n", "1,1,1", "--k", "2", "--cycle", "1,2"],
             "error: need 0 <= 2k <= N, got k = 2, N = 3\n"),
            (["--n", "1,1,1", "--k", "1", "--cycle", "4"],
             "error: cycle must be a nonempty subset of 1,2,3, got '4'\n"),
            (["--n", "1,1", "--k", "1", "--cycle", "1"],
             "error: need three comma-separated sizes, got '1,1'\n"),
            (["--n", "a,b,c", "--k", "1", "--cycle", "1"],
             "error: invalid literal for int() with base 10: 'a'\n"),
            (["--n", "1,1,1", "--k", "-1", "--cycle", "1"],
             "error: need 0 <= 2k <= N, got k = -1, N = 3\n"),
        ],
    )
    def test_invalid_input_exits_two(self, runner, args, stderr):
        result = runner.invoke(main, ["compute"] + args)
        assert result.exit_code == 2, result.output
        assert "error:" in result.output
        assert result.stderr == stderr

    def test_refused_oracle_exits_three(self, runner):
        result = runner.invoke(
            main,
            [
                "compute", "--n", "2,2,2", "--k", "1", "--cycle", "1,2",
                "--method", "oracle", "--oracle-bound", "1",
            ],
        )
        assert result.exit_code == 3, result.output

    def test_all_skips_refused_oracles(self, runner):
        """With a tiny bound the oracles bow out and no agreement is claimed."""
        result = runner.invoke(
            main,
            [
                "compute", "--n", "2,2,2", "--k", "1", "--cycle", "1,2",
                "--method", "all", "--oracle-bound", "1",
            ],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert "agreement" not in record
        assert record["value"] == "1/1"

    @pytest.mark.parametrize(
        "args, stderr",
        [
            (
                ["--n", "1000,1000,1000", "--k", "3", "--method", "oracle"],
                "error: subgroup order 1000! 1000! 1000! exceeds bound 1000000"
                " for n = (1000, 1000, 1000)\n",
            ),
            (
                ["--n", "10000,10000,10000", "--k", "12000", "--method", "module"],
                "error: monomial space size C(30000,12000) exceeds bound 1000000\n",
            ),
        ],
    )
    def test_refusal_past_the_digit_limit_exits_three(self, runner, digit_limit, args, stderr):
        """A refused size too long to print is named by its formula."""
        result = runner.invoke(main, ["compute", "--cycle", "1,2"] + args)
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        assert result.stderr == stderr

    def test_refusal_within_the_digit_limit_prints_the_size(self, runner, digit_limit):
        """(600!)^3 has 4,224 digits, within the limit, and prints in full."""
        result = runner.invoke(
            main, ["compute", "--n", "600,600,600", "--k", "3", "--cycle", "1,2", "--method", "oracle"]
        )
        assert result.exit_code == 3, result.output
        order = digit_limit(math.factorial(600) ** 3)
        assert result.stderr == (
            f"error: subgroup order {order} exceeds bound 1000000 for n = (600, 600, 600)\n"
        )

    def test_all_skips_oracles_refused_past_the_digit_limit(self, runner, digit_limit):
        result = runner.invoke(
            main, ["compute", "--n", "1000,1000,1000", "--k", "3", "--cycle", "1,2", "--method", "all"]
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert "agreement" not in record
        assert record["method"] == "closed_form"
        assert record["value"] == "498501/125000"


class TestVerify:
    def test_single_suite(self, runner):
        result = runner.invoke(main, ["verify", "--max-block", "1", "--suite", "twocycle"])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("twocycle: ")
        assert "0 failures" in result.output

    def test_all_suites(self, runner):
        result = runner.invoke(main, ["verify", "--max-block", "2"])
        assert result.exit_code == 0, result.output
        assert result.output == (
            "diffeq: 61 comparisons, 0 failures\n"
            "eigen: 37 comparisons, 0 failures\n"
            "threecycle: 24 comparisons, 0 failures\n"
            "twocycle: 72 comparisons, 0 failures\n"
        )

    def test_bad_max_block(self, runner):
        result = runner.invoke(main, ["verify", "--max-block", "0"])
        assert result.exit_code == 2, result.output

    def test_refused_bound_exits_three(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--max-block", "2", "--suite", "twocycle", "--oracle-bound", "1"],
        )
        assert result.exit_code == 3, result.output

    def test_refusal_is_immediate(self, runner):
        # Refused at n = (1, 1, 2), the first triple over the bound, after
        # the six comparisons at (1, 1, 1); the rest of the sweep is never built.
        result = runner.invoke(
            main,
            ["verify", "--max-block", "40", "--suite", "twocycle", "--oracle-bound", "1"],
        )
        assert result.exit_code == 3, result.output
        assert "n = (1, 1, 2)" in result.stderr

    @pytest.mark.parametrize("suite", ["diffeq", "all"])
    def test_module_refusal_precedes_the_basis_tables(self, runner, suite):
        # The diffeq suite refuses at n = (1, 1, 1), k = 1 without first
        # checking the Hahn tables of every triple up to the block cap.
        result = runner.invoke(
            main,
            ["verify", "--max-block", "40", "--suite", suite, "--oracle-bound", "1"],
        )
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        assert result.stderr == "error: monomial space size C(3,1) = 3 exceeds bound 1\n"

    def test_failing_suite_exits_one(self, runner, monkeypatch):
        def broken(max_block, bound):
            yield "injected mismatch"

        monkeypatch.setitem(sphfn.verify.SUITES, "twocycle", broken)
        result = runner.invoke(main, ["verify", "--max-block", "1", "--suite", "twocycle"])
        assert result.exit_code == 1, result.output
        assert "injected mismatch" in result.output


class TestEigsum:
    def test_basic_value(self, runner):
        result = runner.invoke(
            main,
            [
                "eigsum", "--n", "1,1,1", "--k", "1", "--d", "2,1,0",
                "--kappa", "1", "--order", "2",
            ],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["value"] == "78/1"
        assert record["kappa"] == "1/1"
        assert record["d"] == [2, 1, 0]
        assert "diagnostic" not in record

    def test_default_kappa_is_zero(self, runner):
        result = runner.invoke(
            main, ["eigsum", "--n", "2,2,2", "--k", "1", "--d", "2,1,0", "--order", "1"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["kappa"] == "0/1"

    def test_fraction_kappa(self, runner):
        result = runner.invoke(
            main,
            [
                "eigsum", "--n", "2,1,2", "--k", "2", "--d", "3,2,0",
                "--kappa", "-1/2", "--order", "3",
            ],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["kappa"] == "-1/2"

    @pytest.mark.parametrize(
        "args, stderr",
        [
            (["--n", "1,1,1", "--k", "1", "--d", "1,1,0", "--order", "2"],
             "error: need d1 > d2 > d3 >= 0, got (1, 1, 0)\n"),
            (["--n", "1,1,1", "--k", "1", "--d", "2,1,0", "--order", "0"],
             "error: need p >= 1, got 0\n"),
            (["--n", "1,1,1", "--k", "1", "--d", "2,1,0", "--order", "2", "--kappa", "x"],
             "error: cannot parse rational 'x'\n"),
            (["--n", "1,1,1", "--k", "2", "--d", "2,1,0", "--order", "2"],
             "error: need 0 <= 2k <= N, got k = 2, N = 3\n"),
        ],
    )
    def test_invalid_input_exits_two(self, runner, args, stderr):
        result = runner.invoke(main, ["eigsum"] + args)
        assert result.exit_code == 2, result.output
        assert result.stderr == stderr

    def test_diagnostic_disagreement_reported(self, runner):
        result = runner.invoke(
            main,
            [
                "eigsum", "--n", "3,1,1", "--k", "2", "--d", "2,1,0",
                "--order", "2", "--diagnose",
            ],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["diagnostic"] == {
            "formula": "125/1",
            "reference": "65/1",
            "agree": False,
        }

    def test_diagnostic_agreement(self, runner):
        result = runner.invoke(
            main,
            [
                "eigsum", "--n", "2,2,5", "--k", "2", "--d", "2,1,0",
                "--order", "2", "--diagnose",
            ],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["diagnostic"]["agree"] is True


class TestLargeTraceSums:
    ARGS = [
        "eigsum", "--n", "700,700,700", "--k", "10", "--d", "3,2,1",
        "--kappa", "1", "--order", "2",
    ]
    N, D, K, P = BlockTriple(700, 700, 700), DegreeTriple(3, 2, 1, 1), 10, 2

    def test_value_past_the_digit_limit(self, runner, digit_limit):
        """The value has over 5,000 digits; it prints exactly, exit 0."""
        result = runner.invoke(main, self.ARGS)
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        expected = eigenvalue_sum(self.N, self.D, self.K, self.P)
        assert len(digit_limit(expected.numerator)) > 4300
        assert record["value"] == exact_text(expected, digit_limit)

    def test_diagnostic_past_the_digit_limit(self, runner, digit_limit):
        result = runner.invoke(main, self.ARGS + ["--diagnose"])
        assert result.exit_code == 0, result.output
        diagnostic = kappa_zero_diagnostic(self.N, self.D, self.K, self.P)
        assert json.loads(result.output)["diagnostic"] == {
            "formula": exact_text(diagnostic.formula, digit_limit),
            "reference": exact_text(diagnostic.reference, digit_limit),
            "agree": diagnostic.agree,
        }


class TestFuzz:
    """Seeded random argv, good and bad tokens mixed: every one ends in a
    documented exit code, never in an exception other than SystemExit."""

    BAD = ["", "1/0", "-1", "1.5", "1,1,1,1", "x", "0"]
    OPTIONS = {
        "compute": {
            "--n": ["1,1,1", "2,1,1", "1,2,2", "2,2,2", "3,2,1"],
            "--k": ["0", "1", "2", "3"],
            "--cycle": ["1", "1,2", "1,3", "2,3", "1,2,3", "3,2", "4", "1,1"],
            "--method": ["closed", "oracle", "module", "all", "exact"],
            "--format": ["json", "csv", "xml"],
            "--oracle-bound": ["1", "10", "1000000"],
        },
        "verify": {
            "--max-block": ["1", "2"],
            "--suite": ["twocycle", "threecycle", "eigen", "diffeq", "all", "none"],
            "--oracle-bound": ["1", "10", "1000000"],
        },
        "eigsum": {
            "--n": ["1,1,1", "2,2,2", "3,1,2", "2,2,5"],
            "--k": ["0", "1", "2"],
            "--d": ["2,1,0", "3,1,0", "0,1,2", "1,1,0"],
            "--kappa": ["0", "1/2", "-3", "2"],
            "--order": ["1", "2", "3"],
        },
    }

    @staticmethod
    def argv(rng):
        command = rng.choice(sorted(TestFuzz.OPTIONS))
        pairs = []
        for option, good in TestFuzz.OPTIONS[command].items():
            if rng.random() < 0.95:
                pool = TestFuzz.BAD if rng.random() < 0.1 else good
                pairs.append([option, rng.choice(pool)])
        if command == "eigsum" and rng.random() < 0.3:
            pairs.append(["--diagnose"])
        if rng.random() < 0.05:
            pairs.append(["--bogus", "1"])
        rng.shuffle(pairs)
        return [command] + [token for pair in pairs for token in pair]

    @pytest.mark.parametrize("seed", range(3))
    def test_exit_codes(self, runner, seed):
        rng = random.Random(seed)
        for _ in range(500):
            args = self.argv(rng)
            result = runner.invoke(main, args)
            assert result.exit_code in (0, 1, 2, 3), (args, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                args,
                result.exception,
            )
            assert "Traceback" not in result.output, args

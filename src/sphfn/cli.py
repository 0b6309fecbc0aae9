"""Command-line front end: single queries, verification sweeps, trace sums.

Exit codes: 0 success, 1 an exact comparison failed, 2 invalid input,
3 a brute-force oracle was refused by the size bound. Values are always
rendered as "p/q" in lowest terms, never as decimals.
"""
from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction

import click

from .characters import multiplicity
from .closed_form import SphericalQuery, phi_closed_form
from .core import BlockTriple, embed_cycle
from .eigsum import DegreeTriple, eigenvalue_sum, kappa_zero_diagnostic
from .oracle import (
    DEFAULT_BOUND,
    OracleBoundExceeded,
    phi_character_oracle,
    phi_module_oracle,
)
from .verify import SUITES, run_suite

# --method choice -> (record name, evaluation of a query under an oracle bound)
METHODS = {
    "closed": ("closed_form", lambda q, bound: phi_closed_form(q)),
    "oracle": (
        "character_oracle",
        lambda q, bound: phi_character_oracle(q.n, q.k, embed_cycle(q.cycle, q.n), bound),
    ),
    "module": (
        "module_oracle",
        lambda q, bound: phi_module_oracle(q.n, q.k, embed_cycle(q.cycle, q.n), bound),
    ),
}

ORACLE_BOUND = click.option(
    "--oracle-bound",
    type=int,
    default=DEFAULT_BOUND,
    show_default=True,
    help="Cap on brute-force size: the subgroup order n1! n2! n3! for the "
    "character oracle, C(N, k) for the module oracle. Past it, exit 3.",
)


def render(value: Fraction) -> str:
    """Always "p/q", including "p/1"; lowest terms come from Fraction itself.

    Exact at any size: where the interpreter limits the digits of an
    int-to-str conversion, the limit is lifted for this one and then restored.
    """
    value = Fraction(value)
    # 0 means no limit, as does an interpreter without the setting.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return f"{value.numerator}/{value.denominator}"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_triple(text: str, noun: str) -> list[int]:
    """Three comma-separated integers; ValueError names the noun otherwise."""
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"need three comma-separated {noun}, got {text!r}")
    return parts


def _parse_blocks(text: str) -> BlockTriple:
    return BlockTriple(*_parse_triple(text, "sizes"))


def _parse_cycle(text: str) -> tuple[int, ...]:
    blocks = tuple(sorted({int(x) for x in text.split(",")}))
    if not blocks or any(b not in (1, 2, 3) for b in blocks):
        raise ValueError(f"cycle must be a nonempty subset of 1,2,3, got {text!r}")
    return blocks


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse rational {text!r}") from None


def _emit_record(record: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(record))
        return
    fields = ["n1", "n2", "n3", "k", "cycle", "method", "value", "multiplicity", "agreement"]
    flat = {
        "n1": record["n"][0],
        "n2": record["n"][1],
        "n3": record["n"][2],
        "k": record["k"],
        "cycle": ",".join(str(b) for b in record["cycle"]),
        "method": record["method"],
        "value": record["value"],
        "multiplicity": record["multiplicity"],
        "agreement": "" if "agreement" not in record else str(record["agreement"]).lower(),
    }
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerow(flat)
    click.echo(buffer.getvalue().rstrip("\n"))


@click.group()
def main():
    """Exact averaged two-row characters of block subgroups at short cycles."""


@main.command()
@click.option("--n", "n_text", required=True, help="Block sizes n1,n2,n3.")
@click.option("--k", type=int, required=True, help="Shape parameter, 2k <= N.")
@click.option("--cycle", "cycle_text", required=True, help="Blocks the cycle runs through, e.g. 1,2,3.")
@click.option(
    "--method",
    type=click.Choice([*METHODS, "all"]),
    default="closed",
    show_default=True,
)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@ORACLE_BOUND
def compute(n_text: str, k: int, cycle_text: str, method: str, fmt: str, oracle_bound: int):
    """Evaluate one averaged character value."""
    try:
        n = _parse_blocks(n_text)
        cycle = _parse_cycle(cycle_text)
        query = SphericalQuery(n, k, cycle)
    except ValueError as exc:
        _fail(str(exc), 2)
    # "all" reports the closed form, and agreement with every oracle that runs.
    names = list(METHODS) if method == "all" else [method]
    values = []
    for name in names:
        try:
            values.append(METHODS[name][1](query, oracle_bound))
        except OracleBoundExceeded as exc:
            if method != "all":
                _fail(str(exc), 3)
    record = {
        "n": list(n.sizes),
        "k": k,
        "cycle": list(cycle),
        "method": METHODS[names[0]][0],
        "value": render(values[0]),
        "multiplicity": multiplicity(n, k),
    }
    if len(values) >= 2:
        record["agreement"] = len(set(values)) == 1
    _emit_record(record, fmt)
    if not record.get("agreement", True):
        sys.exit(1)


@main.command()
@click.option("--max-block", type=int, default=3, show_default=True)
@click.option(
    "--suite",
    type=click.Choice(sorted(SUITES) + ["all"]),
    default="all",
    show_default=True,
)
@ORACLE_BOUND
def verify(max_block: int, suite: str, oracle_bound: int):
    """Run exhaustive exact sweeps of the closed forms against the oracles.

    Comparisons run serially in a fixed order; the first one whose oracle
    exceeds --oracle-bound stops the run with exit code 3.
    """
    if max_block < 1:
        _fail(f"--max-block must be >= 1, got {max_block}", 2)
    names = sorted(SUITES) if suite == "all" else [suite]
    try:
        reports = [run_suite(name, max_block, oracle_bound) for name in names]
    except OracleBoundExceeded as exc:
        _fail(str(exc), 3)
    for report in reports:
        click.echo(report.summary())
    if not all(report.passed for report in reports):
        sys.exit(1)


@main.command()
@click.option("--n", "n_text", required=True, help="Block sizes n1,n2,n3.")
@click.option("--k", type=int, required=True, help="Shape parameter, 2k <= N.")
@click.option("--d", "d_text", required=True, help="Degrees d1,d2,d3, strictly decreasing.")
@click.option("--kappa", "kappa_text", default="0", show_default=True, help='Coupling, e.g. "1/2".')
@click.option("--order", "p", type=int, required=True, help="Operator power p >= 1.")
@click.option("--diagnose", is_flag=True, help="Also emit the kappa = 0 consistency diagnostic.")
def eigsum(n_text: str, k: int, d_text: str, kappa_text: str, p: int, diagnose: bool):
    """Evaluate the cycle-expansion trace for one degree triple."""
    try:
        n = _parse_blocks(n_text)
        kappa = _parse_rational(kappa_text)
        degrees = DegreeTriple(*_parse_triple(d_text, "degrees"), kappa=kappa)
        value = eigenvalue_sum(n, degrees, k, p)
        diagnostic = kappa_zero_diagnostic(n, degrees, k, p) if diagnose else None
    except ValueError as exc:
        _fail(str(exc), 2)
    record = {
        "n": list(n.sizes),
        "k": k,
        "d": list(degrees.degrees),
        "kappa": render(kappa),
        "order": p,
        "value": render(value),
    }
    if diagnostic is not None:
        record["diagnostic"] = {
            "formula": render(diagnostic.formula),
            "reference": render(diagnostic.reference),
            "agree": diagnostic.agree,
        }
    click.echo(json.dumps(record))


if __name__ == "__main__":
    main()

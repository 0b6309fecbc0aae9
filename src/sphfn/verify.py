"""Exhaustive small-parameter sweeps comparing closed forms with the oracles.

Each suite enumerates every block triple up to a size cap, runs one exact
comparison per query, and reports the counterexamples verbatim. A sweep that
returns no failures is a machine-checked proof of the formulas on that range.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional

from .characters import m_range
from .closed_form import phi_2cycle, phi_3cycle
from .core import BlockTriple, check_bound, embed_cycle
from .hahn import CoeffTable, HahnContext, psi_table
from .invariant_calculus import (
    apply_rho_g2,
    check_difference_equation,
    g2_eigenvalue,
)
from .oracle import (
    DEFAULT_BOUND,
    _check_space_bound,
    coeff_table_from_invariant,
    invariants_in_Vk,
    phi_character_oracle,
)

__all__ = ["SweepReport", "SUITES", "run_suite"]

PAIRS = ((1, 2), (1, 3), (2, 3))


@dataclass
class SweepReport:
    suite: str
    comparisons: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        line = f"{self.suite}: {self.comparisons} comparisons, {len(self.failures)} failures"
        if self.failures:
            line += f"\n  first counterexample: {self.failures[0]}"
        return line


def block_triples(max_block: int) -> Iterator[BlockTriple]:
    for sizes in itertools.product(range(1, max_block + 1), repeat=3):
        yield BlockTriple(*sizes)


def _k_values(n: BlockTriple) -> range:
    return range(0, n.N // 2 + 1)


def _verify_cycles(
    cycles: tuple, closed: Callable, max_block: int, bound: int
) -> Iterator[Optional[str]]:
    """closed(n, k, cycle) against the character oracle at each of the cycles,
    each embedded once per triple; k outermost, then the cycles in order."""
    check_bound(bound)
    for n in block_triples(max_block):
        embedded = [(cycle, embed_cycle(cycle, n)) for cycle in cycles]
        for k in _k_values(n):
            for cycle, g in embedded:
                value = closed(n, k, cycle)
                oracle = phi_character_oracle(n, k, g, bound)
                if value != oracle:
                    yield f"n={n.sizes} k={k} cycle={cycle}: closed {value} != oracle {oracle}"
                else:
                    yield None


def _psi_tables(max_block: int) -> Iterator[tuple[BlockTriple, int, int, CoeffTable]]:
    for n in block_triples(max_block):
        for k in _k_values(n):
            m_lower, m_upper = m_range(n, k)
            for m in range(m_lower, m_upper + 1):
                yield n, k, m, psi_table(HahnContext(n, k, m))


def verify_eigen(max_block: int, bound: int) -> Iterator[Optional[str]]:
    """Each Hahn table against its averaged 2-cycle image; no oracle runs,
    but the bound is still held to its rule."""
    check_bound(bound)
    for n, k, m, table in _psi_tables(max_block):
        if apply_rho_g2(table) != table.scaled(g2_eigenvalue(m, n.n1, n.n2)):
            yield f"n={n.sizes} k={k} m={m}: averaged 2-cycle action is not scalar"
        else:
            yield None


def _module_failure(n: BlockTriple, k: int, bound: int) -> Optional[str]:
    for i, vec in enumerate(invariants_in_Vk(n, k, bound)):
        if not check_difference_equation(coeff_table_from_invariant(vec, n)):
            return f"n={n.sizes} k={k} vector {i}: fails the difference equation"
    return None


def verify_diffeq(max_block: int, bound: int) -> Iterator[Optional[str]]:
    """The Hahn basis tables first, then the module oracle's invariants.

    A module query over the bound is refused before the tables are built, at
    the same (n, k) and with the same error as the module half would raise.
    """
    check_bound(bound)
    for n in block_triples(max_block):
        for k in _k_values(n):
            _check_space_bound(n.N, k, bound)
    for n, k, m, table in _psi_tables(max_block):
        if not check_difference_equation(table):
            yield f"n={n.sizes} k={k} m={m}: basis table fails the difference equation"
        else:
            yield None
    for n in block_triples(max_block):
        for k in _k_values(n):
            yield _module_failure(n, k, bound)


# Each suite yields one entry per comparison, in a fixed order: None when it
# agrees, the counterexample otherwise. Each checks its bound (core.check_bound)
# before its first entry. The closed forms are looked up at call time, so a
# patched or wrapped module attribute is the one that runs.
SUITES: dict[str, Callable[[int, int], Iterator[Optional[str]]]] = {
    "twocycle": partial(_verify_cycles, PAIRS, lambda n, k, pair: phi_2cycle(n, k, pair)),
    "threecycle": partial(_verify_cycles, ((1, 2, 3),), lambda n, k, _: phi_3cycle(n, k)),
    "eigen": verify_eigen,
    "diffeq": verify_diffeq,
}


def run_suite(name: str, max_block: int = 3, bound: int = DEFAULT_BOUND) -> SweepReport:
    """Run one suite serially; an oracle refusal propagates at the first
    triple over the bound."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    report = SweepReport(name)
    for failure in SUITES[name](max_block, bound):
        report.comparisons += 1
        if failure:
            report.failures.append(failure)
    return report

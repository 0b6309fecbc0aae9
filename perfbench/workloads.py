"""The benchmark workloads: seeded inputs, the timed work, and the gate.

Each workload is a fixed list of items made from the seed. An item is one
top-level call into the public API of sphfn; `run` times every item on its
own and the whole list, and `gate` checks every output afterwards against an
independent path. Calls go through module attributes looked up at call time,
so the wrappers of a traced run see them.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import random
import re
import time
from fractions import Fraction

import sphfn.cli
from sphfn import characters, closed_form, core, eigsum, hahn, invariant_calculus, oracle
from sphfn.closed_form import SphericalQuery
from sphfn.core import BlockTriple
from sphfn.eigsum import DegreeTriple

import speed

PAIRS = ((1, 2), (1, 3), (2, 3))
CYCLES = ((1,), (1, 2), (1, 3), (2, 3), (1, 2, 3))
BLOCK_PERMUTATIONS = list(itertools.permutations(range(3)))[1:]

# -- closed_stream -----------------------------------------------------------

STREAM_QUERIES = 20_000
# One query of each type per triple, with phi_2cycle on each of the three
# pairs: 3 queries in 8 are phi_2cycle, so the median falls among them.
STREAM_KINDS = ("identity", "twocycle", "threecycle", "special", "two_factor", "eigsum")
STREAM_WEIGHTS = (1, 3, 1, 1, 1, 1)
STREAM_MAX_BLOCK = 300


def _random_triple(rng: random.Random, low: int = 1, high: int = STREAM_MAX_BLOCK) -> BlockTriple:
    return BlockTriple(rng.randint(low, high), rng.randint(low, high), rng.randint(low, high))


def _single_invariant(sizes, k) -> bool:
    """Whether the multiplicity range of (sizes, k) is a single point."""
    n1, n2, n3 = sizes
    return max(0, k - n3) == min(n1, n2, k, n1 + n2 - k)


def _special_query(rng: random.Random):
    """A triple, k and cycle for which phi_special has a shortcut display."""
    cycle = rng.choice(((1, 2, 3), (1, 2)))
    case = rng.choice(("sum", "half", "equal") if cycle == (1, 2, 3) else ("sum", "half"))
    if case == "sum":
        a, b = rng.randint(1, STREAM_MAX_BLOCK // 2), rng.randint(1, STREAM_MAX_BLOCK // 2)
        sizes = [a, b, rng.randint(a + b, STREAM_MAX_BLOCK)]
        rng.shuffle(sizes)
        return BlockTriple(*sizes), a + b, cycle
    if case == "equal":
        b = rng.randint(1, STREAM_MAX_BLOCK)
        return BlockTriple(b, b, b), rng.randint(0, 3 * b // 2), cycle
    while True:
        n = _random_triple(rng)
        if n.N % 2 == 0 and _single_invariant(n.sizes, n.N // 2):
            return n, n.N // 2, cycle


def _stream_kinds(rng: random.Random) -> list[str]:
    """Exactly the weighted share of each query type, in seeded order."""
    total = sum(STREAM_WEIGHTS)
    kinds = [kind for kind, weight in zip(STREAM_KINDS, STREAM_WEIGHTS)
             for _ in range(STREAM_QUERIES * weight // total)]
    kinds += rng.choices(STREAM_KINDS, STREAM_WEIGHTS, k=STREAM_QUERIES - len(kinds))
    rng.shuffle(kinds)
    return kinds


def _stream_item(rng: random.Random, kind: str):
    if kind == "special":
        return kind, _special_query(rng)
    if kind == "two_factor":
        n1, n2 = rng.randint(1, STREAM_MAX_BLOCK), rng.randint(1, STREAM_MAX_BLOCK)
        return kind, (n1, n2, rng.randint(0, min(n1, n2)))
    n = _random_triple(rng)
    k = rng.randint(0, n.N // 2)
    if kind == "twocycle":
        return kind, (n, k, rng.choice(PAIRS))
    if kind == "eigsum":
        d3 = rng.randint(0, 5)
        d2 = d3 + rng.randint(1, 5)
        d1 = d2 + rng.randint(1, 5)
        kappa = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        return kind, (n, DegreeTriple(d1, d2, d3, kappa), k, rng.randint(1, 6))
    return kind, (n, k)


def _kostka(sizes, k) -> int:
    """Semistandard tableaux of shape [N-k, k] and content sizes, by Young's rule.

    The second row holds a twos and k - a threes; each a is checked directly.
    """
    n1, n2, n3 = sizes
    if 2 * k > n1 + n2 + n3:
        return 0
    return sum(1 for a in range(k + 1) if a <= n1 and a <= n2 and k - a <= n3 and k <= n1 + n2 - a)


def _transposition_sum(n: BlockTriple, k: int, pair) -> Fraction:
    """Sum of the transposition eigenvalues over the multiplicity range, term by term."""
    na, nb = n.size(pair[0]), n.size(pair[1])
    (c,) = {1, 2, 3} - set(pair)
    nc = n.size(c)
    total = sum(
        (m - na) * (m - nb) - m
        for m in range(k + 1)
        if m >= k - nc and m <= na and m <= nb and m <= na + nb - k
    )
    return Fraction(total, na * nb)


def _gate_stream(index: int, kind: str, args, value):
    if kind == "identity":
        n, k = args
        return value == _kostka(n.sizes, k)
    if kind == "twocycle":
        return value == _transposition_sum(*args)
    if kind == "threecycle":
        n, k = args
        perm = BLOCK_PERMUTATIONS[index % len(BLOCK_PERMUTATIONS)]
        permuted = BlockTriple(*(n.sizes[i] for i in perm))
        return value == closed_form.phi_3cycle(permuted, k)
    if kind == "special":
        n, k, cycle = args
        general = closed_form.phi_3cycle(n, k) if cycle == (1, 2, 3) else closed_form.phi_2cycle(n, k, cycle)
        return value is not None and value == general
    if kind == "two_factor":
        n1, n2, k = args
        return value == Fraction((k - n1) * (k - n2) - k, n1 * n2)
    return value == eigsum.eigenvalue_sum_recheck(*args)


# -- oracle_sweep ------------------------------------------------------------

SWEEP_ARGV = (
    ("verify", "--max-block", "4", "--suite", "twocycle"),
    ("verify", "--max-block", "4", "--suite", "threecycle"),
)
TWO_FACTOR_MAX_N = 9


def _run_cli(argv):
    """The CLI in process; returns its exit status and standard output."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            sphfn.cli.main.main(args=list(argv), prog_name="sphfn", standalone_mode=False)
            status = 0
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
    return status, buffer.getvalue()


def _gate_sweep(index: int, kind: str, args, value):
    if kind == "cli":
        status, output = value
        suite = args[0][-1]
        return status == 0 and re.fullmatch(rf"{suite}: [1-9]\d* comparisons, 0 failures\n", output)
    n1, n2, k = args
    return value == closed_form.phi_2cycle_two_factor(n1, n2, k)


# -- module_calculus ---------------------------------------------------------

MODULE_MAX_BLOCK = 3
INVARIANT_MAX_BLOCK = 4
PSI_QUERIES = 40
PSI_BLOCKS = (3, 9)


def _block_sweep(max_block: int):
    for sizes in itertools.product(range(1, max_block + 1), repeat=3):
        yield BlockTriple(*sizes)


def _psi_chain(n: BlockTriple, k: int, m: int):
    """Membership, Hahn expansion and leading coefficient of the 3-cycle image."""
    table = hahn.psi_table(hahn.HahnContext(n, k, m))
    member = invariant_calculus.check_difference_equation(table)
    image = invariant_calculus.apply_rho_g3(table)
    expansion = invariant_calculus.expand_in_psi_basis(image)
    lead = invariant_calculus.extract_leading_coeff(image, m)
    return member, expansion, lead


def _psi_query(rng: random.Random):
    while True:
        n = _random_triple(rng, *PSI_BLOCKS)
        k = rng.randint(0, n.N // 2)
        m_lower, m_upper = characters.m_range(n, k)
        if m_lower <= m_upper:
            return n, k, rng.randint(m_lower, m_upper)


def _gate_module(index: int, kind: str, args, value):
    if kind == "module":
        n, k, cycle = args
        return value == closed_form.phi_closed_form(SphericalQuery(n, k, cycle))
    if kind == "invariants":
        n, k = args
        return len(value) == characters.multiplicity(n, k) and all(
            invariant_calculus.check_difference_equation(oracle.coeff_table_from_invariant(vec, n))
            for vec in value
        )
    n, k, m = args
    member, expansion, lead = value
    return member and expansion.coefficient(m) == lead == closed_form.g3_diagonal_coeff(n, k, m)


# -- shared ------------------------------------------------------------------

CALLS = {
    "identity": lambda n, k: closed_form.phi_identity(n, k),
    "twocycle": lambda n, k, pair: closed_form.phi_2cycle(n, k, pair),
    "threecycle": lambda n, k: closed_form.phi_3cycle(n, k),
    "special": lambda n, k, cycle: closed_form.phi_special(n, k, cycle),
    "two_factor": lambda n1, n2, k: closed_form.phi_2cycle_two_factor(n1, n2, k),
    "eigsum": lambda n, d, k, p: eigsum.eigenvalue_sum(n, d, k, p),
    "two_factor_oracle": lambda n1, n2, k: oracle.two_factor_character_oracle(n1, n2, k),
    "module": lambda n, k, cycle: oracle.phi_module_oracle(n, k, core.embed_cycle(cycle, n)),
    "invariants": lambda n, k: oracle.invariants_in_Vk(n, k),
    "psi": _psi_chain,
}


def build(workload: str, seed: int) -> list[tuple[str, tuple]]:
    """The workload's fixed item list for this seed."""
    rng = random.Random(seed)
    if workload == "closed_stream":
        return [_stream_item(rng, kind) for kind in _stream_kinds(rng)]
    if workload == "oracle_sweep":
        oracle_items = [
            ("two_factor_oracle", (n1, N - n1, k))
            for N in range(2, TWO_FACTOR_MAX_N + 1)
            for n1 in range(1, N)
            for k in range(min(n1, N - n1) + 1)
        ]
        rng.shuffle(oracle_items)
        return [("cli", (argv,)) for argv in SWEEP_ARGV] + oracle_items
    if workload == "module_calculus":
        items = [
            ("module", (n, k, cycle))
            for n in _block_sweep(MODULE_MAX_BLOCK)
            for k in range(n.N // 2 + 1)
            for cycle in CYCLES
        ]
        items += [
            ("invariants", (n, k))
            for n in _block_sweep(INVARIANT_MAX_BLOCK)
            for k in range(n.N // 2 + 1)
        ]
        items += [("psi", _psi_query(rng)) for _ in range(PSI_QUERIES)]
        rng.shuffle(items)
        return items
    raise ValueError(f"unknown workload {workload!r}")


GATES = {"closed_stream": _gate_stream, "oracle_sweep": _gate_sweep, "module_calculus": _gate_module}
# Item kinds that are whole proof sweeps, not queries: they count towards
# wall_s but not towards the query latencies.
SWEEPS = {"cli"}
# Item time between two samples of the host's speed.
CHUNK_NS = 25_000_000


def run(items, wrap) -> tuple[list, list[int], list[float]]:
    """Every item in order, each timed on its own, with the host's speed.

    Returns the outputs, the nanoseconds of each item, and for each item the
    reference task's time around it (`speed`). The single-thread task runs
    before the first item and after every CHUNK_NS of item time, and an
    item's chunk takes the median of the six samples nearest it. A sweep
    instead takes the mean of the pooled samples just before and just after
    it. An item that raises yields its exception as the output, which the
    gate then counts as failed. `wrap(name, fn)` returns the CLI call to
    use, so a traced run can record a span "cli" around it.

    A full garbage collection, untimed, precedes the first query after a
    sweep. The sweeps' thread pool leaves a different number of objects
    behind in each repetition (its threads race on the coset cache), and
    without the collection the automatic collections that follow would
    fall on different queries each time.
    """
    calls = dict(CALLS, cli=wrap("cli", _run_cli))
    outputs = []
    item_ns = []
    item_chunk = []
    sweep_cal = {}
    samples = [speed.sample()]
    clock = time.perf_counter_ns
    since = 0
    pooled_before = None
    for kind, args in items:
        call = calls[kind]
        sweep = kind in SWEEPS
        if sweep and pooled_before is None:
            pooled_before = speed.pooled()
        if not sweep and pooled_before is not None:
            gc.collect()
            pooled_before = None
        t0 = clock()
        try:
            out = call(*args)
        except Exception as exc:  # counted by the gate
            out = exc
        elapsed = clock() - t0
        if sweep:
            pooled_after = speed.pooled()
            sweep_cal[len(item_ns)] = (pooled_before + pooled_after) / 2
            pooled_before = pooled_after
        outputs.append(out)
        item_ns.append(elapsed)
        item_chunk.append(len(samples) - 1)
        since += elapsed
        if since >= CHUNK_NS:
            samples.append(speed.sample())
            since = 0
    if since:
        samples.append(speed.sample())
    chunk_cal = [speed.local(samples, j - 2, j + 4) for j in range(len(samples))]
    item_cal = [sweep_cal.get(i, chunk_cal[j]) for i, j in enumerate(item_chunk)]
    return outputs, item_ns, item_cal


def gate(workload: str, items, outputs) -> list[str]:
    """Descriptions of the items whose output failed its independent check."""
    check = GATES[workload]
    failures = []
    for index, ((kind, args), value) in enumerate(zip(items, outputs)):
        if isinstance(value, Exception):
            failures.append(f"{kind}{args}: raised {value!r}")
            continue
        try:
            ok = check(index, kind, args, value)
        except Exception as exc:  # a check that cannot run counts as failed
            failures.append(f"{kind}{args}: check raised {exc!r}")
            continue
        if not ok:
            failures.append(f"{kind}{args}: got {_render(value)}")
    return failures


def _render(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_render(v) for v in value) + ")"
    if isinstance(value, invariant_calculus.InvariantExpansion):
        return "{" + ",".join(f"{m}:{_render(c)}" for m, c in value.items()) + "}"
    if isinstance(value, oracle.VkVector):
        return "[" + ",".join(f"{s}:{_render(c)}" for s, c in value.items()) + "]"
    if isinstance(value, Exception):
        return f"error:{type(value).__name__}"
    return str(value)


def digest(outputs) -> str:
    """SHA-256 over every rendered output, in item order."""
    h = hashlib.sha256()
    for value in outputs:
        h.update(_render(value).encode())
        h.update(b"\n")
    return h.hexdigest()

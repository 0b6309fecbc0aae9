"""Benchmark of sphfn: three workloads, end-to-end metrics, a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from `src`,
nothing needs installing beyond `click`. The workloads and metrics are
described in perfbench/README.md.

One client calls the public API in sequence (a closed loop). Every
repetition runs the workload's whole item list in a fresh interpreter, so the
package's caches start empty each time, as they do for a `sphfn` command.
Repetitions continue until the next one would end after `--seconds`: at least
three, and with tracing at least one untraced and one traced.

Each item is timed on its own, and a fixed reference task (`speed.py`) is
timed between items, so every time can be rescaled to the reference speed
of the host: the host is a shared virtual machine whose speed swings by up
to 1.9x. An item's time is the median of its rescaled times over the
repetitions. `wall_s` sums these over the list; the query latencies are
percentiles of them. `setup_s` is the median rescaled import time over every
repetition and three import-only fresh interpreters started in each round,
so its samples too are spread over the run.

With `--trace 1` untraced and traced repetitions alternate; the per-layer
metrics come from the traced ones, and `trace.overhead_frac` compares the
two. Every output is checked against an independent path in the first
repetition, and every other repetition of the seed, traced or not, must
render the same values, compared by digest; `attempted` and `failed` count
the checked repetition's items. The last line of standard output is the JSON
result; the lines before it say what ran, with each repetition's item time
both as measured and rescaled.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("closed_stream", "oracle_sweep", "module_calculus")
CHILD_TIMEOUT_S = 120
TAIL_PERCENTILES = ("99.99", "99.9", "99", "90")
TAIL_MIN_BEYOND = 10
# Import-only interpreters per round of an untraced run, for setup_s.
SETUP_PER_ROUND = 3


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, mode: str, gate: bool = False) -> dict:
    """One fresh interpreter; its JSON result line."""
    proc = subprocess.run(
        [sys.executable, CHILD, workload, str(seed), mode, str(int(gate))],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} repetition exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(workload: str, seed: int, modes: list[str], seconds: float, min_rounds: int):
    """Rounds of one child per listed mode, until the next round would overrun."""
    reps: dict[str, list[dict]] = {mode: [] for mode in modes}
    begin = time.monotonic()
    longest = 0.0
    rounds = 0
    while True:
        round_start = time.monotonic()
        for mode in modes:
            reps[mode].append(run_child(workload, seed, mode, gate=rounds == 0 and mode == "plain"))
        rounds += 1
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if rounds >= min_rounds and now - begin + longest > seconds:
            return reps


def rescaled(rep: dict) -> list[float]:
    """Each item's time in nanoseconds at the reference speed."""
    return [ns * speed.REFERENCE_NS / cal for ns, cal in zip(rep["item_ns"], rep["item_cal"])]


def item_medians(reps: list[dict]) -> list[float]:
    """Each item's rescaled time, median over the repetitions."""
    return [statistics.median(times) for times in zip(*(rescaled(rep) for rep in reps))]


def rank(count: int, pct: str) -> int:
    """1-based nearest rank of a percentile given as a decimal string."""
    return max(1, math.ceil(count * Fraction(pct) / 100))


def tail_percentile(count: int) -> str:
    """Highest listed percentile with at least ten samples beyond it."""
    return next(pct for pct in TAIL_PERCENTILES if count - rank(count, pct) >= TAIL_MIN_BEYOND)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sphfn", "__init__.py")):
        print(f"error: no sphfn package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    modes = ["plain", "traced"] if args.trace else ["plain"]
    try:
        run_child(args.workload, args.seed, "setup")  # writes the bytecode caches
        rounds = modes if args.trace else modes + ["setup"] * SETUP_PER_ROUND
        reps = repetitions(args.workload, args.seed, rounds, args.seconds, 1 if args.trace else 3)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = reps["plain"]
    first = plain[0]
    digests = {rep["digest"] for mode in modes for rep in reps[mode]}
    items = item_medians(plain)
    sweeps = set(first["sweeps"])
    queries = sorted(t for i, t in enumerate(items) if i not in sweeps)
    tail = tail_percentile(len(queries))
    print(
        f"{args.workload} seed {args.seed}: {first['items']} items, {len(queries)} of them queries; "
        + ", ".join(f"{len(reps[mode])} {mode}" for mode in modes)
        + " repetitions"
    )
    print(f"query_tail_us is p{tail}")
    for mode in modes:
        print(f"{mode} item seconds per repetition, measured: "
              + " ".join(f"{sum(rep['item_ns']) / 1e9:.4f}" for rep in reps[mode]))
        print(f"{mode} item seconds per repetition, at reference speed: "
              + " ".join(f"{sum(rescaled(rep)) / 1e9:.4f}" for rep in reps[mode]))
    print(f"failed_frac {first['failed']}/{first['items']}")
    for failure in first["failures"]:
        print(f"failed: {failure}")
    print(f"digest {' '.join(sorted(digests))}")
    if len(digests) > 1:
        print("error: repetitions of one seed rendered different values")

    if args.trace:
        traced = reps["traced"]
        # Layer times are rescaled by their repetition's overall factor.
        factors = [sum(rescaled(rep)) / sum(rep["item_ns"]) for rep in traced]
        metrics = {}
        for key, (_, unit) in traced[0]["layers"].items():
            if unit == "s":
                value = statistics.median(rep["layers"][key][0] * f for rep, f in zip(traced, factors))
            else:
                value = statistics.median_low(rep["layers"][key][0] for rep in traced)
            metrics[key] = metric(value, unit)
        metrics["trace.overhead_frac"] = metric(sum(item_medians(traced)) / sum(items) - 1, "ratio")
        for name in traced[0]["absent"]:
            print(f"absent: {name}")
        for name in traced[0]["idle"]:
            print(f"not exercised: {name}")
    else:
        setups = [rep["setup_s"] * speed.REFERENCE_NS / rep["setup_cal"] for rep in plain + reps["setup"]]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(sum(items) / 1e9, "s"),
            "query_p50_us": metric(queries[rank(len(queries), "50") - 1] / 1e3, "us"),
            "query_tail_us": metric(queries[rank(len(queries), tail) - 1] / 1e3, "us"),
            "peak_rss_mb": metric(statistics.median(rep["peak_rss_mb"] for rep in plain), "MB"),
        }
    result = {
        "correct": first["failed"] == 0 and len(digests) == 1,
        "attempted": first["items"],
        "failed": first["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED MODE GATE

MODE is `setup` (import only), `plain` or `traced`; GATE 1 checks every
output against its independent path. Each repetition starts with empty
caches, as a `sphfn` command does. The result is one JSON line on standard
output: the import time and the reference task's time just after it, and
for a workload each item's time and the reference task's time around it. `run.py` starts this file; it is not meant to be run alone.
"""
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

_start = time.perf_counter()
import sphfn  # noqa: E402
import sphfn.cli  # noqa: E402,F401
SETUP_S = time.perf_counter() - _start

import json  # noqa: E402
import statistics  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# The host's speed just after the import, for rescaling SETUP_S.
SETUP_SAMPLES = 5


def peak_rss_kb() -> int:
    """This process's peak resident set. getrusage would report the parent's
    peak if that were larger, since Linux keeps ru_maxrss across exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    workload, seed, mode, check = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1"
    if os.path.dirname(os.path.abspath(sphfn.__file__)) != os.path.join(SRC, "sphfn"):
        print(f"sphfn imported from {sphfn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    setup_cal = statistics.median(speed.sample() for _ in range(SETUP_SAMPLES))
    result = {"setup_s": SETUP_S, "setup_cal": setup_cal}
    if mode != "setup":
        items = workloads.build(workload, seed)
        if mode == "traced":
            tracer = spans.Tracer()
            tracer.install()
            outputs, item_ns, item_cal = workloads.run(items, tracer.timed)
            tracer.uninstall()
            result["layers"], result["absent"], result["idle"] = tracer.layer_metrics()
        else:
            outputs, item_ns, item_cal = workloads.run(items, spans.untraced)
        peak_kb = peak_rss_kb()
        failures = workloads.gate(workload, items, outputs) if check else []
        result.update(
            items=len(items),
            peak_rss_mb=peak_kb / 1024,
            item_ns=item_ns,
            item_cal=item_cal,
            sweeps=[i for i, (kind, _) in enumerate(items) if kind in workloads.SWEEPS],
            failed=len(failures),
            failures=failures[:5],
            digest=workloads.digest(outputs),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

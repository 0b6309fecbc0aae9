"""Span recording for the traced benchmark run.

`Tracer.install` replaces public functions of the sphfn layers with wrappers,
as module attributes at every place inside the package that holds them, so
calls between modules and within a module both pass through a wrapper. The
package source is never edited and `Tracer.uninstall` puts every attribute
back.

A timed wrapper records one span per call: name, start, end, parent span and
thread. A counted wrapper only counts calls; it is used for the hot leaves.
Spans stay in memory until `Tracer.layer_metrics` reduces them.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# Hot leaves, only counted.
COUNTED = ("core.cycle_type", "hahn.hahn_E")
# Cells entering Gaussian elimination, computed from the arguments: the
# augmented matrix for solve, the coefficient matrix for nullspace.
CELLS = {
    "linalg.solve": lambda matrix, rhs: len(matrix) * (len(matrix[0]) + 1 if matrix else 0),
    "linalg.nullspace": lambda matrix, ncols=None: len(matrix) * (
        ncols if ncols is not None else len(matrix[0]) if matrix else 0
    ),
}
# The three unbounded caches, read from outside through cache_info().
CACHES = {
    "characters.mn_cache": (("characters", "_mn"), ("hit_ratio",)),
    "oracle.coset_cache": (("oracle", "_coset_type_counts"), ("useful_ratio",)),
    "oracle.two_factor_cache": (("oracle", "_two_factor_type_counts"), ()),
}
# The span the benchmark records around each in-process CLI call.
CLI_SPAN = "cli"

# Functions recorded as spans, "module.function" below sphfn, with the
# per-layer metrics reported for each.
TIMED = {
    "closed_form.phi_identity": ("calls", "busy_s"),
    "closed_form.phi_2cycle": ("calls", "busy_s"),
    "closed_form.phi_3cycle": ("calls", "busy_s"),
    "closed_form.phi_special": ("calls", "busy_s"),
    "closed_form.phi_2cycle_two_factor": ("calls", "busy_s"),
    "eigsum.eigenvalue_sum": ("calls", "busy_s", "self_s"),
    "characters.mn_character": ("calls", "busy_s"),
    "oracle.phi_character_oracle": ("calls", "busy_s", "self_s"),
    "oracle.two_factor_character_oracle": ("calls", "busy_s", "self_s"),
    "oracle.phi_module_oracle": ("calls", "busy_s", "self_s"),
    "oracle.invariants_in_Vk": ("calls", "busy_s", "self_s"),
    "linalg.solve": ("calls", "busy_s"),
    "linalg.nullspace": ("calls", "busy_s"),
    "hahn.psi_table": ("calls", "busy_s"),
    "invariant_calculus.apply_rho_g3": ("busy_s",),
    "invariant_calculus.expand_in_psi_basis": ("busy_s", "self_s"),
    "invariant_calculus.extract_leading_coeff": ("busy_s",),
    "invariant_calculus.check_difference_equation": ("busy_s",),
    "verify.run_suite": ("calls", "busy_s", "self_s"),
    CLI_SPAN: ("busy_s", "self_s"),
}
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def untraced(name: str, fn):
    """The wrapper of an untraced run: fn itself."""
    return fn


def _modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "sphfn" or name.startswith("sphfn."))]


class _Stack(threading.local):
    def __init__(self):
        self.ids: list = []


class Tracer:
    """Collects spans and counts while installed; reduces them afterwards."""

    def __init__(self):
        self._stack = _Stack()
        self._ids = itertools.count(1)
        self.spans: list[tuple[str, int, int | None, int, int, int]] = []
        self.cells: list[int] = []
        self._counters: dict[str, itertools.count] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def timed(self, name: str, fn):
        """fn wrapped to record one span per call under the given name."""
        local, ids, spans = self._stack, self._ids, self.spans
        clock, ident = time.perf_counter_ns, threading.get_ident
        cells = CELLS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cells is not None:
                self.cells.append(cells(*args, **kwargs))
            stack = local.ids
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, span_id, parent, ident(), start, end))

        return wrapper

    def _counted(self, name: str, fn):
        # next() on itertools.count is atomic, so pool threads may share it.
        counter = self._counters[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _pool_class(self):
        """ThreadPoolExecutor whose tasks take the submitting thread's span as parent."""
        local = self._stack

        def adopt(parent, fn, *args, **kwargs):
            local.ids.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                local.ids.pop()

        class SpanPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = local.ids[-1] if local.ids else None
                return super().submit(adopt, parent, fn, *args, **kwargs)

        return SpanPool

    # -- patching ----------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for group, make in ((TIMED, self.timed), (COUNTED, self._counted)):
            for name in group:
                if name == CLI_SPAN:
                    continue
                module_name, fn_name = name.split(".")
                module = importlib.import_module(f"sphfn.{module_name}")
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                self._replace(original, make(name, original))
        verify = importlib.import_module("sphfn.verify")
        if getattr(verify, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._replace(ThreadPoolExecutor, self._pool_class())

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def _self_ns(self) -> dict[int, int]:
        """Duration minus the union of child intervals, per parent span id."""
        children: dict[int, list[tuple[int, int]]] = {}
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        result = {}
        for name, span_id, _, _, start, end in self.spans:
            covered = 0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result[span_id] = end - start - covered
        return result

    def layer_metrics(self) -> tuple[dict[str, tuple[float, str]], list[str], list[str]]:
        """Per-layer metrics as {name: (value, unit)}, the names absent, and
        the names of metrics whose layer had no calls or cache lookups: those
        read 0, which there means "not exercised", not "worst"."""
        calls: dict[str, int] = {}
        busy: dict[str, int] = {}
        own: dict[str, int] = {}
        self_ns = self._self_ns()
        for name, span_id, _, _, start, end in self.spans:
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0) + end - start
            own[name] = own.get(name, 0) + self_ns[span_id]
        metrics: dict[str, tuple[float, str]] = {}
        absent: list[str] = []
        idle: list[str] = []
        values = {"calls": calls, "busy_s": busy, "self_s": own}
        for name, kinds in TIMED.items():
            for kind in kinds:
                key = f"{name}.{kind}"
                if name in self.missing:
                    absent.append(key)
                    continue
                raw = values[kind].get(name, 0)
                metrics[key] = (raw if kind == "calls" else raw / 1e9, UNITS[kind])
                if name not in calls:
                    idle.append(key)
        for name in COUNTED:
            key = f"{name}.calls"
            if name in self._counters:
                metrics[key] = (next(self._counters[name]), "count")
                if not metrics[key][0]:
                    idle.append(key)
            else:
                absent.append(key)
        if "linalg.solve" in self.missing or "linalg.nullspace" in self.missing:
            absent.append("linalg.cells")
        else:
            metrics["linalg.cells"] = (sum(self.cells), "count")
            if not self.cells:
                idle.append("linalg.cells")
        cache_metrics, cache_absent, cache_idle = cache_counts()
        metrics.update(cache_metrics)
        absent.extend(cache_absent)
        idle.extend(cache_idle)
        return metrics, absent, idle


def cache_counts() -> tuple[dict[str, tuple[float, str]], list[str], list[str]]:
    """Entries of the package's caches, with the ratio each one is judged by,
    plus the names absent and those of caches never looked up (read as 0).

    hit_ratio is hits over lookups. useful_ratio is distinct keys over misses:
    below 1 when pool threads missed on the same key at once.
    """
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    idle: list[str] = []
    for name, ((module_name, fn_name), ratios) in CACHES.items():
        fn = getattr(importlib.import_module(f"sphfn.{module_name}"), fn_name, None)
        keys = [f"{name}.entries"] + [f"{name}.{ratio}" for ratio in ratios]
        if not hasattr(fn, "cache_info"):
            absent.extend(keys)
            continue
        info = fn.cache_info()
        lookups = info.hits + info.misses
        if not lookups:
            idle.extend(keys)
            metrics.update((key, (0, "count" if key.endswith(".entries") else "ratio")) for key in keys)
            continue
        values = {"hit_ratio": info.hits / lookups, "useful_ratio": info.currsize / info.misses}
        metrics[f"{name}.entries"] = (info.currsize, "count")
        for ratio in ratios:
            metrics[f"{name}.{ratio}"] = (values[ratio], "ratio")
    return metrics, absent, idle

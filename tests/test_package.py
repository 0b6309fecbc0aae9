"""The package's public names, the README's library example, and the names
the traced benchmark run wraps."""
import importlib
import importlib.util
import json
import math
import pathlib
import re
from fractions import Fraction

import sphfn
from sphfn import characters, closed_form, core, eigsum, hahn, invariant_calculus, oracle

MODULES = (characters, closed_form, core, eigsum, hahn, invariant_calculus, oracle)
ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SPANS = ROOT / "perfbench" / "spans.py"
BENCHMARK = ROOT / "BENCHMARK.json"


class TestExports:
    def test_module_names_resolve(self):
        for module in MODULES:
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_no_name_in_two_modules(self):
        names = [name for module in MODULES for name in module.__all__]
        assert len(names) == len(set(names))

    def test_package_exports_the_sorted_union(self):
        assert sphfn.__all__ == sorted(name for module in MODULES for name in module.__all__)
        for module in MODULES:
            for name in module.__all__:
                assert getattr(sphfn, name) is getattr(module, name), name

    def test_surface(self):
        """The diagnostic's type is public; core's input rules and zero are
        not, and the module layer's former basis and projection are gone."""
        assert sphfn.KappaZeroDiagnostic is eigsum.KappaZeroDiagnostic
        for name in ("Fraction", "ZERO", "check_k", "check_sizes", "pair_blocks", "cycle_blocks"):
            assert name not in sphfn.__all__ and hasattr(core, name), name
        for name in ("build_Vk_basis", "project_to_invariant"):
            assert name not in sphfn.__all__ and not hasattr(oracle, name), name


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library use") :]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(example, str(README), "exec"), namespace)
    assert namespace["value"] == Fraction(-1, 4)


class TestBenchmarkSpans:
    """Every name perfbench/spans.py wraps or reads exists in the package.

    A missing one is not an error there: its per-layer metrics are reported
    absent, which leaves the traced benchmark result incomplete.
    """

    @staticmethod
    def spans():
        spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_wrapped_functions_resolve(self):
        spans = self.spans()
        names = [name for name in (*spans.TIMED, *spans.COUNTED) if name != spans.CLI_SPAN]
        assert names
        for name in names:
            module_name, fn_name = name.split(".")
            module = importlib.import_module(f"sphfn.{module_name}")
            assert callable(getattr(module, fn_name, None)), name

    def test_caches_have_cache_info(self):
        spans = self.spans()
        assert spans.CACHES
        for name, ((module_name, fn_name), _) in spans.CACHES.items():
            module = importlib.import_module(f"sphfn.{module_name}")
            assert hasattr(getattr(module, fn_name, None), "cache_info"), name

    def test_traced_call_reports_every_declared_metric(self):
        """A tracer installed around one trace sum yields every per-layer
        metric BENCHMARK.json declares (trace.overhead_frac comes from the
        runner), all finite, none absent."""
        tracer = self.spans().Tracer()
        tracer.install()
        try:
            n, d = core.BlockTriple(3, 2, 2), eigsum.DegreeTriple(4, 2, 1, Fraction(-1, 2))
            value = eigsum.eigenvalue_sum(n, d, 2, 3)
        finally:
            tracer.uninstall()
        assert value == eigsum.eigenvalue_sum_recheck(n, d, 2, 3)
        metrics, absent, _ = tracer.layer_metrics()
        assert absent == []
        assert all(math.isfinite(number) for number, _ in metrics.values())
        declared = {metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]}
        assert declared - set(metrics) == {"trace.overhead_frac"}

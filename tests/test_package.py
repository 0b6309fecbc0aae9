"""The package's public names, and the README's library example."""
import pathlib
import re
from fractions import Fraction

import sphfn
from sphfn import characters, closed_form, core, eigsum, hahn, invariant_calculus, oracle

MODULES = (characters, closed_form, core, eigsum, hahn, invariant_calculus, oracle)
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
        """The diagnostic's type is public; core's input rules and zero are not."""
        assert sphfn.KappaZeroDiagnostic is eigsum.KappaZeroDiagnostic
        for name in ("Fraction", "ZERO", "check_k", "check_sizes", "pair_blocks", "cycle_blocks"):
            assert name not in sphfn.__all__ and hasattr(core, name), name


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library use") :]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(example, str(README), "exec"), namespace)
    assert namespace["value"] == Fraction(-1, 4)

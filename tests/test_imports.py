"""No module imports a name it never uses, and no public name of the
package exists only for the tests.

The project runs no linter, so this scans each source and test file's
top-level imports with ``ast``: a name an import binds must appear as a
name somewhere in the file, or in its ``__all__``.  ``__future__``
imports are skipped.  Every public top-level function and class of
``src/kktgen`` must be used by the package's own code (its re-export in
``__init__.py`` does not count) or be named in ``pipebench/``.  The
graph operations of ``autodiff`` are exempt where the tests' graph
references (``tests/graph_reference.py``) use them: autodiff is the
reference engine.
"""

import ast
import glob
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "kktgen", "*.py")))
FILES = SOURCES + sorted(glob.glob(os.path.join(ROOT, "tests", "*.py")))

# public names only the benchmark's graph checks (pipebench/checks.py)
# use; they leave the package with the rest of the graph engine once the
# benchmark no longer reaches them (ROADMAP: "Autodiff leaves the
# package")
PIPEBENCH_ONLY = {"models.make_leaves", "kkt.stationarity_loss_graph",
                  "kkt.duality_loss"}


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES,
                         ids=[os.path.relpath(f, ROOT) for f in FILES])
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        unused = unused_imports(fh.read())
    assert not unused, ", ".join(f"line {line}: {name}"
                                 for line, name in unused)


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\n"
              "import numpy as np\nfrom a import b, c\n"
              "__all__ = ['c']\nnp.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (4, "b")]


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def referenced_names(tree):
    """Names a module reads: loaded names, attributes and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def public_names_without_use(modules, bench_text, reference_names):
    """(unused, bench_only) for ``modules``, {module name: source}:
    the public top-level functions and classes no module reads, and,
    as ``module.name``, those of them only ``bench_text`` names.  An
    autodiff name in ``reference_names`` counts as used."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    used = set().union(*(referenced_names(tree)
                         for name, tree in trees.items()
                         if name != "__init__"))
    unused, bench_only = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in used
                    or (module == "autodiff"
                        and node.name in reference_names)):
                continue
            if re.search(rf"\b{node.name}\b", bench_text):
                bench_only.add(f"{module}.{node.name}")
            else:
                unused.append(f"{module}.{node.name}")
    return unused, bench_only


def test_no_public_name_exists_only_for_the_tests():
    modules = {os.path.basename(path)[:-3]: read(path) for path in SOURCES}
    bench = "".join(read(path) for path in sorted(
        glob.glob(os.path.join(ROOT, "pipebench", "*.py"))))
    reference = referenced_names(ast.parse(read(
        os.path.join(ROOT, "tests", "graph_reference.py"))))
    unused, bench_only = public_names_without_use(modules, bench,
                                                  reference)
    assert not unused, ", ".join(unused)
    assert bench_only == PIPEBENCH_ONLY


def test_scan_finds_a_name_only_the_tests_use():
    modules = {
        "__init__": "from .a import f, g, h, k\n",
        "a": "def f():\n    return g()\ndef g():\n    pass\n"
             "def h():\n    pass\nclass K:\n    pass\n"
             "def _p():\n    pass\n",
        "autodiff": "def op():\n    pass\ndef helper():\n    pass\n",
    }
    assert public_names_without_use(modules, "a.h()", {"op"}) == (
        ["a.f", "a.K", "autodiff.helper"], {"a.h"})


# dir(kktgen) after ``import kktgen`` when the package imported every
# public name eagerly: the names, the submodules they loaded and the
# module attributes
EAGER_DIR = [
    "ClassifierBundle", "ClassifierTrainConfig", "ConfigError",
    "ConvergenceError", "CoverageReport", "GeneratorSpec",
    "GeneratorTrainConfig", "GeneratorTrainState", "LabeledDataset",
    "MlpSpec", "MultiplierSpec", "ParameterVector",
    "QuasiHomogeneousProfile", "RunConfig", "TrainingAborted", "__all__",
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
    "__name__", "__package__", "__path__", "__spec__", "__version__",
    "autodiff", "circle_dataset", "config", "coverage_report", "datasets",
    "deserialize_params", "estimate_profile", "homogeneity", "init_kaiming",
    "kernels", "kkt", "kkt_residual_oracle", "lambda_bar", "margins_np",
    "models", "nearest_neighbor", "pattern_dataset", "refine_margins",
    "sample", "scale_params", "serialize_params", "solve_lambda",
    "split_dataset", "train_classifier", "train_generator", "training",
    "verify_lambda",
]


def test_package_names_load_on_first_use():
    """``import kktgen`` loads no numpy; its ``dir()`` is that of the
    eager package before and after every name is used, and each name of
    ``__all__`` is the object its module defines."""
    code = (
        "import importlib, json, sys, kktgen\n"
        "lazy = 'numpy' not in sys.modules\n"
        "before = dir(kktgen)\n"
        "same = [getattr(kktgen, n) is getattr(importlib.import_module("
        "'kktgen.' + kktgen._MODULE_OF[n]), n) for n in kktgen.__all__]\n"
        "print(json.dumps([lazy, before, dir(kktgen), all(same), "
        "sorted(kktgen.__all__) == sorted(kktgen._MODULE_OF)]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    lazy, before, after, same, complete = json.loads(out.stdout)
    assert lazy and same and complete
    assert before == after == EAGER_DIR

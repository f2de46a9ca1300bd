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
reference engine.  The package namespace re-exports the names the
README's Python API and the benchmark read, and no others.
"""

import ast
import glob
import json
import os
import re
import subprocess
import sys

import pytest

import kktgen

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
        # a derived ``__all__`` (not a literal list) names no import
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, (ast.List, ast.Tuple))
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
    derived = "import a\nimport b\n__all__ = sorted(a.NAMES)\n"
    assert unused_imports(derived) == [(2, "b")]


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


def test_package_names_load_on_first_use():
    """``import kktgen`` loads no numpy; its ``dir()`` lists ``__all__``
    before and after every name is used, and each name of ``__all__`` is
    the object its module defines."""
    code = (
        "import importlib, json, sys, kktgen\n"
        "lazy = 'numpy' not in sys.modules\n"
        "before = dir(kktgen)\n"
        "same = [getattr(kktgen, n) is getattr(importlib.import_module("
        "'kktgen.' + kktgen._MODULE_OF[n]), n) for n in kktgen.__all__]\n"
        "print(json.dumps([lazy, kktgen.__all__, before, dir(kktgen), "
        "all(same)]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    lazy, names, before, after, same = json.loads(out.stdout)
    assert lazy and same
    assert set(names) <= set(before) and set(names) <= set(after)


def api_names(readme, bench_sources):
    """The names the README's Python API block reads as ``kg.<name>``,
    and the public names ``bench_sources`` read as ``kktgen.<name>``."""
    block = re.search(r"## Python API\n\n```python\n(.*?)```", readme,
                      re.S).group(1)
    names = set(re.findall(r"\bkg\.(\w+)", block))
    for source in bench_sources:
        names.update(node.attr for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id == "kktgen"
                     and not node.attr.startswith("_"))
    return names


def test_package_names_are_the_api_its_callers_read():
    """A name of the package namespace that neither the README's Python
    API nor the benchmark reads is not re-exported."""
    bench = [read(path) for path in sorted(
        glob.glob(os.path.join(ROOT, "pipebench", "*.py")))]
    assert sorted(kktgen.__all__) == sorted(
        api_names(read(os.path.join(ROOT, "README.md")), bench))


def test_api_scan_reads_the_readme_block_and_the_bench():
    readme = ("## Python API\n\n```python\nimport kktgen as kg\n"
              "x = kg.f(kg.G())\n```\n\nkg.h is prose\n")
    bench = ["import kktgen\nimport kktgen.cli as cli\n"
             "kktgen.R.f(kktgen.__file__)\n# kktgen.S\n"]
    assert api_names(readme, bench) == {"f", "G", "R"}

"""No module imports a name it never uses, and no public name of the
package exists only for the tests.

The project runs no linter, so this scans each source and test file's
top-level imports with ``ast``: a name an import binds must appear as a
name somewhere in the file, or in its ``__all__``.  ``__future__``
imports are skipped.  Every public top-level function and class of
``src/kktgen`` must be read by another top-level statement of the
package (its re-export in ``__init__.py`` does not count, nor a call of
itself) or by ``pipebench/``.  A read is a bare name in its own module,
an import of it, or an attribute of a kktgen module (``tr.name``,
``kktgen.models.name``); ``np.name`` reads no kktgen name.  The graph
operations of ``autodiff`` are exempt where the tests' graph references
(``tests/graph_reference.py``) read them: autodiff is the reference
engine.  The package namespace re-exports the names the README's Python
API and the benchmark read, and no others.
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


def kktgen_module(node):
    """The kktgen module the ``from ... import`` ``node`` reads from: its
    name, "" for the package, None outside the package."""
    if node.level:
        return node.module or ""
    top, _, rest = (node.module or "").partition(".")
    return rest if top == "kktgen" else None


def module_aliases(tree, modules):
    """{local name: kktgen module, "" for the package} of the imports
    anywhere in ``tree``; ``modules`` are the package's module names."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "kktgen":
                    aliases[alias.asname or top] = rest if alias.asname else ""
        elif isinstance(node, ast.ImportFrom) and kktgen_module(node) == "":
            aliases.update((alias.asname or alias.name, alias.name)
                           for alias in node.names if alias.name in modules)
    return aliases


def kktgen_uses(node, module, aliases, exports):
    """(module, name) of each kktgen name ``node`` reads: a bare name,
    as one of ``module`` (None outside the package), an imported name,
    or an attribute of a kktgen module.  ``aliases`` is
    :func:`module_aliases`; a name of the package is that of the module
    ``exports`` gives for it."""
    uses = set()
    for sub in ast.walk(node):
        if (module and isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)):
            uses.add((module, sub.id))
        elif isinstance(sub, ast.ImportFrom):
            source = kktgen_module(sub)
            if source is not None:
                uses.update((source or exports.get(alias.name), alias.name)
                            for alias in sub.names)
        elif isinstance(sub, ast.Attribute):
            owner, source = sub.value, None
            if isinstance(owner, ast.Name):
                source = aliases.get(owner.id)
            elif (isinstance(owner, ast.Attribute)
                  and isinstance(owner.value, ast.Name)
                  and aliases.get(owner.value.id) == ""):
                source = owner.attr  # kktgen.<module>.<name>
            if source is not None:
                uses.add((source or exports.get(sub.attr), sub.attr))
    return uses


def file_uses(sources, modules, exports):
    """The kktgen names ``sources``, files outside the package, read."""
    uses = set()
    for source in sources:
        tree = ast.parse(source)
        uses |= kktgen_uses(tree, None, module_aliases(tree, modules),
                            exports)
    return uses


def public_names_without_use(modules, bench, reference, exports):
    """(unused, bench_only) for ``modules``, {module name: source}: as
    ``module.name``, the public top-level functions and classes no
    other top-level statement of the package reads, and those of them
    the ``bench`` sources read.  An autodiff name the ``reference``
    sources read counts as used; ``exports`` maps each name of the
    package namespace to its module."""
    names = set(modules) - {"__init__"}
    used, defined = set(), []
    for module in sorted(names):
        tree = ast.parse(modules[module])
        aliases = module_aliases(tree, names)
        for node in tree.body:
            uses = kktgen_uses(node, module, aliases, exports)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses.discard((module, node.name))  # calls itself
                if not node.name.startswith("_"):
                    defined.append((module, node.name))
            used |= uses
    used |= {use for use in file_uses(reference, names, exports)
             if use[0] == "autodiff"}
    bench_uses = file_uses(bench, names, exports)
    unused = [use for use in defined if use not in used]
    return ([f"{m}.{n}" for m, n in unused if (m, n) not in bench_uses],
            {f"{m}.{n}" for m, n in unused if (m, n) in bench_uses})


def test_no_public_name_exists_only_for_the_tests():
    modules = {os.path.basename(path)[:-3]: read(path) for path in SOURCES}
    bench = [read(path) for path in sorted(
        glob.glob(os.path.join(ROOT, "pipebench", "*.py")))]
    reference = [read(os.path.join(ROOT, "tests", "graph_reference.py"))]
    unused, bench_only = public_names_without_use(modules, bench, reference,
                                                  kktgen._MODULE_OF)
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
    assert public_names_without_use(
        modules, ["from kktgen import a\na.h()\n"],
        ["import kktgen.autodiff as ad\nad.op()\n"], {}) == (
        ["a.f", "a.K", "autodiff.helper"], {"a.h"})


def test_scan_counts_reads_of_kktgen_names_only():
    """Each form of read counts, and none of a name elsewhere: ``np.sqrt``
    does not read ``kkt.sqrt``."""
    modules = {
        "kkt": "import numpy as np\ndef sqrt():\n    pass\n"
               "def norm():\n    return np.sqrt(2)\n",
        "cli": "from . import kkt as kk\nfrom .models import (\n"
               "    bare as b)\nb()\nkk.norm()\n",
        "models": "def bare():\n    pass\ndef one():\n    pass\n"
                  "def two():\n    pass\nclass Spec:\n    pass\n",
    }
    bench = ["import kktgen\nimport kktgen.models\nkktgen.models.one()\n"
             "kktgen.Spec()\n", "from kktgen.models import two\n"]
    assert public_names_without_use(modules, bench, [],
                                    {"Spec": "models"}) == (
        ["kkt.sqrt"], {"models.one", "models.two", "models.Spec"})


def test_scan_does_not_count_a_call_of_itself():
    modules = {"a": "def f(n):\n    return f(n - 1) if n else 0\n"
                    "class K:\n    def copy(self):\n        return K()\n"}
    assert public_names_without_use(modules, [], [], {}) == (
        ["a.f", "a.K"], set())


def test_scan_reads_the_bench_as_code_not_words():
    """A bench variable, comment or string that spells a package name is
    no read of it."""
    modules = {"autodiff": "def exp():\n    pass\n"}
    bench = ["import kktgen\nname = exp\n# autodiff.exp\n"
             "print('kktgen.exp')\n"]
    assert public_names_without_use(modules, bench, [], {}) == (
        ["autodiff.exp"], set())


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

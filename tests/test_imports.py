"""Every module-level import in ``src/algmech`` is used by its module, and every
module-level function or class is named somewhere besides its own definition."""

import ast
import collections
import functools
import pathlib
import re

import pytest

from conftest import SRC_DIR

MODULES = sorted(p for p in (SRC_DIR / "algmech").glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by a module-level import of ``source`` that nothing else in it reads.

    ``from __future__`` imports are compiler directives and bind nothing to read.
    """
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


# the code that may use a definition of src/algmech: the package, its tests, the
# benchmark and the scripts (a name in a string counts, as bench/tracing.py wraps by name)
CODE_DIRS = [SRC_DIR] + [SRC_DIR.parent / d for d in ("tests", "bench", "scripts")]


def definitions(source):
    """Names of the module-level functions and classes of ``source``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.parse(source).body if isinstance(node, kinds)]


def unreferenced(source, files):
    """Module-level definitions of ``source`` that nothing names besides the definition.

    ``files`` maps each other file to its words and its own module-level
    definitions; a file that defines a name itself names its own, not this one.
    """
    own = collections.Counter(re.findall(r"\w+", source))
    used = set().union(*(words - defined for words, defined in files.values()))
    return [name for name in definitions(source) if own[name] <= 1 and name not in used]


@functools.cache
def code_files():
    """Every Python file of ``CODE_DIRS``: its words and its module-level definitions."""
    texts = {p: p.read_text() for d in CODE_DIRS for p in sorted(d.rglob("*.py"))}
    return {p: (set(re.findall(r"\w+", t)), set(definitions(t))) for p, t in texts.items()}


def test_the_check_finds_an_unreferenced_definition():
    source = (
        "def used():\n    pass\n\n\ndef caller():\n    return used()\n\n\n"
        "class Gone:\n    pass\n"
    )
    assert unreferenced(source, {}) == ["caller", "Gone"]
    # the lifted anchors put back beside prolong_eval; tests/test_connections.py has its
    # own helper of that name, and this file names it only here
    module = SRC_DIR / "algmech" / "prolongation.py"
    left = module.read_text() + "\n\ndef _lifted_anchors(P, x):\n    return x\n"
    this = pathlib.Path(__file__).resolve()
    others = {p: v for p, v in code_files().items() if p != this}
    assert unreferenced(left, others) == ["_lifted_anchors"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_definition_is_referenced(path):
    # the module itself defines each of its names, so only the other files count
    assert unreferenced(path.read_text(), code_files()) == [], path.name

"""Every module-level import in ``src/algmech`` is used by its module."""

import ast

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

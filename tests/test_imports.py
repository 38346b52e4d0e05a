"""Every name a package module imports is used in that module.

A deletion can leave an import that nothing reads any more; no linter is
required to run the suite, so this check walks each module's syntax tree
with the standard library's ``ast``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "netpoverty"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import, anywhere in it, and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_orphan_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .core import as_weight_vector, check_dimension_index\n"
        "def f(w, d):\n"
        "    from .bounds import upper_bound\n"
        "    return np.asarray(as_weight_vector(w, d)), os.sep\n"
    )
    assert unused_imports(source) == ["check_dimension_index", "upper_bound"]

"""No module of the package or the test suite imports a name it never uses.

A stand-in for pyflakes' F401 check, which honours the same
``# noqa: F401`` comment on an import that is kept on purpose.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cellfree"


def unused_imports(source):
    """(line, name) of every imported name that the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if isinstance(node, ast.Import):
                name = alias.asname or alias.name.split(".")[0]
            else:
                name = alias.asname or alias.name
            imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_checker_finds_unused_and_honours_noqa():
    # as in flake8, a noqa comment on any line of a statement covers all of it
    source = (
        "import os\n"
        "import numpy as np\n"
        "from math import (\n    pi,\n    tau,  # noqa: F401\n)\n"
        "from .x import y, z  # noqa: F401\n"
        "from .w import v, u\n"
        "import a.b\n"
        "a.b.c(np.zeros(1), u)\n"
    )
    assert unused_imports(source) == [(1, "os"), (8, "v")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

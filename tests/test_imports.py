"""No module of the package or the test suite imports a name it never uses.

A stand-in for pyflakes' F401 check, which honours the same
``# noqa: F401`` comment on an import that is kept on purpose.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cellfree"
BENCH_SPANS = TESTS.parent / "bench" / "spans.py"


def imports(source):
    """(line, name, kept) of every imported name; kept marks a ``# noqa: F401`` import."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        kept = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            if isinstance(node, ast.Import):
                name = alias.asname or alias.name.split(".")[0]
            else:
                name = alias.asname or alias.name
            found.append((node.lineno, name, kept))
    return found


def unused_imports(source):
    """(line, name) of every imported name that the source never reads."""
    used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return [(line, name) for line, name, kept in imports(source)
            if not kept and name not in used]


def traced_bindings(source):
    """The ``<module>.<name>`` attributes named by SPAN_BINDINGS and MARKER_BINDINGS."""
    bindings = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPAN_BINDINGS", "MARKER_BINDINGS")
            for t in node.targets
        ):
            bindings.update(attr for attr, _ in ast.literal_eval(node.value))
    return bindings


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
    assert [name for _, name, kept in imports(source) if kept] == ["pi", "tau", "y", "z"]


def test_checker_reads_both_binding_tables():
    source = (
        "SPAN_BINDINGS = (('cli.f', 'harness.f'), ('power.g', 'snr.g'))\n"
        "MARKER_BINDINGS = (('harness._h', 'harness.h'),)\n"
        "OTHER = (('metrics.k', 'metrics.k'),)\n"
    )
    assert traced_bindings(source) == {"cli.f", "power.g", "harness._h"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_kept_import_is_a_traced_binding():
    # a name kept under `# noqa: F401` exists only for the benchmark's tracer;
    # once no binding names it, the import has to go
    traced = traced_bindings(BENCH_SPANS.read_text())
    kept = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for _, name, is_kept in imports(path.read_text()) if is_kept]
    assert [binding for binding in kept if binding not in traced] == []

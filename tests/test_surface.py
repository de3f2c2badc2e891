"""The public surface is what the package, the acceptance suite and the benchmark use.

Every public module-level function or class of the package must be named
somewhere other than its own definition: by code of the package, by the
acceptance suite or by the benchmark (a dotted string such as
``"harness.place_ppp"`` names ``place_ppp``). A name that only its unit
tests reach is dead code, with the exceptions listed in TEST_REFERENCES. A
private module-level function or class must be named by code of the package.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import pathlib
import re

import pytest

from cellfree.propagation import ShadowParams

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cellfree"
USERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]

#: Public names that only unit tests call, each kept as a reference for them.
TEST_REFERENCES = {
    "snr_ls": "per-estimate general-OSTBC SNR that the batched snr_ls_values is tested against",
    "run_trial": "full pilot and data simulation of one coherence interval, checking that "
                 "the processed symbol decomposes into signal, eta and noise",
    "mrc_empirical_sinr": "measured post-combining SINR that the MRC branch sum is tested "
                          "against",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def definitions(source):
    """Names of the module-level functions and classes."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def public_definitions(source):
    """Names of the module-level functions and classes not starting with '_'."""
    return [name for name in definitions(source) if not name.startswith("_")]


def named(source):
    """Every identifier the source reads, imports or spells as a dotted string."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def test_checker_reads_names_imports_attributes_and_dotted_strings():
    source = (
        "from .a import b\n"
        "import c.d\n"
        "x = e.f(g)\n"
        "BINDINGS = ('mod.h', 'not dotted i.j')\n"
        "def k(): pass\n"
        "class L: pass\n"
        "def _m(): pass\n"
    )
    assert named(source) >= {"b", "d", "f", "g", "e", "h", "mod"}
    assert "j" not in named(source)
    assert public_definitions(source) == ["k", "L"]
    assert definitions(source) == ["k", "L", "_m"]


@functools.cache
def _named_in_package():
    return set().union(*(named(path.read_text()) for path in PACKAGE.glob("*.py")))


@functools.cache
def _used():
    return _named_in_package().union(*(named(path.read_text()) for path in USERS))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_public_names_have_a_user(path):
    used = _used()
    unused = [name for name in public_definitions(path.read_text())
              if name not in used and name not in TEST_REFERENCES]
    assert unused == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_private_names_have_a_caller_in_the_package(path):
    # a private helper that only tests or the benchmark reach is dead code
    uncalled = [name for name in definitions(path.read_text())
                if name.startswith("_") and name not in _named_in_package()]
    assert uncalled == []


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "grouping.py"}),
                         ids=lambda p: p.name)
def test_only_the_grouping_constructors_name_grouping(path):
    # the run path passes the group of every antenna as a plain int64 array;
    # Grouping is only what random_grouping and neighbor_grouping return
    assert "Grouping" not in named(path.read_text())


def test_test_references_are_defined_and_otherwise_unused():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        defined.update(public_definitions(path.read_text()))
    assert set(TEST_REFERENCES) <= defined
    assert set(TEST_REFERENCES).isdisjoint(_used())  # a used name needs no exception


def caught(source):
    """Names of the exception classes that the source's except clauses catch."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.type)
                      if isinstance(n, (ast.Name, ast.Attribute))}
    return names


def test_checker_reads_except_clauses():
    source = (
        "try: pass\n"
        "except (A, mod.B) as e: raise C(e)\n"
        "except D: pass\n"
        "except: pass\n"
    )
    assert caught(source) == {"A", "mod", "B", "D"}


def test_every_exception_class_is_caught_somewhere():
    # a subclass that no except clause names tells callers nothing its base does not
    defined = set()
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(f"cellfree.{path.stem}".removesuffix(".__init__"))
        defined |= {name for name, obj in vars(module).items()
                    if inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    caught_anywhere = set().union(*(caught(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert sorted(defined - caught_anywhere) == []


def _parameters(path):
    """(name, parameter names) of each module-level function, private ones too."""
    return [(node.name, {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)})
            for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)]


def _public_parameters(path):
    """(name, parameter names) of each public module-level function."""
    return [(name, params) for name, params in _parameters(path) if not name.startswith("_")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_general_formulas_take_rho_or_tau_c(path):
    # the general formulas take a plan's rho_p and rho_d; every other function
    # reads the one energy budget, power.DEFAULT_RHO * power.TAU_C
    takers = [name for name, params in _public_parameters(path)
              if params & {"rho", "tau_c", "energy"}]
    assert takers == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_takes_both_a_code_and_es(path):
    # the symbol energy follows from the code: OstbcCode.es
    assert [name for name, params in _public_parameters(path) if {"code", "es"} <= params] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_takes_a_shadow_constant(path):
    # sigma, delta and d_u are ShadowParams class constants, read where they are used
    takers = [name for name, params in _parameters(path)
              if params & {"sigma_db", "delta", "d_u", "decorrelation_km"}]
    assert takers == []


def test_the_shadow_mode_is_the_only_shadow_setting():
    assert [f.name for f in dataclasses.fields(ShadowParams)] == ["mode"]

"""Every module of the package uses each name it imports (`__init__.py`,
which re-exports, is exempt), no import its annotations need is missing
(with postponed annotations, a missing one fails only when the hints are
read), and no module takes a private (`_`-prefixed) name from another
module of the package."""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "okbodies"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PACKAGE_NAME = PACKAGE.name
FOURIER_MOTZKIN = {"project_out", "fm_eliminate"}


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _private_uses(source: str):
    """(line, name) of each private name taken from a package module: by
    `from .m import _x`, or as `m._x` of a package module bound by
    `from . import m` or `import okbodies.m [as m]`."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if not (node.level or (node.module or "").split(".")[0] == PACKAGE_NAME):
                continue
            # `from . import m` and `from okbodies import m` bind modules
            binds_modules = node.module in (None, PACKAGE_NAME)
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((node.lineno, alias.name))
                elif binds_modules:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE_NAME:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and _dotted(node.value) in modules):
            found.append((node.lineno, _dotted(node)))
    return sorted(found)


def test_modules_found():
    assert len(MODULES) >= 17


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_from_other_modules(path):
    assert _private_uses(path.read_text()) == []


def _fourier_motzkin_calls(source: str):
    """(line, name) of each call of the Fourier-Motzkin functions, by name
    or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in FOURIER_MOTZKIN:
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_fourier_motzkin_stays_in_polyhedra(path):
    # FM is exponential: it stays a library function and the tests'
    # reference, and no production path calls it
    if path.name != "polyhedra.py":
        assert _fourier_motzkin_calls(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_annotations_resolve(path):
    module = importlib.import_module(f"okbodies.{path.stem}")
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            typing.get_type_hints(obj)
            for member in vars(obj).values():
                if inspect.isfunction(member):
                    typing.get_type_hints(member)
        elif inspect.isfunction(obj):
            typing.get_type_hints(obj)


def test_check_sees_an_unused_import():
    source = "import os\nfrom fractions import Fraction\nfrom x import y as z\nz(os)\n"
    assert _unused_imports(source) == [(2, "Fraction")]


def test_check_sees_a_private_import():
    source = ("from . import linalg, oracles as orc\n"
              "from .oracles import _compositions, RankOracle\n"
              "import okbodies.simplex\n"
              "from fractions import _gcd\n"
              "orc._key(linalg.pivot, linalg.__name__, self._index)\n"
              "okbodies.simplex._dot(_gcd)\n")
    assert _private_uses(source) == [
        (2, "_compositions"), (5, "orc._key"), (6, "okbodies.simplex._dot")]


def test_check_sees_a_fourier_motzkin_call():
    source = ("from .polyhedra import project_out\n"
              "from . import polyhedra\n"
              "project_out(p, [0])\n"
              "polyhedra.fm_eliminate(p, 1)\n")
    assert _fourier_motzkin_calls(source) == [(3, "project_out"), (4, "fm_eliminate")]

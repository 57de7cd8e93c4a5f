"""Every module of the package uses each name it imports (`__init__.py`,
which re-exports, is exempt), and no import its annotations need is
missing (with postponed annotations, a missing one fails only when the
hints are read)."""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "okbodies"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_modules_found():
    assert len(MODULES) >= 17


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


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

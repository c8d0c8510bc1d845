"""Every name a module of ``rip`` or a test imports is used there or listed in its ``__all__``,
and the package re-exports exactly the names its modules list.

No linter is part of the test environment, so this reads each module's
syntax tree instead.  A name counts as used when the module's code or one
of its annotations, quoted ones included, refers to it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "rip"


def _imported(tree):
    """``(name, line)`` for each name an import binds, ``__future__`` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(node) -> set:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _used(tree) -> set:
    used = _names(tree)
    for annotation in _annotations(tree):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _names(ast.parse(sub.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            # the names it lists, whether written as a list or built from one
            used |= {
                sub.value for sub in ast.walk(node.value)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            }
    return used


def _unused(source: str) -> list:
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_every_name_a_test_imports_is_used(path):
    assert _unused(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Any, Sequence\n"
        "from .errors import RipError\n"
        "from .paths import PathSpace\n"
        "def f(x: 'Any') -> int:\n"
        "    return os.path.sep\n"
        "__all__ = ['RipError']\n"
    )
    assert _unused(source) == [("Sequence", 3), ("PathSpace", 5)]


# the modules that declare what the package re-exports: every one but the
# command line and its report writer, which users reach as rip.cli and rip.report
_EXPORTING = sorted(
    p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "cli", "report")
)


def test_the_package_re_exports_each_module_s_all():
    import rip

    modules = {name: importlib.import_module(f"rip.{name}") for name in _EXPORTING}
    assert all(hasattr(module, "__all__") for module in modules.values())
    declared = {n for module in modules.values() for n in module.__all__}
    assert set(rip.__all__) == {"__version__"} | declared
    assert len(rip.__all__) == len(set(rip.__all__))  # a union lists each name once
    namespace = {}
    exec("from rip import *", namespace)
    assert set(rip.__all__) <= namespace.keys()
    for module in modules.values():
        for name in module.__all__:
            assert getattr(module, name) is getattr(rip, name) is namespace[name], name

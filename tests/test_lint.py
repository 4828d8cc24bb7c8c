"""A standard-library lint of src/cmscan: every imported name is used,
and every name in ``__all__`` is defined.

Each module is parsed with ``ast``; nothing is imported or run.  A use is
any load of the name, in code or in an annotation, a string annotation
included.  A name imported on a line marked ``# re-exported`` is used by
other modules (``fakedeg`` re-exports ``spec``'s names), and a name
listed in a literal ``__all__`` counts as used.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cmscan"
MODULES = sorted(SRC.glob("*.py"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree) -> set[str]:
    """Names loaded anywhere, string annotations parsed and included."""
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def imported_names(tree, source: str) -> dict[str, int]:
    """Each name an import binds, with its line; ``__future__`` imports
    and lines marked ``# re-exported`` left out."""
    lines = source.splitlines()
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# re-exported" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def module_names(tree) -> set[str]:
    """Names bound at module level: defs, classes, assignments, imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out.update(n.id for n in ast.walk(target)
                           if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.asname or alias.name.split(".")[0]
                       for alias in node.names)
    return out


def literal_all(tree) -> list[str] | None:
    """The strings of a module-level ``__all__ = [...]`` or ``(...)``;
    None when there is none or it is computed (``cmscan/__init__``'s is,
    and ``test_imports`` checks it)."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return [elt.value for elt in node.value.elts]
    return None


def problems(source: str) -> list[str]:
    tree = ast.parse(source)
    exported = literal_all(tree) or []
    used = used_names(tree) | set(exported)
    out = [f"line {line}: {name} is imported but never used"
           for name, line in sorted(imported_names(tree, source).items(),
                                    key=lambda item: item[1])
           if name not in used]
    defined = module_names(tree)
    out += [f"__all__ lists {name}, which is not defined"
            for name in exported if name not in defined]
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_is_clean(path):
    assert problems(path.read_text(encoding="utf-8")) == []


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"cli", "cyclo", "g4", "polycore"}


class TestChecker:
    def test_unused_import_is_found(self):
        assert problems("import os\nfrom math import gcd, lcm\nlcm(1)\n") == [
            "line 1: os is imported but never used",
            "line 2: gcd is imported but never used"]

    def test_uses_count_in_code_and_annotations(self):
        source = ("from __future__ import annotations\n"
                  "import collections.abc\n"
                  "from fractions import Fraction\n"
                  "from . import linalg\n"
                  "def f(x: 'linalg.Matrix') -> Fraction:\n"
                  "    return collections.abc\n")
        assert problems(source) == []

    def test_string_annotation_of_a_variable_counts(self):
        assert problems("from fractions import Fraction\nx: 'Fraction'\n") == []

    def test_marked_re_export_passes(self):
        assert problems("from .spec import GroupSpec  # re-exported\n") == []

    def test_all_counts_as_use_and_must_be_defined(self):
        source = ("from .spec import GroupSpec\n"
                  "__all__ = ['GroupSpec', 'f', 'missing']\n"
                  "def f():\n    pass\n")
        assert problems(source) == [
            "__all__ lists missing, which is not defined"]

"""A standard-library lint of src/cmscan: every imported name is used,
every name in ``__all__`` is defined, and every function, method and
class is referenced.

Each module is parsed with ``ast``; nothing is imported or run.  A use is
any load of the name, in code or in an annotation, a string annotation
included.  A name imported on a line marked ``# re-exported`` is used by
other modules (``fakedeg`` re-exports ``spec``'s names), and a name
listed in a literal ``__all__`` counts as used.

A definition is referenced when code in src/cmscan or perfbench/ names
it: a use as above, an attribute, an import, or an entry of a
module-level ``_EXPORTS`` (``cmscan/__init__``'s lazy exports).  Dunder
methods, which Python calls by protocol, are exempt.

No string literal passed to a ``re`` function holds ``\\d``: it matches
every Unicode decimal digit, so a grammar that means ASCII digits says
``[0-9]``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cmscan"
MODULES = sorted(SRC.glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


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


def unicode_digit_patterns(tree) -> list[tuple[int, str]]:
    """Each call ``re.<function>(...)`` with a string literal among its
    arguments that holds ``\\d``, with its line and function name."""
    return sorted(
        (node.lineno, node.func.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
        and any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                and "\\d" in n.value
                for arg in node.args + [k.value for k in node.keywords]
                for n in ast.walk(arg)))


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
    out += [f"line {line}: re.{function} is given \\d, which matches any "
            "Unicode digit; write [0-9]"
            for line, function in unicode_digit_patterns(tree)]
    return out


def definitions(tree) -> list[tuple[int, str]]:
    """Each function, method and class defined, at any depth, with its
    line; dunder names left out."""
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and not (node.name.startswith("__")
                           and node.name.endswith("__")))


def references(tree) -> set[str]:
    """Names used, attributes, imported names and ``_EXPORTS`` entries."""
    out = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(part for alias in node.names
                       for part in alias.name.split("."))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_EXPORTS"
                        for t in node.targets)):
            out.update(n.value for n in ast.walk(node.value)
                       if isinstance(n, ast.Constant)
                       and isinstance(n.value, str))
    return out


def dead_definitions(checked: dict[str, str], others: list[str]) -> list[str]:
    """The definitions in the ``checked`` sources (name -> text) that no
    code among them or ``others`` references."""
    trees = {name: ast.parse(source) for name, source in checked.items()}
    referenced = set().union(*map(references, trees.values()),
                             *(references(ast.parse(s)) for s in others))
    return [f"{name} line {line}: {defined} is never referenced"
            for name, tree in trees.items()
            for line, defined in definitions(tree)
            if defined not in referenced]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_is_clean(path):
    assert problems(path.read_text(encoding="utf-8")) == []


def test_every_definition_is_referenced():
    assert dead_definitions(
        {p.name: p.read_text(encoding="utf-8") for p in MODULES},
        [p.read_text(encoding="utf-8") for p in PERFBENCH]) == []


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

    def test_referenced_helper_passes(self):
        checked = {"a.py": "def _helper():\n    pass\n"
                           "class Spec:\n    def render(self):\n"
                           "        return _helper()\n"
                           "    def __str__(self):\n        return ''\n",
                   "__init__.py": "_EXPORTS = {'a': ('Spec',)}\n"}
        assert dead_definitions(checked, ["from cmscan.a import Spec\n"
                                          "Spec().render()\n"]) == []

    def test_unreferenced_helper_is_found(self):
        checked = {"a.py": "def used():\n    pass\n"
                           "def unused():\n    return used()\n"}
        assert dead_definitions(checked, ["import os\n"]) == [
            "a.py line 3: unused is never referenced"]

    def test_ascii_digit_pattern_passes(self):
        source = ("import re\n"
                  "LINE = re.compile(r'^G_?([0-9]+)$')\n"
                  "re.sub(r'[0-9]', '', 'x', flags=re.A)\n")
        assert problems(source) == []

    def test_unicode_digit_pattern_is_found(self):
        source = ("import re\n"
                  "LINE = re.compile(r'^G_?(\\d+)$')\n"
                  "re.fullmatch(pattern='[ab]' r'\\d', string='a1')\n")
        assert problems(source) == [
            "line 2: re.compile is given \\d, which matches any Unicode "
            "digit; write [0-9]",
            "line 3: re.fullmatch is given \\d, which matches any Unicode "
            "digit; write [0-9]"]

    def test_all_counts_as_use_and_must_be_defined(self):
        source = ("from .spec import GroupSpec\n"
                  "__all__ = ['GroupSpec', 'f', 'missing']\n"
                  "def f():\n    pass\n")
        assert problems(source) == [
            "__all__ lists missing, which is not defined"]

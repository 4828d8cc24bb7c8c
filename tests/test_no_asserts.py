"""No cmscan module checks anything with ``assert``.

``python -O`` strips assert statements, so a verification written as one
would pass silently there.  Every check in ``src/cmscan`` raises an
explicit exception instead; this test parses each module and fails on
any assert statement.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "cmscan").glob("*.py"))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"cyclo.py", "groups.py", "scan.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"

"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "rtabs"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_import_only_stdlib_and_rtabs():
    allowed = set(sys.stdlib_module_names) | {"rtabs"}
    sources = sorted(SRC_DIR.glob("*.py"))
    assert sources
    for path in sources:
        for name in absolute_imports(path):
            assert name.split(".")[0] in allowed, f"{path.name} imports {name}"

"""The package imports nothing outside the standard library, and nothing
it does not use."""

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


def unused_imports(path):
    """Names a module imports and never mentions again."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_sources_use_every_import():
    # the package's __init__ imports in order to re-export
    found = {path.name: unused_imports(path)
             for path in sorted(SRC_DIR.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}

"""The package imports nothing outside the standard library, and neither
it nor its tests import anything they do not use."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import rtabs
from conftest import CLI_ENV, model_file
from rtabs import simulate
from rtabs.trace import render_csv

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
    paths = [path for path in sorted(SRC_DIR.glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted(Path(__file__).resolve().parent.glob("*.py"))
    found = {f"{path.parent.name}/{path.name}": unused_imports(path)
             for path in paths}
    assert {name: names for name, names in found.items() if names} == {}


def mentions(nodes):
    """The identifiers some syntax trees mention: names, attributes,
    imported names, and string constants (such as the package's lazy
    export map or a `setattr` target)."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.asname or node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def module_level_definitions(tree):
    """(name, statement) for each name a module's own statements define."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, stmt


def test_every_module_level_name_is_referenced():
    # referenced somewhere outside its own definition: elsewhere in its
    # module, in another source file, in a test or in the benchmark
    root = SRC_DIR.parent.parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "tests", "bench")
             for path in sorted((root / folder).rglob("*.py"))}
    unreferenced = []
    for path in sorted(SRC_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = trees[path]
        elsewhere = mentions(t for p, t in trees.items() if p != path)
        for name, stmt in module_level_definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in elsewhere and name not in mentions(
                    s for s in tree.body if s is not stmt):
                unreferenced.append(f"{path.name}: {name}")
    assert unreferenced == []


# standard modules that a command should load only if it uses them:
# `dataclasses`, `json`, and `importlib.resources` with what it imports
COSTLY_STDLIB = {"dataclasses", "importlib.resources", "json", "pathlib",
                 "tempfile", "zipfile"}

# runs `python -m rtabs.cli ARGS...`, then prints, as the last line of
# stdout, the rtabs modules that the command loaded, and those of
# COSTLY_STDLIB that it did; it lists them before importing `json` to
# print them
LOADED_BY_CLI = f"""
import runpy, sys
try:
    runpy.run_module("rtabs.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
loaded = sorted(m for m in sys.modules
                if m.startswith("rtabs.") or m in {COSTLY_STDLIB!r})
import json
print(json.dumps(loaded))
"""

# in a fresh process, so that each export resolves through the package's
# module __getattr__ and not from an earlier import
PACKAGE_SURFACE = """
import rtabs
resolved = {name: getattr(rtabs, name) for name in rtabs.__all__}
star = {}
exec("from rtabs import *", star)
assert all(star[name] is value for name, value in resolved.items())
try:
    rtabs.no_such_name
except AttributeError as exc:
    print(exc)
"""


def run_python(script, *args, flags=()):
    res = subprocess.run([sys.executable, *flags, "-c", script,
                          *map(str, args)],
                         capture_output=True, text=True, env=CLI_ENV)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


def test_commands_load_only_what_they_use(tmp_path, single_request_model):
    trace = tmp_path / "run.csv"
    trace.write_text(render_csv(simulate(single_request_model, limit=600).trace),
                     encoding="utf-8")
    metrics = set(json.loads(run_python(
        LOADED_BY_CLI, "metrics", trace, "--series", "misses", "--by", "method")))
    assert "rtabs.trace" in metrics
    assert not metrics & {"dataclasses", "json", "rtabs.engine", "rtabs.nodes",
                          "rtabs.parser"}
    check = set(json.loads(run_python(
        LOADED_BY_CLI, "check", model_file("single_request.rtabs"))))
    assert "rtabs.parser" in check
    assert not check & {"dataclasses", "rtabs.engine", "rtabs.metrics",
                        "rtabs.trace"}
    # without site, which may import importlib.resources itself, `check`
    # loads none of it: the prelude is read as a plain file
    bare = set(json.loads(run_python(
        LOADED_BY_CLI, "check", model_file("single_request.rtabs"),
        flags=("-S",))))
    assert "rtabs.parser" in bare
    assert not bare & COSTLY_STDLIB
    run = set(json.loads(run_python(
        LOADED_BY_CLI, "run", model_file("single_request.rtabs"),
        "--until", "600", "--trace", tmp_path / "again.csv")))
    assert {"rtabs.engine", "rtabs.trace"} <= run
    assert "rtabs.metrics" not in run
    assert (run_python(PACKAGE_SURFACE)
            == "module 'rtabs' has no attribute 'no_such_name'")
    # the engine's helpers that only tests and the benchmark call (`adv`,
    # `lift`, `liftall`, `mte_raw`, `select`) are not exported
    assert rtabs.__all__ == [
        "CallDepthError", "Configuration", "Engine", "FutureCell",
        "IncompleteProcess", "InvocationMessage", "LexError", "ObjectState",
        "ParseError", "PolicyError", "ProcessOutcome", "ProcessRecord",
        "RtRuntimeError", "RtabsError", "RunResult", "SeriesPoint",
        "TraceEvent", "check_deadline_bookkeeping", "derive_outcome",
        "derive_outcomes", "load_model", "load_source", "merge_with_prelude",
        "misses_series", "parse_expr", "parse_model", "prelude_model",
        "read_csv", "read_structured", "simulate"]

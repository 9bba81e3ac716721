"""The benchmark's traced run (`bench/traced.py`) wraps names that the
package still has, and its evaluator counts see the engine's
evaluations: code that evaluated around `engine.eval_expr` or
`engine.eval_guard` would read 0 there and still reproduce every
trace."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from conftest import CLI_ENV, model_file
from rtabs import cli, engine, prelude

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def wrapped_names():
    """(owner, attribute) for each name that `traced.install` replaces."""
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "install")
    return {(target.value.id, target.attr)
            for node in ast.walk(install) if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)}


def test_every_wrapped_name_exists():
    owners = {"cli": cli, "engine": engine, "prelude": prelude,
              "Engine": engine.Engine}
    names = wrapped_names()
    assert {("engine", "eval_expr"), ("engine", "eval_guard")} <= names
    assert {owner for owner, _ in names} <= set(owners)
    assert sorted(f"{owner}.{attr}" for owner, attr in names
                  if not hasattr(owners[owner], attr)) == []


def test_traced_run_counts_the_engine_evaluations(tmp_path):
    spans = tmp_path / "spans.json"
    res = subprocess.run(
        [sys.executable, str(TRACED), str(spans), "run",
         model_file("monitor_simple.rtabs"), "--until", "200",
         "--trace", str(tmp_path / "trace.csv")],
        capture_output=True, text=True, env=CLI_ENV)
    assert res.returncode == 0, res.stderr
    counts = json.loads(spans.read_text(encoding="utf-8"))["counts"]
    assert counts.get("evaluator.expr", 0) > 0
    assert counts.get("evaluator.guard", 0) > 0

"""Shared paths and cached model loads for the test suite."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rtabs import load_model
from rtabs.nodes import GBool, SAwait, SReturn

TESTS_DIR = Path(__file__).resolve().parent
MODELS_DIR = TESTS_DIR.parent / "models"
GOLDEN_DIR = TESTS_DIR / "golden"
SRC_DIR = TESTS_DIR.parent / "src"

# the environment of a CLI child process: this checkout's src comes
# first on its path, so the child runs the code under test and not an
# installed copy
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))

# verdict lines collected by the acceptance module; echoed after the
# test summary so they survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


ONE_METHOD = ("interface I { Unit m(); }\n"
              "class C implements I { Unit m() { skip; } }\n")
# (name, model source, message, clock, method, position) of models that
# stop with a runtime error in the named method, at the `line:col` of the
# model where it arose (a binding error, at the call that sent the
# message): bad duration bounds, get on a null future at a queued head,
# a raising conjunct behind an unresolved future, an error raised while
# sampling a queued head during time advance, a non-Bool guard, a
# message whose cost raises while it is bound to a busy object, the
# checked model's calls whose callee, deadline or criticality has the
# wrong value, a cost that is no Duration, calls that bind to no method
# or to one of another arity, which the checker lets through: a call on
# the main object, a call through an interface that the callee's class
# does not implement, and a call of `init`, which desugaring moves out of
# the class's methods; a duration bound, or a bound of a duration
# conjunct, that is no number, an `if` condition that is no Bool, and a
# future conjunct whose variable holds no future
RUNTIME_ERROR_CASES = [
    ("malformed bounds", "{ duration(5, 2); }\n",
     "malformed duration bounds", 0, "main", "1:3"),
    ("null get", """
interface S { Unit m(); }
class SImp implements S { Fut<Int> f; Unit m() { Int x = f.get; } }
{ S s = new SImp(); s!m(); }
""", "get applied to null, not a future", 0, "m", "3:58"),
    ("raising conjunct", """
interface W { Int n(); }
class WImp implements W { Int n() { duration(2, 2); return 1; } }
{ W w = new WImp(); Int z = 0; Fut<Int> f = w!n(); await f? && (1 / z > 0); }
""", "division by zero", 2, "main", "4:67"),
    ("sampling error", """
interface S { Unit a(); Unit b(); }
class SImp implements S {
  Int z = 0;
  Unit a() { duration(5, 5); }
  Unit b() { await duration(1 / z, 1 / z); }
}
{ S o = new SImp(); o!a(); await duration(1, 1); o!b(); }
""", "division by zero", 1, "b", "6:31"),
    ("non-Bool guard", """
interface I { Unit m(); }
class C implements I { Int x = 0; Unit m() { await x; } }
{ I o = new C(); o!m(); }
""", "guard is 0, not a Bool", 0, "m", "3:52"),
    ("binding error", """
interface S { Unit slow(); Int m(Int x); }
class SImp implements S {
  Unit slow() { duration(4, 4); }
  [Cost: Duration(1 / x)] Int m(Int x) { return x; }
}
{ S s = new SImp(); s!slow(); await duration(1, 1); s!m(0); }
""", "division by zero", 1, "m", "5:21"),
    ("null callee", "interface I { Unit m(); }\n{ I o; o!m(); }\n",
     "call to m on null", 0, "main", "2:8"),
    ("Int callee", "{ Int o = 1; o!m(); }\n",
     "call target is 1, not an object", 0, "main", "1:14"),
    ("Int deadline", ONE_METHOD + "{ I o = new C(); [Deadline: 3] o!m(); }\n",
     "deadline is 3, not a Duration", 0, "main", "3:32"),
    ("Int criticality", ONE_METHOD + "{ I o = new C(); [Critical: 1] o!m(); }\n",
     "criticality is 1, not a Bool", 0, "main", "3:32"),
    ("Int cost", """
interface I { Unit m(); }
class C implements I { [Cost: 3] Unit m() { skip; } }
{ I o = new C(); o!m(); }
""", "cost of C.m is 3, not a Duration", 0, "m", "3:31"),
    ("call on the main object", "{ this!m(); }\n",
     "object o0 has no class <main>", 0, "m", "1:3"),
    ("method of another interface", ONE_METHOD + """
interface J { Unit z(); }
{ J o = new C(); o!z(); }
""", "class C has no method z", 0, "z", "5:18"),
    ("arity of another interface", """
interface I { Unit m(Int a, Int b); }
interface J { Unit m(Int a); }
class C implements J { Unit m(Int a) { skip; } }
{ I o = new C(); o!m(1, 2); }
""", "C.m expects 1 argument(s), got 2", 0, "m", "5:18"),
    ("duration bound", "{ duration(True, 2); }\n",
     "duration bound is True, not a finite number", 0, "main", "1:3"),
    ("duration conjunct bound", """
interface I { Unit m(); }
class C implements I { Int x = 0; Unit m() { await duration(x, True); } }
{ I o = new C(); o!m(); }
""", "duration bound is True, not a finite number", 0, "m", "3:52"),
    ("non-Bool condition", """
interface I { Unit m(); }
class C implements I { Int x = 0; Unit m() { if (x) { skip; } } }
{ I o = new C(); o!m(); }
""", "condition is 0, not a Bool", 0, "m", "3:46"),
    ("init message", """
interface I { Unit m(); }
class C implements I { Unit init() { skip; } Unit m() { this!init(); } }
{ I o = new C(); o!m(); }
""", "class C has no method init", 0, "init", "3:57"),
    ("non-future conjunct", """
interface I { Unit m(); }
class C implements I { Unit m() { Int f = 1; await f?; } }
{ I o = new C(); o!m(); }
""", "f? applied to 1, not a future", 0, "m", "3:53"),
]


def nested_sources(depth):
    """Models nested `depth` levels deep by parentheses, by calls and by
    `if` blocks.  The main block is the first level and the initialiser
    of `x` the second; in each, the first level past the nesting limit
    begins at the last `1` or `True`."""
    n = depth - 2
    return [
        "{ Int x = " + "(" * n + "1" + ")" * n + "; }\n",
        ("def Int f(Int x) = x + 1;\n"
         "{ Int x = " + "f(" * n + "1" + ")" * n + "; }\n"),
        "{ " + "if True { " * (depth - 1) + "skip; " + "} " * (depth - 1)
        + "}\n"]


def compiled(program, node):
    """The code generated for node, an expression or a boolean conjunct,
    as a function of a scope that `eval_expr` runs: an expression's is
    the run of a `return` place, which gives its value, and a conjunct's
    the wait of an `await` place, which gives 0 when it holds and None
    when it does not."""
    if type(node) is GBool:
        return program.block((SAwait((node,)),)).code[0].wait
    return program.block((SReturn(node),)).code[0].run


def model_file(name: str) -> str:
    return str(MODELS_DIR / name)


def other_interpreters(minimum: tuple[int, int]
                       ) -> tuple[dict[str, str], list[str]]:
    """Version -> path of every CPython >= minimum but this one that runs
    as `python3.N` from PATH, and the names on PATH that did not start.
    A name on PATH may fail to start (a version manager's shim for a
    version it has not selected), so each is probed first."""
    found, skipped = {}, []
    for minor in range(minimum[1], 20):
        name = f"python3.{minor}"
        exe = shutil.which(name)
        if exe is None or minor == sys.version_info.minor:
            continue
        probe = subprocess.run(
            [exe, "-c", f"import sys; assert sys.version_info >= {minimum!r} "
                        "and sys.implementation.name == 'cpython'; "
                        "print(sys.version.split()[0])"],
            capture_output=True, text=True)
        if probe.returncode == 0:
            found[probe.stdout.strip()] = exe
        else:
            skipped.append(name)
    return found, skipped


@pytest.fixture(scope="session")
def single_request_model():
    return load_model(model_file("single_request.rtabs"))


@pytest.fixture(scope="session")
def media_models():
    """The media-server workload under its five scheduler variants."""
    names = ("sjf", "edf", "fifo", "adaptive_low", "adaptive_high")
    return {name: load_model(model_file(f"media_server_{name}.rtabs"))
            for name in names}


@pytest.fixture(scope="session")
def monitor_models():
    return {name: load_model(model_file(f"monitor_{name}.rtabs"))
            for name in ("simple", "general")}

"""Shared paths and cached model loads for the test suite."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rtabs import load_model

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


# (name, model source, message, clock, method) of models that stop with a
# runtime error in the named method: bad duration bounds, get on a null
# future at a queued head, a raising conjunct behind an unresolved future,
# an error raised while sampling a queued head during time advance, a
# non-Bool guard, whose message carries the guard's source position, and
# a message whose cost raises while it is bound to a busy object
RUNTIME_ERROR_CASES = [
    ("malformed bounds", "{ duration(5, 2); }\n",
     "malformed duration bounds", 0, "main"),
    ("null get", """
interface S { Unit m(); }
class SImp implements S { Fut<Int> f; Unit m() { Int x = f.get; } }
{ S s = new SImp(); s!m(); }
""", "get applied to null, not a future", 0, "m"),
    ("raising conjunct", """
interface W { Int n(); }
class WImp implements W { Int n() { duration(2, 2); return 1; } }
{ W w = new WImp(); Int z = 0; Fut<Int> f = w!n(); await f? && (1 / z > 0); }
""", "division by zero", 2, "main"),
    ("sampling error", """
interface S { Unit a(); Unit b(); }
class SImp implements S {
  Int z = 0;
  Unit a() { duration(5, 5); }
  Unit b() { await duration(1 / z, 1 / z); }
}
{ S o = new SImp(); o!a(); await duration(1, 1); o!b(); }
""", "division by zero", 1, "b"),
    ("non-Bool guard", """
interface I { Unit m(); }
class C implements I { Int x = 0; Unit m() { await x; } }
{ I o = new C(); o!m(); }
""", "guard is 0, not a Bool at ", 0, "m"),
    ("binding error", """
interface S { Unit slow(); Int m(Int x); }
class SImp implements S {
  Unit slow() { duration(4, 4); }
  [Cost: Duration(1 / x)] Int m(Int x) { return x; }
}
{ S s = new SImp(); s!slow(); await duration(1, 1); s!m(0); }
""", "division by zero", 1, "m"),
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

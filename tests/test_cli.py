"""End-to-end command-line behavior: exit codes, stream separation,
trace files, and metrics aggregation."""

import subprocess
import sys

from conftest import CLI_ENV, RUNTIME_ERROR_CASES, model_file
from rtabs import load_model, simulate
from rtabs.trace import render_csv

CLI = [sys.executable, "-m", "rtabs.cli"]

DEADLOCK_SRC = "{ Int x = 0; await x > 0; }\n"
MISS_SRC = """
interface S { Unit slow(); }
class SImp implements S { Unit slow() { duration(7, 7); } }
{ S s = new SImp(); [Deadline: Duration(5)] s!slow(); }
"""
FANIN_SRC = """
interface S { Unit req(Int c); }
[Scheduler: sjf(queue)] class SImp implements S {
  [Cost: Duration(c)] Unit req(Int c) { duration(c, c); }
}
{
  S s = new SImp();
  Int i = 0;
  while (i < 320) { [Deadline: Duration(1000)] s!req(1); i = i + 1; }
}
"""


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=CLI_ENV)


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return str(path)


def test_check_ok():
    res = run_cli("check", model_file("single_request.rtabs"))
    assert res.returncode == 0
    assert res.stdout == "" and res.stderr == ""


def test_check_diagnostics(tmp_path):
    path = write(tmp_path, "bad.rtabs", "{ y = 1; }\n")
    res = run_cli("check", path)
    assert res.returncode == 1
    assert "error:" in res.stderr and "y" in res.stderr


def test_check_parse_error(tmp_path):
    path = write(tmp_path, "broken.rtabs", "def Int f() = ;\n")
    res = run_cli("check", path)
    assert res.returncode == 1
    assert "broken.rtabs:1:" in res.stderr


def test_check_missing_file():
    res = run_cli("check", "/nonexistent/model.rtabs")
    assert res.returncode == 2
    assert "cannot read" in res.stderr


def test_run_trace_on_stdout_and_summary_on_stderr():
    res = run_cli("run", model_file("single_request.rtabs"), "--until", "600")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "time,event,object,pid,method,data"
    assert res.stderr.startswith("finished: clock 17, ")
    assert "deadline miss(es)" in res.stderr


def test_run_is_reproducible():
    args = ("run", model_file("media_server_edf.rtabs"), "--until", "600")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_run_rejects_bad_until():
    res = run_cli("run", model_file("single_request.rtabs"), "--until", "soon")
    assert res.returncode == 2 and "invalid --until" in res.stderr
    res = run_cli("run", model_file("single_request.rtabs"), "--until", "0")
    assert res.returncode == 2 and "must be positive" in res.stderr


def test_run_rejects_unknown_policy():
    res = run_cli("run", model_file("single_request.rtabs"), "--until", "10",
                  "--duration-policy", "median")
    assert res.returncode == 2  # argparse choice error


def test_run_deadlock_exit_code(tmp_path):
    path = write(tmp_path, "stuck.rtabs", DEADLOCK_SRC)
    res = run_cli("run", path, "--until", "10")
    assert res.returncode == 3
    assert res.stderr.startswith("deadlock: clock 0, ")
    assert "no ready process" in res.stderr


def test_run_runtime_error_exit_code(tmp_path):
    for name, source, message, _, method in RUNTIME_ERROR_CASES:
        path = write(tmp_path, "boom.rtabs", source)
        res = run_cli("run", path, "--until", "10")
        assert res.returncode == 2, name
        assert message in res.stderr, name
        # the partial trace still appears, ending with the error event
        # that names the failing method
        row = res.stdout.splitlines()[-1].split(",")
        assert row[1] == "error" and row[4] == method, name


def test_library_and_cli_traces_agree_on_deep_queue(tmp_path):
    # sjf recurses once per queued process; 320 of them overflow the
    # default host stack, so this holds only if every entry point runs
    # on the same big stack
    path = write(tmp_path, "fanin.rtabs", FANIN_SRC)
    result = simulate(load_model(path), 1)
    assert result.status == "time_limit" and result.clock == 1
    res = run_cli("run", path, "--until", "1")
    assert res.returncode == 0
    assert res.stdout == render_csv(result.trace)


def test_trace_file_and_metrics(tmp_path):
    out = str(tmp_path / "run.csv")
    res = run_cli("run", model_file("single_request.rtabs"), "--until", "600",
                  "--trace", out)
    assert res.returncode == 0
    assert res.stdout == ""
    with open(out, encoding="utf-8") as handle:
        assert handle.readline() == "time,event,object,pid,method,data\n"
    met = run_cli("metrics", out, "--series", "misses")
    assert met.returncode == 0
    lines = met.stdout.splitlines()
    assert lines[0] == "time,misses"
    assert lines[-1].endswith(",0")  # nothing missed in this model


def test_metrics_method_breakdown(tmp_path):
    model = write(tmp_path, "miss.rtabs", MISS_SRC)
    out = str(tmp_path / "miss.csv")
    assert run_cli("run", model, "--until", "50", "--trace", out).returncode == 0
    met = run_cli("metrics", out, "--series", "misses", "--by", "method")
    assert met.returncode == 0
    lines = met.stdout.splitlines()
    assert lines[0] == "time,misses,slow"
    assert lines[-1] == "7,1,1"


def test_metrics_rejects_garbage(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello world\n", encoding="utf-8")
    res = run_cli("metrics", str(path), "--series", "misses")
    assert res.returncode == 2
    assert "malformed trace" in res.stderr


def test_metrics_rejects_malformed_structured_trace(tmp_path):
    records = [
        '{"time":"0","event":"bogus","object":null,"pid":null,'
        '"method":null,"data":{}}',
        '{"time":"0","event":"tick","object":null,"pid":null,'
        '"method":null,"data":[]}',
        '{"time":[],"event":"tick","object":null,"pid":null,'
        '"method":null,"data":{}}',
        '{"time":"0","event":"tick","object":null,"pid":null,'
        '"method":null,"data":{}}\n[]',
        '{"time":"0","event":"activate","object":"x","pid":true,'
        '"method":7,"data":{"deadline":"inf"}}',
        '{"time":"0","event":"activate","object":0,"pid":true,'
        '"method":"m","data":{}}',
        '{"time":"0","event":"activate","object":0,"pid":1,'
        '"method":7,"data":{}}',
    ]
    for record in records:
        path = tmp_path / "bad.jsonl"
        path.write_text(record + "\n", encoding="utf-8")
        res = run_cli("metrics", str(path), "--series", "misses")
        assert res.returncode == 2, record
        assert "malformed trace" in res.stderr, record


def test_metrics_rejects_malformed_csv_ids(tmp_path):
    for ids in ("x3,q4", "x3,f4", "o3,q4", "o,f4", "o-3,f4", "o3,f4a"):
        path = tmp_path / "bad.csv"
        path.write_text("time,event,object,pid,method,data\n"
                        f"0,activate,{ids},m,deadline=inf\n", encoding="utf-8")
        res = run_cli("metrics", str(path), "--series", "misses")
        assert res.returncode == 2, ids
        assert "malformed trace" in res.stderr, ids


def test_metrics_rejects_malformed_rationals(tmp_path):
    header = "time,event,object,pid,method,data\n"
    traces = [
        ("bad.csv", header + "1/0,activate,o3,f4,m,deadline=inf\n"),
        ("bad.jsonl", '{"time":"1/0","event":"tick","object":null,'
                      '"pid":null,"method":null,"data":{}}\n'),
        ("bad.csv", header + "0,activate,o3,f4,m,deadline=abc\n"
                    "1,return,o3,f4,m,value=0\n"),
    ]
    for name, text in traces:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        res = run_cli("metrics", str(path), "--series", "misses")
        assert res.returncode == 2, text
        assert "malformed trace" in res.stderr, text
        assert "Traceback" not in res.stderr, text


def test_structured_format_round_trip(tmp_path):
    out = str(tmp_path / "run.jsonl")
    res = run_cli("run", model_file("single_request.rtabs"), "--until", "600",
                  "--format", "structured", "--trace", out)
    assert res.returncode == 0
    with open(out, encoding="utf-8") as handle:
        assert handle.read(1) == "{"
    met = run_cli("metrics", out, "--series", "misses")
    assert met.returncode == 0
    assert met.stdout.splitlines()[0] == "time,misses"


DEPTH_SRC = """\
def Int count(Int n) = if n <= 0 then 0 else 1 + count(n - 1);
def List<Int> build(Int n, List<Int> acc) =
  if n <= 0 then acc else build(n - 1, Cons(n, acc));
{ Int a = length(build(90000, Nil)); Int b = count(150000); }
"""


def test_call_depth_is_the_one_explicit_limit(tmp_path):
    # a 90,000-element list is built and measured; a recursion deeper
    # than max_depth stops at the call that exceeds it, through the
    # library and the CLI alike
    path = write(tmp_path, "depth.rtabs", DEPTH_SRC)
    expected = (f"call depth exceeded 100000 in count at {path}:1:50 "
                f"in object o0 process f0 statement `Int b = count(150000);`")
    result = simulate(load_model(path), 10)
    assert result.status == "error"
    assert result.error.describe() == expected
    res = run_cli("run", path, "--until", "10")
    assert res.returncode == 2
    assert res.stderr.splitlines()[-1] == expected


def test_front_end_failures_are_diagnostics_not_tracebacks(tmp_path):
    cases = [
        ("{ Int x = 2²; }\n", "1:12: unexpected character '²'"),
        ("{ Int x = " + "(" * 200 + "1" + ")" * 200 + "; }\n",
         " expression nesting exhausted the host stack"),
        ("{ Int x = 1" + " + 1" * 1200 + "; }\n",
         " expression nesting exhausted the host stack")]
    if hasattr(sys, "get_int_max_str_digits"):  # Python 3.11 and later
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        cases.append((f"{{ Int x = {digits}; }}\n",
                      "1:11: numeric literal too long"))
    for k, (source, message) in enumerate(cases):
        path = write(tmp_path, f"m{k}.rtabs", source)
        res = run_cli("check", path)
        assert (res.returncode, res.stderr) == (1, f"{path}:{message}\n")
        res = run_cli("run", path, "--until", "5")
        assert (res.returncode, res.stderr) == (2, f"{path}:{message}\n")

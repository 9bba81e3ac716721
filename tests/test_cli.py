"""End-to-end command-line behavior: exit codes, stream separation,
trace files, and metrics aggregation."""

import subprocess
import sys
from collections import Counter

import pytest

import rtabs.cli
from conftest import (
    CLI_ENV, MODELS_DIR, RUNTIME_ERROR_CASES, model_file, nested_sources,
    other_interpreters,
)
from rtabs import Engine, load_model, simulate
from rtabs.parser import NESTING_LIMIT
from rtabs.trace import read_csv_text, render_csv, render_structured
from rtabs.values import format_rat

CLI = [sys.executable, "-m", "rtabs.cli"]
CSV_HEADER = "time,event,object,pid,method,data\n"

DEADLOCK_SRC = "{ Int x = 0; await x > 0; }\n"
# the main process waits for a self-call that never returns, behind a
# duration conjunct sampled at 0 whose time left is 2 once b's tick ends
SAMPLED_DEADLOCK_SRC = """
interface A { Int f(); Unit tick(); }
class AImp implements A {
  Int f() { Int x = this.f(); return x; }
  Unit tick() { duration(1, 1); }
}
{ A a = new AImp(); A b = new AImp(); b!tick(); Fut<Int> g = a!f();
  await duration(3, 3) && g?; }
"""
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


def not_utf8(tmp_path):
    path = tmp_path / "latin1.rtabs"
    path.write_bytes(b"\xff{ skip; }\n")
    return str(path)


def test_check_rejects_a_file_that_is_not_utf8(tmp_path):
    path = not_utf8(tmp_path)
    res = run_cli("check", path)
    assert (res.returncode, res.stderr) == (
        2, f"cannot read {path}: not UTF-8 text\n")


def test_run_rejects_a_file_that_is_not_utf8(tmp_path):
    path = not_utf8(tmp_path)
    res = run_cli("run", path, "--until", "5")
    assert (res.returncode, res.stdout, res.stderr) == (
        2, "", f"cannot read {path}: not UTF-8 text\n")


def test_metrics_rejects_a_trace_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(
        b"time,event,object,pid,method,data\n0,tick,,,,delta=\xff\n")
    res = run_cli("metrics", str(path), "--series", "misses")
    assert (res.returncode, res.stdout, res.stderr) == (
        2, "", f"cannot read {path}: not UTF-8 text\n")


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
    assert res.stderr.splitlines()[1:] == [
        "o0 (<main>): no ready process (queued: f0 at `await x > 0;`)"]
    # a sampled head shows the time left on its duration conjuncts
    path = write(tmp_path, "sampled.rtabs", SAMPLED_DEADLOCK_SRC)
    res = run_cli("run", path, "--until", "10")
    assert res.returncode == 3
    assert res.stderr.splitlines() == [
        "deadlock: clock 1, 1 process(es) completed, 0 deadline miss(es)",
        "o0 (<main>): no ready process (queued: f0 at "
        "`await duration[2, 2] && g?;` (waits for f2))",
        "o1 (AImp): process f2 (f) blocked at `Int x = $t0.get;` "
        "(waits for f3)"]


def test_run_runtime_error_exit_code(tmp_path):
    for name, source, message, _, method, at in RUNTIME_ERROR_CASES:
        path = write(tmp_path, "boom.rtabs", source)
        res = run_cli("run", path, "--until", "10")
        assert res.returncode == 2, name
        assert message in res.stderr, name
        assert f" at {path}:{at} in object o" in res.stderr, name
        # the partial trace still appears, ending with the error event
        # that names the failing method
        last = read_csv_text(res.stdout)[-1]
        assert last.kind == "error" and last.method == method, name


def test_library_and_cli_traces_agree_on_deep_queue(tmp_path):
    # sjf recurses once per queued process; 320 of them exceed the
    # default recursion limit, so this holds only if every entry point
    # runs under the same raised limit
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


def test_metrics_reads_a_trace_with_a_long_data_value(tmp_path):
    # the returned list renders as one data value of about 458,000
    # characters, beyond the csv module's default field limit
    model = write(tmp_path, "big.rtabs", """
def List<Int> build(Int n, List<Int> acc) =
  if n <= 0 then acc else build(n - 1, Cons(n, acc));
interface B { List<Int> make(); }
class BImp implements B { List<Int> make() { return build(20000, Nil); } }
{ B b = new BImp(); Fut<List<Int>> f = b!make(); }
""")
    out = str(tmp_path / "big.csv")
    assert run_cli("run", model, "--until", "10", "--trace", out).returncode == 0
    met = run_cli("metrics", out, "--series", "misses")
    assert met.returncode == 0, met.stderr
    lines = met.stdout.splitlines()
    assert lines[0] == "time,misses" and lines[-1] == "0,0"


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
    # besides junk, a bad time, id or data cell after rows that repeat the
    # column's valid text, which the readers parse once per read
    row = "1,activate,o3,f4,m,deadline=inf;note=a\\;b\n"
    record = ('{{"time":"{}","event":"tick","object":null,"pid":null,'
              '"method":null,"data":{{}}}}\n')
    texts = [
        "hello world\n",
        CSV_HEADER + row * 3 + "1/0,activate,o3,f4,m,deadline=inf\n",
        CSV_HEADER + row * 3 + "1,activate,o3x,f4,m,deadline=inf\n",
        CSV_HEADER + row * 3 + "1,activate,o3,f4,m,deadline=inf;note\n",
        record.format("1") * 3 + record.format("1/x"),
    ]
    for text in texts:
        path = tmp_path / "junk.txt"
        path.write_text(text, encoding="utf-8")
        res = run_cli("metrics", str(path), "--series", "misses")
        assert res.returncode == 2, text
        assert "malformed trace" in res.stderr, text


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
        # rationals that Fraction reads but a trace never holds
        ("bad.csv", header + "1.5,activate,o3,f4,m,deadline=inf\n"),
        ("bad.csv", header + "0,activate,o3,f4,m,deadline=1e1\n"
                    "1,return,o3,f4,m,value=0\n"),
        ("bad.jsonl", '{"time":"+3","event":"tick","object":null,'
                      '"pid":null,"method":null,"data":{}}\n'),
    ]
    # texts that reading a natural with `int` could misread: a leading
    # zero, an Arabic-Indic three and a superscript two (both digits to
    # `str.isdigit`), and a signed zero
    for text in ("03", "\u0663", "\u00b2", "-0"):
        traces += [
            ("bad.csv", header + f"{text},activate,o3,f4,m,deadline=inf\n"),
            ("bad.csv", header + f"0,activate,o3,f4,m,deadline={text}\n"
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


def summary(result):
    """The summary line of a run, from the counts of its trace."""
    kinds = Counter(event.kind for event in result.trace)
    return (f"{result.status}: clock {format_rat(result.clock)}, "
            f"{kinds['return']} process(es) completed, "
            f"{kinds['deadline_miss']} deadline miss(es)")


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.rtabs")),
                         ids=lambda path: path.stem)
def test_streamed_trace_and_summary_match_the_library(path, capsys):
    # byte for byte the writers' text of the whole trace, in both
    # encodings, and the summary counted from that trace
    flags = ["--until", "600", "--duration-policy", "uniform", "--seed", "5"]
    result = simulate(load_model(str(path)), 600, seed=5,
                      duration_policy="uniform")
    for fmt, render in (("csv", render_csv), ("structured", render_structured)):
        rtabs.cli.main(["run", str(path), *flags, "--format", fmt])
        out, err = capsys.readouterr()
        assert out == render(result.trace), fmt
        assert err.splitlines()[0] == summary(result), fmt


def test_run_holds_at_most_one_tick_of_events(tmp_path, monkeypatch):
    # every event is rendered once, in batches no longer than the longest
    # run of events that ends at a tick or at the end of the trace
    path = model_file("media_server_sjf.rtabs")
    trace = simulate(load_model(path), 600).trace
    runs, length = [], 0
    for event in trace:
        length += 1
        if event.kind == "tick":
            runs.append(length)
            length = 0
    runs.append(length)
    batches = []
    render = rtabs.cli.render_csv

    def counted(events, **kw):
        batches.append(len(events))
        return render(events, **kw)

    monkeypatch.setattr(rtabs.cli, "render_csv", counted)
    out = tmp_path / "run.csv"
    assert rtabs.cli.main(["run", path, "--until", "600",
                           "--trace", str(out)]) == 0
    assert sum(batches) == len(trace)
    assert 1 < len(batches) and max(batches) <= max(runs)
    assert out.read_text(encoding="utf-8") == render_csv(trace)


def test_interrupted_run_leaves_a_readable_prefix(tmp_path, monkeypatch):
    # interrupted at the time advance after its fifth tick, the run has
    # written every event before it, in whole rows
    path = model_file("media_server_sjf.rtabs")
    full = render_csv(simulate(load_model(path), 600).trace).splitlines()
    sixth_tick = [k for k, row in enumerate(full)
                  if row.split(",")[1] == "tick"][5]
    advance, ticks = Engine.advance, []

    def interrupted(engine, limit):
        if len(ticks) == 5:
            raise KeyboardInterrupt
        ticks.append(limit)
        return advance(engine, limit)

    monkeypatch.setattr(Engine, "advance", interrupted)
    out = tmp_path / "cut.csv"
    with pytest.raises(KeyboardInterrupt):
        rtabs.cli.main(["run", path, "--until", "600", "--trace", str(out)])
    text = out.read_text(encoding="utf-8")
    assert text.splitlines() == full[:sixth_tick]
    assert len(read_csv_text(text)) == sixth_tick - 1
    met = run_cli("metrics", str(out), "--series", "misses")
    assert met.returncode == 0, met.stderr


def test_unwritable_trace_fails_before_the_run(tmp_path):
    out = tmp_path / "missing" / "run.csv"
    res = run_cli("run", model_file("single_request.rtabs"), "--until", "600",
                  "--trace", str(out))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith(f"cannot write {out}: ")
    assert len(res.stderr.splitlines()) == 1  # and no summary line
    # a model that cannot be loaded leaves no trace file
    out = tmp_path / "run.csv"
    path = write(tmp_path, "bad.rtabs", "{ y = 1; }\n")
    res = run_cli("run", path, "--until", "600", "--trace", str(out))
    assert res.returncode == 2 and "unknown variable y" in res.stderr
    assert not out.exists()


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


DEEP_VALUES_SRC = """\
def Int count(List<Int> l) = case l { Nil => 0; Cons(_, t) => 1 + count(t); };
def List<Int> build(Int n, List<Int> acc) =
  if n <= 0 then acc else build(n - 1, Cons(n, acc));
interface B { List<Int> make(); Int seen(Bool same, Bool has, Int n); }
class BImp implements B {
  List<Int> make() { return build(20000, Nil); }
  Int seen(Bool same, Bool has, Int n) { return if same && has then n else 0; }
}
{
  B b = new BImp();
  Fut<List<Int>> f = b!make();
  List<Int> l = f.get;
  Bool same = l == build(20000, Nil);
  Bool has = contains(l, 20000);
  Int n = count(l);
  Fut<Int> g = b!seen(same, has, n);
}
"""


def test_deep_values_agree_across_interpreters(tmp_path):
    # a 20,000-element list is rendered into the return event, compared
    # with a rebuilt copy, scanned and counted by a non-tail recursion:
    # every walk of a value as deep as the list is long must recurse
    # through Python calls only, under each interpreter alike
    path = write(tmp_path, "deep.rtabs", DEEP_VALUES_SRC)
    result = simulate(load_model(path), 10)
    assert result.status == "finished"
    expected = render_csv(result.trace)
    assert ",make,\"value=Cons(1,Cons(2," in expected
    assert expected.endswith(",seen,value=20000\n")
    others, skipped = other_interpreters((3, 11))
    for exe in [sys.executable, *others.values()]:
        out = tmp_path / "deep.csv"
        res = subprocess.run(
            [exe, "-m", "rtabs.cli", "run", path, "--until", "10",
             "--trace", str(out)], capture_output=True, text=True, env=CLI_ENV)
        context = (exe, f"did not start: {skipped}", res.stderr[-500:])
        assert res.returncode == 0, context
        assert out.read_text(encoding="utf-8") == expected, context


DEEP_HASH_SCRIPT = """\
from rtabs.errors import deep_recursion
from rtabs.nodes import Lit
from rtabs.values import mk_list, num
with deep_recursion():
    value, twin = (mk_list([num(i) for i in range(20000)]) for _ in range(2))
    assert hash(value) == hash(twin) and {value: 1}[twin] == 1
    assert hash(Lit(value)) == hash(Lit(twin))
    print(hash(value))
"""


def test_deep_values_hash_across_interpreters():
    # a value as deep as a 20,000-element list hashes, on its own and in
    # a syntax node, through Python calls only, under each interpreter
    # alike; with one hash seed every interpreter gives the same hash
    others, skipped = other_interpreters((3, 11))
    hashes = set()
    for exe in [sys.executable, *others.values()]:
        res = subprocess.run([exe, "-c", DEEP_HASH_SCRIPT], capture_output=True,
                             text=True, env=dict(CLI_ENV, PYTHONHASHSEED="0"))
        assert res.returncode == 0, (exe, f"did not start: {skipped}",
                                     res.stderr[-500:])
        hashes.add(res.stdout)
    assert len(hashes) == 1


def test_nesting_within_the_limit_checks_and_runs(tmp_path):
    sources = nested_sources(NESTING_LIMIT) + [
        "{ Int x = " + "(" * 500 + "1" + ")" * 500 + "; }\n",
        "{ Int x = 1" + " + 1" * 1000 + "; }\n"]
    for k, source in enumerate(sources):
        path = write(tmp_path, f"m{k}.rtabs", source)
        res = run_cli("check", path)
        assert (res.returncode, res.stderr) == (0, ""), k
        res = run_cli("run", path, "--until", "5",
                      "--trace", str(tmp_path / "t.csv"))
        assert res.returncode == 0, (k, res.stderr[-300:])
        assert res.stderr.startswith("finished: "), k


def nested_functions(depth):
    """(source of `g`, g(3)) for a function `g` whose body nests `depth`
    levels deep by parentheses, by calls, by `if` and by `case`: the
    body is the first level."""
    n = depth - 1
    return [
        ("def Int g(Int x) = " + "(" * n + "x" + ")" * n + ";\n", 3),
        ("def Int f(Int x) = x + 1;\n"
         "def Int g(Int x) = " + "f(" * n + "x" + ")" * n + ";\n", 3 + n),
        ("def Int g(Int x) = " + "if x > 0 then " * n + "x"
         + " else 0" * n + ";\n", 3),
        ("def Int g(Int x) = " + "case x { 0 => 0; _ => " * n + "x"
         + "; }" * n + ";\n", 3)]


NESTED_FUNCTION_CALL = """\
interface A { Int m(Int x); }
class AImp implements A { Int m(Int x) { return g(x); } }
{ A a = new AImp(); Fut<Int> r = a!m(3); }
"""


def test_deeply_nested_function_bodies_run(tmp_path):
    # a function body runs however deep it nests, with the trace it has
    # always had, under each interpreter alike.  An eighth of the limit
    # is far past the levels a Python function can nest; the front end
    # alone takes seconds at the limit
    others, skipped = other_interpreters((3, 11))
    for k, (function, value) in enumerate(
            nested_functions(NESTING_LIMIT // 8)):
        path = write(tmp_path, f"g{k}.rtabs", function + NESTED_FUNCTION_CALL)
        out = tmp_path / f"g{k}.csv"
        for exe in [sys.executable, *others.values()]:
            res = subprocess.run(
                [exe, "-m", "rtabs.cli", "run", path, "--until", "5",
                 "--trace", str(out)], capture_output=True, text=True,
                env=CLI_ENV)
            context = (k, exe, f"did not start: {skipped}", res.stderr[-300:])
            assert res.returncode == 0, context
            assert out.read_text(encoding="utf-8") == CSV_HEADER + (
                "0,new_object,o0,,,class=<main>\n"
                "0,activate,o0,f0,main,deadline=inf;cost=0;critical=False\n"
                "0,schedule,o0,f0,main,deadline=inf\n"
                "0,new_object,o1,,,class=AImp\n"
                "0,invoke,o1,f1,m,caller=o0;deadline=inf;critical=False\n"
                "0,return,o0,f0,main,value=Unit;deadline=inf\n"
                "0,resolve,o0,f0,main,value=Unit\n"
                "0,activate,o1,f1,m,deadline=inf;cost=0;critical=False\n"
                "0,schedule,o1,f1,m,deadline=inf\n"
                f"0,return,o1,f1,m,value={value};deadline=inf\n"
                f"0,resolve,o1,f1,m,value={value}\n"), context


# functions, formals and binders named as Python keywords or as names a
# Python rendering of the model might use, and a string of Python source
NAMES_AND_TEXT_SRC = r"""
def String lambda(String yield, Int c) =
  case c { 0 => yield; pass => lambda(yield + "\"); import os; os._exit(3) #",
                                      pass - 1); };
def Int None(Int K0, Int t1) = case K0 { c => c + t1; };
interface A { String m(Int n); }
class AImp implements A {
  Int f = 0;
  String m(Int n) {
    Int e = n;
    Int p = case e { t1 => t1 + f; };
    return lambda("'''", None(p, 1));
  }
}
{ A a = new AImp(); Fut<String> r = a!m(0); }
"""


def test_model_names_and_strings_are_only_data(tmp_path):
    path = write(tmp_path, "names.rtabs", NAMES_AND_TEXT_SRC)
    res = run_cli("run", path, "--until", "5")
    assert res.returncode == 0, res.stderr[-300:]
    value = read_csv_text(res.stdout)[-1].data
    assert value == (("value", "\"'''" + '\\"); import os; os._exit(3) #"'),)


def test_front_end_failures_are_diagnostics_not_tracebacks(tmp_path):
    cases = [("{ Int x = 2²; }\n", "1:12: unexpected character '²'")]
    # one level past the limit is reported where that level begins
    for source in nested_sources(NESTING_LIMIT + 1):
        at = max(source.rfind("1"), source.rfind("True"))
        line = source.count("\n", 0, at) + 1
        col = at - source.rfind("\n", 0, at)
        cases.append((source, f"{line}:{col}: nesting deeper than "
                              f"{NESTING_LIMIT} levels"))
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

"""Engine semantics: time machinery, binding, reflection, rule behavior
observable through traces, and failure modes."""

import hashlib
import importlib.util
import random
import sys
from fractions import Fraction

import pytest

from rtabs import (
    Engine, FutureCell, InvocationMessage, ObjectState, PolicyError, cli,
    evaluator, load_model, load_source, simulate,
)
from rtabs.check import RESERVED
from rtabs.desugar import desugar
from rtabs.engine import (
    MAIN_CLASS, PROC_FIELDS, Configuration, lift, liftall, select, wait,
)
from rtabs.evaluator import EvalContext, remaining_deadline
from rtabs.nodes import (
    GBool, GFut, IfExpr, Lit, Node, RGet, SAssign, SAwait, SSkip, Var,
)
from rtabs.parser import parse_expr
from rtabs.prelude import prelude_model
from rtabs.trace import render_csv
from rtabs.values import (
    DURATION_POLICIES, FALSE, TRUE, DataVal, FutRef, NumVal, StrVal,
    mk_duration, mk_list, mk_time, num,
)

import mte_cases
import reference_executor as ref
from conftest import RUNTIME_ERROR_CASES, TESTS_DIR, compiled, model_file


def load(source):
    model, diags = load_source(source, "<engine-test>")
    assert diags == [], diags
    return desugar(model)


def run(source, limit=1000, **kw):
    return simulate(load(source), limit, **kw)


def events(result, kind):
    return [e for e in result.trace if e.kind == kind]


# ------------------------------------------------------------ mte and adv


def test_mte_adv_table():
    for name, check in mte_cases.CASES:
        check()
    assert len(mte_cases.CASES) == 13


def test_wait_answers():
    # wait is the one classifier of a blocked head: 0 when it may fire,
    # a delay, the unresolved future it waits for, or None for a boolean
    # conjunct that does not hold
    f, g = FutRef(1), FutRef(2)
    cells = {1: FutureCell(1), 2: FutureCell(2, resolved=True, value=num(0))}
    ctx = EvalContext(mte_cases.PROGRAM, Configuration(futures=cells))

    def answer(head, c=TRUE, sample=None):
        p = mte_cases.proc(9, [head], sample=sample)
        p.locals.update(f=f, g=g, c=c)
        return wait(p, mte_cases.idle(0, [p]), ctx)

    def get(target):
        return SAssign(None, "x", RGet(target))

    pick = IfExpr(Var("c"), Var("f"), Var("g"))
    assert answer(SSkip()) == 0
    assert answer(SAwait((GFut("g"),))) == 0
    assert answer(get(Var("g"))) == 0
    assert answer(get(pick), c=FALSE) == 0
    assert answer(mte_cases.duration(3, 3), sample=(Fraction(3),)) == 3
    assert answer(SAwait((mte_cases.conjunct(2, 4), GFut("g"))),
                  sample=(Fraction(4),)) == 4
    assert answer(SAwait((GFut("f"),))) == f
    assert answer(SAwait((GBool(Lit(TRUE)), GFut("f")))) == f
    assert answer(get(Var("f"))) == f
    assert answer(get(pick)) == f
    assert answer(SAwait((GBool(Lit(FALSE)),))) is None
    # the fold stops at the first conjunct that does not hold
    assert answer(SAwait((GBool(Lit(FALSE)), GFut("f")))) is None
    assert answer(SAwait((GFut("f"), GBool(Lit(FALSE))))) == f


# -------------------------------------------------------------- reflection


def test_lift_field_order():
    p = mte_cases.proc(4, [], deadline=mk_duration(40))
    p.locals["arrival"] = mk_time(15)
    p.locals["cost"] = mk_duration(2)
    p.locals["method"] = StrVal("request")
    assert lift(p, Fraction(0)) == DataVal("Proc", (
        FutRef(4), StrVal("request"), mk_time(15), mk_duration(2),
        mk_duration(40), mk_time(0), mk_time(0), FALSE, num(0)))
    # the deadline is absolute; a later lift sees less time left
    assert lift(p, Fraction(15)).args[4] == mk_duration(25)


def test_liftall_preserves_order():
    ps = [mte_cases.proc(1, []), mte_cases.proc(2, [])]
    assert liftall(ps, Fraction(0)) == mk_list([lift(ps[0], Fraction(0)),
                                              lift(ps[1], Fraction(0))])
    assert liftall([], Fraction(0)) == DataVal("Nil")


def test_select_by_reflected_pid():
    ps = [mte_cases.proc(1, []), mte_cases.proc(2, [])]
    assert select(FutRef(2), ps) is ps[1]
    assert select(FutRef(9), ps) is None


def test_reserved_process_fields_agree():
    # the prelude's Proc, PROC_FIELDS, lift, the engine's reserved locals
    # and the checker's reserved process names state the same nine fields
    proc_ctor, = [c for d in prelude_model().datatypes for c in d.ctors
                  if c.name == "Proc"]
    assert len(proc_ctor.arg_types) == len(PROC_FIELDS) == 9
    p = mte_cases.proc(1, [], deadline=mk_duration(7))
    p.locals = {name: StrVal(name) for name in PROC_FIELDS
                if name != "deadline"}
    assert [a.value if isinstance(a, StrVal) else a
            for a in lift(p, Fraction(0)).args] == [
        mk_duration(7) if name == "deadline" else name
        for name in PROC_FIELDS]
    reserved = Engine(load("{ skip; }"))._reserved_locals(
        0, "m", FALSE, mk_duration(0), Fraction(0))
    assert set(reserved) | {"deadline"} == set(PROC_FIELDS)
    assert RESERVED - {"queue"} == set(PROC_FIELDS)


# ----------------------------------------------------------------- binding


BIND_MODEL = """
interface Server { Bool request(String job); }
class ServerImp implements Server {
  [Cost: Duration(2)] Bool request(String job) { return True; }
}
{ Server s = new ServerImp(); }
"""


def test_bind_activation_locals():
    engine = Engine(load(BIND_MODEL))
    engine.run_until(1)
    fid = engine._fresh_fid()
    msg = InvocationMessage("request", callee=1, args=(StrVal("Photo"),),
                            fid=fid, deadline=mk_duration(40), critical=FALSE,
                            timestamp=Fraction(15))
    p = engine.bind_activation(msg)
    assert p.method == "request"
    assert p.label == "Photo"
    assert p.locals["arrival"] == mk_time(15)
    assert p.locals["cost"] == mk_duration(2)
    assert "deadline" not in p.locals and p.due == 40
    assert p.locals["destiny"] == FutRef(fid)
    assert p.locals["job"] == StrVal("Photo")
    assert not p.dispatched
    assert lift(p, Fraction(0)) == DataVal("Proc", (
        FutRef(fid), StrVal("request"), mk_time(15), mk_duration(2),
        mk_duration(40), mk_time(0), mk_time(0), FALSE, num(0)))


# ------------------------------------------------------- observed behavior


def test_empty_model_finishes_at_zero():
    result = run("{ skip; }")
    assert result.status == "finished"
    assert result.clock == 0
    first = result.trace[0]
    assert first.kind == "new_object" and first.get("class") == MAIN_CLASS


def test_model_without_main_is_quiet():
    result = simulate(desugar(load_source("class C { Unit m() { skip; } }")[0]), 10)
    assert result.status == "finished"
    assert [e.kind for e in result.trace] == ["new_object"]


def test_while_loop_computes():
    result = run("""
    interface C { Int fact(Int n); }
    class CImp implements C {
      Int fact(Int n) {
        Int acc = 1;
        Int i = 1;
        while (i <= n) { acc = acc * i; i = i + 1; }
        return acc;
      }
    }
    { C c = new CImp(); Fut<Int> f = c!fact(5); Int x = f.get; }
    """)
    assert result.status == "finished"
    ret = [e for e in events(result, "return") if e.method == "fact"]
    assert ret[0].get("value") == "120"


def test_else_if_and_declarations_without_initializer_run():
    result = run("""
    interface P {
      Int pick(Int n); Int zero(); String empty(); Bool no(); Fut<Int> none();
    }
    class PImp implements P {
      Int pick(Int n) {
        Int r = 0;
        if n == 1 { r = 10; } else if n == 2 { r = 20; } else { r = 30; }
        return r;
      }
      Int zero() { Int x; return x; }
      String empty() { String s; return s; }
      Bool no() { Bool z; return z; }
      Fut<Int> none() { Fut<Int> g; return g; }
    }
    { P p = new PImp(); Int a = p.pick(1); Int b = p.pick(2); Int c = p.pick(3);
      Int x = p.zero(); String s = p.empty(); Bool z = p.no();
      Fut<Int> g = p.none(); }
    """)
    assert result.status == "finished"
    assert [(e.method, e.get("value")) for e in events(result, "return")
            if e.method != "main"] == [
        ("pick", "10"), ("pick", "20"), ("pick", "30"), ("zero", "0"),
        ("empty", '""'), ("no", "False"), ("none", "null")]


@pytest.mark.parametrize("tail", ["", " return Unit;"])
def test_user_init_runs_before_run(tail):
    # the user's init runs in the init process, a trailing return dropped,
    # so that the self-call to run that follows it still fires
    result = run("""
    interface I { Unit run(); }
    class C implements I {
      Int x = 1;
      Unit init() { duration(2, 2); x = 10;%s }
      Unit run() { duration(x, x); }
    }
    { I o = new C(); }
    """ % tail)
    assert result.status == "finished" and result.clock == 12
    assert [e.method for e in events(result, "return")] == [
        "main", "init", "run"]


def test_duration_valued_bounds():
    src = "{ duration(Duration(1), Duration(2)); }"
    assert run(src, duration_policy="worst").clock == 2
    assert run(src, duration_policy="best").clock == 1


def test_get_target_reading_the_clock_is_woken_by_ticks():
    # at clock 1 the target is f, unresolved; from clock 5 it is g,
    # resolved since 1, so a tick must wake main even though f is still
    # running
    result = run("""
    interface S { Int v(Int d); }
    class SImp implements S { Int v(Int d) { duration(d, d); return d; } }
    { S a = new SImp(); S b = new SImp(); S c = new SImp();
      Fut<Int> f = a!v(20); Fut<Int> g = b!v(1); Fut<Int> h = c!v(7);
      await g?; Int x = (if timeValue(now) < 5 then f else g).get; }
    """, limit=40)
    assert result.status == "finished"
    assert result.clock == 20
    ret = [e for e in events(result, "return") if e.method == "main"]
    assert [e.time for e in ret] == [7]


def test_stale_timer_makes_no_tick():
    # a's head registers a timer at 5 while `open` holds; b closes it at
    # 2, so that timer is stale and nothing waits for time any more: the
    # run deadlocks at 2 instead of ticking to 5
    result = run("""
    interface I { Int a(); Int b(); }
    class C implements I {
      Bool open = True;
      Int a() { await open && duration(5, 5); return 1; }
      Int b() { open = False; return 0; }
    }
    { I o = new C(); o!a(); await duration(2, 2);
      Fut<Int> f = o!b(); await f?; }
    """)
    assert result.status == "deadlock"
    assert result.clock == 2
    assert [e.get("delta") for e in events(result, "tick")] == ["2"]


def test_delay_whose_guard_stops_holding_makes_no_tick():
    # a's head waits 5 while its deadline is not past; at the tick to 3
    # the deadline is past, so a waits for nothing a tick can bring and
    # the run deadlocks at 3 instead of ticking to 5
    result = run("""
    interface I { Int a(); }
    class C implements I {
      Int a() { await durationValue(deadline) > 0 && duration(5, 5);
                return 1; }
    }
    { I o = new C(); [Deadline: Duration(2)] Fut<Int> f = o!a();
      await duration(3, 3); }
    """)
    assert result.status == "deadlock"
    assert result.clock == 3
    assert [e.get("delta") for e in events(result, "tick")] == ["3"]


def test_register_sets_a_tick_timer_only_for_what_may_read_the_clock():
    # a stalled object wakes at the next tick only if a tick may change
    # what blocks it: computing a blocked head's wait read `now` or
    # `deadline`, itself or through the functions it calls.  That
    # wake-up is kept apart from the timer at the least delay, so it
    # hides no delay.  The checker keeps `now` out of function bodies;
    # the evaluator does not rely on that.
    model, diags = load_source("""
    def Bool late(Int t) = timeValue(now) > t;
    def Bool later(Int t) = late(t + 1);
    { skip; }
    """, "<engine-test>")
    assert [d.message for d in diags] == ["now is not available here"]
    engine = Engine(desugar(model))
    engine.config.futures.update({1: FutureCell(1), 2: FutureCell(2)})
    fields = {"s": num(1), "q": num(0), "myturn": num(5), "c": TRUE,
              "f": FutRef(1), "g": FutRef(2), "x": num(0)}

    def wakes(*heads, sample=None):
        """(whether the object waits for the next tick, its timer) once
        the ready set of an idle object with these heads is empty; the
        last head has the given sample"""
        engine._timers.clear()
        engine._tick_waiters.clear()
        obj = mte_cases.idle(0, [
            mte_cases.proc(pid, [head], deadline=mk_duration(10),
                           sample=sample if pid == len(heads) else None,
                           program=engine.program)
            for pid, head in enumerate(heads, 1)])
        obj.attrs.update(fields)
        assert engine.ready_set(obj) == []
        assert engine._timers == ([] if obj.wake_at is None
                                  else [(obj.wake_at, 0)])
        return 0 in engine._tick_waiters, obj.wake_at

    def guard(source, *more):
        return SAwait((GBool(parse_expr(source)), *more))

    def get(source):
        return SAssign(None, "x", RGet(parse_expr(source)))

    three = Fraction(3)
    assert wakes(guard("s > 0 && q + 1 == myturn")) == (False, None)
    assert wakes(guard("length(Cons(s, Nil)) > 1")) == (False, None)
    assert wakes(guard("later(3)")) == (True, None)
    assert wakes(guard("durationValue(deadline) < 5")) == (True, None)
    assert wakes(get("if c then f else g")) == (False, None)
    assert wakes(get("if timeValue(now) < 5 then f else g")) == (True, None)
    assert wakes(SAwait((GFut("f"),))) == (False, None)
    # a clock-reading conjunct that is never reached reads nothing
    assert wakes(guard("x > 0 && later(3)")) == (False, None)
    # one that holds before an unresolved future still read the clock
    assert wakes(guard("later(-5)", GFut("f"))) == (True, None)
    # a delay sets the timer; a conjunct that holds but read the clock
    # may stop holding at a tick, so it also sets a tick wake-up
    dur = mte_cases.conjunct(3, 3)
    assert wakes(guard("s > 0", dur), sample=(three,)) == (False, three)
    assert wakes(guard("later(-5)", dur), sample=(three,)) == (True, three)
    assert wakes(guard("later(3)"), mte_cases.duration(3, 3),
                 sample=(three,)) == (True, three)


def test_compiled_code_does_not_grow_with_run_length():
    # code is compiled per place of the model, never per step
    sizes = []
    for limit, status in ((40, "time_limit"), (600, "finished")):
        engine = Engine(load_model(model_file("media_server_sjf.rtabs")))
        assert engine.run_until(limit).status == status
        program = engine.program
        sizes.append((len(program.generator.idents),
                      len(program.class_codes)))
    assert sizes[0] == sizes[1]
    assert min(sizes[0]) > 0


def test_each_place_is_compiled_once(monkeypatch):
    # one `compile` for the main block with its object's policy and one
    # for each of the three classes; each statement place is written once
    compiles, written = [], []
    place = evaluator._Generator.place

    def counted_compile(*args, **kwargs):
        compiles.append(args[0])
        return compile(*args, **kwargs)

    def counted(write):
        def wrapper(self, node):
            written.append(node)
            return write(self, node)
        return wrapper

    monkeypatch.setattr(evaluator, "compile", counted_compile, raising=False)
    monkeypatch.setattr(evaluator._Generator, "place", counted(place))
    engine = Engine(load_model(model_file("monitor_general.rtabs")))
    assert engine.run_until(1000).status == "finished"
    assert len(compiles) == 4
    assert len(written) == len({id(node) for node in written}) == 38
    assert sorted(engine.program.class_codes) == [
        "BossImp", "MonitorImp", "WaiterImp"]


def test_running_builds_no_syntax(monkeypatch):
    # a process runs as a continuation over the desugared tree: no rule,
    # sampling or time advance builds a node, whatever statements run
    small = load("""
    interface W { Int work(Int n); }
    class WImp implements W {
      Int done = 0;
      Int work(Int n) {
        Int i = 0;
        while (i < n) { duration(1, 2); i = i + 1; }
        if (i > 1) { done = done + i; } else { skip; }
        return i;
      }
    }
    { W w = new WImp(); Fut<Int> f = w!work(3);
      await duration(1, 1) && f?; Int r = f.get; }
    """)
    media = load_model(model_file("media_server_sjf.rtabs"))
    node_init = Node.__init__
    built = 0

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        node_init(self, *args, **kwargs)

    for model, limit in ((small, 100), (media, 600)):
        engine = Engine(model, duration_policy="uniform")
        engine.boot()
        monkeypatch.setattr(Node, "__init__", counted)
        result = engine.run_until(limit)
        monkeypatch.undo()
        assert result.status == "finished" and result.steps > 20
        assert built == 0


def test_method_local_shadows_field():
    # a local declared with a field's name is read and written as the
    # local; the field keeps its own value for a later call
    result = run("""
    interface C { Int shadow(Int k); Int field(); }
    class CImp implements C {
      Int n = 7;
      Int shadow(Int k) { Int n = k; n = n + 1; return n; }
      Int field() { return n; }
    }
    { C c = new CImp(); Fut<Int> f = c!shadow(1); Int a = f.get;
      Fut<Int> g = c!field(); Int b = g.get; }
    """)
    assert result.status == "finished"
    values = {e.method: e.get("value") for e in events(result, "return")}
    assert values["shadow"] == "2"
    assert values["field"] == "7"


# a probe with a local n (1) over a field n (100), called with deadline 50,
# reaches its site after 4, with 46 left; a site returns 47 only if it
# reads the local n and `deadline` as the time left
SCOPE_MODEL = """
interface One {{ Rat one(); }}
class OneImp implements One {{ Rat one() {{ return 1; }} }}
class BoxImp(Rat v) implements One {{ Rat one() {{ return v; }} }}

interface Echo {{ Rat echo(Rat v); }}
class EchoImp implements Echo {{
  Rat echo(Rat v) {{
    Rat out = 0;
    if (critical) {{ out = v + durationValue(deadline) - 47; }}
    return out;
  }}
}}

interface Probe {{ Rat probe(); }}
{annotation} class ProbeImp implements Probe {{
  Int n = 100;
  Rat k = 100;
  Fut<Rat> held;
  Fut<Rat> g;
  Rat probe() {{
    Int n = 1;
    Rat r = 0;
    duration(4, 4);
    {site}
  }}
}}

{{ Probe p = new ProbeImp(); [Deadline: Duration(50)] Fut<Rat> f = p!probe();
  Rat r = f.get; }}
"""

# (class annotation, the probe's code from its site on); a field `k` and
# a null field `g` stand behind a case binder and a local of those names
SCOPE_SITES = {
    "await guard": (
        "", "await n == 1 && durationValue(deadline) == 46; return 47;"),
    "future in a field": ("", """One o = new OneImp(); held = o!one();
        await held? && n == 1 && durationValue(deadline) == 46; return 47;"""),
    "future in a local": ("", """One o = new OneImp(); Fut<Rat> g = o!one();
        await g? && n == 1 && durationValue(deadline) == 46; return 47;"""),
    "if condition": ("", """if (n == 1 && durationValue(deadline) == 46) {
        r = 47; } return r;"""),
    "assignment": ("", "r = n + durationValue(deadline); return r;"),
    "return": ("", "return n + durationValue(deadline);"),
    "duration bounds": ("", """duration(n + durationValue(deadline), 47 * n);
        return timeValue(now) - 4;"""),
    "await duration bounds": ("", """await duration(n + durationValue(deadline),
        47 * n); return timeValue(now) - 4;"""),
    "new arguments": ("", """One b = new BoxImp(n + durationValue(deadline));
        Fut<Rat> x = b!one(); r = x.get; return r;"""),
    "call arguments and annotations": ("", """Echo e = new EchoImp();
        [Deadline: Duration(n + durationValue(deadline))] [Critical: n == 1]
        Fut<Rat> x = e!echo(n + durationValue(deadline)); r = x.get;
        return r;"""),
    "get target": ("", """One o = new OneImp(); Fut<Rat> g = o!one();
        r = (if n == 1 && durationValue(deadline) == 46 then g else held).get;
        return r + 46;"""),
    "case binder in a statement": (
        "", "return case n { k => k + durationValue(deadline); };"),
    "case binder in a policy": (
        "[Scheduler: case head(queue) { k => k; }]",
        "return n + durationValue(deadline);"),
}


@pytest.mark.parametrize("site", sorted(SCOPE_SITES))
def test_every_site_reads_locals_over_fields_and_the_time_left(site):
    annotation, code = SCOPE_SITES[site]
    result = run(SCOPE_MODEL.format(annotation=annotation, site=code))
    assert result.status == "finished", result.error
    assert [e.get("value") for e in events(result, "return")
            if e.method == "probe"] == ["47"]


def test_blocking_get_resumes_on_resolution():
    result = run("""
    interface S { Int val(); }
    class SImp implements S { Int val() { duration(3, 3); return 42; } }
    { S s = new SImp(); Fut<Int> f = s!val(); Int x = f.get; }
    """)
    assert result.status == "finished"
    assert result.clock == 3
    ret = [e for e in events(result, "return") if e.method == "val"][0]
    assert ret.time == 3 and ret.get("value") == "42"


def test_start_is_first_dispatch():
    # b arrives at 0 but the object is busy until 5; its one schedule
    # event is the dispatch
    result = run("""
    interface S { Unit a(); Unit b(); }
    class SImp implements S {
      Unit a() { duration(5, 5); }
      Unit b() { skip; }
    }
    { S s = new SImp(); s!a(); s!b(); }
    """)
    assert result.status == "finished"
    activate_b = [e for e in events(result, "activate") if e.method == "b"][0]
    schedule_b = [e for e in events(result, "schedule") if e.method == "b"][0]
    assert activate_b.time == 0
    assert schedule_b.time == 5


def test_await_duration_resamples_per_iteration():
    result = run("""
    { Int i = 0; while (i < 2) { await duration(3, 3); i = i + 1; } }
    """)
    assert result.status == "finished"
    assert result.clock == 6
    ticks = [e.get("delta") for e in events(result, "tick")]
    assert ticks == ["3", "3"]


def test_suspend_requeues_and_resumes():
    result = run("{ Int x = 1; suspend; x = 2; }")
    assert result.status == "finished"
    sus = events(result, "suspend")
    assert len(sus) == 1 and sus[0].data == ()


def test_await_false_guard_records_guard_text():
    # the await sits mid-body so go is dispatched before it blocks
    result = run("""
    interface S { Unit go(); Unit poke(); }
    class SImp implements S {
      Int x = 0;
      Unit go() { skip; await x > 0; }
      Unit poke() { duration(2, 2); x = 1; }
    }
    { S s = new SImp(); s!go(); s!poke(); }
    """)
    assert result.status == "finished"
    assert result.clock == 2
    sus = [e for e in events(result, "suspend") if e.method == "go"][0]
    assert sus.get("guard") == "x > 0"
    # a sampled conjunction reads as its conjuncts, left to right
    result = run("""
    interface I { Unit m(); }
    class C implements I { Unit m() { skip; } }
    { I o = new C(); Fut<Unit> f = o!m(); skip;
      await duration(3, 3) && f? && (True && 1 < 2); }
    """)
    sus = [e for e in events(result, "suspend") if e.method == "main"][0]
    assert sus.get("guard") == "duration[3, 3] && f? && True && 1 < 2"


def test_unstarted_process_with_false_guard_is_not_ready():
    # head-of-body await with a false guard keeps the process out of the
    # ready set entirely, so it is dispatched once, after the guard holds
    result = run("""
    interface S { Unit go(); Unit poke(); }
    class SImp implements S {
      Int x = 0;
      Unit go() { await x > 0; }
      Unit poke() { duration(2, 2); x = 1; }
    }
    { S s = new SImp(); s!go(); s!poke(); }
    """)
    assert result.status == "finished"
    assert [e for e in events(result, "suspend") if e.method == "go"] == []
    schedule_go = [e for e in events(result, "schedule") if e.method == "go"]
    assert len(schedule_go) == 1 and schedule_go[0].time == 2


# ------------------------------------------------------- duration sampling


def test_duration_policy_worst_best_uniform():
    src = "{ duration(2, 6); }"
    assert run(src, duration_policy="worst").clock == 6
    assert run(src, duration_policy="best").clock == 2
    u = run(src, duration_policy="uniform", seed=3).clock
    assert 2 <= u <= 6


def test_uniform_seeds_vary():
    clocks = {run("{ duration(1, 9); }", duration_policy="uniform", seed=s).clock
              for s in range(10)}
    assert len(clocks) >= 2


def test_fix_head_samples_once():
    # sampling a head draws once for its duration conjunct and leaves the
    # parsed head, with its other conjuncts, as it is; fixing it again
    # neither samples it again nor draws again
    eng = Engine(load("""
    interface I { Unit m(); Unit n(); }
    class C implements I {
      Fut<Int> f;
      Unit m() { await duration(1, 3) && f?; }
      Unit n() { await f?; }
    }
    { I o = new C(); o!m(); o!n(); }
    """), duration_policy="uniform")
    eng.boot()
    while eng.exec_step() != "activation":
        pass
    obj = eng.config.objects[1]
    p = obj.queue[0]
    parsed = p.block[p.index]
    state = eng.rng.getstate()
    eng._fix_head(p, obj)
    fixed = p.sample
    assert eng.rng.getstate() != state
    assert len(fixed) == 1 and 1 <= fixed[0] <= 3
    assert p.block[p.index] is parsed and isinstance(parsed.guards[1], GFut)
    state = eng.rng.getstate()
    eng._fix_head(p, obj)
    assert p.sample is fixed
    assert eng.rng.getstate() == state
    # an await head with no duration conjunct samples to (), not None, so
    # it counts as sampled and is not scanned again; it draws nothing
    assert eng.exec_step() == "activation"
    q = obj.queue[1]
    eng._fix_head(q, obj)
    assert q.sample == ()
    assert eng.rng.getstate() == state




def test_zero_duration_needs_no_tick():
    result = run("{ duration(0, 0); }")
    assert result.status == "finished"
    assert result.clock == 0
    assert events(result, "tick") == []


SECOND_HALF_SRC = """
interface I { Int m(); }
class C implements I { Int m() { return 1; } }
{ I p = new C(); Fut<Int> g = p!m(); Bool c = False;
  if (c) { I o = p; Fut<Int> f = g; Int r = 0; }
  """


def test_malformed_duration_bounds_error():
    # the other runtime errors are reported the same way, naming the process
    for name, source, message, clock, method, at in RUNTIME_ERROR_CASES:
        result = run(source)
        assert result.status == "error", name
        assert message in result.error.describe(), name
        assert str(result.error.pos) == f"<engine-test>:{at}", name
        assert result.clock == clock, name
        assert result.trace[-1].kind == "error", name
        assert result.trace[-1].pid == result.error.pid is not None, name
        assert result.trace[-1].method == method, name
    # an error in a `while` condition shows the loop unrolled once, as
    # the rules step it
    result = run("{ Int x = 0; while (x) { x = x + 1; } }")
    assert result.error.describe() == (
        "condition is 0, not a Bool at <engine-test>:1:14 in object o0 "
        "process f0 statement `if x {\n  x = x + 1;\n  while x {\n"
        "    x = x + 1;\n  }\n}`")
    # one at the second half of a `new`, a call or a `.get` shows the
    # value the half stores; a name declared in a branch and assigned
    # after it reaches the run only past the checker, which rejects it
    for tail, stmt in (("o = new C();", "o = o2;"), ("f = p!m();", "f = f2;"),
                       ("r = g.get;", "r = 1;")):
        model, diags = load_source(SECOND_HALF_SRC + tail + " }",
                                   "<engine-test>")
        assert [d.render() for d in diags] == [
            f"<engine-test>:6:3: error: unknown variable {tail[0]}"]
        result = simulate(desugar(model), 1000)
        assert result.error.describe() == (
            f"unbound variable {tail[0]} at <engine-test>:6:3 in object o0 "
            f"process f0 statement `{stmt}`")


# ------------------------------------------------------------- time limits


def test_limit_boundary_inclusive():
    result = run("{ duration(5, 5); skip; }", limit=5)
    assert result.status == "finished"
    assert result.clock == 5


def test_limit_stops_before_crossing():
    result = run("{ duration(10, 10); }", limit=5)
    assert result.status == "time_limit"
    assert result.clock == 0
    assert events(result, "tick") == []


def test_limit_mid_run():
    result = run("{ duration(5, 5); duration(10, 10); }", limit=5)
    assert result.status == "time_limit"
    assert result.clock == 5


def test_step_limit_stops_instantaneous_loop():
    result = Engine(load("{ while (True) { skip; } }")).run_until(
        10, max_steps=50)
    assert (result.status, result.steps, result.clock) == ("step_limit", 50, 0)


# -------------------------------------------------------------- deadlines


def test_deadline_miss_event_and_remaining():
    result = run("""
    interface S { Unit slow(); }
    class SImp implements S { Unit slow() { duration(7, 7); } }
    { S s = new SImp(); [Deadline: Duration(5)] s!slow(); }
    """)
    assert result.status == "finished"
    ret = [e for e in events(result, "return") if e.method == "slow"][0]
    assert ret.get("deadline") == "-2"
    miss = events(result, "deadline_miss")[0]
    assert miss.method == "slow" and miss.get("lateness") == "2"


def test_deadline_exactly_met_is_no_miss():
    result = run("""
    interface S { Unit slow(); }
    class SImp implements S { Unit slow() { duration(7, 7); } }
    { S s = new SImp(); [Deadline: Duration(7)] s!slow(); }
    """)
    ret = [e for e in events(result, "return") if e.method == "slow"][0]
    assert ret.get("deadline") == "0"
    assert events(result, "deadline_miss") == []


# --------------------------------------------------------------- deadlock


def test_self_sync_call_deadlocks():
    result = run("""
    interface A { Int f(); }
    class AImp implements A { Int f() { Int x = this.f(); return x; } }
    { A a = new AImp(); Fut<Int> g = a!f(); Int y = g.get; }
    """)
    assert result.status == "deadlock"
    # a head blocked on a future names it
    assert result.blocked == [
        f"o0 ({MAIN_CLASS}): process f0 (main) blocked at `Int y = g.get;` "
        f"(waits for f1)",
        "o1 (AImp): process f1 (f) blocked at `Int x = $t0.get;` "
        "(waits for f2)"]


def test_unsatisfiable_guard_deadlocks():
    result = run("{ Int x = 0; await x > 0; }")
    assert result.status == "deadlock"
    assert any("no ready process" in line for line in result.blocked)
    # each queued process is named with its head
    assert result.blocked == [
        f"o0 ({MAIN_CLASS}): no ready process (queued: f0 at `await x > 0;`)"]


# ------------------------------------------------------ process reflection


def test_dp_follows_the_values_assigned_before_suspending():
    # each process sets its own `value`, then suspends; dp picks the least
    # value of the reflected queue, so once all three have suspended they
    # resume in value order (1, 2, 3), not in queue order (3, 1, 2)
    result = run("""
    interface W { Unit work(Int v); }
    [Scheduler: dp(queue)] class WImp implements W {
      Unit work(Int v) { value = v; suspend; }
    }
    { W w = new WImp(); w!work(3); w!work(1); w!work(2); }
    """)
    assert result.status == "finished"
    three, one, two = [e.pid for e in events(result, "invoke")]
    order = [e.pid for e in events(result, "schedule") if e.obj == 1]
    # all values are 0 at first, and dp keeps the first of equals
    assert order == [three, one, two] + [one, two, three]


# ----------------------------------------------------------- policy errors


def test_scheduler_annotation_errors_surface():
    result = run("""
    interface S { Unit a(); Unit b(); }
    [Scheduler: 42] class SImp implements S {
      Unit a() { duration(1, 1); }
      Unit b() { skip; }
    }
    { S s = new SImp(); s!a(); s!b(); }
    """)
    assert result.status == "error"
    assert "not a process" in str(result.error)
    assert result.error.describe().endswith("statement `[Scheduler: 42]`")


def test_policy_selecting_foreign_process_rejected():
    engine = Engine(load("{ skip; }"))
    engine.boot()
    foreign = DataVal("Proc", lift(mte_cases.proc(99, []), Fraction(0)).args)
    policy = Lit(foreign)
    obj = ObjectState(7, "C", policy, {}, compiled(engine.program, policy))
    ready = [mte_cases.proc(1, [])]
    with pytest.raises(PolicyError) as err:
        engine.evaluate_policy(obj, ready)
    assert "outside the ready queue" in str(err.value)
    assert err.value.stmt.startswith("[Scheduler: ")


# ------------------------------------------------------------ step loop


def test_ready_set_probed_at_most_once_per_step(media_models, monkeypatch):
    # a stalled object is not probed again until something it waits for
    # happens, so idle objects cost no ready-set computation per step
    calls = 0
    ready_set = Engine.ready_set

    def counted(self, obj):
        nonlocal calls
        calls += 1
        return ready_set(self, obj)

    monkeypatch.setattr(Engine, "ready_set", counted)
    result = simulate(media_models["sjf"], 600)
    assert result.status == "finished" and result.steps > 1000
    assert calls <= result.steps


# ------------------------------------------------------------- determinism


def test_identical_runs_are_byte_identical(single_request_model):
    a = simulate(single_request_model, 600)
    b = simulate(single_request_model, 600)
    assert render_csv(a.trace) == render_csv(b.trace)


def test_uniform_runs_deterministic_per_seed(monitor_models):
    a = simulate(monitor_models["simple"], 200, seed=5, duration_policy="uniform")
    b = simulate(monitor_models["simple"], 200, seed=5, duration_policy="uniform")
    assert render_csv(a.trace) == render_csv(b.trace)


# ------------------------------------------------------------- exactness


def held_rationals(eng, seen):
    """Every rational an engine holds: its clock and timers, each
    process's deadline, time left and sampled ends, each message's
    timestamp, and every number inside a value it holds that is not
    in seen, the values walked before (by identity, which seen keeps)."""
    config, values = eng.config, []
    out = [config.clock, *(t for t, _ in eng._timers)]
    for obj in config.objects.values():
        out += [] if obj.wake_at is None else [obj.wake_at]
        values += obj.attrs.values()
        for p in [obj.active, *obj.queue] if obj.active else obj.queue:
            out += ([] if p.due is None else [p.due]) + list(p.sample or ())
            values += [*p.locals.values(), p.pending,
                       remaining_deadline(p, config.clock)]
        for msg in obj.inbox:
            out.append(msg.timestamp)
            values += [*msg.args, msg.deadline, msg.critical]
    values += [cell.value for cell in config.futures.values()]
    while values:
        v = values.pop()
        if id(v) not in seen:
            seen[id(v)] = v
            if isinstance(v, NumVal):
                out.append(v.value)
            elif isinstance(v, DataVal):
                values += v.args
    return out


def is_exact(r):
    """Whether r is a rational as the engine keeps it: an int when it
    is integral, else a Fraction."""
    return type(r) is int or (type(r) is Fraction and r.denominator != 1)


def run_checked(eng, limit, each_step):
    """Run eng to its end, yielding the rationals it holds at each
    quiescence, or after each step too, and at last its event times."""
    eng.boot()
    seen = {}
    while True:
        while eng.exec_step() is not None:
            if each_step:
                yield held_rationals(eng, seen)
        yield held_rationals(eng, seen)
        if eng.advance(limit) is not None:
            yield [event.time for event in eng.trace]
            return


def test_no_float_in_generated_programs():
    # each reference-inclusion program under each duration policy: every
    # rational the engine holds after every step is exact
    for seed in range(200):
        model, _ = ref.generate_model(seed)
        for policy in DURATION_POLICIES:
            eng = Engine(model, seed=seed, duration_policy=policy)
            for held in run_checked(eng, ref.LIMIT, each_step=True):
                assert all(map(is_exact, held)), (seed, policy)


def bench_workloads():
    """bench/workloads.py, loaded from its file as `bench_workloads`."""
    module = sys.modules.get("bench_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", TESTS_DIR.parent / "bench" / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_no_float_in_bench_workloads():
    # the media workloads compute with integers only; the monitor's
    # uniform draws are rationals
    workloads = bench_workloads()
    for wl in (workloads.media_overload(), workloads.media_fanout(),
               workloads.monitor_uniform(1)):
        flags = dict(zip(wl.run_flags[::2], wl.run_flags[1::2]))
        eng = Engine(load(wl.source), seed=int(flags.get("--seed", 0)),
                     duration_policy=flags["--duration-policy"])
        fractions = 0
        for held in run_checked(eng, wl.until, each_step=False):
            assert all(map(is_exact, held)), wl.name
            fractions += sum(type(r) is not int for r in held)
        assert (eng.config.clock, fractions > 0) == (
            wl.clock, wl.name == "monitor-uniform"), wl.name


def test_media_fanout_outputs_are_pinned(tmp_path, capsys):
    # the workload on which the benchmark times `rtabs metrics`: its trace
    # and what `rtabs metrics --series misses` prints from it, plain and
    # `--by method`, byte for byte
    wl = bench_workloads().media_fanout()
    flags = dict(zip(wl.run_flags[::2], wl.run_flags[1::2]))
    result = simulate(load(wl.source), wl.until, int(flags.get("--seed", 0)),
                      flags["--duration-policy"])
    text = render_csv(result.trace)

    def sha256(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert sha256(text) == (
        "aa0bfd99b8ce3ff275893a800aba337aff5071403b36190b35a7ead6efabeb4e")
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8", newline="")
    outputs = []
    for by in ([], ["--by", "method"]):
        assert cli.main(["metrics", str(path), "--series", "misses", *by]) == 0
        outputs.append(sha256(capsys.readouterr().out))
    assert outputs == [
        "db4a77bd8388ef55369555dc5c63888a3e74083fbcc24c245367f6b20c03879f",
        "8d4d47766b92c7f5cabcc2f9f7885e18db6985e03d2769c0d032c4824eb1f36a"]


def test_rationals_keep_their_exact_values():
    half = run("{ Rat x = 7/2; duration(x, x); }").clock
    assert (type(half), half) == (Fraction, Fraction(7, 2))
    one = run("{ Rat x = (1/3) * 3; duration(x, x); }").clock
    assert (type(one), one) == (int, 1)
    # a uniform draw between 1 and 2 ends 1 + k/1000 after its start, k
    # the seeded draw from 0 to 1000
    k = random.Random(0).randint(0, 1000)
    drawn = run("{ duration(1, 2); }", duration_policy="uniform", seed=0)
    assert drawn.clock == 1 + Fraction(k, 1000) and k % 1000 != 0
    assert type(drawn.clock) is Fraction

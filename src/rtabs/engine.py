"""Timed simulation engine for concurrent object models.

A Configuration holds concurrent objects (each with an inbox of
invocation messages not yet bound, at most one active process and a
queue of suspended or pending ones), futures, and the global clock.
Execution alternates two phases: apply instantaneous rules until
quiescence, then advance the clock by the maximum time elapse (mte).

Time is stored absolute.  A process keeps its absolute deadline in
`due`, and a sampled duration (the `duration` statement, a duration
conjunct of an await guard) the absolute time it ends, so advancing
time moves only the clock.  No process keeps a `deadline` local: the
time left, which models and traces see, is derived from the clock when
a process's code reads `deadline`, when the process is lifted into a
Proc value, and when a head or a deadline is rendered.  Its code
evaluates on its locals, its object's fields and the process itself,
never on a merged scope (`evaluator.lookup`).

Rule choice is determinized for reproducibility: each step applies a
rule of the lowest-oid object that has one; per object, pending
activations are bound first, then one rule for the active process, else
a scheduling decision.  Any run produced this way is one of the legal
interleavings of the underlying nondeterministic semantics.

The loop is incremental.  An object visited without a rule applying is
stalled and skipped until an event that may let it step: a message for
it, the resolution of a future one of its blocked heads waits for, or a
tick that reaches the earliest time one of them may fire (any tick, for
a head with a boolean conjunct or a `.get` target that may read the
clock, as the evaluator records for each expression).  The visit
registers these wake-ups from the waits it has just computed.  Only an
object's own steps change its fields and processes, so no other event
can.  Visiting a stalled object again would draw nothing: with an active
process its queue is not consulted, and without one its last visit
computed the ready set, which samples every queued head.  So the rules
applied and the random draws are those of visiting every object in
creation order after every step.

Scheduling decisions call back into the modeled language: the object's
policy expression is evaluated with `queue` bound to the reflected list
of ready processes, and must return one of them.

One function, `wait(p, obj, ctx)`, says when a process head is enabled
and what else it waits for: 0 now, a positive delay, the unresolved
future it awaits or gets, or None for a boolean conjunct that does not
hold.  For an await head it folds over the guard's conjuncts left to
right: it stops at the first boolean or future conjunct that does not
hold, else it is the longest remaining sampled duration.  It drives
every use of enabledness: the ready set holds the queued processes whose
wait is 0, the active process blocks while its wait is not 0, and a
stalled object wakes on what its heads' waits name.

mte is the least delay over each object's active process, or over its
queue when it has none (`mte_raw` says so directly).  The engine reads
it from the wake-ups instead.  At quiescence every object is stalled,
and the visit that stalled it registered a timer at the absolute time
its earliest head may fire, if one waits for time.  Those waits are
still exact: times are absolute, only an object's own steps change its
fields, a future's resolution wakes the objects that wait for it, and an
object with a head whose wait a tick may change otherwise (one that may
read the clock) wakes at every tick and registers again.  So mte is the
earliest timer still live less the clock, and a tick consults no object
that has not been woken since the last one.

`simulate`, `Engine.run_until` and `rtabs run` share one loop
(`run_until`), which runs on a dedicated big-stack thread.
"""

from __future__ import annotations

import heapq
import random
import sys
import threading
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from .desugar import default_policy
from .errors import (
    EvalTypeError, PolicyError, RtRuntimeError, UnboundVariableError,
    UnknownMethodError,
)
from .evaluator import (
    EvalContext, Program, awaited_future, eval_expr, eval_guard,
    remaining_deadline,
)
from .nodes import (
    Expr, GBool, GDuration, GFut, Lit, Model, RCall, RDur, RExpr, RGet, RNew,
    SAssign, SAwait, SDuration, SDuration2, SIf, SReturn, SSkip, SSuspend,
    SWhile, Stmt, TypeAst,
)
from .pretty import render_expr, render_guard, render_stmt
from .trace import Trace, TraceEvent
from .values import (
    DURATION_POLICIES, FALSE, INF_DURATION, NULL, BoolVal, DataVal, FutRef,
    NumVal, ObjRef, StrVal, Value, duration_rat, format_rat, is_duration,
    is_inf_duration, mk_duration, mk_list, mk_time, num, render_duration_field,
    render_value,
)

MAIN_CLASS = "<main>"

# the nine reserved process locals, in reflection order
PROC_FIELDS = ("destiny", "method", "arrival", "cost", "deadline",
               "start", "finish", "critical", "value")


@dataclass
class ProcessRecord:
    pid: int
    oid: int
    method: str
    locals: dict[str, Value]
    body: list[Stmt]
    dispatched: bool = False
    label: str | None = None
    # the absolute deadline; None when infinite.  The only store of a
    # deadline: the `deadline` a model or a Proc sees is derived from it.
    due: Fraction | None = None


@dataclass
class ObjectState:
    oid: int
    cls: str
    policy: Expr
    attrs: dict[str, Value]
    active: ProcessRecord | None = None
    queue: list[ProcessRecord] = field(default_factory=list)
    # invocation messages not yet bound, in arrival order
    inbox: deque[InvocationMessage] = field(default_factory=deque)
    # no rule applies until a wake-up event (see Engine._register)
    stalled: bool = False
    # while stalled, the earliest time one of its blocked heads may fire,
    # if one waits for time; the one live entry of the timer heap
    wake_at: Fraction | None = None

    def processes(self) -> list[ProcessRecord]:
        out = [self.active] if self.active is not None else []
        return out + list(self.queue)


@dataclass
class InvocationMessage:
    method: str
    callee: int
    args: tuple[Value, ...]
    fid: int
    deadline: Value
    critical: Value
    timestamp: Fraction


@dataclass
class FutureCell:
    fid: int
    resolved: bool = False
    value: Value | None = None

    def resolve(self, value: Value) -> None:
        assert not self.resolved, f"future f{self.fid} resolved twice"
        self.resolved = True
        self.value = value


@dataclass
class Configuration:
    objects: dict[int, ObjectState] = field(default_factory=dict)
    futures: dict[int, FutureCell] = field(default_factory=dict)
    clock: Fraction = Fraction(0)


@dataclass
class RunResult:
    status: str  # finished | time_limit | deadlock | error | step_limit
    trace: Trace
    clock: Fraction
    steps: int
    error: RtRuntimeError | None = None
    blocked: list[str] = field(default_factory=list)


# ------------------------------------------------------- process reflection


def lift(p: ProcessRecord, clock: Fraction) -> DataVal:
    """Project a process's reserved locals at clock into a Proc value."""
    locals_ = p.locals
    return DataVal("Proc", (
        locals_["destiny"], locals_["method"], locals_["arrival"],
        locals_["cost"], remaining_deadline(p, clock), locals_["start"],
        locals_["finish"], locals_["critical"], locals_["value"]))


def liftall(processes: list[ProcessRecord], clock: Fraction) -> Value:
    return mk_list([lift(p, clock) for p in processes])


def select(pid_value: Value, processes: list[ProcessRecord]) -> ProcessRecord | None:
    """Find the process whose identity matches a reflected pid; None on miss."""
    for p in processes:
        if p.locals["destiny"] == pid_value:
            return p
    return None


# ------------------------------------------------------------ time machinery
#
# Times are stored absolute: a process's deadline (`due`) and the ends of
# a sampled duration (SDuration2, RDur) are clock times, so advancing
# time only moves the clock.  What a model or a trace sees is the time
# left, derived here: remaining_deadline for `deadline`, relative for a
# sampled head.
#
# wait and mte require the duration conjuncts of await guards in head
# position to be sampled already (the engine fixes them before
# consulting any of them).

_ZERO = Fraction(0)


def relative(stmt: Stmt, clock: Fraction) -> Stmt:
    """A sampled head with the absolute ends of its durations replaced by
    the time left at clock, as it is rendered; any other statement as
    it is."""
    if isinstance(stmt, SDuration2):
        return SDuration2(stmt.best - clock, stmt.worst - clock)
    if isinstance(stmt, SAwait) and any(isinstance(g, RDur) for g in stmt.guards):
        return SAwait(tuple(
            RDur(g.best - clock, g.worst - clock) if isinstance(g, RDur) else g
            for g in stmt.guards), pos=stmt.pos)
    return stmt


Wait = Fraction | FutRef | None


def wait(p: ProcessRecord, obj: ObjectState, ctx: EvalContext) -> Wait:
    """What p's head waits for: 0 when it may fire now, a positive delay
    when it may fire once that much time has passed, the unresolved
    future it awaits (`f?`) or gets (`x = e.get`), or None when a
    boolean conjunct does not hold.  Each conjunct and the `.get` target
    evaluate in p's scope: its locals, then its object's fields."""
    head = p.body[0]
    clock = ctx.config.clock
    if isinstance(head, SDuration2):
        return _ZERO if head.best <= clock else head.worst - clock
    if isinstance(head, SAwait):
        end = None  # the latest end of a duration conjunct still running
        for guard in head.guards:
            if isinstance(guard, RDur):
                if guard.best > clock and (end is None or guard.worst > end):
                    end = guard.worst
            elif isinstance(guard, GDuration):
                raise AssertionError("wait on an unsampled duration guard")
            elif isinstance(guard, GFut):
                fut = awaited_future(guard, p.locals, ctx, obj.attrs, p)
                if not ctx.config.futures[fut.fid].resolved:
                    return fut
            elif not eval_guard(guard, p.locals, ctx, obj.attrs, p):
                return None
        return _ZERO if end is None else end - clock
    if isinstance(head, SAssign) and isinstance(head.rhs, RGet):
        fut = eval_expr(head.rhs.expr, p.locals, ctx, obj.attrs, p)
        if not isinstance(fut, FutRef):
            raise EvalTypeError(
                f"get applied to {render_value(fut)}, not a future",
                head.rhs.pos)
        return _ZERO if ctx.config.futures[fut.fid].resolved else fut
    return _ZERO


def mte_raw(config: Configuration, program: Program) -> Fraction | None:
    """The least delay over each object's active process, or over its
    queue when it has none; None when nothing waits for time.  The
    definition of mte: `Engine.advance` reads the same figure from the
    timers that stalled objects registered."""
    ctx = EvalContext(program, config)
    out: Fraction | None = None
    for obj in config.objects.values():
        for p in obj.queue if obj.active is None else (obj.active,):
            try:
                w = wait(p, obj, ctx)
            except RtRuntimeError as err:
                _locate(err, obj.oid, p, config.clock)
                raise
            if type(w) is Fraction and (out is None or w < out):  # a delay
                out = w
    return out


def _locate(err: RtRuntimeError, oid: int, p: ProcessRecord | None,
            clock: Fraction) -> None:
    """Name the object, process and head statement an error arose at,
    unless an inner handler already did."""
    if err.obj is None:
        err.obj = oid
    if p is not None and err.pid is None:
        err.pid = p.pid
        err.method = p.method
        if err.stmt is None and p.body:
            err.stmt = render_stmt(relative(p.body[0], clock)).strip()


def mte(config: Configuration, program: Program) -> Value:
    raw = mte_raw(config, program)
    return INF_DURATION if raw is None else mk_duration(raw)


def adv(config: Configuration, delta: Fraction) -> None:
    """Advance the clock by delta.  Deadlines and pending durations are
    absolute, so the time left on each shrinks by delta without any
    term being rewritten."""
    config.clock += delta


# ------------------------------------------------------------------- engine


class Engine:
    """Deterministic interpreter for a checked, desugared model."""

    def __init__(self, model: Model, seed: int = 0,
                 duration_policy: str = "worst", trace: Trace | None = None):
        if duration_policy not in DURATION_POLICIES:
            raise ValueError(f"unknown duration policy {duration_policy!r}")
        self.model = model
        self.program = Program.from_model(model)
        self.rng = random.Random(seed)
        self.duration_policy = duration_policy
        self.trace = trace if trace is not None else Trace()
        self.config = Configuration()
        # the one context every evaluation of the run reads the clock and
        # the futures through
        self.ctx = EvalContext(self.program, self.config)
        # the oids of the objects that are not stalled, as a heap
        self._awake: list[int] = []
        # what wakes a stalled object: a future's resolution, a time, the
        # next tick.  An entry (t, oid) of the timer heap is live only
        # while objects[oid].wake_at == t; the others are dropped unread.
        self._future_waiters: dict[int, set[int]] = {}
        self._timers: list[tuple[Fraction, int]] = []
        self._tick_waiters: set[int] = set()
        # the oids of the objects woken or created since the last tick,
        # the only ones whose heads may not be sampled yet
        self._woken: set[int] = set()

    # ------------------------------------------------------------- plumbing

    def _fresh_fid(self) -> int:
        fid = len(self.config.futures)
        self.config.futures[fid] = FutureCell(fid)
        return fid

    def _emit(self, kind: str, obj: int | None = None, pid: int | None = None,
              method: str | None = None, data: tuple = ()) -> None:
        self.trace.append(TraceEvent(self.config.clock, kind, obj, pid,
                                     method, tuple(data)))

    # ----------------------------------------------------------------- boot

    def boot(self) -> None:
        """Install the synthetic main object and its main-block process."""
        assert not self.config.objects, "booted twice"
        self._create_object(MAIN_CLASS, default_policy(), {}, "main",
                            self.model.main)

    def _reserved_locals(self, fid: int, method: str, critical: Value,
                         cost: Value, arrival: Fraction) -> dict[str, Value]:
        """The reserved locals except `deadline`, which derives from `due`."""
        return {
            "destiny": FutRef(fid),
            "method": StrVal(method),
            "arrival": mk_time(arrival),
            "cost": cost,
            "start": mk_time(0),
            "finish": mk_time(0),
            "critical": critical,
            "value": num(0),
        }

    # ------------------------------------------------------- guard sampling

    def _draw(self, best: Expr, worst: Expr, p: ProcessRecord,
              obj: ObjectState, pos) -> Fraction:
        """Evaluate and check duration bounds in p's scope, then pick a
        duration by the duration policy."""
        lo = self._bound_rat(
            eval_expr(best, p.locals, self.ctx, obj.attrs, p), pos)
        hi = self._bound_rat(
            eval_expr(worst, p.locals, self.ctx, obj.attrs, p), pos)
        if lo < 0 or hi < lo:
            raise RtRuntimeError(
                f"malformed duration bounds ({format_rat(lo)}, "
                f"{format_rat(hi)})", pos)
        if self.duration_policy == "worst":
            return hi
        if self.duration_policy == "best":
            return lo
        return lo + (hi - lo) * Fraction(self.rng.randint(0, 1000), 1000)

    def _bound_rat(self, v: Value, pos) -> Fraction:
        if isinstance(v, NumVal):
            return v.value
        if is_duration(v) and not is_inf_duration(v):
            return duration_rat(v)
        raise EvalTypeError(
            f"duration bound is {render_value(v)}, not a finite number", pos)

    def _fix_head(self, p: ProcessRecord, obj: ObjectState) -> None:
        """Sample the duration conjuncts of p's await head, left to right,
        each becoming an RDur that ends that long after now.  Every other
        conjunct is kept, and a head with nothing left to sample stays as
        it is, so fixing is idempotent and draws nothing twice."""
        head = p.body[0] if p.body else None
        if not isinstance(head, SAwait):
            return
        for g in head.guards:
            if isinstance(g, GDuration):
                break
        else:
            return
        clock = self.config.clock
        guards = []
        for g in head.guards:
            if isinstance(g, GDuration):
                end = clock + self._draw(g.best, g.worst, p, obj, g.pos)
                g = RDur(end, end)
            guards.append(g)
        p.body[0] = SAwait(tuple(guards), pos=head.pos)

    def _fix_woken_heads(self) -> None:
        """Sample the heads of the objects woken or created since the
        last tick, in creation order: an object stalled all that time has
        taken no step, so its heads were sampled when it was last here.
        The draws are those of sampling every object's heads."""
        objects = self.config.objects
        for oid in sorted(self._woken):
            obj = objects[oid]
            for p in obj.processes():
                try:
                    self._fix_head(p, obj)
                except RtRuntimeError as err:
                    _locate(err, obj.oid, p, self.config.clock)
                    raise
        self._woken.clear()

    # -------------------------------------------------------- instantaneous

    def exec_step(self) -> str | None:
        """Apply one rule of the lowest-oid object that can step; None
        when quiescent.  Stalled objects are skipped: each was visited
        without a rule applying, and nothing that could change that has
        happened since."""
        awake = self._awake
        while awake:
            obj = self.config.objects[awake[0]]
            try:
                rule = self._visit_object(obj)
            except RtRuntimeError as err:
                _locate(err, obj.oid, obj.active, self.config.clock)
                raise
            if rule is not None:
                return rule
            heapq.heappop(awake)
            obj.stalled = True
        return None

    def _visit_object(self, obj: ObjectState) -> str | None:
        if obj.inbox:
            self._bind_and_enqueue(obj, obj.inbox.popleft())
            return "activation"
        if obj.active is not None:
            return self._step_active(obj)
        if obj.queue and self._try_schedule(obj):
            return "schedule"
        return None

    # --- stalling and waking

    def _register(self, obj: ObjectState,
                  blocked: Iterable[tuple[ProcessRecord, Wait]]) -> None:
        """Register what wakes an object that no rule applies to, from
        its blocked heads' waits: each future named, one timer at the
        earliest time one may fire, and the next tick if a tick may
        change what one waits for other than by shortening its delay,
        that is, if it may read the clock."""
        reads_clock = self.program.reads_clock
        soonest = None  # the least delay until one of them may fire
        tick = False
        for p, w in blocked:
            head = p.body[0]
            if isinstance(w, FutRef):
                self._future_waiters.setdefault(w.fid, set()).add(obj.oid)
                # a tick may change the future a `.get` target names
                if isinstance(head, SAssign) and reads_clock(head.rhs.expr):
                    tick = True
                continue
            if w is not None and (soonest is None or w < soonest):
                soonest = w
            # a tick may enable a boolean conjunct that does not hold, or
            # disable one that holds, only if it may read the clock
            if isinstance(head, SAwait) and any(
                    isinstance(g, GBool) and reads_clock(g.expr)
                    for g in head.guards):
                tick = True
        if soonest is not None:
            obj.wake_at = self.config.clock + soonest
            heapq.heappush(self._timers, (obj.wake_at, obj.oid))
        if tick:
            self._tick_waiters.add(obj.oid)

    def _wake(self, oid: int) -> None:
        obj = self.config.objects[oid]
        if obj.stalled:
            obj.stalled = False
            obj.wake_at = None  # its timer entry, if any, is now stale
            heapq.heappush(self._awake, oid)
            self._woken.add(oid)

    def _next_timer(self) -> Fraction | None:
        """The earliest live timer, dropping the stale entries before it;
        None when no stalled object waits for time."""
        timers, objects = self._timers, self.config.objects
        while timers:
            t, oid = timers[0]
            if objects[oid].wake_at == t:
                return t
            heapq.heappop(timers)
        return None

    def _wake_on_tick(self) -> None:
        """Wake the tick waiters and the objects whose timers are due."""
        for oid in self._tick_waiters:
            self._wake(oid)
        self._tick_waiters.clear()
        clock = self.config.clock
        while (at := self._next_timer()) is not None and at <= clock:
            self._wake(heapq.heappop(self._timers)[1])

    # --- Activation

    def bind_activation(self, msg: InvocationMessage) -> ProcessRecord:
        """Turn an invocation message into a queued process."""
        obj = self.config.objects[msg.callee]
        cd = self.program.classes.get(obj.cls)
        if cd is None:
            raise UnknownMethodError(f"object o{obj.oid} has no class {obj.cls}")
        mth = next((m for m in cd.methods if m.name == msg.method), None)
        if mth is None:
            raise UnknownMethodError(
                f"class {obj.cls} has no method {msg.method}")
        formals = [name for _, name in mth.params]
        if len(formals) != len(msg.args):
            raise RtRuntimeError(
                f"{obj.cls}.{msg.method} expects {len(formals)} argument(s), "
                f"got {len(msg.args)}")
        arg_env = dict(zip(formals, msg.args))
        cost = eval_expr(mth.cost, arg_env, self.ctx)
        if not is_duration(cost):
            raise EvalTypeError(
                f"cost of {obj.cls}.{msg.method} is {render_value(cost)}, "
                f"not a Duration")
        locals_ = self._reserved_locals(msg.fid, msg.method, msg.critical,
                                        cost, msg.timestamp)
        locals_.update(arg_env)
        label = next((a.value for a in msg.args if isinstance(a, StrVal)), None)
        due = (None if is_inf_duration(msg.deadline)
               else self.config.clock + duration_rat(msg.deadline))
        return ProcessRecord(pid=msg.fid, oid=obj.oid, method=msg.method,
                             locals=locals_, body=list(mth.body), label=label,
                             due=due)

    def _bind_and_enqueue(self, obj: ObjectState, msg: InvocationMessage) -> None:
        try:
            p = self.bind_activation(msg)
        except RtRuntimeError as err:
            # the message's own process, not the one running on obj
            err.pid, err.method = msg.fid, msg.method
            raise
        obj.queue.append(p)
        data = [("deadline", render_duration_field(msg.deadline)),
                ("cost", render_duration_field(p.locals["cost"])),
                ("critical", render_value(msg.critical))]
        if p.label is not None:
            data.append(("label", p.label))
        self._emit("activate", obj=obj.oid, pid=p.pid, method=p.method,
                   data=tuple(data))

    # --- rules for the active process

    def _step_active(self, obj: ObjectState) -> str | None:
        p = obj.active
        assert p is not None and p.body, "active process with empty body"
        clock = self.config.clock
        self._fix_head(p, obj)
        s = p.body[0]
        w = wait(p, obj, self.ctx)

        if isinstance(s, SAwait):
            if w == 0:
                del p.body[0]
                return "await-true"
            guard = render_guard(relative(s, clock).guards)
            self._suspend(obj, p, (("guard", guard),))
            return "await-false"

        if w != 0:  # the object waits for the clock or a future
            self._register(obj, [(p, w)])
            return None

        if isinstance(s, SSkip):
            del p.body[0]
            return "skip"

        if isinstance(s, SAssign):
            return self._step_assign(obj, p, s)

        if isinstance(s, SIf):
            cond = eval_expr(s.cond, p.locals, self.ctx, obj.attrs, p)
            if not isinstance(cond, BoolVal):
                raise EvalTypeError(
                    f"condition is {render_value(cond)}, not a Bool", s.pos)
            p.body[0:1] = s.then if cond.value else s.els
            return "cond"

        if isinstance(s, SWhile):
            p.body[0] = SIf(s.cond, s.body + (s,), (), pos=s.pos)
            return "while"

        if isinstance(s, SReturn):
            self._do_return(obj, p, s)
            return "return"

        if isinstance(s, SSuspend):
            del p.body[0]
            self._suspend(obj, p, ())
            return "suspend"

        if isinstance(s, SDuration):
            end = clock + self._draw(s.best, s.worst, p, obj, s.pos)
            p.body[0] = SDuration2(end, end)
            return "duration"

        if isinstance(s, SDuration2):
            del p.body[0]
            return "duration-done"

        raise RtRuntimeError(f"statement was not lowered: {type(s).__name__}",
                             getattr(s, "pos", None))

    def _step_assign(self, obj: ObjectState, p: ProcessRecord,
                     s: SAssign) -> str | None:
        rhs = s.rhs
        if rhs is None:
            self._assign(obj, p, s, _type_default(s.decl_type))
            del p.body[0]
            return "assign"
        if isinstance(rhs, RExpr):
            self._assign(obj, p, s,
                         eval_expr(rhs.expr, p.locals, self.ctx, obj.attrs, p))
            del p.body[0]
            return "assign"
        if isinstance(rhs, RNew):
            ref = self._new_object(obj, p, rhs)
            p.body[0] = SAssign(s.decl_type, s.name, RExpr(Lit(ref)), pos=s.pos)
            return "new-object"
        if isinstance(rhs, RCall):
            fut = self._async_call(obj, p, rhs)
            p.body[0] = SAssign(s.decl_type, s.name, RExpr(Lit(fut)), pos=s.pos)
            return "async-call"
        if isinstance(rhs, RGet):  # wait found the future resolved
            fut = eval_expr(rhs.expr, p.locals, self.ctx, obj.attrs, p)
            value = self.config.futures[fut.fid].value
            p.body[0] = SAssign(s.decl_type, s.name, RExpr(Lit(value)),
                                pos=s.pos)
            return "read-fut"
        raise RtRuntimeError(f"call was not lowered: {type(rhs).__name__}",
                             s.pos)

    def _assign(self, obj: ObjectState, p: ProcessRecord, s: SAssign,
                value: Value) -> None:
        if s.decl_type is not None or s.name in p.locals:
            p.locals[s.name] = value
        elif s.name in obj.attrs:
            obj.attrs[s.name] = value
        else:
            raise UnboundVariableError(f"unbound variable {s.name}", s.pos)

    def _suspend(self, obj: ObjectState, p: ProcessRecord, data: tuple) -> None:
        obj.active = None
        obj.queue.append(p)
        self._emit("suspend", obj=obj.oid, pid=p.pid, method=p.method,
                   data=data)

    def _do_return(self, obj: ObjectState, p: ProcessRecord,
                   s: SReturn) -> None:
        value = eval_expr(s.expr, p.locals, self.ctx, obj.attrs, p)
        clock = self.config.clock
        remaining = remaining_deadline(p, clock)
        self.config.futures[p.pid].resolve(value)
        for oid in self._future_waiters.pop(p.pid, ()):
            self._wake(oid)
        obj.active = None
        rendered = render_value(value)
        self._emit("return", obj=obj.oid, pid=p.pid, method=p.method,
                   data=(("value", rendered),
                         ("deadline", render_duration_field(remaining))))
        self._emit("resolve", obj=obj.oid, pid=p.pid, method=p.method,
                   data=(("value", rendered),))
        if p.due is not None and p.due < clock:
            self._emit("deadline_miss", obj=obj.oid, pid=p.pid,
                       method=p.method,
                       data=(("lateness", format_rat(clock - p.due)),))

    # --- Async-Call

    def _async_call(self, obj: ObjectState, p: ProcessRecord,
                    rhs: RCall) -> FutRef:
        ctx, env, fields = self.ctx, p.locals, obj.attrs
        callee = eval_expr(rhs.callee, env, ctx, fields, p)
        if callee == NULL:
            raise RtRuntimeError(f"call to {rhs.method} on null", rhs.pos)
        if not isinstance(callee, ObjRef):
            raise EvalTypeError(
                f"call target is {render_value(callee)}, not an object",
                rhs.pos)
        args = tuple(eval_expr(a, env, ctx, fields, p) for a in rhs.args)
        deadline = eval_expr(rhs.annots.deadline, env, ctx, fields, p)
        if not is_duration(deadline):
            raise EvalTypeError(
                f"deadline is {render_value(deadline)}, not a Duration",
                rhs.pos)
        critical = eval_expr(rhs.annots.critical, env, ctx, fields, p)
        if not isinstance(critical, BoolVal):
            raise EvalTypeError(
                f"criticality is {render_value(critical)}, not a Bool",
                rhs.pos)
        fid = self._fresh_fid()
        self.config.objects[callee.oid].inbox.append(InvocationMessage(
            rhs.method, callee.oid, args, fid, deadline, critical,
            self.config.clock))
        self._wake(callee.oid)
        self._emit("invoke", obj=callee.oid, pid=fid, method=rhs.method,
                   data=(("caller", f"o{obj.oid}"),
                         ("deadline", render_duration_field(deadline)),
                         ("critical", render_value(critical))))
        return FutRef(fid)

    # --- New-Object

    def _new_object(self, obj: ObjectState, p: ProcessRecord,
                    rhs: RNew) -> ObjRef:
        cd = self.program.classes.get(rhs.cls)
        if cd is None:
            raise RtRuntimeError(f"unknown class {rhs.cls}", rhs.pos)
        if len(cd.params) != len(rhs.args):
            raise RtRuntimeError(
                f"class {rhs.cls} expects {len(cd.params)} argument(s), "
                f"got {len(rhs.args)}", rhs.pos)
        args = [eval_expr(a, p.locals, self.ctx, obj.attrs, p)
                for a in rhs.args]
        attrs: dict[str, Value] = {}
        for (_, name), value in zip(cd.params, args):
            attrs[name] = value
        for fd in cd.fields:
            attrs[fd.name] = _type_default(fd.type)
        policy = rhs.scheduler if rhs.scheduler is not None else default_policy()
        return self._create_object(rhs.cls, policy, attrs, "init", cd.init_body)

    def _create_object(self, cls: str, policy: Expr, attrs: dict[str, Value],
                       method: str, body: tuple[Stmt, ...] | None) -> ObjRef:
        """Install a fresh object; a body becomes its creation process,
        already dispatched under the given method name."""
        oid = len(self.config.objects)
        attrs["this"] = ObjRef(oid)
        obj = ObjectState(oid, cls, policy, attrs)
        self.config.objects[oid] = obj
        heapq.heappush(self._awake, oid)
        self._woken.add(oid)
        self._emit("new_object", obj=oid, data=(("class", cls),))
        if body is not None:
            fid, clock = self._fresh_fid(), self.config.clock
            p = ProcessRecord(
                pid=fid, oid=oid, method=method,
                locals=self._reserved_locals(fid, method, FALSE,
                                             mk_duration(0), clock),
                body=list(body), dispatched=True)
            p.locals["start"] = mk_time(clock)
            obj.active = p
            self._emit("activate", obj=oid, pid=fid, method=method,
                       data=(("deadline", "inf"), ("cost", "0"),
                             ("critical", "False")))
            self._emit("schedule", obj=oid, pid=fid, method=method,
                       data=(("deadline", "inf"),))
        return ObjRef(oid)

    # --- Schedule

    def ready_set(self, obj: ObjectState) -> list[ProcessRecord]:
        """Queued processes whose head statement may fire now, in queue
        order."""
        waits = []
        for p in obj.queue:
            try:
                self._fix_head(p, obj)
                waits.append(wait(p, obj, self.ctx))
            except RtRuntimeError as err:
                _locate(err, obj.oid, p, self.config.clock)
                raise
        out = [p for p, w in zip(obj.queue, waits) if w == 0]
        if not out:
            self._register(obj, zip(obj.queue, waits))
        return out

    def _try_schedule(self, obj: ObjectState) -> bool:
        ready = self.ready_set(obj)
        if not ready:
            return False
        p = self.evaluate_policy(obj, ready)
        obj.queue.remove(p)
        obj.active = p
        if not p.dispatched:
            p.dispatched = True
            p.locals["start"] = mk_time(self.config.clock)
        deadline = remaining_deadline(p, self.config.clock)
        self._emit("schedule", obj=obj.oid, pid=p.pid, method=p.method,
                   data=(("deadline", render_duration_field(deadline)),))
        return True

    def evaluate_policy(self, obj: ObjectState,
                        ready: list[ProcessRecord]) -> ProcessRecord:
        """Run the object's scheduling expression over the reflected ready
        queue; the result must identify one of the ready processes."""
        queue = {"queue": liftall(ready, self.config.clock)}
        try:
            choice = eval_expr(obj.policy, queue, self.ctx, obj.attrs)
            if not (isinstance(choice, DataVal) and choice.ctor == "Proc"
                    and len(choice.args) == len(PROC_FIELDS)):
                raise PolicyError(
                    f"scheduler of o{obj.oid} returned {render_value(choice)}, "
                    f"not a process", obj.policy.pos)
            p = select(choice.args[0], ready)
            if p is None:
                raise PolicyError(
                    f"scheduler of o{obj.oid} selected a process outside the "
                    f"ready queue", obj.policy.pos)
        except RtRuntimeError as err:
            if err.stmt is None:
                err.stmt = f"[Scheduler: {render_expr(obj.policy)}]"
            raise
        return p

    # ------------------------------------------------------------ main loop

    def run_until(self, limit: Fraction | int,
                  max_steps: int | None = None) -> RunResult:
        """Alternate instantaneous steps and maximal time advances until
        the model terminates, the clock would pass the limit, the
        configuration deadlocks, or a runtime error surfaces.  The loop
        runs on a big-stack thread, whatever the caller's stack."""
        limit = Fraction(limit)
        return _on_big_stack(lambda: self._run(limit, max_steps))

    def _run(self, limit: Fraction, max_steps: int | None) -> RunResult:
        if not self.config.objects:
            self.boot()
        steps = 0
        while True:
            try:
                if self.exec_step() is None:
                    status = self.advance(limit)
                    if status is not None:
                        return self._result(status, steps)
                    continue
            except RtRuntimeError as err:
                self._emit("error", obj=err.obj, pid=err.pid,
                           method=err.method,
                           data=(("message", err.describe()),))
                return self._result("error", steps, error=err)
            steps += 1
            if max_steps is not None and steps >= max_steps:
                return self._result("step_limit", steps)

    def advance(self, limit: Fraction) -> str | None:
        """At quiescence, stop with "finished", "deadlock" or "time_limit",
        or advance the clock by mte, emit the tick and return None.

        Every object is stalled here, and each registered, from the
        waits it last computed, a timer at the earliest time one of its
        heads may fire.  Times are absolute, and an object whose heads'
        waits a tick may change otherwise wakes at every tick, so the
        earliest live timer less the clock is mte (`mte_raw`), found
        without consulting any object."""
        self._fix_woken_heads()
        at = self._next_timer()
        if at is None:
            return "finished" if self._terminated() else "deadlock"
        delta = at - self.config.clock
        assert delta > 0, "quiescent configuration with zero mte"
        if at > limit:
            return "time_limit"
        adv(self.config, delta)
        self._emit("tick", data=(("delta", format_rat(delta)),))
        self._wake_on_tick()
        return None

    def _result(self, status: str, steps: int,
                error: RtRuntimeError | None = None) -> RunResult:
        blocked = self._blocked_report() if status == "deadlock" else []
        return RunResult(status, self.trace, self.config.clock, steps,
                         error=error, blocked=blocked)

    def _terminated(self) -> bool:
        return all(obj.active is None and not obj.queue and not obj.inbox
                   for obj in self.config.objects.values())

    def _blocked_report(self) -> list[str]:
        def head(p: ProcessRecord, obj: ObjectState) -> str:
            """p's head, and the future it waits for if it names one."""
            if not p.body:
                return "`?`"
            clock = self.config.clock
            text = f"`{render_stmt(relative(p.body[0], clock)).strip()}`"
            w = wait(p, obj, self.ctx)
            return f"{text} (waits for f{w.fid})" if isinstance(w, FutRef) else text

        out = []
        for oid, obj in self.config.objects.items():
            if obj.active is not None:
                p = obj.active
                out.append(f"o{oid} ({obj.cls}): process f{p.pid} "
                           f"({p.method}) blocked at {head(p, obj)}")
            elif obj.queue:
                queued = ", ".join(f"f{p.pid} at {head(p, obj)}"
                                   for p in obj.queue)
                out.append(f"o{oid} ({obj.cls}): no ready process "
                           f"(queued: {queued})")
        return out


# model functions recurse once per list element, so deep lists need a
# deep host stack; simulations run on a dedicated big-stack thread and
# the interpreter's own depth cap fires long before this limit
_STACK_BYTES = 512 * 1024 * 1024
_RECURSION_LIMIT = 2_000_000


def _on_big_stack(fn):
    box: dict = {}

    def runner():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_RECURSION_LIMIT)
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the calling thread
            box["error"] = exc
        finally:
            sys.setrecursionlimit(old)

    old_size = threading.stack_size(_STACK_BYTES)
    try:
        thread = threading.Thread(target=runner, name="rtabs-sim")
        thread.start()
        thread.join()
    finally:
        threading.stack_size(old_size)
    if "error" in box:
        raise box["error"]
    return box["value"]


def _type_default(ty: TypeAst | None) -> Value:
    if ty is None:
        return NULL
    if ty.name in ("Int", "Rat"):
        return num(0)
    if ty.name == "Bool":
        return FALSE
    if ty.name == "String":
        return StrVal("")
    return NULL


def simulate(model: Model, limit: Fraction | int, seed: int = 0,
             duration_policy: str = "worst") -> RunResult:
    """One-call convenience wrapper: boot, run, return the result."""
    return Engine(model, seed=seed, duration_policy=duration_policy).run_until(limit)

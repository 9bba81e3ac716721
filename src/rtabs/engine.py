"""Timed simulation engine for concurrent object models.

A Configuration holds concurrent objects (each with an inbox of
invocation messages not yet bound, at most one active process and a
queue of suspended or pending ones), futures, and the global clock.
Execution alternates two phases: apply instantaneous rules until
quiescence, then advance the clock by the maximum time elapse (mte).

A process runs as a continuation over the immutable desugared tree
(`ProcessRecord`): a step moves its place or pushes or pops a frame,
and builds no syntax node.  What a rule would write into a statement is
kept beside it: the sampled ends of the head, the value a second half
stores.

Time is stored absolute.  A process keeps its absolute deadline in
`due` and the ends of its sampled head (a `duration` statement, the
duration conjuncts of an await) in `sample`, so advancing time moves
only the clock.  No process keeps a `deadline` local: the time left,
which models and traces see, is derived from the clock when a process's
code reads `deadline`, when the process is lifted into a Proc value,
and when a head or a deadline is rendered.  Its code evaluates on its
locals, its object's fields and the process itself, never on a merged
scope (`evaluator.lookup`).

Rule choice is determinized for reproducibility: each step applies a
rule of the lowest-oid object that has one; per object, pending
activations are bound first, then one rule for the active process, else
a scheduling decision.  Any run produced this way is one of the legal
interleavings of the underlying nondeterministic semantics.

The loop is incremental.  An object visited without a rule applying is
stalled and skipped until an event that may let it step: a message for
it, the resolution of a future one of its blocked heads waits for, or a
tick that reaches the earliest time one of them may fire (any tick, if
computing one of their waits read the clock, as the evaluation context
records in `clock_read`).  The visit registers these wake-ups from the
waits it has just computed.  Only an object's own steps change its
fields and processes, so no other event can.  Visiting a stalled object
again would draw nothing: with an active process its queue is not
consulted, and without one its last visit computed the ready set, which
samples every queued head.  So the rules applied and the random draws
are those of visiting every object in creation order after every step.

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
fields, a future's resolution wakes the objects that wait for it, and a
wait depends only on what its evaluation read, so an object with a head
whose wait a tick may change otherwise (one whose wait read the clock)
wakes at every tick and registers again.  So mte is the earliest timer
still live less the clock, and a tick consults no object that has not
been woken since the last one.

Every process, the `main` block's and each object's `init` included,
is created as a method's process is: it is activated (an `activate`
event), and each dispatch (`_dispatch`) makes it the active process and
emits `schedule`, the first one also setting its `start`.  A creation
process is dispatched at once, with an infinite deadline, cost 0 and
criticality False.

`simulate`, `Engine.run_until` and `rtabs run` share one loop
(`run_until`), run on the caller's thread in `errors.deep_recursion`.
The run appends its events to a trace sink, anything with
`append(event)`: a new list unless the caller passes another (`rtabs
run` passes a writer that streams them to its output).  The run's
`RunResult.trace` is that sink.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from .desugar import default_policy
from .errors import (
    EvalTypeError, PolicyError, RtRuntimeError, UnboundVariableError,
    UnknownMethodError, deep_recursion,
)
from .evaluator import (
    EvalContext, Program, awaited_future, eval_expr, eval_guard,
    remaining_deadline,
)
from .nodes import (
    Expr, GDuration, GFut, Lit, Model, RCall, RExpr, RGet, RNew, SAssign,
    SAwait, SDuration, SIf, SReturn, SSkip, SSuspend, SWhile, Stmt,
)
from .pretty import render_expr, render_guard, render_stmt
from .trace import TraceEvent, TraceSink
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


@dataclass(eq=False)  # records compare by identity
class ProcessRecord:
    pid: int
    method: str
    locals: dict[str, Value]
    # the head is block[index]; frames holds the (block, index) places to
    # resume, innermost last.  A block is left as soon as it is done.
    block: tuple[Stmt, ...]
    index: int = 0
    frames: list[tuple[tuple[Stmt, ...], int]] = field(default_factory=list)
    looping: bool = False  # the head is a `while` whose `cond` step is next
    # the absolute ends of the head's sampled durations, in order: () for
    # an await head with no duration conjunct; None until the head is
    # sampled
    sample: tuple[Fraction, ...] | None = None
    pending: Value | None = None  # what the second half of the head stores
    dispatched: bool = False
    label: str | None = None
    # the absolute deadline; None when infinite.  The only store of a
    # deadline: the `deadline` a model or a Proc sees is derived from it.
    due: Fraction | None = None

    def proceed(self) -> None:
        """Move past the head, leaving every block that is done."""
        self.sample = self.pending = None
        index = self.index + 1
        while index == len(self.block) and self.frames:
            self.block, index = self.frames.pop()
        self.index = index

    def enter(self, block: tuple[Stmt, ...]) -> None:
        """Run block, then resume at the current head."""
        if block:
            self.frames.append((self.block, self.index))
            self.block, self.index = block, 0


@dataclass(eq=False)
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
    trace: TraceSink  # the sink the run appended its events to
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
# wait and mte require the duration conjuncts of await guards in head
# position to be sampled already (the engine fixes them before
# consulting any of them).

_ZERO = Fraction(0)

Wait = Fraction | FutRef | None


def wait(p: ProcessRecord, obj: ObjectState, ctx: EvalContext) -> Wait:
    """What p's head waits for: 0 when it may fire now, a positive delay
    when it may fire once that much time has passed, the unresolved
    future it awaits (`f?`) or gets (`x = e.get`), or None when a
    boolean conjunct does not hold.  Each conjunct and the `.get` target
    evaluate in p's scope: its locals, then its object's fields."""
    head = p.block[p.index]
    if isinstance(head, SAwait):
        for guard in head.guards:
            if isinstance(guard, GFut):
                fut = awaited_future(guard, p.locals, ctx, obj.attrs, p)
                if not ctx.config.futures[fut.fid].resolved:
                    return fut
            elif isinstance(guard, GDuration):
                if p.sample is None:
                    raise AssertionError("wait on an unsampled duration guard")
            elif not eval_guard(guard, p.locals, ctx, obj.attrs, p):
                return None
    elif (isinstance(head, SAssign) and isinstance(head.rhs, RGet)
          and p.pending is None):
        fut = eval_expr(head.rhs.expr, p.locals, ctx, obj.attrs, p)
        if not isinstance(fut, FutRef):
            raise EvalTypeError(
                f"get applied to {render_value(fut)}, not a future",
                head.rhs.pos)
        return _ZERO if ctx.config.futures[fut.fid].resolved else fut
    if not p.sample:
        return _ZERO
    left = max(p.sample) - ctx.config.clock  # the longest time left
    return left if left > 0 else _ZERO


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
            if (w is not None and not isinstance(w, FutRef)  # a delay
                    and (out is None or w < out)):
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
        if err.stmt is None:
            err.stmt = render_head(p, clock)


def render_head(p: ProcessRecord, clock: Fraction) -> str:
    """p's head as the rules step it, for reports: a `while` whose `cond`
    step is next unrolled once, a second half assigning the value it
    stores, a sampled head with the time left (the nodes built here are
    the only ones a run builds, and only to be printed)."""
    s = p.block[p.index]
    if p.looping:
        s = SIf(s.cond, s.body + (s,), (), pos=s.pos)
    elif p.pending is not None:
        s = SAssign(s.decl_type, s.name, RExpr(Lit(p.pending)), pos=s.pos)
    elif isinstance(s, SAwait):
        return f"await {render_guard(s.guards, p.sample, clock)};"
    elif p.sample is not None:
        left = format_rat(p.sample[0] - clock)
        return f"duration[{left}, {left}];"
    return render_stmt(s)


def adv(config: Configuration, delta: Fraction) -> None:
    """Advance the clock by delta; every stored time is absolute."""
    config.clock += delta


# ------------------------------------------------------------------- engine


class Engine:
    """Deterministic interpreter for a checked, desugared model; its
    events go to `trace`, a new list unless a sink is given."""

    def __init__(self, model: Model, seed: int = 0,
                 duration_policy: str = "worst",
                 trace: TraceSink | None = None):
        if duration_policy not in DURATION_POLICIES:
            raise ValueError(f"unknown duration policy {duration_policy!r}")
        self.model = model
        self.program = Program.from_model(model)
        self.rng = random.Random(seed)
        self.duration_policy = duration_policy
        self.trace = [] if trace is None else trace
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
        each ending that long after now.  A sampled head stays as it is,
        so fixing is idempotent and draws nothing twice."""
        head = p.block[p.index]
        if p.sample is not None or not isinstance(head, SAwait):
            return
        clock = self.config.clock
        p.sample = tuple([clock + self._draw(g.best, g.worst, p, obj, g.pos)
                          for g in head.guards if isinstance(g, GDuration)])

    def _fix_woken_heads(self) -> None:
        """Sample the heads of the objects woken or created since the
        last tick, in creation order: an object stalled all that time has
        taken no step, so its heads were sampled when it was last here.
        The draws are those of sampling every object's heads."""
        objects = self.config.objects
        for oid in sorted(self._woken):
            obj = objects[oid]
            for p in [obj.active, *obj.queue] if obj.active else obj.queue:
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

    def _register(self, obj: ObjectState, waits: Iterable[Wait],
                  tick: bool) -> None:
        """Register what wakes an object that no rule applies to, from
        its blocked heads' waits: each future named, one timer at the
        earliest time one may fire, and the next tick if computing a
        wait read the clock.  A wait depends only on what it read, so
        otherwise a tick changes none but by shortening its delay."""
        soonest = None  # the least delay until one of them may fire
        for w in waits:
            if isinstance(w, FutRef):
                self._future_waiters.setdefault(w.fid, set()).add(obj.oid)
            elif w is not None and (soonest is None or w < soonest):
                soonest = w
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
        return ProcessRecord(pid=msg.fid, method=msg.method, locals=locals_,
                             block=mth.body, label=label, due=due)

    def _bind_and_enqueue(self, obj: ObjectState, msg: InvocationMessage) -> None:
        try:
            p = self.bind_activation(msg)
        except RtRuntimeError as err:
            # the message's own process, not the one running on obj
            err.pid, err.method = msg.fid, msg.method
            raise
        obj.queue.append(p)
        self._emit_activate(obj, p, msg.deadline, msg.critical)

    def _emit_activate(self, obj: ObjectState, p: ProcessRecord,
                       deadline: Value, critical: Value) -> None:
        data = [("deadline", render_duration_field(deadline)),
                ("cost", render_duration_field(p.locals["cost"])),
                ("critical", render_value(critical))]
        if p.label is not None:
            data.append(("label", p.label))
        self._emit("activate", obj=obj.oid, pid=p.pid, method=p.method,
                   data=tuple(data))

    # --- rules for the active process

    def _step_active(self, obj: ObjectState) -> str | None:
        p = obj.active
        assert p is not None, "no active process"
        self._fix_head(p, obj)
        s = p.block[p.index]
        self.ctx.clock_read = False  # reads by the wait, not by the draws
        w = wait(p, obj, self.ctx)

        if isinstance(s, SAwait):
            if w == 0:
                p.proceed()
                return "await-true"
            guard = render_guard(s.guards, p.sample, self.config.clock)
            self._suspend(obj, p, (("guard", guard),))
            return "await-false"

        if w != 0:  # the object waits for the clock or a future
            self._register(obj, (w,), self.ctx.clock_read)
            return None

        if isinstance(s, SSkip):
            p.proceed()
            return "skip"

        if isinstance(s, SAssign):
            return self._step_assign(obj, p, s)

        if isinstance(s, SWhile) and not p.looping:
            p.looping = True  # unrolled: `if cond { body; while ... }`
            return "while"

        if isinstance(s, (SIf, SWhile)):
            cond = eval_expr(s.cond, p.locals, self.ctx, obj.attrs, p)
            if not isinstance(cond, BoolVal):
                raise EvalTypeError(
                    f"condition is {render_value(cond)}, not a Bool", s.pos)
            p.looping = False
            if isinstance(s, SIf):
                p.proceed()
                p.enter(s.then if cond.value else s.els)
            elif cond.value:
                p.enter(s.body)  # the loop is the head again after its body
            else:
                p.proceed()
            return "cond"

        if isinstance(s, SReturn):
            self._do_return(obj, p, s)
            return "return"

        if isinstance(s, SSuspend):
            p.proceed()
            self._suspend(obj, p, ())
            return "suspend"

        if isinstance(s, SDuration):
            if p.sample is None:
                p.sample = (self.config.clock
                            + self._draw(s.best, s.worst, p, obj, s.pos),)
                return "duration"
            p.proceed()  # wait found it ended
            return "duration-done"

        raise RtRuntimeError(f"statement was not lowered: {type(s).__name__}",
                             getattr(s, "pos", None))

    def _step_assign(self, obj: ObjectState, p: ProcessRecord,
                     s: SAssign) -> str:
        """One step of an assignment.  A `new`, call or `.get` takes two:
        the first computes the value, kept as `p.pending`, and the second
        stores it."""
        rhs = s.rhs
        if p.pending is not None:
            value = p.pending
        elif rhs is None:
            value = _DEFAULTS.get(s.decl_type.name, NULL)
        elif isinstance(rhs, RExpr):
            value = eval_expr(rhs.expr, p.locals, self.ctx, obj.attrs, p)
        elif isinstance(rhs, RNew):
            p.pending = self._new_object(obj, p, rhs)
            return "new-object"
        elif isinstance(rhs, RCall):
            p.pending = self._async_call(obj, p, rhs)
            return "async-call"
        elif isinstance(rhs, RGet):  # wait found the future resolved
            fut = eval_expr(rhs.expr, p.locals, self.ctx, obj.attrs, p)
            p.pending = self.config.futures[fut.fid].value
            return "read-fut"
        else:
            raise RtRuntimeError(
                f"call was not lowered: {type(rhs).__name__}", s.pos)
        if s.decl_type is not None or s.name in p.locals:
            p.locals[s.name] = value
        elif s.name in obj.attrs:
            obj.attrs[s.name] = value
        else:
            raise UnboundVariableError(f"unbound variable {s.name}", s.pos)
        p.proceed()
        return "assign"

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
            attrs[fd.name] = _DEFAULTS.get(fd.type.name, NULL)
        return self._create_object(rhs.cls, rhs.scheduler, attrs, "init",
                                   cd.init_body)

    def _create_object(self, cls: str, policy: Expr, attrs: dict[str, Value],
                       method: str, body: tuple[Stmt, ...] | None) -> ObjRef:
        """Install a fresh object; a body becomes its creation process,
        activated and dispatched at once under the given method name."""
        oid = len(self.config.objects)
        attrs["this"] = ObjRef(oid)
        obj = ObjectState(oid, cls, policy, attrs)
        self.config.objects[oid] = obj
        heapq.heappush(self._awake, oid)
        self._woken.add(oid)
        self._emit("new_object", obj=oid, data=(("class", cls),))
        if body is not None:
            fid = self._fresh_fid()
            locals_ = self._reserved_locals(fid, method, FALSE, mk_duration(0),
                                            self.config.clock)
            p = ProcessRecord(pid=fid, method=method, locals=locals_,
                              block=body)
            self._emit_activate(obj, p, INF_DURATION, FALSE)
            self._dispatch(obj, p)
        return ObjRef(oid)

    # --- Schedule

    def ready_set(self, obj: ObjectState) -> list[ProcessRecord]:
        """Queued processes whose head statement may fire now, in queue
        order."""
        ctx = self.ctx
        waits = []
        tick = False  # whether computing a wait read the clock
        for p in obj.queue:
            try:
                self._fix_head(p, obj)
                ctx.clock_read = False  # reads by the wait, not by the draws
                waits.append(wait(p, obj, ctx))
            except RtRuntimeError as err:
                _locate(err, obj.oid, p, self.config.clock)
                raise
            tick = tick or ctx.clock_read
        out = [p for p, w in zip(obj.queue, waits) if w == 0]
        if not out:
            self._register(obj, waits, tick)
        return out

    def _try_schedule(self, obj: ObjectState) -> bool:
        ready = self.ready_set(obj)
        if not ready:
            return False
        p = self.evaluate_policy(obj, ready)
        obj.queue.remove(p)
        self._dispatch(obj, p)
        return True

    def _dispatch(self, obj: ObjectState, p: ProcessRecord) -> None:
        """Make p the active process; its first dispatch is its start."""
        obj.active = p
        if not p.dispatched:
            p.dispatched = True
            p.locals["start"] = mk_time(self.config.clock)
        deadline = remaining_deadline(p, self.config.clock)
        self._emit("schedule", obj=obj.oid, pid=p.pid, method=p.method,
                   data=(("deadline", render_duration_field(deadline)),))

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
        configuration deadlocks, or a runtime error surfaces."""
        with deep_recursion():
            return self._run(Fraction(limit), max_steps)

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
        or advance the clock by mte, emit the tick and return None.  mte
        is the earliest live timer less the clock (module docstring)."""
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
            text = f"`{render_head(p, self.config.clock)}`"
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


# the value of a variable declared without an initializer, by type name
_DEFAULTS = {"Int": num(0), "Rat": num(0), "Bool": FALSE, "String": StrVal("")}


def simulate(model: Model, limit: Fraction | int, seed: int = 0,
             duration_policy: str = "worst") -> RunResult:
    """One-call convenience wrapper: boot, run, return the result."""
    return Engine(model, seed=seed, duration_policy=duration_policy).run_until(limit)

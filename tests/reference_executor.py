"""Exhaustive nondeterministic reference executor for tiny models.

The engine determinizes rule choice (object visit order, message pick,
policy-driven scheduling).  This module re-implements the concurrent
rules independently and explores EVERY choice: any undelivered message
may bind, any object's enabled active step may fire, any ready queued
process may be scheduled, and the clock advances only at quiescence.
A run of the engine is correct if every configuration it passes
through is reachable by the reference executor.

Successor states share every syntax node and value with their parent,
since both are immutable; `_clone` copies only the mutable state (the
containers, each object's attrs and queue, each process's locals and
body, and the futures).  A state digest is built from the nodes and
values themselves, not from their rendered text.

Unlike the engine, which runs a process as a continuation over the
immutable tree, the reference executor keeps a flat body and rewrites
it, with the runtime forms below holding the time left.  `digest_proc`
maps an engine process to that form.

An await guard is the flat tuple of its conjuncts, as in the engine; it
holds when every conjunct does.  Digests canonicalize unsampled literal
duration conjuncts (GDuration) to sampled ones (RDur) so that
bookkeeping differences in when a head guard was sampled do not count
as semantic divergence.  That is sound only because generated programs
use literal, equal duration bounds, for which sampling is the identity.

Expressions, boolean and future conjuncts and assignments evaluate
with the tree walker (`tree_walker`), not with the package's generated
code, so the oracle shares no evaluation with the engine; the walker is
itself compared with the generated code on random expressions and
model functions (`test_walker.py`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from rtabs import load_source
from rtabs.desugar import desugar
from rtabs.engine import (
    MAIN_CLASS, Engine, ProcessRecord, mte_raw, remaining_deadline, wait,
)
from rtabs.evaluator import EvalContext, Program
from rtabs.nodes import (
    GDuration, Guard, Lit, RCall, RExpr, RGet, RNew, SAssign, SAwait,
    SDuration, SIf, SReturn, SSkip, SSuspend, Stmt, SWhile,
)
from rtabs.values import (
    FALSE, INF_DURATION, NULL, FutRef, NumVal, ObjRef, StrVal, duration_rat,
    is_duration, is_inf_duration, mk_duration, mk_time, num,
)

from tree_walker import evaluate, holds, store

# ------------------------------------------------------------ runtime forms
#
# A sampled duration statement is an SDuration2 and a sampled duration
# conjunct an RDur, both with the time left until the wait may end
# (best) and must end (worst); the other conjuncts of a sampled await
# stay in source form.


class RDur(Guard):
    best: Fraction
    worst: Fraction


class SDuration2(Stmt):
    """duration statement after its wait has been sampled."""

    best: Fraction
    worst: Fraction


LIMIT = Fraction(24)
STATE_CAP = 60_000
# class scheduler annotations; the oracle may schedule any ready process
SCHEDULERS = (None, "fifo(queue)", "edf(queue)", "sjf(queue)")


# ----------------------------------------------------------- program maker
#
# Constraints keeping the state space finite and allocator order fixed:
# every `new` sits in the main block (a single sequential process), loops
# are bounded field increments, duration bounds are equal integer
# literals, and the statement budget is 12.  Calls sit in the main block
# or, when there are two classes, in a method of C0 calling a method of
# C1 through its `peer` parameter, never the reverse, so calls form no
# cycle; such a method awaits or gets the future of its call.  A method
# may await a field that another method's increment makes true, or a
# clock time (either may block for good, which ends the run in
# deadlock), or a delay joined with a clock, deadline or field test that
# may stop holding before the delay ends, and a class may name its
# scheduler.


class ProgramBuilder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.budget = 12
        self.calls = 0  # calls made in methods, to name their variables

    def _take(self) -> bool:
        if self.budget <= 0:
            return False
        self.budget -= 1
        return True

    def _dur(self) -> int:
        return self.rng.choice([0, 1, 1, 2, 3])

    def _method_stmt(self, fields: list[str], has_param: bool,
                     peer: list[tuple[str, bool]]) -> str:
        if peer and self.rng.random() < 0.75:
            name, peer_param = self.rng.choice(peer)
            arg = str(self.rng.randint(0, 4)) if peer_param else ""
            k = self.calls
            self.calls += 1
            call = f"Fut<Int> q{k} = peer!{name}({arg});"
            return self.rng.choice([f"{call} await q{k}?;",
                                    f"{call} Int w{k} = q{k}.get;"])
        d = self._dur()
        d2 = self._dur()
        d3 = self.rng.randint(2, 3)
        opts = ["skip;", f"duration({d}, {d});",
                f"await duration({d2}, {d2});", "suspend;",
                f"await timeValue(now) >= {self.rng.randint(1, 3)};",
                # delays joined with a test that a tick (or, for a field,
                # another method) can falsify while the delay runs, which
                # leaves the delay's timer stale
                f"await timeValue(now) < 1 && duration({d3}, {d3});",
                f"await lte(Duration({self.rng.randint(1, 3)}), deadline) "
                f"&& duration({d3}, {d3});"]
        if fields:
            opts.append(f"await {self.rng.choice(fields)} < "
                        f"{self.rng.randint(1, 3)} && duration({d3}, {d3});")
            g = self.rng.choice(fields)
            opts.append(f"{g} = {g} + {self.rng.randint(1, 2)};")
            opts.append(f"if ({g} > {self.rng.randint(0, 2)}) "
                        f"{{ {g} = 0; }} else {{ skip; }}")
            opts.append(f"await {g} > {self.rng.randint(0, 2)};")
            opts.append(f"while ({g} < {self.rng.randint(1, 2)}) "
                        f"{{ {g} = {g} + 1; }}")
        if has_param:
            opts.append(f"value = v + {self.rng.randint(0, 2)};")
        return self.rng.choice(opts)

    def _ret_expr(self, fields: list[str], has_param: bool) -> str:
        opts = [str(self.rng.randint(0, 5))]
        if fields:
            opts.append(self.rng.choice(fields))
        if has_param:
            opts.append("v + 1")
        return self.rng.choice(opts)

    def build(self) -> tuple[str, dict[str, list[tuple[str, bool]]]]:
        rng = self.rng
        n_classes = rng.randint(1, 2)
        calls = n_classes == 2 and rng.random() < 0.5
        chunks = {}
        methods_of: dict[str, list[tuple[str, bool]]] = {}
        # C1 first, so that C0's methods know what they may call
        for ci in reversed(range(n_classes)):
            peer = methods_of["C1"] if calls and ci == 0 else []
            fields = [f"g{k}" for k in range(rng.randint(0, 2))]
            field_decls = [f"  Int {g} = {rng.randint(0, 2)};" for g in fields]
            for _ in field_decls:
                self._take()
            sigs, bodies, meths = [], [], []
            for mi in range(rng.randint(1, 2)):
                name = f"m{ci}{mi}"
                has_param = rng.random() < 0.5
                param = "Int v" if has_param else ""
                stmts = []
                for _ in range(rng.randint(1 if peer else 0, 2)):
                    if self._take():
                        stmts.append("    " + self._method_stmt(
                            fields, has_param, peer))
                self._take()  # the return statement
                stmts.append(f"    return {self._ret_expr(fields, has_param)};")
                sigs.append(f"  Int {name}({param});")
                bodies.append(f"  Int {name}({param}) {{\n"
                              + "\n".join(stmts) + "\n  }")
                meths.append((name, has_param))
            methods_of[f"C{ci}"] = meths
            sched = rng.choice(SCHEDULERS)
            annot = f"[Scheduler: {sched}] " if sched else ""
            params = "(I1 peer)" if peer else ""
            chunks[ci] = (f"interface I{ci} {{\n" + "\n".join(sigs) + "\n}\n\n"
                          + f"{annot}class C{ci}{params} implements I{ci} {{\n"
                          + "\n".join(field_decls + bodies) + "\n}")
        main = self._main(n_classes, methods_of, calls)
        text = [chunks[ci] for ci in range(n_classes)]
        text.append("{\n" + "\n".join("  " + s for s in main) + "\n}")
        return "\n\n".join(text) + "\n", methods_of

    def _main(self, n_classes: int,
              methods_of: dict[str, list[tuple[str, bool]]],
              calls: bool) -> list[str]:
        rng = self.rng
        out = []
        if calls:
            out += ["I1 c1 = new C1();", "I0 c0 = new C0(c1);"]
        else:
            out += [f"I{ci} c{ci} = new C{ci}();" for ci in range(n_classes)]
        for _ in range(n_classes):
            self._take()
        futs: list[str] = []
        n_calls = rng.randint(1, min(3, max(1, self.budget)))
        for j in range(n_calls):
            if not self._take():
                break
            ci = rng.randrange(n_classes)
            name, has_param = rng.choice(methods_of[f"C{ci}"])
            arg = str(rng.randint(0, 4)) if has_param else ""
            call = f"c{ci}!{name}({arg});"
            if rng.random() < 0.6:
                fut = f"f{j}"
                futs.append(fut)
                call = f"Fut<Int> {fut} = " + call
            if rng.random() < 0.5:
                call = f"[Deadline: Duration({rng.randint(1, 5)})] " + call
            out.append(call)
        tail = rng.randint(0, 3)
        got: set[str] = set()
        for _ in range(tail):
            if not self._take():
                break
            opts = ["skip;", "suspend;"]
            d = self._dur()
            opts.append(f"duration({d}, {d});")
            d2 = self._dur()
            opts.append(f"await duration({d2}, {d2});")
            for f in futs:
                opts.append(f"await {f}?;")
                if f not in got:
                    opts.append(f"Int r{f} = {f}.get;")
            pick = rng.choice(opts)
            if pick.endswith(".get;"):
                got.add(pick.split()[3].split(".")[0])
            out.append(pick)
        return out


def generate_model(seed: int):
    """A checked, desugared tiny model plus its source text."""
    source, _ = ProgramBuilder(random.Random(seed)).build()
    model, diags = load_source(source, f"<gen-{seed}>")
    assert not diags, (source, [d.render() for d in diags])
    return desugar(model), source


# ------------------------------------------------------------------ digests
#
# A digest is made of the statements and values themselves: nodes and
# values are frozen, and compare and hash structurally (source positions
# aside), which is never looser than comparing their rendered text.


def digest_stmt(s):
    """The statement itself, except that an await's literal duration
    conjuncts take their sampled form."""
    if isinstance(s, SAwait) and any(isinstance(g, GDuration) for g in s.guards):
        return SAwait(tuple(map(_digest_conjunct, s.guards)))
    return s


def _digest_conjunct(g):
    if isinstance(g, GDuration):
        b, w = _lit_rat(g.best), _lit_rat(g.worst)
        if b is not None and w is not None:
            return RDur(b, w)
    return g


def _lit_rat(e):
    if isinstance(e, Lit):
        if isinstance(e.value, NumVal):
            return e.value.value
        if is_duration(e.value) and not is_inf_duration(e.value):
            return duration_rat(e.value)
    return None


def digest_proc(p, clock):
    """A reference process as it is; an engine process with its absolute
    deadline turned into the time left at clock, and its continuation
    into the flat body the reference executor keeps."""
    locals_ = p.locals
    if isinstance(p, ProcessRecord):
        locals_ = dict(locals_, deadline=remaining_deadline(p, clock))
        body = flat_body(p, clock)
    else:
        body = p.body
    return (p.pid, p.method, p.dispatched, frozenset(locals_.items()),
            tuple(map(digest_stmt, body)))


def flat_body(p: ProcessRecord, clock) -> list:
    """An engine process's continuation as one body, as the reference
    executor rewrites it: the frames top-down, with the head written
    out.  A `while` whose condition is next is the loop unrolled once,
    the second half of a `new`, call or `.get` assigns the literal it
    stores, and a sampled head holds the time left at clock."""
    head = p.block[p.index]
    if p.looping:
        head = SIf(head.cond, head.body + (head,), ())
    elif p.pending is not None:
        head = SAssign(head.decl_type, head.name, RExpr(Lit(p.pending)))
    elif p.sample is not None:
        left = iter([end - clock for end in p.sample])
        if isinstance(head, SDuration):
            t = next(left)
            head = SDuration2(t, t)
        else:
            guards = []
            for g in head.guards:
                if isinstance(g, GDuration):
                    t = next(left)
                    g = RDur(t, t)
                guards.append(g)
            head = SAwait(tuple(guards))
    body = [head, *p.block[p.index + 1:]]
    for block, index in reversed(p.frames):
        body.extend(block[index:])
    return body


def digest_config(cfg) -> tuple:
    """Canonical state key; works on engine configurations and reference
    states alike (same attribute names by construction)."""
    clock = cfg.clock
    objs = tuple(
        (oid, o.cls, frozenset(o.attrs.items()),
         digest_proc(o.active, clock) if o.active is not None else None,
         tuple(digest_proc(p, clock) for p in o.queue))
        for oid, o in sorted(cfg.objects.items()))
    msgs = frozenset(
        (m.method, m.callee, m.fid, m.args, m.deadline, m.critical,
         m.timestamp)
        for m in _messages(cfg))
    futs = tuple((fid, f.resolved, f.value)
                 for fid, f in sorted(cfg.futures.items()))
    return (cfg.clock, objs, msgs, futs)


def _messages(cfg):
    """Undelivered messages: one list in a reference state, each
    object's inbox in the engine."""
    if isinstance(cfg, RefState):
        return cfg.messages
    return [m for o in cfg.objects.values() for m in o.inbox]


# ----------------------------------------------------------- reference state


@dataclass
class RefProc:
    pid: int
    oid: int
    method: str
    locals: dict
    body: list
    dispatched: bool = False
    label: str | None = None


@dataclass
class RefObject:
    oid: int
    cls: str
    attrs: dict
    active: RefProc | None = None
    queue: list = field(default_factory=list)

    def processes(self):
        head = [self.active] if self.active is not None else []
        return head + list(self.queue)


@dataclass
class RefMessage:
    method: str
    callee: int
    args: tuple
    fid: int
    deadline: object
    critical: object
    timestamp: Fraction


@dataclass
class RefFuture:
    fid: int
    resolved: bool = False
    value: object = None


@dataclass
class RefState:
    objects: dict = field(default_factory=dict)
    messages: list = field(default_factory=list)
    futures: dict = field(default_factory=dict)
    clock: Fraction = Fraction(0)
    next_oid: int = 0
    next_fid: int = 0


def _clone(st: RefState) -> RefState:
    """A successor's own copy of the mutable state: the containers, each
    process's locals and body, each object's attrs and queue, and the
    futures (`return` resolves one in place).  Nodes, values and
    messages are immutable and shared."""
    def proc(p):
        return RefProc(p.pid, p.oid, p.method, dict(p.locals), list(p.body),
                       p.dispatched, p.label)
    objects = {
        oid: RefObject(oid, o.cls, dict(o.attrs),
                       None if o.active is None else proc(o.active),
                       [proc(p) for p in o.queue])
        for oid, o in st.objects.items()}
    futures = {fid: RefFuture(fid, f.resolved, f.value)
               for fid, f in st.futures.items()}
    return RefState(objects, list(st.messages), futures, st.clock,
                    st.next_oid, st.next_fid)


def _type_default(ty):
    if ty is None:
        return NULL
    if ty.name in ("Int", "Rat"):
        return num(0)
    if ty.name == "Bool":
        return FALSE
    if ty.name == "String":
        return StrVal("")
    return NULL


def _reserved(fid, method, deadline, critical, cost, clock):
    return {
        "destiny": FutRef(fid), "method": StrVal(method),
        "arrival": mk_time(clock), "cost": cost, "deadline": deadline,
        "start": mk_time(0), "finish": mk_time(0), "critical": critical,
        "value": num(0),
    }


class ReferenceExecutor:
    """Breadth-unbounded exploration of all rule interleavings."""

    def __init__(self, model, limit: Fraction = LIMIT,
                 state_cap: int = STATE_CAP):
        self.model = model
        self.program = Program.from_model(model)
        self.limit = Fraction(limit)
        self.state_cap = state_cap

    # --- plumbing

    def _ctx(self, st: RefState) -> EvalContext:
        return EvalContext(self.program, st)

    def _fresh_fid(self, st: RefState) -> int:
        fid = st.next_fid
        st.next_fid += 1
        st.futures[fid] = RefFuture(fid)
        return fid

    # --- boot

    def boot(self) -> RefState:
        st = RefState()
        oid = st.next_oid
        st.next_oid += 1
        st.objects[oid] = RefObject(oid, MAIN_CLASS, {"this": ObjRef(oid)})
        if self.model.main is not None:
            fid = self._fresh_fid(st)
            p = RefProc(fid, oid, "main",
                        _reserved(fid, "main", INF_DURATION, FALSE,
                                  mk_duration(0), st.clock),
                        list(self.model.main), dispatched=True)
            p.locals["start"] = mk_time(st.clock)
            st.objects[oid].active = p
        return st

    # --- one-rule successors

    def successors(self, st: RefState) -> list[RefState]:
        out = []
        for i in range(len(st.messages)):
            out.append(self._bind(st, i))
        for oid, obj in st.objects.items():
            if obj.active is not None:
                nxt = self._step_active(st, oid)
                if nxt is not None:
                    out.append(nxt)
            else:
                for j, p in enumerate(obj.queue):
                    if self._is_ready(st, obj, p):
                        out.append(self._schedule(st, oid, j))
        if not out:
            nxt = self._tick(st)
            if nxt is not None:
                out.append(nxt)
        return out

    def _bind(self, st: RefState, idx: int) -> RefState:
        st = _clone(st)
        msg = st.messages.pop(idx)
        obj = st.objects[msg.callee]
        cd = self.program.classes[obj.cls]
        mth = next(m for m in cd.methods if m.name == msg.method)
        arg_env = dict(zip([name for _, name in mth.params], msg.args))
        cost = evaluate(mth.cost, arg_env, self._ctx(st))
        locals_ = _reserved(msg.fid, msg.method, msg.deadline, msg.critical,
                            cost, st.clock)
        locals_["arrival"] = mk_time(msg.timestamp)
        locals_.update(arg_env)
        label = next((a.value for a in msg.args if isinstance(a, StrVal)), None)
        obj.queue.append(RefProc(msg.fid, obj.oid, msg.method, locals_,
                                 list(mth.body), label=label))
        return st

    def _is_ready(self, st: RefState, obj: RefObject, p: RefProc) -> bool:
        head = p.body[0]
        env = {**obj.attrs, **p.locals}
        ctx = self._ctx(st)
        if isinstance(head, SAwait):
            return all(_holds(g, env, ctx) for g in head.guards)
        if isinstance(head, SDuration2):
            return head.best <= 0
        if isinstance(head, SAssign) and isinstance(head.rhs, RGet):
            fut = evaluate(head.rhs.expr, env, ctx)
            return isinstance(fut, FutRef) and st.futures[fut.fid].resolved
        return True

    def _schedule(self, st: RefState, oid: int, j: int) -> RefState:
        st = _clone(st)
        obj = st.objects[oid]
        p = obj.queue.pop(j)
        obj.active = p
        if not p.dispatched:
            p.dispatched = True
            p.locals["start"] = mk_time(st.clock)
        return st

    def _step_active(self, st: RefState, oid: int) -> RefState | None:
        st = _clone(st)
        obj = st.objects[oid]
        p = obj.active
        env = {**obj.attrs, **p.locals}
        ctx = self._ctx(st)
        s = p.body[0]

        if isinstance(s, SSkip):
            del p.body[0]
            return st
        if isinstance(s, SAssign):
            return self._step_assign(st, obj, p, s, env, ctx)
        if isinstance(s, SIf):
            cond = evaluate(s.cond, env, ctx)
            p.body[0:1] = s.then if cond.value else s.els
            return st
        if isinstance(s, SWhile):
            p.body[0] = SIf(s.cond, s.body + (s,), (), pos=s.pos)
            return st
        if isinstance(s, SReturn):
            value = evaluate(s.expr, env, ctx)
            p.locals["finish"] = mk_time(st.clock)
            fut = st.futures[p.pid]
            assert not fut.resolved
            fut.resolved = True
            fut.value = value
            obj.active = None
            return st
        if isinstance(s, SSuspend):
            del p.body[0]
            obj.active = None
            obj.queue.append(p)
            return st
        if isinstance(s, SAwait):
            if all(_holds(g, env, ctx) for g in s.guards):
                del p.body[0]
                return st
            obj.active = None
            obj.queue.append(p)
            return st
        if isinstance(s, SDuration):
            best = _as_rat(evaluate(s.best, env, ctx))
            worst = _as_rat(evaluate(s.worst, env, ctx))
            assert best == worst, "generated durations must be degenerate"
            p.body[0] = SDuration2(best, worst)
            return st
        if isinstance(s, SDuration2):
            if s.best <= 0:
                del p.body[0]
                return st
            return None  # waits for the clock
        raise AssertionError(f"statement {s!r}")

    def _step_assign(self, st, obj, p, s, env, ctx) -> RefState | None:
        rhs = s.rhs
        if rhs is None:
            self._write(obj, p, s, _type_default(s.decl_type))
            del p.body[0]
            return st
        if isinstance(rhs, RExpr):
            self._write(obj, p, s, evaluate(rhs.expr, env, ctx))
            del p.body[0]
            return st
        if isinstance(rhs, RNew):
            ref = self._new_object(st, rhs, env, ctx)
            p.body[0] = SAssign(s.decl_type, s.name, RExpr(Lit(ref)), pos=s.pos)
            return st
        if isinstance(rhs, RCall):
            fut = self._async_call(st, obj, rhs, env, ctx)
            p.body[0] = SAssign(s.decl_type, s.name, RExpr(Lit(fut)), pos=s.pos)
            return st
        if isinstance(rhs, RGet):
            fut = evaluate(rhs.expr, env, ctx)
            assert isinstance(fut, FutRef)
            cell = st.futures[fut.fid]
            if not cell.resolved:
                return None  # blocks
            p.body[0] = SAssign(s.decl_type, s.name, RExpr(Lit(cell.value)),
                                pos=s.pos)
            return st
        raise AssertionError(f"rhs {rhs!r}")

    def _write(self, obj, p, s, value) -> None:
        store(s.name, s.decl_type is not None, value, p.locals, obj.attrs,
              s.pos)

    def _async_call(self, st, obj, rhs, env, ctx) -> FutRef:
        callee = evaluate(rhs.callee, env, ctx)
        args = tuple(evaluate(a, env, ctx) for a in rhs.args)
        deadline = evaluate(rhs.annots.deadline, env, ctx)
        critical = evaluate(rhs.annots.critical, env, ctx)
        fid = self._fresh_fid(st)
        st.messages.append(RefMessage(rhs.method, callee.oid, args, fid,
                                      deadline, critical, st.clock))
        return FutRef(fid)

    def _new_object(self, st, rhs, env, ctx) -> ObjRef:
        cd = self.program.classes[rhs.cls]
        args = [evaluate(a, env, ctx) for a in rhs.args]
        oid = st.next_oid
        st.next_oid += 1
        attrs = {}
        for (_, name), value in zip(cd.params, args):
            attrs[name] = value
        for fd in cd.fields:
            attrs[fd.name] = _type_default(fd.type)
        attrs["this"] = ObjRef(oid)
        obj = RefObject(oid, rhs.cls, attrs)
        st.objects[oid] = obj
        if cd.init_body is not None:
            fid = self._fresh_fid(st)
            p = RefProc(fid, oid, "init",
                        _reserved(fid, "init", INF_DURATION, FALSE,
                                  mk_duration(0), st.clock),
                        list(cd.init_body), dispatched=True)
            p.locals["start"] = mk_time(st.clock)
            obj.active = p
        return ObjRef(oid)

    # --- clock advance at quiescence

    def _fix_heads(self, st: RefState) -> None:
        for obj in st.objects.values():
            for p in obj.processes():
                if p.body and isinstance(p.body[0], SAwait):
                    env = {**obj.attrs, **p.locals}
                    p.body[0] = SAwait(
                        tuple(self._fix_guard(st, g, env)
                              for g in p.body[0].guards),
                        pos=p.body[0].pos)

    def _fix_guard(self, st, g, env):
        if isinstance(g, GDuration):
            best = _as_rat(evaluate(g.best, env, self._ctx(st)))
            worst = _as_rat(evaluate(g.worst, env, self._ctx(st)))
            assert best == worst, "generated durations must be degenerate"
            return RDur(best, worst)
        return g

    def _guard_mte(self, st, g, env):
        if isinstance(g, RDur):
            return Fraction(0) if g.best <= 0 else g.worst
        return Fraction(0) if _holds(g, env, self._ctx(st)) else None

    def _proc_mte(self, st, obj, p):
        head = p.body[0]
        env = {**obj.attrs, **p.locals}
        if isinstance(head, SDuration2):
            return Fraction(0) if head.best <= 0 else head.worst
        if isinstance(head, SAwait):
            waits = [self._guard_mte(st, g, env) for g in head.guards]
            return None if None in waits else max(waits)
        if isinstance(head, SAssign) and isinstance(head.rhs, RGet):
            fut = evaluate(head.rhs.expr, env, self._ctx(st))
            if not st.futures[fut.fid].resolved:
                return None
        return Fraction(0)

    def _mte(self, st: RefState):
        best = None
        for obj in st.objects.values():
            if obj.active is not None:
                contribs = [self._proc_mte(st, obj, obj.active)]
            else:
                contribs = [self._proc_mte(st, obj, p) for p in obj.queue]
            for c in contribs:
                if c is not None:
                    best = c if best is None else min(best, c)
        return best

    def _tick(self, st: RefState) -> RefState | None:
        st = _clone(st)
        self._fix_heads(st)
        delta = self._mte(st)
        if delta is None:
            return None  # deadlock or termination
        assert delta > 0, "quiescent state with zero time bound"
        if st.clock + delta > self.limit:
            return None  # horizon reached
        st.clock += delta
        for obj in st.objects.values():
            for p in obj.processes():
                d = p.locals["deadline"]
                if not is_inf_duration(d):
                    p.locals["deadline"] = mk_duration(duration_rat(d) - delta)
                head = p.body[0] if p.body else None
                if isinstance(head, SDuration2):
                    p.body[0] = SDuration2(head.best - delta,
                                           head.worst - delta)
                elif isinstance(head, SAwait):
                    p.body[0] = SAwait(
                        tuple(_adv_guard(g, delta) for g in head.guards),
                        pos=head.pos)
        return st

    # --- exploration

    def explore(self) -> set:
        init = self.boot()
        seen = {digest_config(init)}
        frontier = [init]
        while frontier:
            st = frontier.pop()
            for nxt in self.successors(st):
                d = digest_config(nxt)
                if d not in seen:
                    if len(seen) >= self.state_cap:
                        raise RuntimeError("state cap exceeded")
                    seen.add(d)
                    frontier.append(nxt)
        return seen


def _holds(g, env, ctx) -> bool:
    """One conjunct: a duration holds once no time is left; a boolean or
    future one is the walker's."""
    if isinstance(g, RDur):
        return g.best <= 0
    if isinstance(g, GDuration):
        return _as_rat(evaluate(g.best, env, ctx)) <= 0
    return holds(g, env, ctx)


def _adv_guard(g, delta):
    if isinstance(g, RDur):
        return RDur(g.best - delta, g.worst - delta)
    return g


def _as_rat(v) -> Fraction:
    if isinstance(v, NumVal):
        return v.value
    assert is_duration(v) and not is_inf_duration(v)
    return duration_rat(v)


# ------------------------------------------------------- engine trajectory


def engine_digests(model, limit: Fraction = LIMIT) -> list:
    """Every configuration the deterministic engine passes through, at
    single-rule granularity, up to the time horizon; after each rule and
    each tick, every stalled object is checked to be one that no rule
    applies to, and at each quiescence the engine's time advance is
    checked against `mte_raw`."""
    eng = Engine(model)
    eng.boot()
    out = [digest_config(eng.config)]
    limit = Fraction(limit)
    while eng.exec_step() is not None or advance_by_mte(eng, limit) is None:
        check_stalled(eng)
        out.append(digest_config(eng.config))
    return out


def advance_by_mte(eng: Engine, limit: Fraction) -> str | None:
    """`eng.advance`, checked to move the clock by exactly mte as
    `mte_raw` defines it, or to stop only when mte allows no tick.  The
    heads are sampled first, as `advance` does; sampling is idempotent,
    so the engine's draws are unchanged."""
    eng._fix_woken_heads()
    expected = mte_raw(eng.config, eng.program)
    before = eng.config.clock
    status = eng.advance(limit)
    if status is None:
        assert eng.config.clock - before == expected, (
            f"tick of {eng.config.clock - before} where mte is {expected}")
    elif status == "time_limit":
        assert expected is not None and before + expected > limit
    else:
        assert expected is None, f"{status} where mte is {expected}"
    return status


def check_stalled(eng: Engine) -> None:
    """The engine skips stalled objects, so a stalled object that could
    step is a missed wake-up.  Reads heads through `wait` only, which
    samples nothing, so the check leaves the engine's draws alone."""
    ctx = eng.ctx
    for oid, obj in eng.config.objects.items():
        if not obj.stalled:
            continue
        assert not obj.inbox, f"stalled o{oid} has a message"
        if obj.active is not None:
            p = obj.active
            assert not isinstance(p.block[p.index], SAwait), (
                f"stalled o{oid} has an active await head")
            assert wait(obj.active, obj, ctx) != 0, f"stalled o{oid} can step"
        else:
            for p in obj.queue:
                assert wait(p, obj, ctx) != 0, (
                    f"stalled o{oid} can schedule f{p.pid}")


def check_inclusion(seed: int, limit: Fraction = LIMIT):
    """Engine trajectory must stay inside the reference-reachable set.
    Returns (trajectory length, reference state count)."""
    model, source = generate_model(seed)
    reachable = ReferenceExecutor(model, limit).explore()
    trajectory = engine_digests(model, limit)
    for i, d in enumerate(trajectory):
        assert d in reachable, (
            f"seed {seed}: engine state {i}/{len(trajectory)} is not "
            f"reference-reachable\n{source}\n{d}")
    return len(trajectory), len(reachable)

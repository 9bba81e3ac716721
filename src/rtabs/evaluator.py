"""Strict evaluation of side-effect-free expressions and guards.

Expressions are compiled, not walked (Feeley & Lapalme, "Using closures
for code generation", 1987): each `Expr` becomes a Python closure
`(frame, ctx) -> Value`, and each `Pattern` a matcher
`(value, frame) -> bool` that allocates nothing.  Code runs on one list
frame per evaluation or call, and each `case` binder resolves to a slot
of it.  Compiled code lives in the `Program`, shared by every evaluation:

- A function body is compiled together with the first expression that
  calls it.  Its formals take the first slots of its frame, so a body
  never sees its caller's variables.
- Any other expression (a statement's, a guard's, a `[Scheduler:]`
  policy) is compiled the first time it is evaluated and kept by the
  identity of its node, which the cache holds.  Its frame's first slots
  hold its scope (`lookup`): a process's locals, its object's fields and
  the process itself, whose time left `deadline` reads; or a plain dict.
  A bare literal is never compiled or kept: the engine builds one at
  every assignment step.

A case binder shadows an outer variable of the same name.  A name reads
its scope value, else a nullary constructor, else it is an unbound
variable.  A call evaluates its arguments left to right before any
error about the call itself; a function shadows a constructor of the
same name, and every model call counts one toward `max_depth`.
Rationals stay exact throughout.

Code reads nothing of the run but through its `EvalContext`: the clock
(`now`) and the future table (`f?`, `.get`) of the run's configuration,
read in place when evaluated, and the call depth.  So the engine builds
one context when it starts and evaluates every expression of the run
with it.

Compiling also records one static fact per expression: whether it may
read the clock, that is contain `now` or a `deadline` variable, itself
or in the body of a function it calls (`Program.reads_clock`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .errors import (
    CallDepthError, DivisionByZeroError, EvalTypeError, MatchFailureError,
    RtRuntimeError, UnboundVariableError,
)
from .nodes import (
    Apply, BinOp, CaseExpr, ClassDecl, Expr, FuncDecl, GBool, GDuration,
    GFut, Guard, IfExpr, Lit, Model, NowExpr, PCtor, PLit, PName, Pattern,
    PWildcard, Unary, Var,
)
from .values import (
    INF_DURATION, BoolVal, DataVal, FALSE, FutRef, NumVal, StrVal, TRUE,
    Value, is_time, mk_duration, mk_time, render_value,
)

Env = dict[str, Value]
# a compiled expression, run on a list frame
Code = Callable[[list, "EvalContext"], Value]
# a compiled pattern: whether the value matches, writing its binders
# into the frame; None for a pattern that matches anything and binds
# nothing
Matcher = Callable[[Value, list], bool]
# a compiled top-level expression: its node, its code, whether it may
# read the clock, and its frame's binder slots after the scope
Entry = tuple[Expr, Code, bool, tuple[None, ...]]

_SCOPE = 3  # a top-level frame's first slots: see `lookup`
_NO_FIELDS: Env = {}


class Function:
    """A model function's compiled body and what it needs per call."""

    __slots__ = ("body", "pad", "reads_clock", "calls")

    body: Code
    pad: tuple[None, ...]  # the frame's binder slots, after the formals
    reads_clock: bool  # the body itself contains `now`
    calls: set[Function]


@dataclass
class Program:
    """Static tables extracted from a (merged, desugared) model, and the
    code compiled from it."""

    functions: dict[str, FuncDecl]
    ctor_arity: dict[str, int]
    classes: dict[str, ClassDecl]
    # compiled function bodies by name
    bodies: dict[str, Function] = field(default_factory=dict, repr=False)
    # compiled top-level expressions by node identity; holding the node
    # keeps its id
    code: dict[int, Entry] = field(default_factory=dict, repr=False)

    @staticmethod
    def from_model(model: Model) -> Program:
        functions: dict[str, FuncDecl] = {}
        for fd in model.functions:
            functions[fd.name] = fd  # later definitions shadow earlier ones
        ctor_arity: dict[str, int] = {}
        for dd in model.datatypes:
            for ctor in dd.ctors:
                ctor_arity[ctor.name] = len(ctor.arg_types)
        classes = {cd.name: cd for cd in model.classes}
        return Program(functions, ctor_arity, classes)

    def compiled(self, expr: Expr) -> Entry:
        entry = self.code.get(id(expr))
        if entry is None:
            compiler = _Compiler(self, None)
            code = compiler.expr(expr)
            entry = (expr, code, compiler.reaches_clock(),
                     (None,) * (compiler.size - _SCOPE))
            self.code[id(expr)] = entry
        return entry

    def reads_clock(self, expr: Expr) -> bool:
        """Whether evaluating expr may read the clock."""
        return not isinstance(expr, Lit) and self.compiled(expr)[2]

    def function(self, name: str) -> Function:
        fn = self.bodies.get(name)
        if fn is None:
            fd = self.functions[name]
            # registered before its body compiles, so recursion finds it
            fn = self.bodies[name] = Function()
            compiler = _Compiler(self, [pname for _, pname in fd.params])
            fn.body = compiler.expr(fd.body)
            fn.pad = (None,) * (compiler.size - len(fd.params))
            fn.reads_clock = compiler.reads_clock
            fn.calls = compiler.calls
        return fn


@dataclass
class EvalContext:
    """What an evaluation reads besides its scope: the program's code,
    the run's configuration and the call depth.  The configuration is
    read, never copied: `now` is `config.clock`, and `f?` and a `.get`
    test `config.futures[fid].resolved`.  So one context serves a whole
    run; outside a run there is no configuration to read."""

    program: Program
    config: Any = None  # anything with a `clock` and a `futures` table
    max_depth: int = 100_000
    depth: int = field(default=0)


def remaining_deadline(p: Any, clock: Fraction) -> Value:
    """The time left at clock until process p's deadline, `p.due`."""
    if p.due is None:
        return INF_DURATION
    return DataVal("Duration", (NumVal(p.due - clock),))


def lookup(name: str, env: Env, fields: Env, proc: Any,
           ctx: EvalContext) -> Value | None:
    """What a name that no binder holds reads in a scope: in process
    proc's, `deadline` is its time left; any other name reads env (its
    locals), else fields (its object's).  None when neither holds it."""
    if proc is not None and name == "deadline":
        return remaining_deadline(proc, ctx.config.clock)
    value = env.get(name)
    return fields.get(name) if value is None else value


def eval_expr(expr: Expr, env: Env, ctx: EvalContext,
              fields: Env = _NO_FIELDS, proc: Any = None) -> Value:
    """The value of expr in a scope (see `lookup`); a plain dict env is
    a scope with no fields and no process."""
    if type(expr) is Lit:
        return expr.value
    try:
        _, code, _, pad = ctx.program.compiled(expr)
        return code([env, fields, proc, *pad], ctx)
    except RecursionError:
        raise CallDepthError(
            "expression nesting exhausted the host stack") from None


def eval_guard(guard: Guard, env: Env, ctx: EvalContext,
               fields: Env = _NO_FIELDS, proc: Any = None) -> bool:
    """Reduce one conjunct of an await guard in a scope to a boolean; the
    guard holds when every conjunct does.  A duration conjunct holds once
    its best bound is not positive.  Sampled conjuncts (RDur) are the
    engine's, which compares their absolute ends with the clock itself."""
    if isinstance(guard, GBool):
        value = eval_expr(guard.expr, env, ctx, fields, proc)
        if not isinstance(value, BoolVal):
            raise EvalTypeError(
                f"guard is {render_value(value)}, not a Bool", guard.pos)
        return value.value
    if isinstance(guard, GFut):
        fut = awaited_future(guard, env, ctx, fields, proc)
        return ctx.config.futures[fut.fid].resolved
    if isinstance(guard, GDuration):
        best = eval_expr(guard.best, env, ctx, fields, proc)
        return _as_num(best, "duration", guard.pos) <= 0
    raise EvalTypeError(f"cannot evaluate guard {guard!r}")


def awaited_future(guard: GFut, env: Env, ctx: EvalContext,
                   fields: Env = _NO_FIELDS, proc: Any = None) -> FutRef:
    """The future that `guard.var` holds in the scope."""
    value = lookup(guard.var, env, fields, proc, ctx)
    if value is None:
        raise UnboundVariableError(f"unbound variable {guard.var}",
                                   guard.pos)
    if not isinstance(value, FutRef):
        raise EvalTypeError(
            f"{guard.var}? applied to {render_value(value)}, not a future",
            guard.pos)
    return value


def _as_num(v: Value, op: str, pos) -> Fraction:
    if type(v) is NumVal:
        return v.value
    raise EvalTypeError(f"{op} applied to {render_value(v)}", pos)


_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                ">=": operator.ge}


class _Compiler:
    """Compiles the expressions of one frame: a function body's, whose
    formals take its first slots, or top-level code's (`formals` is
    None), whose first `_SCOPE` slots hold its scope.  Each case binder
    takes a slot after those."""

    def __init__(self, program: Program, formals: list[str] | None):
        self.program = program
        self.top = formals is None  # whether free names read the scope
        self.slots = ({} if formals is None
                      else {name: i for i, name in enumerate(formals)})
        self.size = _SCOPE if formals is None else len(formals)
        self.reads_clock = False  # it contains `now` or reads `deadline`
        self.calls: set[Function] = set()

    def reaches_clock(self) -> bool:
        """Whether the code compiled may read the clock, itself or in the
        body of a function it calls, directly or not."""
        seen: set[Function] = set()
        stack = list(self.calls)
        while stack:
            fn = stack.pop()
            if fn not in seen:
                seen.add(fn)
                stack.extend(fn.calls)
        return self.reads_clock or any(fn.reads_clock for fn in seen)

    def expr(self, e: Expr) -> Code:
        compile_ = _COMPILE.get(type(e))
        if compile_ is None:
            raise EvalTypeError(f"cannot evaluate {e!r}",
                                getattr(e, "pos", None))
        return compile_(self, e)

    def lit(self, e: Lit) -> Code:
        value = e.value
        return lambda s, c: value

    def var(self, e: Var) -> Code:
        name, pos = e.name, e.pos
        slot = self.slots.get(name)
        if slot is not None:
            return lambda s, c: s[slot]
        ctor = DataVal(name) if self.program.ctor_arity.get(name) == 0 else None
        if self.top:
            self.reads_clock |= name == "deadline"

            def read(s, c):
                value = lookup(name, s[0], s[1], s[2], c)
                if value is not None:
                    return value
                if ctor is not None:
                    return ctor
                raise UnboundVariableError(f"unbound variable {name}", pos)
            return read
        if ctor is not None:
            return lambda s, c: ctor

        def unbound(s, c):
            raise UnboundVariableError(f"unbound variable {name}", pos)
        return unbound

    def now(self, e: NowExpr) -> Code:
        self.reads_clock = True
        return lambda s, c: mk_time(c.config.clock)

    def unary(self, e: Unary) -> Code:
        operand, pos = self.expr(e.operand), e.pos
        if e.op == "!":
            def not_(s, c):
                v = operand(s, c)
                if type(v) is BoolVal:
                    return FALSE if v.value else TRUE
                raise EvalTypeError(f"! applied to {render_value(v)}", pos)
            return not_

        def neg(s, c):
            v = operand(s, c)
            if type(v) is NumVal:
                return NumVal(-v.value)
            raise EvalTypeError(f"- applied to {render_value(v)}", pos)
        return neg

    def binop(self, e: BinOp) -> Code:
        op, pos = e.op, e.pos
        left, right = self.expr(e.left), self.expr(e.right)
        if op in ("&&", "||"):
            # the operand value that decides without the right operand
            decides, result = (False, FALSE) if op == "&&" else (True, TRUE)

            def logical(s, c):
                v = left(s, c)
                if type(v) is not BoolVal:
                    raise EvalTypeError(f"{op} applied to {render_value(v)}",
                                        pos)
                if v.value == decides:
                    return result
                v = right(s, c)
                if type(v) is not BoolVal:
                    raise EvalTypeError(f"{op} applied to {render_value(v)}",
                                        pos)
                return v
            return logical
        if op == "==":
            return lambda s, c: TRUE if left(s, c) == right(s, c) else FALSE
        if op == "!=":
            return lambda s, c: TRUE if left(s, c) != right(s, c) else FALSE
        if op in _COMPARISONS:
            holds = _COMPARISONS[op]

            def compare(s, c):
                a, b = left(s, c), right(s, c)
                if type(a) is type(b) and (type(a) is NumVal
                                           or type(a) is StrVal):
                    return TRUE if holds(a.value, b.value) else FALSE
                if is_time(a) and is_time(b):
                    return (TRUE if holds(a.args[0].value, b.args[0].value)
                            else FALSE)
                raise EvalTypeError(
                    f"{op} applied to {render_value(a)} and "
                    f"{render_value(b)}", pos)
            return compare
        if op == "+":
            def add(s, c):
                a, b = left(s, c), right(s, c)
                if type(a) is NumVal and type(b) is NumVal:
                    return NumVal(a.value + b.value)
                if type(a) is StrVal and type(b) is StrVal:
                    return StrVal(a.value + b.value)
                raise EvalTypeError(
                    f"+ applied to {render_value(a)} and {render_value(b)}",
                    pos)
            return add
        if op == "-":
            def sub(s, c):
                a, b = left(s, c), right(s, c)
                if type(a) is NumVal and type(b) is NumVal:
                    return NumVal(a.value - b.value)
                if is_time(a) and is_time(b):
                    # Time subtraction yields a Duration
                    return mk_duration(a.args[0].value - b.args[0].value)
                return NumVal(_as_num(a, op, pos) - _as_num(b, op, pos))
            return sub
        if op == "*":
            def mul(s, c):
                a, b = left(s, c), right(s, c)
                return NumVal(_as_num(a, op, pos) * _as_num(b, op, pos))
            return mul
        if op == "/":
            def div(s, c):
                a, b = left(s, c), right(s, c)
                denominator = _as_num(b, op, pos)
                if denominator == 0:
                    raise DivisionByZeroError("division by zero", pos)
                return NumVal(_as_num(a, op, pos) / denominator)
            return div
        raise EvalTypeError(f"unknown operator {op}", pos)

    def apply(self, e: Apply) -> Code:
        name, pos = e.name, e.pos
        args = [self.expr(a) for a in e.args]
        n = len(args)
        fd = self.program.functions.get(name)
        if fd is not None:
            if len(fd.params) != n:
                return _after_args(
                    args, EvalTypeError,
                    f"{name} expects {len(fd.params)} argument(s), got {n}",
                    pos)
            fn = self.program.function(name)
            self.calls.add(fn)
            return _call(fn, args, name, pos)
        arity = self.program.ctor_arity.get(name)
        if arity is None:
            return _after_args(args, UnboundVariableError,
                               f"unknown function or constructor {name}", pos)
        if arity != n:
            return _after_args(
                args, EvalTypeError,
                f"constructor {name} expects {arity} argument(s), got {n}",
                pos)
        if n == 1:
            (a,) = args
            return lambda s, c: DataVal(name, (a(s, c),))
        if n == 2:
            a, b = args
            return lambda s, c: DataVal(name, (a(s, c), b(s, c)))
        return lambda s, c: DataVal(name, tuple([f(s, c) for f in args]))

    def if_(self, e: IfExpr) -> Code:
        cond, then, els = self.expr(e.cond), self.expr(e.then), self.expr(e.els)
        pos = e.pos

        def choose(s, c):
            v = cond(s, c)
            if type(v) is not BoolVal:
                raise EvalTypeError(
                    f"if condition is {render_value(v)}, not a Bool", pos)
            return then(s, c) if v.value else els(s, c)
        return choose

    def case(self, e: CaseExpr) -> Code:
        scrutinee, pos = self.expr(e.scrutinee), e.pos
        branches = []
        for branch in e.branches:
            outer = dict(self.slots)
            matcher = self.pattern(branch.pattern)
            branches.append((matcher, self.expr(branch.body)))
            self.slots = outer  # a binder's scope is its branch

        def case(s, c):
            v = scrutinee(s, c)
            for matcher, body in branches:
                if matcher is None or matcher(v, s):
                    return body(s, c)
            raise MatchFailureError(f"no branch matches {render_value(v)}",
                                    pos)
        return case

    # --- patterns

    def binder(self, name: str) -> int:
        """The fresh frame slot a binder writes."""
        slot = self.slots[name] = self.size
        self.size += 1
        return slot

    def is_binder(self, pat: Pattern) -> bool:
        return (isinstance(pat, PName)
                and self.program.ctor_arity.get(pat.name) != 0)

    def pattern(self, pat: Pattern) -> Matcher | None:
        if isinstance(pat, PWildcard):
            return None
        if isinstance(pat, PLit):
            literal = pat.value
            return lambda v, s: literal == v
        if isinstance(pat, PName):
            if not self.is_binder(pat):  # a nullary constructor
                name = pat.name
                return lambda v, s: (type(v) is DataVal and v.ctor == name
                                     and v.args == ())
            slot = self.binder(pat.name)

            def bind(v, s):
                s[slot] = v
                return True
            return bind
        if isinstance(pat, PCtor):
            return self.ctor_pattern(pat)
        raise EvalTypeError(f"cannot match {pat!r}")

    def ctor_pattern(self, pat: PCtor) -> Matcher:
        name, n = pat.name, len(pat.args)
        if all(self.is_binder(sub) or isinstance(sub, PWildcard)
               for sub in pat.args):
            binds = [(i, self.binder(sub.name))
                     for i, sub in enumerate(pat.args)
                     if not isinstance(sub, PWildcard)]

            def match_binders(v, s):
                if type(v) is DataVal and v.ctor == name and len(v.args) == n:
                    args = v.args
                    for i, slot in binds:
                        s[slot] = args[i]
                    return True
                return False
            return match_binders
        subs = [(i, m) for i, sub in enumerate(pat.args)
                if (m := self.pattern(sub)) is not None]

        def match(v, s):
            if type(v) is not DataVal or v.ctor != name or len(v.args) != n:
                return False
            args = v.args
            for i, m in subs:
                if not m(args[i], s):
                    return False
            return True
        return match


_COMPILE = {
    Lit: _Compiler.lit, Var: _Compiler.var, NowExpr: _Compiler.now,
    Unary: _Compiler.unary, BinOp: _Compiler.binop, Apply: _Compiler.apply,
    IfExpr: _Compiler.if_, CaseExpr: _Compiler.case,
}


def _after_args(args: list[Code], error: type[RtRuntimeError], message: str,
                pos) -> Code:
    """Code that evaluates the arguments of a call, then raises."""
    def fail(s, c):
        for a in args:
            a(s, c)
        raise error(message, pos)
    return fail


def _call(fn: Function, args: list[Code], name: str, pos) -> Code:
    """Code for a call of a model function: the arguments left to right
    into a fresh frame, then the body, one level deeper."""
    def enter(frame, c):
        if c.depth >= c.max_depth:
            raise CallDepthError(
                f"call depth exceeded {c.max_depth} in {name}", pos)
        c.depth += 1
        try:
            return fn.body(frame, c)
        finally:
            c.depth -= 1

    if len(args) == 1:
        (a,) = args
        return lambda s, c: enter([a(s, c), *fn.pad], c)
    if len(args) == 2:
        a, b = args
        return lambda s, c: enter([a(s, c), b(s, c), *fn.pad], c)
    return lambda s, c: enter([*[f(s, c) for f in args], *fn.pad], c)

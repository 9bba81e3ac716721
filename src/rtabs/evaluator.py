"""Strict evaluation of side-effect-free expressions and guards.

Expressions are compiled, not walked (Feeley & Lapalme, "Using closures
for code generation", 1987): each `Expr` becomes a Python closure
`(scope, ctx) -> Value`, and each `Pattern` a matcher
`(value, scope) -> bool` that allocates nothing.  A program's compiled
code lives in its `Program`, built once and shared by every evaluation:

- A function body is compiled together with the first expression that
  calls it.  Its formals, then each `case` binder in it, resolve to
  slots of one list frame per call, so a body never sees its caller's
  variables.
- Any other expression (a statement's, a guard's, a `[Scheduler:]`
  policy) is compiled the first time it is evaluated and kept by the
  identity of its node, which the cache holds.  It evaluates in a plain
  dict; a `case` branch in it evaluates under a copy of the dict with
  the pattern's binders written over it.  A bare literal is never
  compiled or kept: the engine builds one at every assignment step.

A case binder shadows an outer variable of the same name.  A name reads
its scope value, else a nullary constructor, else it is an unbound
variable.  A call evaluates its arguments left to right before any
error about the call itself; a function shadows a constructor of the
same name, and every model call counts one toward `max_depth`.
Rationals stay exact throughout.

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
    BoolVal, DataVal, FALSE, FutRef, NumVal, StrVal, TRUE, Value,
    is_time, mk_duration, mk_time, render_value,
)

Env = dict[str, Value]
# a compiled expression; its scope is an Env at top level and a list
# frame in a function body
Code = Callable[[Any, "EvalContext"], Value]
# a compiled pattern: whether the value matches, writing its binders
# into the scope; None for a pattern that matches anything and binds
# nothing
Matcher = Callable[[Value, Any], bool]


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
    # compiled top-level expressions by node identity: (node, code,
    # whether it may read the clock); holding the node keeps its id
    code: dict[int, tuple[Expr, Code, bool]] = field(default_factory=dict,
                                                     repr=False)

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

    def compiled(self, expr: Expr) -> tuple[Expr, Code, bool]:
        entry = self.code.get(id(expr))
        if entry is None:
            compiler = _Compiler(self, None)
            code = compiler.expr(expr)
            entry = (expr, code, compiler.reaches_clock())
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
            slots = {pname: i for i, (_, pname) in enumerate(fd.params)}
            compiler = _Compiler(self, slots)
            fn.body = compiler.expr(fd.body)
            fn.pad = (None,) * (compiler.size - len(fd.params))
            fn.reads_clock = compiler.reads_clock
            fn.calls = compiler.calls
        return fn


@dataclass
class EvalContext:
    program: Program
    clock: Fraction = Fraction(0)
    is_resolved: Callable[[int], bool] = lambda fid: False
    max_depth: int = 100_000
    depth: int = field(default=0)


def eval_expr(expr: Expr, env: Env, ctx: EvalContext) -> Value:
    if type(expr) is Lit:
        return expr.value
    try:
        return ctx.program.compiled(expr)[1](env, ctx)
    except RecursionError:
        raise CallDepthError(
            "expression nesting exhausted the host stack") from None


def eval_guard(guard: Guard, env: Env, ctx: EvalContext) -> bool:
    """Reduce one conjunct of an await guard to a boolean; the guard holds
    when every conjunct does.  A duration conjunct holds once its best
    bound is not positive.  Sampled conjuncts (RDur) are the engine's,
    which compares their absolute ends with the clock itself."""
    if isinstance(guard, GBool):
        value = eval_expr(guard.expr, env, ctx)
        if not isinstance(value, BoolVal):
            raise EvalTypeError(
                f"guard is {render_value(value)}, not a Bool", guard.pos)
        return value.value
    if isinstance(guard, GFut):
        value = env.get(guard.var)
        if value is None:
            raise UnboundVariableError(f"unbound variable {guard.var}",
                                       guard.pos)
        return future_resolved(guard, value, ctx)
    if isinstance(guard, GDuration):
        best = eval_expr(guard.best, env, ctx)
        return _as_num(best, "duration", guard.pos) <= 0
    raise EvalTypeError(f"cannot evaluate guard {guard!r}")


def future_resolved(guard: GFut, value: Value, ctx: EvalContext) -> bool:
    """Whether the future that `guard.var` holds, value, has resolved."""
    if not isinstance(value, FutRef):
        raise EvalTypeError(
            f"{guard.var}? applied to {render_value(value)}, not a future",
            guard.pos)
    return ctx.is_resolved(value.fid)


def _as_num(v: Value, op: str, pos) -> Fraction:
    if type(v) is NumVal:
        return v.value
    raise EvalTypeError(f"{op} applied to {render_value(v)}", pos)


_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                ">=": operator.ge}


class _Compiler:
    """Compiles the expressions of one scope: a function body, whose
    names resolve to frame slots, or a top-level expression (`slots` is
    None), whose names are looked up in a dict."""

    def __init__(self, program: Program, slots: dict[str, int] | None):
        self.program = program
        self.slots = slots
        self.size = 0 if slots is None else len(slots)  # frame slots
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
        ctor = DataVal(name) if self.program.ctor_arity.get(name) == 0 else None
        if self.slots is None:
            self.reads_clock |= name == "deadline"

            def lookup(s, c):
                value = s.get(name)
                if value is not None:
                    return value
                if ctor is not None:
                    return ctor
                raise UnboundVariableError(f"unbound variable {name}", pos)
            return lookup
        slot = self.slots.get(name)
        if slot is not None:
            return lambda s, c: s[slot]
        if ctor is not None:
            return lambda s, c: ctor

        def unbound(s, c):
            raise UnboundVariableError(f"unbound variable {name}", pos)
        return unbound

    def now(self, e: NowExpr) -> Code:
        self.reads_clock = True
        return lambda s, c: mk_time(c.clock)

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
            outer = None if self.slots is None else dict(self.slots)
            matcher = self.pattern(branch.pattern)
            branches.append((matcher, self.expr(branch.body)))
            self.slots = outer  # a binder's scope is its branch
        if self.slots is None:
            def case_in_dict(s, c):
                v = scrutinee(s, c)
                for matcher, body in branches:
                    if matcher is None:
                        return body(s, c)
                    bindings: Env = {}
                    if matcher(v, bindings):
                        return body({**s, **bindings}, c)
                raise MatchFailureError(
                    f"no branch matches {render_value(v)}", pos)
            return case_in_dict

        def case_in_frame(s, c):
            v = scrutinee(s, c)
            for matcher, body in branches:
                if matcher is None or matcher(v, s):
                    return body(s, c)
            raise MatchFailureError(f"no branch matches {render_value(v)}",
                                    pos)
        return case_in_frame

    # --- patterns

    def binder(self, name: str) -> int | str:
        """Where a binder writes: a fresh frame slot, or its name."""
        if self.slots is None:
            return name
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
            key = self.binder(pat.name)

            def bind(v, s):
                s[key] = v
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
                    for i, key in binds:
                        s[key] = args[i]
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

"""Strict evaluation of side-effect-free expressions and guards.

Expressions are compiled, not walked: each becomes one Python function,
generated as source and compiled once per `Program` (`_Generator`),
which every evaluation shares.  Each subexpression's value goes to a
fresh local in evaluation order, each `case` binder is a local of its
branch, and every operator's checks and error texts are module-level
helpers that the generated code calls.

- A model function (`def`) is generated the first time a call to it is
  generated, together with the functions it calls.  Its formals are the
  function's parameters, so a body never sees its caller's variables.
- Any other expression (a statement's, a guard's, a `[Scheduler:]`
  policy) is generated the first time it is evaluated, and kept by the
  identity of its node, which the cache holds.  Its formals are its
  scope (`lookup`): a process's locals, its object's fields and the
  process itself, whose time left `deadline` reads; or a plain dict.

A case binder shadows an outer variable of the same name.  A name reads
its scope value, else a nullary constructor, else it is an unbound
variable.  A call evaluates its arguments left to right before any
error about the call itself; a function shadows a constructor of the
same name, and every model call counts one toward `max_depth`.
Rationals stay exact throughout (`values.exact`).

Code reads nothing of the run but through its `EvalContext`: the clock
(`now`) and the future table (`f?`, `.get`) of the run's configuration,
read in place when evaluated, and `max_depth`.  So the engine builds
one context when it starts and evaluates every expression of the run
with it.  Reading the clock, through `now` or a `deadline` variable, also
sets the context's `clock_read`: the engine clears it before evaluating
a blocked head, so it learns whether a tick alone may change the head.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Sequence

from .errors import (
    CallDepthError, DivisionByZeroError, EvalTypeError, MatchFailureError,
    RtRuntimeError, UnboundVariableError,
)
from .nodes import (
    Apply, BinOp, CaseExpr, ClassDecl, Expr, FuncDecl, GBool, GFut, IfExpr,
    Lit, Model, NowExpr, PCtor, PLit, PName, Pattern, PWildcard, Unary, Var,
)
from .values import (
    INF_DURATION, BoolVal, DataVal, FALSE, FutRef, NumVal, Rat, StrVal,
    TRUE, Value, exact, is_time, mk_duration, mk_time, render_value,
)

Env = dict[str, Value]
_NO_FIELDS: Env = {}


@dataclass
class Program:
    """Static tables extracted from a (merged, desugared) model, and the
    code compiled from it."""

    functions: dict[str, FuncDecl]
    ctor_arity: dict[str, int]
    classes: dict[str, ClassDecl]
    # the generated Python function of each model function called so far
    bodies: dict[str, Callable] = field(default_factory=dict, repr=False)
    # the generated Python function of each top-level expression
    # evaluated so far, by node identity; holding the node keeps its id
    code: dict[int, tuple[Expr, Callable]] = field(default_factory=dict,
                                                   repr=False)
    generator: _Generator = field(init=False, repr=False)

    def __post_init__(self):
        self.generator = _Generator(self)

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

    def compiled(self, expr: Expr) -> Callable:
        """The Python function that evaluates top-level expression expr:
        called as `(ctx, calls, env, fields, proc)`, where calls is how
        many model calls it may make (`max_depth`)."""
        entry = self.code.get(id(expr))
        if entry is None:
            entry = self.code[id(expr)] = (expr,
                                           self.generator.top_level(expr))
        return entry[1]


@dataclass
class EvalContext:
    """What an evaluation reads besides its scope: the program's code,
    the run's configuration and the call depth limit.  The configuration
    is read, never copied: `now` is `config.clock`, and `f?` and a `.get`
    test `config.futures[fid].resolved`.  So one context serves a whole
    run; outside a run there is no configuration to read."""

    program: Program
    config: Any = None  # anything with a `clock` and a `futures` table
    max_depth: int = 100_000
    # set by every read of the clock; whoever asks clears it first
    clock_read: bool = field(default=False, init=False)


def remaining_deadline(p: Any, clock: Rat) -> Value:
    """The time left at clock until process p's deadline, `p.due`."""
    if p.due is None:
        return INF_DURATION
    left = p.due - clock
    return DataVal("Duration", (NumVal(exact(left)),))


def lookup(name: str, env: Env, fields: Env, proc: Any,
           ctx: EvalContext) -> Value | None:
    """What a name that no binder holds reads in a scope: in process
    proc's, `deadline` is its time left; any other name reads env (its
    locals), else fields (its object's).  None when neither holds it."""
    if proc is not None and name == "deadline":
        ctx.clock_read = True
        return remaining_deadline(proc, ctx.config.clock)
    value = env.get(name)
    return fields.get(name) if value is None else value


def eval_expr(expr: Expr, env: Env, ctx: EvalContext,
              fields: Env = _NO_FIELDS, proc: Any = None) -> Value:
    """The value of expr in a scope (see `lookup`); a plain dict env is
    a scope with no fields and no process."""
    try:
        return ctx.program.compiled(expr)(ctx, ctx.max_depth, env, fields,
                                          proc)
    except RecursionError:
        raise CallDepthError(
            "expression nesting exhausted the host stack") from None


def eval_guard(guard: GBool, env: Env, ctx: EvalContext,
               fields: Env = _NO_FIELDS, proc: Any = None) -> bool:
    """Whether a boolean conjunct of an await guard holds in a scope.
    `engine.wait` reads the other conjuncts itself."""
    value = eval_expr(guard.expr, env, ctx, fields, proc)
    if not isinstance(value, BoolVal):
        raise EvalTypeError(
            f"guard is {render_value(value)}, not a Bool", guard.pos)
    return value.value


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


# ------------------------------------------------------- operator helpers
#
# The one definition of each operator's checks and error texts, called
# by generated code, which may test for the common case (numbers,
# booleans) before calling one.


def _truth(v: Value, op: str, pos) -> bool:
    """The truth of v, an operand of op: `if`, `!`, `&&` or `||`."""
    if type(v) is BoolVal:
        return v.value
    if op == "if":
        raise EvalTypeError(f"if condition is {render_value(v)}, not a Bool",
                            pos)
    raise EvalTypeError(f"{op} applied to {render_value(v)}", pos)


def _neg(v: Value, pos) -> Value:
    if type(v) is NumVal:
        return NumVal(-v.value)
    raise EvalTypeError(f"- applied to {render_value(v)}", pos)


_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                ">=": operator.ge}
_RELATIONS = {"==", "!=", *_COMPARISONS}


def _compare(op: str, a: Value, b: Value, pos) -> bool:
    if type(a) is type(b) and (type(a) is NumVal or type(a) is StrVal):
        return _COMPARISONS[op](a.value, b.value)
    if is_time(a) and is_time(b):
        return _COMPARISONS[op](a.args[0].value, b.args[0].value)
    raise EvalTypeError(
        f"{op} applied to {render_value(a)} and {render_value(b)}", pos)


def _as_num(v: Value, op: str, pos) -> Rat:
    if type(v) is NumVal:
        return v.value
    raise EvalTypeError(f"{op} applied to {render_value(v)}", pos)


def _add(a: Value, b: Value, pos) -> Value:
    if type(a) is NumVal and type(b) is NumVal:
        return NumVal(exact(a.value + b.value))
    if type(a) is StrVal and type(b) is StrVal:
        return StrVal(a.value + b.value)
    raise EvalTypeError(
        f"+ applied to {render_value(a)} and {render_value(b)}", pos)


def _sub(a: Value, b: Value, pos) -> Value:
    if type(a) is NumVal and type(b) is NumVal:
        return NumVal(exact(a.value - b.value))
    if is_time(a) and is_time(b):
        # Time subtraction yields a Duration
        return mk_duration(a.args[0].value - b.args[0].value)
    return NumVal(_as_num(a, "-", pos) - _as_num(b, "-", pos))


def _mul(a: Value, b: Value, pos) -> Value:
    return NumVal(exact(_as_num(a, "*", pos) * _as_num(b, "*", pos)))


def _div(a: Value, b: Value, pos) -> Value:
    denominator = _as_num(b, "/", pos)
    if denominator == 0:
        raise DivisionByZeroError("division by zero", pos)
    return NumVal(exact(Fraction(_as_num(a, "/", pos)) / denominator))


_ARITHMETIC = {"+": _add, "-": _sub, "*": _mul, "/": _div}


def _now(c: EvalContext) -> Value:
    c.clock_read = True
    return mk_time(c.config.clock)


def _unbound(name: str, pos) -> RtRuntimeError:
    return UnboundVariableError(f"unbound variable {name}", pos)


def _no_match(v: Value, pos) -> RtRuntimeError:
    return MatchFailureError(f"no branch matches {render_value(v)}", pos)


def _depth_error(c: EvalContext, name: str, pos) -> RtRuntimeError:
    return CallDepthError(f"call depth exceeded {c.max_depth} in {name}", pos)


def _call_error(program: Program, name: str, n: int
                ) -> tuple[type[RtRuntimeError], str] | None:
    """The error a call of name with n arguments raises once they are
    evaluated; None when a function or constructor takes n arguments."""
    fd = program.functions.get(name)
    if fd is not None:
        if len(fd.params) == n:
            return None
        return (EvalTypeError,
                f"{name} expects {len(fd.params)} argument(s), got {n}")
    arity = program.ctor_arity.get(name)
    if arity is None:
        return UnboundVariableError, f"unknown function or constructor {name}"
    if arity != n:
        return (EvalTypeError,
                f"constructor {name} expects {arity} argument(s), got {n}")
    return None


def _is_binder(program: Program, pat: Pattern) -> bool:
    return isinstance(pat, PName) and program.ctor_arity.get(pat.name) != 0


# ------------------------------------------------------- code generation

# the block levels a generated function opens before it moves further
# nested control flow into a helper function, well inside the 100 that
# Python's tokenizer allows
_MAX_INDENT = 32

# the formals of a top-level expression's function, after `c, n`: its
# scope's env, fields and process (see `lookup`)
_FRAME = ("e", "f", "p")

# what generated code reads besides its constants and functions
_RUNTIME = {f.__name__: f for f in (
    BoolVal, DataVal, NumVal, lookup, _truth, _neg, _compare, _add, _sub,
    _mul, _div, _now, _unbound, _no_match, _depth_error)}


class _Generator:
    """Writes expressions as Python source and compiles it into one
    namespace per `Program`.  Model function f becomes
    `F<k>(c, n, a0, a1, ...)` and a top-level expression
    `T<k>(c, n, e, f, p)`: c is the context, n the model calls it may
    still make below it, a<i> the formals and e, f, p the scope.  A
    subexpression's value or a binder is a local `t<i>`, a constant
    `K<i>` and a helper function that nested control flow moved into
    `H<i>`.  So no model text enters the source: names, strings and
    numbers reach it as constants."""

    def __init__(self, program: Program):
        self.program = program
        self.namespace: dict[str, Any] = {"TRUE": TRUE, "FALSE": FALSE,
                                          **_RUNTIME}
        self.idents: dict[str, str] = {}  # model function -> F<k>
        self.consts: dict[int, str] = {}  # id of a constant -> K<i>
        self.tops = self.helpers = self.temps = 0
        # the state of one `top_level`: the functions named and not yet
        # written, the sources written, and the function being written
        self.pending: list[str] = []
        self.sources: list[str] = []
        self.lines: list[str] = []
        self.indent = 0
        # model variable -> the local or constant that holds it
        self.scope: dict[str, str] = {}
        # the scope formals of the function being written: `_FRAME` in
        # top-level code, none in a model function's
        self.frame: tuple[str, ...] = ()

    def top_level(self, e: Expr) -> Callable:
        """Write top-level expression e and every model function it calls
        that has none yet, compile them and register the functions; e's
        Python function."""
        ident = f"T{self.tops}"
        self.tops += 1
        written = []
        try:
            self.scope, self.frame = {}, _FRAME
            self.define(ident, _FRAME, e)
            self.frame = ()
            while self.pending:
                fname = self.pending.pop()
                written.append(fname)
                fd = self.program.functions[fname]
                params = [f"a{i}" for i in range(len(fd.params))]
                self.scope = {pname: param
                              for (_, pname), param in zip(fd.params, params)}
                self.define(self.idents[fname], params, fd.body)
            exec(compile("\n".join(self.sources), "<model code>", "exec"),
                 self.namespace)
        except BaseException:
            for fname in written + self.pending:
                del self.idents[fname]
            raise
        finally:
            self.pending, self.sources, self.frame = [], [], ()
            self.lines, self.indent = [], 0
        for fname in written:
            self.program.bodies[fname] = self.namespace[self.idents[fname]]
        return self.namespace[ident]

    def ident(self, name: str) -> str:
        """The identifier of model function `name`, queued to be written
        when first named."""
        ident = self.idents.get(name)
        if ident is None:
            ident = self.idents[name] = f"F{len(self.idents)}"
            self.pending.append(name)
        return ident

    def const(self, value: Any) -> str:
        name = self.consts.get(id(value))
        if name is None:  # the namespace keeps value, so its id stays
            name = self.consts[id(value)] = f"K{len(self.consts)}"
            self.namespace[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def emit(self, line: str) -> None:
        self.lines.append(" " * self.indent + line)

    def define(self, ident: str, params: Sequence[str], body: Expr) -> None:
        """Write `def ident(c, n, *params)` returning body's value."""
        outer = self.lines, self.indent
        self.lines = [f"def {ident}(c, n, {', '.join(params)}):"]
        self.indent = 1
        self.into(body, None)
        self.sources.append("\n".join(self.lines))
        self.lines, self.indent = outer

    def hoist(self, e: Expr) -> str:
        """Write e as a helper function of the scope formals and the
        locals in scope; the text of the call that evaluates it."""
        ident = f"H{self.helpers}"
        self.helpers += 1
        params = [*self.frame, *dict.fromkeys(self.scope.values())]
        self.define(ident, params, e)
        return f"{ident}(c, n, {', '.join(params)})"

    # --- expressions

    def into(self, e: Expr, sink: str | None) -> None:
        """Write code that returns e's value (sink None) or stores it in
        the local sink.  A `case` whose value is stored, and control flow
        nested `_MAX_INDENT` blocks deep, return it from a helper."""
        control = _control(e)
        if control is None:
            value = self.expr(e)
        elif self.indent < _MAX_INDENT and (sink is None
                                            or type(e) is not CaseExpr):
            control(self, e, sink)
            return
        else:
            value = self.hoist(e)
        self.emit(f"return {value}" if sink is None else f"{sink} = {value}")

    def expr(self, e: Expr) -> str:
        """The text of e's value, written after the code that computes
        its operands; an identifier when it needs no more work."""
        if _control(e) is not None:
            t = self.temp()
            self.into(e, t)
            return t
        generate = _GENERATE.get(type(e))
        if generate is None:
            raise EvalTypeError(f"cannot evaluate {e!r}",
                                getattr(e, "pos", None))
        return generate(self, e)

    def atom(self, e: Expr) -> str:
        """The local or constant that holds e's value, once written."""
        value = self.expr(e)
        if value.isidentifier():
            return value
        t = self.temp()
        self.emit(f"{t} = {value}")
        return t

    def truth(self, e: Expr, op: str, pos) -> str:
        """The text of the truth of e, an operand of op (`if`, `!`, `&&`
        or `||`): a comparison's own, else the value's if it is a Bool."""
        if type(e) is BinOp and e.op in _RELATIONS:
            return self.relation(e)
        t = self.atom(e)
        return (f"({t}.value if type({t}) is BoolVal "
                f"else _truth({t}, {self.const(op)}, {self.const(pos)}))")

    def lit(self, e: Lit) -> str:
        return self.const(e.value)

    def var(self, e: Var) -> str:
        local = self.scope.get(e.name)
        if local is not None:
            return local
        name = self.const(e.name)
        ctor = (self.const(DataVal(e.name))
                if self.program.ctor_arity.get(e.name) == 0 else None)
        unbound = f"raise _unbound({name}, {self.const(e.pos)})"
        if not self.frame:  # a model function's body reads no scope
            if ctor is not None:
                return ctor
            self.emit(unbound)
            return self.temp()  # never read: the code after a raise
        t = self.temp()
        self.emit(f"{t} = lookup({name}, e, f, p, c)")
        self.emit(f"if {t} is None: "
                  + (unbound if ctor is None else f"{t} = {ctor}"))
        return t

    def now(self, e: NowExpr) -> str:
        return "_now(c)"

    def unary(self, e: Unary) -> str:
        if e.op == "!":
            return f"FALSE if {self.truth(e.operand, '!', e.pos)} else TRUE"
        return f"_neg({self.atom(e.operand)}, {self.const(e.pos)})"

    def binop(self, e: BinOp) -> str:
        if e.op in _RELATIONS:
            return f"TRUE if {self.relation(e)} else FALSE"
        a, b = self.atom(e.left), self.atom(e.right)
        arithmetic = _ARITHMETIC.get(e.op)
        if arithmetic is None:
            raise EvalTypeError(f"unknown operator {e.op}", e.pos)
        return f"{arithmetic.__name__}({a}, {b}, {self.const(e.pos)})"

    def relation(self, e: BinOp) -> str:
        """The text of whether the comparison or equality e holds."""
        op = e.op
        a, b = self.atom(e.left), self.atom(e.right)
        if op == "==" or op == "!=":
            return f"{a} {op} {b}"
        # op is one of the four comparisons, which Python writes alike
        return (f"({a}.value {op} {b}.value if type({a}) is NumVal and "
                f"type({b}) is NumVal else _compare({self.const(op)}, {a}, "
                f"{b}, {self.const(e.pos)}))")

    def apply(self, e: Apply) -> str:
        name, pos = e.name, self.const(e.pos)
        # a list, not a generator, which would recurse on the C stack
        args = "".join([self.atom(a) + ", " for a in e.args])
        error = _call_error(self.program, name, len(e.args))
        if error is not None:
            kind, message = error
            self.emit(f"raise {self.const(kind)}({self.const(message)},"
                      f" {pos})")
            return self.temp()  # never read: the code after a raise
        if name in self.program.functions:
            self.emit(f"if n <= 0: raise _depth_error(c, {self.const(name)},"
                      f" {pos})")
            return f"{self.ident(name)}(c, n - 1, {args})"
        return f"DataVal({self.const(name)}, ({args}))"

    # --- control flow, written into a sink

    def if_(self, e: IfExpr, sink: str | None) -> None:
        self.emit(f"if {self.truth(e.cond, 'if', e.pos)}:")
        self.indent += 1
        self.into(e.then, sink)
        self.indent -= 1
        if sink is not None:
            self.emit("else:")
            self.indent += 1
            self.into(e.els, sink)
            self.indent -= 1
        else:
            self.into(e.els, sink)

    def logical(self, e: BinOp, sink: str | None) -> None:
        # the left operand's truth that decides, and the value it gives
        decides, result = ("not ", "FALSE") if e.op == "&&" else ("", "TRUE")
        self.emit(f"if {decides}{self.truth(e.left, e.op, e.pos)}:")
        self.indent += 1
        self.emit(f"return {result}" if sink is None else f"{sink} = {result}")
        self.indent -= 1
        if sink is not None:
            self.emit("else:")
            self.indent += 1
        value = f"TRUE if {self.truth(e.right, e.op, e.pos)} else FALSE"
        self.emit(f"return {value}" if sink is None else f"{sink} = {value}")
        if sink is not None:
            self.indent -= 1

    def case(self, e: CaseExpr, sink: None) -> None:
        v = self.atom(e.scrutinee)
        for branch in e.branches:
            conds: list[str] = []
            binds: list[tuple[str, str]] = []
            self.pattern(branch.pattern, v, v, conds, binds)
            outer, self.scope = self.scope, dict(self.scope)
            if conds:
                self.emit(f"if {' and '.join(conds)}:")
                self.indent += 1
            for name, value in binds:
                if not value.isidentifier():  # a part of the scrutinee
                    local = self.temp()
                    self.emit(f"{local} = {value}")
                    value = local
                self.scope[name] = value
            self.into(branch.body, None)
            self.scope = outer  # a binder's scope is its branch
            if not conds:
                return  # it matches whatever reaches it
            self.indent -= 1
        self.emit(f"raise _no_match({v}, {self.const(e.pos)})")

    def pattern(self, pat: Pattern, first: str, rest: str, conds: list[str],
                binds: list[tuple[str, str]]) -> None:
        """Add the conditions under which a value matches pat, and the
        (binder, text of its value) pairs it binds, to conds and binds.
        first is the text that reads the value first, rest the others."""
        if isinstance(pat, PWildcard):
            return
        if isinstance(pat, PLit):
            conds.append(f"{self.const(pat.value)} == {first}")
        elif isinstance(pat, PName):
            if _is_binder(self.program, pat):
                binds.append((pat.name, first))
            else:  # a nullary constructor
                conds += [f"type({first}) is DataVal",
                          f"{rest}.ctor == {self.const(pat.name)}",
                          f"not {rest}.args"]
        elif isinstance(pat, PCtor):
            conds += [f"type({first}) is DataVal",
                      f"{rest}.ctor == {self.const(pat.name)}",
                      f"len({rest}.args) == {len(pat.args)}"]
            for i, sub in enumerate(pat.args):
                arg = f"{rest}.args[{i}]"
                if _is_binder(self.program, sub):
                    binds.append((sub.name, arg))
                elif not isinstance(sub, PWildcard):
                    t = self.temp()
                    self.pattern(sub, f"({t} := {arg})", t, conds, binds)
        else:
            raise EvalTypeError(f"cannot match {pat!r}")


_GENERATE = {
    Lit: _Generator.lit, Var: _Generator.var, NowExpr: _Generator.now,
    Unary: _Generator.unary, BinOp: _Generator.binop, Apply: _Generator.apply,
}


def _control(e: Expr) -> Callable | None:
    """How to write e as control flow into a sink; None for an
    expression that is an operation on its operands' values."""
    if type(e) is BinOp:
        return _Generator.logical if e.op in ("&&", "||") else None
    if type(e) is IfExpr:
        return _Generator.if_
    return _Generator.case if type(e) is CaseExpr else None

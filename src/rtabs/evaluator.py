"""Strict evaluation of side-effect-free expressions, and the code that
runs each statement and await head.

Nothing is walked at run time: each expression, statement and head
becomes a Python function, generated as source and compiled once per
`Program` (`_Generator`), which every evaluation shares.  Each
subexpression's value goes to a fresh local in evaluation order, each
`case` binder is a local of its branch, and every operator's and
statement's checks and error texts are module-level helpers that the
generated code calls.

- A model function (`def`) is generated the first time a call to it is
  generated, together with the functions it calls.  Its formals are the
  function's parameters, so a body never sees its caller's variables.
- A class is generated when its first object is created: each method's
  body and `[Cost:]`, and its `init` body, as one unit
  (`Program.class_code`); the `main` block when the run boots.  A block
  compiles to a `Block`, the tuple of its statements that also holds
  the `Place` of each: the functions of its head and its step, its
  `new`'s `[Scheduler:]` policy, and the blocks it enters.  The engine
  keeps the block it runs, so it reaches each place's code by position,
  never by a lookup, and compiles nothing while it runs.
- An object's `[Scheduler:]` policy is compiled with the `new` that
  creates it; the `main` object's default policy with the `main` block
  (`Program.main`).

The tests compare this code with a tree walker of their own
(`tests/tree_walker.py`), with which the reference executor evaluates.

Every such function is one of its scope (`lookup`): a process's locals
(`e`), its object's fields (`f`) and the process itself (`p`), whose
time left `deadline` reads; or a plain dict.  A name reads its scope
value, else a nullary constructor, else it is an unbound variable; a
case binder shadows an outer variable of the same name.  A call
evaluates its arguments left to right before any error about the call
itself; a function shadows a constructor of the same name, and every
model call counts one toward `max_depth`.  Rationals stay exact
throughout (`values.exact`).

Code reads nothing of the run but through its `EvalContext`: the clock
(`now`) and the future table (`f?`, `.get`) of the run's configuration,
read in place when evaluated, and `max_depth`.  So the engine builds
one context when it starts and evaluates everything of the run with
it.  Reading the clock, through `now` or a `deadline` variable, also
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
    Apply, BinOp, CaseExpr, ClassDecl, Expr, FuncDecl, GDuration, GFut,
    IfExpr, Lit, MethodDecl, Model, NowExpr, PCtor, PLit, PName, Pattern,
    PWildcard, RCall, RExpr, RGet, RNew, SAssign, SAwait, SDuration, SIf,
    SReturn, SWhile, Stmt, Unary, Var,
)
from .values import (
    INF_DURATION, NULL, BoolVal, DataVal, FALSE, FutRef, NumVal, ObjRef, Rat,
    StrVal, TRUE, Value, duration_rat, exact, format_rat, is_duration,
    is_inf_duration, is_time, mk_duration, mk_time, num, render_value,
)

Env = dict[str, Value]
_NO_FIELDS: Env = {}

# the value of a variable declared without an initializer, by type name
DEFAULTS = {"Int": num(0), "Rat": num(0), "Bool": FALSE, "String": StrVal("")}


class Block(tuple):
    """The statements of a block, the tuple its tree holds, with `code`:
    the `Place` compiled for each, in the same order."""

    code: tuple[Place, ...]


class Place:
    """The code compiled for one statement of a block.  Each function
    is one of the scope `(c, n, e, f, p)` (see `_Generator`):

    - wait: what an await or `.get` head waits for (`engine.wait`): 0,
      a delay, an unresolved future or None;
    - run: its step's work, and its value: an assignment of an
      expression or a default stores it; a `new` gives its arguments, a
      call `(callee, args, deadline, criticality)` and a `.get` the
      future's value; an `if` or `while` its condition's truth; a
      `return` its value; a `duration` or await head the `(best, worst)`
      bounds of each duration it samples, in order (an await with none
      has no run);
    - store: the second half of a `new`, call or `.get`, which stores
      `p.pending`;
    - blocks: the blocks it enters: an `if`'s `then` and `els`, a
      `while`'s body;
    - policy: a `new`'s `[Scheduler:]`, whose scope is `queue`.
    """

    __slots__ = ("wait", "run", "store", "blocks", "policy")

    def __init__(self):
        self.wait = self.run = self.store = self.policy = None
        self.blocks: tuple[Block, ...] = ()


class Method:
    """A method of a class, compiled: its declaration, its `[Cost:]`,
    a function of the scope of its arguments, and its body."""

    __slots__ = ("decl", "cost", "body")

    def __init__(self, decl: MethodDecl, cost: Any, body: Block):
        self.decl, self.cost, self.body = decl, cost, body


@dataclass
class ClassCode:
    methods: dict[str, Method]
    init: Block | None  # the creation process's body, if it has one


@dataclass
class Program:
    """Static tables extracted from a (merged, desugared) model, and the
    code compiled from it."""

    functions: dict[str, FuncDecl]
    ctor_arity: dict[str, int]
    classes: dict[str, ClassDecl]
    # the code of each class that has had an object created so far
    class_codes: dict[str, ClassCode] = field(default_factory=dict,
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

    def class_code(self, name: str) -> ClassCode | None:
        """The code of class name, compiled on first use; None when the
        model has no such class."""
        code = self.class_codes.get(name)
        if code is None and name in self.classes:
            code = self.class_codes[name] = self.generator.class_code(
                self.classes[name])
        return code

    def block(self, stmts: tuple[Stmt, ...]) -> Block:
        """stmts compiled anew into a Block, a unit of its own: the body
        of a process that a caller builds outside a run."""
        return self.generator.unit(lambda: self.generator.block(stmts))

    def main(self, stmts: tuple[Stmt, ...] | None, policy: Expr
             ) -> tuple[Callable, Block | None]:
        """The `main` object's code, compiled at boot as one unit: its
        policy, written as a `new` place's is, and its block stmts, if it
        has one."""
        generator, holder = self.generator, Place()

        def write() -> Block | None:
            generator.function(holder, "policy",
                               lambda: generator.into(policy, None))
            return None if stmts is None else generator.block(stmts)
        block = generator.unit(write)
        return holder.policy, block


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
    locals), else fields (its object's).  None when neither holds it.
    Generated code reads env and fields itself, and calls this for
    `deadline` only."""
    if proc is not None and name == "deadline":
        ctx.clock_read = True
        return remaining_deadline(proc, ctx.config.clock)
    value = env.get(name)
    return fields.get(name) if value is None else value


def eval_expr(code: Callable, env: Env, ctx: EvalContext,
              fields: Env = _NO_FIELDS, proc: Any = None) -> Any:
    """Run code, a function of a `Place` or `Method` of the program, in a
    scope (see `lookup`), and give its result.  A plain dict env is a
    scope with no fields and no process."""
    try:
        return code(ctx, ctx.max_depth, env, fields, proc)
    except RecursionError:
        raise _host_stack() from None


# What a head waits for, given its `Place.wait`: its code gives just
# that, so a head evaluates as an expression does; the engine names the
# two apart, which lets a caller count them apart.
eval_guard = eval_expr


# ------------------------------------------------------- operator helpers
#
# The one definition of each operator's and statement's checks and error
# texts, called by generated code.  That code reads a Bool's truth, and
# computes `+`, `-`, `*` and the comparisons of two numbers, itself, so
# a helper sees only the other cases: `_sub` and `_mul` raise for the
# first operand that is no number.

# what `_not_bool` names a value that is no Bool, for what is not an
# operator
_SUBJECTS = {"if": "if condition", "cond": "condition", "guard": "guard"}


def _not_bool(v: Value, op: str, pos) -> bool:
    """Raise the error of v, which is no Bool, as an operand of op (`!`,
    `&&` or `||`), or as what a key of `_SUBJECTS` names: an `if`
    expression's or a statement's condition, or an await guard's boolean
    conjunct."""
    subject = _SUBJECTS.get(op)
    if subject is not None:
        raise _mistyped(f"{subject} is", v, "a Bool", pos)
    raise EvalTypeError(f"{op} applied to {render_value(v)}", pos)


def _mistyped(subject: str, v: Value, kind: str, pos) -> RtRuntimeError:
    return EvalTypeError(f"{subject} {render_value(v)}, not {kind}", pos)


def _neg(v: Value, pos) -> Value:
    if type(v) is NumVal:
        return NumVal(-v.value)
    raise EvalTypeError(f"- applied to {render_value(v)}", pos)


_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                ">=": operator.ge}
_RELATIONS = {"==", "!=", *_COMPARISONS}


def _compare(op: str, a: Value, b: Value, pos) -> bool:
    if type(a) is StrVal and type(b) is StrVal:
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
    if type(a) is StrVal and type(b) is StrVal:
        return StrVal(a.value + b.value)
    raise EvalTypeError(
        f"+ applied to {render_value(a)} and {render_value(b)}", pos)


def _sub(a: Value, b: Value, pos) -> Value:
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


def _host_stack() -> RtRuntimeError:
    return CallDepthError("expression nesting exhausted the host stack")


def _bound(v: Value, pos) -> Rat:
    """A duration bound's magnitude: a number or a finite Duration."""
    if type(v) is NumVal:
        return v.value
    if is_duration(v) and not is_inf_duration(v):
        return duration_rat(v)
    raise _mistyped("duration bound is", v, "a finite number", pos)


def _malformed(lo: Rat, hi: Rat, pos) -> RtRuntimeError:
    return RtRuntimeError(
        f"malformed duration bounds ({format_rat(lo)}, {format_rat(hi)})", pos)


def _callee_error(v: Value, method: str, pos) -> RtRuntimeError:
    if v == NULL:
        return RtRuntimeError(f"call to {method} on null", pos)
    return _mistyped("call target is", v, "an object", pos)


def time_left(c: EvalContext, p: Any) -> Rat:
    """What a head that is no await or `.get` waits for, and an await
    head whose conjuncts hold: the longest time left of process p's
    sampled durations, 0 when it has none."""
    sample = p.sample
    if not sample:
        return 0
    left = max(sample) - c.config.clock
    return left if left > 0 else 0


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

# the formals of a scope's function, after `c, n`: its env, fields and
# process (see `lookup`)
_FRAME = ("e", "f", "p")

# what generated code reads besides its constants and functions
_RUNTIME = {f.__name__: f for f in (
    BoolVal, DataVal, FutRef, NumVal, ObjRef, exact, is_duration, lookup,
    _not_bool, _mistyped, _neg, _compare, _add, _sub, _mul, _div, _now,
    _unbound, _no_match, _depth_error, _bound, _malformed, _callee_error,
    time_left)}


# the characters of source compiled at once, unless one function is
# longer: `compile` holds the whole syntax tree of its source, and one
# `compile` of media-fanout's main block (189 functions, 32 KB) raised the
# peak RSS of `rtabs run` from 20 to 23 MB
_CHUNK = 8192


def _chunks(sources: list[str]):
    """The sources joined into texts of about `_CHUNK` characters."""
    chunk, size = [], 0
    for source in sources:
        if chunk and size + len(source) > _CHUNK:
            yield "\n".join(chunk)
            chunk, size = [], 0
        chunk.append(source)
        size += len(source) + 1
    if chunk:
        yield "\n".join(chunk)


class _Generator:
    """Writes expressions, statements and heads as Python source and
    compiles it into one namespace per `Program`.  Model function f
    becomes `F<k>(c, n, a0, a1, ...)`, and the code of a place
    `T<k>(c, n, e, f, p)`: c is the context, n the model calls it may
    still make below it, a<i> the formals and e, f, p the scope.  A
    subexpression's value or a binder is a local `t<i>`, a constant
    `K<i>` and a helper function that nested control flow moved into
    `H<i>`.  So no model text enters the source: names, strings and
    numbers reach it as constants.  What a unit writes is compiled
    together (`unit`)."""

    def __init__(self, program: Program):
        self.program = program
        self.namespace: dict[str, Any] = {"TRUE": TRUE, "FALSE": FALSE,
                                          **_RUNTIME}
        self.idents: dict[str, str] = {}  # model function -> F<k>
        self.consts: dict[int, str] = {}  # id of a constant -> K<i>
        self.tops = self.helpers = self.temps = 0
        # the state of one unit: the functions named and not yet written,
        # the sources written, the (object, attribute, T<k>) to bind once
        # they are compiled, and the function being written
        self.pending: list[str] = []
        self.sources: list[str] = []
        self.bindings: list[tuple[Any, str, str]] = []
        self.lines: list[str] = []
        self.indent = 0
        # model variable -> the local or constant that holds it
        self.scope: dict[str, str] = {}
        # the scope formals of the function being written: `_FRAME` in
        # the code of a place, none in a model function's
        self.frame: tuple[str, ...] = ()

    def unit(self, write: Callable[[], Any]) -> Any:
        """Call write, which writes the code of places and returns what
        holds it, then write every model function it calls that has none
        yet; compile them in chunks of `_CHUNK`, bind each function to its
        holder and register the model functions; write's result."""
        written = []
        try:
            self.frame = _FRAME
            result = write()
            self.frame = ()
            while self.pending:
                fname = self.pending.pop()
                written.append(fname)
                fd = self.program.functions[fname]
                params = [f"a{i}" for i in range(len(fd.params))]
                self.scope = {pname: param
                              for (_, pname), param in zip(fd.params, params)}
                self.define(self.idents[fname], params,
                            lambda: self.into(fd.body, None))
            for chunk in _chunks(self.sources):
                exec(compile(chunk, "<model code>", "exec"), self.namespace)
            bindings = self.bindings
        except BaseException as exc:
            for fname in written + self.pending:
                del self.idents[fname]
            if isinstance(exc, RecursionError):
                raise _host_stack() from None
            raise
        finally:
            self.pending, self.sources, self.bindings = [], [], []
            self.frame, self.lines, self.indent = (), [], 0
        for holder, attribute, ident in bindings:
            setattr(holder, attribute, self.namespace[ident])
        return result

    def class_code(self, cd: ClassDecl) -> ClassCode:
        """Compile each method's body and cost and cd's `init` body."""
        def write() -> ClassCode:
            methods = {}
            for m in cd.methods:
                if m.name in methods:
                    continue  # the first of a name binds its messages
                method = methods[m.name] = Method(m, None, self.block(m.body))
                self.function(method, "cost", lambda: self.cost(cd, m))
            init = None if cd.init_body is None else self.block(cd.init_body)
            return ClassCode(methods, init)
        return self.unit(write)

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

    def define(self, ident: str, params: Sequence[str],
               write: Callable[[], None]) -> None:
        """Write `def ident(c, n, *params)` whose body write writes."""
        outer = self.lines, self.indent
        self.lines = [f"def {ident}(c, n, {', '.join(params)}):"]
        self.indent = 1
        write()
        self.sources.append("\n".join(self.lines))
        self.lines, self.indent = outer

    def function(self, holder: Any, attribute: str,
                 write: Callable[[], None]) -> None:
        """Write a function of the scope whose body write writes, to be
        holder's attribute once compiled."""
        ident = f"T{self.tops}"
        self.tops += 1
        outer, self.scope = self.scope, {}
        self.define(ident, _FRAME, write)
        self.scope = outer
        self.bindings.append((holder, attribute, ident))

    def hoist(self, e: Expr) -> str:
        """Write e as a helper function of the scope formals and the
        locals in scope; the text of the call that evaluates it."""
        ident = f"H{self.helpers}"
        self.helpers += 1
        params = [*self.frame, *dict.fromkeys(self.scope.values())]
        self.define(ident, params, lambda: self.into(e, None))
        return f"{ident}(c, n, {', '.join(params)})"

    # --- blocks and statements

    def block(self, stmts: tuple[Stmt, ...]) -> Block:
        """The Block of stmts, whose places' code is written now and
        bound when the unit compiles."""
        block = Block(stmts)
        block.code = tuple([self.place(s) for s in stmts])
        return block

    def place(self, s: Stmt) -> Place:
        place = Place()
        write = _PLACES.get(type(s))
        if write is not None:
            write(self, s, place)
        return place

    def assign(self, s: SAssign, place: Place) -> None:
        rhs = s.rhs
        if rhs is None or type(rhs) is RExpr:
            self.function(place, "run", lambda: self.store(s, (
                self.const(DEFAULTS.get(s.decl_type.name, NULL))
                if rhs is None else self.atom(rhs.expr))))
            return
        write = _FIRST_HALVES.get(type(rhs))
        if write is None:
            message = f"call was not lowered: {type(rhs).__name__}"
            self.function(place, "run", lambda: self.emit(
                f"raise {self.const(RtRuntimeError)}({self.const(message)}, "
                f"{self.const(s.pos)})"))
            return
        self.function(place, "run", lambda: write(self, rhs, place))
        self.function(place, "store", lambda: self.store(s, "p.pending"))

    def store(self, s: SAssign, value: str) -> None:
        """Write the store of value into s's variable: a local it
        declares or holds, else a field."""
        name = self.const(s.name)
        if s.decl_type is not None:
            self.emit(f"e[{name}] = {value}")
            return
        self.emit(f"if {name} in e: e[{name}] = {value}")
        self.emit(f"elif {name} in f: f[{name}] = {value}")
        self.emit(f"else: raise _unbound({name}, {self.const(s.pos)})")

    def new(self, rhs: RNew, place: Place) -> None:
        args = "".join([self.atom(a) + ", " for a in rhs.args])
        self.emit(f"return ({args})")
        self.function(place, "policy", lambda: self.into(rhs.scheduler, None))

    def call(self, rhs: RCall, place: Place) -> None:
        pos = self.const(rhs.pos)
        callee = self.atom(rhs.callee)
        self.emit(f"if type({callee}) is not ObjRef: raise _callee_error("
                  f"{callee}, {self.const(rhs.method)}, {pos})")
        args = "".join([self.atom(a) + ", " for a in rhs.args])
        deadline = self.checked(self.atom(rhs.annots.deadline),
                                "not is_duration({})", "deadline is",
                                "a Duration", pos)
        critical = self.checked(self.atom(rhs.annots.critical),
                                "type({}) is not BoolVal", "criticality is",
                                "a Bool", pos)
        self.emit(f"return {callee}, ({args}), {deadline}, {critical}")

    def checked(self, t: str, wrong: str, subject: str, kind: str,
                pos: str) -> str:
        """t, a local, once written a check that raises `_mistyped`
        when wrong, a format of t, holds."""
        self.emit(f"if {wrong.format(t)}: raise _mistyped("
                  f"{self.const(subject)}, {t}, {self.const(kind)}, {pos})")
        return t

    def get(self, rhs: RGet, place: Place) -> None:
        # wait found the future resolved
        self.emit(f"return c.config.futures[{self.atom(rhs.expr)}.fid].value")
        self.function(place, "wait", lambda: self.get_wait(rhs))

    def get_wait(self, rhs: RGet) -> None:
        self.emit("if p.pending is not None: return 0")  # the second half
        t = self.checked(self.atom(rhs.expr), "type({}) is not FutRef",
                         "get applied to", "a future", self.const(rhs.pos))
        self.emit(f"return 0 if c.config.futures[{t}.fid].resolved else {t}")

    def condition(self, s: SIf | SWhile, place: Place) -> None:
        self.function(place, "run", lambda: self.emit(
            f"return {self.truth(s.cond, 'cond', s.pos)}"))
        place.blocks = ((self.block(s.then), self.block(s.els))
                        if type(s) is SIf else (self.block(s.body),))

    def return_(self, s: SReturn, place: Place) -> None:
        self.function(place, "run", lambda: self.into(s.expr, None))

    def duration(self, s: SDuration, place: Place) -> None:
        self.samples(place, [s])

    def samples(self, place: Place,
                durations: list[SDuration] | list[GDuration]) -> None:
        """Write place's run: the checked (best, worst) bounds of each of
        the durations its head samples, in order."""
        self.function(place, "run", lambda: self.emit("return (" + "".join(
            [self.bounds(d) + ", " for d in durations]) + ")"))

    def bounds(self, d: SDuration | GDuration) -> str:
        """The text of the checked (best, worst) bounds of d."""
        k = self.const(d.pos)
        lo, hi = self.temp(), self.temp()
        self.emit(f"{lo} = _bound({self.atom(d.best)}, {k})")
        self.emit(f"{hi} = _bound({self.atom(d.worst)}, {k})")
        self.emit(f"if {lo} < 0 or {hi} < {lo}: "
                  f"raise _malformed({lo}, {hi}, {k})")
        return f"({lo}, {hi})"

    def await_(self, s: SAwait, place: Place) -> None:
        durations = [g for g in s.guards if type(g) is GDuration]
        if durations:
            self.samples(place, durations)
        self.function(place, "wait", lambda: self.await_wait(s, durations))

    def await_wait(self, s: SAwait, durations: list[GDuration]) -> None:
        """Fold over the conjuncts left to right: stop at the first
        boolean or future conjunct that does not hold, else wait for the
        longest remaining sampled duration."""
        sampled = False
        for g in s.guards:
            if type(g) is GFut:
                t = self.future(g)
                self.emit(f"if not c.config.futures[{t}.fid].resolved: "
                          f"return {t}")
            elif type(g) is GDuration:
                if not sampled:
                    message = "wait on an unsampled duration guard"
                    self.emit(f"if p.sample is None: "
                              f"raise AssertionError({self.const(message)})")
                    sampled = True
            else:
                self.emit(f"if not {self.truth(g.expr, 'guard', g.pos)}: "
                          "return None")
        self.emit("return time_left(c, p)" if durations else "return 0")

    def future(self, g: GFut) -> str:
        """The local that holds the future conjunct g awaits."""
        return self.checked(self.read(g.var, g.pos, None),
                            "type({}) is not FutRef", f"{g.var}? applied to",
                            "a future", self.const(g.pos))

    def cost(self, cd: ClassDecl, m: MethodDecl) -> None:
        t = self.checked(self.atom(m.cost), "not is_duration({})",
                         f"cost of {cd.name}.{m.name} is", "a Duration",
                         self.const(m.cost.pos))
        self.emit(f"return {t}")

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
        """The text of the truth of e, an operand or subject op of
        `_not_bool`: a comparison's own, else the value's if it is a
        Bool."""
        if type(e) is BinOp and e.op in _RELATIONS:
            return self.relation(e)
        t = self.atom(e)
        return (f"({t}.value if type({t}) is BoolVal "
                f"else _not_bool({t}, {self.const(op)}, {self.const(pos)}))")

    def lit(self, e: Lit) -> str:
        return self.const(e.value)

    def var(self, e: Var) -> str:
        local = self.scope.get(e.name)
        if local is not None:
            return local
        ctor = (self.const(DataVal(e.name))
                if self.program.ctor_arity.get(e.name) == 0 else None)
        if self.frame or ctor is None:
            return self.read(e.name, e.pos, ctor)
        return ctor  # a model function's body reads no scope

    def read(self, name: str, pos, ctor: str | None) -> str:
        """The local that holds what name reads in the scope (see
        `lookup`), else the constant ctor; with neither, write the raise
        of an unbound variable."""
        k = self.const(name)
        unbound = f"raise _unbound({k}, {self.const(pos)})"
        if not self.frame:  # a model function's body reads no scope
            self.emit(unbound)
            return self.temp()  # never read: the code after a raise
        t = self.temp()
        if name == "deadline":
            self.emit(f"{t} = lookup({k}, e, f, p, c)")
        else:
            self.emit(f"{t} = e.get({k})")
            self.emit(f"if {t} is None: {t} = f.get({k})")
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
        arithmetic = _ARITHMETIC.get(e.op)
        if arithmetic is None:
            raise EvalTypeError(f"unknown operator {e.op}", e.pos)
        a, b = self.atom(e.left), self.atom(e.right)
        call = f"{arithmetic.__name__}({a}, {b}, {self.const(e.pos)})"
        if e.op == "/":  # which checks for a zero denominator
            return call
        return self.on_numbers(e, a, b, f"NumVal(exact({{}} {e.op} {{}}))",
                               call)

    def relation(self, e: BinOp) -> str:
        """The text of whether the comparison or equality e holds."""
        op = e.op
        a, b = self.atom(e.left), self.atom(e.right)
        if op == "==" or op == "!=":
            general = f"{a} {op} {b}"
        else:
            general = (f"_compare({self.const(op)}, {a}, {b}, "
                       f"{self.const(e.pos)})")
        # op is one that Python writes alike
        return self.on_numbers(e, a, b, f"{{}} {op} {{}}", general)

    def on_numbers(self, e: BinOp, a: str, b: str, fast: str,
                   general: str) -> str:
        """The text of the binary operation e on the values a and b of its
        operands: fast, a format of their numbers, when both are numbers,
        else general.  A number literal needs no test."""
        numbers, tests = [], []
        for operand, value in ((e.left, a), (e.right, b)):
            if type(operand) is Lit and type(operand.value) is NumVal:
                numbers.append(self.const(operand.value.value))
            else:
                numbers.append(f"{value}.value")
                tests.append(f"type({value}) is NumVal")
        if not tests:
            return f"({fast.format(*numbers)})"
        return (f"({fast.format(*numbers)} if {' and '.join(tests)} "
                f"else {general})")

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

# how to write the code of each statement kind into its place; another
# kind, which desugaring lowers, gets none
_PLACES = {
    SAssign: _Generator.assign, SIf: _Generator.condition,
    SWhile: _Generator.condition, SReturn: _Generator.return_,
    SDuration: _Generator.duration, SAwait: _Generator.await_,
}

# how to write the first half of a `new`, a call or a `.get`
_FIRST_HALVES = {RNew: _Generator.new, RCall: _Generator.call,
                 RGet: _Generator.get}


def _control(e: Expr) -> Callable | None:
    """How to write e as control flow into a sink; None for an
    expression that is an operation on its operands' values."""
    if type(e) is BinOp:
        return _Generator.logical if e.op in ("&&", "||") else None
    if type(e) is IfExpr:
        return _Generator.if_
    return _Generator.case if type(e) is CaseExpr else None

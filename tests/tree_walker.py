"""A tree walker for expressions and guards: the reference semantics that
the package's generated code is checked against.

It walks the desugared tree itself.  Of `rtabs.evaluator` it reads only
the tables of a program and the context of an evaluation (`Program`,
`EvalContext`, `remaining_deadline`); every operator, pattern and error
text is written out again here.  So a bug in the code generator shows
as a difference between the two (`test_walker.py`, `test_eval.py`), and
the reference executor, which evaluates with this walker, does not
share it.

Scopes are those of generated code.  A name reads, in order: a `case`
binder, or a formal inside a function body; outside a function body,
`deadline` as the time left of the process, when one is given, else the
locals (env), else the fields; then a nullary constructor.  A function
body reads only its formals.  Every model call counts one toward
`max_depth`: `calls` is how many an evaluation may still make below it.
Rationals stay exact (`values.exact`).  Reading the clock, through
`now` or a process's `deadline`, sets the context's `clock_read`.

The walk recurses through Python calls only, never through a C
function such as `tuple` over a generator.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from rtabs.errors import (
    CallDepthError, DivisionByZeroError, EvalTypeError, MatchFailureError,
    UnboundVariableError,
)
from rtabs.evaluator import EvalContext, Program, remaining_deadline
from rtabs.nodes import (
    Apply, BinOp, CaseExpr, Expr, GBool, GFut, Guard, IfExpr, Lit, NowExpr,
    PCtor, PLit, PName, Pattern, PWildcard, Unary, Var,
)
from rtabs.values import (
    FALSE, TRUE, BoolVal, DataVal, FutRef, NumVal, StrVal, Value, exact,
    is_time, mk_duration, mk_time, render_value,
)

Env = dict[str, Value]
_NO_FIELDS: Env = {}


def evaluate(e: Expr, env: Env, ctx: EvalContext, fields: Env = _NO_FIELDS,
             proc=None) -> Value:
    """e's value in the scope of locals env, fields and process proc."""
    try:
        return _eval(e, {}, (env, fields, proc), ctx, ctx.max_depth)
    except RecursionError:
        raise CallDepthError(
            "expression nesting exhausted the host stack") from None


def holds(g: Guard, env: Env, ctx: EvalContext, fields: Env = _NO_FIELDS,
          proc=None) -> bool:
    """Whether the boolean or future conjunct g of an await holds."""
    if type(g) is GFut:
        fut = _read(g.var, (env, fields, proc), ctx)
        if fut is None:
            raise UnboundVariableError(f"unbound variable {g.var}", g.pos)
        if type(fut) is not FutRef:
            raise EvalTypeError(f"{g.var}? applied to {render_value(fut)}, "
                                "not a future", g.pos)
        return ctx.config.futures[fut.fid].resolved
    assert type(g) is GBool, g
    return _truth(evaluate(g.expr, env, ctx, fields, proc), "guard", g.pos)


def store(name: str, declared: bool, value: Value, env: Env, fields: Env,
          pos) -> None:
    """Assign value to name: a local it declares or holds, else a field."""
    if declared or name in env:
        env[name] = value
    elif name in fields:
        fields[name] = value
    else:
        raise UnboundVariableError(f"unbound variable {name}", pos)


def _truth(v: Value, subject: str, pos) -> bool:
    if type(v) is not BoolVal:
        raise EvalTypeError(f"{subject} is {render_value(v)}, not a Bool", pos)
    return v.value


def _read(name: str, frame, ctx: EvalContext) -> Value | None:
    env, fields, proc = frame
    if proc is not None and name == "deadline":
        ctx.clock_read = True
        return remaining_deadline(proc, ctx.config.clock)
    value = env.get(name)
    return fields.get(name) if value is None else value


# Each node kind's rule is a function of (node, scope, frame, ctx, calls):
# scope holds the binders and formals, and frame is (env, fields, proc)
# outside a function body, else None.

def _eval(e: Expr, scope: Env, frame, ctx: EvalContext, calls: int) -> Value:
    rule = _RULES.get(type(e))
    if rule is None:
        raise EvalTypeError(f"cannot evaluate {e!r}", getattr(e, "pos", None))
    return rule(e, scope, frame, ctx, calls)


def _lit(e: Lit, scope, frame, ctx, calls) -> Value:
    return e.value


def _var(e: Var, scope, frame, ctx, calls) -> Value:
    value = scope.get(e.name)
    if value is None and frame is not None:
        value = _read(e.name, frame, ctx)
    if value is None:
        if ctx.program.ctor_arity.get(e.name) != 0:
            raise UnboundVariableError(f"unbound variable {e.name}", e.pos)
        value = DataVal(e.name)
    return value


def _now(e: NowExpr, scope, frame, ctx, calls) -> Value:
    ctx.clock_read = True
    return mk_time(ctx.config.clock)


def _unary(e: Unary, scope, frame, ctx, calls) -> Value:
    v = _eval(e.operand, scope, frame, ctx, calls)
    if e.op == "!" and type(v) is BoolVal:
        return FALSE if v.value else TRUE
    if e.op == "-" and type(v) is NumVal:
        return NumVal(-v.value)
    raise EvalTypeError(f"{e.op} applied to {render_value(v)}", e.pos)


def _if(e: IfExpr, scope, frame, ctx, calls) -> Value:
    cond = _eval(e.cond, scope, frame, ctx, calls)
    if _truth(cond, "if condition", e.pos):
        return _eval(e.then, scope, frame, ctx, calls)
    return _eval(e.els, scope, frame, ctx, calls)


def _case(e: CaseExpr, scope, frame, ctx, calls) -> Value:
    v = _eval(e.scrutinee, scope, frame, ctx, calls)
    for branch in e.branches:
        binds: Env = {}
        if _match(branch.pattern, v, ctx.program, binds):
            return _eval(branch.body, {**scope, **binds}, frame, ctx, calls)
    raise MatchFailureError(f"no branch matches {render_value(v)}", e.pos)


def _match(pat: Pattern, v: Value, program: Program, binds: Env) -> bool:
    """Whether v matches pat; its binders go into binds, which may hold a
    partial match when it does not."""
    if type(pat) is PWildcard:
        return True
    if type(pat) is PLit:
        return pat.value == v
    if type(pat) is PName:
        if program.ctor_arity.get(pat.name) == 0:
            return v == DataVal(pat.name)
        binds[pat.name] = v
        return True
    if type(pat) is PCtor:
        if (type(v) is not DataVal or v.ctor != pat.name
                or len(v.args) != len(pat.args)):
            return False
        for sub, arg in zip(pat.args, v.args):
            if not _match(sub, arg, program, binds):
                return False
        return True
    raise EvalTypeError(f"cannot match {pat!r}")


def _apply(e: Apply, scope, frame, ctx, calls) -> Value:
    args = []
    for a in e.args:
        args.append(_eval(a, scope, frame, ctx, calls))
    name, program = e.name, ctx.program
    fd = program.functions.get(name)
    if fd is not None:
        if len(fd.params) != len(args):
            raise EvalTypeError(f"{name} expects {len(fd.params)} "
                                f"argument(s), got {len(args)}", e.pos)
        if calls <= 0:
            raise CallDepthError(
                f"call depth exceeded {ctx.max_depth} in {name}", e.pos)
        formals = {}
        for (_, param), value in zip(fd.params, args):
            formals[param] = value
        return _eval(fd.body, formals, None, ctx, calls - 1)
    arity = program.ctor_arity.get(name)
    if arity is None:
        raise UnboundVariableError(
            f"unknown function or constructor {name}", e.pos)
    if arity != len(args):
        raise EvalTypeError(f"constructor {name} expects {arity} "
                            f"argument(s), got {len(args)}", e.pos)
    return DataVal(name, tuple(args))


def _binop(e: BinOp, scope, frame, ctx, calls) -> Value:
    op = e.op
    a = _eval(e.left, scope, frame, ctx, calls)
    if op == "&&" or op == "||":
        if type(a) is not BoolVal:
            raise EvalTypeError(f"{op} applied to {render_value(a)}", e.pos)
        if a.value == (op == "||"):
            return a
        b = _eval(e.right, scope, frame, ctx, calls)
        if type(b) is not BoolVal:
            raise EvalTypeError(f"{op} applied to {render_value(b)}", e.pos)
        return b
    b = _eval(e.right, scope, frame, ctx, calls)
    if op == "==":
        return TRUE if a == b else FALSE
    if op == "!=":
        return TRUE if a != b else FALSE
    if op in _ORDER:
        if type(a) is NumVal and type(b) is NumVal:
            x, y = a.value, b.value
        elif type(a) is StrVal and type(b) is StrVal:
            x, y = a.value, b.value
        elif is_time(a) and is_time(b):
            x, y = a.args[0].value, b.args[0].value
        else:
            raise EvalTypeError(f"{op} applied to {render_value(a)} and "
                                f"{render_value(b)}", e.pos)
        return TRUE if _ORDER[op](x, y) else FALSE
    if op == "+":
        if type(a) is NumVal and type(b) is NumVal:
            return NumVal(exact(a.value + b.value))
        if type(a) is StrVal and type(b) is StrVal:
            return StrVal(a.value + b.value)
        raise EvalTypeError(f"+ applied to {render_value(a)} and "
                            f"{render_value(b)}", e.pos)
    if op == "-" and is_time(a) and is_time(b):
        return mk_duration(a.args[0].value - b.args[0].value)
    if op == "-":
        return NumVal(exact(_number(a, op, e) - _number(b, op, e)))
    if op == "*":
        return NumVal(exact(_number(a, op, e) * _number(b, op, e)))
    if op == "/":
        # the denominator is checked first, the numerator after it
        denominator = _number(b, op, e)
        if denominator == 0:
            raise DivisionByZeroError("division by zero", e.pos)
        return NumVal(exact(Fraction(_number(a, op, e)) / denominator))
    raise EvalTypeError(f"unknown operator {op}", e.pos)


_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge}


def _number(v: Value, op: str, e: BinOp):
    if type(v) is not NumVal:
        raise EvalTypeError(f"{op} applied to {render_value(v)}", e.pos)
    return v.value


_RULES = {Lit: _lit, Var: _var, NowExpr: _now, Unary: _unary, BinOp: _binop,
          Apply: _apply, IfExpr: _if, CaseExpr: _case}

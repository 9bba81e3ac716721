"""Strict evaluation of side-effect-free expressions and guards.

Environments are plain dicts.  A `case` branch evaluates under a copy of
the outer scope with the pattern's bindings written over it, so a binder
shadows an outer variable of the same name.  Function bodies evaluate
under a fresh environment binding only the formals; they never see the
caller's variables.  Rationals stay exact throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import (
    CallDepthError, DivisionByZeroError, EvalTypeError, MatchFailureError,
    UnboundVariableError,
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


@dataclass
class Program:
    """Static tables extracted from a (merged, desugared) model."""

    functions: dict[str, FuncDecl]
    ctor_arity: dict[str, int]
    classes: dict[str, ClassDecl]

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


@dataclass
class EvalContext:
    program: Program
    clock: Fraction = Fraction(0)
    is_resolved: Callable[[int], bool] = lambda fid: False
    max_depth: int = 100_000
    depth: int = field(default=0)


def eval_expr(expr: Expr, env: Env, ctx: EvalContext) -> Value:
    try:
        return _eval(expr, env, ctx)
    except RecursionError:
        raise CallDepthError(
            "expression nesting exhausted the host stack") from None


def _eval(expr: Expr, env: Env, ctx: EvalContext) -> Value:
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        name = expr.name
        value = env.get(name)
        if value is not None:
            return value
        if ctx.program.ctor_arity.get(name) == 0:
            return DataVal(name)
        raise UnboundVariableError(f"unbound variable {name}", expr.pos)
    if isinstance(expr, NowExpr):
        return mk_time(ctx.clock)
    if isinstance(expr, Unary):
        operand = _eval(expr.operand, env, ctx)
        if expr.op == "!":
            if isinstance(operand, BoolVal):
                return FALSE if operand.value else TRUE
            raise EvalTypeError(f"! applied to {render_value(operand)}", expr.pos)
        if isinstance(operand, NumVal):
            return NumVal(-operand.value)
        raise EvalTypeError(f"- applied to {render_value(operand)}", expr.pos)
    if isinstance(expr, BinOp):
        return _eval_binop(expr, env, ctx)
    if isinstance(expr, Apply):
        return _eval_apply(expr, env, ctx)
    if isinstance(expr, IfExpr):
        cond = _eval(expr.cond, env, ctx)
        if not isinstance(cond, BoolVal):
            raise EvalTypeError(
                f"if condition is {render_value(cond)}, not a Bool", expr.pos)
        return _eval(expr.then if cond.value else expr.els, env, ctx)
    if isinstance(expr, CaseExpr):
        scrutinee = _eval(expr.scrutinee, env, ctx)
        for branch in expr.branches:
            bindings: Env = {}
            if match_pattern(branch.pattern, scrutinee, ctx.program, bindings):
                return _eval(branch.body, {**env, **bindings}, ctx)
        raise MatchFailureError(
            f"no branch matches {render_value(scrutinee)}", expr.pos)
    raise EvalTypeError(f"cannot evaluate {expr!r}", getattr(expr, "pos", None))


def _eval_apply(expr: Apply, env: Env, ctx: EvalContext) -> Value:
    args = [_eval(a, env, ctx) for a in expr.args]
    fd = ctx.program.functions.get(expr.name)
    if fd is not None:
        if len(args) != len(fd.params):
            raise EvalTypeError(
                f"{expr.name} expects {len(fd.params)} argument(s), "
                f"got {len(args)}", expr.pos)
        if ctx.depth >= ctx.max_depth:
            raise CallDepthError(
                f"call depth exceeded {ctx.max_depth} in {expr.name}", expr.pos)
        ctx.depth += 1
        try:
            scope = {name: val for (_, name), val in zip(fd.params, args)}
            return _eval(fd.body, scope, ctx)
        finally:
            ctx.depth -= 1
    arity = ctx.program.ctor_arity.get(expr.name)
    if arity is not None:
        if arity != len(args):
            raise EvalTypeError(
                f"constructor {expr.name} expects {arity} argument(s), "
                f"got {len(args)}", expr.pos)
        return DataVal(expr.name, tuple(args))
    raise UnboundVariableError(
        f"unknown function or constructor {expr.name}", expr.pos)


def _as_num(v: Value, op: str, pos) -> Fraction:
    if isinstance(v, NumVal):
        return v.value
    raise EvalTypeError(f"{op} applied to {render_value(v)}", pos)


def _eval_binop(expr: BinOp, env: Env, ctx: EvalContext) -> Value:
    op = expr.op
    if op in ("&&", "||"):
        left = _eval(expr.left, env, ctx)
        if not isinstance(left, BoolVal):
            raise EvalTypeError(f"{op} applied to {render_value(left)}", expr.pos)
        if op == "&&" and not left.value:
            return FALSE
        if op == "||" and left.value:
            return TRUE
        right = _eval(expr.right, env, ctx)
        if not isinstance(right, BoolVal):
            raise EvalTypeError(f"{op} applied to {render_value(right)}", expr.pos)
        return right
    left = _eval(expr.left, env, ctx)
    right = _eval(expr.right, env, ctx)
    if op == "==":
        return TRUE if left == right else FALSE
    if op == "!=":
        return TRUE if left != right else FALSE
    if op in ("<", "<=", ">", ">="):
        if isinstance(left, NumVal) and isinstance(right, NumVal):
            a, b = left.value, right.value
        elif isinstance(left, StrVal) and isinstance(right, StrVal):
            a, b = left.value, right.value
        elif is_time(left) and is_time(right):
            a, b = left.args[0].value, right.args[0].value
        else:
            raise EvalTypeError(
                f"{op} applied to {render_value(left)} and "
                f"{render_value(right)}", expr.pos)
        result = {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
        return TRUE if result else FALSE
    if op == "+":
        if isinstance(left, NumVal) and isinstance(right, NumVal):
            return NumVal(left.value + right.value)
        if isinstance(left, StrVal) and isinstance(right, StrVal):
            return StrVal(left.value + right.value)
        raise EvalTypeError(
            f"+ applied to {render_value(left)} and {render_value(right)}",
            expr.pos)
    if op == "-":
        if is_time(left) and is_time(right):
            # Time subtraction yields a Duration
            return mk_duration(left.args[0].value - right.args[0].value)
        return NumVal(_as_num(left, op, expr.pos) - _as_num(right, op, expr.pos))
    if op == "*":
        return NumVal(_as_num(left, op, expr.pos) * _as_num(right, op, expr.pos))
    if op == "/":
        denominator = _as_num(right, op, expr.pos)
        if denominator == 0:
            raise DivisionByZeroError("division by zero", expr.pos)
        return NumVal(_as_num(left, op, expr.pos) / denominator)
    raise EvalTypeError(f"unknown operator {op}", expr.pos)


def match_pattern(pat: Pattern, value: Value, program: Program,
                  bindings: Env) -> bool:
    """Whether value matches pat; binders are written into bindings,
    which may hold a partial match when the answer is False."""
    if isinstance(pat, PWildcard):
        return True
    if isinstance(pat, PLit):
        return pat.value == value
    if isinstance(pat, PName):
        if program.ctor_arity.get(pat.name) == 0:
            return value == DataVal(pat.name)
        bindings[pat.name] = value
        return True
    if isinstance(pat, PCtor):
        if not isinstance(value, DataVal) or value.ctor != pat.name:
            return False
        if len(pat.args) != len(value.args):
            return False
        for sub, arg in zip(pat.args, value.args):
            if not match_pattern(sub, arg, program, bindings):
                return False
        return True
    raise EvalTypeError(f"cannot match {pat!r}")


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
        if not isinstance(value, FutRef):
            raise EvalTypeError(
                f"{guard.var}? applied to {render_value(value)}, not a future",
                guard.pos)
        return ctx.is_resolved(value.fid)
    if isinstance(guard, GDuration):
        best = eval_expr(guard.best, env, ctx)
        return _as_num(best, "duration", guard.pos) <= 0
    raise EvalTypeError(f"cannot evaluate guard {guard!r}")

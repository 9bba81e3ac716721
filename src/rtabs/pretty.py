"""Source rendering of syntax trees.

parse(render(model)) equals model structurally, which the test suite
relies on.  That holds for await guards too: the flat tuple of
conjuncts renders joined by ` && ` and parses back to the same tuple.
A sampled duration renders with the time left in a bracketed style,
`duration[t, t]`, for error and deadlock reports and suspend events; it
has no source syntax.  Joins take lists, not
generators, which would recurse on the C stack.  A block appends its
pieces to one list, joined once, so no level copies the text of the
levels inside it.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .nodes import (
    BINARY_PRECEDENCE, Apply, BinOp, CaseExpr, Expr, GBool, GDuration, GFut,
    Guard, IfExpr, Lit, Model, NowExpr, PCtor, PLit, PName, Pattern,
    PWildcard, RCall, RExpr, RGet, RNew, RSyncCall, Rhs, SAssign, SAwait,
    SAwaitCall, SCallStmt, SDuration, SIf, SReturn, SSkip, SSuspend, SWhile,
    Stmt, TypeAst, Unary, Var,
)
from .values import format_rat, render_value


def render_expr(expr: Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Lit):
        return render_value(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, NowExpr):
        return "now"
    if isinstance(expr, Unary):
        return expr.op + render_expr(expr.operand, 6)
    if isinstance(expr, BinOp):
        prec = BINARY_PRECEDENCE[expr.op]
        text = (render_expr(expr.left, prec) + " " + expr.op + " "
                + render_expr(expr.right, prec + 1))
        if prec < parent_prec:
            return "(" + text + ")"
        return text
    if isinstance(expr, Apply):
        return expr.name + "(" + ", ".join([render_expr(a) for a in expr.args]) + ")"
    if isinstance(expr, IfExpr):
        text = (f"if {render_expr(expr.cond)} then {render_expr(expr.then)} "
                f"else {render_expr(expr.els)}")
        if parent_prec > 0:
            return "(" + text + ")"
        return text
    if isinstance(expr, CaseExpr):
        branches = " ".join([
            f"{render_pattern(b.pattern)} => {render_expr(b.body)};"
            for b in expr.branches])
        return f"case {render_expr(expr.scrutinee)} {{ {branches} }}"
    raise TypeError(f"cannot render {expr!r}")


def render_pattern(pat: Pattern) -> str:
    if isinstance(pat, PWildcard):
        return "_"
    if isinstance(pat, PLit):
        return render_value(pat.value)
    if isinstance(pat, PName):
        return pat.name
    if isinstance(pat, PCtor):
        return pat.name + "(" + ", ".join([render_pattern(a) for a in pat.args]) + ")"
    raise TypeError(f"cannot render {pat!r}")


def render_guard(guards: tuple[Guard, ...],
                 ends: tuple[Fraction, ...] | None = None,
                 clock: Fraction = Fraction(0)) -> str:
    """The conjuncts joined by ` && `; given the absolute `ends` of the
    duration conjuncts in order, those render with the time left at
    clock."""
    # a boolean conjunct that binds looser than && is parenthesised when
    # it has neighbours, so the text parses back to the same conjuncts
    prec = BINARY_PRECEDENCE["&&"] + 1 if len(guards) > 1 else 0
    ends = iter(ends or ())
    return " && ".join([_render_conjunct(g, prec, ends, clock)
                        for g in guards])


def _render_conjunct(guard: Guard, prec: int, ends: Iterator[Fraction],
                     clock: Fraction) -> str:
    if isinstance(guard, GBool):
        return render_expr(guard.expr, prec)
    if isinstance(guard, GFut):
        return guard.var + "?"
    if isinstance(guard, GDuration):
        end = next(ends, None)
        if end is not None:  # sampled: the time left
            left = format_rat(end - clock)
            return f"duration[{left}, {left}]"
        return f"duration({render_expr(guard.best)}, {render_expr(guard.worst)})"
    raise TypeError(f"cannot render {guard!r}")


def _render_annots(**annots: Expr | None) -> str:
    """`[Name: expr, ...] ` for the annotations that are set, else ""."""
    parts = [f"{name}: {render_expr(expr)}"
             for name, expr in annots.items() if expr is not None]
    return "[" + ", ".join(parts) + "] " if parts else ""


def _rhs_annots(rhs: Rhs | None) -> str:
    if isinstance(rhs, RNew):
        return _render_annots(Scheduler=rhs.scheduler)
    if isinstance(rhs, (RCall, RSyncCall)):
        return _render_annots(Deadline=rhs.annots.deadline,
                              Critical=rhs.annots.critical)
    return ""


def _render_rhs(rhs: Rhs) -> str:
    if isinstance(rhs, RExpr):
        return render_expr(rhs.expr)
    if isinstance(rhs, RNew):
        args = ", ".join([render_expr(a) for a in rhs.args])
        return f"new {rhs.cls}({args})"
    if isinstance(rhs, (RCall, RSyncCall)):
        sep = "!" if isinstance(rhs, RCall) else "."
        args = ", ".join([render_expr(a) for a in rhs.args])
        return f"{render_expr(rhs.callee)}{sep}{rhs.method}({args})"
    if isinstance(rhs, RGet):
        return render_expr(rhs.expr) + ".get"
    raise TypeError(f"cannot render {rhs!r}")


def render_stmt(stmt: Stmt, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(stmt, (SIf, SWhile)):
        out = [pad]
        _put_stmt(stmt, indent, out)
        return "".join(out)
    if isinstance(stmt, SSkip):
        return pad + "skip;"
    if isinstance(stmt, SAssign):
        head = _rhs_annots(stmt.rhs)
        decl = f"{stmt.decl_type} " if stmt.decl_type else ""
        if stmt.rhs is None:
            return f"{pad}{head}{decl}{stmt.name};"
        return f"{pad}{head}{decl}{stmt.name} = {_render_rhs(stmt.rhs)};"
    if isinstance(stmt, SReturn):
        return f"{pad}return {render_expr(stmt.expr)};"
    if isinstance(stmt, SSuspend):
        return pad + "suspend;"
    if isinstance(stmt, SAwait):
        return f"{pad}await {render_guard(stmt.guards)};"
    if isinstance(stmt, SAwaitCall):
        decl = f"{stmt.decl_type} " if stmt.decl_type else ""
        return (f"{pad}{_rhs_annots(stmt.call)}await {decl}{stmt.name} = "
                f"{_render_rhs(stmt.call)};")
    if isinstance(stmt, SCallStmt):
        return f"{pad}{_rhs_annots(stmt.call)}{_render_rhs(stmt.call)};"
    if isinstance(stmt, SDuration):
        return f"{pad}duration({render_expr(stmt.best)}, {render_expr(stmt.worst)});"
    raise TypeError(f"cannot render {stmt!r}")


def render_block(stmts: tuple[Stmt, ...], indent: int = 0) -> str:
    out: list[str] = []
    _put_block(stmts, indent, out)
    return "".join(out)


def _put_block(stmts: tuple[Stmt, ...], indent: int, out: list[str]) -> None:
    out.append("{" if stmts else "{ }")
    for s in stmts:
        out.append("\n" + "  " * (indent + 1))
        _put_stmt(s, indent + 1, out)
    if stmts:
        out.append("\n" + "  " * indent + "}")


def _put_stmt(stmt: Stmt, indent: int, out: list[str]) -> None:
    """A statement's text after its indent."""
    if isinstance(stmt, SIf):
        out.append(f"if {render_expr(stmt.cond)} ")
        _put_block(stmt.then, indent, out)
        if stmt.els:
            out.append(" else ")
            _put_block(stmt.els, indent, out)
    elif isinstance(stmt, SWhile):
        out.append(f"while {render_expr(stmt.cond)} ")
        _put_block(stmt.body, indent, out)
    else:
        out.append(render_stmt(stmt))


def _render_params(params: tuple[tuple[TypeAst, str], ...]) -> str:
    return ", ".join([f"{t} {n}" for t, n in params])


def render_model(model: Model) -> str:
    parts: list[str] = []
    for dd in model.datatypes:
        head = f"data {dd.name}"
        if dd.typarams:
            head += "<" + ", ".join(dd.typarams) + ">"
        if dd.ctors:
            ctors = []
            for ctor in dd.ctors:
                if ctor.arg_types:
                    ctors.append(ctor.name + "("
                                 + ", ".join([str(t) for t in ctor.arg_types])
                                 + ")")
                else:
                    ctors.append(ctor.name)
            head += " = " + " | ".join(ctors)
        parts.append(head + ";")
    for fd in model.functions:
        head = f"def {fd.ret} {fd.name}"
        if fd.typarams:
            head += "<" + ", ".join(fd.typarams) + ">"
        parts.append(f"{head}({_render_params(fd.params)}) = {render_expr(fd.body)};")
    for idecl in model.interfaces:
        sigs = "\n".join([
            f"  {s.ret} {s.name}({_render_params(s.params)});"
            for s in idecl.sigs])
        body = f"\n{sigs}\n" if sigs else " "
        parts.append(f"interface {idecl.name} {{{body}}}")
    for cd in model.classes:
        lines: list[str] = []
        head = _render_annots(Scheduler=cd.scheduler) + f"class {cd.name}"
        if cd.params:
            head += f"({_render_params(cd.params)})"
        if cd.interfaces:
            head += " implements " + ", ".join(cd.interfaces)
        lines.append(head + " {")
        for fld in cd.fields:
            init = f" = {render_expr(fld.init)}" if fld.init is not None else ""
            lines.append(f"  {fld.type} {fld.name}{init};")
        for mth in cd.methods:
            lines.append(f"  {_render_annots(Cost=mth.cost)}"
                         f"{mth.ret} {mth.name}"
                         f"({_render_params(mth.params)}) "
                         + render_block(mth.body, 1))
        lines.append("}")
        parts.append("\n".join(lines))
    if model.main is not None:
        parts.append(render_block(model.main, 0))
    return "\n\n".join(parts) + "\n"

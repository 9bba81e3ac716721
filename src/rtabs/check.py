"""Static well-formedness checks.

This is not a type checker.  It resolves names (types, functions,
constructors, variables), enforces reserved-variable rules, validates
annotation placement, and checks interface completeness by name and
arity.  Everything else is left to runtime.
"""

from __future__ import annotations

from .nodes import (
    Apply, BinOp, CaseExpr, ClassDecl, Expr, GBool, GDuration, GFut,
    Guard, IfExpr, Lit, Model, NowExpr, PCtor, PLit, PName, Pattern, Pos,
    PWildcard, RCall, RExpr, RGet, RNew, RSyncCall, SAssign, SAwait,
    SAwaitCall, SCallStmt, SDuration, SIf, SReturn, SSkip, SSuspend, SWhile,
    Stmt, TypeAst, Unary, Var,
)

# process-local variables maintained by the runtime; `value` is the one
# the process itself may assign
RESERVED = {
    "method", "arrival", "cost", "deadline", "start", "finish",
    "critical", "value", "destiny", "queue",
}
ASSIGNABLE_RESERVED = {"value"}

BUILTIN_TYPES = {"Bool": 0, "Int": 0, "Rat": 0, "String": 0, "Fut": 1}


class Diagnostic:
    __slots__ = ("message", "pos")

    def __init__(self, message: str, pos: Pos | None):
        self.message = message
        self.pos = pos

    def __repr__(self) -> str:
        return f"Diagnostic({self.render()!r})"

    def render(self) -> str:
        where = f"{self.pos}: " if self.pos else ""
        return f"{where}error: {self.message}"


class _Tables:
    def __init__(self, datatypes: dict[str, int], ctors: dict[str, int],
                 functions: dict[str, int], interfaces: dict[str, object],
                 classes: dict[str, ClassDecl]):
        self.datatypes = datatypes  # name -> number of type parameters
        self.ctors = ctors  # name -> arity
        self.functions = functions  # name -> arity
        self.interfaces = interfaces
        self.classes = classes


class _Ctx:
    """What is in scope while checking one expression.  `this` is a Var
    gated by allow_this, never a scope entry."""

    __slots__ = ("scope", "allow_this", "allow_now", "allow_process_vars")

    def __init__(self, scope: set[str], allow_this: bool = False,
                 allow_now: bool = False, allow_process_vars: bool = False):
        self.scope = scope
        self.allow_this = allow_this
        self.allow_now = allow_now
        # deadline/destiny and reserved locals
        self.allow_process_vars = allow_process_vars


def check_model(model: Model) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    tables = _collect(model, diags)
    checker = _Checker(tables, diags)
    checker.check(model)
    return diags


def _collect(model: Model, diags: list[Diagnostic]) -> _Tables:
    datatypes: dict[str, int] = {}
    ctors: dict[str, int] = {}
    functions: dict[str, int] = {}
    interfaces: dict[str, object] = {}
    classes: dict[str, ClassDecl] = {}
    for dd in model.datatypes:
        if dd.name in datatypes or dd.name in BUILTIN_TYPES:
            diags.append(Diagnostic(f"duplicate datatype {dd.name}", dd.pos))
        datatypes[dd.name] = len(dd.typarams)
        for ctor in dd.ctors:
            if ctor.name in ctors:
                diags.append(Diagnostic(
                    f"constructor {ctor.name} declared more than once", ctor.pos))
            ctors[ctor.name] = len(ctor.arg_types)
    for fd in model.functions:
        # redefinition is deliberate shadowing (last wins), e.g. weight/comp
        functions[fd.name] = len(fd.params)
    for idecl in model.interfaces:
        if idecl.name in interfaces:
            diags.append(Diagnostic(f"duplicate interface {idecl.name}", idecl.pos))
        interfaces[idecl.name] = idecl
    for cd in model.classes:
        if cd.name in classes:
            diags.append(Diagnostic(f"duplicate class {cd.name}", cd.pos))
        classes[cd.name] = cd
    return _Tables(datatypes, ctors, functions, interfaces, classes)


class _Checker:
    def __init__(self, tables: _Tables, diags: list[Diagnostic]):
        self.t = tables
        self.diags = diags

    def err(self, message: str, pos: Pos | None) -> None:
        self.diags.append(Diagnostic(message, pos))

    # ----------------------------------------------------------- types

    def check_type(self, ty: TypeAst, tyvars: set[str]) -> None:
        arity: int | None = None
        if ty.name in tyvars:
            arity = 0
        elif ty.name in BUILTIN_TYPES:
            arity = BUILTIN_TYPES[ty.name]
        elif ty.name in self.t.datatypes:
            arity = self.t.datatypes[ty.name]
        elif ty.name in self.t.interfaces:
            arity = 0
        elif ty.name in self.t.classes:
            self.err(f"{ty.name} is a class, not a type; use an interface", ty.pos)
        else:
            self.err(f"unknown type {ty.name}", ty.pos)
        if arity is not None and arity != len(ty.args):
            self.err(f"type {ty.name} expects {arity} argument(s), got {len(ty.args)}",
                     ty.pos)
        for arg in ty.args:
            self.check_type(arg, tyvars)

    # ------------------------------------------------------------ model

    def check(self, model: Model) -> None:
        for dd in model.datatypes:
            tyvars = set(dd.typarams)
            for ctor in dd.ctors:
                for ty in ctor.arg_types:
                    self.check_type(ty, tyvars)
        for fd in model.functions:
            self.check_func(fd)
        for idecl in model.interfaces:
            for sig in idecl.sigs:
                self.check_type(sig.ret, set())
                self.check_params(sig.params, set())
        for cd in model.classes:
            self.check_class(cd)
        if model.main is not None:
            ctx = _Ctx(scope=set(), allow_this=True, allow_now=True,
                       allow_process_vars=True)
            self.check_stmts(model.main, ctx)

    def check_params(self, params: tuple[tuple[TypeAst, str], ...],
                     tyvars: set[str]) -> set[str]:
        seen: set[str] = set()
        for ty, name in params:
            self.check_type(ty, tyvars)
            if name in seen:
                self.err(f"duplicate parameter {name}", ty.pos)
            if name in RESERVED:
                self.err(f"{name} is a reserved name", ty.pos)
            seen.add(name)
        return seen

    def check_func(self, fd) -> None:
        tyvars = set(fd.typarams)
        self.check_type(fd.ret, tyvars)
        scope = self.check_params(fd.params, tyvars)
        ctx = _Ctx(scope=scope)
        self.check_expr(fd.body, ctx)

    def check_class(self, cd: ClassDecl) -> None:
        param_names = self.check_params(cd.params, set())
        field_names: set[str] = set()
        for fld in cd.fields:
            self.check_type(fld.type, set())
            if fld.name in param_names or fld.name in field_names:
                self.err(f"duplicate attribute {fld.name}", fld.pos)
            if fld.name in RESERVED:
                self.err(f"{fld.name} is a reserved name", fld.pos)
            field_names.add(fld.name)
        attrs = param_names | field_names
        for fld in cd.fields:
            if fld.init is not None:
                ctx = _Ctx(scope=set(attrs), allow_this=True)
                self.check_expr(fld.init, ctx)
        for name, expr in cd.annots:
            if name != "Scheduler":
                self.err(f"annotation {name} is not allowed on a class", cd.pos)
            else:
                ctx = _Ctx(scope=attrs | {"queue"}, allow_this=True, allow_now=True)
                self.check_expr(expr, ctx)
        method_names: set[str] = set()
        for mth in cd.methods:
            if mth.name in method_names:
                self.err(f"duplicate method {mth.name} in class {cd.name}", mth.pos)
            method_names.add(mth.name)
            self.check_method(mth, attrs)
        for iname in cd.interfaces:
            idecl = self.t.interfaces.get(iname)
            if idecl is None:
                self.err(f"unknown interface {iname}", cd.pos)
                continue
            for sig in idecl.sigs:
                impl = next((m for m in cd.methods if m.name == sig.name), None)
                if impl is None:
                    self.err(f"class {cd.name} does not define {sig.name} "
                             f"required by {iname}", cd.pos)
                elif len(impl.params) != len(sig.params):
                    self.err(f"method {sig.name} in {cd.name} has "
                             f"{len(impl.params)} parameter(s), {iname} declares "
                             f"{len(sig.params)}", impl.pos)

    def check_method(self, mth, attrs: set[str]) -> None:
        self.check_type(mth.ret, set())
        formals = self.check_params(mth.params, set())
        for name, expr in mth.annots:
            if name != "Cost":
                self.err(f"annotation {name} is not allowed on a method", mth.pos)
            else:
                # cost is evaluated at bind time under the formals alone
                self.check_expr(expr, _Ctx(scope=set(formals)))
        ctx = _Ctx(scope=attrs | formals, allow_this=True, allow_now=True,
                   allow_process_vars=True)
        self.check_stmts(mth.body, ctx)

    # ------------------------------------------------------- statements

    def check_stmts(self, stmts: tuple[Stmt, ...], ctx: _Ctx) -> None:
        for stmt in stmts:
            self.check_stmt(stmt, ctx)

    def check_stmt(self, stmt: Stmt, ctx: _Ctx) -> None:
        if isinstance(stmt, SSkip):
            return
        if isinstance(stmt, SAssign):
            if stmt.rhs is not None:
                self.check_rhs(stmt.rhs, ctx)
            self.check_target(stmt.decl_type, stmt.name, stmt.pos, ctx)
            return
        if isinstance(stmt, SIf):
            self.check_expr(stmt.cond, ctx)
            self.check_stmts(stmt.then, ctx)
            self.check_stmts(stmt.els, ctx)
            return
        if isinstance(stmt, SWhile):
            self.check_expr(stmt.cond, ctx)
            self.check_stmts(stmt.body, ctx)
            return
        if isinstance(stmt, SReturn):
            self.check_expr(stmt.expr, ctx)
            return
        if isinstance(stmt, SSuspend):
            return
        if isinstance(stmt, SAwait):
            for guard in stmt.guards:
                self.check_guard(guard, ctx)
            return
        if isinstance(stmt, SAwaitCall):
            self.check_expr(stmt.callee, ctx)
            for arg in stmt.args:
                self.check_expr(arg, ctx)
            self.check_call_annots(stmt.annots, ctx)
            self.check_target(stmt.decl_type, stmt.name, stmt.pos, ctx)
            return
        if isinstance(stmt, SCallStmt):
            self.check_expr(stmt.callee, ctx)
            for arg in stmt.args:
                self.check_expr(arg, ctx)
            self.check_call_annots(stmt.annots, ctx)
            return
        if isinstance(stmt, SDuration):
            self.check_expr(stmt.best, ctx)
            self.check_expr(stmt.worst, ctx)
            return
        raise TypeError(f"cannot check {stmt!r}")

    def check_target(self, decl_type: TypeAst | None, name: str,
                     pos: Pos | None, ctx: _Ctx) -> None:
        """The variable an assignment or an await-call writes: a fresh
        local when declared, else a variable in scope or `value`."""
        if decl_type is not None:
            self.check_type(decl_type, set())
            if name in RESERVED:
                self.err(f"{name} is a reserved name", pos)
            ctx.scope.add(name)
        elif name in RESERVED and name not in ASSIGNABLE_RESERVED:
            self.err(f"cannot assign to reserved variable {name}", pos)
        elif name in ASSIGNABLE_RESERVED:
            if not ctx.allow_process_vars:
                self.err(f"{name} is only assignable in method bodies", pos)
        elif name not in ctx.scope:
            self.err(f"unknown variable {name}", pos)

    def check_rhs(self, rhs, ctx: _Ctx) -> None:
        if isinstance(rhs, RExpr):
            self.check_expr(rhs.expr, ctx)
        elif isinstance(rhs, RNew):
            cd = self.t.classes.get(rhs.cls)
            if cd is None:
                self.err(f"unknown class {rhs.cls}", rhs.pos)
            elif len(rhs.args) != len(cd.params):
                self.err(f"class {rhs.cls} expects {len(cd.params)} argument(s), "
                         f"got {len(rhs.args)}", rhs.pos)
            for arg in rhs.args:
                self.check_expr(arg, ctx)
            if rhs.scheduler is not None and cd is not None:
                attrs = {n for _, n in cd.params} | {f.name for f in cd.fields}
                sched_ctx = _Ctx(scope=attrs | {"queue"}, allow_this=True,
                                 allow_now=True)
                self.check_expr(rhs.scheduler, sched_ctx)
        elif isinstance(rhs, (RCall, RSyncCall)):
            self.check_expr(rhs.callee, ctx)
            for arg in rhs.args:
                self.check_expr(arg, ctx)
            self.check_call_annots(rhs.annots, ctx)
        elif isinstance(rhs, RGet):
            self.check_expr(rhs.expr, ctx)
        else:
            raise TypeError(f"cannot check {rhs!r}")

    def check_call_annots(self, annots, ctx: _Ctx) -> None:
        if annots.deadline is not None:
            self.check_expr(annots.deadline, ctx)
        if annots.critical is not None:
            self.check_expr(annots.critical, ctx)

    # ------------------------------------------------------ expressions

    def check_guard(self, guard: Guard, ctx: _Ctx) -> None:
        if isinstance(guard, GBool):
            self.check_expr(guard.expr, ctx)
        elif isinstance(guard, GFut):
            if guard.var not in ctx.scope:
                self.err(f"unknown variable {guard.var} in guard", guard.pos)
        elif isinstance(guard, GDuration):
            self.check_expr(guard.best, ctx)
            self.check_expr(guard.worst, ctx)
        else:
            raise TypeError(f"cannot check {guard!r}")

    def check_expr(self, expr: Expr, ctx: _Ctx) -> None:
        if isinstance(expr, Lit):
            return
        if isinstance(expr, Var):
            name = expr.name
            if name in ctx.scope:
                return
            if name == "this":
                if not ctx.allow_this:
                    self.err("this is not available here", expr.pos)
                return
            if name in RESERVED and name != "queue":
                if not ctx.allow_process_vars:
                    self.err(f"{name} is only available in method bodies", expr.pos)
                return
            if name == "queue":
                self.err("queue is only available in scheduler annotations",
                         expr.pos)
                return
            arity = self.t.ctors.get(name)
            if arity == 0:
                return
            if arity is not None:
                self.err(f"constructor {name} expects {arity} argument(s)", expr.pos)
                return
            self.err(f"unknown variable {name}", expr.pos)
            return
        if isinstance(expr, NowExpr):
            if not ctx.allow_now:
                self.err("now is not available here", expr.pos)
            return
        if isinstance(expr, Unary):
            self.check_expr(expr.operand, ctx)
            return
        if isinstance(expr, BinOp):
            self.check_expr(expr.left, ctx)
            self.check_expr(expr.right, ctx)
            return
        if isinstance(expr, Apply):
            arity = self.t.functions.get(expr.name)
            if arity is None:
                arity = self.t.ctors.get(expr.name)
            if arity is None:
                self.err(f"unknown function or constructor {expr.name}", expr.pos)
            elif arity != len(expr.args):
                self.err(f"{expr.name} expects {arity} argument(s), "
                         f"got {len(expr.args)}", expr.pos)
            for arg in expr.args:
                self.check_expr(arg, ctx)
            return
        if isinstance(expr, IfExpr):
            self.check_expr(expr.cond, ctx)
            self.check_expr(expr.then, ctx)
            self.check_expr(expr.els, ctx)
            return
        if isinstance(expr, CaseExpr):
            self.check_expr(expr.scrutinee, ctx)
            for branch in expr.branches:
                binders = self.check_pattern(branch.pattern)
                inner = _Ctx(scope=ctx.scope | binders, allow_this=ctx.allow_this,
                             allow_now=ctx.allow_now,
                             allow_process_vars=ctx.allow_process_vars)
                self.check_expr(branch.body, inner)
            return
        raise TypeError(f"cannot check {expr!r}")

    def check_pattern(self, pat: Pattern, binders: set[str] | None = None) -> set[str]:
        if binders is None:
            binders = set()
        if isinstance(pat, (PWildcard, PLit)):
            return binders
        if isinstance(pat, PName):
            arity = self.t.ctors.get(pat.name)
            if arity is None:
                if pat.name in RESERVED:
                    self.err(f"{pat.name} is a reserved name", pat.pos)
                elif pat.name in binders:
                    self.err(f"duplicate binder {pat.name} in pattern", pat.pos)
                else:
                    binders.add(pat.name)
            elif arity != 0:
                self.err(f"constructor {pat.name} expects {arity} argument(s)",
                         pat.pos)
            return binders
        if isinstance(pat, PCtor):
            arity = self.t.ctors.get(pat.name)
            if arity is None:
                self.err(f"unknown constructor {pat.name}", pat.pos)
            elif arity != len(pat.args):
                self.err(f"constructor {pat.name} expects {arity} argument(s), "
                         f"got {len(pat.args)}", pat.pos)
            for sub in pat.args:
                self.check_pattern(sub, binders)
            return binders
        raise TypeError(f"cannot check {pat!r}")

"""Source-to-core lowering.

After this pass:
- synchronous calls, await-calls and fire-and-forget calls are
  expressed with async call + await + get on `$n` temporaries (the
  lexer rejects `$` in identifiers, so these never collide);
- every async call carries explicit Deadline/Critical expressions
  (defaults InfDuration / False);
- every method has a cost expression (default Duration(0));
- every new-object statement carries a scheduler expression, resolved
  from its own annotation, the class annotation, or default(queue);
- every method body and the main block end in an explicit return
  (Unit), so futures always resolve;
- each class gets a synthesized init process body: field initializers,
  the user's init code if any, then an async self-call to run if
  defined.  The user's `init` leaves the method table; it only ever
  runs as the creation process.

The pass is idempotent: desugar(desugar(m)) == desugar(m).
"""

from __future__ import annotations

from .nodes import (
    Apply, CallAnnots, ClassDecl, Expr, GFut, Lit, MethodDecl, Model,
    RCall, RExpr, RGet, RNew, RSyncCall, SAssign, SAwait, SAwaitCall,
    SCallStmt, SIf, SReturn, SWhile, Stmt, TypeAst, Var,
)
from .values import FALSE, INF_DURATION, UNIT, mk_duration


def default_policy() -> Expr:
    return Apply("default", (Var("queue"),))


def _fut_type() -> TypeAst:
    return TypeAst("Fut", (TypeAst("Unit"),))


class _Lowering:
    """State of one pass: the scheduler annotation of each class by name,
    and the counter for fresh temporaries."""

    def __init__(self, schedulers: dict[str, Expr | None]):
        self.schedulers = schedulers
        self.counter = 0

    def fresh(self) -> str:
        name = f"$t{self.counter}"
        self.counter += 1
        return name


def desugar(model: Model) -> Model:
    """Lower a model into a new one; the input model is left unchanged."""
    lw = _Lowering({cd.name: _class_scheduler(cd) for cd in model.classes})
    classes = tuple(_desugar_class(cd, lw) for cd in model.classes)
    main = None
    if model.main is not None:
        main = _terminate(_desugar_stmts(model.main, lw))
    return Model(model.datatypes, model.functions, model.interfaces,
                 classes, main, pos=model.pos)


def _class_scheduler(cd: ClassDecl) -> Expr | None:
    if cd.scheduler is not None:
        return cd.scheduler
    return dict(cd.annots).get("Scheduler")


def _desugar_class(cd: ClassDecl, lw: _Lowering) -> ClassDecl:
    scheduler = _class_scheduler(cd)
    methods = tuple(_desugar_method(m, lw) for m in cd.methods
                    if m.name != "init")
    init_body = cd.init_body
    if init_body is None:
        user_init = next((m for m in cd.methods if m.name == "init"), None)
        init_body = _build_init_body(cd, user_init, methods, lw)
    return ClassDecl(cd.name, cd.params, cd.interfaces, cd.fields, methods,
                     scheduler=scheduler, annots=cd.annots,
                     init_body=init_body, pos=cd.pos)


def _desugar_method(mth: MethodDecl, lw: _Lowering) -> MethodDecl:
    cost = mth.cost
    if cost is None:
        cost = dict(mth.annots).get("Cost", Lit(mk_duration(0)))
    body = _terminate(_desugar_stmts(mth.body, lw))
    return MethodDecl(mth.ret, mth.name, mth.params, body, cost=cost,
                      annots=mth.annots, pos=mth.pos)


def _build_init_body(cd: ClassDecl, user_init: MethodDecl | None,
                     methods: tuple[MethodDecl, ...],
                     lw: _Lowering) -> tuple[Stmt, ...] | None:
    stmts: list[Stmt] = []
    for fld in cd.fields:
        if fld.init is not None:
            stmts.append(SAssign(None, fld.name, RExpr(fld.init)))
    if user_init is not None:
        init_stmts = _desugar_stmts(user_init.body, lw)
        # drop a trailing explicit return so the run self-call still fires
        if init_stmts and isinstance(init_stmts[-1], SReturn):
            init_stmts = init_stmts[:-1]
        stmts.extend(init_stmts)
    if any(m.name == "run" for m in methods):
        call = RCall(Var("this"), "run", (), annots=_full_annots(CallAnnots()))
        stmts.append(SAssign(_fut_type(), lw.fresh(), call))
    if not stmts:
        return None
    stmts.append(SReturn(Lit(UNIT)))
    return tuple(stmts)


def _terminate(stmts: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
    if stmts and isinstance(stmts[-1], SReturn):
        return stmts
    return stmts + (SReturn(Lit(UNIT)),)


def _full_annots(annots: CallAnnots) -> CallAnnots:
    deadline = annots.deadline if annots.deadline is not None else Lit(INF_DURATION)
    critical = annots.critical if annots.critical is not None else Lit(FALSE)
    return CallAnnots(deadline=deadline, critical=critical)


def _desugar_stmts(stmts: tuple[Stmt, ...], lw: _Lowering) -> tuple[Stmt, ...]:
    out: list[Stmt] = []
    for stmt in stmts:
        out.extend(_desugar_stmt(stmt, lw))
    return tuple(out)


def _desugar_stmt(stmt: Stmt, lw: _Lowering) -> list[Stmt]:
    if isinstance(stmt, SAssign):
        rhs = stmt.rhs
        if isinstance(rhs, RSyncCall):
            tmp = lw.fresh()
            call = RCall(rhs.callee, rhs.method, rhs.args,
                         annots=_full_annots(rhs.annots), pos=rhs.pos)
            return [SAssign(_fut_type(), tmp, call, pos=stmt.pos),
                    SAssign(stmt.decl_type, stmt.name, RGet(Var(tmp)), pos=stmt.pos)]
        if isinstance(rhs, RCall):
            lowered = RCall(rhs.callee, rhs.method, rhs.args,
                            annots=_full_annots(rhs.annots), pos=rhs.pos)
            return [SAssign(stmt.decl_type, stmt.name, lowered, pos=stmt.pos)]
        if isinstance(rhs, RNew) and rhs.scheduler is None:
            scheduler = lw.schedulers.get(rhs.cls)
            if scheduler is None:
                scheduler = default_policy()
            new = RNew(rhs.cls, rhs.args, scheduler=scheduler, pos=rhs.pos)
            return [SAssign(stmt.decl_type, stmt.name, new, pos=stmt.pos)]
        return [stmt]
    if isinstance(stmt, SAwaitCall):
        tmp = lw.fresh()
        call = RCall(stmt.callee, stmt.method, stmt.args,
                     annots=_full_annots(stmt.annots), pos=stmt.pos)
        return [SAssign(_fut_type(), tmp, call, pos=stmt.pos),
                SAwait((GFut(tmp),), pos=stmt.pos),
                SAssign(stmt.decl_type, stmt.name, RGet(Var(tmp)), pos=stmt.pos)]
    if isinstance(stmt, SCallStmt):
        call = RCall(stmt.callee, stmt.method, stmt.args,
                     annots=_full_annots(stmt.annots), pos=stmt.pos)
        return [SAssign(_fut_type(), lw.fresh(), call, pos=stmt.pos)]
    if isinstance(stmt, SIf):
        return [SIf(stmt.cond, _desugar_stmts(stmt.then, lw),
                    _desugar_stmts(stmt.els, lw), pos=stmt.pos)]
    if isinstance(stmt, SWhile):
        return [SWhile(stmt.cond, _desugar_stmts(stmt.body, lw), pos=stmt.pos)]
    return [stmt]

"""Abstract syntax.

Source forms are produced by the parser; the runtime forms at the bottom
(SDuration2 and RDur) only ever appear in process bodies inside the
simulator, never in parsed models.  Statement and expression nodes carry
an optional source position for diagnostics; it is excluded from
equality so desugared trees compare structurally.

Trees are immutable values: every node is a frozen dataclass and every
sequence in it a tuple, so one parsed tree is shared by reference
between loads, desugared models and all the processes that run it.
Process bodies (`ProcessRecord.body` in the engine) are the only
mutable statement sequences; a rule that rewrites a statement replaces
it in the body with a new node.

An await guard `g1 && ... && gn` is the flat tuple of its conjuncts in
source order (`SAwait.guards`); however the source nests them, every
conjunct must hold, read left to right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .values import Value


@dataclass(frozen=True)
class Pos:
    line: int
    col: int
    file: str | None = None

    def __str__(self) -> str:
        prefix = f"{self.file}:" if self.file else ""
        return f"{prefix}{self.line}:{self.col}"


def _pos_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------- types


@dataclass(frozen=True)
class TypeAst:
    name: str
    args: tuple[TypeAst, ...] = ()
    pos: Pos | None = _pos_field()

    def __str__(self) -> str:
        if self.args:
            return self.name + "<" + ", ".join(str(a) for a in self.args) + ">"
        return self.name


# ----------------------------------------------------------- expressions


class Expr:
    pass


@dataclass(frozen=True)
class Lit(Expr):
    value: Value
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Var(Expr):
    """A variable, including `this` and the bare `deadline`/`destiny`."""

    name: str
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class NowExpr(Expr):
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "!" or "-"
    operand: Expr
    pos: Pos | None = _pos_field()


# binding strength of each binary operator; all associate to the left
BINARY_PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5,
}


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # a key of BINARY_PRECEDENCE
    left: Expr
    right: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Apply(Expr):
    """Function application or constructor term; resolved dynamically."""

    name: str
    args: tuple[Expr, ...]
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class IfExpr(Expr):
    cond: Expr
    then: Expr
    els: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class CaseBranch:
    pattern: Pattern
    body: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class CaseExpr(Expr):
    scrutinee: Expr
    branches: tuple[CaseBranch, ...]
    pos: Pos | None = _pos_field()


# -------------------------------------------------------------- patterns


class Pattern:
    pass


@dataclass(frozen=True)
class PWildcard(Pattern):
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class PLit(Pattern):
    value: Value
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class PName(Pattern):
    """Variable binder, or nullary constructor if the name is one."""

    name: str
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class PCtor(Pattern):
    name: str
    args: tuple[Pattern, ...]
    pos: Pos | None = _pos_field()


# ---------------------------------------------------------------- guards


class Guard:
    pass


@dataclass(frozen=True)
class GBool(Guard):
    expr: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class GFut(Guard):
    var: str
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class GDuration(Guard):
    best: Expr
    worst: Expr
    pos: Pos | None = _pos_field()


# ------------------------------------------------------------ statements


class Stmt:
    pass


@dataclass(frozen=True)
class CallAnnots:
    """Deadline/Critical pair attached to call statements (post-desugar)."""

    deadline: Expr | None = None
    critical: Expr | None = None


class Rhs:
    """Right-hand sides of assignment statements."""


@dataclass(frozen=True)
class RExpr(Rhs):
    expr: Expr


@dataclass(frozen=True)
class RNew(Rhs):
    cls: str
    args: tuple[Expr, ...]
    scheduler: Expr | None = None  # resolved by desugar
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class RCall(Rhs):
    """Asynchronous call o!m(args)."""

    callee: Expr
    method: str
    args: tuple[Expr, ...]
    annots: CallAnnots = CallAnnots()
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class RSyncCall(Rhs):
    """Synchronous call o.m(args); removed by desugar."""

    callee: Expr
    method: str
    args: tuple[Expr, ...]
    annots: CallAnnots = CallAnnots()
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class RGet(Rhs):
    expr: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class SSkip(Stmt):
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class SAssign(Stmt):
    """Assignment, optionally declaring a fresh local (decl_type set)."""

    decl_type: TypeAst | None
    name: str
    rhs: Rhs | None  # None: declaration without initializer
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class SIf(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    els: tuple[Stmt, ...]
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class SWhile(Stmt):
    cond: Expr
    body: tuple[Stmt, ...]
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class SReturn(Stmt):
    expr: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class SSuspend(Stmt):
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class SAwait(Stmt):
    """await g1 && ... && gn: each conjunct a GBool, GFut, GDuration or,
    once sampled, RDur."""

    guards: tuple[Guard, ...]
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class SAwaitCall(Stmt):
    """Sugar: await x = o.m(args); removed by desugar."""

    decl_type: TypeAst | None
    name: str
    callee: Expr
    method: str
    args: tuple[Expr, ...]
    annots: CallAnnots = CallAnnots()
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class SCallStmt(Stmt):
    """Fire-and-forget o!m(args); desugars to a fresh-variable assign."""

    callee: Expr
    method: str
    args: tuple[Expr, ...]
    annots: CallAnnots = CallAnnots()
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class SDuration(Stmt):
    best: Expr
    worst: Expr
    pos: Pos | None = _pos_field()


# ----------------------------------------------------------- declarations


@dataclass(frozen=True)
class CtorDecl:
    name: str
    arg_types: tuple[TypeAst, ...]
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class DataDecl:
    name: str
    typarams: tuple[str, ...]
    ctors: tuple[CtorDecl, ...]
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class FuncDecl:
    ret: TypeAst
    name: str
    typarams: tuple[str, ...]
    params: tuple[tuple[TypeAst, str], ...]
    body: Expr
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class MethodSig:
    ret: TypeAst
    name: str
    params: tuple[tuple[TypeAst, str], ...]
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class InterfaceDecl:
    name: str
    sigs: tuple[MethodSig, ...]
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class FieldDecl:
    type: TypeAst
    name: str
    init: Expr | None
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class MethodDecl:
    ret: TypeAst
    name: str
    params: tuple[tuple[TypeAst, str], ...]
    body: tuple[Stmt, ...]
    cost: Expr | None = None  # normalized by desugar
    annots: tuple[tuple[str, Expr], ...] = ()
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class ClassDecl:
    name: str
    params: tuple[tuple[TypeAst, str], ...]
    interfaces: tuple[str, ...]
    fields: tuple[FieldDecl, ...]
    methods: tuple[MethodDecl, ...]
    scheduler: Expr | None = None  # class [Scheduler: ...] annotation
    annots: tuple[tuple[str, Expr], ...] = ()
    init_body: tuple[Stmt, ...] | None = None  # synthesized by desugar
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Model:
    datatypes: tuple[DataDecl, ...]
    functions: tuple[FuncDecl, ...]
    interfaces: tuple[InterfaceDecl, ...]
    classes: tuple[ClassDecl, ...]
    main: tuple[Stmt, ...] | None
    pos: Pos | None = _pos_field()


# ---------------------------------------------------------- runtime forms
#
# Introduced by execution rules only.  A sampled duration statement is an
# SDuration2 and a sampled duration conjunct an RDur, both with plain
# Fraction bounds; the other conjuncts of a sampled await stay in source
# form.  In the engine the bounds are absolute: the clock times at which
# the wait may end (best) and must end (worst).  Deadlines are kept
# absolute in process records, so time advance rewrites no node.


@dataclass(frozen=True)
class RDur(Guard):
    best: Fraction
    worst: Fraction


@dataclass(frozen=True)
class SDuration2(Stmt):
    """duration statement after its wait has been sampled."""

    best: Fraction
    worst: Fraction

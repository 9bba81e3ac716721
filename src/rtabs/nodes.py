"""Abstract syntax.

Source forms are produced by the parser; the runtime forms at the bottom
(SDuration2 and RDur) only ever appear in process bodies inside the
simulator, never in parsed models.  Statement and expression nodes carry
an optional source position for diagnostics; it is excluded from
equality so desugared trees compare structurally.

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


@dataclass
class TypeAst:
    name: str
    args: list[TypeAst] = field(default_factory=list)
    pos: Pos | None = _pos_field()

    def __str__(self) -> str:
        if self.args:
            return self.name + "<" + ", ".join(str(a) for a in self.args) + ">"
        return self.name


# ----------------------------------------------------------- expressions


class Expr:
    pass


@dataclass
class Lit(Expr):
    value: Value
    pos: Pos | None = _pos_field()


@dataclass
class Var(Expr):
    """A variable, including `this` and the bare `deadline`/`destiny`."""

    name: str
    pos: Pos | None = _pos_field()


@dataclass
class NowExpr(Expr):
    pos: Pos | None = _pos_field()


@dataclass
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


@dataclass
class BinOp(Expr):
    op: str  # a key of BINARY_PRECEDENCE
    left: Expr
    right: Expr
    pos: Pos | None = _pos_field()


@dataclass
class Apply(Expr):
    """Function application or constructor term; resolved dynamically."""

    name: str
    args: list[Expr]
    pos: Pos | None = _pos_field()


@dataclass
class IfExpr(Expr):
    cond: Expr
    then: Expr
    els: Expr
    pos: Pos | None = _pos_field()


@dataclass
class CaseBranch:
    pattern: Pattern
    body: Expr
    pos: Pos | None = _pos_field()


@dataclass
class CaseExpr(Expr):
    scrutinee: Expr
    branches: list[CaseBranch]
    pos: Pos | None = _pos_field()


# -------------------------------------------------------------- patterns


class Pattern:
    pass


@dataclass
class PWildcard(Pattern):
    pos: Pos | None = _pos_field()


@dataclass
class PLit(Pattern):
    value: Value
    pos: Pos | None = _pos_field()


@dataclass
class PName(Pattern):
    """Variable binder, or nullary constructor if the name is one."""

    name: str
    pos: Pos | None = _pos_field()


@dataclass
class PCtor(Pattern):
    name: str
    args: list[Pattern]
    pos: Pos | None = _pos_field()


# ---------------------------------------------------------------- guards


class Guard:
    pass


@dataclass
class GBool(Guard):
    expr: Expr
    pos: Pos | None = _pos_field()


@dataclass
class GFut(Guard):
    var: str
    pos: Pos | None = _pos_field()


@dataclass
class GDuration(Guard):
    best: Expr
    worst: Expr
    pos: Pos | None = _pos_field()


# ------------------------------------------------------------ statements


class Stmt:
    pass


@dataclass
class CallAnnots:
    """Deadline/Critical pair attached to call statements (post-desugar)."""

    deadline: Expr | None = None
    critical: Expr | None = None


class Rhs:
    """Right-hand sides of assignment statements."""


@dataclass
class RExpr(Rhs):
    expr: Expr


@dataclass
class RNew(Rhs):
    cls: str
    args: list[Expr]
    scheduler: Expr | None = None  # resolved by desugar
    pos: Pos | None = _pos_field()


@dataclass
class RCall(Rhs):
    """Asynchronous call o!m(args)."""

    callee: Expr
    method: str
    args: list[Expr]
    annots: CallAnnots = field(default_factory=CallAnnots)
    pos: Pos | None = _pos_field()


@dataclass
class RSyncCall(Rhs):
    """Synchronous call o.m(args); removed by desugar."""

    callee: Expr
    method: str
    args: list[Expr]
    annots: CallAnnots = field(default_factory=CallAnnots)
    pos: Pos | None = _pos_field()


@dataclass
class RGet(Rhs):
    expr: Expr
    pos: Pos | None = _pos_field()


@dataclass
class SSkip(Stmt):
    pos: Pos | None = _pos_field()


@dataclass
class SAssign(Stmt):
    """Assignment, optionally declaring a fresh local (decl_type set)."""

    decl_type: TypeAst | None
    name: str
    rhs: Rhs | None  # None: declaration without initializer
    pos: Pos | None = _pos_field()


@dataclass
class SIf(Stmt):
    cond: Expr
    then: list[Stmt]
    els: list[Stmt]
    pos: Pos | None = _pos_field()


@dataclass
class SWhile(Stmt):
    cond: Expr
    body: list[Stmt]
    pos: Pos | None = _pos_field()


@dataclass
class SReturn(Stmt):
    expr: Expr
    pos: Pos | None = _pos_field()


@dataclass
class SSuspend(Stmt):
    pos: Pos | None = _pos_field()


@dataclass
class SAwait(Stmt):
    """await g1 && ... && gn: each conjunct a GBool, GFut, GDuration or,
    once sampled, RDur."""

    guards: tuple[Guard, ...]
    pos: Pos | None = _pos_field()


@dataclass
class SAwaitCall(Stmt):
    """Sugar: await x = o.m(args); removed by desugar."""

    decl_type: TypeAst | None
    name: str
    callee: Expr
    method: str
    args: list[Expr]
    annots: CallAnnots = field(default_factory=CallAnnots)
    pos: Pos | None = _pos_field()


@dataclass
class SCallStmt(Stmt):
    """Fire-and-forget o!m(args); desugars to a fresh-variable assign."""

    callee: Expr
    method: str
    args: list[Expr]
    annots: CallAnnots = field(default_factory=CallAnnots)
    pos: Pos | None = _pos_field()


@dataclass
class SDuration(Stmt):
    best: Expr
    worst: Expr
    pos: Pos | None = _pos_field()


# ----------------------------------------------------------- declarations


@dataclass
class CtorDecl:
    name: str
    arg_types: list[TypeAst]
    pos: Pos | None = _pos_field()


@dataclass
class DataDecl:
    name: str
    typarams: list[str]
    ctors: list[CtorDecl]
    pos: Pos | None = _pos_field()


@dataclass
class FuncDecl:
    ret: TypeAst
    name: str
    typarams: list[str]
    params: list[tuple[TypeAst, str]]
    body: Expr
    pos: Pos | None = _pos_field()


@dataclass
class MethodSig:
    ret: TypeAst
    name: str
    params: list[tuple[TypeAst, str]]
    pos: Pos | None = _pos_field()


@dataclass
class InterfaceDecl:
    name: str
    sigs: list[MethodSig]
    pos: Pos | None = _pos_field()


@dataclass
class FieldDecl:
    type: TypeAst
    name: str
    init: Expr | None
    pos: Pos | None = _pos_field()


@dataclass
class MethodDecl:
    ret: TypeAst
    name: str
    params: list[tuple[TypeAst, str]]
    body: list[Stmt]
    cost: Expr | None = None  # normalized by desugar
    annots: list[tuple[str, Expr]] = field(default_factory=list)
    pos: Pos | None = _pos_field()


@dataclass
class ClassDecl:
    name: str
    params: list[tuple[TypeAst, str]]
    interfaces: list[str]
    fields: list[FieldDecl]
    methods: list[MethodDecl]
    scheduler: Expr | None = None  # class [Scheduler: ...] annotation
    annots: list[tuple[str, Expr]] = field(default_factory=list)
    init_body: list[Stmt] | None = None  # synthesized by desugar
    pos: Pos | None = _pos_field()


@dataclass
class Model:
    datatypes: list[DataDecl]
    functions: list[FuncDecl]
    interfaces: list[InterfaceDecl]
    classes: list[ClassDecl]
    main: list[Stmt] | None
    pos: Pos | None = _pos_field()


# ---------------------------------------------------------- runtime forms
#
# Introduced by execution rules only.  A sampled duration statement is an
# SDuration2 and a sampled duration conjunct an RDur, both with plain
# Fraction bounds; the other conjuncts of a sampled await stay in source
# form.
# Deadlines live in process locals, not in the statement, so time
# advance rewrites only these nodes.


@dataclass
class RDur(Guard):
    best: Fraction
    worst: Fraction


@dataclass
class SDuration2(Stmt):
    """duration statement after its wait has been sampled."""

    best: Fraction
    worst: Fraction

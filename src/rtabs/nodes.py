"""Abstract syntax.

Every node is produced by the parser or by desugaring; running a model
builds none (a report may build the one statement it prints).
Statement and expression nodes carry an optional source position for
diagnostics; it is excluded from equality so desugared trees compare
structurally.

Trees are immutable values: every node is a `Node`, whose fields cannot
be assigned after construction, and every sequence in it a tuple, so one
parsed tree is shared by reference between loads, desugared models and
all the processes that run it.  A process runs as a continuation over
the tree (`ProcessRecord` in the engine), which keeps its own state, such
as the sampled ends of its head, beside the statements, never in them.

An await guard `g1 && ... && gn` is the flat tuple of its conjuncts in
source order (`SAwait.guards`); however the source nests them, every
conjunct must hold, read left to right.
"""

from __future__ import annotations

from .values import Value


class Node:
    """An immutable record of the fields its class annotates, in order
    after those of its base classes.

    A node is built from its fields, positionally or by keyword; a field
    whose class attribute is set defaults to it.  Equality, hashing and
    `repr` read every field except `pos`, as those of a frozen dataclass
    whose `pos` is neither compared nor shown do: nodes of different
    classes are never equal.  Both recurse through Python calls only, never
    C tuple comparison, so a tree as deep as the parser's nesting limit
    compares and hashes within the recursion limit on every interpreter;
    a node's hash is kept once computed.  Nothing here generates code, so
    defining a node class costs about as much as defining a plain one.
    """

    _fields: tuple[str, ...] = ()  # every field, in constructor order
    _keys: tuple[str, ...] = ()  # the fields compared, hashed and shown
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._keys = tuple(name for name in cls._fields if name != "pos")
        cls._defaults = {**cls._defaults, **{
            name: cls.__dict__[name] for name in own if name in cls.__dict__}}
        cls._names = frozenset(cls._fields)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        values = self.__dict__
        values.update(zip(cls._fields, args))
        values.update(kwargs)
        if (len(values) != len(args) + len(kwargs)
                or not kwargs.keys() <= cls._names):
            raise _argument_error(cls, args, kwargs)
        if len(values) < len(cls._fields):
            for name, default in cls._defaults.items():
                values.setdefault(name, default)
            if len(values) < len(cls._fields):
                raise _argument_error(cls, args, kwargs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if other is self:
            return True
        mine, theirs = self.__dict__, other.__dict__
        for name in self._keys:
            if not _same(mine[name], theirs[name]):
                return False
        return True

    def __hash__(self):
        values = self.__dict__
        cached = values.get("_hash")
        if cached is None:
            cached = values["_hash"] = hash(
                tuple([_hash(values[name]) for name in self._keys]))
        return cached

    def __repr__(self) -> str:
        return (type(self).__qualname__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._keys) + ")")

    def children(self):
        """The nodes among this node's fields, in field order, those of a
        tuple field in turn; other values, such as the `(TypeAst, name)`
        pairs of a declaration's parameters, are skipped."""
        values = self.__dict__
        for name in self._keys:
            value = values[name]
            if value.__class__ is tuple:
                for item in value:
                    if isinstance(item, Node):
                        yield item
            elif isinstance(value, Node):
                yield value

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _same(a, b) -> bool:
    """`a == b` for two field values, as tuple comparison gives it, but
    recursing through Python calls only: item by item through a tuple,
    and through a node's own `__eq__`."""
    if a.__class__ is tuple:
        if b.__class__ is not tuple or len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if not _same(x, y):
                return False
        return True
    if isinstance(a, Node):
        return a.__class__ is b.__class__ and a.__eq__(b)
    return a == b


def _hash(value) -> int:
    """The hash of a field value, through Python calls only."""
    if value.__class__ is tuple:
        return hash(tuple([_hash(item) for item in value]))
    if isinstance(value, Node):
        return value.__hash__()
    return hash(value)


def _argument_error(cls: type[Node], args: tuple, kwargs: dict) -> TypeError:
    name, fields = cls.__name__, cls._fields
    if len(args) > len(fields):
        return TypeError(f"{name}() takes {len(fields)} arguments "
                         f"but {len(args)} were given")
    for key in kwargs:
        if key not in fields:
            return TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in fields[:len(args)]:
            return TypeError(f"{name}() got multiple values for argument {key!r}")
    missing = [field for field in fields[len(args):]
               if field not in kwargs and field not in cls._defaults]
    return TypeError(f"{name}() missing required argument(s): "
                     + ", ".join(map(repr, missing)))


class Pos(Node):
    line: int
    col: int
    file: str | None = None

    def __str__(self) -> str:
        prefix = f"{self.file}:" if self.file else ""
        return f"{prefix}{self.line}:{self.col}"


# ---------------------------------------------------------------- types


class TypeAst(Node):
    name: str
    args: tuple[TypeAst, ...] = ()
    pos: Pos | None = None

    def __str__(self) -> str:
        if self.args:
            return self.name + "<" + ", ".join(str(a) for a in self.args) + ">"
        return self.name


# ----------------------------------------------------------- expressions


class Expr(Node):
    pass


class Lit(Expr):
    value: Value
    pos: Pos | None = None


class Var(Expr):
    """A variable, including `this` and the bare `deadline`/`destiny`."""

    name: str
    pos: Pos | None = None


class NowExpr(Expr):
    pos: Pos | None = None


class Unary(Expr):
    op: str  # "!" or "-"
    operand: Expr
    pos: Pos | None = None


# binding strength of each binary operator; all associate to the left
BINARY_PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5,
}


class BinOp(Expr):
    op: str  # a key of BINARY_PRECEDENCE
    left: Expr
    right: Expr
    pos: Pos | None = None


class Apply(Expr):
    """Function application or constructor term; resolved dynamically."""

    name: str
    args: tuple[Expr, ...]
    pos: Pos | None = None


class IfExpr(Expr):
    cond: Expr
    then: Expr
    els: Expr
    pos: Pos | None = None


class CaseBranch(Node):
    pattern: Pattern
    body: Expr
    pos: Pos | None = None


class CaseExpr(Expr):
    scrutinee: Expr
    branches: tuple[CaseBranch, ...]
    pos: Pos | None = None


# -------------------------------------------------------------- patterns


class Pattern(Node):
    pass


class PWildcard(Pattern):
    pos: Pos | None = None


class PLit(Pattern):
    value: Value
    pos: Pos | None = None


class PName(Pattern):
    """Variable binder, or nullary constructor if the name is one."""

    name: str
    pos: Pos | None = None


class PCtor(Pattern):
    name: str
    args: tuple[Pattern, ...]
    pos: Pos | None = None


# ---------------------------------------------------------------- guards


class Guard(Node):
    pass


class GBool(Guard):
    expr: Expr
    pos: Pos | None = None


class GFut(Guard):
    var: str
    pos: Pos | None = None


class GDuration(Guard):
    best: Expr
    worst: Expr
    pos: Pos | None = None


# ------------------------------------------------------------ statements


class Stmt(Node):
    pass


class CallAnnots(Node):
    """The Deadline/Critical annotations of a call; desugar fills in the
    ones left out."""

    deadline: Expr | None = None
    critical: Expr | None = None


class Rhs(Node):
    """Right-hand sides of assignment statements."""


class RExpr(Rhs):
    expr: Expr


class RNew(Rhs):
    cls: str
    args: tuple[Expr, ...]
    scheduler: Expr | None = None  # resolved by desugar
    pos: Pos | None = None


class RCall(Rhs):
    """Asynchronous call o!m(args)."""

    callee: Expr
    method: str
    args: tuple[Expr, ...]
    annots: CallAnnots = CallAnnots()
    pos: Pos | None = None


class RSyncCall(Rhs):
    """Synchronous call o.m(args); removed by desugar."""

    callee: Expr
    method: str
    args: tuple[Expr, ...]
    annots: CallAnnots = CallAnnots()
    pos: Pos | None = None


class RGet(Rhs):
    expr: Expr
    pos: Pos | None = None


class SSkip(Stmt):
    pos: Pos | None = None


class SAssign(Stmt):
    """Assignment, optionally declaring a fresh local (decl_type set)."""

    decl_type: TypeAst | None
    name: str
    rhs: Rhs | None  # None: declaration without initializer
    pos: Pos | None = None


class SIf(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    els: tuple[Stmt, ...]
    pos: Pos | None = None


class SWhile(Stmt):
    cond: Expr
    body: tuple[Stmt, ...]
    pos: Pos | None = None


class SReturn(Stmt):
    expr: Expr
    pos: Pos | None = None


class SSuspend(Stmt):
    pos: Pos | None = None


class SAwait(Stmt):
    """await g1 && ... && gn: each conjunct a GBool, GFut or GDuration."""

    guards: tuple[Guard, ...]
    pos: Pos | None = None


class SAwaitCall(Stmt):
    """Sugar: await x = o.m(args); removed by desugar."""

    decl_type: TypeAst | None
    name: str
    call: RSyncCall
    pos: Pos | None = None


class SCallStmt(Stmt):
    """Fire-and-forget o!m(args); desugars to a fresh-variable assign."""

    call: RCall
    pos: Pos | None = None


class SDuration(Stmt):
    best: Expr
    worst: Expr
    pos: Pos | None = None


# ----------------------------------------------------------- declarations


class CtorDecl(Node):
    name: str
    arg_types: tuple[TypeAst, ...]
    pos: Pos | None = None


class DataDecl(Node):
    name: str
    typarams: tuple[str, ...]
    ctors: tuple[CtorDecl, ...]
    pos: Pos | None = None


class FuncDecl(Node):
    ret: TypeAst
    name: str
    typarams: tuple[str, ...]
    params: tuple[tuple[TypeAst, str], ...]
    body: Expr
    pos: Pos | None = None


class MethodSig(Node):
    ret: TypeAst
    name: str
    params: tuple[tuple[TypeAst, str], ...]
    pos: Pos | None = None


class InterfaceDecl(Node):
    name: str
    sigs: tuple[MethodSig, ...]
    pos: Pos | None = None


class FieldDecl(Node):
    type: TypeAst
    name: str
    init: Expr | None
    pos: Pos | None = None


class MethodDecl(Node):
    ret: TypeAst
    name: str
    params: tuple[tuple[TypeAst, str], ...]
    body: tuple[Stmt, ...]
    cost: Expr | None = None  # [Cost: ...]; desugar supplies the default
    pos: Pos | None = None


class ClassDecl(Node):
    name: str
    params: tuple[tuple[TypeAst, str], ...]
    interfaces: tuple[str, ...]
    fields: tuple[FieldDecl, ...]
    methods: tuple[MethodDecl, ...]
    scheduler: Expr | None = None  # class [Scheduler: ...] annotation
    init_body: tuple[Stmt, ...] | None = None  # synthesized by desugar
    pos: Pos | None = None


class Model(Node):
    datatypes: tuple[DataDecl, ...]
    functions: tuple[FuncDecl, ...]
    interfaces: tuple[InterfaceDecl, ...]
    classes: tuple[ClassDecl, ...]
    main: tuple[Stmt, ...] | None
    pos: Pos | None = None

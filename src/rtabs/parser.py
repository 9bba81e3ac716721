"""Recursive-descent parser.

Statements that begin with a type and statements that begin with an
expression are disambiguated by backtracking.  Binary operators are
parsed by precedence climbing over `nodes.BINARY_PRECEDENCE`, the table
the printer parenthesises by.  `this`, and `deadline` or `destiny` not
followed by `(`, parse to `Var`.  Guards are parsed as
expressions with two extra atoms (`x?`, `duration(b,w)`) and converted
afterwards: `&&` above guard atoms splits the guard into its flat tuple
of conjuncts, and guard atoms anywhere else are rejected.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .errors import ParseError
from .lexer import Token, tokenize
from .nodes import (
    BINARY_PRECEDENCE, Apply, BinOp, CallAnnots, CaseBranch, CaseExpr,
    ClassDecl, CtorDecl, DataDecl, Expr, FieldDecl, FuncDecl, GBool,
    GDuration, GFut, Guard, IfExpr, InterfaceDecl, Lit, MethodDecl,
    MethodSig, Model, NowExpr, PCtor, PLit, PName, Pattern, Pos, PWildcard,
    RCall, RExpr, RGet, RNew, RSyncCall, Rhs, SAssign, SAwait, SAwaitCall,
    SCallStmt, SDuration, SIf, SReturn, SSkip, SSuspend, SWhile, Stmt,
    TypeAst, Unary, Var,
)
from .values import FALSE, NULL, TRUE, NumVal, StrVal

_T = TypeVar("_T")
NESTING_LIMIT = 10_000


class _FutAtom(Expr):
    """Parser-internal: x? before guard conversion."""

    name: str
    pos: Pos | None = None


class _DurAtom(Expr):
    """Parser-internal: duration(b,w) before guard conversion."""

    best: Expr
    worst: Expr
    pos: Pos | None = None


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.idx = 0
        self.depth = 0  # levels of nesting entered and not yet left

    # ------------------------------------------------------- plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.idx + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.idx]
        if tok.kind != "eof":
            self.idx += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(f"unexpected {tok.text!r}", tok.pos, {want})
        return self.next()

    def _separated(self, item: Callable[[], _T], sep: str = ",",
                   parens: bool = False) -> tuple[_T, ...]:
        """`item (sep item)*`; with `parens`, `( )` or `( item, ... )`."""
        if parens:
            self.expect("op", "(")
            if self.accept("op", ")"):
                return ()
        items = [item()]
        while self.accept("op", sep):
            items.append(item())
        if parens:
            self.expect("op", ")")
        return tuple(items)

    def _name(self) -> str:
        return self.expect("name").text

    def _enter(self) -> None:
        """Enter one level: each expression, unary operand and block nests
        in what holds it.  A level past NESTING_LIMIT is an error, which
        bounds every later walk of the tree; leaving decrements `depth`."""
        self.depth += 1
        if self.depth > NESTING_LIMIT:
            raise ParseError(f"nesting deeper than {NESTING_LIMIT} levels",
                             self.peek().pos)

    # ---------------------------------------------------------- model

    def parse_model(self) -> Model:
        pos = self.peek().pos
        datatypes: list[DataDecl] = []
        functions: list[FuncDecl] = []
        interfaces: list[InterfaceDecl] = []
        classes: list[ClassDecl] = []
        main: tuple[Stmt, ...] | None = None
        while not self.at("eof"):
            if self.at("kw", "data"):
                datatypes.append(self.parse_data())
            elif self.at("kw", "def"):
                functions.append(self.parse_func())
            elif self.at("kw", "interface"):
                interfaces.append(self.parse_interface())
            elif self.at("kw", "class") or self.at("op", "["):
                classes.append(self.parse_class())
            elif self.at("op", "{"):
                if main is not None:
                    raise ParseError("duplicate main block", self.peek().pos)
                main = self.parse_block()
            else:
                raise ParseError(
                    f"unexpected {self.peek().text!r} at top level", self.peek().pos,
                    {"data", "def", "interface", "class", "{"})
        return Model(tuple(datatypes), tuple(functions), tuple(interfaces),
                     tuple(classes), main, pos=pos)

    # ---------------------------------------------------- declarations

    def parse_typarams(self) -> tuple[str, ...]:
        if not self.accept("op", "<"):
            return ()
        params = self._separated(self._name)
        self.expect("op", ">")
        return params

    def parse_data(self) -> DataDecl:
        pos = self.expect("kw", "data").pos
        name = self.expect("name").text
        typarams = self.parse_typarams()
        ctors: tuple[CtorDecl, ...] = ()
        if self.accept("op", "="):
            ctors = self._separated(self.parse_ctor, "|")
        self.expect("op", ";")
        return DataDecl(name, typarams, ctors, pos=pos)

    def parse_ctor(self) -> CtorDecl:
        tok = self.expect("name")
        arg_types: tuple[TypeAst, ...] = ()
        if self.at("op", "("):
            arg_types = self._separated(self._parse_ctor_arg, parens=True)
        return CtorDecl(tok.text, arg_types, pos=tok.pos)

    def _parse_ctor_arg(self) -> TypeAst:
        ty = self.parse_type()
        self.accept("name")  # optional documentation-only field name
        return ty

    def parse_func(self) -> FuncDecl:
        pos = self.expect("kw", "def").pos
        ret = self.parse_type()
        # `deadline`/`destiny` are expression keywords but legal function
        # names; the process-observer library defines deadline(p)
        if self.at("kw", "deadline") or self.at("kw", "destiny"):
            name = self.next().text
        else:
            name = self.expect("name").text
        typarams = self.parse_typarams()
        params = self._separated(self._param, parens=True)
        self.expect("op", "=")
        body = self.parse_expr()
        self.expect("op", ";")
        return FuncDecl(ret, name, typarams, params, body, pos=pos)

    def _param(self) -> tuple[TypeAst, str]:
        return self.parse_type(), self._name()

    def parse_type(self) -> TypeAst:
        tok = self.expect("name")
        args: tuple[TypeAst, ...] = ()
        if self.accept("op", "<"):
            args = self._separated(self.parse_type)
            self.expect("op", ">")
        return TypeAst(tok.text, args, pos=tok.pos)

    def parse_interface(self) -> InterfaceDecl:
        pos = self.expect("kw", "interface").pos
        name = self.expect("name").text
        self.expect("op", "{")
        sigs: list[MethodSig] = []
        while not self.accept("op", "}"):
            ret = self.parse_type()
            mname = self.expect("name").text
            params = self._separated(self._param, parens=True)
            self.expect("op", ";")
            sigs.append(MethodSig(ret, mname, params, pos=ret.pos))
        return InterfaceDecl(name, tuple(sigs), pos=pos)

    def parse_annotations(self) -> dict[str, Expr]:
        """The `[Name: expr, ...]` groups in front of a declaration or
        statement, by name in source order; a name may appear only once."""
        annots: dict[str, Expr] = {}

        def annotation() -> None:
            tok = self.expect("name")
            if tok.text in annots:
                raise ParseError(f"duplicate annotation {tok.text}", tok.pos)
            self.expect("op", ":")
            annots[tok.text] = self.parse_expr()

        while self.accept("op", "["):
            self._separated(annotation)
            self.expect("op", "]")
        return annots

    def _only(self, annots: dict[str, Expr], names: tuple[str, ...],
              where: str, pos: Pos | None = None) -> dict[str, Expr]:
        """`annots`, if each of them may stand on `where`; any other is an
        error at `pos`, or else at its expression."""
        for name, expr in annots.items():
            if name not in names:
                raise ParseError(f"annotation {name} is not allowed on {where}",
                                 pos or expr.pos)
        return annots

    def parse_class(self) -> ClassDecl:
        annots = self.parse_annotations()
        pos = self.expect("kw", "class").pos
        scheduler = self._only(annots, ("Scheduler",), "a class").get("Scheduler")
        name = self.expect("name").text
        params: tuple[tuple[TypeAst, str], ...] = ()
        if self.at("op", "("):
            params = self._separated(self._param, parens=True)
        interfaces: tuple[str, ...] = ()
        if self.accept("kw", "implements"):
            interfaces = self._separated(self._name)
        self.expect("op", "{")
        fields: list[FieldDecl] = []
        methods: list[MethodDecl] = []
        while not self.accept("op", "}"):
            member_annots = self.parse_annotations()
            ty = self.parse_type()
            fname = self.expect("name").text
            if self.at("op", "=") or self.at("op", ";"):
                if member_annots:
                    raise ParseError("annotations are not allowed on fields",
                                     self.peek().pos)
                init = None
                if self.accept("op", "="):
                    init = self.parse_expr()
                self.expect("op", ";")
                fields.append(FieldDecl(ty, fname, init, pos=ty.pos))
                continue
            if not self.at("op", "("):
                raise ParseError("expected field or method", self.peek().pos)
            cost = self._only(member_annots, ("Cost",), "a method").get("Cost")
            mparams = self._separated(self._param, parens=True)
            body = self.parse_block()
            methods.append(MethodDecl(ty, fname, mparams, body, cost=cost,
                                      pos=ty.pos))
        return ClassDecl(name, params, interfaces, tuple(fields),
                         tuple(methods), scheduler=scheduler, pos=pos)

    # ------------------------------------------------------ statements

    def parse_block(self) -> tuple[Stmt, ...]:
        self._enter()
        self.expect("op", "{")
        stmts: list[Stmt] = []
        while not self.accept("op", "}"):
            stmts.append(self.parse_stmt())
        self.depth -= 1
        return tuple(stmts)

    def parse_stmt(self) -> Stmt:
        annots = self.parse_annotations()
        tok = self.peek()
        if annots and not (tok.kind == "kw" and tok.text == "await"):
            # annotations otherwise belong to assignment/call statements
            return self._parse_simple_stmt(annots)
        if tok.kind == "kw":
            if tok.text == "skip":
                self.next()
                self.expect("op", ";")
                return SSkip(pos=tok.pos)
            if tok.text == "if":
                return self._parse_if()
            if tok.text == "while":
                self.next()
                cond = self.parse_expr()
                body = self.parse_block()
                return SWhile(cond, body, pos=tok.pos)
            if tok.text == "return":
                self.next()
                expr = self.parse_expr()
                self.expect("op", ";")
                return SReturn(expr, pos=tok.pos)
            if tok.text == "suspend":
                self.next()
                self.expect("op", ";")
                return SSuspend(pos=tok.pos)
            if tok.text == "await":
                return self._parse_await(annots)
            if tok.text == "duration":
                stmt = self._duration(SDuration)
                self.expect("op", ";")
                return stmt
        return self._parse_simple_stmt(annots)

    def _parse_if(self) -> Stmt:
        tok = self.expect("kw", "if")
        cond = self.parse_expr()
        then = self.parse_block()
        els: tuple[Stmt, ...] = ()
        if self.accept("kw", "else"):
            if self.at("kw", "if"):
                els = (self._parse_if(),)
            else:
                els = self.parse_block()
        return SIf(cond, then, els, pos=tok.pos)

    def _assign_target(self, decl_follow: tuple[str, ...]
                       ) -> tuple[TypeAst | None, str] | None:
        """Consume `Type name` followed by an operator in `decl_follow`, or
        `name` followed by `=`; else consume nothing and return None.
        Only this lookahead backtracks; it enters no nesting."""
        mark = self.idx
        try:
            ty = self.parse_type()
            nm = self.accept("name")
            if nm is not None and any(self.at("op", op) for op in decl_follow):
                return ty, nm.text
        except ParseError:
            pass
        self.idx = mark
        if self.at("name") and self.peek(1).kind == "op" and self.peek(1).text == "=":
            return None, self.next().text
        return None

    def _parse_await(self, annots: dict[str, Expr]) -> Stmt:
        tok = self.expect("kw", "await")
        # await [T] x = o.m(args);  (call sugar)
        target = self._assign_target(("=",))
        if target is not None:
            self.expect("op", "=")
            callee = self.parse_expr()
            self.expect("op", ".")
            call = self._call(RSyncCall, callee, annots, tok.pos)
            self.expect("op", ";")
            return SAwaitCall(*target, call, pos=tok.pos)
        if annots:
            raise ParseError("annotations are not allowed on await guards", tok.pos)
        guards = self.parse_guard()
        self.expect("op", ";")
        return SAwait(guards, pos=tok.pos)

    def _parse_simple_stmt(self, annots: dict[str, Expr]) -> Stmt:
        start = self.peek()
        # declaration `Type name [= rhs];` or assignment `name = rhs;`
        target = self._assign_target(("=", ";"))
        if target is not None:
            rhs: Rhs | None = None
            if self.accept("op", "="):
                rhs = self.parse_rhs(annots)
            elif annots:
                raise ParseError(
                    "annotations are not allowed on bare declarations", start.pos)
            self.expect("op", ";")
            self._check_stmt_annots(annots, rhs, start.pos)
            return SAssign(target[0], target[1], rhs, pos=start.pos)
        # fire-and-forget call: expr ! m (args) ;
        callee = self.parse_expr()
        if self.accept("op", "!"):
            call = self._call(RCall, callee, annots, start.pos)
            self.expect("op", ";")
            return SCallStmt(call, pos=start.pos)
        raise ParseError("expected a statement", start.pos)

    def _check_stmt_annots(self, annots: dict[str, Expr], rhs: Rhs | None,
                           pos: Pos) -> None:
        if annots and not isinstance(rhs, (RNew, RCall, RSyncCall)):
            raise ParseError(
                "annotations are only allowed on calls and new-object statements", pos)

    def _call(self, node: Callable[..., _T], callee: Expr,
              annots: dict[str, Expr], pos: Pos) -> _T:
        """The call `name ( expr, ... )` after `callee!` or `callee.`, as a
        `node` that carries the call annotations in `annots`."""
        method = self._name()
        args = self._separated(self.parse_expr, parens=True)
        named = self._only(annots, ("Deadline", "Critical"), "a call")
        return node(callee, method, args, CallAnnots(
            named.get("Deadline"), named.get("Critical")), pos=pos)

    def parse_rhs(self, annots: dict[str, Expr]) -> Rhs:
        tok = self.peek()
        if self.accept("kw", "new"):
            cls = self.expect("name").text
            args: tuple[Expr, ...] = ()
            if self.at("op", "("):
                args = self._separated(self.parse_expr, parens=True)
            named = self._only(annots, ("Scheduler",), "new", tok.pos)
            return RNew(cls, args, scheduler=named.get("Scheduler"), pos=tok.pos)
        expr = self.parse_expr()
        if self.accept("op", "!"):
            return self._call(RCall, expr, annots, tok.pos)
        if self.accept("op", "."):
            if self.accept("kw", "get"):
                return RGet(expr, pos=tok.pos)
            return self._call(RSyncCall, expr, annots, tok.pos)
        return RExpr(expr)

    def _duration(self, node: Callable[..., _T]) -> _T:
        """`duration ( best , worst )` as a statement or guard atom."""
        pos = self.expect("kw", "duration").pos
        self.expect("op", "(")
        best = self.parse_expr()
        self.expect("op", ",")
        worst = self.parse_expr()
        self.expect("op", ")")
        return node(best, worst, pos=pos)

    # ---------------------------------------------------------- guards

    def parse_guard(self) -> tuple[Guard, ...]:
        expr = self.parse_expr(guard_atoms=True)
        return self._to_guard(expr)

    def _to_guard(self, expr: Expr) -> tuple[Guard, ...]:
        """The conjuncts of a guard in source order, however `&&` nests."""
        if isinstance(expr, BinOp) and expr.op == "&&":
            return self._to_guard(expr.left) + self._to_guard(expr.right)
        if isinstance(expr, _FutAtom):
            return (GFut(expr.name, pos=expr.pos),)
        if isinstance(expr, _DurAtom):
            return (GDuration(expr.best, expr.worst, pos=expr.pos),)
        bad = self._find_guard_atom(expr)
        if bad is not None:
            raise ParseError(
                "future and duration guards cannot appear inside expressions", bad)
        return (GBool(expr, pos=expr.pos),)

    def _find_guard_atom(self, expr: Expr) -> Pos | None:
        """Where the first guard atom in `expr` stands, if any."""
        if isinstance(expr, (_FutAtom, _DurAtom)):
            return expr.pos
        for child in expr.children():
            found = self._find_guard_atom(child)
            if found is not None:
                return found
        return None

    # ----------------------------------------------------- expressions

    def parse_expr(self, guard_atoms: bool = False) -> Expr:
        self._enter()
        expr = self._parse_binary(1, guard_atoms)
        self.depth -= 1
        return expr

    def _parse_binary(self, min_prec: int, ga: bool) -> Expr:
        left = self._parse_unary(ga)
        while True:
            tok = self.peek()
            prec = BINARY_PRECEDENCE.get(tok.text, 0) if tok.kind == "op" else 0
            if prec < min_prec:
                return left
            self.next()
            right = self._parse_binary(prec + 1, ga)
            left = BinOp(tok.text, left, right, pos=tok.pos)

    def _parse_unary(self, ga: bool) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("!", "-"):
            self.next()
            self._enter()
            operand = self._parse_unary(ga)
            self.depth -= 1
            return Unary(tok.text, operand, pos=tok.pos)
        return self._parse_postfix(ga)

    def _parse_postfix(self, ga: bool) -> Expr:
        named = self.at("name")  # keyword Vars (this, ...) take no `?`
        expr = self._parse_primary(ga)
        if ga and named and isinstance(expr, Var) and self.at("op", "?"):
            pos = self.next().pos
            return _FutAtom(expr.name, pos=pos)
        return expr

    def _parse_primary(self, ga: bool) -> Expr:
        tok = self.peek()
        if tok.kind == "int" or tok.kind == "rat":
            self.next()
            return Lit(NumVal(tok.value), pos=tok.pos)
        if tok.kind == "string":
            self.next()
            return Lit(StrVal(tok.value), pos=tok.pos)
        if tok.kind == "kw":
            if tok.text == "True":
                self.next()
                return Lit(TRUE, pos=tok.pos)
            if tok.text == "False":
                self.next()
                return Lit(FALSE, pos=tok.pos)
            if tok.text == "null":
                self.next()
                return Lit(NULL, pos=tok.pos)
            if tok.text == "now":
                self.next()
                return NowExpr(pos=tok.pos)
            if tok.text in ("this", "deadline", "destiny"):
                self.next()
                if tok.text != "this" and self.at("op", "("):
                    # observer call on a reflected process value
                    args = self._separated(self.parse_expr, parens=True)
                    return Apply(tok.text, args, pos=tok.pos)
                return Var(tok.text, pos=tok.pos)
            if tok.text == "case":
                return self._parse_case()
            if tok.text == "if":
                self.next()
                cond = self.parse_expr(ga)
                self.expect("kw", "then")
                then = self.parse_expr(ga)
                self.expect("kw", "else")
                els = self.parse_expr(ga)
                return IfExpr(cond, then, els, pos=tok.pos)
            if tok.text == "duration":
                if not ga:
                    raise ParseError(
                        "duration(...) is a statement or guard, not an expression",
                        tok.pos)
                return self._duration(_DurAtom)
        if tok.kind == "name":
            self.next()
            if self.at("op", "("):
                args = self._separated(self.parse_expr, parens=True)
                return Apply(tok.text, args, pos=tok.pos)
            return Var(tok.text, pos=tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.next()
            expr = self.parse_expr(ga)
            self.expect("op", ")")
            return expr
        raise ParseError(f"unexpected {tok.text!r} in expression", tok.pos)

    def _parse_case(self) -> Expr:
        tok = self.expect("kw", "case")
        scrutinee = self.parse_expr()
        self.expect("op", "{")
        branches: list[CaseBranch] = []
        while not self.accept("op", "}"):
            pat = self.parse_pattern()
            self.expect("op", "=>")
            body = self.parse_expr()
            self.expect("op", ";")
            branches.append(CaseBranch(pat, body, pos=tok.pos))
        if not branches:
            raise ParseError("case expression needs at least one branch", tok.pos)
        return CaseExpr(scrutinee, tuple(branches), pos=tok.pos)

    def parse_pattern(self) -> Pattern:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "_":
            self.next()
            return PWildcard(pos=tok.pos)
        if tok.kind == "op" and tok.text == "-":
            self.next()
            lit = self.expect("int") if self.at("int") else self.expect("rat")
            return PLit(NumVal(-lit.value), pos=tok.pos)
        if tok.kind in ("int", "rat"):
            self.next()
            return PLit(NumVal(tok.value), pos=tok.pos)
        if tok.kind == "string":
            self.next()
            return PLit(StrVal(tok.value), pos=tok.pos)
        if tok.kind == "kw" and tok.text in ("True", "False", "null"):
            self.next()
            value = {"True": TRUE, "False": FALSE, "null": NULL}[tok.text]
            return PLit(value, pos=tok.pos)
        if tok.kind == "name":
            self.next()
            if self.at("op", "("):
                args = self._separated(self.parse_pattern, parens=True)
                return PCtor(tok.text, args, pos=tok.pos)
            return PName(tok.text, pos=tok.pos)
        raise ParseError(f"unexpected {tok.text!r} in pattern", tok.pos)


def parse_model(source: str, filename: str | None = None) -> Model:
    parser = Parser(tokenize(source, filename))
    return parser.parse_model()


def parse_expr(source: str, filename: str | None = None) -> Expr:
    parser = Parser(tokenize(source, filename))
    expr = parser.parse_expr()
    parser.expect("eof")
    return expr

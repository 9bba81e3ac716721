"""Static well-formedness checks.

This is not a type checker.  It resolves names (types, functions,
constructors, variables), enforces reserved-variable rules, and checks
interface completeness by name and arity.  Where an annotation may stand
is the parser's to decide.  Everything else is left to runtime.

Code is checked in one walk, `_Checker.check_node(node, scope)`, where
`scope` is the set of names in reach: the variables, plus `this`, `now`,
`queue` and the process attributes where that code may read them.  The
few node classes whose check resolves a name have a rule in
`_Checker.RULES`; every other node checks the nodes it holds, in field
order (`Node.children`), so a field added to a node is checked without
a change here.
"""

from __future__ import annotations

from .nodes import (
    Apply, CaseExpr, ClassDecl, GFut, InterfaceDecl, Model, Node, NowExpr,
    PCtor, PLit, PName, Pattern, Pos, PWildcard, RNew, SAssign, SAwaitCall,
    SIf, SWhile, Stmt, TypeAst, Var,
)

# process-local variables maintained by the runtime; `value` is the one
# the process itself may assign
RESERVED = {
    "method", "arrival", "cost", "deadline", "start", "finish",
    "critical", "value", "destiny", "queue",
}
# the reserved names process code reads; `queue` is the scheduler's
PROCESS_VARS = frozenset(RESERVED - {"queue"})
# what is in reach besides variables: in process code (a method body or
# the main block), and in a scheduler annotation
PROCESS_SCOPE = PROCESS_VARS | {"this", "now"}
SCHEDULER_SCOPE = frozenset({"queue", "this", "now"})

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


def check_model(model: Model) -> list[Diagnostic]:
    checker = _Checker(model)
    checker.check(model)
    return checker.diags


class _Checker:
    def __init__(self, model: Model):
        self.diags: list[Diagnostic] = []
        self.datatypes: dict[str, int] = {}  # name -> number of type parameters
        self.ctors: dict[str, int] = {}  # name -> arity
        self.functions: dict[str, int] = {}  # name -> arity
        self.interfaces: dict[str, InterfaceDecl] = {}
        self.classes: dict[str, ClassDecl] = {}
        for dd in model.datatypes:
            if dd.name in self.datatypes or dd.name in BUILTIN_TYPES:
                self.err(f"duplicate datatype {dd.name}", dd.pos)
            self.datatypes[dd.name] = len(dd.typarams)
            for ctor in dd.ctors:
                if ctor.name in self.ctors:
                    self.err(f"constructor {ctor.name} declared more than once",
                             ctor.pos)
                self.ctors[ctor.name] = len(ctor.arg_types)
        for fd in model.functions:
            # redefinition is deliberate shadowing (last wins), e.g. weight/comp
            self.functions[fd.name] = len(fd.params)
        for idecl in model.interfaces:
            if idecl.name in self.interfaces:
                self.err(f"duplicate interface {idecl.name}", idecl.pos)
            self.interfaces[idecl.name] = idecl
        for cd in model.classes:
            if cd.name in self.classes:
                self.err(f"duplicate class {cd.name}", cd.pos)
            self.classes[cd.name] = cd

    def err(self, message: str, pos: Pos | None) -> None:
        self.diags.append(Diagnostic(message, pos))

    # ----------------------------------------------------------- types

    def check_type(self, ty: TypeAst, tyvars: set[str]) -> None:
        arity: int | None = None
        if ty.name in tyvars:
            arity = 0
        elif ty.name in BUILTIN_TYPES:
            arity = BUILTIN_TYPES[ty.name]
        elif ty.name in self.datatypes:
            arity = self.datatypes[ty.name]
        elif ty.name in self.interfaces:
            arity = 0
        elif ty.name in self.classes:
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
            scope = set(PROCESS_SCOPE)
            for stmt in model.main:
                self.check_node(stmt, scope)

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
        self.check_node(fd.body, self.check_params(fd.params, tyvars))

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
                self.check_node(fld.init, attrs | {"this"})
        if cd.scheduler is not None:
            self.check_node(cd.scheduler, attrs | SCHEDULER_SCOPE)
        method_names: set[str] = set()
        for mth in cd.methods:
            if mth.name in method_names:
                self.err(f"duplicate method {mth.name} in class {cd.name}", mth.pos)
            method_names.add(mth.name)
            self.check_method(mth, attrs)
        for iname in cd.interfaces:
            idecl = self.interfaces.get(iname)
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
        if mth.cost is not None:
            # cost is evaluated at bind time under the formals alone
            self.check_node(mth.cost, formals)
        scope = attrs | formals | PROCESS_SCOPE
        for stmt in mth.body:
            self.check_node(stmt, scope)

    # ------------------------------------------------------------- code

    def check_node(self, node: Node, scope: set[str]) -> None:
        """Check a statement, right-hand side, guard or expression where
        the names in `scope` are in reach; a declaration adds its name."""
        rule = self.RULES.get(node.__class__)
        if rule is not None:
            rule(self, node, scope)
        else:
            for child in node.children():
                self.check_node(child, scope)

    def check_var(self, node: Var, scope: set[str]) -> None:
        name = node.name
        if name in scope:
            return
        if name == "this":
            self.err("this is not available here", node.pos)
        elif name == "queue":
            self.err("queue is only available in scheduler annotations", node.pos)
        elif name in RESERVED:
            self.err(f"{name} is only available in method bodies", node.pos)
        elif name not in self.ctors:
            self.err(f"unknown variable {name}", node.pos)
        elif self.ctors[name] != 0:
            self.err(f"constructor {name} expects {self.ctors[name]} argument(s)",
                     node.pos)

    def check_now(self, node: NowExpr, scope: set[str]) -> None:
        if "now" not in scope:
            self.err("now is not available here", node.pos)

    def check_apply(self, node: Apply, scope: set[str]) -> None:
        arity = self.functions.get(node.name)
        if arity is None:
            arity = self.ctors.get(node.name)
        if arity is None:
            self.err(f"unknown function or constructor {node.name}", node.pos)
        elif arity != len(node.args):
            self.err(f"{node.name} expects {arity} argument(s), "
                     f"got {len(node.args)}", node.pos)
        for arg in node.args:
            self.check_node(arg, scope)

    def check_case(self, node: CaseExpr, scope: set[str]) -> None:
        self.check_node(node.scrutinee, scope)
        for branch in node.branches:
            binders = self.check_pattern(branch.pattern)
            self.check_node(branch.body, scope | binders)

    def check_assign(self, node: SAssign, scope: set[str]) -> None:
        if node.rhs is not None:
            self.check_node(node.rhs, scope)
        self.check_target(node, scope)

    def check_await_call(self, node: SAwaitCall, scope: set[str]) -> None:
        self.check_node(node.call, scope)
        self.check_target(node, scope)

    def check_target(self, node: SAssign | SAwaitCall, scope: set[str]) -> None:
        """The variable an assignment or an await-call writes: a fresh
        local when declared, else a variable in scope; of the reserved
        names only `value`, which is in scope where it may be written."""
        name = node.name
        if node.decl_type is not None:
            self.check_type(node.decl_type, set())
            if name in RESERVED:
                self.err(f"{name} is a reserved name", node.pos)
            scope.add(name)
        elif name in RESERVED and name != "value":
            self.err(f"cannot assign to reserved variable {name}", node.pos)
        elif name not in scope:
            self.err(f"unknown variable {name}", node.pos)

    def check_block(self, block: tuple[Stmt, ...], scope: set[str]) -> None:
        """A nested block's declarations stay in it: it is checked in its
        own copy of the scope."""
        inner = set(scope)
        for stmt in block:
            self.check_node(stmt, inner)

    def check_if(self, node: SIf, scope: set[str]) -> None:
        self.check_node(node.cond, scope)
        self.check_block(node.then, scope)
        self.check_block(node.els, scope)

    def check_while(self, node: SWhile, scope: set[str]) -> None:
        self.check_node(node.cond, scope)
        self.check_block(node.body, scope)

    def check_new(self, node: RNew, scope: set[str]) -> None:
        cd = self.classes.get(node.cls)
        if cd is None:
            self.err(f"unknown class {node.cls}", node.pos)
        elif len(node.args) != len(cd.params):
            self.err(f"class {node.cls} expects {len(cd.params)} argument(s), "
                     f"got {len(node.args)}", node.pos)
        for arg in node.args:
            self.check_node(arg, scope)
        if node.scheduler is not None and cd is not None:
            attrs = {n for _, n in cd.params} | {f.name for f in cd.fields}
            self.check_node(node.scheduler, attrs | SCHEDULER_SCOPE)

    def check_fut(self, node: GFut, scope: set[str]) -> None:
        # a process attribute is in scope, but it holds no future
        if node.var not in scope or node.var in PROCESS_VARS:
            self.err(f"unknown variable {node.var} in guard", node.pos)

    # the node classes whose check does more than check their children
    RULES = {
        Var: check_var, NowExpr: check_now, Apply: check_apply,
        CaseExpr: check_case, SAssign: check_assign,
        SAwaitCall: check_await_call, SIf: check_if, SWhile: check_while,
        RNew: check_new, GFut: check_fut,
    }

    def check_pattern(self, pat: Pattern, binders: set[str] | None = None) -> set[str]:
        if binders is None:
            binders = set()
        if isinstance(pat, (PWildcard, PLit)):
            return binders
        if isinstance(pat, PName):
            arity = self.ctors.get(pat.name)
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
            arity = self.ctors.get(pat.name)
            if arity is None:
                self.err(f"unknown constructor {pat.name}", pat.pos)
            elif arity != len(pat.args):
                self.err(f"constructor {pat.name} expects {arity} argument(s), "
                         f"got {len(pat.args)}", pat.pos)
            for sub in pat.args:
                self.check_pattern(sub, binders)
            return binders
        raise TypeError(f"cannot check {pat!r}")

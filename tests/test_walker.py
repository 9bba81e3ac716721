"""Generated code against the tree walker, its reference semantics.

A seeded generator writes models of mutually calling, recursive
functions and expressions over them, well- and ill-typed: over Int,
Rat, Bool, String, Duration and Time values, lists and a user data
type; with `case` patterns that nest, test literals, use wildcards and
shadow outer variables; with `if`, `&&` and `||`, number literals on
either side of an operator, `now` and `deadline`, calls that reach
`max_depth`, and nesting deep enough that generated code moves it into
helper functions.  Each expression is evaluated as generated code and by
the walker, as a value, as a boolean conjunct and as the right-hand side
of an assignment; both must give the same value (the same class too, so
an `int` is not a `Fraction`), or raise the same error class and
message at the same position, read the clock alike, and leave the same
locals and fields.
"""

import ast
import random
from fractions import Fraction
from types import SimpleNamespace

from rtabs import merge_with_prelude, parse_model
from rtabs.desugar import desugar
from rtabs.engine import Configuration, FutureCell
from rtabs.errors import RtRuntimeError
from rtabs.evaluator import EvalContext, Program, eval_expr
from rtabs.nodes import (
    GBool, GFut, Pos, RExpr, SAssign, SAwait, SReturn, TypeAst,
)
from rtabs.parser import parse_expr
from rtabs.values import (
    FALSE, INF_DURATION, TRUE, DataVal, FutRef, StrVal, mk_duration, mk_list,
    mk_time, num,
)

import tree_walker
from conftest import TESTS_DIR

DATA = "data Tree = Leaf | Node(Tree, Int, Tree);\n"
TYPES = ("Int", "Rat", "Bool", "String", "Duration", "Time", "List", "Tree")
DECLARED = {"List": "List<Int>"}  # how a type is written, where not its name
NUMBERS = ("Int", "Rat")
# the types whose values `<` and its kin compare
ORDERED = ("Int", "Rat", "String", "Time")
# the binders that case patterns draw from; `n` and `a0` shadow a formal
# or a local
BINDERS = ("x", "y", "z", "n", "a0", "w")
SEEDS = 40  # about 1 s here; raise it to search longer by hand


class Writer:
    """Writes the source of well-typed expressions of a type; with
    probability `ill`, a subexpression is of a random type instead."""

    def __init__(self, rng: random.Random, functions, ill: float):
        self.rng = rng
        self.functions = functions  # (name, return type, parameter types)
        self.ill = ill
        self.scope: dict[str, str] = {}  # variable -> its type
        self.recursive = None  # the function that may still call itself
        self.calls = 0  # calls of other functions this body may still make

    def expr(self, ty: str, depth: int) -> str:
        rng = self.rng
        if depth > 0 and rng.random() < self.ill:
            ty = rng.choice(TYPES)
        if depth <= 0 or rng.random() < 0.2:
            return self.leaf(ty)
        pick = rng.random()
        if pick < 0.12:
            return (f"(if {self.expr('Bool', depth - 1)} then "
                    f"{self.expr(ty, depth - 1)} else {self.expr(ty, depth - 1)})")
        if pick < 0.27:
            return self.case(ty, depth)
        if pick < 0.35:
            call = self.call(ty, depth)
            if call is not None:
                return call
        return _OPERATIONS[ty](self, depth - 1)

    def leaf(self, ty: str) -> str:
        rng = self.rng
        names = [name for name, t in self.scope.items() if t == ty]
        if names and rng.random() < 0.5:
            return rng.choice(names)
        if rng.random() < 0.01:
            return "nowhere"  # an unbound variable
        return _LEAVES[ty](rng)

    def operand(self, ty: str, depth: int) -> str:
        """An operand of an operator: often a number literal, which the
        generated code reads without testing it."""
        if ty in NUMBERS and self.rng.random() < 0.35:
            return str(self.rng.randint(0, 9)) if ty == "Int" else "7/2"
        return self.expr(ty, depth)

    def binary(self, ty: str, ops: str, depth: int) -> str:
        return (f"({self.operand(ty, depth)} {self.rng.choice(ops.split())} "
                f"{self.operand(ty, depth)})")

    def call(self, ty: str, depth: int) -> str | None:
        """A call of a model function that gives ty: the function being
        written calls itself at most once, with one less fuel, and other
        functions at most once, so the calls of an evaluation stay few."""
        rng = self.rng
        options = [f for f in self.functions if f[1] == ty
                   and (f[0] == self.recursive or self.calls > 0)]
        if not options:
            return None
        name, _, params = rng.choice(options)
        if name == self.recursive:
            self.recursive = None
            fuel = "n - 1"
        else:
            self.calls -= 1
            fuel = str(rng.randint(0, 12))
        args = [fuel] + [self.expr(p, depth - 1) for p in params[1:]]
        if rng.random() < 0.03:
            args.pop()  # the wrong number of arguments
        return f"{name}({', '.join(args)})"

    def case(self, ty: str, depth: int) -> str:
        rng = self.rng
        subject = rng.choice(TYPES)
        scrutinee = self.expr(subject, depth - 1)
        branches = []
        for _ in range(rng.randint(1, 3)):
            outer = dict(self.scope)
            pattern = self.pattern(subject, 2)
            branches.append(f"{pattern} => {self.expr(ty, depth - 1)};")
            self.scope = outer  # a binder's scope is its branch
        if rng.random() < 0.7:
            branches.append(f"_ => {self.expr(ty, depth - 1)};")
        return f"case {scrutinee} {{ {' '.join(branches)} }}"

    def pattern(self, ty: str, depth: int) -> str:
        """A pattern of a value of type ty, whose binders enter the scope."""
        rng = self.rng
        pick = rng.random()
        if pick < 0.15:
            return "_"
        if pick < 0.35:
            binder = rng.choice(BINDERS)
            self.scope[binder] = ty
            return binder
        if ty in ("List", "Tree") and depth > 0 and rng.random() < 0.5:
            inner = ["Int", ty] if ty == "List" else [ty, "Int", ty]
            ctor = "Cons" if ty == "List" else "Node"
            return f"{ctor}({', '.join(self.pattern(t, depth - 1) for t in inner)})"
        return _LITERAL_PATTERNS[ty](rng)

    def deep(self, levels: int) -> str:
        """An Int nested levels deep in `if` and `case` branches that each
        test something and are taken, whose innermost expression reads
        every Int variable in scope."""
        rng = self.rng
        ints = [name for name, t in self.scope.items() if t == "Int"]
        if levels == 0:
            return " + ".join(ints + [str(rng.randint(0, 9))])
        tested = rng.choice(ints + ["1"])
        if rng.random() < 0.5:
            return (f"(if {tested} != 99 then {self.deep(levels - 1)} "
                    f"else {rng.randint(0, 9)})")
        binder = f"d{levels}"
        scrutinee = tested
        self.scope[binder] = "Int"
        inner = self.deep(levels - 1)
        del self.scope[binder]
        return (f"case Cons({scrutinee}, Nil) "
                f"{{ Cons({binder}, Nil) => {inner}; _ => 0; }}")


def _numeric(ty):
    def write(w: Writer, depth: int) -> str:
        pick = w.rng.random()
        if pick < 0.6:
            ops = "+ - * /" if ty == "Rat" else "+ - *"
            return w.binary(ty, ops, depth)
        if pick < 0.7:
            return f"(- {w.operand(ty, depth)})"
        if ty == "Int":
            return w.rng.choice([f"length({w.expr('List', depth)})",
                                 f"head({w.expr('List', depth)})"])
        return w.rng.choice([f"durationValue({w.expr('Duration', depth)})",
                             f"timeValue({w.expr('Time', depth)})",
                             f"({w.operand('Int', depth)} / "
                             f"{w.operand('Int', depth)})"])
    return write


def _bool(w: Writer, depth: int) -> str:
    rng = w.rng
    pick = rng.random()
    if pick < 0.3:
        return w.binary(rng.choice(ORDERED), "< <= > >=", depth)
    if pick < 0.5:
        return w.binary(rng.choice(TYPES), "== !=", depth)
    if pick < 0.75:
        return w.binary("Bool", "&& ||", depth)
    if pick < 0.85:
        return f"(! {w.expr('Bool', depth)})"
    return rng.choice([
        f"lte({w.expr('Duration', depth)}, {w.expr('Duration', depth)})",
        f"isInfinite({w.expr('Duration', depth)})",
        f"contains({w.expr('List', depth)}, {w.expr('Int', depth)})"])


def _duration(w: Writer, depth: int) -> str:
    return w.rng.choice([
        f"({w.expr('Time', depth)} - {w.expr('Time', depth)})",
        f"add({w.expr('Duration', depth)}, {w.expr('Duration', depth)})",
        f"Duration({w.operand('Rat', depth)})"])


_OPERATIONS = {
    "Int": _numeric("Int"), "Rat": _numeric("Rat"), "Bool": _bool,
    "String": lambda w, d: w.binary("String", "+", d),
    "Duration": _duration,
    "Time": lambda w, d: w.rng.choice(["now", f"Time({w.operand('Rat', d)})"]),
    "List": lambda w, d: w.rng.choice([
        f"Cons({w.operand('Int', d)}, {w.expr('List', d)})",
        f"tail({w.expr('List', d)})"]),
    "Tree": lambda w, d: (f"Node({w.expr('Tree', d)}, {w.operand('Int', d)}, "
                          f"{w.expr('Tree', d)})"),
}

_LEAVES = {
    "Int": lambda rng: str(rng.randint(0, 9)),
    "Rat": lambda rng: rng.choice(["1/3", "5/2", "4/2", "0"]),
    "Bool": lambda rng: rng.choice(["True", "False"]),
    "String": lambda rng: rng.choice(['""', '"a"', '"bc"']),
    "Duration": lambda rng: rng.choice(["Duration(2)", "InfDuration",
                                        "Duration(0)"]),
    "Time": lambda rng: rng.choice(["now", "Time(3/2)", "Time(0)"]),
    "List": lambda rng: rng.choice(["Nil", "Cons(1, Nil)",
                                    "Cons(2, Cons(0, Nil))"]),
    "Tree": lambda rng: rng.choice(["Leaf", "Node(Leaf, 1, Leaf)"]),
}

_LITERAL_PATTERNS = {
    "Int": lambda rng: rng.choice(["0", "1", "-1"]),
    "Rat": lambda rng: rng.choice(["0", "5/2"]),
    "Bool": lambda rng: rng.choice(["True", "False"]),
    "String": lambda rng: rng.choice(['"a"', '""']),
    "Duration": lambda rng: rng.choice(["InfDuration", "Duration(2)",
                                        "Duration(_)"]),
    "Time": lambda rng: rng.choice(["Time(0)", "Time(_)"]),
    "List": lambda rng: rng.choice(["Nil", "Cons(1, _)", "Cons(_, Nil)"]),
    "Tree": lambda rng: rng.choice(["Leaf", "Node(Leaf, _, _)"]),
}


def _declared(ty: str) -> str:
    return DECLARED.get(ty, ty)


def write_model(rng: random.Random) -> tuple[str, list]:
    """The source of a model of up to four functions, each of fuel `n`
    first, and the functions' (name, return type, parameter types).  A
    function calls itself at most once and the functions before it at
    most once; one may instead be an Int nested past `_MAX_INDENT`."""
    functions, source = [], [DATA]
    for k in range(rng.randint(1, 4)):
        name = f"f{k}"
        deep = rng.random() < 0.2
        params = ["Int"] + [("Int" if deep else rng.choice(TYPES))
                            for _ in range(rng.randint(0, 2))]
        ret = "Int" if deep else rng.choice(TYPES)
        w = Writer(rng, functions + [(name, ret, params)], ill=0.04)
        w.scope = {"n": "Int"}
        w.scope.update((f"p{i}", t) for i, t in enumerate(params) if i)
        w.recursive, w.calls = name, 1
        formals = ", ".join(f"{_declared(t)} {v}" for v, t in w.scope.items())
        if deep:
            body = w.deep(rng.randint(33, 40))
        elif rng.random() < 0.8:
            body = f"if n <= 0 then {w.expr(ret, 2)} else {w.expr(ret, 3)}"
        else:
            body = w.expr(ret, 3)
        source.append(f"def {_declared(ret)} {name}({formals}) = {body};\n")
        functions.append((name, ret, params))
    return "".join(source), functions


def scope_values(rng: random.Random):
    """Locals and fields of every type, some of one name, and a process
    whose `deadline` they may shadow or not."""
    values = {
        "Int": lambda: num(rng.randint(-3, 5)),
        "Rat": lambda: num(Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
        "Bool": lambda: rng.choice([TRUE, FALSE]),
        "String": lambda: StrVal(rng.choice(["", "a", "b"])),
        "Duration": lambda: rng.choice([INF_DURATION, mk_duration(1)]),
        "Time": lambda: mk_time(Fraction(rng.randint(0, 6), 2)),
        "List": lambda: mk_list([num(i) for i in range(rng.randint(0, 2))]),
        "Tree": lambda: rng.choice([DataVal("Leaf"), DataVal(
            "Node", (DataVal("Leaf"), num(2), DataVal("Leaf")))]),
    }
    env, fields, types = {}, {}, {}
    for i, ty in enumerate(TYPES):
        env[f"a{i}"], fields[f"b{i}"] = values[ty](), values[ty]()
        types[f"a{i}"] = types[f"b{i}"] = ty
    shared = rng.choice(TYPES)  # a local that hides a field of its name
    env["s"], fields["s"], types["s"] = (values[shared](),
                                         values[rng.choice(TYPES)](), shared)
    env["fu"], types["fu"] = FutRef(0), "Future"
    proc = None
    if rng.random() < 0.5:
        proc = SimpleNamespace(due=rng.choice([None, Fraction(7, 2)]))
        types["deadline"] = "Duration"
    elif rng.random() < 0.5:
        env["deadline"], types["deadline"] = mk_duration(3), "Duration"
    return env, fields, proc, types


def outcome(run, ctx):
    """What run gives: its value, or its error's class, message and
    position; and whether it read the clock.  Any other exception is a
    failure of the test."""
    try:
        value = run()
        result = ("value", repr(value))
    except RtRuntimeError as err:
        result = ("error", type(err).__name__, err.message, str(err.pos))
    return result, ctx.clock_read


def contexts(program, max_depth):
    futures = {0: FutureCell(0, resolved=True, value=num(1))}
    config = Configuration(futures=futures, clock=Fraction(5, 2))
    return (EvalContext(program, config, max_depth),
            EvalContext(program, config, max_depth))


class Case:
    """An expression, with the statement that evaluates it in one of
    three forms: as a value (a `return`), as a boolean conjunct (an
    `await`), or as the right-hand side of an assignment to a local, a
    field, a name that is both or neither, declared or not."""

    def __init__(self, source: str, rng: random.Random):
        self.source, self.expr = source, parse_expr(source)
        self.max_depth = rng.randint(3, 9)
        self.form = rng.choice(("value", "value", "conjunct", "assignment"))
        self.conjunct = GBool(self.expr, pos=Pos(9, 9))
        self.name = rng.choice(["a0", "b1", "s", "new", "deadline"])
        self.declared = rng.random() < 0.3
        self.stmt = {
            "value": SReturn(self.expr),
            "conjunct": SAwait((self.conjunct,)),
            "assignment": SAssign(TypeAst("Int") if self.declared else None,
                                  self.name, RExpr(self.expr), pos=Pos(8, 8)),
        }[self.form]

    def check(self, program, place, scope) -> str:
        """Compare the walker with place, the code of the statement;
        whether it gave a value or an error."""
        env, fields, proc, _ = scope
        ctx, ref = contexts(program, self.max_depth)
        if self.form == "value":
            got = outcome(lambda: eval_expr(place.run, env, ctx, fields,
                                            proc), ctx)
            want = outcome(lambda: tree_walker.evaluate(
                self.expr, env, ref, fields, proc), ref)
        elif self.form == "conjunct":  # whose wait gives 0 when it holds
            got = outcome(lambda: eval_expr(place.wait, env, ctx, fields,
                                            proc) == 0, ctx)
            want = outcome(lambda: tree_walker.holds(
                self.conjunct, env, ref, fields, proc), ref)
        else:
            mine, theirs = (dict(env), dict(fields)), (dict(env), dict(fields))
            got = outcome(lambda: eval_expr(place.run, mine[0], ctx,
                                            mine[1], proc), ctx)

            def assign():
                value = tree_walker.evaluate(self.expr, theirs[0], ref,
                                             theirs[1], proc)
                tree_walker.store(self.name, self.declared, value, *theirs,
                                  Pos(8, 8))
            want = outcome(assign, ref)
            assert repr(mine) == repr(theirs), self.source
        assert got == want, self.source
        return want[0][0]


def check_future(program, place, conjunct, scope):
    """Compare the walker with place, the code of `await v?`, whose wait
    gives 0 once the future is resolved."""
    env, fields, proc, _ = scope
    ctx, ref = contexts(program, 9)
    got = outcome(lambda: eval_expr(place.wait, env, ctx, fields, proc) == 0,
                  ctx)
    want = outcome(
        lambda: tree_walker.holds(conjunct, env, ref, fields, proc), ref)
    assert got == want, conjunct


def test_walker_and_generated_code_agree():
    kinds = []
    for seed in range(SEEDS):
        rng = random.Random(seed)
        source, functions = write_model(rng)
        # unchecked: the model is ill-typed on purpose
        program = Program.from_model(desugar(merge_with_prelude(
            parse_model(source, "<diff>"))))
        scope = scope_values(rng)
        w = Writer(rng, functions, ill=0.05)
        w.scope, w.calls = dict(scope[3]), 3
        del w.scope["fu"]
        sources = [w.expr(rng.choice(TYPES), 4) for _ in range(8)]
        sources.append(w.deep(rng.randint(33, 40)))
        name, _, params = rng.choice(functions)
        sources.append(f"{name}({rng.randint(6, 14)}"
                       + ", 1" * (len(params) - 1) + ")")
        cases = [Case(source, rng) for source in sources]
        future = GFut(rng.choice(["fu", "a0", "nowhere", "deadline"]),
                      pos=Pos(7, 7))
        block = program.block(tuple(case.stmt for case in cases)
                              + (SAwait((future,)),))
        for case, place in zip(cases, block.code):
            kinds.append(case.check(program, place, scope))
        check_future(program, block.code[-1], future, scope)
    # the generator gives values and errors alike
    assert 0.5 < kinds.count("value") / len(kinds) < 0.9


def test_walker_shares_only_tables_with_the_evaluator():
    # the walker imports of the evaluator only the program's tables and
    # the context of an evaluation, never code that evaluates
    tree = ast.parse((TESTS_DIR / "tree_walker.py").read_text(
        encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    imports += [(alias.name, None) for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    assert {name for module, name in imports
            if module == "rtabs.evaluator"} == {
        "EvalContext", "Program", "remaining_deadline"}
    assert ("rtabs", "evaluator") not in imports
    assert ("rtabs.evaluator", None) not in imports

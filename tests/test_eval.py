"""Expression evaluator: exact arithmetic, pattern matching, prelude
functions, and the duration algebra checked against host-side oracles."""

import dataclasses
import random
from fractions import Fraction

import pytest

from rtabs import CallDepthError, load_source
from rtabs.desugar import desugar
from rtabs.engine import Configuration
from rtabs.errors import (
    DivisionByZeroError, EvalTypeError, MatchFailureError, RtRuntimeError,
    UnboundVariableError,
)
from rtabs.evaluator import EvalContext, Program, eval_expr, eval_guard
from rtabs.nodes import Apply, GBool, GFut, Lit, Pos, SAwait
from rtabs.parser import parse_expr
from rtabs.values import (
    FALSE, INF_DURATION, NULL, TRUE, BoolVal, DataVal, FutRef, NullVal,
    NumVal, ObjRef, StrVal, mk_duration, mk_list, mk_time, num,
)

import tree_walker
from conftest import compiled


def program(extra_source=""):
    model, diags = load_source(extra_source, "<test>")
    assert diags == [], diags
    return Program.from_model(desugar(model))


PRELUDE = program()


def ev(source, env=None, clock=0, prog=PRELUDE):
    ctx = EvalContext(prog, Configuration(clock=Fraction(clock)))
    return eval_expr(compiled(prog, parse_expr(source)), env or {}, ctx)


def walk(source, env=None, prog=PRELUDE):
    """source's value under the tree walker, the reference semantics."""
    return tree_walker.evaluate(parse_expr(source), env or {},
                                EvalContext(prog))


def call(name, *values, prog=PRELUDE):
    code = compiled(prog, Apply(name, tuple(Lit(v) for v in values)))
    return eval_expr(code, {}, EvalContext(prog))


# ----------------------------------------------------------------- values

# one value of each class, with the fields of the frozen dataclass it
# stands in for
VALUE_CASES = [
    (BoolVal(True), ("value",)), (NumVal(Fraction(3, 2)), ("value",)),
    (StrVal("a"), ("value",)), (mk_list([num(1)]), ("ctor", "args")),
    (ObjRef(1), ("oid",)), (FutRef(1), ("fid",)), (NULL, ()),
]


@pytest.mark.parametrize("value, fields", VALUE_CASES,
                         ids=[type(value).__name__ for value, _ in VALUE_CASES])
def test_values_keep_the_frozen_dataclass_contract(value, fields):
    cls = type(value)
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(
        *(getattr(value, name) for name in fields))
    # the same repr and hash, so sets of values iterate as they did
    assert repr(value) == repr(twin)
    assert hash(value) == hash(twin)
    copy = cls(*(getattr(value, name) for name in fields))
    assert copy == value and hash(copy) == hash(value)
    assert value != twin
    assert {value: 1}[copy] == 1
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_values_of_different_classes_are_unequal():
    assert BoolVal(True) != NumVal(Fraction(1))
    assert NumVal(Fraction(1)) != BoolVal(True)
    assert ObjRef(1) != FutRef(1) and FutRef(1) != ObjRef(1)
    assert StrVal("Nil") != DataVal("Nil")
    assert NullVal() == NULL and NULL != DataVal("Null")
    assert NumVal(Fraction(4, 2)) == NumVal(Fraction(2))
    assert hash(NumVal(Fraction(4, 2))) == hash(NumVal(Fraction(2)))
    assert DataVal("Nil") == DataVal("Nil", ())
    assert repr(mk_duration(1)) == (
        "DataVal(ctor='Duration', args=(NumVal(value=1),))")
    assert len({TRUE, BoolVal(True), NumVal(Fraction(1)), ObjRef(1),
                FutRef(1), NULL, NullVal()}) == 5


def test_an_int_and_an_equal_fraction_are_one_number():
    # the evaluator keeps integral numbers as ints; one built from an
    # equal Fraction is the same value, hash and dict key
    assert NumVal(1) == NumVal(Fraction(1))
    assert NumVal(Fraction(1)) == NumVal(1)
    assert hash(NumVal(1)) == hash(NumVal(Fraction(1)))
    assert {NumVal(1): "one"}[NumVal(Fraction(2, 2))] == "one"
    assert len({NumVal(1), NumVal(Fraction(1)), num(Fraction(3, 3))}) == 1
    assert {mk_time(3): "t"}[DataVal("Time", (NumVal(Fraction(3)),))] == "t"
    assert type(num(Fraction(4, 2)).value) is int
    assert type(num(Fraction(3, 2)).value) is Fraction


# ------------------------------------------------------------- arithmetic


def test_exact_rationals():
    assert ev("1/3 + 1/6") == num(Fraction(1, 2))
    assert ev("(2/3) * (9/4)") == num(Fraction(3, 2))
    assert ev("1 - 10/3") == num(Fraction(-7, 3))


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        ev("1 / (2 - 2)")


def test_short_circuit():
    assert ev("False && 1 / 0 == 1") == FALSE
    assert ev("True || 1 / 0 == 1") == TRUE


def test_comparisons_and_strings():
    assert ev('"abc" + "d" == "abcd"') == TRUE
    assert ev('"a" < "b"') == TRUE
    assert ev("-3 <= -3") == TRUE
    with pytest.raises(EvalTypeError):
        ev('1 < "a"')


def test_inequality_and_division_of_variables():
    env = {"a": num(7), "b": num(2)}
    assert ev("a != b", env) == TRUE
    assert ev("a != a", env) == FALSE
    assert ev("a / b", env) == num(Fraction(7, 2))


def test_unary_and_if():
    assert ev("!(1 == 2)") == TRUE
    assert ev("-(2 + 3)") == num(-5)
    assert ev("if 2 > 1 then 10 else 20") == num(10)


def test_time_values():
    env = {"t1": mk_time(1), "t2": mk_time(Fraction(5, 2))}
    assert ev("t1 < t2", env) == TRUE
    assert ev("t2 - t1", env) == mk_duration(Fraction(3, 2))
    assert ev("timeValue(t2)", env) == num(Fraction(5, 2))


def test_now_and_deadline():
    assert ev("now", clock=Fraction(7, 2)) == mk_time(Fraction(7, 2))
    assert ev("deadline", {"deadline": mk_duration(4)}) == mk_duration(4)
    with pytest.raises(UnboundVariableError):
        ev("deadline")


# -------------------------------------------------------- pattern matching


def test_list_functions():
    lst = mk_list([num(1), num(2), num(3)])
    assert call("length", lst) == num(3)
    assert call("head", lst) == num(1)
    assert call("tail", lst) == mk_list([num(2), num(3)])
    assert call("contains", lst, num(2)) == TRUE
    assert call("contains", lst, num(9)) == FALSE


def test_match_failure():
    with pytest.raises(MatchFailureError):
        call("head", DataVal("Nil"))


def test_nullary_ctor_lookup():
    assert ev("Nil == Nil") == TRUE
    assert ev("InfDuration") == INF_DURATION
    with pytest.raises(UnboundVariableError):
        ev("nowhere")


def test_ctor_patterns_bind_arguments():
    prog = program("""
    data Pair<A, B> = Pair(A, B);
    def A fst<A, B>(Pair<A, B> p) = case p { Pair(a, _) => a; };
    """)
    pair = DataVal("Pair", (num(1), StrVal("x")))
    assert call("fst", pair, prog=prog) == num(1)


def test_literal_patterns():
    prog = program("""
    def Int sign(Int n) = case n { 0 => 0; _ => if n > 0 then 1 else -1; };
    """)
    assert call("sign", num(0), prog=prog) == num(0)
    assert call("sign", num(-7), prog=prog) == num(-1)


def test_literal_and_constructor_patterns():
    # one literal of each kind, and a constructor pattern with a literal
    # argument, which the general constructor matcher matches
    prog = program("""
    def Int negative(Int n) = case n { -1 => 1; _ => 0; };
    def Int word(String s) = case s { "a" => 1; _ => 0; };
    def Int flag(Bool b) = case b { True => 1; _ => 0; };
    def Int none(Fut<Int> f) = case f { null => 1; _ => 0; };
    def Int one(List<Int> l) = case l { Cons(1, _) => 1; _ => 0; };
    """)
    for name, hit, miss in [
            ("negative", num(-1), num(1)), ("word", StrVal("a"), StrVal("b")),
            ("flag", TRUE, FALSE), ("none", NULL, FutRef(1)),
            ("one", mk_list([num(1), num(2)]), mk_list([num(2)])),
            ("one", mk_list([num(1)]), DataVal("Nil"))]:
        assert call(name, hit, prog=prog) == num(1), name
        assert call(name, miss, prog=prog) == num(0), name


def test_case_binder_shadows_outer_variable():
    assert ev("case 5 { x => x; }", {"x": num(1)}) == num(5)


def test_failed_branch_leaks_no_binding():
    # the first branch binds x before failing on 3; the second branch
    # must still see the outer x, also inside the second branch of a
    # case that binds x first
    prog = program("data Pair<A, B> = Pair(A, B);")
    for source in (
            "case Pair(1, 2) { Pair(x, 3) => 0; Pair(_, _) => x; }",
            "case Pair(1, 2) { Pair(x, 3) => 0; Pair(_, y) =>"
            " case Pair(y, 2) { Pair(x, 3) => 0; Pair(_, _) => x; }; }"):
        assert ev(source, {"x": num(9)}, prog=prog) == num(9)


def test_function_shadowing_last_wins():
    prog = program("def Int weight(String s) = 42;")
    assert call("weight", StrVal("anything"), prog=prog) == num(42)


def test_call_depth_capped():
    prog = program("def Int loop(Int n) = loop(n + 1);")
    ctx = EvalContext(prog, max_depth=64)
    with pytest.raises(CallDepthError):
        eval_expr(compiled(prog, Apply("loop", (Lit(num(0)),))), {}, ctx)


def test_recursion_within_cap():
    # outside a run, under the caller's recursion limit; runs raise it
    # (`errors.deep_recursion`), so model-level lists go far deeper there
    prog = program("""
    def Int count(Int n) = if n <= 0 then 0 else 1 + count(n - 1);
    """)
    assert call("count", num(100), prog=prog) == num(100)


# -------------------------------------------------- duration algebra oracle
#
# host-side reference semantics: a duration is Fraction | None (infinite)


def lte_oracle(a, b):
    if a is None:
        return b is None
    if b is None:
        return True
    return a <= b


def add_oracle(a, b):
    if a is None or b is None:
        return None
    return a + b


def as_value(d):
    return INF_DURATION if d is None else mk_duration(d)


def random_duration(rng):
    if rng.random() < 0.2:
        return None
    return Fraction(rng.randint(-60, 60), rng.randint(1, 9))


def test_lte_matches_oracle():
    rng = random.Random(7)
    for _ in range(300):
        a, b = random_duration(rng), random_duration(rng)
        got = call("lte", as_value(a), as_value(b))
        assert got == BoolVal(lte_oracle(a, b)), (a, b)


def test_add_matches_oracle():
    rng = random.Random(8)
    for _ in range(300):
        a, b = random_duration(rng), random_duration(rng)
        got = call("add", as_value(a), as_value(b))
        assert got == as_value(add_oracle(a, b)), (a, b)


def test_duration_observers():
    assert call("isInfinite", INF_DURATION) == TRUE
    assert call("isInfinite", mk_duration(3)) == FALSE
    assert call("durationValue", mk_duration(Fraction(3, 2))) == num(Fraction(3, 2))
    with pytest.raises(MatchFailureError):
        call("durationValue", INF_DURATION)


# ------------------------------------------------------------------ errors
#
# (source, env, error type, message, position) of every error the
# evaluator raises; each position is the operator, call, variable or
# keyword the message is about

DEPTH = program("def Int loop(Int n) = loop(n + 1);")

ERROR_CASES = [
    ("x + 1", {}, UnboundVariableError, "unbound variable x", "1:1"),
    ("nope(1)", {}, UnboundVariableError,
     "unknown function or constructor nope", "1:1"),
    ("1 + length(Nil, Nil)", {}, EvalTypeError,
     "length expects 1 argument(s), got 2", "1:5"),
    ("Cons(1)", {}, EvalTypeError,
     "constructor Cons expects 2 argument(s), got 1", "1:1"),
    ("!1", {}, EvalTypeError, "! applied to 1", "1:1"),
    ("-True", {}, EvalTypeError, "- applied to True", "1:1"),
    ("1 && True", {}, EvalTypeError, "&& applied to 1", "1:3"),
    ("True && 1", {}, EvalTypeError, "&& applied to 1", "1:6"),
    ("2 || True", {}, EvalTypeError, "|| applied to 2", "1:3"),
    ("False || 2", {}, EvalTypeError, "|| applied to 2", "1:7"),
    ('1 < "a"', {}, EvalTypeError, '< applied to 1 and "a"', "1:3"),
    ('1 <= "a"', {}, EvalTypeError, '<= applied to 1 and "a"', "1:3"),
    ("t > 1", {"t": mk_time(1)}, EvalTypeError,
     "> applied to Time(1) and 1", "1:3"),
    ("True >= False", {}, EvalTypeError,
     ">= applied to True and False", "1:6"),
    ('1 + "a"', {}, EvalTypeError, '+ applied to 1 and "a"', "1:3"),
    ('"a" - 1', {}, EvalTypeError, '- applied to "a"', "1:5"),
    ("t - 1", {"t": mk_time(1)}, EvalTypeError, "- applied to Time(1)", "1:3"),
    ("2 * True", {}, EvalTypeError, "* applied to True", "1:3"),
    ('1 / "a"', {}, EvalTypeError, '/ applied to "a"', "1:3"),
    ("1 / (2 - 2)", {}, DivisionByZeroError, "division by zero", "1:3"),
    ("if 1 then 2 else 3", {}, EvalTypeError,
     "if condition is 1, not a Bool", "1:1"),
    ("case 1 { 2 => 3; }", {}, MatchFailureError, "no branch matches 1",
     "1:1"),
    ("head(Nil)", {}, MatchFailureError, "no branch matches Nil",
     "<prelude>:53:28"),
]


@pytest.mark.parametrize("source, env, error, message, pos", ERROR_CASES,
                         ids=[case[0] for case in ERROR_CASES])
def test_error_messages_and_positions(source, env, error, message, pos):
    # generated code, and the tree walker that is its reference
    for run in (ev, walk):
        with pytest.raises(error) as info:
            run(source, env)
        assert type(info.value) is error
        assert (info.value.message, str(info.value.pos)) == (message, pos)


def in_function(source, env):
    """Runs of a call of `f`, a function whose body is source and whose
    formals are env's names, with env's values, as generated code and
    under the tree walker; and the text before the body.  The program is
    not checked: a body may be ill-typed on purpose."""
    prefix = "def Int f(" + ", ".join(f"Int {name}" for name in env) + ") = "
    model, _ = load_source(prefix + source + ";\n", "<test>")
    prog = Program.from_model(desugar(model))
    call = Apply("f", tuple(Lit(value) for value in env.values()))
    return ((lambda: eval_expr(compiled(prog, call), {}, EvalContext(prog))),
            (lambda: tree_walker.evaluate(call, {}, EvalContext(prog)))
            ), prefix


@pytest.mark.parametrize("source, env, error, message, pos", ERROR_CASES,
                         ids=[case[0] for case in ERROR_CASES])
def test_error_messages_and_positions_in_a_function_body(
        source, env, error, message, pos):
    # a function body raises what top-level code raises, at the same
    # place in the text
    runs, prefix = in_function(source, env)
    if not pos.startswith("<prelude>"):
        line, col = pos.split(":")
        pos = f"<test>:{line}:{int(col) + len(prefix)}"
    for run in runs:
        with pytest.raises(error) as info:
            run()
        assert type(info.value) is error
        assert (info.value.message, str(info.value.pos)) == (message, pos)


def test_calls_evaluate_their_arguments_left_to_right_before_raising():
    # a call of the wrong arity, or of nothing, raises only once its
    # arguments are evaluated, and a constructor's arguments evaluate
    # before it is built: the first argument that fails decides
    cases = [("length(-True, 1 / 0)", "- applied to True"),
             ("length(1 / 0, -True)", "division by zero"),
             ("nope(1 / 0)", "division by zero"),
             ("Cons(-True)", "- applied to True"),
             ("Cons(1 / 0, -True)", "division by zero"),
             ("Cons(-True, 1 / 0)", "- applied to True")]
    for source, message in cases:
        for run in (lambda: ev(source), lambda: walk(source),
                    *in_function(source, {})[0]):
            with pytest.raises(RtRuntimeError) as info:
                run()
            assert info.value.message == message, source


def test_call_depth_error_names_the_call():
    ctx = EvalContext(DEPTH, max_depth=64)
    with pytest.raises(CallDepthError) as info:
        eval_expr(compiled(DEPTH, parse_expr("1 + loop(0)")), {}, ctx)
    assert info.value.message == "call depth exceeded 64 in loop"
    assert str(info.value.pos) == "<test>:1:23"
    # without the cap, the host stack's limit is reported the same way
    ctx = EvalContext(DEPTH, max_depth=10**9)
    with pytest.raises(CallDepthError) as info:
        eval_expr(compiled(DEPTH, parse_expr("loop(0)")), {}, ctx)
    assert info.value.message == "expression nesting exhausted the host stack"


def test_guard_errors():
    # the compiled waits of an `await` head with one boolean conjunct and
    # of an `await f?` head
    ctx = EvalContext(PRELUDE)
    await_f = SAwait((GFut("f", pos=Pos(3, 7)),))
    wait = PRELUDE.block((await_f,)).code[0].wait
    cases = [
        (compiled(PRELUDE, GBool(parse_expr("1 + 1"), pos=Pos(3, 7))), {},
         EvalTypeError, "guard is 2, not a Bool"),
        (wait, {"f": num(1)}, EvalTypeError, "f? applied to 1, not a future"),
        (wait, {}, UnboundVariableError, "unbound variable f"),
    ]
    for code, env, error, message in cases:
        with pytest.raises(error) as info:
            eval_guard(code, env, ctx)
        assert type(info.value) is error
        assert (info.value.message, info.value.pos) == (message, Pos(3, 7))


def test_each_raise_is_a_fresh_error():
    # the engine writes where an error arose into the error itself, so
    # code that raises twice must not raise the same object
    code = compiled(PRELUDE, parse_expr("nope(1)"))
    errors = []
    for _ in range(2):
        with pytest.raises(UnboundVariableError) as info:
            eval_expr(code, {}, EvalContext(PRELUDE))
        errors.append(info.value)
    assert errors[0] is not errors[1]

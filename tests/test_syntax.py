"""Front end: lexer, parser, renderer round-trip, checker, desugar."""

import dataclasses
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rtabs import (
    LexError, ParseError, RtabsError, load_source, nodes, parse_expr,
    parse_model,
)
from rtabs.desugar import desugar
from rtabs.lexer import tokenize
from rtabs.nodes import (
    BINARY_PRECEDENCE, Apply, BinOp, GBool, GDuration, GFut, Lit, Node, Pos,
    RCall, RGet, SAssign, SAwait, SDuration, SReturn, Var,
)
from rtabs.prelude import prelude_model
from rtabs.pretty import render_expr, render_model
from rtabs.values import UNIT, NumVal

import reference_executor as ref

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


# ------------------------------------------------------------------- lexer


def test_rational_literal_fuses():
    tokens = tokenize("7/2")
    assert [t.kind for t in tokens] == ["rat", "eof"]
    assert tokens[0].value == Fraction(7, 2)


def test_division_with_spaces_stays_three_tokens():
    tokens = tokenize("7 / 2")
    assert [t.kind for t in tokens] == ["int", "op", "int", "eof"]


def test_keywords_vs_names():
    kinds = {t.text: t.kind for t in tokenize("await awaiting duration durations")}
    assert kinds["await"] == "kw"
    assert kinds["awaiting"] == "name"
    assert kinds["duration"] == "kw"
    assert kinds["durations"] == "name"


def test_string_escapes():
    tokens = tokenize(r'"a\"b\\c\n"')
    assert tokens[0].value == 'a"b\\c\n'


def test_comments_skipped():
    tokens = tokenize("1 // line\n/* block\nstill */ 2")
    assert [t.kind for t in tokens] == ["int", "int", "eof"]


def test_lex_errors():
    with pytest.raises(LexError):
        tokenize('"unterminated')
    with pytest.raises(LexError):
        tokenize("1/0")
    with pytest.raises(LexError):
        tokenize("#")


def lexed(source):
    return [(t.kind, t.text, str(t.pos)) for t in tokenize(source, "f")]


def test_lex_positions_across_comments_tabs_and_crlf():
    source = "a // x\r\n\tb /* one\ntwo\n */ c\r\n  /**/d\n"
    assert lexed(source) == [
        ("name", "a", "f:1:1"), ("name", "b", "f:2:2"), ("name", "c", "f:4:5"),
        ("name", "d", "f:5:7"), ("eof", "", "f:6:1")]


def test_lex_error_messages_and_positions():
    for source, message in [
            ('x = "ab\ncd"', 'f:1:5: unterminated string literal'),
            ('  "ab', 'f:1:3: unterminated string literal'),
            ('"a\\', 'f:1:1: unterminated string literal'),
            ('\n "ab\\qc"', 'f:2:5: unknown escape \\q'),
            ("1 /* a\n b", "f:1:3: unterminated block comment"),
            ("x\n  007/00", "f:2:3: zero denominator in rational literal"),
            ("\t x # y", "f:1:5: unexpected character '#'"),
            ("a$b", "f:1:2: unexpected character '$'")]:
        with pytest.raises(LexError) as err:
            tokenize(source, "f")
        assert str(err.value) == message, source


def test_lex_number_and_underscore_texts():
    tokens = tokenize("007/010 007 _ _x __")
    assert [(t.kind, t.text, t.value) for t in tokens[:-1]] == [
        ("rat", "7/010", Fraction(7, 10)), ("int", "7", Fraction(7)),
        ("op", "_", None), ("name", "_x", None), ("name", "__", None)]


def test_lex_unicode_letters_and_digits():
    assert lexed("é ٣ x٣ ٣/٤") == [
        ("name", "é", "f:1:1"), ("int", "3", "f:1:3"), ("name", "x٣", "f:1:5"),
        ("rat", "3/٤", "f:1:8"), ("eof", "", "f:1:11")]
    assert tokenize("٣/٤")[0].value == Fraction(3, 4)


def test_lex_longest_operator_match():
    assert [t.text for t in tokenize("a<=b=>c==d&&e")][:-1] == [
        "a", "<=", "b", "=>", "c", "==", "d", "&&", "e"]
    assert [t.text for t in tokenize("< = = > = =")][:-1] == [
        "<", "=", "=", ">", "=", "="]
    with pytest.raises(LexError):  # `&` stands only in `&&`
        tokenize("a & & b")
    assert [t.text for t in tokenize("<==>=!=||")][:-1] == [
        "<=", "=>", "=", "!=", "||"]


def test_lex_token_stream_of_prelude_and_models_is_pinned():
    from rtabs.prelude import prelude_source
    sources = [("prelude.rtabs", prelude_source())] + [
        (path.name, path.read_text(encoding="utf-8"))
        for path in sorted(MODELS_DIR.glob("*.rtabs"))]
    digest = hashlib.sha256()
    count = 0
    for name, source in sources:
        for t in tokenize(source, name):
            digest.update(repr((t.kind, t.text, t.value, str(t.pos))).encode())
            digest.update(b"\n")
            count += 1
    assert (len(sources), count) == (10, 5812)
    assert digest.hexdigest() == (
        "c51d039e88cd6172971c611d7a791b0a132ab1a0222c7f2dce90aed6bc137f9c")


# ------------------------------------------------------------------ parser


def test_expression_precedence():
    expr = parse_expr("1 + 2 * 3 == 7 && True")
    assert isinstance(expr, BinOp) and expr.op == "&&"
    left = expr.left
    assert isinstance(left, BinOp) and left.op == "=="
    assert isinstance(left.left, BinOp) and left.left.op == "+"


def test_await_guard_forms():
    model = parse_model("""
    interface I { Bool m(); }
    class C implements I {
      Bool m() {
        Fut<Bool> f;
        await f? && duration(1, 2) && cnt > 0;
        return True;
      }
      Int cnt = 0;
    }
    """)
    body = model.classes[0].methods[0].body
    guards = body[1].guards
    assert [type(g) for g in guards] == [GFut, GDuration, GBool]


def test_named_ctor_args_are_documentation():
    model = parse_model("data Log = Log(String job, Time at, Duration left);")
    ctor = model.datatypes[0].ctors[0]
    assert [t.name for t in ctor.arg_types] == ["String", "Time", "Duration"]


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_model("class C { Unit m() { skip } }")
    assert str(err.value).startswith("1:")
    with pytest.raises(ParseError) as err:
        parse_model("def Int f() = ;", "m.rtabs")
    assert str(err.value).startswith("m.rtabs:1:")
    with pytest.raises(ParseError) as err:
        parse_model("[Deadline: Duration(1)] { skip; }")
    assert str(err.value) == "1:25: unexpected '{' (expected class)"
    # an error after a declaration's `Type name` is reported as it is
    for source, message in [
            ("{ [Deadline: Duration(1)] I o = new C(); }",
             "1:33: annotation Deadline is not allowed on new"),
            ("{ [Deadline: Duration(1)] o = new C(); }",
             "1:31: annotation Deadline is not allowed on new"),
            ("{ Int x = 1 +; }", "1:14: unexpected ';' in expression")]:
        with pytest.raises(ParseError) as err:
            parse_model(source)
        assert str(err.value) == message, source


def test_guard_atoms_inside_expressions_rejected():
    # call arguments and case branches are parsed without guard atoms, so
    # a `?` there is a syntax error; under an operator, an atom parses
    # and is then rejected where it stands
    for source, message in [
            ("{ await f(x?); }", "1:12: unexpected '?' (expected ))"),
            ("{ await case x { _ => y? }; }", "1:24: unexpected '?' (expected ;)"),
            ("{ await -x?; }", "1:11: future and duration guards cannot "
                               "appear inside expressions")]:
        with pytest.raises(ParseError) as err:
            parse_model(source)
        assert str(err.value) == message, source


def test_duplicate_annotations_rejected():
    for source, message in [
            ("{ [Deadline: Duration(1), Deadline: Duration(2)] o!m(); }",
             "1:27: duplicate annotation Deadline"),
            ("{ [Scheduler: fifo(queue), Scheduler: edf(queue)] I o = new C(); }",
             "1:28: duplicate annotation Scheduler"),
            ("class C { [Cost: Duration(1)] [Cost: Duration(2)] Unit m() { } }",
             "1:32: duplicate annotation Cost"),
            ("[Scheduler: fifo(queue)] [Scheduler: edf(queue)] class C { }",
             "1:27: duplicate annotation Scheduler")]:
        with pytest.raises(ParseError) as err:
            parse_model(source)
        assert str(err.value) == message, source


def test_annotated_class_vs_annotated_main_statement():
    model = parse_model("""
    interface I { Unit m(); }
    [Scheduler: fifo(queue)] class C implements I { Unit m() { skip; } }
    { I x = new C(); [Deadline: Duration(3)] x!m(); }
    """)
    assert ("Scheduler" in [n for n, _ in model.classes[0].annots])
    assert model.main is not None
    assert desugar(model).classes[0].scheduler is not None


def test_deadline_as_function_name_and_expression():
    model = parse_model("""
    data Duration = Duration(Rat) | InfDuration;
    data Process = P;
    def Duration deadline(Process p) = InfDuration;
    class C { Unit m() { Duration d = deadline; skip; } }
    """)
    assert model.functions[0].name == "deadline"
    assert model.classes[0].methods[0].body[0].rhs.expr == Var("deadline")
    for name in ("this", "destiny"):
        assert parse_expr(name) == Var(name)
        with pytest.raises(ParseError):  # only declared names take `?`
            parse_model(f"class C {{ Unit m() {{ await {name}?; }} }}")


# -------------------------------------------------------------- round trip


def render_parse_round_trip(source):
    model = parse_model(source)
    again = parse_model(render_model(model))
    assert again == model


def test_round_trip_models():
    for path in sorted(MODELS_DIR.glob("*.rtabs")):
        render_parse_round_trip(path.read_text())
    # guards however nested, and boolean conjuncts looser than &&
    render_parse_round_trip("""
    class C {
      Unit m() { await x? && (y? && True); await x? && (a || b) && y?; }
    }
    """)
    for seed in range(200):
        render_parse_round_trip(ref.generate_model(seed)[1])


def test_round_trip_prelude():
    from rtabs.prelude import prelude_source
    render_parse_round_trip(prelude_source())


def test_round_trip_tricky_expressions():
    sources = ["a - (b - c)", "-(x + 1) * 2", "!(a || b) && c",
               "if a then b else c + 1",
               'case l { Nil => 0; Cons(h, _) => h; }']
    for o1, p1 in BINARY_PRECEDENCE.items():
        for o2, p2 in BINARY_PRECEDENCE.items():
            src = f"a {o1} b {o2} c"
            expr = parse_expr(src)
            if p1 >= p2:  # groups to the left
                assert expr == BinOp(o2, BinOp(o1, Var("a"), Var("b")),
                                     Var("c")), src
            else:
                assert expr == BinOp(o1, Var("a"),
                                     BinOp(o2, Var("b"), Var("c"))), src
            sources.append(src)
    for src in sources:
        expr = parse_expr(src)
        assert parse_expr(render_expr(expr)) == expr, src


# ----------------------------------------------------------------- checker


def check(source):
    _, diags = load_source(source, "<test>")
    return [d.message for d in diags]


def test_lex_crashes_are_lex_errors():
    # `²` is a digit to str.isdigit but not a decimal digit
    with pytest.raises(LexError) as err:
        load_source("{ Int x = 2²; }", "m.rtabs")
    assert str(err.value) == "m.rtabs:1:12: unexpected character '²'"
    if hasattr(sys, "get_int_max_str_digits"):  # Python 3.11 and later
        too_long = "1" * (sys.get_int_max_str_digits() + 1)
        for literal in (too_long, f"1/{too_long}"):
            with pytest.raises(LexError) as err:
                load_source(f"{{ Int x = {literal}; }}", "m.rtabs")
            assert str(err.value) == "m.rtabs:1:11: numeric literal too long"


def nested(depth):
    return "{ Int x = " + "(" * depth + "1" + ")" * depth + "; }"


def test_front_end_nesting_is_reported():
    for source in (nested(200), "{ Int x = 1" + " + 1" * 1200 + "; }"):
        with pytest.raises(RtabsError) as err:
            load_source(source, "m.rtabs")
        assert str(err.value) == (
            "m.rtabs: expression nesting exhausted the host stack")
    # what parsed before still parses
    assert check(nested(150)) == []
    assert check("{ Int x = 1" + " + 1" * 150 + "; }") == []


def test_clean_models_have_no_diagnostics():
    for path in sorted(MODELS_DIR.glob("*.rtabs")):
        assert check(path.read_text()) == [], path.name


def test_reserved_names_rejected():
    msgs = check("class C { Unit m() { Int method = 1; skip; } }")
    assert any("reserved" in m for m in msgs)
    msgs = check("class C { Unit m(Int arrival) { skip; } }")
    assert any("reserved" in m for m in msgs)
    # both assignment forms share one set of target rules
    for stmt in ("cost = o.m();", "await cost = o.m();"):
        msgs = check("interface I { Int m(); } class C implements I "
                     f"{{ Int m() {{ I o = this; {stmt} return 1; }} }}")
        assert msgs == ["cannot assign to reserved variable cost"], stmt


def test_value_assignable_only_in_methods():
    assert check("class C { Unit m() { value = 3; skip; } }") == []
    msgs = check("def Int f(Int x) = queue;")
    assert any("queue" in m for m in msgs)


def test_unknown_names_reported():
    msgs = check("class C { Unit m() { x = 1; } }")
    assert any("unknown variable x" in m for m in msgs)
    msgs = check("{ Foo f = new Bar(); }")
    assert any("unknown type Foo" in m for m in msgs)
    assert any("unknown class Bar" in m for m in msgs)


def test_interface_completeness():
    msgs = check("interface I { Unit m(); } class C implements I { }")
    assert any("does not define m" in m for m in msgs)


KEYWORD_MISUSE_SRC = """\
def Int f(Int x) = if this == null then x else 0;
def Duration g(Int x) = deadline;
def Int h(Int x) = destiny;
interface I { Unit m(Int c); }
[Scheduler: if deadline == InfDuration then default(queue) else default(queue)]
class C implements I {
  Int k = 0;
  Fut<Int> z = destiny;
  [Cost: Duration(c) + deadline]
  Unit m(Int c) { Duration d = deadline; I me = this; await destiny == destiny; }
}
{ I o = new C(); Duration d = deadline; o!m(1); }
"""


def test_keyword_misuse_diagnostics():
    _, diags = load_source(KEYWORD_MISUSE_SRC)
    only = "is only available in method bodies"
    assert [(str(d.pos), d.message) for d in diags] == [
        ("1:23", "this is not available here"),
        ("2:25", f"deadline {only}"),
        ("3:20", f"destiny {only}"),
        ("8:16", f"destiny {only}"),
        ("5:16", f"deadline {only}"),
        ("9:24", f"deadline {only}"),
    ]


def test_annotation_placement():
    msgs = check("class C { [Deadline: Duration(1)] Unit m() { skip; } }")
    assert any("not allowed on a method" in m for m in msgs)


# ----------------------------------------------------------------- desugar


def test_sync_call_lowering():
    model = desugar(parse_model("""
    interface I { Int m(); }
    class C implements I { Int m() { return 1; } }
    { I o = new C(); Int x = o.m(); }
    """))
    stmts = model.main
    call, read = stmts[1], stmts[2]
    assert isinstance(call.rhs, RCall) and call.name.startswith("$t")
    assert isinstance(read.rhs, RGet)
    assert call.rhs.annots.deadline is not None
    assert call.rhs.annots.critical is not None


def test_await_call_lowering():
    model = desugar(parse_model("""
    interface I { Int m(); }
    class C implements I { Int m() { return 1; } }
    { I o = new C(); await Int x = o.m(); }
    """))
    kinds = [type(s).__name__ for s in model.main]
    assert kinds == ["SAssign", "SAssign", "SAwait", "SAssign", "SReturn"]
    assert isinstance(model.main[2], SAwait)


def test_fire_and_forget_gets_fresh_future():
    model = desugar(parse_model("""
    interface I { Unit m(); }
    class C implements I { Unit m() { skip; } }
    { I o = new C(); o!m(); o!m(); }
    """))
    names = [s.name for s in model.main if isinstance(s, SAssign)
             and isinstance(s.rhs, RCall)]
    assert len(names) == 2 and names[0] != names[1]
    assert all(n.startswith("$t") for n in names)


def test_implicit_return_unit():
    model = desugar(parse_model("class C { Unit m() { skip; } } { skip; }"))
    method_body = model.classes[0].methods[0].body
    assert isinstance(method_body[-1], SReturn)
    assert method_body[-1].expr == Lit(UNIT)
    assert isinstance(model.main[-1], SReturn)


def test_init_body_from_fields_and_run():
    model = desugar(parse_model("""
    class C { Int x = 5; Unit run() { skip; } }
    """))
    cd = model.classes[0]
    assert cd.init_body is not None
    first = cd.init_body[0]
    assert isinstance(first, SAssign) and first.name == "x"
    run_call = cd.init_body[1]
    assert isinstance(run_call.rhs, RCall) and run_call.rhs.method == "run"
    assert "init" not in [m.name for m in cd.methods]


def test_default_cost_and_scheduler():
    model = desugar(parse_model("""
    class C { Unit m() { skip; } }
    { C c = new C(); }
    """))
    assert model.classes[0].methods[0].cost is not None
    new_stmt = model.main[0]
    assert new_stmt.rhs.scheduler == Apply("default", (Var("queue"),))


def test_class_scheduler_flows_to_new():
    source = """
    [Scheduler: fifo(queue)] class C { Unit m() { skip; } }
    { C c = new C(); }
    """
    parsed = parse_model(source)
    model = desugar(parsed)
    sched = model.main[0].rhs.scheduler
    assert isinstance(sched, Apply) and sched.name == "fifo"
    # desugar builds a new tree and leaves its input as parsed
    assert parsed.main[0].rhs.scheduler is None
    assert parsed == parse_model(source)
    assert desugar(model) == model


def test_desugar_idempotent():
    source = (MODELS_DIR / "media_server_sjf.rtabs").read_text()
    model = desugar(parse_model(source))
    assert desugar(model) == model


def test_cost_annotation_kept():
    model = desugar(parse_model("""
    class C { [Cost: Duration(wc)] Unit m(Rat wc) { skip; } }
    """))
    cost = model.classes[0].methods[0].cost
    assert isinstance(cost, Apply) and cost.name == "Duration"


# ---------------------------------------------------------- immutability


def _lists_in(node, path="model"):
    """Paths of every list reachable through node fields and tuples."""
    if isinstance(node, list):
        return [path]
    if isinstance(node, tuple):
        return [p for i, item in enumerate(node)
                for p in _lists_in(item, f"{path}[{i}]")]
    if isinstance(node, Node):
        return [p for name in node._fields
                for p in _lists_in(getattr(node, name), f"{path}.{name}")]
    return []


def test_syntax_trees_are_immutable():
    defined = [c for c in vars(nodes).values()
               if isinstance(c, type) and issubclass(c, Node)
               and c.__module__ == nodes.__name__ and c._fields]
    assert len(defined) > 40
    assert [c.__name__ for c in defined
            if c.__setattr__ is not Node.__setattr__
            or c.__delattr__ is not Node.__delattr__] == []
    trees = [prelude_model(), desugar(prelude_model())]
    for path in sorted(MODELS_DIR.glob("*.rtabs")):
        model, diags = load_source(path.read_text(), path.name)
        assert not diags, path.name
        trees += [model, desugar(model)]
    assert len(trees) == 20  # the prelude and 9 models, each parsed and desugared
    for tree in trees:
        assert _lists_in(tree) == []


def _node_classes(base=Node):
    for cls in base.__subclasses__():
        if cls.__module__.startswith("rtabs."):
            yield cls
        yield from _node_classes(cls)


NODE_CLASSES = sorted(set(_node_classes()),
                      key=lambda cls: (cls.__module__, cls.__qualname__))


def _as_dataclass(cls):
    """The frozen dataclass that `cls` stands in for: the same fields, with
    `pos` neither compared nor shown."""
    return dataclasses.make_dataclass(cls.__qualname__, [
        (name, object, dataclasses.field(default=None, compare=False, repr=False))
        if name == "pos" else (name, object) for name in cls._fields],
        frozen=True)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__qualname__)
def test_nodes_keep_the_frozen_dataclass_contract(cls):
    keys = {name: f"<{name}>" for name in cls._fields if name != "pos"}
    at = {"pos": Pos(1, 2, "m.rtabs")} if "pos" in cls._fields else {}
    node = cls(**keys, **at)
    twin = _as_dataclass(cls)(**keys, **at)
    assert repr(node) == repr(twin)
    assert node == cls(*(keys.get(name) for name in cls._fields if name in keys))
    if at:
        moved = cls(**keys, pos=Pos(7, 1))
        assert node == moved and hash(node) == hash(moved)
    for name in keys:
        assert node != cls(**{**keys, name: "other"}, **at)
    other = type("Other", (Node,), {"__annotations__": dict.fromkeys(cls._fields)})
    assert node != other(**keys, **at) and other(**keys, **at) != node
    assert node != twin
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    required = [name for name in cls._fields if name not in cls._defaults]
    if required:
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*keys.values(), **{required[0]: None})
    with pytest.raises(TypeError):
        cls(**keys, no_such_field=None)
    with pytest.raises(TypeError):
        cls(*range(len(cls._fields) + 1))
    defaulted = cls(**{name: keys.get(name) for name in required})
    assert all(getattr(defaulted, name) == default
               for name, default in cls._defaults.items())


def test_node_repr_and_equality_examples():
    one = NumVal(Fraction(1))
    assert repr(Lit(one, pos=Pos(3, 4))) == "Lit(value=NumVal(value=Fraction(1, 1)))"
    assert repr(Pos(3, 4)) == "Pos(line=3, col=4, file=None)"
    assert Pos(3, 4) != Pos(3, 4, "m.rtabs")
    assert SDuration(Lit(one), Lit(one)) != GDuration(Lit(one), Lit(one))
    assert {Var("x", pos=Pos(1, 1)): 1}[Var("x")] == 1

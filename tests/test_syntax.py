"""Front end: lexer, parser, renderer round-trip, checker, desugar."""

import dataclasses
import hashlib
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rtabs import (
    LexError, ParseError, RtabsError, load_source, nodes, parse_expr,
    parse_model,
)
from rtabs.desugar import desugar
from rtabs.errors import deep_recursion
from rtabs.lexer import tokenize
from rtabs.nodes import (
    BINARY_PRECEDENCE, Apply, BinOp, GBool, GDuration, GFut, Lit, Node, Pos,
    RCall, RGet, SAssign, SAwait, SDuration, SIf, SReturn, Var,
)
from rtabs.parser import NESTING_LIMIT
from rtabs.prelude import prelude_model
from rtabs.pretty import render_expr, render_model
from rtabs.values import UNIT, NumVal

import reference_executor as ref
from conftest import CLI_ENV, nested_sources, other_interpreters

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
    assert model.classes[0].scheduler == Apply("fifo", (Var("queue"),))
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


# parses each model file named on the command line twice; the two trees
# must be equal and hash alike
NODE_COMPARE = """\
import sys
from rtabs.errors import deep_recursion
from rtabs.parser import parse_model
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    with deep_recursion():
        model, again = parse_model(source), parse_model(source)
        assert again == model and hash(again) == hash(model), path
"""


def test_else_if_is_an_if_in_the_else_block():
    source = ("{ Int x = 2; if x == 1 { x = 10; } else if x == 2 { x = 20; }"
              " else { x = 30; } }")
    outer = parse_model(source).main[1]
    assert isinstance(outer, SIf) and len(outer.els) == 1
    inner = outer.els[0]
    assert isinstance(inner, SIf) and inner.cond == parse_expr("x == 2")
    assert len(inner.then) == len(inner.els) == 1
    render_parse_round_trip(source)


def test_round_trip_literal_patterns_and_bare_declarations():
    render_parse_round_trip("""
    def Int f(Rat n) = case n { -1 => 0; -1/2 => 1; "a" => 2; True => 3;
                                null => 4; Cons(1, _) => 5; _ => 6; };
    class C { Unit m() { Int x; Fut<Int> g; await Int y = this.n(); } }
    """)


def test_deep_models_compare_across_interpreters(tmp_path):
    # comparing or hashing a tree as deep as the nesting limit must
    # recurse through Python calls only, under each interpreter alike.
    # Two parses stand in for a render round trip: rendered, the blocks
    # model indents each of its 10,000 levels and runs to some 200 MB
    paths = []
    for k, source in enumerate(nested_sources(NESTING_LIMIT)):
        paths.append(tmp_path / f"m{k}.rtabs")
        paths[-1].write_text(source, encoding="utf-8")
    others, skipped = other_interpreters((3, 11))
    for exe in [sys.executable, *others.values()]:
        res = subprocess.run([exe, "-c", NODE_COMPARE, *map(str, paths)],
                             capture_output=True, text=True, env=CLI_ENV)
        assert res.returncode == 0, (exe, f"did not start: {skipped}",
                                     res.stderr[-500:])


def test_deeply_nested_blocks_round_trip():
    # rendering appends each level's text to one list, so 2,000 nested
    # `if` blocks take a fraction of a second, not the half minute that
    # copying every deeper level's text at each level took
    with deep_recursion():
        model = parse_model(nested_sources(2000)[2])
        assert parse_model(render_model(model)) == model


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


def negated(depth):
    return "{ Int x = " + "- " * depth + "1; }"


def test_front_end_nesting_is_reported():
    # the main block and the initialiser of `x` are the first two levels,
    # so the innermost `1` is one level past the limit at NESTING_LIMIT - 1
    # parentheses or unary operators
    for deep in (nested, negated):
        source = deep(NESTING_LIMIT - 1)
        with pytest.raises(ParseError) as err:
            load_source(source, "m.rtabs")
        assert str(err.value) == (
            f"m.rtabs:1:{source.index('1') + 1}: "
            f"nesting deeper than {NESTING_LIMIT} levels")
        assert check(deep(NESTING_LIMIT - 2)) == []
    assert check(nested(500)) == []
    assert check("{ Int x = 1" + " + 1" * 1000 + "; }") == []


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


# a class to call and create, and a function to apply, for the rows below
UNKNOWN_NAME_DECLS = ("interface I { Int m(Int a); } "
                      "class C(Int p) implements I { Int m(Int a) { return a; } } "
                      "def Int f(Int x) = x; ")

# one row per expression position, each with `zz` standing there
UNKNOWN_NAME_ROWS = [
    # statements
    "{ if (zz) { skip; } }",
    "{ while (zz) { skip; } }",
    "{ return zz; }",
    "{ duration(zz, 1); }",
    "{ duration(1, zz); }",
    "{ await duration(zz, 1); }",
    "{ await duration(1, zz); }",
    "{ await True && zz; }",
    "{ Int x = 0; x = zz; }",
    "{ zz = 1; }",
    "{ Int x = zz.get; }",
    # calls, in the `!`, `.` and await-call forms
    "{ zz!m(1); }",
    "{ I o = new C(1); o!m(zz); }",
    "{ I o = new C(1); [Deadline: zz] o!m(1); }",
    "{ I o = new C(1); [Critical: zz] o!m(1); }",
    "{ Int x = zz.m(1); }",
    "{ I o = new C(1); Int x = o.m(zz); }",
    "{ I o = new C(1); [Deadline: zz] Int x = o.m(1); }",
    "{ I o = new C(1); [Critical: zz] Int x = o.m(1); }",
    "{ await Int x = zz.m(1); }",
    "{ I o = new C(1); await Int x = o.m(zz); }",
    "{ I o = new C(1); [Deadline: zz] await Int x = o.m(1); }",
    "{ I o = new C(1); [Critical: zz] await Int x = o.m(1); }",
    # objects, and the other annotated expressions
    "{ I o = new C(zz); }",
    "[Scheduler: zz] class D { }",
    "{ [Scheduler: zz] I o = new C(1); }",
    "class D { [Cost: zz] Unit n() { skip; } }",
    "class D { Int k = zz; }",
    "def Int g(Int x) = zz;",
    # expressions
    "def Int g(Int x) = case zz { _ => 1; };",
    "def Int g(Int x) = case x { _ => zz; };",
    "def Int g(Int x) = zz + 1;",
    "def Int g(Int x) = 1 + zz;",
    "def Int g(Int x) = -zz;",
    "def Int g(Int x) = if zz then 1 else 2;",
    "def Int g(Int x) = if True then zz else 2;",
    "def Int g(Int x) = if True then 1 else zz;",
    "def Int g(Int x) = f(zz);",
    "def List<Int> g(Int x) = Cons(zz, Nil);",
]


def test_unknown_names_reported():
    # no expression position goes unchecked
    for row in UNKNOWN_NAME_ROWS:
        source = UNKNOWN_NAME_DECLS + row
        _, diags = load_source(source, "<test>")
        at = f"<test>:1:{source.index('zz') + 1}"
        assert [(str(d.pos), d.message) for d in diags] == [
            (at, "unknown variable zz")], row


def test_declarations_stay_in_their_block():
    # a name declared in a branch or a loop body is not in scope after
    # it, nor in the other branch; one declared before stays in reach
    for source in (
            "{ Bool c = False; if (c) { Int x = 1; } else { skip; } x = 2; }",
            "{ Bool c = False; if (c) { skip; } else { Int x = 1; } x = 2; }",
            "{ Bool c = False; if (c) { Int x = 1; } else { x = 2; } }",
            "{ Bool c = False; while (c) { Int x = 1; c = False; } x = 2; }"):
        _, diags = load_source(source, "<test>")
        at = f"<test>:1:{source.rindex('x = 2') + 1}"
        assert [(str(d.pos), d.message) for d in diags] == [
            (at, "unknown variable x")], source
    assert check("{ Int x = 0; Bool c = True; if (c) { x = 1; } "
                 "while (c) { x = 2; c = False; } x = 3; }") == []


def test_unknown_types_and_classes_reported():
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


DECLARATION_ERRORS_SRC = """\
data D = A | B(Int);
data D = E;
data F = A;
data Pair<X, Y> = Pair(X, Y);
interface I { Unit n(); }
interface I { Unit m(Int x); }
class C { }
class C(Int p, Int p) implements I {
  Int k = 0;
  Int k = 1;
  Unit m() { skip; }
  Unit m() { skip; }
}
def Int f(D d) = case d { B(value) => 0; B(x, y) => 1; G(z) => 2; B => 3; _ => 4; };
def Int g(Pair<Int, Int> q) = case q { Pair(v, v) => v; };
{ I o = new C(1); }
"""


def test_declaration_and_pattern_diagnostics():
    # each duplicate declaration, arity mismatch and pattern error; the
    # later of two declarations of a name is the one reported, and the one
    # that counts
    _, diags = load_source(DECLARATION_ERRORS_SRC, "<test>")
    assert [d.render() for d in diags] == [
        "<test>:2:1: error: duplicate datatype D",
        "<test>:3:10: error: constructor A declared more than once",
        "<test>:6:1: error: duplicate interface I",
        "<test>:8:1: error: duplicate class C",
        "<test>:14:29: error: value is a reserved name",
        "<test>:14:42: error: constructor B expects 1 argument(s), got 2",
        "<test>:14:56: error: unknown constructor G",
        "<test>:14:67: error: constructor B expects 1 argument(s)",
        "<test>:15:48: error: duplicate binder v in pattern",
        "<test>:8:16: error: duplicate parameter p",
        "<test>:10:3: error: duplicate attribute k",
        "<test>:12:3: error: duplicate method m in class C",
        "<test>:11:3: error: method m in C has 0 parameter(s), I declares 1",
        "<test>:16:9: error: class C expects 2 argument(s), got 1",
    ]


# what a mutant puts in place of a name: the names the checker resolves
# by context, constructors, prelude functions and unknown names
MUTANT_NAMES = (
    "this", "now", "deadline", "destiny", "queue", "value", "method", "cost",
    "arrival", "critical", "Nil", "Cons", "Duration", "InfDuration", "Unit",
    "head", "length", "edf", "schedulerH", "zz", "q1")


def name_mutants(sources, count, rng):
    """`count` mutants of `sources`, each with 1 or 2 name tokens
    replaced by names drawn from MUTANT_NAMES."""
    spans = []  # per source, the (offset, length) of each name token
    for source in sources:
        starts = [0]
        for line in source.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        spans.append([(starts[t.pos.line - 1] + t.pos.col - 1, len(t.text))
                      for t in tokenize(source) if t.kind == "name"])
    mutants = []
    while len(mutants) < count:
        index = rng.randrange(len(sources))
        source, names = sources[index], spans[index]
        if not names:
            continue
        picked = rng.sample(names, min(len(names), rng.randint(1, 2)))
        for offset, length in sorted(picked, reverse=True):
            source = (source[:offset] + rng.choice(MUTANT_NAMES)
                      + source[offset + length:])
        mutants.append(source)
    return mutants


def test_check_diagnostics_are_pinned():
    # the rendered diagnostics, or the error, of every source below; a
    # change to how names resolve changes the digest
    models = [path.read_text(encoding="utf-8")
              for path in sorted(MODELS_DIR.glob("*.rtabs"))]
    generated = [ref.generate_model(seed)[1] for seed in range(200)]
    bases = models + generated + [KEYWORD_MISUSE_SRC]
    sources = [""] + bases + name_mutants(bases, 600, random.Random(20))
    digest = hashlib.sha256()
    parsed = flagged = 0
    for number, source in enumerate(sources):
        try:
            _, diags = load_source(source, f"<src-{number}>")
        except RtabsError as exc:
            lines = [f"{type(exc).__name__}: {exc}"]
        else:
            parsed += 1
            flagged += bool(diags)
            lines = [d.render() for d in diags]
        digest.update("\n".join(lines + [""]).encode())
    assert (len(sources), parsed, flagged) == (811, 636, 357)
    assert digest.hexdigest() == (
        "2b53e7c85c5ef9ed5a7afeddcdcc76007700f26a7d0bedd6cf970d8f9a936dca")


def test_annotation_placement():
    # the parser rejects a misplaced annotation where its expression begins
    for source, message in [
            ("class C { [Deadline: Duration(1)] Unit m() { skip; } }",
             "<test>:1:22: annotation Deadline is not allowed on a method"),
            ("[Cost: Duration(1)] class C { }",
             "<test>:1:8: annotation Cost is not allowed on a class")]:
        with pytest.raises(ParseError) as err:
            check(source)
        assert str(err.value) == message, source


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

r"""Tokenizer for model source: each token is the first alternative of
`_TOKEN` to match where the last one ended.

    skip    [ \t\r\n]+ | //[^\n]* | /\*.*?\*/
    open    /\*              (an unterminated block comment)
    num     \d+(?:/\d+)?     int; rat when `/` joins digits, so 15/4 is one literal
    word    \w+              kw, name or `_`; starts with a letter or `_`
    string  "(?:[^"\\\n]|\\[\\"nt])*"   or an error where it stops short
    op      OPERATORS, longest first

`\d` is `str.isdecimal`, so `٣` lexes as 3.  `$` is kept for desugar
temporaries.  A tab or `\r` is one column.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction

from .errors import LexError
from .nodes import Pos

KEYWORDS = set("""data def interface class implements if then else while
    return skip suspend await duration new get case this now deadline
    destiny null True False""".split())

# longest first so two-char operators win
OPERATORS = "== != <= >= && || => ( ) { } [ ] < > , ; : = ! ? . + - * / | _".split()

_TOKEN = re.compile("|".join([
    r"(?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)", r"(?P<open>/\*)",
    r"(?P<num>(?P<numer>\d+)(?:/(?P<denom>\d+))?)", r"(?P<word>\w+)",
    r'(?P<string>"(?:[^"\\\n]|\\[\\"nt])*(?:(?P<close>")|\\(?P<esc>.))?)',
    "(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")"]), re.DOTALL)
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_ERRORS = {"open": "unterminated block comment",
           "string": "unterminated string literal"}


class Token:
    __slots__ = ("kind", "text", "pos", "value")

    def __init__(self, kind: str, text: str, pos: Pos, value: object = None):
        self.kind = kind  # name | int | rat | string | kw | op | eof
        self.text = text
        self.pos = pos
        self.value = value


def _number(m: re.Match, at: Pos) -> Token:
    try:
        numer, denom = int(m["numer"]), int(m["denom"] or 1)
    except ValueError:  # more digits than int() accepts
        raise LexError("numeric literal too long", at) from None
    if denom == 0:
        raise LexError("zero denominator in rational literal", at)
    if m["denom"] is None:
        return Token("int", str(numer), at, Fraction(numer))
    return Token("rat", f"{numer}/{m['denom']}", at, Fraction(numer, denom))


def tokenize(source: str, filename: str | None = None) -> list[Token]:
    starts = [0] + [m.end() for m in re.finditer("\n", source)]

    def pos(offset: int) -> Pos:
        line = bisect_right(starts, offset)
        return Pos(line, offset - starts[line - 1] + 1, filename)

    tokens: list[Token] = []
    i = 0
    while i < len(source):
        m = _TOKEN.match(source, i)
        kind, text = (m.lastgroup, m[0]) if m else (None, source[i])
        if kind == "num":
            tokens.append(_number(m, pos(i)))
        elif kind == "op" or kind == "word" and (text[0].isalpha() or text[0] == "_"):
            if kind == "word":
                kind = "op" if text == "_" else "kw" if text in KEYWORDS else "name"
            tokens.append(Token(kind, text, pos(i)))
        elif kind == "string" and m["close"]:
            value = re.sub(r"\\(.)", lambda e: _ESCAPES[e[1]], text[1:-1])
            tokens.append(Token("string", value, pos(i), value))
        elif kind == "string" and m["esc"]:
            raise LexError(f"unknown escape \\{m['esc']}", pos(m.start("esc") - 1))
        elif kind != "skip":
            raise LexError(_ERRORS.get(kind, f"unexpected character {source[i]!r}"),
                           pos(i))
        i = m.end()
    tokens.append(Token("eof", "", pos(i)))
    return tokens

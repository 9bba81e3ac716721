"""Runtime values.

Every quantity the simulator computes with is exact: numbers are
`fractions.Fraction`, never floats, so repeated runs produce identical
traces byte for byte.  Times and durations are ordinary constructor
values (`Time(r)`, `Duration(r)`, `InfDuration`) rather than a separate
host representation; helpers below build and inspect them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class Value:
    """Base class for runtime values."""

    __slots__ = ()


@dataclass(frozen=True)
class BoolVal(Value):
    value: bool


@dataclass(frozen=True)
class NumVal(Value):
    """Integer or rational number. Fraction keeps lowest terms itself."""

    value: Fraction


@dataclass(frozen=True)
class StrVal(Value):
    value: str


@dataclass(frozen=True)
class DataVal(Value):
    """Constructor term, e.g. Cons(1, Nil) or Duration(3/2)."""

    ctor: str
    args: tuple[Value, ...] = ()


@dataclass(frozen=True)
class ObjRef(Value):
    """Reference to a concurrent object; not constructible from source."""

    oid: int


@dataclass(frozen=True)
class FutRef(Value):
    """Reference to a future; also serves as a process identifier."""

    fid: int


@dataclass(frozen=True)
class NullVal(Value):
    pass


TRUE = BoolVal(True)
FALSE = BoolVal(False)
NULL = NullVal()
UNIT = DataVal("Unit")
INF_DURATION = DataVal("InfDuration")

# how a `duration(b, w)` interval is realized: always w, always b, or a
# seeded uniform draw between them
DURATION_POLICIES = ("worst", "best", "uniform")


def num(x: int | Fraction) -> NumVal:
    return NumVal(Fraction(x))


def mk_time(r: int | Fraction) -> DataVal:
    return DataVal("Time", (num(r),))


def mk_duration(r: int | Fraction) -> DataVal:
    return DataVal("Duration", (num(r),))


def is_duration(v: Value) -> bool:
    """True for Duration(r) and InfDuration."""
    return isinstance(v, DataVal) and (
        (v.ctor == "Duration" and len(v.args) == 1 and isinstance(v.args[0], NumVal))
        or (v.ctor == "InfDuration" and not v.args)
    )


def is_inf_duration(v: Value) -> bool:
    return isinstance(v, DataVal) and v.ctor == "InfDuration" and not v.args


def is_time(v: Value) -> bool:
    return (
        isinstance(v, DataVal)
        and v.ctor == "Time"
        and len(v.args) == 1
        and isinstance(v.args[0], NumVal)
    )


def duration_rat(v: Value) -> Fraction:
    """Magnitude of a finite Duration."""
    if isinstance(v, DataVal) and v.ctor == "Duration" and len(v.args) == 1:
        arg = v.args[0]
        if isinstance(arg, NumVal):
            return arg.value
    raise ValueError(f"not a finite duration: {render_value(v)}")


def format_rat(r: Fraction) -> str:
    """p/q in lowest terms, bare integer when q == 1."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def parse_rat(s: str) -> Fraction:
    return Fraction(s)


def escape_string(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        else:
            out.append(ch)
    return "".join(out)


def render_value(v: Value) -> str:
    """Canonical compact rendering used in traces and printed output."""
    if isinstance(v, BoolVal):
        return "True" if v.value else "False"
    if isinstance(v, NumVal):
        return format_rat(v.value)
    if isinstance(v, StrVal):
        return '"' + escape_string(v.value) + '"'
    if isinstance(v, DataVal):
        if not v.args:
            return v.ctor
        return v.ctor + "(" + ",".join(render_value(a) for a in v.args) + ")"
    if isinstance(v, ObjRef):
        return f"o{v.oid}"
    if isinstance(v, FutRef):
        return f"f{v.fid}"
    if isinstance(v, NullVal):
        return "null"
    raise TypeError(f"unknown value: {v!r}")


def render_duration_field(v: Value) -> str:
    """Compact duration for trace data fields: `3/2` or `inf`."""
    if is_inf_duration(v):
        return "inf"
    return format_rat(duration_rat(v))


NIL = DataVal("Nil")


def mk_list(items: list[Value]) -> Value:
    out: Value = NIL
    for item in reversed(items):
        out = DataVal("Cons", (item, out))
    return out

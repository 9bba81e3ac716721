"""Runtime values.

Every quantity the simulator computes with is exact: numbers are
`fractions.Fraction`, never floats, so repeated runs produce identical
traces byte for byte.  Times and durations are ordinary constructor
values (`Time(r)`, `Duration(r)`, `InfDuration`) rather than a separate
host representation; helpers below build and inspect them.
"""

from __future__ import annotations

from fractions import Fraction


class Value:
    """Base class for runtime values.

    Values are immutable: each class below stores its fields in slots
    written once, by its constructor, through the slot descriptor.
    Equality and hashing are those of a frozen dataclass: values of
    different classes are never equal, so `BoolVal(True) != NumVal(1)`.
    These classes are written out by hand because the engine builds and
    compares values at every step.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BoolVal(Value):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        _set_bool(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"BoolVal(value={self.value!r})"


class NumVal(Value):
    """Integer or rational number. Fraction keeps lowest terms itself."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        _set_num(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"NumVal(value={self.value!r})"


class StrVal(Value):
    __slots__ = ("value",)

    def __init__(self, value: str):
        _set_str(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"StrVal(value={self.value!r})"


class DataVal(Value):
    """Constructor term, e.g. Cons(1, Nil) or Duration(3/2)."""

    __slots__ = ("ctor", "args")

    def __init__(self, ctor: str, args: tuple[Value, ...] = ()):
        _set_ctor(self, ctor)
        _set_args(self, args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.ctor == other.ctor and self.args == other.args
        return NotImplemented

    def __hash__(self):
        return hash((self.ctor, self.args))

    def __repr__(self) -> str:
        return f"DataVal(ctor={self.ctor!r}, args={self.args!r})"


class ObjRef(Value):
    """Reference to a concurrent object; not constructible from source."""

    __slots__ = ("oid",)

    def __init__(self, oid: int):
        _set_oid(self, oid)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.oid == other.oid
        return NotImplemented

    def __hash__(self):
        return hash((self.oid,))

    def __repr__(self) -> str:
        return f"ObjRef(oid={self.oid!r})"


class FutRef(Value):
    """Reference to a future; also serves as a process identifier."""

    __slots__ = ("fid",)

    def __init__(self, fid: int):
        _set_fid(self, fid)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.fid == other.fid
        return NotImplemented

    def __hash__(self):
        return hash((self.fid,))

    def __repr__(self) -> str:
        return f"FutRef(fid={self.fid!r})"


class NullVal(Value):
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())

    def __repr__(self) -> str:
        return "NullVal()"


# each slot's own setter, which `Value.__setattr__` does not intercept
_set_bool = BoolVal.value.__set__
_set_num = NumVal.value.__set__
_set_str = StrVal.value.__set__
_set_ctor = DataVal.ctor.__set__
_set_args = DataVal.args.__set__
_set_oid = ObjRef.oid.__set__
_set_fid = FutRef.fid.__set__

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

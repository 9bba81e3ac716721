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
    compares values at every step; the three scalar classes share one
    hand-written body (`_Scalar`), since only their class differs.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Scalar(Value):
    """One `value` field: the shared body of `BoolVal`, `NumVal` and
    `StrVal`, which differ only in their class."""

    __slots__ = ("value",)

    def __init__(self, value):
        _set_value(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(value={self.value!r})"


class BoolVal(_Scalar):
    __slots__ = ()


class NumVal(_Scalar):
    """Integer or rational number. Fraction keeps lowest terms itself."""

    __slots__ = ()


class StrVal(_Scalar):
    __slots__ = ()


class DataVal(Value):
    """Constructor term, e.g. Cons(1, Nil) or Duration(3/2)."""

    # `_hash` is unset until the first `__hash__`, which keeps it
    __slots__ = ("ctor", "args", "_hash")

    def __init__(self, ctor: str, args: tuple[Value, ...] = ()):
        _set_ctor(self, ctor)
        _set_args(self, args)

    def __eq__(self, other):
        # each argument's own `__eq__`, so a deep list spares the C stack
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.ctor != other.ctor or len(self.args) != len(other.args):
            return False
        for mine, theirs in zip(self.args, other.args):
            if mine is not theirs and mine.__eq__(theirs) is not True:
                return False
        return True

    def __hash__(self):
        # `hash((ctor, args))`, with each argument hashed through its own
        # `__hash__`, so a deep list spares the C stack
        try:
            return self._hash
        except AttributeError:
            args = _tuple_hash([arg.__hash__() for arg in self.args])
            _set_hash(self, _tuple_hash([hash(self.ctor), args]))
            return self._hash

    def __repr__(self) -> str:
        return f"DataVal(ctor={self.ctor!r}, args={self.args!r})"


_MASK = (1 << 64) - 1


def _tuple_hash(lanes: list[int]) -> int:
    """The hash of a tuple whose items hash to lanes, as CPython's
    `tuplehash` (Objects/tupleobject.c, a 64-bit build) computes it."""
    acc = 2870177450012600261
    for lane in lanes:
        acc = (acc + (lane & _MASK) * 14029467366897019727) & _MASK
        acc = ((acc << 31 | acc >> 33) & _MASK) * 11400714785074694791 & _MASK
    acc = (acc + (len(lanes) ^ 2870177450012600261 ^ 3527539)) & _MASK
    return 1546275796 if acc == _MASK else acc - (acc >> 63 << 64)


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
_set_value = _Scalar.value.__set__
_set_ctor = DataVal.ctor.__set__
_set_args = DataVal.args.__set__
_set_hash = DataVal._hash.__set__
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
    """The rational that `format_rat` writes as `s`; any other text, such
    as `1.5`, `+3`, `1e3` or `3/6`, is a ValueError."""
    r = Fraction(s)
    if format_rat(r) != s:
        raise ValueError(f"not a rational as traces write it: {s!r}")
    return r


# the escapes of a string literal's text, as the lexer reads them back
_STRING_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"})


def render_value(v: Value) -> str:
    """Canonical compact rendering used in traces and printed output."""
    if isinstance(v, BoolVal):
        return "True" if v.value else "False"
    if isinstance(v, NumVal):
        return format_rat(v.value)
    if isinstance(v, StrVal):
        return '"' + v.value.translate(_STRING_ESCAPES) + '"'
    if isinstance(v, DataVal):
        if not v.args:
            return v.ctor
        # a list, not a generator, which would recurse on the C stack
        return v.ctor + "(" + ",".join([render_value(a) for a in v.args]) + ")"
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

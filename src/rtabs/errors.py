"""Exception types, and the recursion scope, shared across the interpreter."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .nodes import Pos


@contextmanager
def deep_recursion():
    """Run the front end or `Engine.run_until` under a recursion limit
    that `NESTING_LIMIT` and `max_depth` keep every model well below."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(2_000_000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class RtabsError(Exception):
    """Base for all errors raised by this package."""


class LexError(RtabsError):
    def __init__(self, message: str, pos: Pos):
        super().__init__(f"{pos}: {message}")
        self.message = message
        self.pos = pos


class ParseError(RtabsError):
    def __init__(self, message: str, pos: Pos, expected: set[str] | None = None):
        detail = message
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(f"{pos}: {detail}")
        self.message = message
        self.pos = pos
        self.expected = expected or set()


class RtRuntimeError(RtabsError):
    """Runtime error during evaluation or simulation."""

    def __init__(self, message: str, pos: Pos | None = None):
        super().__init__(message)
        self.message = message
        self.pos = pos
        # filled in by the engine when the error surfaces from a step
        self.obj: int | None = None
        self.pid: int | None = None
        self.method: str | None = None
        self.stmt: str | None = None

    def describe(self) -> str:
        parts = [self.message]
        if self.pos is not None:
            parts.append(f"at {self.pos}")
        if self.obj is not None:
            parts.append(f"in object o{self.obj}")
        if self.pid is not None:
            parts.append(f"process f{self.pid}")
        if self.stmt is not None:
            parts.append(f"statement `{self.stmt}`")
        return " ".join(parts)


class UnboundVariableError(RtRuntimeError):
    pass


class MatchFailureError(RtRuntimeError):
    pass


class DivisionByZeroError(RtRuntimeError):
    pass


class EvalTypeError(RtRuntimeError):
    pass


class CallDepthError(RtRuntimeError):
    pass


class UnknownMethodError(RtRuntimeError):
    pass


class PolicyError(RtRuntimeError):
    """A scheduling policy returned something other than a ready process."""

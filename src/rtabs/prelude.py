"""Prelude loading and the model front end.

User models never parse alone: the prelude's declarations (datatypes,
duration algebra, observers, scheduling policies) are merged in front of
the user's, preserving user line numbers for diagnostics.  Merging
rather than textual concatenation keeps positions accurate; function
shadowing still works because later definitions win at table build.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .check import Diagnostic, check_model
from .desugar import desugar
from .errors import RtabsError, deep_recursion
from .nodes import Model
from .parser import parse_model

PRELUDE_FILENAME = "<prelude>"


@lru_cache(maxsize=1)
def prelude_source() -> str:
    path = os.path.join(os.path.dirname(__file__), "prelude.rtabs")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


@lru_cache(maxsize=1)
def prelude_model() -> Model:
    return parse_model(prelude_source(), PRELUDE_FILENAME)


def merge_with_prelude(user: Model) -> Model:
    pre = prelude_model()
    return Model(
        datatypes=pre.datatypes + user.datatypes,
        functions=pre.functions + user.functions,
        interfaces=pre.interfaces + user.interfaces,
        classes=pre.classes + user.classes,
        main=user.main,
        pos=user.pos,
    )


def load_source(source: str, filename: str | None = None) -> tuple[Model, list[Diagnostic]]:
    """Parse, merge with the prelude, and check.  Returns the merged
    (not yet desugared) model and any diagnostics."""
    try:
        with deep_recursion():
            merged = merge_with_prelude(parse_model(source, filename))
            return merged, check_model(merged)
    except RecursionError:  # nesting deeper than parser or checker can follow
        raise RtabsError(f"{filename or '<source>'}: expression nesting "
                         "exhausted the host stack") from None


def load_model(path: str) -> Model:
    """Parse, check, and desugar a model file; raises on any problem."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    merged, diags = load_source(source, path)
    if diags:
        raise RtabsError("\n".join(d.render() for d in diags))
    with deep_recursion():
        return desugar(merged)

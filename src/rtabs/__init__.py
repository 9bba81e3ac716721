"""Interpreter and timed simulator for concurrent object models whose
scheduling policies are written in the modeled language itself.

Typical use:

    from rtabs import load_model, simulate
    result = simulate(load_model("model.rtabs"), limit=600)
    print(result.status, len(result.trace))
"""

from .engine import (
    Configuration, Engine, FutureCell, InvocationMessage, ObjectState,
    ProcessRecord, RunResult, adv, lift, liftall, mte, mte_raw, select,
    simulate,
)
from .errors import (
    CallDepthError, LexError, ParseError, PolicyError, RtabsError,
    RtRuntimeError,
)
from .metrics import (
    IncompleteProcess, ProcessOutcome, SeriesPoint, check_deadline_bookkeeping,
    derive_outcome, derive_outcomes, misses_series,
)
from .parser import parse_expr, parse_model
from .prelude import load_model, load_source, merge_with_prelude, prelude_model
from .trace import Trace, TraceEvent, read_csv, read_structured

__version__ = "0.1.0"

__all__ = [
    "CallDepthError", "Configuration", "Engine", "FutureCell",
    "IncompleteProcess", "InvocationMessage", "LexError", "ObjectState",
    "ParseError", "PolicyError", "ProcessOutcome", "ProcessRecord",
    "RtRuntimeError", "RtabsError", "RunResult", "SeriesPoint", "Trace",
    "TraceEvent", "adv", "check_deadline_bookkeeping", "derive_outcome",
    "derive_outcomes", "lift", "liftall", "load_model", "load_source",
    "merge_with_prelude", "misses_series", "mte", "mte_raw", "parse_expr",
    "parse_model", "prelude_model", "read_csv", "read_structured", "select",
    "simulate",
]

"""Interpreter and timed simulator for concurrent object models whose
scheduling policies are written in the modeled language itself.

Typical use:

    from rtabs import load_model, simulate
    result = simulate(load_model("model.rtabs"), limit=600)
    print(result.status, len(result.trace))

The exported names resolve lazily (PEP 562): `import rtabs` loads no
submodule, and the first use of a name imports only the module that
defines it, so reading a trace never pays for the parser or the engine.
"""

from importlib import import_module

__version__ = "0.1.0"

# every exported name, by the submodule that defines it
_EXPORTS = {
    "engine": (
        "Configuration", "Engine", "FutureCell", "InvocationMessage",
        "ObjectState", "ProcessRecord", "RunResult", "adv", "lift", "liftall",
        "mte_raw", "select", "simulate",
    ),
    "errors": (
        "CallDepthError", "LexError", "ParseError", "PolicyError",
        "RtabsError", "RtRuntimeError",
    ),
    "metrics": (
        "IncompleteProcess", "ProcessOutcome", "SeriesPoint",
        "check_deadline_bookkeeping", "derive_outcome", "derive_outcomes",
        "misses_series",
    ),
    "parser": ("parse_expr", "parse_model"),
    "prelude": (
        "load_model", "load_source", "merge_with_prelude", "prelude_model",
    ),
    "trace": ("TraceEvent", "read_csv", "read_structured"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

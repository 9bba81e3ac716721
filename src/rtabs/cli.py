"""Command-line interface.

Three subcommands: `check` (static diagnostics), `run` (simulate and
export a trace), `metrics` (aggregate an exported trace).  Machine
output goes to stdout, prose to stderr.  Exit codes are a contract:
0 success, 1 check diagnostics, 2 I/O or runtime error, 3 deadlock.
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import Counter
from fractions import Fraction
from importlib import import_module
from typing import TYPE_CHECKING

from .errors import RtabsError
from .values import DURATION_POLICIES, format_rat

if TYPE_CHECKING:
    from .trace import Trace

# Each command imports only the layers it runs: `check` the front end,
# `run` the front end, the engine and the trace writers, `metrics` the
# trace readers and the metrics.  These trace and metrics functions are
# imported on first use, by the commands through `_lazy` or as module
# attributes (PEP 562); a replacement set as `rtabs.cli.render_csv` (as
# `bench/traced.py` sets one) is the one the commands call.
_LAZY = {
    "read_csv_text": "trace", "read_structured_text": "trace",
    "render_csv": "trace", "render_structured": "trace",
    "misses_series": "metrics",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


def _lazy(name: str):
    return globals()[name] if name in globals() else __getattr__(name)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def cmd_check(args) -> int:
    from .prelude import load_source

    try:
        with open(args.model, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        return _fail(f"cannot read {args.model}: {exc.strerror}", 2)
    try:
        _, diagnostics = load_source(source, args.model)
    except RtabsError as exc:
        return _fail(str(exc), 1)
    for diag in diagnostics:
        print(diag.render(), file=sys.stderr)
    return 1 if diagnostics else 0


def cmd_run(args) -> int:
    from .engine import Engine
    from .prelude import load_model

    try:
        until = Fraction(args.until)
    except (ValueError, ZeroDivisionError):
        return _fail(f"invalid --until value: {args.until}", 2)
    if until <= 0:
        return _fail("--until must be positive", 2)
    try:
        model = load_model(args.model)
    except OSError as exc:
        return _fail(f"cannot read {args.model}: {exc.strerror}", 2)
    except RtabsError as exc:
        return _fail(str(exc), 2)

    engine = Engine(model, seed=args.seed, duration_policy=args.duration_policy)
    result = engine.run_until(until)

    rendered = (_lazy("render_csv")(result.trace) if args.format == "csv"
                else _lazy("render_structured")(result.trace))
    if args.trace is not None:
        try:
            with open(args.trace, "w", encoding="utf-8", newline="") as handle:
                handle.write(rendered)
        except OSError as exc:
            return _fail(f"cannot write {args.trace}: {exc.strerror}", 2)
    else:
        sys.stdout.write(rendered)

    kinds = Counter(ev.kind for ev in result.trace)
    print(f"{result.status}: clock {format_rat(result.clock)}, "
          f"{kinds['return']} process(es) completed, "
          f"{kinds['deadline_miss']} deadline miss(es)", file=sys.stderr)

    if result.status == "deadlock":
        for line in result.blocked:
            print(line, file=sys.stderr)
        return 3
    if result.status == "error":
        assert result.error is not None
        print(result.error.describe(), file=sys.stderr)
        return 2
    return 0


def _load_trace(path: str) -> Trace:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        text = handle.read()
    if text.startswith("time,event"):
        return _lazy("read_csv_text")(text)
    if text.startswith("{"):
        return _lazy("read_structured_text")(text)
    raise RtabsError(f"{path} is not a recognized trace file")


def cmd_metrics(args) -> int:
    try:
        points = _lazy("misses_series")(_load_trace(args.trace), by=args.by)
    except OSError as exc:
        return _fail(f"cannot read {args.trace}: {exc.strerror}", 2)
    except (RtabsError, ValueError, KeyError, ZeroDivisionError) as exc:
        return _fail(f"malformed trace: {exc}", 2)
    out = io.StringIO()
    if args.by == "method":
        keys = sorted(points[-1].breakdown) if points else []
        out.write(",".join(["time", "misses"] + keys) + "\n")
        for point in points:
            row = [format_rat(point.time), str(point.misses)]
            row += [str(point.breakdown.get(k, 0)) for k in keys]
            out.write(",".join(row) + "\n")
    else:
        out.write("time,misses\n")
        for point in points:
            out.write(f"{format_rat(point.time)},{point.misses}\n")
    sys.stdout.write(out.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtabs",
        description="Interpreter and timed simulator for concurrent object "
                    "models with scheduler reflection and deadlines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and statically check a model")
    p_check.add_argument("model", help="model source file")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="simulate a model up to a time limit")
    p_run.add_argument("model", help="model source file")
    p_run.add_argument("--until", required=True,
                       help="time limit (exact rational, e.g. 600 or 7/2)")
    p_run.add_argument("--seed", type=int, default=0,
                       help="random seed for the uniform duration policy")
    p_run.add_argument("--duration-policy", choices=DURATION_POLICIES,
                       default="worst",
                       help="how duration(b, w) intervals are realized")
    p_run.add_argument("--trace", help="write the trace here instead of stdout")
    p_run.add_argument("--format", choices=("csv", "structured"),
                       default="csv", help="trace encoding")
    p_run.set_defaults(func=cmd_run)

    p_metrics = sub.add_parser("metrics", help="aggregate an exported trace")
    p_metrics.add_argument("trace", help="trace file from a previous run")
    p_metrics.add_argument("--series", choices=("misses",), required=True,
                           help="which series to print")
    p_metrics.add_argument("--by", choices=("method",),
                           help="break the series down per method/label")
    p_metrics.set_defaults(func=cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

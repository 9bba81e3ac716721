"""Command-line interface.

Three subcommands: `check` (static diagnostics), `run` (simulate and
export a trace), `metrics` (aggregate an exported trace).  Machine
output goes to stdout, prose to stderr.  Exit codes are a contract:
0 success, 1 check diagnostics, 2 I/O or runtime error, 3 deadlock.

`run` streams its trace: the run's trace sink (`_TraceWriter`) holds
only the events since the last tick, and at each tick writes them to
the output and flushes it.  However the run stops, even by an
interruption, the output ends with whole rows: a prefix of the trace
that `metrics` reads.
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from importlib import import_module
from typing import TYPE_CHECKING

from .errors import RtabsError
from .values import DURATION_POLICIES, format_rat

if TYPE_CHECKING:
    from typing import TextIO

    from .trace import TraceEvent

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


def _unreadable(path: str, exc: OSError | UnicodeDecodeError) -> int:
    reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
    return _fail(f"cannot read {path}: {reason}", 2)


def cmd_check(args) -> int:
    from .prelude import load_source

    try:
        with open(args.model, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _unreadable(args.model, exc)
    try:
        _, diagnostics = load_source(source, args.model)
    except RtabsError as exc:
        return _fail(str(exc), 1)
    for diag in diagnostics:
        print(diag.render(), file=sys.stderr)
    return 1 if diagnostics else 0


class _TraceWriter:
    """The trace sink of `rtabs run`.  It keeps the events since the last
    tick; at each tick, and when told to at the end of the run, it
    renders them, writes them to `out` (after the CSV header, the first
    time) and flushes.  It counts the events by kind for the summary."""

    def __init__(self, out: TextIO, structured: bool):
        self.out = out
        self.structured = structured
        self.render = _lazy("render_structured" if structured
                            else "render_csv")
        self.header = not structured  # the CSV header is still to be written
        self.pending: list[TraceEvent] = []
        self.kinds: Counter[str] = Counter()

    def append(self, event: TraceEvent) -> None:
        self.pending.append(event)
        if event.kind == "tick":
            self.write()

    def write(self) -> None:
        batch, self.pending = self.pending, []
        if not (batch or self.header):
            return
        self.kinds.update(event.kind for event in batch)
        self.out.write(self.render(batch) if self.structured
                       else self.render(batch, header=self.header))
        self.header = False
        self.out.flush()


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
    except (OSError, UnicodeDecodeError) as exc:
        return _unreadable(args.model, exc)
    except RtabsError as exc:
        return _fail(str(exc), 2)

    target = "stdout" if args.trace is None else args.trace
    try:
        output = (nullcontext(sys.stdout) if args.trace is None
                  else open(args.trace, "w", encoding="utf-8", newline=""))
        with output as out:
            writer = _TraceWriter(out, args.format == "structured")
            engine = Engine(model, seed=args.seed,
                            duration_policy=args.duration_policy, trace=writer)
            try:
                result = engine.run_until(until)
            finally:
                writer.write()  # whatever is pending, however the run stops
    except OSError as exc:
        return _fail(f"cannot write {target}: {exc.strerror}", 2)

    kinds = writer.kinds
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


def _load_trace(path: str) -> list[TraceEvent]:
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
    except (OSError, UnicodeDecodeError) as exc:
        return _unreadable(args.trace, exc)
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

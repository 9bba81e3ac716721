"""Run one `rtabs` CLI command in process with per-layer spans.

    PYTHONPATH=src python3 bench/traced.py OUT.json run MODEL --until N ...

Wraps the public callables of each rtabs module from outside, calls
`rtabs.cli.main` with the remaining arguments, and writes the layer
counts and times to OUT.json.  Nothing in `src/` is changed: the
wrappers replace module and class attributes for this process only.
The exit status is the CLI's.

Spans are aggregated per name rather than kept one by one, since the
step loop makes hundreds of thousands of them.  A span's self time is
its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns


class Spans:
    """Per-name call counts, total time and self time of nested spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.ready_lens: list[int] = []
        self._children_ns: list[int] = []

    def timed(self, name: str, fn, on_result=None):
        """`fn` wrapped so that each call is one span named `name`;
        `on_result(args, result)` runs outside the span."""
        stack = self._children_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.total_ns[name] += elapsed
                self.self_ns[name] += elapsed - children
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn, true_name: str | None = None):
        """`fn` wrapped to count its calls and, with `true_name`, the
        calls that return a true value."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if true_name is not None and result:
                counts[true_name] += 1
            return result

        return wrapper


def install(spans: Spans) -> None:
    """Wrap the layer boundaries of the imported rtabs package."""
    from rtabs import cli, engine, prelude
    from rtabs.engine import Engine

    prelude.parse_model = spans.timed("front.parse", prelude.parse_model)
    prelude.check_model = spans.timed("front.check", prelude.check_model)
    prelude.desugar = spans.timed("front.desugar", prelude.desugar)

    def on_step(args, rule):
        spans.counts["engine.rule." + rule if rule else "engine.probe"] += 1

    def on_ready(args, ready):
        if ready:
            spans.counts["engine.ready_set_hit"] += 1

    def on_policy(args, choice):
        spans.ready_lens.append(len(args[2]))

    def on_render(args, text):
        spans.counts["trace.events"] += len(args[0])

    Engine.exec_step = spans.timed("engine.step", Engine.exec_step, on_step)
    Engine.ready_set = spans.timed("engine.ready_set", Engine.ready_set,
                                   on_ready)
    Engine.bind_activation = spans.timed("engine.activation",
                                         Engine.bind_activation)
    Engine.evaluate_policy = spans.timed("engine.policy",
                                         Engine.evaluate_policy, on_policy)
    engine.eval_expr = spans.counted("evaluator.expr", engine.eval_expr)
    engine.eval_guard = spans.counted("evaluator.guard", engine.eval_guard,
                                      "evaluator.guard_true")
    engine.mte_raw = spans.timed("time.mte", engine.mte_raw)
    engine.adv = spans.timed("time.adv", engine.adv)
    cli.render_csv = spans.timed("trace.render", cli.render_csv, on_render)
    cli.read_csv_text = spans.timed("trace.read", cli.read_csv_text)
    cli.misses_series = spans.timed("metrics.series", cli.misses_series)


def report(spans: Spans) -> dict:
    """The raw layer figures: counts, and times in seconds."""
    return {
        "calls": dict(spans.calls),
        "total_s": {k: v / 1e9 for k, v in spans.total_ns.items()},
        "self_s": {k: v / 1e9 for k, v in spans.self_ns.items()},
        "counts": dict(spans.counts),
        "ready_lens": spans.ready_lens,
    }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import rtabs.cli

    spans = Spans()
    install(spans)
    code = rtabs.cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report(spans), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

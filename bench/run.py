"""rtabs benchmark: `rtabs check`, `run` and `metrics` end to end on
generated workloads, and per-layer figures from a separately traced run.

    python3 bench/run.py --workload media-overload --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; it runs the checkout's
`src/rtabs`, one child process at a time.  `--trace 0` times the
untraced CLI and reports the end-to-end metrics of BENCHMARK.json;
`--trace 1` also runs the CLI under bench/traced.py and reports the
per-layer metrics.  Every run's exit code, summary line and trace
sha256 are checked against the workload's recorded outcome.  Human
readable lines come first; the last line of stdout is one JSON object.
README.md in this directory documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# every rule name `Engine.exec_step` can return
RULES = ("activation", "schedule", "skip", "cond", "while", "return",
         "suspend", "await-true", "await-false", "duration", "duration-done",
         "assign", "new-object", "async-call", "read-fut")
# a run measures at least this many iterations, however short --seconds is
MIN_ITERATIONS = 3
# the short commands, `check` and `metrics`, run this many times per
# iteration, for steadier medians
SHORT_REPEATS = 2


class BenchError(Exception):
    """The benchmark cannot run here."""


@dataclass
class Child:
    wall_s: float
    code: int
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], work: Path) -> Child:
    """Run one child process to completion; its wall time, exit code,
    own peak RSS (from wait4, not RUSAGE_CHILDREN) and output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, proc.returncode, usage.ru_maxrss / 1024,
                     out.read().decode(), err.read().decode())


def rtabs(*args: str) -> list[str]:
    return [sys.executable, "-m", "rtabs.cli", *map(str, args)]


def traced(spans: Path, *args: str) -> list[str]:
    return [sys.executable, str(HERE / "traced.py"), str(spans),
            *map(str, args)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_ok(wl: workloads.Workload, child: Child, trace: Path) -> bool:
    """The run exited 0 with the recorded summary line and trace."""
    return (child.code == 0 and child.stderr.strip() == wl.summary
            and trace.exists() and sha256(trace) == wl.trace_sha256)


def metrics_ok(wl: workloads.Workload, child: Child) -> bool:
    """`rtabs metrics --series misses` ends at the recorded miss count."""
    lines = child.stdout.splitlines()
    return (child.code == 0 and len(lines) == wl.completed + 1
            and lines[-1].split(",")[1] == str(wl.misses))


def check_ok(child: Child) -> bool:
    return child.code == 0 and child.stdout == "" and child.stderr == ""


def bookkeeping_ok(trace: Path) -> bool:
    from rtabs import check_deadline_bookkeeping, read_csv
    return not check_deadline_bookkeeping(read_csv(str(trace)))


def metrics_args(trace: Path) -> tuple:
    return ("metrics", trace, "--series", "misses", "--by", "method")


def measure_end_to_end(wl, seconds: float, work: Path) -> tuple[dict, int, int]:
    """Time check, run and metrics children in turn for `seconds`."""
    model, trace = work / "model.rtabs", work / "trace.csv"
    samples: dict[str, list[float]] = {
        "setup_s": [], "run_s": [], "metrics_s": [], "peak_rss_mb": []}
    attempted = failed = 0
    run_child(rtabs("check", model), work)  # warm-up: byte-compile, page cache
    start = time.perf_counter()
    while attempted < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        ok = True
        for _ in range(SHORT_REPEATS):
            check = run_child(rtabs("check", model), work)
            ok = ok and check_ok(check)
            samples["setup_s"].append(check.wall_s)
        trace.unlink(missing_ok=True)
        run = run_child(rtabs(*wl.run_args(model, trace)), work)
        ok = ok and run_ok(wl, run, trace)
        samples["run_s"].append(run.wall_s)
        samples["peak_rss_mb"].append(run.maxrss_mb)
        for _ in range(SHORT_REPEATS):
            metrics = run_child(rtabs(*metrics_args(trace)), work)
            ok = ok and metrics_ok(wl, metrics)
            samples["metrics_s"].append(metrics.wall_s)
        attempted += 1
        failed += not ok
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    events = trace_events(trace) if trace.exists() else 0
    values["events_per_s"] = events / values["run_s"]
    values["pass_ratio"] = (attempted - failed) / attempted
    return values, attempted, failed


def trace_events(trace: Path) -> int:
    with open(trace, "rb") as handle:
        return sum(1 for _ in handle) - 1


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_figures(run: dict, metrics: dict) -> dict:
    """Per-layer figures from the span reports of one traced `run` and
    one traced `metrics`."""
    calls, total, counts = run["calls"], run["total_s"], run["counts"]
    rules = {r: counts.get("engine.rule." + r, 0) for r in RULES}
    steps = sum(rules.values())
    if steps != calls["engine.step"] - counts.get("engine.probe", 0):
        raise BenchError("exec_step returned a rule name outside RULES")
    lens = run["ready_lens"]
    return {
        "front.parse_s": total["front.parse"],
        "front.check_s": total["front.check"],
        "front.desugar_s": total["front.desugar"],
        "engine.steps": steps,
        "engine.probes": counts.get("engine.probe", 0),
        **{"engine.rule." + r: n for r, n in rules.items()},
        "engine.step_self_s": run["self_s"]["engine.step"],
        "engine.ready_set_calls": calls.get("engine.ready_set", 0),
        "engine.ready_set_per_step": ratio(calls.get("engine.ready_set", 0),
                                           steps),
        "engine.ready_set_s": total.get("engine.ready_set", 0.0),
        "engine.ready_set_hit_ratio": ratio(
            counts.get("engine.ready_set_hit", 0),
            calls.get("engine.ready_set", 0)),
        "engine.activation_calls": calls.get("engine.activation", 0),
        "engine.activation_s": total.get("engine.activation", 0.0),
        "engine.policy_calls": calls.get("engine.policy", 0),
        "engine.policy_s": total.get("engine.policy", 0.0),
        "engine.policy_us_per_decision": 1e6 * ratio(
            total.get("engine.policy", 0.0), calls.get("engine.policy", 0)),
        "engine.ready_len_mean": statistics.fmean(lens) if lens else 0.0,
        "engine.ready_len_max": max(lens, default=0),
        "evaluator.expr_calls": counts.get("evaluator.expr", 0),
        "evaluator.guard_calls": counts.get("evaluator.guard", 0),
        "evaluator.guard_true_ratio": ratio(
            counts.get("evaluator.guard_true", 0),
            counts.get("evaluator.guard", 0)),
        "time.ticks": calls.get("time.adv", 0),
        "time.mte_s": total.get("time.mte", 0.0),
        "time.adv_s": total.get("time.adv", 0.0),
        "trace.events": counts["trace.events"],
        "trace.render_s": total["trace.render"],
        "trace.read_s": metrics["total_s"]["trace.read"],
        "metrics.series_s": metrics["total_s"]["metrics.series"],
    }


# figures that must repeat exactly from one traced run to the next
EXACT_COUNTS = ("engine.steps", "engine.ready_set_calls",
                "engine.policy_calls", "time.ticks", "trace.events",
                *("engine.rule." + r for r in RULES))


def traced_iteration(wl, work: Path) -> tuple[dict | None, float]:
    """One traced `run` and one traced `metrics` of the workload: their
    layer figures, or None unless both reproduced the recorded outcome
    and the trace keeps its deadline bookkeeping; and the run's wall
    time."""
    model, trace = work / "model.rtabs", work / "traced.csv"
    spans_run, spans_metrics = work / "spans-run.json", work / "spans-metrics.json"
    for path in (trace, spans_run, spans_metrics):
        path.unlink(missing_ok=True)
    run = run_child(traced(spans_run, *wl.run_args(model, trace)), work)
    if not (run_ok(wl, run, trace) and bookkeeping_ok(trace)):
        return None, run.wall_s
    metrics = run_child(traced(spans_metrics, *metrics_args(trace)), work)
    if not metrics_ok(wl, metrics):
        return None, run.wall_s
    return (layer_figures(json.loads(spans_run.read_text()),
                          json.loads(spans_metrics.read_text())), run.wall_s)


def measure_layers(wl, seconds: float, work: Path) -> tuple[dict, int, int]:
    """Alternate an untraced run with a traced iteration for `seconds`;
    layer times are medians, counts must repeat exactly."""
    model, trace = work / "model.rtabs", work / "trace.csv"
    samples: list[dict] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    attempted = failed = 0
    run_child(rtabs("check", model), work)  # warm-up: byte-compile, page cache
    start = time.perf_counter()
    while attempted < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        trace.unlink(missing_ok=True)
        run = run_child(rtabs(*wl.run_args(model, trace)), work)
        figures, wall = traced_iteration(wl, work)
        attempted += 1
        if not run_ok(wl, run, trace) or figures is None or (
                samples and any(figures[k] != samples[0][k]
                                for k in EXACT_COUNTS)):
            failed += 1
            continue
        samples.append(figures)
        untraced_s.append(run.wall_s)
        traced_s.append(wall)
    if not samples:
        return {}, attempted, failed
    values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    values["traced_overhead_ratio"] = (statistics.median(traced_s)
                                       / statistics.median(untraced_s))
    return values, attempted, failed


def declared_units(spec: dict, trace: bool) -> dict[str, str]:
    """The metrics a BENCHMARK.json `spec` declares for this mode, with
    their units; names outside [A-Za-z0-9_.-] are refused."""
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    for name in units:
        if not NAME_RE.fullmatch(name):
            raise BenchError(f"metric name {name!r} is outside [A-Za-z0-9_.-]")
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "rtabs" / "cli.py").is_file():
        raise BenchError(f"no rtabs sources at {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = declared_units(spec, bool(args.trace))
    wl = workloads.make(args.workload, args.seed)
    measure = measure_layers if args.trace else measure_end_to_end
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        work = Path(tmp)
        (work / "model.rtabs").write_text(wl.source, encoding="utf-8")
        values, attempted, failed = measure(wl, args.seconds, work)

    print(f"host: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()}")
    print(f"workload: {wl.name} seed={args.seed} flags={' '.join(wl.run_flags)}"
          f" attempted={attempted} failed={failed}")
    correct = failed == 0
    if correct and set(values) != set(units):
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)

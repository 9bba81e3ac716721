"""Acceptance gate: nine behavioral criteria, each reporting one
`criterion N: PASS/FAIL - detail` line on the real stderr so the
verdicts survive output capture."""

import random
import re
import subprocess
import sys
import time
from fractions import Fraction

from rtabs import (
    check_deadline_bookkeeping, derive_outcome, load_model, simulate,
)
from rtabs.evaluator import Program, eval_expr
from rtabs.nodes import Apply, Lit
from rtabs.prelude import prelude_model
from rtabs.trace import render_csv
from rtabs.values import (
    INF_DURATION, TRUE, BoolVal, is_inf_duration, mk_duration,
)

import conftest
from conftest import (
    CLI_ENV, GOLDEN_DIR, compiled, model_file, other_interpreters,
)
import mte_cases
import reference_executor as ref


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {verdict} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__)
    sys.__stderr__.flush()


# shared, lazily computed runs: criteria 1-3 produce them, criterion 9
# re-checks the same traces
_RUNS: dict = {}


def _media(policy: str):
    key = f"media_{policy}"
    if key not in _RUNS:
        model = load_model(model_file(f"media_server_{policy}.rtabs"))
        _RUNS[key] = simulate(model, 600)
    return _RUNS[key]


def _monitor_runs():
    if "monitors" not in _RUNS:
        runs = []
        for name in ("monitor_simple", "monitor_general"):
            model = load_model(model_file(f"{name}.rtabs"))
            for seed in range(20):
                runs.append((name, seed,
                             simulate(model, 200, seed=seed,
                                      duration_policy="uniform")))
        _RUNS["monitors"] = runs
    return _RUNS["monitors"]


def _misses(result) -> int:
    return sum(1 for e in result.trace if e.kind == "deadline_miss")


def test_criterion_1_policy_ordering():
    t0 = time.perf_counter()
    counts = {p: _misses(_media(p)) for p in ("sjf", "edf", "fifo")}
    elapsed = time.perf_counter() - t0
    ok = (counts["sjf"] <= counts["edf"] and counts["sjf"] <= counts["fifo"]
          and counts == {"sjf": 20, "edf": 33, "fifo": 52}
          and elapsed < 10.0
          and all(_media(p).status == "finished" for p in counts))
    _report(1, ok, f"misses sjf={counts['sjf']} edf={counts['edf']} "
                   f"fifo={counts['fifo']} in {elapsed:.1f}s")
    assert ok, counts


def test_criterion_2_adaptive_extremes():
    low = load_model(model_file("media_server_adaptive_low.rtabs"))
    high = load_model(model_file("media_server_adaptive_high.rtabs"))
    low_csv = render_csv(simulate(low, 600).trace)
    high_csv = render_csv(simulate(high, 600).trace)
    fifo_csv = render_csv(_media("fifo").trace)
    sjf_csv = render_csv(_media("sjf").trace)
    ok = low_csv == fifo_csv and high_csv == sjf_csv
    _report(2, ok, f"limit 0 == fifo: {low_csv == fifo_csv}; "
                   f"limit 10^6 == sjf: {high_csv == sjf_csv} (byte equality)")
    assert ok


def _wake_orders(trace):
    events = list(trace)
    wait_order, suspend_at = [], {}
    for i, e in enumerate(events):
        if e.kind == "suspend" and e.method == "wait" and e.pid not in suspend_at:
            wait_order.append(e.pid)
            suspend_at[e.pid] = i
    wake_order = []
    for i, e in enumerate(events):
        if (e.kind == "schedule" and e.method == "wait"
                and e.pid in suspend_at and i > suspend_at[e.pid]
                and e.pid not in wake_order):
            wake_order.append(e.pid)
    return wait_order, wake_order


def test_criterion_3_monitor_wake_order():
    good = 0
    runs = _monitor_runs()
    for name, seed, result in runs:
        wait_order, wake_order = _wake_orders(result.trace)
        if (result.status == "finished" and len(wait_order) == 5
                and wake_order == wait_order):
            good += 1
    ok = good == len(runs) == 40
    _report(3, ok, f"{good}/{len(runs)} runs wake 5 waiters in wait order "
                   f"(both monitor encodings, 20 seeds each)")
    assert ok


def test_criterion_4_time_machinery_table():
    failures = []
    for name, check in mte_cases.CASES:
        try:
            check()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    ok = not failures and len(mte_cases.CASES) == 13
    _report(4, ok, f"{len(mte_cases.CASES) - len(failures)}/13 table cases "
                   f"exact" + (f"; failing: {failures}" if failures else ""))
    assert ok, failures


def test_criterion_5_single_request_golden():
    model = load_model(model_file("single_request.rtabs"))
    result = simulate(model, 600)
    golden = (GOLDEN_DIR / "single_request.trace.csv").read_text("utf-8")
    csv_ok = render_csv(result.trace) == golden
    ret = next(e for e in result.trace
               if e.kind == "return" and e.method == "request")
    out = derive_outcome(result.trace, ret.pid)
    values_ok = (result.clock == 17 and ret.time == 17
                 and ret.get("value") == "True" and ret.get("deadline") == "38"
                 and out.response == 2 and out.lateness == -38
                 and out.tardiness == 0)
    ok = csv_ok and values_ok
    _report(5, ok, f"golden byte equality: {csv_ok}; value True at clock 17, "
                   f"remaining 38, R=2, L=-38, E=0: {values_ok}")
    assert ok


# the generated forms through which criterion 6 catches a stale timer and
# a delay whose tick wake-up is lost: a delay joined with a field, `deadline`
# or `now` test that can stop holding while it runs, and an await on a clock
# time.  A change to the builder's draws must not lose either of them.
TIMER_FORMS = {
    "joined delay": re.compile(r"await [^;]*&& duration\((\d+), \1\);"),
    "clock await": re.compile(r"await timeValue\(now\) >= \d+;"),
}


def test_criterion_6_reference_inclusion():
    programs = 200
    sources = [ref.ProgramBuilder(random.Random(seed)).build()[0]
               for seed in range(programs)]
    missing = [form for form, pattern in TIMER_FORMS.items()
               if not any(pattern.search(source) for source in sources)]
    assert not missing, f"no generated program has a {missing[0]}"
    total_states = 0
    # seeds 0-59 that reach more states than the engine takes steps:
    # most of them must exercise real nondeterminism
    interesting = 0
    bad = None
    for seed in range(programs):
        try:
            steps, states = ref.check_inclusion(seed)
            assert steps >= 3, f"seed {seed}: only {steps} engine steps"
            total_states += states
            if seed < 60 and states > steps:
                interesting += 1
        except AssertionError as exc:
            bad = str(exc).splitlines()[0]
            break
    if bad is None and interesting < 30:
        bad = f"only {interesting} of seeds 0-59 reach more states than steps"
    ok = bad is None
    _report(6, ok, f"{programs} generated programs, engine states within "
                   f"{total_states} reference-reachable states"
                   + (f"; first failure: {bad}" if bad else ""))
    assert ok, bad


def _duration_algebra():
    program = Program.from_model(prelude_model())
    from rtabs.evaluator import EvalContext

    def call(fn, *vals):
        code = compiled(program, Apply(fn, tuple(Lit(v) for v in vals)))
        return eval_expr(code, {}, EvalContext(program))

    def rand_dur(rng):
        if rng.random() < 0.2:
            return INF_DURATION
        return mk_duration(Fraction(rng.randint(-60, 60), rng.randint(1, 9)))

    return call, rand_dur


def test_criterion_7_duration_algebra():
    call, rand_dur = _duration_algebra()
    rng = random.Random(1234)
    checks = {"totality": 0, "transitivity": 0, "associativity": 0,
              "commutativity": 0, "identity": 0, "absorption": 0}
    zero = mk_duration(0)
    for _ in range(1000):
        a, b, c = rand_dur(rng), rand_dur(rng), rand_dur(rng)
        lab = call("lte", a, b)
        lba = call("lte", b, a)
        assert isinstance(lab, BoolVal) and isinstance(lba, BoolVal)
        assert lab == TRUE or lba == TRUE
        checks["totality"] += 1
        if call("lte", a, b) == TRUE and call("lte", b, c) == TRUE:
            assert call("lte", a, c) == TRUE
        checks["transitivity"] += 1
        assert call("add", a, call("add", b, c)) == \
            call("add", call("add", a, b), c)
        checks["associativity"] += 1
        assert call("add", a, b) == call("add", b, a)
        checks["commutativity"] += 1
        assert call("add", a, zero) == a
        checks["identity"] += 1
        assert is_inf_duration(call("add", a, INF_DURATION))
        checks["absorption"] += 1
    ok = all(n == 1000 for n in checks.values())
    _report(7, ok, "1000 randomized cases each: lte totality/transitivity, "
                   "add associativity/commutativity/identity/absorption")
    assert ok, checks


def test_criterion_8_rerun_determinism(tmp_path):
    combos = [
        (model_file("media_server_edf.rtabs"), "600", "worst", "0"),
        (model_file("monitor_simple.rtabs"), "200", "uniform", "7"),
        (model_file("single_request.rtabs"), "600", "best", "3"),
    ]
    # this interpreter twice, then each other one once
    others, skipped = other_interpreters((3, 10))
    runs = [sys.executable, sys.executable, *others.values()]
    identical = 0
    for i, (model, until, policy, seed) in enumerate(combos):
        outs = []
        for attempt, exe in enumerate(runs):
            path = tmp_path / f"t{i}_{attempt}.csv"
            res = subprocess.run(
                [exe, "-m", "rtabs.cli", "run", model,
                 "--until", until, "--duration-policy", policy,
                 "--seed", seed, "--trace", str(path)],
                capture_output=True, text=True, env=CLI_ENV)
            assert res.returncode == 0, (exe, res.stderr)
            outs.append(path.read_bytes())
        if all(out == outs[0] for out in outs):
            identical += 1
    ok = identical == len(combos)
    versions = ", ".join([sys.version.split()[0], *others])
    not_started = (f"; {', '.join(skipped)} on PATH did not start"
                   if skipped else "")
    _report(8, ok, f"{identical}/{len(combos)} (model, seed, policy, limit) "
                   f"combos byte-identical across fresh processes and "
                   f"{1 + len(others)} interpreter(s) ({versions})"
                   f"{not_started}")
    assert ok


def test_criterion_9_deadline_bookkeeping():
    runs = [(f"media_{p}", _media(p)) for p in ("sjf", "edf", "fifo")]
    runs += [(f"{name}#{seed}", result)
             for name, seed, result in _monitor_runs()]
    violations = []
    events = 0
    for name, result in runs:
        events += sum(1 for e in result.trace
                      if e.kind in ("schedule", "return"))
        for v in check_deadline_bookkeeping(result.trace):
            violations.append(f"{name}: {v}")
    ok = not violations
    _report(9, ok, f"0 violations across {len(runs)} runs ({events} "
                   f"schedule/return events checked)" if ok else
            f"{len(violations)} violations; first: {violations[0]}")
    assert ok, violations[:5]

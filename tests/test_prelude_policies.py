"""Scheduling policy library, checked against host-side selection oracles.

Reflected Process values are built directly; each policy is evaluated
the same way the engine does it, with `queue` bound to the reflected
ready list.  Oracles re-state each policy's selection rule in Python
(argmin/argmax with an explicit tie side), independently of the
evaluator, and random queues are skewed toward key collisions so the
tie-breaking side is actually exercised.
"""

import random
from fractions import Fraction

from rtabs import load_source
from rtabs.desugar import desugar
from rtabs.evaluator import EvalContext, Program, eval_expr
from rtabs.parser import parse_expr
from rtabs.values import (
    INF_DURATION, BoolVal, DataVal, FutRef, StrVal, mk_duration, mk_list,
    mk_time, num,
)

from conftest import compiled


def program(extra_source=""):
    model, diags = load_source(extra_source, "<policy-test>")
    assert diags == [], diags
    return Program.from_model(desugar(model))


PRELUDE = program()


def proc(pid, name="m", arrival=0, cost=0, deadline=0, start=0, finish=0,
         critical=False, value=0):
    """Reflected process; cost/deadline None means infinite."""
    def dur(x):
        return INF_DURATION if x is None else mk_duration(Fraction(x))
    return DataVal("Proc", (
        FutRef(pid), StrVal(name), mk_time(Fraction(arrival)), dur(cost),
        dur(deadline), mk_time(Fraction(start)), mk_time(Fraction(finish)),
        BoolVal(critical), num(value)))


def run_policy(source, procs, prog=PRELUDE, extra_env=None):
    env = {"queue": mk_list(procs)}
    if extra_env:
        env.update(extra_env)
    return eval_expr(compiled(prog, parse_expr(source)), env,
                     EvalContext(prog))


# field accessors for the oracles, reading the reflected tuple directly

def p_name(p):
    return p.args[1].value


def p_arrival(p):
    return p.args[2].args[0].value


def p_dur(p, index):
    d = p.args[index]
    return None if d.ctor == "InfDuration" else d.args[0].value


def p_value(p):
    return p.args[8].value


def dkey(d):
    return (1, Fraction(0)) if d is None else (0, d)


def first_min(procs, key):
    best = procs[0]
    for p in procs[1:]:
        if key(p) < key(best):
            best = p
    return best


def random_queue(rng, max_len=8):
    n = rng.randint(1, max_len)
    return [proc(pid=i,
                 name=rng.choice(("get", "put", "log")),
                 arrival=rng.randint(0, 4),
                 cost=None if rng.random() < 0.15 else rng.randint(0, 4),
                 deadline=None if rng.random() < 0.25 else rng.randint(0, 5),
                 value=rng.randint(0, 2))
            for i in range(n)]


def check_policy(source, oracle, seed, iterations=300, prog=PRELUDE):
    rng = random.Random(seed)
    for _ in range(iterations):
        queue = random_queue(rng)
        got = run_policy(source, queue, prog=prog)
        assert got in queue, "policy must pick a queue member"
        assert got == oracle(queue), (source, queue)


def test_default_is_head():
    check_policy("default(queue)", lambda q: q[0], seed=1)


def test_edf_earliest_remaining_deadline():
    check_policy("edf(queue)",
                 lambda q: first_min(q, lambda p: dkey(p_dur(p, 4))), seed=2)


def test_fifo_earliest_arrival():
    check_policy("fifo(queue)",
                 lambda q: first_min(q, lambda p: p_arrival(p)), seed=3)


def test_sjf_smallest_cost():
    check_policy("sjf(queue)",
                 lambda q: first_min(q, lambda p: dkey(p_dur(p, 3))), seed=4)


def test_dp_smallest_value():
    check_policy("dp(queue)",
                 lambda q: first_min(q, lambda p: p_value(p)), seed=5)


def test_fp_greatest_weight_shadowed_table():
    prog = program("""
    def Int weight(String s) =
      if (s == "get") then 3 else if (s == "put") then 2 else 1;
    """)
    weights = {"get": 3, "put": 2, "log": 1}

    def oracle(q):
        best = q[0]
        for p in q[1:]:
            if weights[p_name(p)] > weights[p_name(best)]:
                best = p
        return best

    check_policy("fp(queue)", oracle, seed=6, prog=prog)


def test_fp_default_weights_pick_first():
    check_policy("fp(queue)", lambda q: q[0], seed=7)


def test_sjfdp_cheapest_among_most_urgent():
    # the accumulator reverses the candidate list, so cost ties resolve
    # to the latest queued candidate

    def oracle(q):
        low = min(p_value(p) for p in q)
        best = None
        for p in q:
            if p_value(p) != low:
                continue
            if best is None or dkey(p_dur(p, 3)) <= dkey(p_dur(best, 3)):
                best = p
        return best

    check_policy("sjfdp(queue)", oracle, seed=8)


def test_scheduler_comp_defaults_to_first():
    check_policy("scheduler(queue)", lambda q: q[0], seed=9)


def test_scheduler_with_shadowed_comp_is_edf():
    prog = program(
        "def Bool comp(Process p1, Process p2) = lte(deadline(p1), deadline(p2));")
    check_policy("scheduler(queue)",
                 lambda q: first_min(q, lambda p: dkey(p_dur(p, 4))),
                 seed=10, prog=prog)


def test_cond_scheduler():
    ccp = mk_list([StrVal("get")])

    def oracle(q, n=2):
        critical = [p for p in q if p_name(p) == "get"]
        if len(q) <= n or not critical:
            return q[0]
        return critical[0]

    rng = random.Random(11)
    for _ in range(300):
        queue = random_queue(rng, max_len=5)
        got = run_policy("condScheduler(queue, ccp, 2)", queue,
                         extra_env={"ccp": ccp})
        assert got == oracle(queue), queue


def test_lengthsensitive_extremes_and_boundary():
    fifo = lambda q: first_min(q, lambda p: p_arrival(p))
    sjf = lambda q: first_min(q, lambda p: dkey(p_dur(p, 3)))
    rng = random.Random(12)
    for _ in range(200):
        queue = random_queue(rng, max_len=6)
        assert run_policy("lengthsensitive(0, queue)", queue) == fifo(queue)
        assert run_policy("lengthsensitive(1000000, queue)", queue) == sjf(queue)
        # at the boundary the queue length equals the limit: not under it
        limit = len(queue)
        assert run_policy(f"lengthsensitive({limit}, queue)", queue) == fifo(queue)
        assert run_policy(f"lengthsensitive({limit + 1}, queue)", queue) == sjf(queue)


def test_policies_on_singleton_queue():
    q = [proc(0, cost=None, deadline=None)]
    for src in ("default(queue)", "edf(queue)", "fifo(queue)", "sjf(queue)",
                "dp(queue)", "fp(queue)", "sjfdp(queue)",
                "scheduler(queue)", "lengthsensitive(3, queue)"):
        assert run_policy(src, q) == q[0], src

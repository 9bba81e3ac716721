"""Table of exact-equality cases for the time machinery (mte and adv).

Each entry is (name, check) where check() builds a configuration by
hand, runs mte_raw/adv on it, and asserts exact results.  The table
is shared between the unit tests and the acceptance gate.
"""

from fractions import Fraction

from rtabs import (
    Configuration, FutureCell, ObjectState, ProcessRecord, load_source,
)
from rtabs.desugar import default_policy, desugar
from rtabs.engine import adv, mte_raw, remaining_deadline, render_head
from rtabs.evaluator import Program
from rtabs.nodes import (
    GBool, GDuration, GFut, Lit, RGet, SAssign, SAwait, SDuration, SSkip,
)
from rtabs.values import (
    FALSE, INF_DURATION, TRUE, FutRef, StrVal, duration_rat,
    is_inf_duration, mk_duration, mk_time, num,
)

from conftest import compiled

PROGRAM = Program.from_model(desugar(load_source("", "<empty>")[0]))


def proc(pid, body, deadline=INF_DURATION, clock=0, sample=None,
         program=PROGRAM):
    """A process running body, compiled with program, whose deadline,
    given as the time left at clock, is kept absolute in `due`, as the
    engine keeps it; the sample of its head is already absolute (all
    cases but one run at clock 0)."""
    locals_ = {
        "destiny": FutRef(pid), "method": StrVal("m"), "arrival": mk_time(0),
        "cost": mk_duration(0), "start": mk_time(0), "finish": mk_time(0),
        "critical": FALSE, "value": num(0),
    }
    due = None if is_inf_duration(deadline) else clock + duration_rat(deadline)
    return ProcessRecord(pid=pid, method="m", locals=locals_,
                         block=program.block(tuple(body)), sample=sample,
                         due=due)


def duration(best, worst):
    """A `duration` statement with literal bounds."""
    return SDuration(Lit(num(best)), Lit(num(worst)))


def conjunct(best, worst):
    """A duration conjunct with literal bounds."""
    return GDuration(Lit(num(best)), Lit(num(worst)))


def _object(oid, **processes):
    policy = default_policy()
    return ObjectState(oid, "C", policy, {}, compiled(PROGRAM, policy),
                       **processes)


def busy(oid, active):
    return _object(oid, active=active)


def idle(oid, queue):
    return _object(oid, queue=list(queue))


def config(*objs, futures=(), clock=0):
    cfg = Configuration(clock=Fraction(clock))
    for obj in objs:
        cfg.objects[obj.oid] = obj
    for cell in futures:
        cfg.futures[cell.fid] = cell
    return cfg


def _raw(cfg):
    return mte_raw(cfg, PROGRAM)


# --------------------------------------------------------------- mte cases


def case_busy_duration():
    # a sampled duration head on the active process bounds mte by its end
    cfg = config(busy(0, proc(1, [duration(3, 5)], sample=(Fraction(5),))))
    assert _raw(cfg) == Fraction(5)


def case_elapsed_duration_is_enabled():
    # an end at the clock means the head may fire now, so no time may pass
    cfg = config(busy(0, proc(1, [duration(0, 5)], sample=(Fraction(0),))))
    assert _raw(cfg) == Fraction(0)


def case_idle_await_duration():
    # an idle object waits at most until the guard's sampled end
    waiting = proc(1, [SAwait((conjunct(2, 4),))], sample=(Fraction(4),))
    cfg = config(idle(0, [waiting]))
    assert _raw(cfg) == Fraction(4)


def case_idle_min_over_queue():
    cfg = config(idle(0, [
        proc(1, [SAwait((conjunct(2, 4),))], sample=(Fraction(4),)),
        proc(2, [duration(3, 3)], sample=(Fraction(3),)),
    ]))
    assert _raw(cfg) == Fraction(3)


def case_blocked_get_is_infinite():
    blocked = proc(1, [SAssign(None, "x", RGet(Lit(FutRef(9))))])
    cfg = config(busy(0, blocked), futures=[FutureCell(9)])
    assert _raw(cfg) is None
    # once the future resolves the head is enabled
    cfg.futures[9].resolve(num(1))
    assert _raw(cfg) == Fraction(0)


def case_false_conjunct_is_infinite():
    guards = (conjunct(2, 5), GBool(Lit(FALSE)))
    cfg = config(idle(0, [proc(1, [SAwait(guards)], sample=(Fraction(5),))]))
    assert _raw(cfg) is None


def case_conjunction_takes_max():
    guards = (conjunct(2, 5), GBool(Lit(TRUE)))
    cfg = config(idle(0, [proc(1, [SAwait(guards)], sample=(Fraction(5),))]))
    assert _raw(cfg) == Fraction(5)


def case_ready_guard_wins_globally():
    # a satisfied guard anywhere pins mte to zero across objects
    waiting = busy(0, proc(1, [duration(4, 4)], sample=(Fraction(4),)))
    ready = idle(1, [proc(2, [SAwait((GBool(Lit(TRUE)),))])])
    cfg = config(waiting, ready)
    assert _raw(cfg) == Fraction(0)


def case_integral_delay():
    # a delay is any wait that is neither None nor a future, whatever its
    # number type: an int time left bounds mte as a Fraction does
    cfg = config(busy(0, proc(1, [duration(3, 5)], sample=(5,))))
    cfg.clock = 0
    assert _raw(cfg) == 5


# --------------------------------------------------------------- adv cases


# adv only moves the clock; what it must change is what the engine
# derives from the clock: the time left until a deadline
# (remaining_deadline) and on a sampled head (as render_head shows it)


def case_adv_decrements_deadlines():
    p1 = proc(1, [SSkip()], deadline=mk_duration(10))
    p2 = proc(2, [SSkip()], deadline=INF_DURATION)
    cfg = config(busy(0, p1), idle(1, [p2]))
    adv(cfg, Fraction(2))
    assert cfg.clock == Fraction(2)
    assert remaining_deadline(p1, cfg.clock) == mk_duration(8)
    assert remaining_deadline(p2, cfg.clock) == INF_DURATION


def case_adv_decrements_head_duration():
    # duration heads sampled to end at 3 and at 5
    p = proc(1, [duration(3, 3)], sample=(Fraction(3),))
    q = proc(2, [duration(5, 5)], sample=(Fraction(5),))
    cfg = config(busy(0, p), busy(1, q))
    adv(cfg, Fraction(2))
    assert render_head(p, cfg.clock) == "duration[1, 1];"
    assert render_head(q, cfg.clock) == "duration[3, 3];"


def case_adv_decrements_guard_durations_only():
    p = proc(1, [SAwait((conjunct(2, 2), conjunct(4, 4), GFut("f")))],
             sample=(Fraction(2), Fraction(4)))
    cfg = config(idle(0, [p]))
    adv(cfg, Fraction(2))
    assert (render_head(p, cfg.clock)
            == "await duration[0, 0] && duration[2, 2] && f?;")


def case_adv_leaves_everything_else():
    # only the head's sample is read at the new clock; later statements
    # keep their bounds, and deadlines past zero keep counting down
    # (lateness tracking)
    p = proc(1, [SSkip(), duration(3, 3)], deadline=mk_duration(1), clock=7)
    cfg = config(busy(0, p), clock=7)
    adv(cfg, Fraction(2))
    assert cfg.clock == Fraction(9)
    assert p.block[p.index] == SSkip() and p.sample is None
    assert p.block[1] == duration(3, 3)
    assert remaining_deadline(p, cfg.clock) == mk_duration(-1)


CASES = [
    ("busy duration head bounds mte by its end", case_busy_duration),
    ("elapsed duration head is enabled (mte 0)", case_elapsed_duration_is_enabled),
    ("idle await-duration guard bounds mte", case_idle_await_duration),
    ("idle object takes the min over its queue", case_idle_min_over_queue),
    ("blocked get yields infinite mte", case_blocked_get_is_infinite),
    ("false boolean conjunct yields infinite mte", case_false_conjunct_is_infinite),
    ("guard conjunction takes the max", case_conjunction_takes_max),
    ("satisfied guard pins global mte to zero", case_ready_guard_wins_globally),
    ("an integral delay bounds mte", case_integral_delay),
    ("adv decrements finite deadlines only", case_adv_decrements_deadlines),
    ("adv decrements the head duration", case_adv_decrements_head_duration),
    ("adv decrements duration guards, keeps others", case_adv_decrements_guard_durations_only),
    ("adv leaves non-head statements untouched", case_adv_leaves_everything_else),
]

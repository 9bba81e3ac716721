"""Timing outcomes and miss aggregation, checked on hand-built traces
first and then on a real simulation round-trip."""

from fractions import Fraction

import pytest

from rtabs import (
    IncompleteProcess, TraceEvent, check_deadline_bookkeeping,
    derive_outcome, derive_outcomes, misses_series, simulate,
)
from rtabs.trace import (
    read_csv_text, read_structured_text, render_csv, render_structured,
)


def ev(time, kind, obj=None, pid=None, method=None, data=()):
    return TraceEvent(Fraction(time), kind, obj, pid, method, tuple(data))


def lifecycle(pid, method, arrival, deadline, cost, finish, remaining,
              label=None, start=None):
    base = [("deadline", deadline), ("cost", cost), ("critical", "False")]
    if label is not None:
        base.append(("label", label))
    return [
        ev(arrival, "activate", obj=1, pid=pid, method=method, data=base),
        ev(arrival if start is None else start, "schedule", obj=1, pid=pid,
           method=method, data=[("deadline", deadline)]),
        ev(finish, "return", obj=1, pid=pid, method=method,
           data=[("value", "True"), ("deadline", remaining)]),
    ]


def test_outcome_identities():
    trace = lifecycle(4, "request", 15, "40", "2", 17, "38",
                      label="Photo")
    out = derive_outcome(trace, 4)
    assert out.arrival == 15
    assert out.absolute_deadline == 55
    assert out.response == 2
    assert out.lateness == -38
    assert out.tardiness == 0
    assert out.laxity == 38
    assert not out.missed
    assert out.series_key() == "request[Photo]"


def test_missed_outcome():
    trace = lifecycle(2, "slow", 0, "10", "1", 13, "-3")
    out = derive_outcome(trace, 2)
    assert out.lateness == 3
    assert out.tardiness == 3
    assert out.missed
    assert out.series_key() == "slow"


def test_infinite_deadline_never_misses():
    trace = lifecycle(7, "bg", 0, "inf", "inf", 500, "inf")
    out = derive_outcome(trace, 7)
    assert out.absolute_deadline is None
    assert out.lateness is None
    assert out.tardiness == 0
    assert out.laxity is None
    assert not out.missed


def test_start_is_first_schedule_event():
    trace = lifecycle(3, "m", 0, "20", "1", 9, "11", start=5)
    out = derive_outcome(trace, 3)
    assert out.start == 5
    assert out.response == 9


def test_rational_bookkeeping():
    trace = lifecycle(1, "m", Fraction(1, 3), "1/2", "1/6",
                      Fraction(5, 6), "0")
    out = derive_outcome(trace, 1)
    assert out.absolute_deadline == Fraction(5, 6)
    assert out.lateness == 0
    assert not out.missed  # lateness must be strictly positive


@pytest.mark.parametrize("value", [
    0, -5, Fraction(7, 2), Fraction(-7, 2), 123456789012345678901234567890])
def test_read_numbers_are_exact(value):
    # as a time and as a `deadline=` value, in either encoding: an `int`
    # when integral, else a `Fraction`, as in a run's own trace
    text = str(value)
    csv_text = ("time,event,object,pid,method,data\n"
                f"{text},activate,o1,f1,m,deadline={text};cost=0\n"
                f"{text},return,o1,f1,m,value=0\n")
    rows = read_csv_text(csv_text)
    for events in (rows, read_structured_text(render_structured(rows))):
        for read in (events[0].time, derive_outcome(events, 1).deadline):
            assert read == value
            assert type(read) is (int if type(value) is int else Fraction)


def test_incomplete_processes_listed():
    rows = lifecycle(1, "done", 0, "10", "1", 4, "6")
    rows.append(ev(5, "invoke", obj=1, pid=9, method="pending",
                   data=[("caller", "o0"), ("deadline", "inf"),
                         ("critical", "False")]))
    outcomes, incomplete = derive_outcomes(rows)
    assert set(outcomes) == {1}
    assert incomplete == [9]
    with pytest.raises(IncompleteProcess):
        derive_outcome(rows, 9)


def test_return_without_schedule_completes_for_both_readers():
    # a return after the activate completes a process, with or without a
    # schedule; its start then falls back to its arrival
    rows = [
        ev(0, "activate", obj=1, pid=4, method="m",
           data=[("deadline", "5"), ("cost", "1"), ("critical", "False")]),
        ev(7, "return", obj=1, pid=4, method="m",
           data=[("value", "True"), ("deadline", "-2")]),
    ]
    outcomes, incomplete = derive_outcomes(rows)
    assert set(outcomes) == {4}
    assert incomplete == []
    assert outcomes[4].start == 0
    assert outcomes[4].missed
    assert derive_outcome(rows, 4) == outcomes[4]
    assert misses_series(rows)[-1].misses == 1


def test_outcomes_and_points_come_in_return_order():
    rows = (lifecycle(1, "a", 0, "10", "1", 9, "1")
            + lifecycle(2, "b", 1, "3", "1", 6, "-2"))
    rows.sort(key=lambda e: e.time)
    outcomes, _ = derive_outcomes(rows)
    assert list(outcomes) == [2, 1]
    points = misses_series(rows)
    assert [(p.time, p.misses) for p in points] == [(6, 1), (9, 1)]


def test_return_before_activate_does_not_complete():
    rows = lifecycle(3, "m", 2, "10", "1", 5, "5")
    rows.insert(0, rows.pop())  # the return is read first
    outcomes, incomplete = derive_outcomes(rows)
    assert outcomes == {}
    assert incomplete == [3]
    assert misses_series(rows) == []


def test_misses_series_cumulative():
    rows = (lifecycle(1, "a", 0, "10", "1", 5, "5")
            + lifecycle(2, "b", 0, "10", "1", 13, "-3")
            + lifecycle(3, "a", 0, "15", "1", 20, "-5"))
    rows.sort(key=lambda e: e.time)
    points = misses_series(rows)
    assert [(p.time, p.misses) for p in points] == [(5, 0), (13, 1), (20, 2)]
    assert all(p.breakdown is None for p in points)


def test_misses_series_method_breakdown():
    rows = (lifecycle(1, "a", 0, "10", "1", 5, "5")
            + lifecycle(2, "b", 0, "10", "1", 13, "-3")
            + lifecycle(3, "a", 0, "15", "1", 20, "-5"))
    rows.sort(key=lambda e: e.time)
    points = misses_series(rows, by="method")
    assert points[0].breakdown == {}
    assert points[1].breakdown == {"b": 1}
    assert points[2].breakdown == {"b": 1, "a": 1}
    # snapshots must not alias each other
    assert points[1].breakdown is not points[2].breakdown
    with pytest.raises(ValueError):
        misses_series(rows, by="pid")


def test_series_round_trips_through_csv(single_request_model):
    result = simulate(single_request_model, 600)
    direct = misses_series(result.trace, by="method")
    reread = misses_series(read_csv_text(render_csv(result.trace)),
                           by="method")
    assert direct == reread


def test_bookkeeping_holds_on_real_run(single_request_model):
    result = simulate(single_request_model, 600)
    assert check_deadline_bookkeeping(result.trace) == []


def test_bookkeeping_catches_tampering(single_request_model):
    result = simulate(single_request_model, 600)
    rows = list(result.trace)
    idx = next(i for i, e in enumerate(rows)
               if e.kind == "return" and e.get("deadline") not in (None, "inf"))
    pid = rows[idx].pid
    rows[idx] = rows[idx]._replace(data=(("value", "True"),
                                         ("deadline", "999")))
    violations = check_deadline_bookkeeping(rows)
    assert violations and f"f{pid}" in violations[0]


def test_bookkeeping_catches_finiteness_flip(single_request_model):
    result = simulate(single_request_model, 600)
    rows = list(result.trace)
    idx = next(i for i, e in enumerate(rows)
               if e.kind == "return" and e.get("deadline") not in (None, "inf"))
    rows[idx] = rows[idx]._replace(data=(("value", "True"),
                                         ("deadline", "inf")))
    violations = check_deadline_bookkeeping(rows)
    assert violations and "finiteness" in violations[0]

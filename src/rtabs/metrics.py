"""Per-process timing outcomes and deadline-miss aggregation.

Everything here is derived from trace events alone, so exported traces
can be analyzed without re-running the simulation.  Conventions:

- arrival r = time of the activate event; relative deadline d and cost c
  come from its payload (d may be infinite, rendered `inf`);
- start s = time of the first schedule event, finish f = time of the
  return event;
- absolute deadline D = r + d, response R = f - r, lateness L = f - D,
  tardiness E = max(0, L), laxity X = d - c;
- a process misses its deadline iff L > 0, which is exactly a negative
  remaining deadline on its return event.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import RtabsError
from .trace import TraceEvent
from .values import parse_rat


class IncompleteProcess(RtabsError):
    """The process never returned within the simulated horizon."""


def _parse_dur(text: str | None) -> Fraction | None:
    if text is None or text == "inf":
        return None
    return parse_rat(text)


@dataclass(frozen=True)
class ProcessOutcome:
    pid: int
    method: str
    label: str | None
    arrival: Fraction
    cost: Fraction | None      # None: infinite (no finite cost bound)
    deadline: Fraction | None  # None: infinite (no deadline)
    start: Fraction
    finish: Fraction
    critical: bool

    @property
    def absolute_deadline(self) -> Fraction | None:
        if self.deadline is None:
            return None
        return self.arrival + self.deadline

    @property
    def response(self) -> Fraction:
        return self.finish - self.arrival

    @property
    def lateness(self) -> Fraction | None:
        if self.absolute_deadline is None:
            return None
        return self.finish - self.absolute_deadline

    @property
    def tardiness(self) -> Fraction:
        late = self.lateness
        if late is None or late < 0:
            return Fraction(0)
        return late

    @property
    def laxity(self) -> Fraction | None:
        if self.deadline is None or self.cost is None:
            return None
        return self.deadline - self.cost

    @property
    def missed(self) -> bool:
        late = self.lateness
        return late is not None and late > 0

    def series_key(self) -> str:
        """Method name, refined by the job label when one was recorded."""
        if self.label is not None:
            return f"{self.method}[{self.label}]"
        return self.method


@dataclass(frozen=True)
class SeriesPoint:
    time: Fraction
    misses: int
    breakdown: dict[str, int] | None = None  # cumulative, key -> misses


def _collect(trace: list[TraceEvent]):
    """Group the per-process lifecycle events by pid."""
    activates: dict[int, TraceEvent] = {}
    first_schedule: dict[int, Fraction] = {}
    returns: dict[int, TraceEvent] = {}
    invoked: dict[int, None] = {}  # insertion-ordered set of pids
    for ev in trace:
        if ev.pid is None:
            continue
        if ev.kind == "invoke":
            invoked.setdefault(ev.pid)
        elif ev.kind == "activate":
            activates[ev.pid] = ev
            invoked.setdefault(ev.pid)
        elif ev.kind == "schedule":
            first_schedule.setdefault(ev.pid, ev.time)
        elif ev.kind == "return":
            returns[ev.pid] = ev
    return activates, first_schedule, returns, invoked


def _build_outcome(pid: int, act: TraceEvent, start: Fraction,
                   ret: TraceEvent) -> ProcessOutcome:
    return ProcessOutcome(
        pid=pid,
        method=act.method or "?",
        label=act.get("label"),
        arrival=act.time,
        cost=_parse_dur(act.get("cost")),
        deadline=_parse_dur(act.get("deadline")),
        start=start,
        finish=ret.time,
        critical=act.get("critical") == "True",
    )


def derive_outcomes(
        trace: list[TraceEvent]) -> tuple[dict[int, ProcessOutcome], list[int]]:
    """Outcomes for every completed process, plus the pids that were still
    alive (invoked or activated but not returned) when the trace ends."""
    activates, first_schedule, returns, invoked = _collect(trace)
    outcomes: dict[int, ProcessOutcome] = {}
    incomplete: list[int] = []
    for pid in invoked:
        act = activates.get(pid)
        ret = returns.get(pid)
        if act is None or ret is None or pid not in first_schedule:
            incomplete.append(pid)
            continue
        outcomes[pid] = _build_outcome(pid, act, first_schedule[pid], ret)
    return outcomes, incomplete


def derive_outcome(trace: list[TraceEvent], pid: int) -> ProcessOutcome:
    outcomes, _ = derive_outcomes(trace)
    if pid not in outcomes:
        raise IncompleteProcess(f"process f{pid} did not complete")
    return outcomes[pid]


def misses_series(trace: list[TraceEvent],
                  by: str | None = None) -> list[SeriesPoint]:
    """Cumulative deadline-miss counts, one point per return event.  With
    by="method" each point also carries per-method (label-refined)
    cumulative counts."""
    if by not in (None, "method"):
        raise ValueError(f"unsupported breakdown {by!r}")
    activates, first_schedule, _, _ = _collect(trace)
    points: list[SeriesPoint] = []
    total = 0
    per_key: dict[str, int] = {}
    for ev in trace:
        if ev.kind != "return" or ev.pid is None:
            continue
        act = activates.get(ev.pid)
        if act is None:
            continue
        outcome = _build_outcome(ev.pid, act,
                                 first_schedule.get(ev.pid, act.time), ev)
        if outcome.missed:
            total += 1
            key = outcome.series_key()
            per_key[key] = per_key.get(key, 0) + 1
        points.append(SeriesPoint(ev.time, total,
                                  dict(per_key) if by == "method" else None))
    return points


def check_deadline_bookkeeping(trace: list[TraceEvent]) -> list[str]:
    """Verify d0 - remaining = clock - arrival on every schedule and
    return event of processes with a finite initial deadline; returns a
    list of violation descriptions (empty when the invariant holds)."""
    activates, _, _, _ = _collect(trace)
    violations = []
    for ev in trace:
        if ev.kind not in ("schedule", "return") or ev.pid is None:
            continue
        act = activates.get(ev.pid)
        if act is None:
            continue  # only a cut or hand-written trace lacks an activate
        d0 = _parse_dur(act.get("deadline"))
        remaining = _parse_dur(ev.get("deadline"))
        if d0 is None and remaining is None:
            continue
        if d0 is None or remaining is None:
            violations.append(
                f"f{ev.pid} {ev.kind}@{ev.time}: deadline finiteness changed")
            continue
        if d0 - remaining != ev.time - act.time:
            violations.append(
                f"f{ev.pid} {ev.kind}@{ev.time}: d0={d0} remaining={remaining} "
                f"arrival={act.time} violates d0-remaining = now-arrival")
    return violations

"""Simulation traces.

Every engine transition of interest appends one TraceEvent to the
run's trace sink: anything with `append(event)`.  In memory a trace is
a plain `list[TraceEvent]`, the default sink and what the readers
return; `rtabs run` streams the events to its output instead.
The writers render any iterable of events, so a trace may be written in
batches whose texts, joined, are the text of the whole.  The CSV
format is the stable interchange surface: columns
`time,event,object,pid,method,data`, where data is `;`-separated
`key=value` pairs.  Values inside data escape `\\`, `;` and `=` with a
backslash so round-trips are exact.  Times and rationals serialize as
`p/q` in lowest terms (bare integer when the denominator is 1), and
read back as the run held them: an `int` when integral, else a
`Fraction` (`values.exact`).

An event is a named tuple, since a run makes one per transition and a
read one per row.
"""

from __future__ import annotations

import csv
import io
import re
from collections.abc import Iterable
from functools import cache
from typing import NamedTuple, Protocol

from .errors import RtabsError
from .values import Rat, format_rat, parse_rat

CSV_HEADER = ["time", "event", "object", "pid", "method", "data"]

EVENT_KINDS = {
    "invoke", "activate", "schedule", "suspend", "return", "resolve",
    "tick", "new_object", "deadline_miss", "error",
}


class TraceEvent(NamedTuple):
    time: Rat
    kind: str
    obj: int | None = None
    pid: int | None = None
    method: str | None = None
    data: tuple[tuple[str, str], ...] = ()

    def get(self, key: str) -> str | None:
        for k, v in self.data:
            if k == key:
                return v
        return None


class TraceSink(Protocol):
    """Where a run's events go, in the order they happen."""

    def append(self, event: TraceEvent) -> None: ...


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace(";", "\\;").replace("=", "\\="))


_DIGITS = re.compile(r"[0-9]+")
_ESCAPED = re.compile(r"\\(.)", re.S)
# one key=value pair: the key up to the first unescaped '=', the value up
# to the next unescaped ';' or the end of the text
_ITEM = re.compile(r"((?:[^\\;=]|\\.)*)=((?:[^\\;]|\\.)*)(;|\Z)", re.S)


def _unescape(value: str) -> str:
    return _ESCAPED.sub(r"\1", value)


def format_data(pairs: tuple[tuple[str, str], ...]) -> str:
    return ";".join(f"{k}={_escape(v)}" for k, v in pairs)


def parse_data(text: str) -> tuple[tuple[str, str], ...]:
    if not text:
        return ()
    pairs: list[tuple[str, str]] = []
    pos = 0
    while True:
        m = _ITEM.match(text, pos)
        if m is None:
            raise RtabsError(f"malformed data field: {text[pos:]!r}")
        pairs.append((m.group(1), _unescape(m.group(2))))
        if not m.group(3):
            return tuple(pairs)
        pos = m.end()


def _event_row(event: TraceEvent) -> list[str]:
    return [
        format_rat(event.time),
        event.kind,
        f"o{event.obj}" if event.obj is not None else "",
        f"f{event.pid}" if event.pid is not None else "",
        event.method or "",
        format_data(event.data),
    ]


def _id_column(text: str, prefix: str) -> int | None:
    if not text:
        return None
    if text[0] != prefix or not _DIGITS.fullmatch(text, 1):
        raise RtabsError(f"malformed id column {text!r}")
    return int(text[1:])


class _EventReader:
    """Builds the events of one trace read, from CSV rows or JSONL records.

    A trace repeats few distinct times, ids and data texts over many rows
    (a bench trace of 12,278 rows has 821 distinct times), so each distinct
    cell text is parsed once per read.  The caches live only as long as the
    read; a text that fails to parse stores nothing, so it raises again
    wherever it recurs.
    """

    def __init__(self):
        self.time = cache(parse_rat)
        self.obj = cache(lambda text: _id_column(text, "o"))
        self.pid = cache(lambda text: _id_column(text, "f"))
        self.data = cache(parse_data)

    def csv_rows(self, rows: Iterable[list[str]]) -> list[TraceEvent]:
        time, obj, pid, data = self.time, self.obj, self.pid, self.data
        width, kinds, new = len(CSV_HEADER), EVENT_KINDS, tuple.__new__
        events: list[TraceEvent] = []
        append = events.append
        for row in rows:
            if len(row) != width:
                raise RtabsError(f"expected {width} columns, got {len(row)}")
            at = time(row[0])
            kind = row[1]
            if kind not in kinds:
                raise RtabsError(f"unknown event kind {kind!r}")
            # every field is given, so `tuple.__new__` can skip the named
            # tuple's `__new__`, a Python call per row
            append(new(TraceEvent, (at, kind, obj(row[2]), pid(row[3]),
                                    row[4] or None, data(row[5]))))
        return events

    def jsonl_record(self, record: object, line: str) -> TraceEvent:
        if not isinstance(record, dict):
            raise RtabsError(f"trace record is not an object: {line!r}")
        time, kind, data = record["time"], record["event"], record["data"]
        obj, pid, method = record["object"], record["pid"], record["method"]
        if not isinstance(time, str):
            raise RtabsError(f"time {time!r} is not a string")
        if not (isinstance(kind, str) and kind in EVENT_KINDS):
            raise RtabsError(f"unknown event kind {kind!r}")
        if not (isinstance(data, dict)
                and all(isinstance(v, str) for v in data.values())):
            raise RtabsError(f"data is not an object of strings: {data!r}")
        for ident in (obj, pid):
            # bool is an int subclass; ids are written as plain naturals
            if not (ident is None or (type(ident) is int and ident >= 0)):
                raise RtabsError(f"malformed id {ident!r}")
        if not (method is None or isinstance(method, str)):
            raise RtabsError(f"method {method!r} is not a string")
        return TraceEvent(self.time(time), kind, obj, pid, method,
                          tuple(data.items()))


def render_csv(events: Iterable[TraceEvent], header: bool = True) -> str:
    """The CSV rows of `events`, after the header unless `header` is
    false (for a batch after the first)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if header:
        writer.writerow(CSV_HEADER)
    for event in events:
        writer.writerow(_event_row(event))
    return out.getvalue()


def read_csv_text(text: str) -> list[TraceEvent]:
    # no field is longer than the text, so while reading it the csv
    # module's field limit (131,072 characters by default) rejects none
    limit = csv.field_size_limit(max(len(text), csv.field_size_limit()))
    try:
        rows = csv.reader(io.StringIO(text))
        if next(rows, None) != CSV_HEADER:
            raise RtabsError("missing or malformed trace header")
        return _EventReader().csv_rows(rows)
    finally:
        csv.field_size_limit(limit)


def read_csv(path: str) -> list[TraceEvent]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return read_csv_text(handle.read())


def render_structured(events: Iterable[TraceEvent]) -> str:
    import json  # loaded for the JSONL encoding only

    lines = []
    for event in events:
        record = {
            "time": format_rat(event.time),
            "event": event.kind,
            "object": event.obj,
            "pid": event.pid,
            "method": event.method,
            "data": {k: v for k, v in event.data},
        }
        lines.append(json.dumps(record, sort_keys=False, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def read_structured_text(text: str) -> list[TraceEvent]:
    import json  # loaded for the JSONL encoding only

    event = _EventReader().jsonl_record
    return [event(json.loads(line), line)
            for line in text.splitlines() if line.strip()]


def read_structured(path: str) -> list[TraceEvent]:
    with open(path, "r", encoding="utf-8") as handle:
        return read_structured_text(handle.read())

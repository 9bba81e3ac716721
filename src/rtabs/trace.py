"""Simulation traces.

Every engine transition of interest appends one TraceEvent.  The CSV
format is the stable interchange surface: columns
`time,event,object,pid,method,data`, where data is `;`-separated
`key=value` pairs.  Values inside data escape `\\`, `;` and `=` with a
backslash so round-trips are exact.  Times and rationals serialize as
`p/q` in lowest terms (bare integer when the denominator is 1).
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import RtabsError
from .values import format_rat, parse_rat

CSV_HEADER = ["time", "event", "object", "pid", "method", "data"]

EVENT_KINDS = {
    "invoke", "activate", "schedule", "suspend", "return", "resolve",
    "tick", "new_object", "deadline_miss", "error",
}


@dataclass(frozen=True)
class TraceEvent:
    time: Fraction
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


@dataclass
class Trace:
    events: list[TraceEvent] = field(default_factory=list)

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


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


def _memo(parse):
    """`parse`, remembering the result for each text it has seen.  A text
    that fails to parse raises before anything is stored for it, so it
    raises again wherever it recurs."""
    results = {}

    def parsed(text):
        try:
            return results[text]
        except KeyError:
            result = results[text] = parse(text)
            return result

    return parsed


class _EventReader:
    """Builds the events of one trace read, from CSV rows or JSONL lines.

    A trace repeats few distinct times, ids and data texts over many rows
    (a bench trace of 12,278 rows has 821 distinct times), so each distinct
    cell text is parsed once per read.  The memos live only as long as the
    read.
    """

    def __init__(self):
        self.time = _memo(parse_rat)
        self.obj = _memo(lambda text: _id_column(text, "o"))
        self.pid = _memo(lambda text: _id_column(text, "f"))
        self.data = _memo(parse_data)

    def csv_row(self, row: list[str]) -> TraceEvent:
        if len(row) != len(CSV_HEADER):
            raise RtabsError(
                f"expected {len(CSV_HEADER)} columns, got {len(row)}")
        time = self.time(row[0])
        kind = row[1]
        if kind not in EVENT_KINDS:
            raise RtabsError(f"unknown event kind {kind!r}")
        return TraceEvent(time, kind, self.obj(row[2]), self.pid(row[3]),
                          row[4] or None, self.data(row[5]))

    def jsonl_line(self, line: str) -> TraceEvent:
        record = json.loads(line)
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


def render_csv(trace: Trace) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for event in trace.events:
        writer.writerow(_event_row(event))
    return out.getvalue()


def read_csv_text(text: str) -> Trace:
    # no field is longer than the text, so while reading it the csv
    # module's field limit (131,072 characters by default) rejects none
    limit = csv.field_size_limit(max(len(text), csv.field_size_limit()))
    try:
        rows = csv.reader(io.StringIO(text))
        if next(rows, None) != CSV_HEADER:
            raise RtabsError("missing or malformed trace header")
        return Trace(list(map(_EventReader().csv_row, rows)))
    finally:
        csv.field_size_limit(limit)


def read_csv(path: str) -> Trace:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return read_csv_text(handle.read())


def render_structured(trace: Trace) -> str:
    lines = []
    for event in trace.events:
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


def read_structured_text(text: str) -> Trace:
    event = _EventReader().jsonl_line
    return Trace([event(line) for line in text.splitlines() if line.strip()])


def read_structured(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as handle:
        return read_structured_text(handle.read())

"""Trace event serialization: CSV and structured round-trips."""

import csv
import random
from fractions import Fraction

import pytest

from rtabs import RtabsError, TraceEvent
from rtabs.trace import (
    format_data, parse_data, read_csv_text, read_structured,
    read_structured_text, render_csv, render_structured,
)


def ev(time, kind, obj=None, pid=None, method=None, data=()):
    return TraceEvent(Fraction(time), kind, obj, pid, method, tuple(data))


# the readers parse each distinct time, id and data text once per read:
# one time, object, pid and escaped data text (`a\;b`, `x\=y`) on many rows
REPEATED = [ev(Fraction(3, 2), kind, obj=1, pid=2, method="m",
               data=[("label", "a;b"), ("note", "x=y")])
            for kind in ("activate", "schedule", "return") * 20]
REPEATED_ROW = "3/2,return,o1,f2,m,label=a\\;b;note=x\\=y\n"


def test_tick_row_shape():
    trace = [ev(15, "tick", data=[("delta", "15")])]
    lines = render_csv(trace).splitlines()
    assert lines[0] == "time,event,object,pid,method,data"
    assert lines[1] == "15,tick,,,,delta=15"


def test_object_and_pid_columns():
    trace = [ev(0, "schedule", obj=3, pid=7, method="run",
                data=[("deadline", "inf")])]
    assert render_csv(trace).splitlines()[1] == "0,schedule,o3,f7,run,deadline=inf"
    back = read_csv_text(render_csv(trace))
    assert back[0].obj == 3
    assert back[0].pid == 7


def test_rational_times_round_trip():
    trace = [ev(Fraction(7, 3), "tick", data=[("delta", "7/3")])]
    back = read_csv_text(render_csv(trace))
    assert back[0].time == Fraction(7, 3)


def test_data_escaping_round_trip():
    pairs = (("value", 'Log("a;b=c\\d",Time(1))'), ("x", ""), ("y", "=;="))
    assert parse_data(format_data(pairs)) == pairs


def test_data_special_characters_round_trip():
    values = ["\\", ";", "=", "\n", '"', "a\\;b\\=c", '\\\\;;==\n""', "x\\"]
    pairs = tuple((f"k{i}", v) for i, v in enumerate(values))
    assert parse_data(format_data(pairs)) == pairs
    for pair in pairs:
        assert parse_data(format_data((pair,))) == (pair,)


def test_trailing_lone_backslash_rejected():
    # format_data escapes every backslash, so a lone one at the end is
    # never written
    with pytest.raises(RtabsError, match="malformed data field"):
        parse_data("value=abc\\")
    with pytest.raises(RtabsError, match="malformed data field"):
        parse_data("a=1;b=\\")


def test_data_field_separators_survive_csv():
    # commas and quotes exercise the csv quoting layer on top of ours
    quoted = [ev(1, "return", obj=0, pid=1, method="m",
                 data=[("value", 'Pair(1,"x;y=z")'), ("deadline", "3/2")])]
    for trace in (quoted, REPEATED):
        back = read_csv_text(render_csv(trace))
        assert back == trace
    assert REPEATED_ROW in render_csv(REPEATED)


def test_random_data_values_round_trip():
    rng = random.Random(42)
    alphabet = 'ab;=\\,"\n '
    for _ in range(200):
        value = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        key = "k" + str(rng.randint(0, 9))
        trace = [ev(0, "resolve", obj=0, pid=0, method="m",
                    data=[(key, value)])]
        back = read_csv_text(render_csv(trace))
        assert back == trace


def test_data_value_longer_than_the_csv_field_limit_round_trips():
    limit = csv.field_size_limit()
    trace = [ev(0, "return", obj=1, pid=2, method="m",
                data=[("value", "x" * 200_000)])]
    assert read_csv_text(render_csv(trace)) == trace
    assert csv.field_size_limit() == limit  # restored after the read


def test_missing_header_rejected():
    with pytest.raises(RtabsError):
        read_csv_text("")
    with pytest.raises(RtabsError):
        read_csv_text("time,kind,obj\n")


def test_malformed_rows_rejected():
    # each bad cell follows rows that repeat its column's valid text, so a
    # reader that remembers parsed texts must still reject it
    repeats = "time,event,object,pid,method,data\n" + REPEATED_ROW * 3
    cases = [
        ("0,explode,,,,\n", RtabsError, "unknown event kind 'explode'"),
        ("3/x,return,o1,f2,m,note=x\\=y\n", ValueError,
         "Invalid literal for Fraction: '3/x'"),
        ("3/6,return,o1,f2,m,note=x\\=y\n", ValueError,
         "not a rational as traces write it: '3/6'"),
        ("3/2,return,o1x,f2,m,note=x\\=y\n", RtabsError,
         "malformed id column 'o1x'"),
        ("3/2,return,o1,o1,m,note=x\\=y\n", RtabsError,
         "malformed id column 'o1'"),
        ("3/2,return,o1,f2,m,label=a\\;b;note\n", RtabsError,
         "malformed data field: 'note'"),
        ("3/2,return,o1,f2,m\n", RtabsError, "expected 6 columns, got 5"),
    ]
    for row, error, message in cases:
        with pytest.raises(error) as info:
            read_csv_text(repeats + row)
        assert str(info.value) == message, row


def test_malformed_data_pair_rejected():
    with pytest.raises(RtabsError):
        parse_data("novalue")


def test_event_get():
    event = ev(0, "activate", data=[("deadline", "40"), ("cost", "2")])
    assert event.get("cost") == "2"
    assert event.get("label") is None


def test_structured_round_trip():
    trace = [
        ev(0, "new_object", obj=1, data=[("class", "ServerImp")]),
        ev(Fraction(1, 2), "tick", data=[("delta", "1/2")]),
        ev(1, "return", obj=1, pid=2, method="m",
           data=[("value", "True"), ("deadline", "-3")]),
    ]
    text = render_structured(trace)
    assert text.splitlines()[0].startswith("{")
    assert read_structured_text(text) == trace
    text = render_structured(REPEATED)
    assert read_structured_text(text) == REPEATED


def test_structured_file_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    text = render_structured(REPEATED)
    path.write_text(text, encoding="utf-8")
    assert read_structured(str(path)) == read_structured_text(text) == REPEATED


def test_structured_empty_trace():
    assert render_structured([]) == ""
    assert read_structured_text("") == []

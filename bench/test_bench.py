"""The benchmark's own checks: generator fidelity, exact layer counts
that repeat from run to run, and metric-name validation."""

import json

import pytest

import run
import workloads

MEDIA_SJF_TRACE_SHA256 = (
    "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8")


def test_media_generator_reproduces_media_server_sjf(tmp_path):
    """7 photo and 3 video clients, 7 cycles, periods 15/40 under sjf:
    byte for byte the trace of models/media_server_sjf.rtabs."""
    clients = workloads.media_clients(7, 3, 7, lambda i: 15, lambda i: 40)
    model, trace = tmp_path / "model.rtabs", tmp_path / "trace.csv"
    model.write_text(workloads.media_model(clients), encoding="utf-8")
    child = run.run_child(
        run.rtabs("run", model, "--until", "600", "--trace", trace), tmp_path)
    assert child.code == 0, child.stderr
    assert run.sha256(trace) == MEDIA_SJF_TRACE_SHA256


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    """Two traced runs reproduce the recorded trace and give identical
    exact counts, with every per-layer metric of BENCHMARK.json."""
    wl = workloads.make(name, 1)
    (tmp_path / "model.rtabs").write_text(wl.source, encoding="utf-8")
    first, _ = run.traced_iteration(wl, tmp_path)
    second, _ = run.traced_iteration(wl, tmp_path)
    assert first is not None and second is not None
    assert ({k: first[k] for k in run.EXACT_COUNTS}
            == {k: second[k] for k in run.EXACT_COUNTS})
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert (set(first) | {"traced_overhead_ratio"}
            == set(run.declared_units(spec, trace=True)))


def test_metric_names_are_validated():
    spec = {"end_to_end": [{"name": "run s", "unit": "s"}]}
    with pytest.raises(run.BenchError):
        run.declared_units(spec, trace=False)

"""Engine trajectories must stay inside the interleaving space that the
independent reference executor reaches."""

from rtabs import load_source
from rtabs.desugar import desugar

import reference_executor as ref


def _model(source):
    model, diags = load_source(source, "<oracle-test>")
    assert not diags, [d.render() for d in diags]
    return desugar(model)


def test_straight_line_main_space_is_exact():
    # one process, no choices: boot, skip, return; nothing else reachable
    model = _model("{ skip; }")
    reachable = ref.ReferenceExecutor(model).explore()
    trajectory = ref.engine_digests(model)
    assert len(trajectory) == 3
    assert set(trajectory) == reachable


def test_two_servers_leave_unexplored_interleavings():
    model = _model("""
    interface I0 { Int a(); }
    interface I1 { Int b(); }
    class A implements I0 { Int a() { return 1; } }
    class B implements I1 { Int b() { return 2; } }
    { I0 x = new A(); I1 y = new B(); x!a(); y!b(); }
    """)
    reachable = ref.ReferenceExecutor(model).explore()
    trajectory = ref.engine_digests(model)
    assert set(trajectory) <= reachable
    # the deterministic run is one interleaving among several
    assert len(reachable) > len(set(trajectory))


def test_blocking_get_is_covered():
    model = _model("""
    interface S { Int v(); }
    class SImp implements S { Int v() { duration(2, 2); return 7; } }
    { S s = new SImp(); Fut<Int> f = s!v(); Int x = f.get; }
    """)
    reachable = ref.ReferenceExecutor(model).explore()
    for d in ref.engine_digests(model):
        assert d in reachable


def test_generated_sources_parse_and_check():
    for seed in range(30):
        model, source = ref.generate_model(seed)
        assert model.main is not None, source

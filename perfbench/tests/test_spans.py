"""Self-time arithmetic and the traced run's wrappers."""

import time
import types

import pytest

import spans


def test_covered_merges_overlaps_and_gaps():
    assert spans.covered([]) == 0
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.covered([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_children_once():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]; e [12, 13] is a second root
    records = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["d", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
        ["e", 12.0, 13.0, -1],
    ]
    totals, rooted = spans.self_times(records)
    assert totals == {"a": 3.0, "b": 2.0, "d": 1.0, "c": 4.0, "e": 1.0}
    assert rooted == 11.0
    wall = 14.0  # the timed region, of which 3 s fall outside every span
    assert sum(totals.values()) + (wall - rooted) == wall


def test_recorder_nests_spans():
    recorder = spans.Recorder(spans.rip_modules())

    def inner():
        time.sleep(0.002)

    inner = recorder.span("inner", inner)

    def outer():
        inner()
        inner()

    recorder.span("outer", outer)()
    names = [(name, parent) for name, _, _, parent in recorder.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    totals, rooted = spans.self_times(recorder.spans)
    assert totals["inner"] >= 0.004 and totals["outer"] < totals["inner"]
    assert sum(totals.values()) == pytest.approx(rooted)


def test_recorder_refuses_a_lookup_point_that_is_gone():
    modules = dict(spans.rip_modules(), lp=types.SimpleNamespace(solve=lambda lp: None))
    with pytest.raises(LookupError, match="verify_certificate"):
        spans.Recorder(modules)


def test_traced_question_adds_up_and_counts_solves():
    import rip

    import workloads

    workload = workloads.corpus(1)
    question = next(q for q in workload.questions
                    if q.mode == "rational" and q.data["variant"] == "plus")
    recorder = spans.Recorder(spans.rip_modules())
    with recorder.installed():
        started = time.perf_counter()
        hedges, prices = workload.ask(rip, question)
        wall = time.perf_counter() - started
    assert rip.lp.solve.__name__ == "solve"  # the originals are back
    assert workload.check(question, (hedges, prices)) == []

    metrics = spans.layer_metrics(recorder, wall, wall)
    layer_total = sum(value for name, (value, unit) in metrics.items()
                      if unit == "s" and name not in ("trace.overhead_s",))
    assert layer_total == pytest.approx(wall, rel=1e-9, abs=1e-9)
    atoms = len(hedges)
    assert metrics["lp.solves"][0] == 2 * atoms
    assert metrics["lp.optimal"][0] + metrics["lp.infeasible"][0] + metrics["lp.unbounded"][0] == 2 * atoms
    assert metrics["lp.pivots"][0] == sum(v.pivots for v in hedges.values() + prices.values())
    assert metrics["information.atoms_at_calls"][0] > 0
    assert metrics["hedging.superhedge_s"][0] > 0 and metrics["lp.verify_s"][0] > 0

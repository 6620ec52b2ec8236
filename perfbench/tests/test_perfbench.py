"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q perfbench/tests
"""

from fractions import Fraction

import pytest

import linesurf
import points
import run
import spans
import workloads
import worker
from spans import Span


def test_self_time_subtracts_children_on_a_hand_made_tree():
    tree = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.x", 1.5, 2.0, 1),
        Span("a.y", 3.0, 3.5, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.x", 5.0, 9.0, 4),
        Span("other-root", 20.0, 21.0, -1),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 0.5, 0.5, 0.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [Span("p", 0.0, 10.0, -1), Span("c1", 2.0, 6.0, 0), Span("c2", 4.0, 8.0, 0),
            Span("c3", 9.0, 12.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_shape_is_inherited_from_the_nearest_ancestor():
    tree = [Span("op", 0, 3, -1, {"shape": "star"}), Span("solve", 1, 2, 0),
            Span("inner", 1.2, 1.5, 1, {"shape": "chain"}), Span("leaf", 1.3, 1.4, 2)]
    assert [spans.shape_of(tree, i) for i in range(4)] == ["star", "star", "chain", "chain"]


FIXTURES = {
    "braid(3)": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (0, 1, -1), (1, 0, -1)],
    "pencil(4)": [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -2, 0)],
    "near-pencil(5)": [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 3, 0), (0, 0, 1)],
    "generic(4)": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    "pool": workloads._primitive_lines(range(-1, 2))[:11],
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_independent_grouping_agrees_with_profile_of(name):
    lines = FIXTURES[name]
    text = "".join(" ".join(str(Fraction(v, 3)) for v in line) + "\n" for line in lines)
    profile = linesurf.profile_of(linesurf.parse_arrangement(text))
    assert points.multiplicity_counts(lines) == dict(profile.t)


def test_independent_grouping_on_known_profiles():
    assert points.multiplicity_counts(FIXTURES["braid(3)"]) == {2: 3, 3: 4}
    assert points.multiplicity_counts(FIXTURES["pencil(4)"]) == {4: 1}
    assert points.multiplicity_counts(FIXTURES["near-pencil(5)"]) == {2: 4, 4: 1}
    assert points.primitive((0, -4, 6)) == (0, 2, -3)


def test_generated_arrangement_text_parses_to_its_lines():
    period = next(workloads.arrangement_periods(7, None))
    for op in period[:5]:
        assert op.check(op.call())


def test_injected_wrong_result_counts_as_failed(monkeypatch):
    period = next(workloads.arrangement_periods(3, None))[1:4]
    real = linesurf.profile_of

    def off_by_one(arr):
        p = real(arr)
        (r, c), rest = p.t[0], p.t[1:]
        return linesurf.Profile(p.d, ((r, c + 1),) + rest)

    monkeypatch.setattr(linesurf, "profile_of", off_by_one)
    result = worker.run_periods([period], None)
    assert result["failures"] == {"small": 3}
    result["attempted"] = 3
    assert run.outcome(result) == {"correct": False, "attempted": 3, "failed": 3}


def test_raising_call_counts_as_failed():
    ok = workloads.Op("fine", lambda: 1, lambda out: out == 1)
    boom = workloads.Op("boom", lambda: 1 / 0, lambda out: True)
    result = worker.run_periods([[ok, boom, ok]], None)
    assert result["failures"] == {"boom": 1} and len(result["latencies"]) == 3


def test_known_defect_is_counted_but_keeps_correct():
    label = next(iter(workloads.KNOWN_DEFECTS))
    result = {"attempted": 2, "failures": {label: 1}}
    assert run.outcome(result) == {"correct": True, "attempted": 2, "failed": 1}


def test_patch_records_calls_made_through_from_imports():
    recorder = spans.Recorder()
    patched = spans.patch(recorder)
    try:
        profile = linesurf.catalog_profile("hesse").profile
        linesurf.global_invariants(profile)
    finally:
        spans.unpatch(patched)
    names = [s.name for s in recorder.spans]
    assert names[:2] == ["arrangement.catalog_profile", "arrangement.validate_profile"]
    assert "surface.chern_numbers" in names and "local.local_invariants" in names
    m = spans.layer_metrics(recorder.spans)
    assert m["surface.chern_numbers.calls"] == 1
    assert m["local.local_invariants.calls"] == 2 * 2 + 2  # chern_numbers twice, my_tilde once
    assert m["local.local_invariants.distinct_share"] == pytest.approx(2 / 6)
    assert not hasattr(linesurf.surface.chern_numbers, "__wrapped__")


def test_merge_keeps_each_ops_median_time_and_adds_failures():
    jobs = [{"latencies": [0.3, 0.1, 0.5], "attempted": 4, "failures": {"a": 1}},
            {"latencies": [0.2, 0.4, 0.6], "attempted": 4, "failures": {"a": 1, "b": 2}},
            {"latencies": [0.9, 0.2, 0.7], "attempted": 4, "failures": {}}]
    merged = worker.merge(jobs)
    assert merged["latencies"] == [0.3, 0.2, 0.6]
    assert merged["attempted"] == 12
    assert merged["failures"] == {"a": 2, "b": 2}
    assert run.p90([0.7]) == 0.7


def test_speed_scale_uses_the_reference_timings_around_each_stretch(monkeypatch):
    timings = iter([worker.REFERENCE_S, 3 * worker.REFERENCE_S, 2 * worker.REFERENCE_S])
    monkeypatch.setattr(worker, "reference_seconds", lambda: next(timings))
    speed = worker.SpeedScale()
    times = [4.0, 8.0]
    speed.scale(times)  # mean reference 2x the nominal: the machine ran at half speed
    assert times == [2.0, 4.0]
    times += [5.0]
    speed.scale(times, 2)  # only the new time, against a mean of 2.5x
    assert times == [2.0, 4.0, 2.0]


def test_process_speed_scale_uses_the_reference_process(monkeypatch):
    timings = iter([worker.PROCESS_S, 3 * worker.PROCESS_S])
    monkeypatch.setattr(worker, "process_seconds", lambda: next(timings))
    speed = worker.SpeedScale(processes=True)
    times = [0.5]
    speed.scale(times)
    assert times == [0.25] and speed.every == 0
    monkeypatch.undo()
    assert 0 < worker.process_seconds() < 60  # reference.py runs as a script


def test_forked_job_starts_from_the_parents_state_and_leaves_it_alone():
    seen = []

    def job():
        seen.append(1)
        return {"in_child": len(seen)}

    assert worker.in_fork(job) == {"in_child": 1}
    assert worker.in_fork(job) == {"in_child": 1}
    assert seen == []

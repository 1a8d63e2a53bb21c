"""The span arithmetic: self time is duration minus direct children's."""

import pytest

from perfbench.tracing import NO_PARENT, Tracer, layer_times, tracer_layer_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) > a [10, 60) > b [20, 30); root > c [70, 90)
    names = ["root", "a", "b", "c"]
    parent = [NO_PARENT, 0, 1, 0]
    start = [0, 10, 20, 70]
    end = [100, 60, 30, 90]
    times = layer_times(names, parent, start, end)
    assert times.total_ns == {"root": 100, "a": 50, "b": 10, "c": 20}
    assert times.self_ns == {"root": 30, "a": 40, "b": 10, "c": 20}
    # Self times partition the root span.
    assert times.self_sum_ns == 100


def test_same_name_spans_aggregate():
    names = ["loop", "step", "step", "step"]
    parent = [NO_PARENT, 0, 0, 0]
    start = [0, 1, 11, 21]
    end = [40, 6, 18, 30]
    times = layer_times(names, parent, start, end)
    assert times.count == {"loop": 1, "step": 3}
    assert times.total_ns["step"] == 5 + 7 + 9
    assert times.self_ns["loop"] == 40 - 21


def test_tracer_records_parents_and_encounters():
    tracer = Tracer()
    outer = tracer.begin("outer", 0)
    tracer.encounter_id = 7
    inner = tracer.begin("inner", 5)
    assert tracer.current() == "inner"
    tracer.finish(inner, 9)
    tracer.finish(outer, 20)
    assert list(tracer.parent) == [NO_PARENT, outer]
    assert list(tracer.encounter) == [-1, 7]
    times = tracer_layer_times(tracer)
    assert times.self_ns == {"outer": 16, "inner": 4}


def test_spans_must_nest():
    tracer = Tracer()
    first = tracer.begin("first", 0)
    tracer.begin("second", 1)
    with pytest.raises(RuntimeError):
        tracer.finish(first, 2)


def test_write_round_trips(tmp_path):
    import gzip

    tracer = Tracer()
    index = tracer.begin("x", 3)
    tracer.finish(index, 8)
    path = tracer.write(tmp_path / "spans.tsv.gz")
    rows = gzip.open(path, "rt").read().splitlines()
    assert rows[0].split("\t") == [
        "index", "name", "parent", "start_ns", "end_ns", "encounter"
    ]
    assert rows[1].split("\t") == ["0", "x", "-1", "3", "8", "-1"]

"""The command line: result line shape, metric reference coverage."""

import json
import pathlib

import pytest

from perfbench import metric_reference, run

BENCHMARK = json.loads(
    (pathlib.Path(run.ROOT) / "BENCHMARK.json").read_text()
)


def result_line(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_the_declared_metrics(capsys, trace):
    code = run.main([
        "--workload", "metro-columnar", "--tiny", "--seed", "0",
        "--seconds", "0", "--trace", str(trace),
    ])
    assert code == 0
    result = result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_measured_run_reports_the_unscaled_figures(capsys):
    run.main([
        "--workload", "metro-columnar", "--tiny", "--seconds", "0", "--trace", "0",
    ])
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(
        next(line for line in lines if line.startswith("report: "))[8:]
    )
    wall = report["wall_clock"]
    assert wall["reference_loop_timings"] >= 2
    for name in ("setup_s", "encounters_per_s", "encounter_p50_ms", "encounter_p99_ms"):
        assert wall[name] > 0 and report["end_to_end"][name]["value"] > 0


def test_benchmark_json_agrees_with_the_reference():
    for section in ("end_to_end", "per_layer"):
        for entry in BENCHMARK[section]:
            reference = metric_reference.BY_NAME[entry["name"]]
            assert entry["unit"] == reference.unit
            assert entry["better"] == reference.better
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "paper-epidemic", "paper-hardened", "metro-columnar", "swarm-live"
    ]


def test_every_emitted_metric_has_a_reference_entry(capsys):
    run.main(["--workload", "paper-hardened", "--tiny", "--trace", "1"])
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(
        next(line for line in lines if line.startswith("report: "))[8:]
    )
    names = set(report["layers"])
    assert names <= set(metric_reference.BY_NAME)
    assert names == {m.name for m in metric_reference.PER_LAYER}


def test_failed_check_exits_nonzero(capsys, monkeypatch):
    from perfbench import workloads

    monkeypatch.setattr(
        workloads.MetroColumnar, "check", lambda self, it: ["forced failure"]
    )
    code = run.main([
        "--workload", "metro-columnar", "--tiny", "--seconds", "0",
    ])
    assert code == 1
    result = result_line(capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]

"""Ablation: delivery under random sync failures.

Real DieselNet radio contacts often failed to complete a transfer; the
fault model's encounter drop (``FaultConfig(encounter_drop_probability=)``)
models that. Because the substrate's knowledge updates only on receipt,
failures cost time but never correctness — flooding policies degrade
gracefully while the direct-only baseline, with far fewer useful contacts
to begin with, suffers proportionally more.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_series_table
from repro.experiments.scenario import build_scenario
from repro.faults import FaultConfig

HOURS = 3600.0
LOSS_RATES = (0.0, 0.25, 0.5)


def run_with_loss(inputs, policy, loss):
    faults = FaultConfig(encounter_drop_probability=loss) if loss else None
    scenario = build_scenario(
        ExperimentConfig(scale=inputs.scale, policy=policy, faults=faults),
        trace=inputs.trace,
        model=inputs.model,
    )
    return scenario.emulator.run()


def test_ablation_sync_failures(benchmark, inputs, report):
    def sweep():
        series = {}
        failures = {}
        for policy in ("cimbiosys", "epidemic"):
            points = []
            for loss in LOSS_RATES:
                metrics = run_with_loss(inputs, policy, loss)
                points.append((loss, 100.0 * metrics.delivery_ratio))
                failures[(policy, loss)] = metrics.dropped_encounters
            series[policy] = points
        return series, failures

    series, failures = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "ablation_loss",
        render_series_table(
            "Ablation: % delivered (whole run) vs encounter-drop probability",
            "loss",
            series,
        ),
    )

    epidemic = dict(series["epidemic"])
    baseline = dict(series["cimbiosys"])

    # No failures injected at loss 0; failures appear and scale with loss.
    assert failures[("epidemic", 0.0)] == 0
    assert failures[("epidemic", 0.5)] > failures[("epidemic", 0.25)] > 0

    # Loss can only hurt, and flooding tolerates it better than direct.
    assert epidemic[0.5] <= epidemic[0.0] + 1e-9
    assert baseline[0.5] <= baseline[0.0] + 1e-9
    assert epidemic[0.5] >= baseline[0.5]
    # Flooding's redundancy keeps it delivering most messages at 50% loss.
    assert epidemic[0.5] >= 0.7 * epidemic[0.0]

"""The columnar core against the object engine on one matched metro run.

Both engines replay the same 50-bus / 10-day metro-DieselNet trace under
Epidemic (seed 42). The columnar core must reproduce the object engine's
metrics exactly, under the columnar contract
(:func:`~repro.emulation.columnar.comparable_metrics`), and must finish
at least ``MIN_SPEEDUP`` times faster in wall-clock time.
"""

from __future__ import annotations

import time

from repro.emulation.columnar import comparable_metrics
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.traces.dieselnet import MetroConfig, generate_metro_trace

SEED = 42
BUSES = 50
DAYS = 10
MIN_SPEEDUP = 5.0


def timed_run(trace, engine: str):
    config = ExperimentConfig(
        policy="epidemic",
        engine=engine,
        n_users=BUSES,
        target_messages=BUSES * 3,
        trace_seed=SEED,
    )
    started = time.perf_counter()
    result = run_experiment(config, trace=trace)
    return result, time.perf_counter() - started


def test_columnar_matches_object_engine_at_5x_speed():
    trace = generate_metro_trace(
        MetroConfig(seed=SEED, n_buses=BUSES, n_routes=BUSES // 12, days=DAYS)
    )
    object_result, object_s = timed_run(trace, "object")
    columnar_result, columnar_s = timed_run(trace, "columnar")
    speedup = object_s / columnar_s
    # Printed, not written under results/: wall clock varies run to run.
    print(
        f"\n{len(trace)} encounters: object {object_s:.3f} s, "
        f"columnar {columnar_s:.3f} s, speedup {speedup:.2f}x"
    )
    assert comparable_metrics(object_result.metrics) == comparable_metrics(
        columnar_result.metrics
    )
    assert speedup >= MIN_SPEEDUP, (object_s, columnar_s)

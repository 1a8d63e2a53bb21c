"""The benchmark's four workloads, driven through the public API.

Each workload turns a seed into one experiment configuration and runs it
from this process: ``build_scenario``/``run_scenario`` for the emulator,
``build_world``/``ColumnarWorld.run`` for the columnar core and
``run_swarm`` for the live swarm. One call of :meth:`Workload.iterate`
sets up and runs the workload once and returns what it measured;
:meth:`Workload.check` then verifies that run's output, outside any timed
section.

The seed feeds every configuration seed as an offset from the program's
defaults, so seed 0 is the program's default configuration. The paper
workloads and the swarm keep the paper-scale DieselNet trace fixed
(``trace_seed`` 42) and vary everything the paper randomises around it:
the mail model, the daily user-to-bus assignment, the injection schedule,
the encounter order coins and the fault draws. The metro trace is
generated from the seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import time
from array import array
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import build_scenario
from repro.emulation.columnar import build_world

from perfbench.probes import (
    DeliveryAudit,
    DirectiveClock,
    EncounterClock,
    EngineEntry,
    Patcher,
    install_layer_probes,
)
from perfbench.speed import SpeedProbe
from perfbench.tracing import Tracer

#: The seed whose outputs ``expected.json`` records.
DEFAULT_SEED = 0

#: Configuration seeds the benchmark seed is added to.
SEEDED_FIELDS = (
    "email_seed",
    "assignment_seed",
    "workload_seed",
    "encounter_order_seed",
    "fault_seed",
    "filter_seed",
)

EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")

#: Scratch space inside the checkout (swarm sockets and checkpoints,
#: span files). Relative, so unix socket paths stay short.
OUTPUT_DIR = pathlib.Path(".perfbench_out")

clock_ns = time.perf_counter_ns


def seeded(config: api.ExperimentConfig, seed: int) -> api.ExperimentConfig:
    """``config`` with ``seed`` added to each of its seeds."""
    return replace(
        config,
        **{name: getattr(config, name) + seed for name in SEEDED_FIELDS},
    )


def fingerprint(data: Any) -> str:
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Iteration:
    """One set-up plus one run of a workload.

    Times are ``clock_ns`` readings: ``(start, end)`` of each set-up and
    of the run, and the start and duration of each timed encounter.
    """

    setup_windows_ns: List[Tuple[int, int]]
    run_window_ns: Tuple[int, int]
    wall_s: float
    encounters: int
    latency_ns: array
    starts_ns: array
    attempted: int
    #: The engine that actually ran (the resolved default).
    engine: str = ""
    failed: int = 0
    fingerprint: str = ""
    summary: Dict[str, Any] = field(default_factory=dict)
    #: Output the checks compare (metrics dict or fixed points).
    result: Any = None
    #: Invariant violations found while running.
    violations: List[str] = field(default_factory=list)
    #: Workload-specific measurements (swarm round trips and phases).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: The machine's speed over the iteration (measured runs only).
    speed: Optional[SpeedProbe] = None

    @property
    def setup_s(self) -> List[float]:
        return [(end - start) / 1e9 for start, end in self.setup_windows_ns]

    @property
    def run_s(self) -> float:
        start, end = self.run_window_ns
        return (end - start) / 1e9


def _invariants(metrics: Any, audit: DeliveryAudit) -> List[str]:
    """End-of-run invariants of a metrics collector."""
    problems = []
    records = list(metrics.records.values())
    delivered = sum(1 for r in records if r.delivered)
    undelivered = sum(1 for r in records if not r.delivered)
    if metrics.injected != delivered + undelivered:
        problems.append(
            f"injected {metrics.injected} != delivered {delivered} + "
            f"undelivered {undelivered}"
        )
    repeated = [str(m) for m, n in audit.accepted.items() if n > 1]
    if repeated:
        problems.append(f"{len(repeated)} message(s) delivered more than once")
    if sum(audit.accepted.values()) != delivered:
        problems.append(
            f"{sum(audit.accepted.values())} first deliveries recorded, "
            f"{delivered} messages delivered"
        )
    early = [str(r.message_id) for r in records if r.delivered and r.delay < 0]
    if early:
        problems.append(f"{len(early)} message(s) delivered before injection")
    return problems


class Workload:
    """A named, seeded benchmark workload."""

    name = ""
    why = ""
    #: Iterations a measured run makes at least (set-up is a median).
    min_iterations = 1
    #: Whether ``expected.json`` holds this workload's default-seed output.
    has_reference = False

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    @property
    def reference_key(self) -> str:
        return self.name + ("/tiny" if self.tiny else "")

    def config(self) -> api.ExperimentConfig:
        raise NotImplementedError

    def engine(self) -> str:
        """The engine the configuration asks for."""
        return self.config().engine

    def describe(self) -> Dict[str, Any]:
        return self.config().to_dict()

    def iterate(
        self,
        tracer: Optional[Tracer] = None,
        setup_repeats: Optional[int] = None,
        speed: Optional[SpeedProbe] = None,
    ) -> Iteration:
        raise NotImplementedError

    def check(self, iteration: Iteration) -> List[str]:
        """Correctness failures of ``iteration`` (empty when correct)."""
        problems = list(iteration.violations)
        if self.has_reference and self.seed == DEFAULT_SEED:
            expected = load_expected().get(self.reference_key)
            if expected is None:
                problems.append(f"no recorded reference for {self.reference_key}")
            elif expected["fingerprint"] != iteration.fingerprint:
                problems.append(
                    f"output differs from the recorded reference "
                    f"(expected {expected['summary']}, got "
                    f"{_headline(iteration.summary)})"
                )
        return problems


def _headline(summary: Dict[str, Any]) -> Dict[str, Any]:
    keys = ("injected", "delivered", "encounters", "transmissions")
    return {key: summary.get(key) for key in keys}


def load_expected() -> Dict[str, Any]:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def record_expected(workload: Workload, iteration: Iteration) -> None:
    """Store ``iteration``'s output as the workload's reference."""
    data = load_expected()
    data[workload.reference_key] = {
        "seed": workload.seed,
        "fingerprint": iteration.fingerprint,
        "summary": _headline(iteration.summary),
    }
    EXPECTED_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# -- emulator workloads -------------------------------------------------------


class EmulatorWorkload(Workload):
    """The paper scenario on the object emulator."""

    #: Scenario builds per iteration. Set-up is cheap next to the run and
    #: short enough to feel every passing hiccup of the machine, so it is
    #: repeated, half before the run and half after it, and reported as a
    #: median; the run uses the last build made before it.
    setup_repeats = 6

    def iterate(
        self,
        tracer: Optional[Tracer] = None,
        setup_repeats: Optional[int] = None,
        speed: Optional[SpeedProbe] = None,
    ) -> Iteration:
        config = self.config()
        repeats = self.setup_repeats if setup_repeats is None else setup_repeats
        started = clock_ns()
        with Patcher() as patcher:
            audit = DeliveryAudit()
            audit.install(patcher)
            entry = EngineEntry(speed)
            entry.install(patcher)
            encounter_clock = EncounterClock(tracer, speed)
            encounter_clock.install(patcher)
            if tracer is not None:
                install_layer_probes(patcher, tracer)
            if config.engine == "object":
                setups: List[Tuple[int, int]] = []
                for _ in range(repeats - repeats // 2):
                    scenario = self._timed_build(config, setups, speed)
                gc.collect()
                t0 = clock_ns()
                result = run_scenario(scenario)
                summary = result.metrics.summary()
                ended = clock_ns()
                # Wall time covers one set-up: the build the run used.
                wall_s = (ended - started) / 1e9 - sum(
                    (end - start) / 1e9 for start, end in setups[:-1]
                )
                for _ in range(repeats // 2):
                    self._timed_build(config, setups, speed)
            else:
                # Another default engine: run_experiment resolves it, and
                # set-up ends where the engine's run loop begins.
                gc.collect()
                if speed is not None:
                    speed.sample()
                t0 = clock_ns()
                result = api.run_experiment(config)
                summary = result.metrics.summary()
                ended = clock_ns()
                wall_s = (ended - started) / 1e9
                setups = [(t0, entry.started_ns)]
                t0 = entry.started_ns
            violations = _invariants(result.metrics, audit)
        comparable = api.comparable_metrics(result.metrics)
        encounters = int(result.trace_summary["encounters"])
        return Iteration(
            setup_windows_ns=setups,
            run_window_ns=(t0, ended),
            wall_s=wall_s,
            encounters=encounters,
            latency_ns=encounter_clock.samples_ns + entry.samples_ns,
            starts_ns=encounter_clock.starts_ns + entry.starts_ns,
            attempted=encounters,
            engine=str(entry.engine),
            fingerprint=fingerprint(comparable),
            summary=summary,
            result=comparable,
            violations=violations,
            speed=speed,
        )

    @staticmethod
    def _timed_build(
        config: api.ExperimentConfig,
        setups: List[Tuple[int, int]],
        speed: Optional[SpeedProbe],
    ) -> Any:
        gc.collect()
        if speed is not None:
            speed.sample()
        t0 = clock_ns()
        scenario = build_scenario(config)
        setups.append((t0, clock_ns()))
        if speed is not None:
            speed.sample()
        return scenario


class PaperEpidemic(EmulatorWorkload):
    name = "paper-epidemic"
    why = (
        "Flooding sends the most items per sync, so the exact-knowledge "
        "sync path (build_batch, knowledge_wire_size, apply_batch) does "
        "almost all the work."
    )
    min_iterations = 2

    def config(self) -> api.ExperimentConfig:
        return seeded(
            api.ExperimentConfig(policy="epidemic", scale=0.3 if self.tiny else 1.0),
            self.seed,
        )

    def check(self, iteration: Iteration) -> List[str]:
        problems = super().check(iteration)
        columnar = api.run_experiment(replace(self.config(), engine="columnar"))
        if api.comparable_metrics(columnar.metrics) != iteration.result:
            problems.append("object engine and columnar engine disagree")
        return problems


class PaperHardened(EmulatorWorkload):
    name = "paper-hardened"
    why = (
        "MaxProp under bandwidth and storage caps with Bloom digests and "
        "channel faults: digest build, full-store walk, checksums, "
        "eviction and MaxProp bookkeeping."
    )
    has_reference = True
    min_iterations = 2
    #: Messages injected (the paper's 490, cut so one run fits the
    #: benchmark's time budget; every feature stays armed).
    messages = 120

    def config(self) -> api.ExperimentConfig:
        return seeded(
            api.ExperimentConfig(
                policy="maxprop",
                scale=0.3 if self.tiny else 1.0,
                target_messages=self.messages,
                bandwidth_limit=5,
                storage_limit=30,
                knowledge_digest=True,
                faults=api.FaultConfig(
                    truncation_probability=0.1,
                    duplication_probability=0.1,
                    corruption_probability=0.02,
                ),
            ),
            self.seed,
        )


# -- columnar workload --------------------------------------------------------


class MetroColumnar(Workload):
    name = "metro-columnar"
    why = (
        "City-scale metro trace on the flat-array columnar core: the trace "
        "generator and world build dominate, the object layers are idle."
    )
    has_reference = True
    min_iterations = 3

    def metro(self) -> api.MetroConfig:
        if self.tiny:
            return api.MetroConfig(
                seed=42 + self.seed, n_buses=300, n_routes=6, days=2
            )
        return api.MetroConfig(
            seed=42 + self.seed, n_buses=20000, n_routes=400, days=2
        )

    def config(self) -> api.ExperimentConfig:
        return seeded(
            api.ExperimentConfig(
                policy="epidemic",
                engine="columnar",
                n_users=100 if self.tiny else 1000,
                target_messages=200 if self.tiny else 2000,
            ),
            self.seed,
        )

    def describe(self) -> Dict[str, Any]:
        metro = self.metro()
        return {
            "experiment": self.config().to_dict(),
            "metro": {
                "seed": metro.seed,
                "n_buses": metro.n_buses,
                "n_routes": metro.n_routes,
                "days": metro.days,
            },
        }

    def iterate(
        self,
        tracer: Optional[Tracer] = None,
        setup_repeats: Optional[int] = None,
        speed: Optional[SpeedProbe] = None,
    ) -> Iteration:
        config = self.config()
        with Patcher() as patcher:
            audit = DeliveryAudit()
            audit.install(patcher)
            entry = EngineEntry(speed)
            entry.install(patcher)
            if tracer is not None:
                install_layer_probes(patcher, tracer)
            gc.collect()
            if speed is not None:
                speed.sample()
            started = clock_ns()
            trace = api.generate_metro_trace(self.metro())
            world, _ = build_world(config, trace=trace)
            built = clock_ns()
            if speed is not None:
                speed.sample()
            gc.collect()
            t0 = clock_ns()
            metrics = world.run()
            summary = metrics.summary()
            ended = clock_ns()
            wall_s = (ended - started) / 1e9
            violations = _invariants(metrics, audit)
        comparable = api.comparable_metrics(metrics)
        return Iteration(
            setup_windows_ns=[(started, built)],
            run_window_ns=(t0, ended),
            wall_s=wall_s,
            encounters=len(trace),
            latency_ns=entry.samples_ns,
            starts_ns=entry.starts_ns,
            attempted=len(trace),
            engine=str(entry.engine),
            fingerprint=fingerprint(comparable),
            summary=summary,
            result=comparable,
            violations=violations,
            speed=speed,
        )


# -- live swarm workload ------------------------------------------------------


class SwarmLive(Workload):
    name = "swarm-live"
    why = (
        "Live run_swarm over unix sockets, one repro serve process per bus, "
        "closed loop with one directive outstanding: exercises framing, "
        "connections, server and codec."
    )
    #: Set-up here is 21 interpreters cold-starting on one CPU while the
    #: orchestrator redials with backoff; one start-up varies by half
    #: between iterations, so set-up is a median of three.
    min_iterations = 3

    def config(self) -> api.ExperimentConfig:
        return seeded(
            api.ExperimentConfig(policy="epidemic", scale=0.25 if self.tiny else 0.6),
            self.seed,
        )

    def engine(self) -> str:
        return "swarm"

    def describe(self) -> Dict[str, Any]:
        return {"experiment": self.config().to_dict(), "transport": "unix"}

    def iterate(
        self,
        tracer: Optional[Tracer] = None,
        setup_repeats: Optional[int] = None,
        speed: Optional[SpeedProbe] = None,
    ) -> Iteration:
        config = self.config()
        runtime_dir = OUTPUT_DIR / f"swarm-{os.getpid()}-{clock_ns()}"
        directives = DirectiveClock(speed)
        # The orchestrator and its servers share one CPU (children inherit
        # the affinity). Replay is sequential, so little runs in parallel
        # anyway, and on two CPUs the cross-CPU wake-ups of each round
        # trip made its latency swing by a quarter from run to run.
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(affinity)})
        try:
            with Patcher() as patcher:
                audit = DeliveryAudit()
                audit.install(patcher)
                directives.install(patcher)
                if tracer is not None:
                    install_layer_probes(patcher, tracer)
                gc.collect()
                if speed is not None:
                    speed.sample()
                started = clock_ns()
                report = api.run_swarm(
                    api.SwarmConfig(experiment=config, runtime_dir=str(runtime_dir))
                )
                ended = clock_ns()
                summary = report.metrics.summary()
                violations = _invariants(report.metrics, audit)
        finally:
            os.sched_setaffinity(0, affinity)
            shutil.rmtree(runtime_dir, ignore_errors=True)
        first = directives.first_directive_ns or started
        replay_end = directives.first_snapshot_ns or ended
        rtt = directives.rtt_ns
        result = {
            "fixed_points": report.fixed_points,
            "metrics": report.metrics.to_dict(),
        }
        return Iteration(
            setup_windows_ns=[(started, first)],
            run_window_ns=(first, replay_end),
            wall_s=(ended - started) / 1e9,
            encounters=len(rtt["encounter"]),
            latency_ns=rtt["encounter"],
            starts_ns=directives.sent_ns["encounter"],
            attempted=directives.directives,
            engine="swarm",
            failed=directives.errors,
            fingerprint=fingerprint(result),
            summary=summary,
            result=report.fixed_points,
            violations=violations,
            speed=speed,
            extra={
                "collect_s": (ended - replay_end) / 1e9,
                "inject_rtt_ms": _median_ms(rtt.get("inject")),
                "assign_rtt_ms": _median_ms(rtt.get("assign")),
                "encounter_rtt_ms": _median_ms(rtt.get("encounter")),
                "server_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
            },
        )

    def check(self, iteration: Iteration) -> List[str]:
        problems = super().check(iteration)
        scenario = build_scenario(self.config())
        run_scenario(scenario)
        emulator_points = {
            name: api.replica_fixed_point(node.replica)
            for name, node in sorted(scenario.nodes.items())
        }
        parity = api.compare_fixed_points(emulator_points, iteration.result)
        if not parity.equal:
            problems.append(
                f"swarm fixed points differ from the emulator's on "
                f"{len(parity.mismatched_nodes)} node(s): "
                f"{sorted(parity.detail.items())[:3]}"
            )
        return problems


def _median_ms(samples: Optional[array]) -> float:
    if not samples:
        return 0.0
    return statistics.median(samples) / 1e6


WORKLOADS = {
    cls.name: cls for cls in (PaperEpidemic, PaperHardened, MetroColumnar, SwarmLive)
}

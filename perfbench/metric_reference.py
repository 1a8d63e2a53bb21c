"""Every metric the benchmark emits: unit, layer, direction, expected effect.

This table is the metric reference. ``run.py`` takes each emitted metric's
unit from it, and the tests fail if a metric is emitted without an entry.

Columns:

* ``layer`` — the module whose work the metric measures (``workload`` for
  the end-to-end metrics, ``perfbench`` for the tracer's own accounting);
* ``better`` — ``lower`` or ``higher``; for a count, ``lower`` when it
  counts work done and ``higher`` when it counts outcomes;
* ``moves`` — the end-to-end metric a change in this layer should move;
* ``mostly_on`` / ``idle_on`` — the workloads where the layer does most of
  its work and where it is near zero (absent or 0 in the traced output).

``setup_s`` is the time from start to the first simulated event (trace,
mail model and scenario or world build; for the swarm, until the first
directive is sent). The timed end-to-end metrics are scaled to a
reference machine speed (see :mod:`perfbench.speed`); the per-layer times
are not. Encounter latency times each encounter event: the
callbacks handed to ``SimulationEngine.schedule`` on the emulator, each
step of the columnar encounter loop, and the ``encounter`` directive from
send to reply at the swarm orchestrator.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    layer: str
    better: str
    moves: str
    mostly_on: str
    idle_on: str


PAPER = "paper-epidemic, paper-hardened"
ALL = "all"

#: The seven end-to-end metrics, reported by every untraced run.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "workload", "lower", "-", ALL, "-"),
    Metric("encounters_per_s", "1/s", "workload", "higher", "-", ALL, "-"),
    Metric("encounter_p50_ms", "ms", "workload", "lower", "-", ALL, "-"),
    Metric("encounter_p99_ms", "ms", "workload", "lower", "-", ALL, "-"),
    Metric("peak_rss_mb", "MB", "workload", "lower", "-", ALL, "-"),
    Metric(
        "metadata_bytes_per_delivered", "B", "emulation.metrics", "lower",
        "-", "paper-*, swarm-live", "metro-columnar (columnar reports 0)",
    ),
    Metric("error_rate", "ratio", "workload", "lower", "-", ALL, "-"),
)

#: Metrics of the traced run, one group per layer.
PER_LAYER: Tuple[Metric, ...] = (
    # traces
    Metric("traces.generate_s", "s", "repro.traces", "lower", "setup_s", "metro-columnar", "-"),
    Metric("traces.encounters", "count", "repro.traces", "higher", "-", ALL, "-"),
    # experiments.scenario
    Metric("scenario.build_s", "s", "repro.experiments.scenario", "lower", "setup_s", "paper-*", "metro-columnar"),
    # emulation (engine, network)
    Metric("emulation.loop_self_s", "s", "repro.emulation.engine", "lower", "encounters_per_s", "paper-epidemic", "metro-columnar"),
    Metric("emulation.encounter_self_s", "s", "repro.emulation.network", "lower", "encounter_p50_ms", "paper-epidemic", "metro-columnar"),
    # replication.session
    Metric("session.encounter_s", "s", "repro.replication.session", "lower", "encounter_p50_ms", PAPER, "metro-columnar"),
    Metric("session.encounters", "count", "repro.replication.session", "higher", "-", PAPER, "metro-columnar"),
    Metric("integrity.stamp_s", "s", "repro.replication.session", "lower", "encounter_p50_ms", "paper-hardened", "paper-epidemic"),
    # replication.sync
    Metric("sync.build_request_self_s", "s", "repro.replication.sync", "lower", "encounters_per_s", PAPER, "metro-columnar"),
    Metric("sync.build_batch_self_s", "s", "repro.replication.sync", "lower", "encounters_per_s", PAPER, "metro-columnar"),
    Metric("sync.apply_batch_s", "s", "repro.replication.sync", "lower", "encounters_per_s", PAPER, "metro-columnar"),
    Metric("sync.candidates", "count", "repro.replication.sync", "lower", "encounters_per_s", PAPER, "metro-columnar"),
    Metric("sync.sent", "count", "repro.replication.sync", "higher", "-", PAPER, "metro-columnar"),
    Metric("sync.sent_per_candidate", "ratio", "repro.replication.sync", "higher", "encounters_per_s", PAPER, "metro-columnar"),
    Metric("sync.truncated", "count", "repro.replication.sync", "lower", "-", "paper-hardened", "paper-epidemic"),
    Metric("sync.received", "count", "repro.replication.sync", "higher", "-", PAPER, "metro-columnar"),
    Metric("sync.redundant_received", "count", "repro.replication.sync", "lower", "encounters_per_s", "paper-hardened", "paper-epidemic"),
    # replication.codec
    Metric("codec.knowledge_wire_size_s", "s", "repro.replication.codec", "lower", "encounters_per_s", "paper-epidemic", "paper-hardened"),
    Metric("codec.knowledge_wire_size_calls", "count", "repro.replication.codec", "lower", "encounters_per_s", "paper-epidemic", "metro-columnar"),
    # replication.replica
    Metric("replica.items_unknown_to_s", "s", "repro.replication.replica", "lower", "encounters_per_s", "paper-epidemic", "paper-hardened"),
    # replication.digest
    Metric("digest.build_s", "s", "repro.replication.digest", "lower", "encounters_per_s", "paper-hardened", "paper-epidemic"),
    Metric("digest.build_calls", "count", "repro.replication.digest", "lower", "encounter_p99_ms", "paper-hardened", "paper-epidemic"),
    Metric("digest.suppressed", "count", "repro.replication.digest", "higher", "-", "paper-hardened", "paper-epidemic"),
    Metric("digest.fp_resends", "count", "repro.replication.digest", "lower", "encounter_p99_ms", "paper-hardened", "paper-epidemic"),
    # replication.integrity
    Metric("integrity.checksum_cache_hit_ratio", "ratio", "repro.replication.integrity", "higher", "encounter_p50_ms", "paper-hardened", "paper-epidemic"),
    Metric("integrity.quarantined_entries", "count", "repro.replication.integrity", "lower", "encounter_p50_ms", "paper-hardened", "paper-epidemic"),
    # dtn
    Metric("dtn.to_send_s", "s", "repro.dtn", "lower", "encounters_per_s", "paper-hardened", "paper-epidemic"),
    Metric("dtn.to_send_calls", "count", "repro.dtn", "lower", "encounters_per_s", PAPER, "metro-columnar"),
    Metric("dtn.to_send_accept_ratio", "ratio", "repro.dtn", "higher", "encounters_per_s", PAPER, "metro-columnar"),
    Metric("dtn.generate_req_s", "s", "repro.dtn", "lower", "encounters_per_s", "paper-hardened", "paper-epidemic"),
    Metric("dtn.process_req_s", "s", "repro.dtn", "lower", "encounters_per_s", "paper-hardened", "paper-epidemic"),
    Metric("dtn.on_items_sent_s", "s", "repro.dtn", "lower", "encounters_per_s", "paper-hardened", "paper-epidemic"),
    # faults
    Metric("faults.deliver_s", "s", "repro.faults", "lower", "encounter_p99_ms", "paper-hardened", "paper-epidemic, metro-columnar, swarm-live"),
    Metric("faults.interrupted_syncs", "count", "repro.faults", "lower", "encounter_p99_ms", "paper-hardened", "paper-epidemic, metro-columnar, swarm-live"),
    Metric("faults.lost_entries", "count", "repro.faults", "lower", "encounter_p99_ms", "paper-hardened", "paper-epidemic, metro-columnar, swarm-live"),
    # emulation.metrics
    Metric("metrics.record_s", "s", "repro.emulation.metrics", "lower", "encounters_per_s", ALL, "-"),
    Metric("metrics.summary_s", "s", "repro.emulation.metrics", "lower", "encounters_per_s", ALL, "-"),
    Metric("metrics.metadata_bytes_per_delivered", "B", "repro.emulation.metrics", "lower", "metadata_bytes_per_delivered", "paper-*, swarm-live", "metro-columnar"),
    # emulation.columnar
    Metric("columnar.build_world_s", "s", "repro.emulation.columnar", "lower", "setup_s", "metro-columnar", "paper-*, swarm-live"),
    Metric("columnar.run_s", "s", "repro.emulation.columnar", "lower", "encounters_per_s", "metro-columnar", "paper-*, swarm-live"),
    Metric("columnar.us_per_encounter", "us", "repro.emulation.columnar", "lower", "encounters_per_s", "metro-columnar", "paper-*, swarm-live"),
    Metric("columnar.items_sent", "count", "repro.emulation.columnar", "higher", "-", "metro-columnar", "paper-*, swarm-live"),
    # net
    Metric("net.spawn_s", "s", "repro.net", "lower", "setup_s", "swarm-live", "paper-*, metro-columnar"),
    Metric("net.encounter_rtt_ms", "ms", "repro.net", "lower", "encounter_p50_ms", "swarm-live", "paper-*, metro-columnar"),
    Metric("net.inject_rtt_ms", "ms", "repro.net", "lower", "encounters_per_s", "swarm-live", "paper-*, metro-columnar"),
    Metric("net.assign_rtt_ms", "ms", "repro.net", "lower", "encounters_per_s", "swarm-live", "paper-*, metro-columnar"),
    Metric("net.collect_s", "s", "repro.net", "lower", "-", "swarm-live", "paper-*, metro-columnar"),
    Metric("net.dial_s", "s", "repro.net", "lower", "setup_s", "swarm-live", "paper-*, metro-columnar"),
    Metric("net.send_s", "s", "repro.net", "lower", "encounter_p50_ms", "swarm-live", "paper-*, metro-columnar"),
    Metric("net.receive_s", "s", "repro.net", "lower", "encounter_p50_ms", "swarm-live", "paper-*, metro-columnar"),
    Metric("net.control_frames", "count", "repro.net", "lower", "-", "swarm-live", "paper-*, metro-columnar"),
    Metric("net.control_bytes", "B", "repro.net", "lower", "encounter_p50_ms", "swarm-live", "paper-*, metro-columnar"),
    Metric("net.server_peak_rss_mb", "MB", "repro.net", "lower", "-", "swarm-live", "paper-*, metro-columnar"),
    # the tracer's own accounting
    Metric("trace.spans", "count", "perfbench", "lower", "-", ALL, "-"),
    Metric("trace.overhead_s", "s", "perfbench", "lower", "-", ALL, "-"),
    Metric("trace.overhead_share", "ratio", "perfbench", "lower", "-", ALL, "-"),
    Metric("trace.attributed_share", "ratio", "perfbench", "higher", "-", ALL, "-"),
    Metric("trace.unattributed_s", "s", "perfbench", "lower", "-", ALL, "-"),
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def unit(name: str) -> str:
    return BY_NAME[name].unit


"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-epidemic --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced and checks the
output; ``--trace 1`` runs the workload once untraced and once with a span
around every layer entry point, and reports the per-layer metrics, the
tracing overhead and the share of run time the layers account for. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the readable report. The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import statistics
import sys
import time
import traceback
from typing import Any, Dict, Iterator, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import metric_reference  # noqa: E402

#: The interpreter's string-hash seed for every run (and, through the
#: environment, every swarm server). Dict and set layouts follow it, and
#: with a random seed per process the scenario build time alone moved by
#: up to 20% between otherwise identical runs.
HASH_SEED = "0"


def declared_metrics(section: str) -> List[str]:
    """Names a ``BENCHMARK.json`` section declares for the result line.

    End to end, these are the metrics every workload measures and that
    are never zero; the other two are in the readable report only.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in declared[section]]


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload: Any, resolved_engine: str) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": workload.seed,
        "workload": workload.name,
        "engine": workload.engine(),
        "resolved_engine": resolved_engine,
        "config": workload.describe(),
    }


@contextlib.contextmanager
def stdout_to_stderr() -> Iterator[None]:
    """Send fd 1 to stderr, so child processes cannot write the report."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        os.dup2(2, 1)
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def metric(name: str, value: float, samples: Optional[int] = None) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"value": value, "unit": metric_reference.unit(name)}
    if samples is not None:
        entry["samples"] = samples
    return entry


def end_to_end(
    workload: Any, iterations: List[Any], rss_mb: float, failed: int
) -> Dict[str, Any]:
    """The end-to-end metrics, every time at the reference speed."""
    setups = [
        it.speed.scaled_ns(start, end) / 1e9
        for it in iterations
        for start, end in it.setup_windows_ns
    ]
    latencies = [
        latency * it.speed.scale(start)
        for it in iterations
        for latency, start in zip(it.latency_ns, it.starts_ns)
    ]
    cuts = statistics.quantiles(latencies, n=100)
    run_s = sum(
        it.speed.scaled_run_ns(it.run_window_ns[0], it.starts_ns, it.run_window_ns[1])
        for it in iterations
    ) / 1e9
    encounters = sum(it.encounters for it in iterations)
    attempted = sum(it.attempted for it in iterations)
    summary = iterations[-1].summary
    return {
        "setup_s": metric("setup_s", statistics.median(setups), len(setups)),
        "encounters_per_s": metric("encounters_per_s", encounters / run_s, encounters),
        "encounter_p50_ms": metric("encounter_p50_ms", cuts[49] / 1e6, len(latencies)),
        "encounter_p99_ms": metric("encounter_p99_ms", cuts[98] / 1e6, len(latencies)),
        "peak_rss_mb": metric("peak_rss_mb", rss_mb),
        "metadata_bytes_per_delivered": (
            metric(
                "metadata_bytes_per_delivered",
                summary["metadata_bytes_per_delivered"],
                int(summary["delivered"]),
            )
            if workload.engine() != "columnar"
            else None
        ),
        "error_rate": metric("error_rate", failed / attempted, attempted),
    }


def wall_clock(iterations: List[Any]) -> Dict[str, float]:
    """The timed metrics unscaled, and the reference loop's own times."""
    latencies = [x for it in iterations for x in it.latency_ns]
    cuts = statistics.quantiles(latencies, n=100)
    loop = [x for it in iterations for x in it.speed.took_ns]
    return {
        "setup_s": statistics.median(s for it in iterations for s in it.setup_s),
        "encounters_per_s": sum(it.encounters for it in iterations)
        / sum(it.run_s for it in iterations),
        "encounter_p50_ms": cuts[49] / 1e6,
        "encounter_p99_ms": cuts[98] / 1e6,
        "reference_loop_median_ms": statistics.median(loop) / 1e6,
        "reference_loop_min_ms": min(loop) / 1e6,
        "reference_loop_timings": len(loop),
    }


def measured_run(workload: Any, seconds: float) -> Dict[str, Any]:
    from perfbench.speed import SpeedProbe
    from perfbench.workloads import peak_rss_mb

    iterations = []
    started = time.perf_counter()
    while (
        len(iterations) < workload.min_iterations
        or time.perf_counter() - started < seconds
    ):
        iterations.append(workload.iterate(speed=SpeedProbe()))
    rss_mb = peak_rss_mb()
    problems = workload.check(iterations[0])
    for index, it in enumerate(iterations[1:], start=2):
        problems.extend(it.violations)
        if it.fingerprint != iterations[0].fingerprint:
            problems.append(f"iteration {index} output differs from iteration 1")
    attempted = sum(it.attempted for it in iterations)
    # A run that fails its correctness check fails every operation.
    failed = attempted if problems else sum(it.failed for it in iterations)
    return {
        "resolved_engine": iterations[0].engine,
        "iterations": len(iterations),
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end(workload, iterations, rss_mb, failed),
        "wall_clock": wall_clock(iterations),
    }


def layer_metrics(tracer: Any, traced: Any, base: Any) -> Dict[str, float]:
    from perfbench.tracing import tracer_layer_times

    times = tracer_layer_times(tracer)
    counts = tracer.counters

    def total(name: str) -> float:
        return times.total_ns[name] / 1e9

    def self_time(name: str) -> float:
        return times.self_ns[name] / 1e9

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    summary = traced.summary
    extra = traced.extra
    swarm = "collect_s" in extra
    attributed = times.self_sum_ns / 1e9
    overhead = traced.wall_s - base.wall_s
    columnar_encounters = counts["traces.encounters"] if times.count["columnar.run"] else 0
    values = {
        "traces.generate_s": total("traces.generate"),
        "traces.encounters": counts["traces.encounters"],
        "scenario.build_s": total("scenario.build"),
        "emulation.loop_self_s": self_time("emulation.loop"),
        "emulation.encounter_self_s": self_time("emulation.encounter"),
        "session.encounter_s": total("session.encounter"),
        "session.encounters": times.count["session.encounter"],
        "integrity.stamp_s": total("integrity.stamp"),
        "sync.build_request_self_s": self_time("sync.build_request"),
        "sync.build_batch_self_s": self_time("sync.build_batch"),
        "sync.apply_batch_s": total("sync.apply_batch"),
        "sync.candidates": counts["sync.candidates"],
        "sync.sent": counts["sync.sent"],
        "sync.sent_per_candidate": ratio(counts["sync.sent"], counts["sync.candidates"]),
        "sync.truncated": counts["sync.truncated"],
        "sync.received": counts["sync.received"],
        "sync.redundant_received": counts["sync.redundant_received"],
        "codec.knowledge_wire_size_s": total("codec.knowledge_wire_size"),
        "codec.knowledge_wire_size_calls": times.count["codec.knowledge_wire_size"],
        "replica.items_unknown_to_s": total("replica.items_unknown_to"),
        "digest.build_s": total("digest.build"),
        "digest.build_calls": times.count["digest.build"],
        "digest.suppressed": counts["digest.suppressed"],
        "digest.fp_resends": counts["digest.fp_resends"],
        "integrity.checksum_cache_hit_ratio": ratio(
            summary.get("checksum_cache_hits", 0),
            summary.get("checksum_cache_hits", 0)
            + summary.get("checksum_cache_misses", 0),
        ),
        "integrity.quarantined_entries": counts["integrity.quarantined_entries"],
        "dtn.to_send_s": total("dtn.to_send"),
        "dtn.to_send_calls": times.count["dtn.to_send"],
        "dtn.to_send_accept_ratio": ratio(
            counts["dtn.to_send_accepted"], times.count["dtn.to_send"]
        ),
        "dtn.generate_req_s": total("dtn.generate_req"),
        "dtn.process_req_s": total("dtn.process_req"),
        "dtn.on_items_sent_s": total("dtn.on_items_sent"),
        "faults.deliver_s": total("faults.deliver"),
        "faults.interrupted_syncs": counts["faults.interrupted_syncs"],
        "faults.lost_entries": counts["faults.lost_entries"],
        "metrics.record_s": total("metrics.record"),
        "metrics.summary_s": total("metrics.summary"),
        "metrics.metadata_bytes_per_delivered": summary.get(
            "metadata_bytes_per_delivered", 0.0
        ),
        "columnar.build_world_s": total("columnar.build_world"),
        "columnar.run_s": total("columnar.run"),
        "columnar.us_per_encounter": ratio(
            1e6 * total("columnar.run"), columnar_encounters
        ),
        "columnar.items_sent": counts["columnar.items_sent"],
        "net.spawn_s": traced.setup_s[0] if swarm else 0.0,
        "net.encounter_rtt_ms": extra.get("encounter_rtt_ms", 0.0),
        "net.inject_rtt_ms": extra.get("inject_rtt_ms", 0.0),
        "net.assign_rtt_ms": extra.get("assign_rtt_ms", 0.0),
        "net.collect_s": extra.get("collect_s", 0.0),
        "net.dial_s": total("net.dial"),
        "net.send_s": total("net.send"),
        "net.receive_s": total("net.receive"),
        "net.control_frames": counts["net.control_frames"],
        "net.control_bytes": counts["net.control_bytes"],
        "net.server_peak_rss_mb": extra.get("server_peak_rss_mb", 0.0),
        "trace.spans": len(tracer),
        "trace.overhead_s": overhead,
        "trace.overhead_share": ratio(overhead, base.wall_s),
        "trace.attributed_share": ratio(attributed, traced.wall_s),
        "trace.unattributed_s": traced.wall_s - attributed,
    }
    return {name: metric(name, value) for name, value in values.items()}


def traced_run(workload: Any) -> Dict[str, Any]:
    from perfbench.tracing import Tracer
    from perfbench.workloads import OUTPUT_DIR

    base = workload.iterate(setup_repeats=1)
    tracer = Tracer()
    traced = workload.iterate(tracer=tracer, setup_repeats=1)
    problems = workload.check(base) + traced.violations
    if traced.fingerprint != base.fingerprint:
        problems.append("traced run's output differs from the untraced run's")
    spans_path = tracer.write(
        OUTPUT_DIR / f"spans-{workload.name}-seed{workload.seed}.tsv.gz"
    )
    return {
        "resolved_engine": base.engine,
        "problems": problems,
        "attempted": base.attempted + traced.attempted,
        "failed": base.failed + traced.failed,
        "untraced_wall_s": base.wall_s,
        "traced_wall_s": traced.wall_s,
        "spans_file": str(spans_path),
        "layers": layer_metrics(tracer, traced, base),
    }


def print_report(env: Dict[str, Any], outcome: Dict[str, Any], trace: bool) -> None:
    print(
        f"workload {env['workload']}  seed {env['seed']}  "
        f"engine {env['engine']} (ran: {env['resolved_engine']})"
    )
    print(
        f"environment: {env['cpu_count']} CPU ({env['cpu_model']}), "
        f"Python {env['python']}, commit {env['git_commit']}"
    )
    block = outcome["layers"] if trace else outcome["end_to_end"]
    for name, entry in block.items():
        if entry is None:
            print(f"  {name:40s} absent (not measured by this engine)")
            continue
        samples = entry.get("samples")
        suffix = f"  (samples: {samples})" if samples is not None else ""
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}{suffix}")
    if not trace:
        print("wall clock (times above are at the reference speed):")
        for name, value in outcome["wall_clock"].items():
            print(f"  {name:40s} {value:.6g}")
    status = "PASS" if not outcome["problems"] else "FAIL"
    print(f"correctness: {status}")
    for problem in outcome["problems"]:
        print(f"  - {problem}")
    print("report: " + json.dumps({"environment": env, **outcome}, default=str))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="a seconds-long version of the workload"
    )
    parser.add_argument(
        "--record-expected",
        action="store_true",
        help="store this run's output as the workload's reference "
        "(only when a change to the program is meant to change results)",
    )
    args = parser.parse_args(argv)
    try:
        from perfbench.workloads import WORKLOADS, record_expected
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    try:
        with stdout_to_stderr():
            if args.record_expected:
                record_expected(workload, workload.iterate(setup_repeats=1))
                return 0
            outcome = traced_run(workload) if args.trace else measured_run(
                workload, args.seconds
            )
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    env = environment(workload, outcome.pop("resolved_engine"))
    print_report(env, outcome, bool(args.trace))
    correct = not outcome["problems"]
    block = outcome["layers"] if args.trace else outcome["end_to_end"]
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {name: block[name] for name in declared_metrics(section)}
    attempted = outcome["attempted"]
    failed = attempted if not correct else outcome["failed"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    sys.exit(main())

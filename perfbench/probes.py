"""Wrappers the benchmark puts around the program's public functions.

Nothing here edits ``src/``: every probe replaces an attribute (a module
function or a class method) for the duration of a ``with`` block and puts
the original back on exit. Two kinds exist:

* **clocks**, always on, which feed the end-to-end metrics: where set-up
  ends, per-encounter latency (around the callbacks handed to
  ``SimulationEngine.schedule``, or the columnar core's per-encounter
  step), directive round trips at the swarm orchestrator, and a delivery
  audit for the at-most-once check; in a measured run they also give the
  speed probe (:mod:`perfbench.speed`) its moments to time its loop;
* **layer probes**, only in the traced run, which record one span per call
  into each layer (see :mod:`perfbench.tracing`) plus the counts the
  per-layer metrics need.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

from perfbench.speed import SpeedProbe
from perfbench.tracing import Tracer

clock_ns = time.perf_counter_ns


class Patcher:
    """Replace attributes; restore every original on exit."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        namespace = vars(owner)
        self._undo.append((owner, attr, attr in namespace, namespace.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def function(
        self, module_name: str, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Wrap a module function in every module that bound it by name.

        ``from x import f`` copies the function into the importer's
        namespace, so replacing ``x.f`` alone would miss those callers.
        """
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith(("repro.", "perfbench"))):
                continue
            if vars(module).get(attr) is original:
                self.set(module, attr, wrapper)

    def method(
        self, cls: type, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            self.set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self.set(cls, attr, make(raw))


def spanning(
    tracer: Tracer, name: str, after: Optional[Callable[[Any], None]] = None
) -> Callable[[Callable], Callable]:
    """A wrapper factory recording one ``name`` span per call.

    A call made while a ``name`` span is already innermost (a policy
    method calling its base class) runs inside that span instead of
    opening a second one, so inclusive times never count twice.
    ``after`` receives each result, for the layer's counts.
    """

    def make(fn: Callable) -> Callable:
        if inspect.iscoroutinefunction(fn):

            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                if tracer.current() == name:
                    return await fn(*args, **kwargs)
                index = tracer.begin(name, clock_ns())
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer.finish(index, clock_ns())
                if after is not None:
                    after(result)
                return result

            return functools.wraps(fn)(traced_async)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.current() == name:
                return fn(*args, **kwargs)
            index = tracer.begin(name, clock_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(index, clock_ns())
            if after is not None:
                after(result)
            return result

        return functools.wraps(fn)(traced)

    return make


def counting(after: Callable[[Any], None]) -> Callable[[Callable], Callable]:
    """A wrapper factory passing each result to ``after``, with no span."""

    def make(fn: Callable) -> Callable:
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            after(result)
            return result

        return functools.wraps(fn)(counted)

    return make


# -- clocks (end-to-end) ------------------------------------------------------


class EncounterClock:
    """Times every encounter event of the object emulator.

    Wraps the callbacks handed to ``SimulationEngine.schedule`` at the
    ENCOUNTER priority. With a tracer, each encounter also becomes an
    ``emulation.encounter`` span and stamps its index on nested spans.
    With a speed probe, the probe may time its reference loop before an
    encounter starts.
    """

    def __init__(
        self, tracer: Optional[Tracer] = None, speed: Optional[SpeedProbe] = None
    ) -> None:
        self.samples_ns = array("q")
        self.starts_ns = array("q")
        self._tracer = tracer
        self._speed = speed

    def install(self, patcher: Patcher) -> None:
        from repro.emulation.engine import EventPriority, SimulationEngine

        original = SimulationEngine.schedule
        samples = self.samples_ns
        starts = self.starts_ns
        tracer = self._tracer
        tick = self._speed.tick if self._speed is not None else None
        encounter = int(EventPriority.ENCOUNTER)

        def timed(callback: Callable[[], None]) -> Callable[[], None]:
            def run() -> None:
                if tick is not None:
                    tick()
                started = clock_ns()
                callback()
                samples.append(clock_ns() - started)
                starts.append(started)

            return run

        def traced(callback: Callable[[], None]) -> Callable[[], None]:
            def run() -> None:
                tracer.encounter_id = len(samples)
                started = clock_ns()
                index = tracer.begin("emulation.encounter", started)
                try:
                    callback()
                finally:
                    ended = clock_ns()
                    tracer.finish(index, ended)
                    tracer.encounter_id = -1
                samples.append(ended - started)
                starts.append(started)

            return run

        wrap = timed if tracer is None else traced

        def schedule(self, time, callback, priority=EventPriority.ENCOUNTER):
            if int(priority) == encounter:
                callback = wrap(callback)
            return original(self, time, callback, priority)

        patcher.set(SimulationEngine, "schedule", schedule)


class EngineEntry:
    """Which engine loop ran and when it started.

    Set-up ends at the first simulated event, which is where
    ``Emulator.run`` or ``ColumnarWorld.run`` begins. The columnar core
    has no per-encounter callback in its public API; its run loop looks
    the private ``_run_encounter`` step up on the instance once per run,
    so an instance attribute set on entry times every encounter without
    touching the class. A speed probe ticks before each encounter.
    """

    def __init__(self, speed: Optional[SpeedProbe] = None) -> None:
        self._speed = speed
        self.engine: Optional[str] = None
        self.started_ns: Optional[int] = None
        self.samples_ns = array("q")
        self.starts_ns = array("q")

    def _enter(self, engine: str) -> None:
        if self.started_ns is None:
            self.engine = engine
            self.started_ns = clock_ns()

    def install(self, patcher: Patcher) -> None:
        from repro.emulation.columnar import ColumnarWorld
        from repro.emulation.network import Emulator

        probe = self
        samples = self.samples_ns
        starts = self.starts_ns
        tick = self._speed.tick if self._speed is not None else None
        emulator_run = Emulator.run
        world_run = ColumnarWorld.run

        def run_emulator(self, *args, **kwargs):
            probe._enter("object")
            return emulator_run(self, *args, **kwargs)

        def run_world(self, *args, **kwargs):
            probe._enter("columnar")
            step = self._run_encounter

            def timed(index: int) -> None:
                if tick is not None:
                    tick()
                started = clock_ns()
                step(index)
                samples.append(clock_ns() - started)
                starts.append(started)

            self._run_encounter = timed
            try:
                return world_run(self, *args, **kwargs)
            finally:
                del self._run_encounter

        patcher.set(Emulator, "run", run_emulator)
        patcher.set(ColumnarWorld, "run", run_world)


class DeliveryAudit:
    """Counts first deliveries per message (the at-most-once invariant)."""

    def __init__(self) -> None:
        self.accepted: Counter = Counter()

    def install(self, patcher: Patcher) -> None:
        from repro.emulation.metrics import MetricsCollector

        original = MetricsCollector.record_delivery
        accepted = self.accepted

        def record_delivery(self, message_id, *args, **kwargs):
            first = original(self, message_id, *args, **kwargs)
            if first:
                accepted[message_id] += 1
            return first

        patcher.set(MetricsCollector, "record_delivery", record_delivery)


class DirectiveClock:
    """Round trips of the swarm orchestrator's control directives.

    Replay is a closed loop: the orchestrator sends one directive and
    waits for its reply before the next, so the interval from a send to
    the following receive on the orchestrator is that directive's round
    trip. ``hello`` greetings belong to start-up; the first other
    directive marks the end of set-up and the first ``snapshot`` the end
    of replay. A speed probe ticks before each send.
    """

    def __init__(self, speed: Optional[SpeedProbe] = None) -> None:
        self._speed = speed
        self.rtt_ns: Dict[str, array] = defaultdict(lambda: array("q"))
        #: Send time of each round trip in ``rtt_ns``, in the same order.
        self.sent_ns: Dict[str, array] = defaultdict(lambda: array("q"))
        self.sent: Counter = Counter()
        self.errors = 0
        self.first_directive_ns: Optional[int] = None
        self.first_snapshot_ns: Optional[int] = None
        self._pending: Optional[tuple] = None

    @property
    def directives(self) -> int:
        return sum(n for kind, n in self.sent.items() if kind != "hello")

    def install(self, patcher: Patcher) -> None:
        from repro.net.connection import PeerConnection

        send_original = PeerConnection.send
        receive_original = PeerConnection.receive
        probe = self
        tick = self._speed.tick if self._speed is not None else None

        async def send(self, message, *args, **kwargs):
            kind = str(message.get("type"))
            if tick is not None:
                tick()
            now = clock_ns()
            if kind != "hello" and probe.first_directive_ns is None:
                probe.first_directive_ns = now
            if kind == "snapshot" and probe.first_snapshot_ns is None:
                probe.first_snapshot_ns = now
            probe.sent[kind] += 1
            await send_original(self, message, *args, **kwargs)
            probe._pending = (kind, now)

        async def receive(self, *args, **kwargs):
            reply = await receive_original(self, *args, **kwargs)
            if probe._pending is not None:
                kind, sent_at = probe._pending
                probe._pending = None
                probe.rtt_ns[kind].append(clock_ns() - sent_at)
                probe.sent_ns[kind].append(sent_at)
                if reply.get("type") == "error":
                    probe.errors += 1
            return reply

        patcher.set(PeerConnection, "send", send)
        patcher.set(PeerConnection, "receive", receive)


# -- layer probes (traced run) ------------------------------------------------


def registered_policy_classes() -> List[type]:
    from repro.dtn.registry import available_policies, get_policy

    classes: List[type] = []
    for name in available_policies():
        cls = type(get_policy(name))
        if cls not in classes:
            classes.append(cls)
    return classes


def install_layer_probes(patcher: Patcher, tracer: Tracer) -> None:
    """Record a span around each layer's public entry points.

    The span names are the prefixes of the per-layer metrics in
    :mod:`perfbench.metric_reference`.
    """
    from repro.emulation.columnar import ColumnarWorld
    from repro.emulation.metrics import MetricsCollector
    from repro.emulation.network import Emulator
    from repro.faults.transport import FaultyTransport
    from repro.net.connection import PeerConnection, ReconnectDialer
    from repro.net.framing import FrameDecoder
    from repro.replication.digest import KnowledgeDigest
    from repro.replication.replica import Replica
    from repro.replication.session import EncounterSession, SyncSession

    counters = tracer.counters

    def span(name: str, after: Optional[Callable[[Any], None]] = None):
        return spanning(tracer, name, after)

    def count_trace(trace: Any) -> None:
        counters["traces.encounters"] += len(trace)

    def count_batch(result: Any) -> None:
        stats = result[1]
        counters["sync.candidates"] += stats.candidates
        counters["sync.sent"] += stats.sent_total
        counters["sync.truncated"] += stats.truncated
        counters["digest.suppressed"] += stats.digest_suppressed
        counters["digest.fp_resends"] += stats.fp_resend

    def count_applied(stats: Any) -> None:
        counters["sync.received"] += stats.received_total
        counters["sync.redundant_received"] += stats.redundant_received
        counters["integrity.quarantined_entries"] += stats.quarantined_entries

    def count_to_send(priority: Any) -> None:
        counters["dtn.to_send_accepted"] += priority is not None

    def count_delivery(outcome: Any) -> None:
        counters["faults.interrupted_syncs"] += bool(outcome.truncated)
        counters["faults.lost_entries"] += outcome.lost

    def count_columnar(metrics: Any) -> None:
        counters["columnar.items_sent"] += metrics.transmissions

    def count_bytes(frame: bytes) -> None:
        counters["net.control_frames"] += 1
        counters["net.control_bytes"] += len(frame)

    # traces and scenario (set-up)
    for module, attr, after in (
        ("repro.traces.dieselnet", "generate_dieselnet_trace", count_trace),
        ("repro.traces.dieselnet", "generate_metro_trace", count_trace),
        ("repro.traces.enron", "generate_enron_model", None),
        ("repro.traces.mapping", "assign_users_daily", None),
        ("repro.traces.workload", "build_injection_schedule", None),
    ):
        patcher.function(module, attr, span("traces.generate", after))
    patcher.function(
        "repro.experiments.scenario", "build_scenario", span("scenario.build")
    )

    # emulation (the encounter span itself comes from EncounterClock)
    patcher.method(Emulator, "run", span("emulation.loop"))
    patcher.method(EncounterSession, "run", span("session.encounter"))
    patcher.method(SyncSession, "stamp", span("integrity.stamp"))

    # replication: sync, codec, replica, digest
    patcher.function(
        "repro.replication.sync", "build_request", span("sync.build_request")
    )
    patcher.function(
        "repro.replication.sync", "build_batch", span("sync.build_batch", count_batch)
    )
    patcher.function(
        "repro.replication.sync", "apply_batch", span("sync.apply_batch", count_applied)
    )
    patcher.function(
        "repro.replication.codec",
        "knowledge_wire_size",
        span("codec.knowledge_wire_size"),
    )
    patcher.method(Replica, "items_unknown_to", span("replica.items_unknown_to"))
    patcher.method(KnowledgeDigest, "build", span("digest.build"))

    # dtn: every registered policy class
    for cls in registered_policy_classes():
        patcher.method(cls, "to_send", span("dtn.to_send", count_to_send))
        patcher.method(cls, "generate_req", span("dtn.generate_req"))
        patcher.method(cls, "process_req", span("dtn.process_req"))
        patcher.method(cls, "on_items_sent", span("dtn.on_items_sent"))

    # faults
    patcher.method(FaultyTransport, "deliver", span("faults.deliver", count_delivery))

    # metrics
    for attr in (
        "record_sync", "record_encounter", "record_injection", "record_delivery"
    ):
        patcher.method(MetricsCollector, attr, span("metrics.record"))
    patcher.method(MetricsCollector, "summary", span("metrics.summary"))

    # columnar core
    patcher.function(
        "repro.emulation.columnar", "build_world", span("columnar.build_world")
    )
    patcher.method(ColumnarWorld, "run", span("columnar.run", count_columnar))

    # net (orchestrator side only: the servers are other processes);
    # dialling waits for the freshly spawned servers to listen
    patcher.method(ReconnectDialer, "dial", span("net.dial"))
    patcher.method(PeerConnection, "send", span("net.send"))
    patcher.method(PeerConnection, "receive", span("net.receive"))
    patcher.function("repro.net.framing", "encode_frame", counting(count_bytes))
    original_feed = FrameDecoder.feed

    def feed(self, data: bytes):
        counters["net.control_bytes"] += len(data)
        messages = original_feed(self, data)
        counters["net.control_frames"] += len(messages)
        return messages

    patcher.set(FrameDecoder, "feed", feed)

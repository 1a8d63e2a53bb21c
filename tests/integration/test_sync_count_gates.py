"""Count gates for the sync-path optimisations.

The gates count work, not wall-clock time, so they hold on any machine:

* **version index** — over a flooding run, the stores the sources held
  (Σ ``SyncStats.store_size``, what a full scan visits) must outnumber
  the candidates the index enumerated (Σ ``SyncStats.candidates``) at
  least ``MIN_REDUCTION`` times, and the enumeration must touch nothing
  beyond those candidates. Sampled enumerations must equal the scan
  oracle's, same items in the same order.
* **checksum cache** — over the same schedule through a checksumming
  channel, the uncached pipeline (``use_cache=False``) must perform at
  least ``MIN_REDUCTION`` times the checksum computations of the cached
  one, while carrying byte-identical batches to identical final
  knowledge.
* **knowledge size** — exact-knowledge syncs fill
  ``SyncStats.metadata_bytes`` without running the knowledge encoder
  (zero ``codec.encode_knowledge`` calls), and Σ ``metadata_bytes``
  equals the encoder's measurement of every request's knowledge.

Workload: ``NODES`` replicas under Epidemic, ``ITEMS`` messages authored
at random hosts across the first 80% of ``ENCOUNTERS`` random pairwise
encounters (seed ``SEED``). Repeat meetings between converged peers are
where the optimisations pay off. Each gate has a companion test that
disables its optimisation and checks that the gate then trips.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.dtn.epidemic import EpidemicPolicy
from repro.faults import DeliveryOutcome
from repro.replication import codec, integrity, session
from repro.replication.filters import MultiAddressFilter
from repro.replication.ids import ReplicaId
from repro.replication.integrity import ChecksumCache, item_checksum
from repro.replication.replica import Replica
from repro.replication.session import EncounterSession, SessionConfig
from repro.replication.store import ItemStore
from repro.replication.sync import BatchEntry, SyncEndpoint, SyncStats
from tests.scan_oracle import items_unknown_to_scan

NODES = 10
ITEMS = 200
ENCOUNTERS = 500
SEED = 42
MIN_REDUCTION = 5.0
#: Check index≡scan enumeration every Nth encounter of the indexed run.
VERIFY_EVERY = 50
#: The checksumming channel delivers every Nth entry twice.
DUPLICATE_EVERY = 7


@dataclass(frozen=True)
class Schedule:
    """The pre-drawn event tape every run replays identically."""

    #: encounter index → messages authored just before it: (author, destination).
    authored_before: Dict[int, List[Tuple[int, int]]]
    #: the encounters themselves, as (first node, second node) indexes.
    pairs: List[Tuple[int, int]]


def _other_node(rng: random.Random, node: int) -> int:
    other = rng.randrange(NODES - 1)
    return other + 1 if other >= node else other


def draw_schedule() -> Schedule:
    rng = random.Random(SEED)
    pairs = []
    for _ in range(ENCOUNTERS):
        first = rng.randrange(NODES)
        pairs.append((first, _other_node(rng, first)))
    authored_before: Dict[int, List[Tuple[int, int]]] = {}
    horizon = max(1, int(ENCOUNTERS * 0.8))
    for _ in range(ITEMS):
        slot = rng.randrange(horizon)
        author = rng.randrange(NODES)
        authored_before.setdefault(slot, []).append(
            (author, _other_node(rng, author))
        )
    return Schedule(authored_before=authored_before, pairs=pairs)


def node_name(index: int) -> str:
    return f"node-{index:03d}"


def replay(
    schedule: Schedule,
    config: SessionConfig = SessionConfig(),
    transport_factory: Optional[Callable[..., Any]] = None,
    before_encounter: Optional[
        Callable[[int, SyncEndpoint, SyncEndpoint], None]
    ] = None,
) -> Tuple[List[SyncEndpoint], List[SyncStats]]:
    """Run the schedule on a fresh flooding population."""
    endpoints = []
    for index in range(NODES):
        replica = Replica(
            ReplicaId(node_name(index)),
            MultiAddressFilter(own_address=node_name(index)),
        )
        endpoints.append(SyncEndpoint(replica, EpidemicPolicy().bind(replica)))
    all_stats: List[SyncStats] = []
    for index, (a, b) in enumerate(schedule.pairs):
        for author, destination in schedule.authored_before.get(index, ()):
            endpoints[author].replica.create_item(
                payload=f"m{index}",
                attributes={
                    "destination": node_name(destination),
                    "source": node_name(author),
                },
            )
        if before_encounter is not None:
            before_encounter(index, endpoints[a], endpoints[b])
        all_stats.extend(
            EncounterSession(
                first=endpoints[a],
                second=endpoints[b],
                now=float(index),
                config=config,
                transport_factory=transport_factory,
            ).run()
        )
    return endpoints, all_stats


def final_knowledge(endpoints: List[SyncEndpoint]) -> Tuple:
    """A comparable fingerprint of every replica's final knowledge."""
    return tuple(
        tuple(
            (
                origin.name,
                endpoint.replica.knowledge.known_counter_prefix(origin),
                tuple(sorted(endpoint.replica.knowledge.extra_counters(origin))),
            )
            for origin in endpoint.replica.knowledge.replicas()
        )
        for endpoint in endpoints
    )


@pytest.fixture(scope="module")
def schedule() -> Schedule:
    return draw_schedule()


# -- version index ------------------------------------------------------------


@dataclass
class ScanGate:
    store_size: int
    candidates: int
    touched: int
    checks: int

    @property
    def reduction(self) -> float:
        """Full-scan visits per item the enumeration actually touched."""
        return self.store_size / self.touched


def measure_enumeration(schedule: Schedule, monkeypatch) -> ScanGate:
    """One indexed run, counting every stored item the enumeration touches:
    each item a full-store walk yields and each item an index lookup
    returns."""
    touched = [0]
    walk, lookup = Replica.stored_items, ItemStore.unknown_items

    def counted_walk(replica):
        for item in walk(replica):
            touched[0] += 1
            yield item

    def counted_lookup(store, knowledge):
        found = lookup(store, knowledge)
        touched[0] += len(found)
        return found

    monkeypatch.setattr(Replica, "stored_items", counted_walk)
    monkeypatch.setattr(ItemStore, "unknown_items", counted_lookup)
    checks = [0]

    def verify(index, first, second):
        if index % VERIFY_EVERY:
            return
        before = touched[0]  # the probe itself is not sync work
        for source, target in ((first, second), (second, first)):
            knowledge = target.replica.knowledge
            assert source.replica.items_unknown_to(knowledge) == (
                items_unknown_to_scan(source.replica, knowledge)
            ), f"index/scan divergence at encounter {index}"
            checks[0] += 1
        touched[0] = before

    _, all_stats = replay(schedule, before_encounter=verify)
    return ScanGate(
        store_size=sum(stats.store_size for stats in all_stats),
        candidates=sum(stats.candidates for stats in all_stats),
        touched=touched[0],
        checks=checks[0],
    )


def test_index_enumerates_5x_fewer_items_than_a_scan(schedule, monkeypatch):
    gate = measure_enumeration(schedule, monkeypatch)
    assert gate.checks == 2 * len(range(0, ENCOUNTERS, VERIFY_EVERY))
    assert gate.store_size / gate.candidates >= MIN_REDUCTION, gate
    assert gate.touched == gate.candidates, gate


def test_scan_gate_trips_without_the_index(schedule, monkeypatch):
    monkeypatch.setattr(Replica, "items_unknown_to", items_unknown_to_scan)
    gate = measure_enumeration(schedule, monkeypatch)
    assert gate.touched == gate.store_size
    assert gate.reduction < MIN_REDUCTION


# -- checksum cache -----------------------------------------------------------


class DigestingChannel:
    """An intact, in-order channel that fingerprints what it carries.

    Every ``DUPLICATE_EVERY``-th entry is delivered twice (no randomness,
    so every run sees the same schedule). The running SHA-256 covers
    exactly what the receiver sees, declared checksums included, so two
    equal digests mean byte-identical traffic.
    """

    def __init__(self) -> None:
        self._count = 0
        self._digest = hashlib.sha256()

    def deliver(self, batch: Sequence[BatchEntry]) -> DeliveryOutcome:
        delivered: List[BatchEntry] = []
        for entry in batch:
            delivered.append(entry)
            self._count += 1
            if self._count % DUPLICATE_EVERY == 0:
                delivered.append(entry)
        for entry in delivered:
            record = (
                str(entry.item.item_id),
                str(entry.item.version),
                entry.checksum,
                entry.matched_filter,
                int(entry.priority.class_),
                entry.priority.cost,
            )
            self._digest.update(repr(record).encode("utf-8"))
        return DeliveryOutcome(delivered=delivered, sent=len(batch))

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


@dataclass
class ChecksumRun:
    computations: int
    batch_digest: str
    knowledge: Tuple
    received: Tuple[int, int]


def measure_checksums(schedule: Schedule, use_cache: bool) -> ChecksumRun:
    channel = DigestingChannel()
    before = integrity.checksum_computations()
    endpoints, all_stats = replay(
        schedule,
        config=SessionConfig(use_cache=use_cache),
        transport_factory=lambda source_id, target_id: channel,
    )
    return ChecksumRun(
        computations=integrity.checksum_computations() - before,
        batch_digest=channel.hexdigest(),
        knowledge=final_knowledge(endpoints),
        received=(
            sum(stats.received_total for stats in all_stats),
            sum(stats.redundant_received for stats in all_stats),
        ),
    )


def checksum_reduction(schedule: Schedule) -> float:
    cached = measure_checksums(schedule, use_cache=True)
    uncached = measure_checksums(schedule, use_cache=False)
    assert cached.batch_digest == uncached.batch_digest
    assert cached.knowledge == uncached.knowledge
    assert cached.received == uncached.received
    assert cached.received[1] > 0, "the channel must exercise duplicates"
    return uncached.computations / cached.computations


def test_checksum_cache_computes_5x_fewer_checksums(schedule):
    assert checksum_reduction(schedule) >= MIN_REDUCTION


def test_checksum_gate_trips_without_the_cache(schedule, monkeypatch):
    monkeypatch.setattr(
        ChecksumCache, "checksum_outgoing", lambda self, item: item_checksum(item)
    )
    monkeypatch.setattr(
        ChecksumCache,
        "verify_incoming",
        lambda self, item, declared: item_checksum(item) == declared,
    )
    assert checksum_reduction(schedule) < MIN_REDUCTION


# -- knowledge size -----------------------------------------------------------


@dataclass
class MetadataRun:
    encoder_calls: int
    metadata_bytes: int
    reference_bytes: int
    exact_syncs: int


def measure_metadata(schedule: Schedule, monkeypatch) -> MetadataRun:
    """Count knowledge encodings during the run, and measure every exact
    request's knowledge with the real encoder beside it (uncounted)."""
    encode = codec.encode_knowledge
    calls = [0]

    def counted_encode(vector):
        calls[0] += 1
        return encode(vector)

    monkeypatch.setattr(codec, "encode_knowledge", counted_encode)
    build = session.build_batch
    reference = [0, 0]

    def measured_build(source, request, *args, **kwargs):
        if request.digest is None:
            reference[0] += codec.wire_size(encode(request.knowledge))
            reference[1] += 1
        return build(source, request, *args, **kwargs)

    monkeypatch.setattr(session, "build_batch", measured_build)
    _, all_stats = replay(schedule)
    return MetadataRun(
        encoder_calls=calls[0],
        metadata_bytes=sum(stats.metadata_bytes for stats in all_stats),
        reference_bytes=reference[0],
        exact_syncs=reference[1],
    )


def test_knowledge_size_needs_no_encoding(schedule, monkeypatch):
    run = measure_metadata(schedule, monkeypatch)
    assert run.exact_syncs == 2 * ENCOUNTERS
    assert run.encoder_calls == 0, run
    assert run.metadata_bytes == run.reference_bytes, run


def test_knowledge_size_gate_trips_through_the_encoder(schedule, monkeypatch):
    monkeypatch.setattr(
        codec,
        "knowledge_wire_size",
        lambda vector: codec.wire_size(codec.encode_knowledge(vector)),
    )
    run = measure_metadata(schedule, monkeypatch)
    assert run.metadata_bytes == run.reference_bytes
    assert run.encoder_calls == run.exact_syncs

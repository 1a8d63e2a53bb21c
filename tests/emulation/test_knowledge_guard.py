"""The emulator's knowledge-monotonicity guard.

Around every encounter and churn handoff the emulator snapshots both
nodes' knowledge and, after the syncs, requires the new vectors to
dominate the snapshots. ``VersionVector.dominates`` skips entries the two
vectors share by identity, so these tests regress knowledge in the way
that shortcut must not hide: a vector that shares every entry object but
one with its snapshot.
"""

import pytest

from repro.dtn import EpidemicPolicy
from repro.emulation import network
from repro.emulation.encounters import Encounter, EncounterTrace
from repro.emulation.network import Emulator
from repro.emulation.node import EmulatedNode
from repro.replication.errors import SyncProtocolError
from repro.replication.ids import ReplicaId, Version

NAMES = ("a", "b", "c")
#: An author outside the emulation whose versions every node relays. It is
#: learned last, so the guard meets every shared entry before the
#: regressed one: a shortcut that stopped at a shared entry would pass it.
RELAYED = ReplicaId("z")


def make_emulator():
    nodes = {name: EmulatedNode(name, EpidemicPolicy()) for name in NAMES}
    for node in nodes.values():
        for serial in range(3):
            node.replica.create_item(payload=f"{node.name}-{serial}")
    for node in nodes.values():  # every node knows every author
        for other in nodes.values():
            node.replica.knowledge.merge(other.replica.knowledge)
        for counter in (1, 2, 3):
            node.replica.knowledge.add(Version(RELAYED, counter))
    trace = EncounterTrace([Encounter(10.0, "a", "b")])
    return Emulator(trace, nodes), nodes


def regress_one_entry(node):
    """Forget the newest relayed version, sharing every other entry."""
    replica = node.replica
    knowledge = replica.knowledge
    regressed = knowledge.clamped(RELAYED, 2)
    assert list(knowledge._entries)[-1] == RELAYED
    shared = [
        origin
        for origin in knowledge.replicas()
        if regressed._entries[origin] is knowledge._entries[origin]
    ]
    assert len(shared) == len(NAMES)  # every entry but the clamped one
    replica.knowledge = regressed


def regressing_session(victim):
    """An ``EncounterSession`` stand-in whose run regresses ``victim``."""

    class RegressingSession:
        def __init__(self, **kwargs):
            pass

        def run(self):
            regress_one_entry(victim)
            return []

    return RegressingSession


@pytest.mark.parametrize("victim", ["a", "b"])
def test_encounter_guard_raises_on_one_regressed_entry(monkeypatch, victim):
    emulator, nodes = make_emulator()
    monkeypatch.setattr(
        network, "EncounterSession", regressing_session(nodes[victim])
    )
    with pytest.raises(
        SyncProtocolError, match=f"'{victim}' regressed during an encounter"
    ):
        emulator._run_encounter(Encounter(10.0, "a", "b"))


@pytest.mark.parametrize("victim", ["a", "c"])
def test_handoff_guard_raises_on_one_regressed_entry(monkeypatch, victim):
    emulator, nodes = make_emulator()
    monkeypatch.setattr(
        network, "EncounterSession", regressing_session(nodes[victim])
    )
    with pytest.raises(
        SyncProtocolError, match=f"'{victim}' regressed during a handoff"
    ):
        emulator._run_handoff("a", "c", 10.0)


def test_guards_pass_an_honest_encounter_and_handoff():
    emulator, nodes = make_emulator()
    nodes["a"].replica.create_item(payload="fresh")
    emulator._run_encounter(Encounter(10.0, "a", "b"))
    emulator._run_handoff("a", "c", 20.0)
    assert nodes["c"].replica.knowledge.dominates(nodes["a"].replica.knowledge)

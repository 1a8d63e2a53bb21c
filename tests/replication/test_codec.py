"""Unit tests for the wire codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication import (
    AddressFilter,
    AllFilter,
    AttributeFilter,
    MultiAddressFilter,
    NotFilter,
    NothingFilter,
    Priority,
    PriorityClass,
    Replica,
    ReplicaId,
    SyncRequest,
    VersionVector,
)
from repro.replication.codec import (
    CodecError,
    decode_batch,
    decode_filter,
    decode_item,
    decode_item_id,
    decode_knowledge,
    decode_routing_state,
    decode_sync_request,
    decode_version,
    encode_batch,
    encode_filter,
    encode_item,
    encode_item_id,
    encode_knowledge,
    encode_routing_state,
    encode_sync_request,
    encode_version,
    knowledge_wire_size,
    wire_size,
)
from repro.replication.ids import ItemId, Version
from repro.replication.sync import BatchEntry
from tests.conftest import make_item


class TestIdentifiers:
    def test_version_roundtrip(self):
        version = Version(ReplicaId("bus01"), 42)
        assert decode_version(encode_version(version)) == version

    def test_item_id_roundtrip(self):
        item_id = ItemId(ReplicaId("bus01"), 7)
        assert decode_item_id(encode_item_id(item_id)) == item_id

    def test_bad_version_raises(self):
        with pytest.raises(CodecError):
            decode_version(["only-one"])


class TestKnowledge:
    def test_roundtrip_with_gaps(self):
        vector = VersionVector.from_versions(
            [
                Version(ReplicaId("a"), 1),
                Version(ReplicaId("a"), 2),
                Version(ReplicaId("a"), 5),
                Version(ReplicaId("b"), 3),
            ]
        )
        assert decode_knowledge(encode_knowledge(vector)) == vector

    def test_empty_roundtrip(self):
        assert decode_knowledge(encode_knowledge(VersionVector.empty())) == (
            VersionVector.empty()
        )

    def test_size_grows_with_replicas_not_items(self):
        """The paper's compact-metadata claim, in bytes."""
        many_items = VersionVector.from_versions(
            Version(ReplicaId("a"), c) for c in range(1, 2001)
        )
        many_replicas = VersionVector.from_versions(
            Version(ReplicaId(f"r{i:03d}"), 1) for i in range(40)
        )
        assert knowledge_wire_size(many_items) < 30
        assert knowledge_wire_size(many_replicas) > knowledge_wire_size(many_items)

    def test_bad_encoding_raises(self):
        with pytest.raises(CodecError):
            decode_knowledge([1, 2, 3])
        with pytest.raises(CodecError):
            decode_knowledge({"a": "oops"})


class TestFilters:
    @pytest.mark.parametrize(
        "filter_",
        [
            AllFilter(),
            NothingFilter(),
            AddressFilter("alice"),
            MultiAddressFilter("alice", frozenset({"bob", "carol"})),
            AttributeFilter("kind", "message"),
            AddressFilter("a") & AttributeFilter("x", 1),
            AddressFilter("a") | AddressFilter("b"),
            NotFilter(AddressFilter("spam")),
        ],
    )
    def test_roundtrip(self, filter_):
        assert decode_filter(encode_filter(filter_)) == filter_

    def test_unknown_type_raises(self):
        with pytest.raises(CodecError):
            decode_filter({"type": "quantum"})
        with pytest.raises(CodecError):
            decode_filter("not-a-dict")


class TestItems:
    def test_plain_roundtrip(self):
        item = make_item(payload="hello", destination="bob")
        assert decode_item(encode_item(item)) == item
        decoded = decode_item(encode_item(item))
        assert decoded.payload == "hello"
        assert decoded.attributes == item.attributes

    def test_local_attributes_preserved(self):
        item = make_item().with_local(ttl=3, hops=("a", "b"))
        decoded = decode_item(encode_item(item))
        assert decoded.local("ttl") == 3
        assert decoded.local("hops") == ("a", "b")

    def test_tombstone_roundtrip(self):
        tombstone = make_item().as_tombstone(Version(ReplicaId("x"), 9))
        decoded = decode_item(encode_item(tombstone))
        assert decoded.deleted
        assert decoded.payload is None

    def test_bad_item_raises(self):
        with pytest.raises(CodecError):
            decode_item({"id": "nope"})


class TestSyncMessages:
    def test_request_roundtrip(self):
        replica = Replica(ReplicaId("alice"), AddressFilter("alice"))
        replica.create_item("x", {"destination": "alice"})
        request = SyncRequest(
            target_id=replica.replica_id,
            knowledge=replica.knowledge.copy(),
            filter=replica.filter,
        )
        decoded = decode_sync_request(encode_sync_request(request))
        assert decoded.target_id == request.target_id
        assert decoded.knowledge == request.knowledge
        assert decoded.filter == request.filter
        assert decoded.routing_state is None

    def test_request_with_prophet_state_roundtrips(self):
        import repro.dtn  # noqa: F401 — registers the codecs
        from repro.dtn import ProphetRequest

        state = ProphetRequest(
            addresses=frozenset({"alice"}), predictabilities={"bob": 0.5}
        )
        decoded = decode_routing_state(encode_routing_state(state))
        assert decoded == state

    def test_request_with_maxprop_state_roundtrips(self):
        import repro.dtn  # noqa: F401
        from repro.dtn import MaxPropRequest

        state = MaxPropRequest(
            node="bus01",
            addresses=frozenset({"bus01"}),
            vectors={"bus01": {"bus02": 1.0}},
            locations={"user1": ("bus02", 9.0)},
            acks=frozenset({ItemId(ReplicaId("x"), 3)}),
        )
        decoded = decode_routing_state(encode_routing_state(state))
        assert decoded == state

    def test_unregistered_state_raises(self):
        with pytest.raises(CodecError):
            encode_routing_state(object())

    def test_batch_roundtrip(self):
        batch = [
            BatchEntry(make_item(), True, Priority(PriorityClass.FILTER_MATCH)),
            BatchEntry(make_item(), False, Priority(PriorityClass.NORMAL, 0.3)),
        ]
        decoded = decode_batch(encode_batch(batch))
        assert [e.item for e in decoded] == [e.item for e in batch]
        assert [e.priority for e in decoded] == [e.priority for e in batch]
        assert [e.matched_filter for e in decoded] == [True, False]


class TestWireSize:
    def test_compact_json(self):
        assert wire_size({"a": 1}) == len(b'{"a":1}')

    def test_deterministic_key_order(self):
        assert wire_size({"b": 1, "a": 2}) == wire_size({"a": 2, "b": 1})


# -- knowledge_wire_size ≡ the encoder ---------------------------------------------

#: Replica names the JSON encoder escapes (ensure_ascii): non-ASCII,
#: astral-plane (a surrogate pair), quote, backslash, control characters.
AWKWARD_NAMES = ["a", "bus-07", "é", "日本", "😀", '"', "\\", "\x00", "\n\t", "\x7f"]
#: Counters on either side of digit-count boundaries.
BOUNDARY_COUNTERS = [1, 2, 8, 9, 10, 11, 98, 99, 100, 101, 999, 1000]

names = st.sampled_from(AWKWARD_NAMES)
counters = st.one_of(
    st.sampled_from(BOUNDARY_COUNTERS), st.integers(min_value=1, max_value=120)
)
slots = st.integers(min_value=0, max_value=63)
operations = st.one_of(
    st.tuples(st.just("add"), slots, names, counters),
    # counters 1..n in order: prefixes cross 9→10 and 99→100, and
    # extras added earlier fold into the prefix as the gap closes
    st.tuples(st.just("fill"), slots, names, st.integers(1, 120)),
    st.tuples(st.just("merge"), slots, slots),
    # maximum 0 leaves an empty entry in the table
    st.tuples(st.just("clamp"), slots, names, st.integers(0, 110)),
    st.tuples(st.just("copy"), slots),
    st.tuples(st.just("roundtrip"), slots),
)


def encoder_size(vector: VersionVector) -> int:
    """The specification: the size of the actual encoding."""
    return wire_size(encode_knowledge(vector))


class TestKnowledgeWireSize:
    """``knowledge_wire_size`` is maintained arithmetically; after every
    step of a random history it must equal the encoder's measurement on
    every vector alive, snapshots and the vectors they were taken from
    alike."""

    @given(st.lists(operations, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_encoder_after_every_step(self, steps):
        pool = [
            VersionVector.empty(),
            decode_knowledge({"x": [0], "é": [0]}),  # empty entries only
            decode_knowledge({"x": [0], "y": [9, 11, 100]}),
        ]
        for step in steps:
            kind, slot = step[0], step[1] % len(pool)
            vector = pool[slot]
            if kind == "add":
                vector.add(Version(ReplicaId(step[2]), step[3]))
            elif kind == "fill":
                for counter in range(1, step[3] + 1):
                    vector.add(Version(ReplicaId(step[2]), counter))
            elif kind == "merge":
                vector.merge(pool[step[2] % len(pool)])
            elif kind == "clamp":
                pool.append(vector.clamped(ReplicaId(step[2]), step[3]))
            elif kind == "copy":
                pool.append(vector.copy())
            else:
                decoded = decode_knowledge(encode_knowledge(vector))
                assert decoded == vector
                pool.append(decoded)
            for alive in pool:
                assert knowledge_wire_size(alive) == encoder_size(alive)

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=6),
            st.tuples(
                st.integers(0, 10**6), st.sets(st.integers(1, 10**6), max_size=4)
            ),
            max_size=6,
        )
    )
    def test_any_decoded_vector_matches_the_encoder(self, shapes):
        data = {
            name: [prefix, *sorted(c + prefix + 1 for c in extras)]
            for name, (prefix, extras) in shapes.items()
        }
        vector = decode_knowledge(data)
        assert knowledge_wire_size(vector) == encoder_size(vector)
        assert knowledge_wire_size(vector) == wire_size(
            {name: shape for name, shape in data.items() if shape != [0]}
        )

    def test_empty_vector_is_two_braces(self):
        assert knowledge_wire_size(VersionVector.empty()) == len(b"{}")
        assert knowledge_wire_size(decode_knowledge({"x": [0]})) == len(b"{}")

    def test_non_string_replica_names_are_rejected(self):
        with pytest.raises(CodecError):
            decode_knowledge({7: [1]})

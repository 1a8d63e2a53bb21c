"""Replicated items and their metadata.

An :class:`Item` is the replication unit. It carries:

* an :class:`~repro.replication.ids.ItemId` (stable across versions),
* a :class:`~repro.replication.ids.Version` (changes on every update),
* an opaque ``payload`` (the message body, in the DTN application),
* ``attributes`` — *replicated* metadata that travels with the item and is
  visible to filters (destination address, source address, timestamps…),
* ``local_attributes`` — *host-specific* metadata that is **not** replicated
  and does not bump the version (e.g. Epidemic's TTL, Spray-and-Wait's copy
  budget). Section V-A of the paper calls these "transient metadata
  associated with a specific copy of a message"; updating them must not make
  the item look like a new version during subsequent syncs.

Items are value objects from the protocol's point of view but expose an
explicit :meth:`Item.with_local` so policies can adjust per-copy state
without version churn, mirroring Cimbiosys's internal no-new-version update
interface that the paper relies on for Spray and Wait.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from .ids import ItemId, Version

#: Reserved attribute names used by the messaging application. Policies and
#: applications may add their own attributes freely; these are the ones the
#: substrate and bundled policies know about.
ATTR_SOURCE = "source"
ATTR_DESTINATION = "destination"
ATTR_CREATED_AT = "created_at"
ATTR_KIND = "kind"

#: ``kind`` values with substrate-level meaning.
KIND_MESSAGE = "message"
KIND_ACK = "ack"
KIND_TOMBSTONE = "tombstone"

#: Name of the per-instance content-checksum memo (see
#: :func:`repro.replication.integrity.cached_item_checksum`). The memo is a
#: non-field attribute set with ``object.__setattr__``, so
#: ``dataclasses.replace`` never copies it — any derivation that *could*
#: change replicated content starts clean. Only the two derivations that
#: provably preserve replicated content (:meth:`Item.with_local`,
#: :meth:`Item.without_local`; the checksum excludes host-local attributes)
#: carry it over explicitly.
CHECKSUM_MEMO_ATTRIBUTE = "_content_checksum"


class _OwnedDict(dict):
    """A mapping an :class:`Item` constructor created and owns.

    ``__post_init__`` copies incoming mappings defensively; mappings of
    this type were built inside this module, are never mutated after being
    bound to an item, and can therefore be adopted (and shared between
    items) without another copy.
    """

    __slots__ = ()


def _copy_content_memo(source: "Item", derived: "Item") -> "Item":
    """Carry ``source``'s checksum memo onto a content-identical derivation."""
    memo = getattr(source, CHECKSUM_MEMO_ATTRIBUTE, None)
    if memo is not None:
        object.__setattr__(derived, CHECKSUM_MEMO_ATTRIBUTE, memo)
    return derived


@dataclass(frozen=True)
class Item:
    """One version of one replicated item.

    Instances are immutable; updates produce new instances. Equality and
    hashing consider only ``(item_id, version)`` — two copies of the same
    version on different hosts are "the same item" even if their host-local
    attributes differ, which is exactly the semantics at-most-once delivery
    needs.
    """

    item_id: ItemId
    version: Version
    payload: Any = None
    attributes: Mapping[str, Any] = field(default_factory=dict)
    local_attributes: Mapping[str, Any] = field(default_factory=dict)
    deleted: bool = False

    def __post_init__(self) -> None:
        # Freeze the mapping views so accidental aliasing cannot mutate a
        # stored item; dataclass(frozen=True) only protects the bindings.
        # Mappings this module built itself are adopted as-is — the
        # derivation helpers below would otherwise pay two copies per hop.
        if type(self.attributes) is not _OwnedDict:
            object.__setattr__(self, "attributes", _OwnedDict(self.attributes))
        if type(self.local_attributes) is not _OwnedDict:
            object.__setattr__(
                self, "local_attributes", _OwnedDict(self.local_attributes)
            )

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Item):
            return NotImplemented
        return self.item_id == other.item_id and self.version == other.version

    def __hash__(self) -> int:
        return hash((self.item_id, self.version))

    # -- attribute access ---------------------------------------------------------

    def attribute(self, name: str, default: Any = None) -> Any:
        """Read a replicated attribute."""
        return self.attributes.get(name, default)

    def local(self, name: str, default: Any = None) -> Any:
        """Read a host-local (non-replicated) attribute."""
        return self.local_attributes.get(name, default)

    @property
    def destination(self) -> Any:
        return self.attributes.get(ATTR_DESTINATION)

    @property
    def kind(self) -> str:
        return self.attributes.get(ATTR_KIND, KIND_MESSAGE)

    # -- derivation ---------------------------------------------------------------

    def with_version(self, version: Version, **changes: Any) -> "Item":
        """A new version of this item (a replicated update)."""
        return replace(self, version=version, **changes)

    def with_local(self, **local_changes: Any) -> "Item":
        """Same version, adjusted host-local attributes.

        This is the no-new-version update path: the result compares equal to
        the original, so knowledge and sync behaviour are unaffected.
        Returns ``self`` when every change is a no-op (the value already
        stored, or a delete of an absent key), so hot paths that re-stamp
        unchanged per-copy state allocate nothing.
        """
        merged = _OwnedDict(self.local_attributes)
        changed = False
        for key, value in local_changes.items():
            if value is None:
                if merged.pop(key, None) is not None:
                    changed = True
            elif merged.get(key) != value or key not in merged:
                merged[key] = value
                changed = True
        if not changed:
            return self
        return _copy_content_memo(
            self, replace(self, local_attributes=merged)
        )

    def without_local(self) -> "Item":
        """A copy stripped of host-local attributes, as sent on the wire.

        Host-local metadata must never replicate; the sync layer calls this
        before handing an item to the transport (policies may then attach
        fresh per-copy state for the receiving host, e.g. a decremented TTL).
        """
        if not self.local_attributes:
            return self
        return _copy_content_memo(
            self, replace(self, local_attributes=_OwnedDict())
        )

    def as_tombstone(self, version: Version) -> "Item":
        """A deletion marker for this item.

        Tombstones replicate like ordinary updates so that deletions reach
        every interested replica (the paper's "destination deletes the item,
        causing it to be discarded by forwarding nodes").
        """
        return replace(self, version=version, payload=None, deleted=True)

    def __repr__(self) -> str:
        flags = " deleted" if self.deleted else ""
        return f"Item({self.item_id}@{self.version}{flags})"

"""Filter hierarchies: Cimbiosys's tree topology and push-out flow.

Cimbiosys organises replicas in a *filter tree*: each replica's filter
selects a subset of its parent's, with an all-selecting root. Items that
do not match a replica's own filter are pushed **up** toward the parent
(the push-out store), and matching items flow **down** into the subtrees
whose filters select them; one up-pass plus one down-pass makes the whole
collection eventually filter-consistent even though most replicas only
ever talk to their parent.

This module reproduces that mechanism *on top of the DTN policy
interface* — the same plug the paper uses for routing protocols also
expresses Cimbiosys's own out-of-filter propagation:

* :class:`PushUpPolicy` — forwards out-of-filter items only when the sync
  target is this replica's parent;
* :class:`FilterTree` — the topology: parent/child registration with a
  subset sanity check, and :meth:`FilterTree.sync_round`, which runs one
  bottom-up then one top-down wave of parent↔child encounters (one round
  delivers any item across the tree: up to the root, down to every
  interested subtree).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import InvalidFilterError, SyncProtocolError
from .filters import AddressFilter, AllFilter, Filter, MultiAddressFilter
from .items import Item
from .replica import Replica
from .routing import Priority, PriorityClass, RoutingPolicy, SyncContext
from .session import SyncSession
from .sync import SyncEndpoint, SyncStats


class PushUpPolicy(RoutingPolicy):
    """Forward out-of-filter items to the parent, and only to the parent.

    This is Cimbiosys's push-out store expressed as a forwarding policy:
    everything a replica holds but does not want flows toward the root,
    where the all-selecting filter accepts it and the down-flow can find
    the interested subtree.
    """

    name = "push-up"

    def __init__(self, parent: Optional[str]) -> None:
        #: The parent replica's name; None at the root (push nothing).
        self.parent = parent

    def to_send(
        self, item: Item, target_filter: Filter, context: SyncContext
    ) -> Optional[Priority]:
        if self.parent is not None and context.remote.name == self.parent:
            return Priority(PriorityClass.NORMAL)
        return None


def _filter_subsumes(parent: Filter, child: Filter) -> bool:
    """Best-effort structural check that ``parent`` selects ⊇ ``child``.

    Exact subsumption is undecidable for arbitrary predicates; the
    common concrete cases are checked and anything else is accepted
    (the tree still works — unmatched items simply keep flowing up).
    """
    if isinstance(parent, AllFilter):
        return True
    child_addresses = None
    if isinstance(child, AddressFilter):
        child_addresses = {child.address}
    elif isinstance(child, MultiAddressFilter):
        child_addresses = set(child.addresses)
    parent_addresses = None
    if isinstance(parent, AddressFilter):
        parent_addresses = {parent.address}
    elif isinstance(parent, MultiAddressFilter):
        parent_addresses = set(parent.addresses)
    if child_addresses is not None and parent_addresses is not None:
        return child_addresses <= parent_addresses
    return True


@dataclass
class _TreeNode:
    replica: Replica
    endpoint: SyncEndpoint
    parent: Optional[str]
    children: List[str] = field(default_factory=list)
    depth: int = 0


class FilterTree:
    """A Cimbiosys-style synchronisation tree over replicas."""

    def __init__(self) -> None:
        self._nodes: Dict[str, _TreeNode] = {}
        self._root: Optional[str] = None

    # -- construction -----------------------------------------------------------

    def add_root(self, replica: Replica) -> SyncEndpoint:
        """Install the root replica. Its filter must select everything."""
        if self._root is not None:
            raise SyncProtocolError("the tree already has a root")
        if not isinstance(replica.filter, AllFilter):
            raise InvalidFilterError("the tree root must use AllFilter")
        name = replica.replica_id.name
        endpoint = SyncEndpoint(replica, PushUpPolicy(parent=None))
        self._nodes[name] = _TreeNode(replica, endpoint, parent=None, depth=0)
        self._root = name
        return endpoint

    def add_child(self, replica: Replica, parent: str) -> SyncEndpoint:
        """Attach a replica under ``parent``.

        The child's filter must (structurally) select a subset of the
        parent's; violations that the check can detect raise.
        """
        if self._root is None:
            raise SyncProtocolError("add a root before adding children")
        parent_node = self._nodes.get(parent)
        if parent_node is None:
            raise SyncProtocolError(f"unknown parent: {parent!r}")
        name = replica.replica_id.name
        if name in self._nodes:
            raise SyncProtocolError(f"duplicate tree node: {name!r}")
        if not _filter_subsumes(parent_node.replica.filter, replica.filter):
            raise InvalidFilterError(
                f"{name!r}'s filter is not a subset of {parent!r}'s"
            )
        endpoint = SyncEndpoint(replica, PushUpPolicy(parent=parent))
        self._nodes[name] = _TreeNode(
            replica,
            endpoint,
            parent=parent,
            depth=parent_node.depth + 1,
        )
        parent_node.children.append(name)
        return endpoint

    # -- queries ------------------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._nodes)

    def depth_of(self, name: str) -> int:
        return self._nodes[name].depth

    def replica_of(self, name: str) -> Replica:
        return self._nodes[name].replica

    # -- synchronisation -----------------------------------------------------------

    def _edges_bottom_up(self) -> List[tuple]:
        edges = [
            (name, node.parent)
            for name, node in self._nodes.items()
            if node.parent is not None
        ]
        edges.sort(key=lambda edge: (-self._nodes[edge[0]].depth, edge[0]))
        return edges

    def sync_round(self, now: float = 0.0) -> List[SyncStats]:
        """One full propagation wave: everyone pushes up, then pulls down.

        Up-pass (deepest edges first): each parent pulls from its child —
        in-filter items plus the child's push-out overflow. Down-pass
        (shallowest first): each child pulls its in-filter items from its
        parent. After one round, any item authored anywhere is at every
        replica whose filter selects it.
        """
        stats: List[SyncStats] = []
        edges = self._edges_bottom_up()
        for child, parent in edges:
            stats.append(
                SyncSession(
                    source=self._nodes[child].endpoint,
                    target=self._nodes[parent].endpoint,
                    now=now,
                ).run()
            )
        for child, parent in reversed(edges):
            stats.append(
                SyncSession(
                    source=self._nodes[parent].endpoint,
                    target=self._nodes[child].endpoint,
                    now=now,
                ).run()
            )
        return stats

    def converge(self, rounds: int = 2, now: float = 0.0) -> List[SyncStats]:
        """Run multiple rounds (one suffices for fresh items; two also
        settle items that were mid-tree when the round started)."""
        stats: List[SyncStats] = []
        for round_index in range(rounds):
            stats.extend(self.sync_round(now=now + round_index))
        return stats

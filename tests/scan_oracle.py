"""Full-store scan oracle for the version-indexed sync enumeration.

:meth:`~repro.replication.replica.Replica.items_unknown_to` walks each
store's version index and visits only what the peer is missing. Its
plain definition — every stored item whose version the peer's knowledge
does not cover, in store order — lives here, as the executable
specification every index≡scan assertion checks against.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

from repro.replication.items import Item
from repro.replication.replica import Replica
from repro.replication.versions import VersionVector


def items_unknown_to_scan(replica: Replica, knowledge: VersionVector) -> List[Item]:
    """Stored items ``knowledge`` does not cover, found by visiting them all."""
    return [
        item
        for item in replica.stored_items()
        if not knowledge.contains(item.version)
    ]


@contextmanager
def scan_enumeration(replica: Replica) -> Iterator[Replica]:
    """Route ``replica``'s enumeration through the scan oracle.

    Inside the block, ``build_batch`` on this replica selects its batch
    from :func:`items_unknown_to_scan` instead of the version index: the
    reference batch an indexed build must equal entry for entry.
    """
    replica.items_unknown_to = lambda knowledge: items_unknown_to_scan(
        replica, knowledge
    )
    try:
        yield replica
    finally:
        del replica.items_unknown_to

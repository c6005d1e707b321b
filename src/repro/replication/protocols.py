"""Replica-control protocols.

Three protocols reproduce the dissertation's replication landscape:

* :class:`PrimaryPerPartitionProtocol` (**P4**, §4.3, [BBG+06]) — the
  protocol of the prototype: primary-backup in a healthy system with
  per-object designated primaries; during degraded mode a temporary
  primary is chosen *per partition*, so writes continue everywhere at the
  price of possible replica conflicts.
* :class:`PrimaryPartitionProtocol` ([RSB93], §1.1) — the conventional
  baseline: only the primary partition may write; other partitions are
  read-only (and stale).
* :class:`AdaptiveVotingProtocol` (§4.3 "further reading", [7]) — a
  quorum protocol that adapts quorum sizes in degraded mode so operations
  producing acceptable consistency threats remain possible.

A protocol answers three questions for a given object and partition: who
executes writes, whether writes are allowed at all, and whether local
views are possibly stale.
"""

from __future__ import annotations

from typing import Callable

from ..net import NodeId

#: A temporary primary not yet chosen (``None`` is a valid choice: nobody).
_UNCHOSEN = object()


class ReplicationProtocol:
    """Strategy interface for replica control decisions."""

    name = "abstract"

    # Observability callback invoked whenever a *temporary* primary is
    # chosen in place of the designated one (a P4 promotion).  Set by the
    # replication manager; ``None`` means nobody is watching.
    promotion_hook: Callable[[NodeId], None] | None = None

    def __init__(self) -> None:
        # (replica nodes, partition) -> the temporary primary, a pure
        # function of the two; a threaded backend's concurrent callers may
        # both fill an entry, with the same value.
        self._temporaries: dict[tuple[tuple[NodeId, ...], frozenset[NodeId]], NodeId | None] = {}

    def write_node(
        self,
        designated_primary: NodeId,
        replica_nodes: tuple[NodeId, ...],
        partition: frozenset[NodeId],
    ) -> NodeId | None:
        """The node that must execute a write in this partition, or
        ``None`` when writing is not allowed here."""
        raise NotImplementedError

    def is_possibly_stale(
        self,
        designated_primary: NodeId,
        replica_nodes: tuple[NodeId, ...],
        partition: frozenset[NodeId],
    ) -> bool:
        """Whether local views in ``partition`` may have missed updates."""
        raise NotImplementedError

    def _temporary_primary(
        self, replica_nodes: tuple[NodeId, ...], partition: frozenset[NodeId]
    ) -> NodeId | None:
        """Deterministic choice of a temporary primary: the smallest
        replica node id inside the partition, chosen once per (replica
        nodes, partition) and announced to the promotion hook on every
        call."""
        key = (replica_nodes, partition)
        chosen = self._temporaries.get(key, _UNCHOSEN)
        if chosen is _UNCHOSEN:
            chosen = self._temporaries[key] = min(
                (node for node in replica_nodes if node in partition), default=None
            )
        if chosen is not None and self.promotion_hook is not None:
            self.promotion_hook(chosen)
        return chosen


class PrimaryPerPartitionProtocol(ReplicationProtocol):
    """P4: write access in every partition via temporary primaries."""

    name = "P4"

    def write_node(
        self,
        designated_primary: NodeId,
        replica_nodes: tuple[NodeId, ...],
        partition: frozenset[NodeId],
    ) -> NodeId | None:
        if designated_primary in partition:
            return designated_primary
        return self._temporary_primary(replica_nodes, partition)

    def is_possibly_stale(
        self,
        designated_primary: NodeId,
        replica_nodes: tuple[NodeId, ...],
        partition: frozenset[NodeId],
    ) -> bool:
        # Under P4 objects are possibly stale in *every* partition (§3.1)
        # — unless every replica node is inside this partition, in which
        # case no remote update can have been missed.
        return any(node not in partition for node in replica_nodes)


class PrimaryPartitionProtocol(ReplicationProtocol):
    """Classic primary-partition protocol: writes only in the majority
    partition; other partitions operate read-only on stale views."""

    name = "primary-partition"

    def __init__(self, total_nodes: int) -> None:
        if total_nodes < 1:
            raise ValueError("total_nodes must be at least 1")
        super().__init__()
        self.total_nodes = total_nodes

    def _is_primary_partition(self, partition: frozenset[NodeId]) -> bool:
        return len(partition) * 2 > self.total_nodes

    def write_node(
        self,
        designated_primary: NodeId,
        replica_nodes: tuple[NodeId, ...],
        partition: frozenset[NodeId],
    ) -> NodeId | None:
        if not self._is_primary_partition(partition):
            return None
        if designated_primary in partition:
            return designated_primary
        return self._temporary_primary(replica_nodes, partition)

    def is_possibly_stale(
        self,
        designated_primary: NodeId,
        replica_nodes: tuple[NodeId, ...],
        partition: frozenset[NodeId],
    ) -> bool:
        # Each object accessed in a non-primary partition is possibly
        # stale (§3.1); the primary partition holds the authoritative
        # copies.
        if self._is_primary_partition(partition):
            return False
        return any(node not in partition for node in replica_nodes)


class AdaptiveVotingProtocol(ReplicationProtocol):
    """Quorum-based protocol with degraded-mode quorum adaptation.

    With one vote per replica node, a healthy write needs a majority
    quorum.  In a partition lacking the quorum, the protocol *adapts*: the
    quorum is reduced to the partition, the write proceeds on a temporary
    primary, and — because another partition may do the same — local views
    count as possibly stale, producing consistency threats that the
    constraint middleware negotiates.
    """

    name = "adaptive-voting"

    def write_node(
        self,
        designated_primary: NodeId,
        replica_nodes: tuple[NodeId, ...],
        partition: frozenset[NodeId],
    ) -> NodeId | None:
        if designated_primary in partition:
            return designated_primary
        return self._temporary_primary(replica_nodes, partition)

    def is_possibly_stale(
        self,
        designated_primary: NodeId,
        replica_nodes: tuple[NodeId, ...],
        partition: frozenset[NodeId],
    ) -> bool:
        present = sum(node in partition for node in replica_nodes)
        if present * 2 > len(replica_nodes):
            # A majority quorum guarantees no disjoint partition can also
            # have written.
            return False
        return any(node not in partition for node in replica_nodes)

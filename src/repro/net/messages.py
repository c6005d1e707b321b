"""Message types exchanged over the simulated network.

The failure model follows §1.1 of the dissertation: nodes crash (pause-crash
for servers), links may lose messages but never duplicate or corrupt them.
Messages therefore carry only a payload, routing metadata, and a sequence
number used by tests to assert ordering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

NodeId = str

# Multicast kinds used by the replication service.
REPLICA_CREATE = "replica-create"
REPLICA_UPDATE = "replica-update"
REPLICA_DELETE = "replica-delete"

# Multicast kinds used by the constraint consistency service: accepted
# threats are replicated to partition members, and a ``threat-resolved``
# payload is a tuple of identities every recipient drops — the one a
# business operation satisfied again (§4.4), or every threat one
# reconciliation's constraint phase resolved.
THREAT_REPLICATE = "threat-replicate"
THREAT_RESOLVED = "threat-resolved"

# Multicast kinds used by reconciliation's digest anti-entropy exchange:
# the coordinator sends its digest, every member replies with its own
# digest and the records the coordinator lacks, and a ``threat-sync``
# payload ``(destination, records)`` ships the records the coordinator
# found missing at that one member.
THREAT_DIGEST = "threat-digest"
THREAT_SYNC = "threat-sync"

# ``__next__`` of a C counter: numbering a message runs no Python frame.
_next_sequence = itertools.count(1).__next__


@dataclass(frozen=True, slots=True)
class Message:
    """A point-to-point or multicast message."""

    source: NodeId
    destination: NodeId
    kind: str
    payload: Any = None
    sequence: int = field(default_factory=_next_sequence)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(#{self.sequence} {self.kind} "
            f"{self.source}->{self.destination})"
        )


class UnreachableError(RuntimeError):
    """Raised when a destination cannot be reached from the source.

    Corresponds to the situations the paper classifies as NCC input: an
    affected object's node is in another partition or crashed.
    """

    def __init__(self, source: NodeId, destination: NodeId) -> None:
        super().__init__(f"{destination} is unreachable from {source}")
        self.source = source
        self.destination = destination


class NodeCrashedError(RuntimeError):
    """Raised when an operation is attempted on a crashed node."""

    def __init__(self, node: NodeId) -> None:
        super().__init__(f"node {node} has crashed")
        self.node = node


class DeadlineExceededError(RuntimeError):
    """An invocation's simulated-time deadline passed before completion.

    Raised client-side when retries would back off past the deadline, and
    server-side when a call arrives (after transport latency) later than
    its deadline allows — the middleware then refuses to spend validation
    work on a result the caller no longer waits for.
    """

    def __init__(self, what: Any, deadline: float, now: float) -> None:
        super().__init__(
            f"deadline {deadline:.6f} exceeded for {what} (now {now:.6f})"
        )
        self.what = what
        self.deadline = deadline
        self.now = now

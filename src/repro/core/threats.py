"""Consistency threats and their persistent management (§3.1, §3.2.2).

A consistency threat arises whenever a constraint could only be checked in
a limited way (LCC — possibly stale replicas involved) or not at all (NCC).
Accepted threats are persisted by the middleware, together with optional
application-specific data and reconciliation instructions, and re-evaluated
in the reconciliation phase.

Two storage policies reproduce §3.2.2/§5.5.1:

* ``FULL_HISTORY`` — every occurrence is stored (needed when rollback/undo
  to intermediate states must be possible).  §5.2: a threat initially
  persists three database objects, each additional identical occurrence
  two more.
* ``IDENTICAL_ONCE`` — identical threats (same constraint and, if
  applicable, same context object) are stored once; later occurrences only
  perform a read to detect the existing record (§5.5.1).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..objects import ObjectRef
from ..persistence import PersistenceEngine
from .model import SatisfactionDegree

if TYPE_CHECKING:  # pragma: no cover
    from ..tx import Transaction

ThreatIdentity = tuple[str, ObjectRef | None]


def _identity_order(identity: ThreatIdentity) -> tuple[str, str]:
    return (identity[0], str(identity[1]))


def _catalog_order(threat: ConsistencyThreat) -> tuple[tuple[str, str], int]:
    """The (identity, threat id) order anti-entropy ships records in."""
    return (_identity_order(threat.identity), threat.threat_id)


@dataclass(frozen=True)
class ReconciliationInstructions:
    """Application-provided guidance stored with a threat (§3.2.2).

    A value: a handler attaches new instructions to a threat by assigning
    ``threat.instructions``, so every threat can start out sharing
    :data:`NO_INSTRUCTIONS`."""

    # Whether rollback/undo to intermediate states may be performed during
    # reconciliation (enables the history-based path of §3.3).
    allow_rollback: bool = False
    # Whether the application wants to be informed when the constraint is
    # satisfied but a replica conflict occurred for it (§3.3).
    notify_on_replica_conflict: bool = False


#: The instructions of a threat no handler gave any.
NO_INSTRUCTIONS = ReconciliationInstructions()

# ``__next__`` of a C counter: numbering a threat runs no Python frame.
_next_threat_id = itertools.count(1).__next__


@dataclass(init=False)
class ConsistencyThreat:
    """One accepted (or pending) consistency threat.

    Mutable, as negotiation handlers attach application data and
    instructions to it and a store moves ``occurrences``, ``degree`` and
    ``deferred``.  Built by one Python frame: the defaults are a literal,
    a shared frozen value and a C counter, and :attr:`identity` is made
    once, here, from the two fields that define it, which nothing changes
    afterwards.
    """

    constraint_name: str
    degree: SatisfactionDegree
    context_ref: ObjectRef | None = None
    affected_refs: tuple[ObjectRef, ...] = ()
    application_data: dict[str, Any]
    instructions: ReconciliationInstructions = NO_INSTRUCTIONS
    timestamp: float = 0.0
    origin_node: str = ""
    # repr=False: threat_id is a process-global counter, and payload sizes
    # are estimated from ``repr`` — a run-dependent id width would break
    # same-seed trace equality (see repro.obs.tracing).
    threat_id: int = field(repr=False)
    occurrences: int = 1
    deferred: bool = False
    #: Two threats are identical iff they refer to the same constraint
    #: and — if applicable — the same context object (§3.2.2).
    identity: ThreatIdentity = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        constraint_name: str,
        degree: SatisfactionDegree,
        context_ref: ObjectRef | None = None,
        affected_refs: tuple[ObjectRef, ...] = (),
        application_data: dict[str, Any] | None = None,
        instructions: ReconciliationInstructions = NO_INSTRUCTIONS,
        timestamp: float = 0.0,
        origin_node: str = "",
        threat_id: int | None = None,
        occurrences: int = 1,
        deferred: bool = False,
    ) -> None:
        self.constraint_name = constraint_name
        self.degree = degree
        self.context_ref = context_ref
        self.affected_refs = affected_refs
        self.application_data = {} if application_data is None else application_data
        self.instructions = instructions
        self.timestamp = timestamp
        self.origin_node = origin_node
        self.threat_id = _next_threat_id() if threat_id is None else threat_id
        self.occurrences = occurrences
        self.deferred = deferred
        self.identity = (constraint_name, context_ref)

    def snapshot(self) -> dict[str, Any]:
        """Serializable row for the persistence layer; the fields that
        move once it is stored come from :meth:`moved_fields`."""
        return {
            "threat_id": self.threat_id,
            "constraint": self.constraint_name,
            "context": str(self.context_ref) if self.context_ref else None,
            "affected": [str(ref) for ref in self.affected_refs],
            "application_data": dict(self.application_data),
            "allow_rollback": self.instructions.allow_rollback,
            "timestamp": self.timestamp,
            "origin_node": self.origin_node,
            **self.moved_fields(),
        }

    def moved_fields(self) -> dict[str, Any]:
        """The :meth:`snapshot` fields that move once a threat is stored:
        an absorbed occurrence changes ``occurrences`` and may lower
        ``degree``, a deferral sets ``deferred``.  A row update writes all
        three, because on the in-process backends a replicated record is
        one object held by several nodes' stores, so any of them may have
        moved since this store last wrote the row."""
        return {
            "degree": self.degree._name_,  # ``name`` is an enum.py property
            "occurrences": self.occurrences,
            "deferred": self.deferred,
        }


@dataclass
class ThreatDigestEntry:
    """Compact per-identity summary exchanged during anti-entropy.

    ``record_ids`` and ``max_record_id`` carry process-global threat ids;
    repr=False keeps them out of the payload-size estimate so same-seed
    traces stay byte-identical (see repro.obs.tracing).
    """

    occurrences: int
    records: int
    record_ids: tuple[int, ...] = field(default=(), repr=False)
    max_record_id: int = field(default=0, repr=False)


class ThreatStoragePolicy(enum.Enum):
    FULL_HISTORY = "full-history"
    IDENTICAL_ONCE = "identical-once"


class ThreatStore:
    """Persistent store of accepted consistency threats on one node."""

    def __init__(
        self,
        engine: PersistenceEngine,
        policy: ThreatStoragePolicy = ThreatStoragePolicy.IDENTICAL_ONCE,
    ) -> None:
        self.engine = engine
        self.policy = policy
        self._threats: dict[ThreatIdentity, list[ConsistencyThreat]] = {}
        self._table = engine.table("consistency_threats")

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, threat: ConsistencyThreat) -> tuple[ConsistencyThreat, bool]:
        """Persist an accepted threat.

        Returns ``(stored_threat, was_new)``.  Under ``IDENTICAL_ONCE`` an
        identical existing threat absorbs the new occurrence after a
        read-only dedup check, and only its
        :meth:`~ConsistencyThreat.moved_fields` are written to its row.
        Under ``FULL_HISTORY`` every occurrence is persisted as a whole row
        of its own (cheaper per-occurrence than the initial store).  A row
        is replaced, never changed in place.
        """
        identity = threat.identity
        existing = self._threats.get(identity)
        if existing:
            if self.policy is ThreatStoragePolicy.IDENTICAL_ONCE:
                self.engine.charge("threat_dedup_check")
                head = existing[0]
                head.occurrences += 1
                # The lattice order of the two degrees, compared in C.
                if threat.degree._value_ < head.degree._value_:
                    head.degree = threat.degree
                # Rewrite what moved so the persisted row cannot go stale.
                self._table.update(head.threat_id, head.moved_fields())
                return head, False
            self.engine.charge("threat_persist_identical")
            existing.append(threat)
            self._table.put(threat.threat_id, threat.snapshot())
            return threat, True
        self.engine.charge("threat_persist")
        self._threats[identity] = [threat]
        self._table.put(threat.threat_id, threat.snapshot())
        return threat, True

    def apply_remote(self, threat: ConsistencyThreat) -> None:
        """Apply a threat replicated from another node (no re-negotiation)."""
        self.record(threat)

    # ------------------------------------------------------------------
    # the transaction's undo map
    # ------------------------------------------------------------------
    def note(self, tx: "Transaction | None", identity: ThreatIdentity) -> None:
        """Before a live transaction ``tx`` first changes ``identity`` here,
        note this store's image of it in the transaction's undo map: the
        occurrence list, the head's ``occurrences`` and ``degree`` and its
        row, or ``None`` when the store does not hold the identity."""
        if tx is None or not tx.is_active:
            return
        images = tx.undo.setdefault(self, {})
        if identity not in images:
            threats = self._threats.get(identity)
            if threats:
                head = threats[0]
                images[identity] = (
                    list(threats), head.occurrences, head.degree, self._table.peek(head.threat_id)
                )
            else:
                images[identity] = None

    def roll_back(self, images: dict[ThreatIdentity, Any]) -> None:
        """Return each identity a rolled-back transaction changed to its
        noted image; rows go back through ``Table.restore``, uncharged and
        journaled, and a row the transaction added is dropped."""
        for identity, image in images.items():
            kept_ids = {threat.threat_id for threat in image[0]} if image else set()
            for threat in self._threats.pop(identity, []):
                if threat.threat_id not in kept_ids:
                    self._table.restore(threat.threat_id, None)
            if image is not None:
                kept, occurrences, degree, row = image
                head = kept[0]
                head.occurrences, head.degree = occurrences, degree
                self._table.restore(head.threat_id, row)
                self._threats[identity] = kept

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def identities(self) -> list[ThreatIdentity]:
        return list(self._threats.keys())

    def pending(self) -> list[ConsistencyThreat]:
        """One representative threat per identity, oldest first."""
        return [threats[0] for threats in self._threats.values()]

    def occurrences_of(self, identity: ThreatIdentity) -> list[ConsistencyThreat]:
        return list(self._threats.get(identity, []))

    def count_identities(self) -> int:
        return len(self._threats)

    def stored_records(self) -> int:
        """Number of threat rows actually persisted (policy-dependent)."""
        return sum(len(threats) for threats in self._threats.values())

    def persisted_records(self) -> int:
        """Rows present in the backing table (accounting cross-check).

        Must equal :meth:`stored_records` at all times — the in-memory
        index and the persisted rows may never drift apart.
        """
        return len(self._table)

    def __contains__(self, identity: ThreatIdentity) -> bool:
        return identity in self._threats

    def digest(self) -> dict[ThreatIdentity, ThreatDigestEntry]:
        """Compact anti-entropy summary: one entry per stored identity.

        Entries are built in sorted-identity order so the digest payload is
        deterministic across same-seed runs.
        """
        summary: dict[ThreatIdentity, ThreatDigestEntry] = {}
        for identity in sorted(self._threats, key=_identity_order):
            threats = self._threats[identity]
            ids = tuple(sorted(threat.threat_id for threat in threats))
            summary[identity] = ThreatDigestEntry(
                occurrences=sum(threat.occurrences for threat in threats),
                records=len(threats),
                record_ids=ids,
                max_record_id=ids[-1],
            )
        return summary

    def missing_from(
        self, digest: Mapping[ThreatIdentity, ThreatDigestEntry]
    ) -> list[ConsistencyThreat]:
        """This store's records that a node holding ``digest`` lacks, in
        (identity, threat id) order: under ``FULL_HISTORY`` every record
        id the digest does not list, under ``IDENTICAL_ONCE`` one record
        per identity it does not know (§5.2)."""
        full_history = self.policy is ThreatStoragePolicy.FULL_HISTORY
        missing: list[ConsistencyThreat] = []
        for identity in sorted(self._threats, key=_identity_order):
            known = digest.get(identity)
            if known is not None and not full_history:
                continue
            known_ids = set(known.record_ids) if known is not None else set()
            records = [
                threat
                for threat in sorted(self._threats[identity], key=_catalog_order)
                if threat.threat_id not in known_ids
            ]
            missing.extend(records if full_history else records[:1])
        return missing

    def apply_synced(self, records: Iterable[ConsistencyThreat]) -> int:
        """Apply records peers found this store lacks, each once (per
        record id under ``FULL_HISTORY``, per identity otherwise) and in
        (identity, threat id) order, charging ``threat_sync_record`` per
        record; returns how many were applied."""
        full_history = self.policy is ThreatStoragePolicy.FULL_HISTORY
        seen: set[Any] = set()
        for threat in sorted(records, key=_catalog_order):
            key = threat.threat_id if full_history else threat.identity
            if key not in seen:
                seen.add(key)
                self.engine.charge("threat_sync_record")
                self.record(threat)
        return len(seen)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def remove(self, identity: ThreatIdentity) -> int:
        """Remove a threat and all identical threats (§3.3).

        Returns the number of persisted records removed.
        """
        threats = self._threats.pop(identity, [])
        for threat in threats:
            if threat.threat_id in self._table:
                self._table.delete(threat.threat_id)
        return len(threats)

    def mark_deferred(self, identity: ThreatIdentity) -> None:
        """Record the application's deferred-reconciliation decision
        persistently (§4.4)."""
        threats = self._threats.get(identity)
        if not threats:
            raise KeyError(f"no threat {identity!r}")
        for threat in threats:
            threat.deferred = True
            self._table.update(threat.threat_id, threat.moved_fields())

    def clear(self) -> None:
        self._threats.clear()
        self._table.clear()

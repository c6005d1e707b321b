"""Tests for consistency threats and the persistent threat store."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    ConsistencyThreat,
    ReconciliationInstructions,
    SatisfactionDegree,
    ThreatStoragePolicy,
    ThreatStore,
)
from repro.objects import ObjectRef
from repro.persistence import PersistenceEngine
from repro.sim import SimClock
from repro.tx import TransactionManager

REF = ObjectRef("Flight", "LH1")
OTHER = ObjectRef("Flight", "LH2")


def make_threat(
    constraint="TicketConstraint", ref=REF, degree=SatisfactionDegree.POSSIBLY_SATISFIED, data=False
):
    if not data:
        return ConsistencyThreat(constraint_name=constraint, degree=degree, context_ref=ref)
    # A row with a list and a dict one level down, like the middleware's.
    return ConsistencyThreat(
        constraint_name=constraint,
        degree=degree,
        context_ref=ref,
        affected_refs=(REF, OTHER),
        application_data={"seats": [1, 2], "flight": str(ref)},
    )


#: ``(action, identity, degree)`` steps over two constraints and three
#: contexts; a later occurrence may carry a lower degree than the stored one.
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["record", "record", "sync", "defer", "remove"]),
        st.tuples(st.sampled_from(["TicketConstraint", "Seats"]), st.sampled_from([REF, OTHER, None])),
        st.sampled_from(list(SatisfactionDegree)),
    ),
    max_size=25,
)


@pytest.fixture
def engine():
    return PersistenceEngine(SimClock())


class TestThreatIdentity:
    def test_identity_combines_constraint_and_context(self):
        assert make_threat().identity == ("TicketConstraint", REF)

    def test_same_constraint_same_context_identical(self):
        assert make_threat().identity == make_threat().identity

    def test_different_context_not_identical(self):
        assert make_threat(ref=REF).identity != make_threat(ref=OTHER).identity

    def test_query_constraint_identity_without_context(self):
        threat = make_threat(ref=None)
        assert threat.identity == ("TicketConstraint", None)

    def test_snapshot_serializable(self):
        threat = make_threat()
        snapshot = threat.snapshot()
        assert snapshot["constraint"] == "TicketConstraint"
        assert snapshot["degree"] == "POSSIBLY_SATISFIED"
        assert snapshot["context"] == "Flight#LH1"

    def test_threat_ids_unique(self):
        assert make_threat().threat_id != make_threat().threat_id

    def test_default_instructions(self):
        instructions = ReconciliationInstructions()
        assert not instructions.allow_rollback
        assert not instructions.notify_on_replica_conflict


class TestIdenticalOncePolicy:
    def test_first_occurrence_is_new(self, engine):
        store = ThreatStore(engine, ThreatStoragePolicy.IDENTICAL_ONCE)
        stored, was_new = store.record(make_threat())
        assert was_new
        assert store.count_identities() == 1

    def test_identical_absorbed(self, engine):
        store = ThreatStore(engine, ThreatStoragePolicy.IDENTICAL_ONCE)
        store.record(make_threat())
        stored, was_new = store.record(make_threat())
        assert not was_new
        assert stored.occurrences == 2
        assert store.stored_records() == 1
        assert sum(t.occurrences for t in store.occurrences_of(stored.identity)) == 2

    def test_identical_uses_cheap_dedup_check(self, engine):
        store = ThreatStore(engine, ThreatStoragePolicy.IDENTICAL_ONCE)
        store.record(make_threat())
        before = dict(engine.ledger.counts)
        store.record(make_threat())
        after = engine.ledger.counts
        assert after.get("threat_dedup_check", 0) == before.get("threat_dedup_check", 0) + 1
        assert after.get("threat_persist", 0) == before.get("threat_persist", 0)

    def test_worst_degree_kept(self, engine):
        store = ThreatStore(engine, ThreatStoragePolicy.IDENTICAL_ONCE)
        store.record(make_threat(degree=SatisfactionDegree.POSSIBLY_SATISFIED))
        stored, _ = store.record(make_threat(degree=SatisfactionDegree.POSSIBLY_VIOLATED))
        assert stored.degree is SatisfactionDegree.POSSIBLY_VIOLATED

    def test_different_contexts_stored_separately(self, engine):
        store = ThreatStore(engine, ThreatStoragePolicy.IDENTICAL_ONCE)
        store.record(make_threat(ref=REF))
        store.record(make_threat(ref=OTHER))
        assert store.count_identities() == 2

    def test_absorbed_occurrence_refreshes_persisted_row(self, engine):
        # Absorbing an identical threat mutates the in-memory head record;
        # the persisted row must be rewritten or a recovering node would
        # read back occurrences == 1.
        store = ThreatStore(engine, ThreatStoragePolicy.IDENTICAL_ONCE)
        head, _ = store.record(make_threat())
        store.record(make_threat(degree=SatisfactionDegree.POSSIBLY_VIOLATED))
        row = store._table.get(head.threat_id)
        assert row["occurrences"] == 2
        assert row["degree"] == "POSSIBLY_VIOLATED"


class TestFullHistoryPolicy:
    def test_every_occurrence_persisted(self, engine):
        store = ThreatStore(engine, ThreatStoragePolicy.FULL_HISTORY)
        store.record(make_threat())
        store.record(make_threat())
        store.record(make_threat())
        assert store.count_identities() == 1
        assert store.stored_records() == 3

    def test_identical_cheaper_than_initial(self, engine):
        # §5.2: three DB objects initially, two per additional identical
        # threat — modelled as threat_persist vs threat_persist_identical.
        store = ThreatStore(engine, ThreatStoragePolicy.FULL_HISTORY)
        store.record(make_threat())
        store.record(make_threat())
        assert engine.ledger.counts["threat_persist"] == 1
        assert engine.ledger.counts["threat_persist_identical"] == 1


class TestResolution:
    def test_remove_deletes_all_identical(self, engine):
        store = ThreatStore(engine, ThreatStoragePolicy.FULL_HISTORY)
        store.record(make_threat())
        store.record(make_threat())
        removed = store.remove(("TicketConstraint", REF))
        assert removed == 2
        assert store.count_identities() == 0
        assert len(engine.table("consistency_threats")) == 0

    def test_remove_missing_is_zero(self, engine):
        store = ThreatStore(engine)
        assert store.remove(("Ghost", None)) == 0

    def test_pending_returns_representatives(self, engine):
        store = ThreatStore(engine)
        store.record(make_threat(ref=REF))
        store.record(make_threat(ref=OTHER))
        assert len(store.pending()) == 2

    def test_mark_deferred(self, engine):
        store = ThreatStore(engine)
        store.record(make_threat())
        store.mark_deferred(("TicketConstraint", REF))
        assert store.pending()[0].deferred

    def test_mark_deferred_persists_every_row(self, engine):
        # FULL_HISTORY keeps one record per occurrence; deferring the
        # identity must flip the flag on every persisted row, not just the
        # head, so a restart cannot resurrect half-deferred history.
        store = ThreatStore(engine, ThreatStoragePolicy.FULL_HISTORY)
        first, _ = store.record(make_threat())
        second, _ = store.record(make_threat())
        store.mark_deferred(("TicketConstraint", REF))
        for threat_id in (first.threat_id, second.threat_id):
            row = store._table.get(threat_id)
            assert row["deferred"] is True

    def test_mark_deferred_missing_raises(self, engine):
        store = ThreatStore(engine)
        with pytest.raises(KeyError):
            store.mark_deferred(("Ghost", None))

    def test_contains(self, engine):
        store = ThreatStore(engine)
        store.record(make_threat())
        assert ("TicketConstraint", REF) in store
        assert ("Other", REF) not in store

    def test_clear(self, engine):
        store = ThreatStore(engine)
        store.record(make_threat())
        store.clear()
        assert store.count_identities() == 0

    def test_apply_remote_records(self, engine):
        store = ThreatStore(engine)
        store.apply_remote(make_threat())
        assert store.count_identities() == 1

    @pytest.mark.parametrize("deferred_first", [True, False], ids=["defer-then-absorb", "absorb-then-defer"])
    def test_a_shared_record_row_is_whole_after_each_write(self, deferred_first):
        """A replicated threat is one object held by several stores, so
        when one store writes its row, fields another store moved must be
        written too: a deferral on A, then a lower-degree absorb on B, must
        leave B's row with ``deferred`` set, and the reverse order must leave
        A's row with B's occurrence count and degree."""
        a = ThreatStore(PersistenceEngine(SimClock()))
        b = ThreatStore(PersistenceEngine(SimClock()))
        threat = make_threat(degree=SatisfactionDegree.POSSIBLY_VIOLATED)
        a.apply_remote(threat)
        b.apply_remote(threat)
        defer = (a, lambda: a.mark_deferred(threat.identity))
        absorb = (b, lambda: b.record(make_threat(degree=SatisfactionDegree.VIOLATED)))
        for store, write in [defer, absorb] if deferred_first else [absorb, defer]:
            write()
            assert store._table.get(threat.threat_id) == threat.snapshot()
        assert (threat.deferred, threat.occurrences, threat.degree) == (True, 2, SatisfactionDegree.VIOLATED)

    @pytest.mark.parametrize("policy", list(ThreatStoragePolicy), ids=lambda policy: policy.name)
    @given(steps=STEPS)
    def test_persisted_rows_match(self, policy, steps):
        """Whatever the store went through, each persisted row is its
        threat's snapshot and the table holds exactly the stored records."""
        store = ThreatStore(PersistenceEngine(SimClock()), policy)
        for action, identity, degree in steps:
            constraint, ref = identity
            if action == "record":
                store.record(make_threat(constraint, ref, degree, data=True))
            elif action == "sync":
                store.apply_synced([make_threat(constraint, ref, degree, data=True)])
            elif action == "defer" and identity in store:
                store.mark_deferred(identity)
            elif action == "remove":
                store.remove(identity)
            for known in store.identities():
                for threat in store.occurrences_of(known):
                    assert store._table.get(threat.threat_id) == threat.snapshot()
            assert store.persisted_records() == store.stored_records()


class TestDigest:
    def test_digest_summarises_per_identity(self, engine):
        store = ThreatStore(engine, ThreatStoragePolicy.FULL_HISTORY)
        store.record(make_threat())
        store.record(make_threat())
        store.record(make_threat(ref=OTHER))
        digest = store.digest()
        assert set(digest) == {("TicketConstraint", REF), ("TicketConstraint", OTHER)}
        entry = digest[("TicketConstraint", REF)]
        assert entry.records == 2
        assert entry.occurrences == 2
        assert len(entry.record_ids) == 2
        assert entry.max_record_id == max(entry.record_ids)

    def test_digest_order_deterministic(self, engine):
        first = ThreatStore(engine, ThreatStoragePolicy.FULL_HISTORY)
        second = ThreatStore(engine, ThreatStoragePolicy.FULL_HISTORY)
        for ref in (OTHER, REF):
            first.record(make_threat(ref=ref))
        for ref in (REF, OTHER):
            second.record(make_threat(ref=ref))
        assert list(first.digest()) == list(second.digest())

    def test_empty_store_digest_empty(self, engine):
        store = ThreatStore(engine)
        assert store.digest() == {}


class TestAntiEntropy:
    """``missing_from`` answers what a peer with a given digest lacks;
    ``apply_synced`` applies what peers offered, each record once."""

    def _full_history_pair(self, engine):
        ours = ThreatStore(engine, ThreatStoragePolicy.FULL_HISTORY)
        shared = make_threat()
        ours.record(shared)
        extra = make_threat()
        ours.record(extra)
        other = make_threat(ref=OTHER)
        ours.record(other)
        peer = ThreatStore(engine, ThreatStoragePolicy.FULL_HISTORY)
        peer.record(shared)
        return ours, peer, extra, other

    def test_full_history_misses_every_unknown_record_id(self, engine):
        ours, peer, extra, other = self._full_history_pair(engine)
        assert ours.missing_from(peer.digest()) == [extra, other]
        assert ours.missing_from(ours.digest()) == []

    def test_identical_once_misses_one_record_per_unknown_identity(self, engine):
        ours = ThreatStore(engine)
        ours.record(make_threat(ref=OTHER))
        head, _ = ours.record(make_threat())
        ours.record(make_threat())  # absorbed by head
        peer = ThreatStore(engine)
        peer.record(make_threat(ref=OTHER))  # a different record, same identity
        assert ours.missing_from(peer.digest()) == [head]

    def test_apply_synced_applies_each_record_once_in_catalog_order(self, engine):
        ours, peer, extra, other = self._full_history_pair(engine)
        fresh = ThreatStore(engine, ThreatStoragePolicy.FULL_HISTORY)
        offered = ours.missing_from(fresh.digest())
        before = engine.ledger.counts.get("threat_sync_record", 0)
        assert fresh.apply_synced(list(reversed(offered)) + offered) == 3
        assert engine.ledger.counts["threat_sync_record"] - before == 3
        assert [threat.identity for threat in fresh.pending()] == [
            ("TicketConstraint", REF),
            ("TicketConstraint", OTHER),
        ]
        assert fresh.missing_from(ours.digest()) == []

    def test_identical_once_keeps_the_lowest_record_per_identity(self, engine):
        first, second = make_threat(), make_threat()
        store = ThreatStore(engine)
        assert store.apply_synced([second, first]) == 1
        assert store.pending() == [first]


class TestTransactionUndo:
    """A store notes its image of an identity in the transaction's undo
    map before the transaction first changes it; rollback puts the image
    back, uncharged and journaled."""

    @staticmethod
    def rows(store):
        table = store.engine.table("consistency_threats")
        return {key: table.peek(key) for key in table.keys()}

    @staticmethod
    def rolled_back(store, *threats):
        """Record ``threats`` in one transaction, then roll it back;
        returns whether the rollback booked no charge, and the operations
        of the journal entries it added."""
        txmgr = TransactionManager()
        tx = txmgr.begin()
        for threat in threats:
            store.note(tx, threat.identity)
            store.record(threat)
        charges = dict(store.engine.ledger.counts)
        journal = store.engine.journal()
        journaled = len(journal)
        txmgr.rollback(tx)
        added = [journal[index].operation for index in range(journaled, len(journal))]
        return dict(store.engine.ledger.counts) == charges, added

    def test_a_new_identity_is_dropped_with_its_row(self, engine):
        store = ThreatStore(engine)
        uncharged, journaled = self.rolled_back(store, make_threat(), make_threat())
        assert store.count_identities() == 0
        assert self.rows(store) == {}
        assert uncharged and journaled == ["restore"]

    def test_an_absorbed_occurrence_restores_the_head_and_its_row(self, engine):
        store = ThreatStore(engine)
        head, _ = store.record(make_threat(degree=SatisfactionDegree.POSSIBLY_SATISFIED))
        before = self.rows(store)
        uncharged, journaled = self.rolled_back(
            store, make_threat(degree=SatisfactionDegree.POSSIBLY_VIOLATED), make_threat()
        )
        assert store.pending() == [head]
        assert (head.occurrences, head.degree) == (1, SatisfactionDegree.POSSIBLY_SATISFIED)
        assert self.rows(store) == before
        assert uncharged and journaled == ["restore"]

    def test_a_full_history_occurrence_drops_only_its_own_row(self, engine):
        store = ThreatStore(engine, ThreatStoragePolicy.FULL_HISTORY)
        first, _ = store.record(make_threat())
        before = self.rows(store)
        uncharged, journaled = self.rolled_back(store, make_threat(), make_threat())
        assert store.occurrences_of(first.identity) == [first]
        assert self.rows(store) == before
        assert store.persisted_records() == store.stored_records() == 1
        # Two rows dropped, and the kept head's row put back.
        assert uncharged and journaled == ["restore"] * 3

    def test_only_the_identities_the_transaction_changed_move(self, engine):
        store = ThreatStore(engine)
        kept, _ = store.record(make_threat(ref=OTHER))
        self.rolled_back(store, make_threat())
        assert store.pending() == [kept]
        assert kept.occurrences == 1

    def test_the_first_image_in_a_transaction_is_the_one_kept(self, engine):
        store = ThreatStore(engine)
        txmgr = TransactionManager()
        tx = txmgr.begin()
        store.note(tx, make_threat().identity)
        store.record(make_threat())
        store.note(tx, make_threat().identity)  # the store holds it now
        assert tx.undo[store] == {make_threat().identity: None}

    def test_nothing_is_noted_outside_a_live_transaction(self, engine):
        store = ThreatStore(engine)
        store.note(None, make_threat().identity)
        txmgr = TransactionManager()
        tx = txmgr.begin()
        txmgr.commit(tx)
        store.note(tx, make_threat().identity)
        assert tx.undo is None

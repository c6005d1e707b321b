"""Tests for transactions and two-phase commit."""

import pytest

from repro.tx import (
    Transaction,
    TransactionManager,
    TransactionRolledBack,
    TransactionStatus,
)


class RecordingResource:
    """A transactional resource that records its lifecycle calls."""

    def __init__(self, vote=True):
        self.vote = vote
        self.events = []

    def prepare(self, tx):
        self.events.append("prepare")
        return self.vote

    def commit(self, tx):
        self.events.append("commit")

    def rollback(self, tx):
        self.events.append("rollback")


@pytest.fixture
def txmgr():
    return TransactionManager()


class TestLifecycle:
    def test_begin_returns_active_transaction(self, txmgr):
        tx = txmgr.begin()
        assert tx.status is TransactionStatus.ACTIVE
        assert txmgr.current is tx

    def test_commit_completes(self, txmgr):
        tx = txmgr.begin()
        txmgr.commit(tx)
        assert tx.status is TransactionStatus.COMMITTED
        assert txmgr.current is None
        assert txmgr.committed_count == 1

    def test_rollback_completes(self, txmgr):
        tx = txmgr.begin()
        txmgr.rollback(tx)
        assert tx.status is TransactionStatus.ROLLED_BACK
        assert txmgr.rolled_back_count == 1

    def test_cannot_begin_while_active(self, txmgr):
        txmgr.begin()
        with pytest.raises(RuntimeError):
            txmgr.begin()

    def test_commit_requires_current(self, txmgr):
        tx = txmgr.begin()
        txmgr.commit(tx)
        with pytest.raises(RuntimeError):
            txmgr.commit(tx)


class TestTwoPhaseCommit:
    def test_resources_prepared_then_committed(self, txmgr):
        resource = RecordingResource()
        tx = txmgr.begin()
        tx.enlist(resource)
        txmgr.commit(tx)
        assert resource.events == ["prepare", "commit"]

    def test_veto_rolls_back(self, txmgr):
        good = RecordingResource()
        bad = RecordingResource(vote=False)
        tx = txmgr.begin()
        tx.enlist(good)
        tx.enlist(bad)
        with pytest.raises(TransactionRolledBack):
            txmgr.commit(tx)
        assert tx.status is TransactionStatus.ROLLED_BACK
        assert "rollback" in good.events
        assert "commit" not in good.events

    def test_duplicate_enlist_ignored(self, txmgr):
        resource = RecordingResource()
        tx = txmgr.begin()
        tx.enlist(resource)
        tx.enlist(resource)
        txmgr.commit(tx)
        assert resource.events == ["prepare", "commit"]

    def test_rollback_only_prevents_commit(self, txmgr):
        tx = txmgr.begin()
        tx.set_rollback_only("constraint violated")
        with pytest.raises(TransactionRolledBack) as exc_info:
            txmgr.commit(tx)
        assert "constraint violated" in str(exc_info.value)

    def test_rollback_only_during_prepare(self, txmgr):
        """A resource marking rollback-only during prepare vetoes commit."""

        class MarkingResource(RecordingResource):
            def prepare(self, tx):
                tx.set_rollback_only("soft constraint violated")
                return False

        tx = txmgr.begin()
        tx.enlist(MarkingResource())
        with pytest.raises(TransactionRolledBack):
            txmgr.commit(tx)


class Restorable:
    """An object in a transaction's undo map: rollback hands its image
    back to ``roll_back``."""

    def __init__(self, handed_back):
        self.handed_back = handed_back

    def roll_back(self, image):
        self.handed_back.append(image)


class TestUndoMap:
    def test_entries_are_handed_back_newest_first(self, txmgr):
        handed_back = []
        tx = txmgr.begin()
        tx.undo[Restorable(handed_back)] = 1
        tx.undo[Restorable(handed_back)] = 2
        txmgr.rollback(tx)
        assert handed_back == [2, 1]

    def test_nothing_is_handed_back_on_commit(self, txmgr):
        handed_back = []
        tx = txmgr.begin()
        tx.undo[Restorable(handed_back)] = 1
        txmgr.commit(tx)
        assert handed_back == []

    def test_entries_are_handed_back_when_prepare_vetoes(self, txmgr):
        handed_back = []
        tx = txmgr.begin()
        tx.undo[Restorable(handed_back)] = 1
        tx.enlist(RecordingResource(vote=False))
        with pytest.raises(TransactionRolledBack):
            txmgr.commit(tx)
        assert handed_back == [1]

    def test_an_inactive_transaction_refuses_an_entry(self, txmgr):
        tx = txmgr.begin()
        txmgr.commit(tx)
        with pytest.raises(TypeError):
            tx.undo[Restorable([])] = 1


class TestRunHelper:
    def test_run_commits_on_success(self, txmgr):
        result = txmgr.run(lambda tx: 42)
        assert result == 42
        assert txmgr.committed_count == 1

    def test_run_rolls_back_on_exception(self, txmgr):
        undone = []

        def body(tx):
            tx.undo[Restorable(undone)] = 1
            raise ValueError("boom")

        with pytest.raises(ValueError):
            txmgr.run(body)
        assert undone == [1]
        assert txmgr.rolled_back_count == 1
        assert txmgr.current is None

    def test_run_propagates_rollback_only(self, txmgr):
        def body(tx):
            tx.set_rollback_only("nope")
            return "ignored"

        with pytest.raises(TransactionRolledBack):
            txmgr.run(body)

    def test_context_dict_available(self, txmgr):
        def body(tx):
            tx.context["k"] = "v"
            return tx.context["k"]

        assert txmgr.run(body) == "v"

    def test_transaction_ids_unique(self, txmgr):
        first = txmgr.run(lambda tx: tx.txid)
        second = txmgr.run(lambda tx: tx.txid)
        assert first != second

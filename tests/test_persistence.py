"""Tests for the journaled persistence engine and state history."""

from collections import Counter

import pytest

from repro.persistence import Journal, PersistenceEngine, StateHistory
from repro.persistence.store import JOURNAL_TAIL
from repro.sim import SimClock

from conftest import history_entries


@pytest.fixture
def engine():
    return PersistenceEngine(SimClock())


class TestTables:
    def test_insert_and_get(self, engine):
        table = engine.table("t")
        table.insert("k", {"v": 1})
        assert table.get("k") == {"v": 1}

    def test_insert_duplicate_rejected(self, engine):
        table = engine.table("t")
        table.insert("k", 1)
        with pytest.raises(KeyError):
            table.insert("k", 2)

    def test_put_overwrites(self, engine):
        table = engine.table("t")
        table.put("k", 1)
        table.put("k", 2)
        assert table.get("k") == 2

    def test_get_missing_raises(self, engine):
        with pytest.raises(KeyError):
            engine.table("t").get("missing")

    def test_delete(self, engine):
        table = engine.table("t")
        table.put("k", 1)
        table.delete("k")
        assert "k" not in table

    def test_delete_missing_raises(self, engine):
        with pytest.raises(KeyError):
            engine.table("t").delete("missing")

    def test_value_semantics_on_write(self, engine):
        table = engine.table("t")
        value = {"list": [1]}
        table.put("k", value)
        value["list"].append(2)
        assert table.get("k") == {"list": [1]}

    def test_value_semantics_on_read(self, engine):
        table = engine.table("t")
        table.put("k", {"list": [1]})
        read = table.get("k")
        read["list"].append(2)
        assert table.get("k") == {"list": [1]}

    def test_scan_snapshot(self, engine):
        table = engine.table("t")
        table.put("a", 1)
        table.put("b", 2)
        assert dict(table.scan()) == {"a": 1, "b": 2}

    def test_len_and_keys(self, engine):
        table = engine.table("t")
        table.put("a", 1)
        assert len(table) == 1
        assert table.keys() == ["a"]

    def test_same_table_returned(self, engine):
        assert engine.table("x") is engine.table("x")

    def test_clear(self, engine):
        table = engine.table("t")
        table.put("a", 1)
        table.clear()
        assert len(table) == 0


class TestUpdate:
    """``update`` is SQL ``UPDATE … SET``: one charge, a new row with the
    changes applied, and the ``put`` entry writing that row would journal."""

    ROW = {"occurrences": 1, "degree": "POSSIBLY_SATISFIED", "affected": ["a"]}

    def test_charges_one_db_write(self, engine):
        table = engine.table("t")
        table.put("k", self.ROW)
        counts, before = Counter(engine.ledger.counts), engine.clock.now
        table.update("k", {"occurrences": 2})
        assert Counter(engine.ledger.counts) - counts == {"db_write": 1}
        assert engine.clock.now == before + engine.costs.db_write

    def test_stores_the_old_row_with_the_changes_applied(self, engine):
        table = engine.table("t")
        table.put("k", self.ROW)
        table.update("k", {"occurrences": 2, "deferred": True})
        assert table.get("k") == {**self.ROW, "occurrences": 2, "deferred": True}

    def test_value_semantics(self, engine):
        table = engine.table("t")
        table.put("k", self.ROW)
        changes = {"affected": ["a", "b"]}
        table.update("k", changes)
        changes["affected"].append("c")
        changes["occurrences"] = 9
        table.get("k")["affected"].append("d")
        assert table.get("k") == {**self.ROW, "affected": ["a", "b"]}
        assert self.ROW["affected"] == ["a"]

    def test_journals_one_put_of_the_new_row(self, engine):
        table = engine.table("t")
        table.put("k", self.ROW)
        recorded = len(engine.journal())
        table.update("k", {"occurrences": 2})
        assert len(engine.journal()) == recorded + 1
        entry = engine.journal()[-1]
        assert (entry.table, entry.operation, entry.key) == ("t", "put", "k")
        assert entry.value == table.get("k") == {**self.ROW, "occurrences": 2}

    def test_missing_key_raises_with_nothing_charged_or_journaled(self, engine):
        table = engine.table("t")
        table.put("other", self.ROW)
        recorded, before = len(engine.journal()), engine.clock.now
        counts = dict(engine.ledger.counts)
        with pytest.raises(KeyError):
            table.update("missing", {"occurrences": 2})
        assert engine.clock.now == before
        assert dict(engine.ledger.counts) == counts
        assert len(engine.journal()) == recorded
        assert "missing" not in table


class TestCostsAndJournal:
    def test_access_advances_clock(self, engine):
        table = engine.table("t")
        before = engine.clock.now
        table.put("k", 1)
        assert engine.clock.now == before + engine.costs.db_write

    def test_insert_charges_create(self, engine):
        before = engine.clock.now
        engine.table("t").insert("k", 1)
        assert engine.clock.now == before + engine.costs.db_create

    def test_read_charges_read(self, engine):
        table = engine.table("t")
        table.put("k", 1)
        before = engine.clock.now
        table.get("k")
        assert engine.clock.now == before + engine.costs.db_read

    def test_delete_charges_delete(self, engine):
        table = engine.table("t")
        table.put("k", 1)
        counts, before = Counter(engine.ledger.counts), engine.clock.now
        table.delete("k")
        assert Counter(engine.ledger.counts) - counts == {"db_delete": 1}
        assert engine.clock.now == before + engine.costs.db_delete

    def test_scan_charges_one_read_for_all_rows(self, engine):
        table = engine.table("t")
        for key in range(3):
            table.put(key, key)
        counts, before = Counter(engine.ledger.counts), engine.clock.now
        assert list(table.scan()) == [(0, 0), (1, 1), (2, 2)]
        assert Counter(engine.ledger.counts) - counts == {"db_read": 1}
        assert engine.clock.now == before + engine.costs.db_read

    def test_journal_records_mutations(self, engine):
        table = engine.table("t")
        table.insert("k", 1)
        table.put("k", 2)
        table.delete("k")
        operations = [(e.table, e.operation) for e in engine.journal()]
        assert operations == [("t", "insert"), ("t", "put"), ("t", "delete")]

    def test_journal_sequence_monotonic(self, engine):
        table = engine.table("t")
        table.put("a", 1)
        table.put("b", 2)
        sequences = [e.sequence for e in engine.journal()]
        assert sequences == sorted(sequences)

    @pytest.mark.parametrize("write", ["insert", "put"])
    def test_journal_does_not_alias_the_callers_value(self, engine, write):
        table = engine.table("t")
        value = {"sold": 1}
        getattr(table, write)("k", value)
        value["sold"] = 2
        assert table.get("k") == {"sold": 1}
        assert engine.journal()[-1].value == {"sold": 1}

    def test_journal_keeps_each_put_of_a_reused_object(self, engine):
        table = engine.table("t")
        value = {"items": ["a"]}
        table.put("k", value)
        value["items"].append("b")
        table.put("k", value)
        assert [e.value for e in engine.journal()] == [
            {"items": ["a"]},
            {"items": ["a", "b"]},
        ]

    def test_journal_counts_everything_and_keeps_a_short_tail(self, engine):
        table = engine.table("t")
        total = JOURNAL_TAIL + 5
        for index in range(total):
            table.put("k", index)
        journal = engine.journal()
        assert isinstance(journal, Journal) and journal is engine.journal()  # not a copy
        assert len(journal) == total
        kept = list(journal)
        assert [e.sequence for e in kept] == list(range(6, total + 1))
        assert [e.value for e in kept] == list(range(5, total))
        assert journal[-1] is kept[-1] and journal[-1].sequence == len(journal)
        assert journal[total - 1] is kept[-1] and journal[5] is kept[0]
        for gone in (0, 4, -total, -JOURNAL_TAIL - 1, total):
            with pytest.raises(IndexError):
                journal[gone]

    def test_journal_entries_are_immutable(self, engine):
        engine.table("t").put("k", 1)
        entry = engine.journal()[-1]
        for field in ("sequence", "timestamp", "table", "operation", "key", "value"):
            with pytest.raises(AttributeError):
                setattr(entry, field, None)
        assert entry.value == 1

    def test_charge_unknown_category_raises(self, engine):
        with pytest.raises(AttributeError):
            engine.charge("not_a_cost")

    def test_ledger_tracks_categories(self, engine):
        engine.table("t").put("k", 1)
        assert engine.ledger.counts["db_write"] == 1


class TestStateHistory:
    def test_versions_in_order(self, engine):
        history = StateHistory(engine)
        history.record("obj", 1, {"x": 1})
        history.record("obj", 2, {"x": 2})
        assert [v.version for v in history.versions_of("obj")] == [1, 2]

    def test_record_charges_history_cost(self, engine):
        history = StateHistory(engine)
        before = engine.clock.now
        history.record("obj", 1, {})
        assert engine.clock.now == before + engine.costs.state_history_write

    def test_record_keeps_the_snapshot_it_is_handed(self, engine):
        """The caller hands over a snapshot nobody changes (a degraded
        write's ``Entity.state()``), so the history takes no second copy;
        ``test_replication.py`` holds that the entity's later writes leave
        the entry alone."""
        history = StateHistory(engine)
        state = {"x": [1]}
        history.record("obj", 1, state)
        assert history.versions_of("obj")[-1].state is state

    def test_prune_one_object(self, engine):
        history = StateHistory(engine)
        history.record("a", 1, {})
        history.record("b", 1, {})
        assert history.prune("a") == 1
        assert history.versions_of("a") == []
        assert history_entries(history) == 1

    def test_timestamps_recorded(self, engine):
        history = StateHistory(engine)
        entry = history.record("obj", 1, {})
        assert entry.timestamp == engine.clock.now

"""The process driver's merge step over hand-built ``state-dump`` answers.

``merge_dumps`` picks one copy per lineage and leaves the arithmetic to
the flight domain's ``AdditiveSoldMerge`` (§1.3: baseline plus every
partition's delta).  Each case here would need a particular interleaving
of kills and stalls on real processes; as data it runs in microseconds.
"""

from repro.transport.proccluster import merge_dumps

KEY = "Flight|K9"


def replica(sold, version, mirror_of=None, seats=80):
    return {
        "cls": "Flight",
        "oid": "K9",
        "state": {"flight_number": "K9", "seats": seats, "sold": sold},
        "version": version,
        "mirror_of": mirror_of,
    }


def dump(entry, temp_primary=False):
    return {"ok": True, "objects": {KEY: entry}, "temp_primary": temp_primary}


def test_one_lineage_counts_once_however_many_replicas_mirror_it():
    dumps = {
        "a": dump(replica(75, 6)),
        "b": dump(replica(75, 6, mirror_of="a")),
        "c": dump(replica(75, 6, mirror_of="a")),
    }
    merged = merge_dumps(dumps, "a", {KEY: 70})
    assert merged == {
        KEY: {
            "cls": "Flight",
            "oid": "K9",
            "state": {"flight_number": "K9", "seats": 80, "sold": 75},
            "version": 7,
        }
    }


def test_two_temporary_primary_lineages_add_their_deltas():
    # The designated primary is gone; b and c lost each other too and
    # each promoted itself: 70 + 5 + 3.
    dumps = {"b": dump(replica(75, 6), temp_primary=True), "c": dump(replica(73, 4), temp_primary=True)}
    merged = merge_dumps(dumps, "a", {KEY: 70})
    assert merged[KEY]["state"]["sold"] == 78
    assert merged[KEY]["version"] == 7


def test_a_copy_mirroring_another_counted_holder_is_excluded():
    # c promoted itself after a slow answer but kept mirroring a's frames,
    # so its 75 is a's delta again, not a second partition's.
    dumps = {
        "a": dump(replica(75, 6)),
        "b": dump(replica(75, 6, mirror_of="a")),
        "c": dump(replica(75, 6, mirror_of="a"), temp_primary=True),
    }
    assert merge_dumps(dumps, "a", {KEY: 70})[KEY]["state"]["sold"] == 75
    # Its own sale afterwards makes it a lineage of its own.
    dumps["c"] = dump(replica(77, 7), temp_primary=True)
    assert merge_dumps(dumps, "a", {KEY: 70})[KEY]["state"]["sold"] == 82


def test_a_key_without_a_baseline_is_last_writer_wins():
    dumps = {
        "a": dump(replica(75, 6, seats=80)),
        "c": dump(replica(73, 9, seats=90), temp_primary=True),
    }
    merged = merge_dumps(dumps, "a", {})
    assert merged[KEY]["state"] == {"flight_number": "K9", "seats": 90, "sold": 73}
    assert merged[KEY]["version"] == 10

"""The canonical observability vocabulary: what the middleware records.

Every trace-event type the middleware emits lives here, with a one-line
description and the keyword fields each emit of it carries.  The trace is
the only instrument — a count is a count of events, by type or by a
field — so this table is the single decision of what gets recorded:

* :data:`~repro.obs.tracing.EVENT_TYPES` is derived from
  :data:`TRACE_EVENTS`, so the tracer and the registry cannot drift;
* ``tests/test_obs_vocabulary.py`` reads every ``emit()`` call site under
  ``src/repro`` and holds it to this table (a literal, registered type
  with exactly its fields; no entry nothing emits), and holds the event
  table of ``docs/TUTORIAL.md`` to its names and descriptions.

Applications may emit their own event types on top of this vocabulary;
the middleware itself sticks to the registered names.
"""

from __future__ import annotations

#: Trace-event types, by name: ``(description, keyword fields)``, the
#: fields space-separated.  Events are emitted via
#: ``obs.emit("<type>", node=..., **data)`` and stamped with simulated
#: time; the stream of a run is a deterministic function of the scenario.
TRACE_EVENTS: dict[str, tuple[str, str]] = {
    # invocation / validation pipeline
    "invocation": (
        "an intercepted method invocation completed, with outcome",
        "latency method node outcome ref",
    ),
    "validation": (
        "one constraint validation, with satisfaction degree",
        "category constraint degree node stale unreachable",
    ),
    "threat": (
        "a consistency threat was recorded, accepted, or resolved",
        "action constraint degree mechanism node",
    ),
    "repository_dispatch": (
        "the compiled constraint dispatch table was rebuilt",
        "methods registrations",
    ),
    # replication service
    "replication_update": (
        "a primary-to-backup update round (create/state/delete)",
        "degraded kind node ref version",
    ),
    "replication_conflict": (
        "a write-write replica conflict was detected",
        "candidates chosen_node ref",
    ),
    "primary_promotion": (
        "a temporary primary was promoted in a partition",
        "node protocol",
    ),
    # membership
    "view_change": ("a node installed a new membership view", "joined left members node"),
    "suspicion": (
        "the failure detector raised or cleared a suspicion",
        "node subject suspected",
    ),
    # network
    "message_send": ("a point-to-point message was delivered", "bytes destination kind node"),
    "message_drop": (
        "a message was dropped (partition, crash, or fault)",
        "destination kind node reason",
    ),
    "multicast": (
        "a group multicast round reached its recipients",
        "await_acks bytes kind node recipients",
    ),
    "topology_change": (
        "the reachability topology changed (partition/heal/crash)",
        "crashed failed_links partitions",
    ),
    # reconciliation
    "reconcile_group": ("one merged partition group was reconciled", "epoch members node"),
    "threat_sync": (
        "a node applied one batch of anti-entropy threat records",
        "node records source",
    ),
    # transactions
    "tx_commit": ("a transaction committed", ""),
    "tx_rollback": ("a transaction rolled back, with reason", "reason"),
    # fault injection
    "fault_injected": (
        "a fault model perturbed a message (drop/delay/duplicate)",
        "destination duplicates effect extra_delay kind node reason",
    ),
    "fault_event": (
        "a scripted fault-schedule event fired (fail/heal/crash/recover)",
        "action args at",
    ),
    # model checker
    "check_schedule": (
        "one explored schedule finished, with fingerprint",
        "decisions fingerprint policy scenario steps violations",
    ),
    # scenario corpus
    "corpus_replay": (
        "one corpus scenario replayed end to end, with outcome",
        "attempted blocked domain scenario served violations",
    ),
}

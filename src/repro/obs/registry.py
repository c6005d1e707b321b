"""The canonical observability vocabulary: what the middleware records.

Every trace-event type the middleware emits lives here, with a one-line
description.  The trace is the only instrument — a count is a count of
events, by type or by a field — so this table is the single decision of
what gets recorded:

* :data:`~repro.obs.tracing.EVENT_TYPES` is derived from
  :data:`TRACE_EVENTS`, so the tracer and the registry cannot drift;
* the ``replint`` static analyzer checks every ``emit()`` call site
  against this table (``REG001``) and flags entries nothing emits
  (``REG003``);
* the documentation table in ``docs/TUTORIAL.md`` mirrors this module.

Applications may emit their own event types on top of this vocabulary;
the middleware itself sticks to the registered names.
"""

from __future__ import annotations

#: Trace-event types, by name.  Events are emitted via
#: ``obs.emit("<type>", node=..., **data)`` and stamped with simulated
#: time; the stream of a run is a deterministic function of the scenario.
TRACE_EVENTS: dict[str, str] = {
    # invocation / validation pipeline
    "invocation": "an intercepted method invocation completed, with outcome",
    "validation": "one constraint validation, with satisfaction degree",
    "threat": "a consistency threat was recorded, accepted, or resolved",
    "repository_dispatch": "the compiled constraint dispatch table was rebuilt",
    # replication service
    "replication_update": "a primary-to-backup update round (create/state/delete)",
    "replication_conflict": "a write-write replica conflict was detected",
    "primary_promotion": "a temporary primary was promoted in a partition",
    # membership
    "view_change": "a node installed a new membership view",
    "suspicion": "the failure detector raised or cleared a suspicion",
    # network
    "message_send": "a point-to-point message was delivered",
    "message_drop": "a message was dropped (partition, crash, or fault)",
    "multicast": "a group multicast round reached its recipients",
    "topology_change": "the reachability topology changed (partition/heal/crash)",
    # reconciliation
    "reconcile_group": "one merged partition group was reconciled",
    "threat_sync": "a node applied one batch of anti-entropy threat records",
    # transactions
    "tx_commit": "a transaction committed",
    "tx_rollback": "a transaction rolled back, with reason",
    # fault injection
    "fault_injected": "a fault model perturbed a message (drop/delay/duplicate)",
    "fault_event": "a scripted fault-schedule event fired (fail/heal/crash/recover)",
    # model checker
    "check_schedule": "one explored schedule finished, with fingerprint",
    # scenario corpus
    "corpus_scenario": "the corpus generator produced one scenario",
    "corpus_replay": "one corpus scenario replayed end to end, with outcome",
}

"""The canonical observability vocabulary.

Every trace-event type the middleware emits and every metric name it
registers lives here, with a one-line description.  This is the single
source of truth:

* :data:`~repro.obs.tracing.EVENT_TYPES` is derived from
  :data:`TRACE_EVENTS`, so the tracer and the registry cannot drift;
* the ``replint`` static analyzer (``REG001``/``REG002``) checks every
  ``emit()``/``counter()``/``gauge()``/``histogram()`` call site against
  these tables, and flags registry entries nothing emits (``REG003``);
* the documentation tables in ``docs/TUTORIAL.md`` mirror this module.

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
    # adaptation loop
    "adapt_eval": "one policy-engine tick evaluated its signals and policies",
    "adapt_action": "an actuator action applied, released, or was vetoed",
    "adapt_rollback": "a probe window showed regression; the action was undone",
    "adapt_mode_switch": "an entity class switched replication protocol at runtime",
    "adapt_shed": "a tradeable write was refused while shedding load",
}

#: Metric instrument names (counters/gauges/histograms), by name.
METRICS: dict[str, str] = {
    # network
    "net_messages_sent_total": "point-to-point messages delivered, by kind",
    "net_messages_dropped_total": "messages not delivered, by reason",
    "net_link_bytes_total": "estimated payload bytes per directed link",
    "net_multicasts_total": "group multicast rounds, by message kind",
    "net_multicast_deliveries_total": "per-recipient multicast deliveries",
    # constraint consistency manager
    "ccm_invocations_total": "intercepted invocations, by method and outcome",
    "ccm_invocation_latency_seconds": "simulated end-to-end latency of intercepted invocations",
    "ccm_validations_total": "constraint validations, by degree and category",
    "ccm_threats_total": "consistency threats, by action taken",
    "ccm_violations_total": "definite constraint violations",
    "repository_dispatch_rebuilds_total": "compiled constraint dispatch-table rebuilds",
    # replication
    "repl_updates_total": "primary-to-backup update rounds, by kind",
    "repl_primary_promotions_total": "temporary-primary promotions (designated primary unreachable)",
    "repl_conflicts_total": "write-write replica conflicts detected",
    # membership
    "gms_view_changes_total": "per-node membership view changes",
    "fd_suspicion_events_total": "suspicion raise/clear events",
    # transactions
    "tx_commits_total": "transactions committed",
    "tx_rollbacks_total": "transactions rolled back",
    # reconciliation
    "reconcile_groups": "merged partition groups reconciled",
    "threat_sync_batches": "anti-entropy threat-record batches applied",
    "threat_sync_records": "threat records shipped during anti-entropy",
    # fault injection
    "fault_decisions_total": "fault-model consultations, by effect",
    # model checker
    "check_steps_total": "scheduler steps driven by the checker",
    "check_decisions_total": "non-trivial scheduling choice points",
    "check_invariant_evals_total": "invariant evaluations performed",
    "check_violations_total": "invariant violations found",
    # scenario corpus
    "corpus_scenarios_total": "scenarios produced by the corpus generator",
    "corpus_validation_issues_total": "structural problems found in scenarios",
    "corpus_replay_ops_total": "workload ops replayed from corpus scenarios",
    "corpus_violations_total": "invariant violations observed during corpus replays",
    # adaptation loop
    "adapt_evals_total": "policy-engine ticks evaluated",
    "adapt_policy_firings_total": "policy firings, by policy and phase",
    "adapt_actions_total": "actuator actions, by action and status",
    "adapt_rollbacks_total": "actions undone after a regressing probe window",
    "adapt_shed_ops_total": "tradeable writes refused while shedding load",
    "adapt_threat_backlog": "distinct threat identities pending across stores",
}

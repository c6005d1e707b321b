"""Schedule-exploration model checker over the deterministic simulation.

Turns the sim substrate into a validation tool: instead of sampling the
one FIFO schedule a seed happens to produce, the checker *searches* the
interleaving space of enabled events — FIFO/LIFO/seeded-random policies
plus a bounded-depth systematic DFS — evaluating a registry of safety
invariants at every step, and shrinking any violating schedule to a
small, deterministic JSON repro.

Typical use::

    from repro.check import ModelChecker, CheckConfig, single_partition_scenario

    checker = ModelChecker(single_partition_scenario(),
                           CheckConfig(max_schedules=500))
    report = checker.explore()
    assert not report.found_violation, report.counterexample.to_dict()
"""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "explorer": (
        "CheckConfig", "Counterexample", "ExplorationReport", "ModelChecker",
        "ShrinkResult", "shrink_counterexample",
    ),
    "invariants": (
        "AtMostOnePrimaryPerPartition", "ClusterHealthyAgain", "CommittedStateSurvives",
        "Invariant", "InvariantRegistry", "LatticeMonotonicity", "NoCrossPartitionDelivery",
        "ReplicaConvergence", "RunProbe", "ThreatAccounting", "Violation", "default_registry",
    ),
    "mutations": ("skipped_threat_reevaluation", "split_brain_primaries"),
    "policies": (
        "ChoicePoint", "FifoPolicy", "LifoPolicy", "RandomPolicy", "RecordingPolicy",
        "ReplayPolicy", "schedule_fingerprint",
    ),
    "runner": ("BLOCKING_ERRORS", "RunResult", "outcome_digest", "run_schedule"),
    "scenario": (
        "BOOKING_SCENARIOS", "CANONICAL_SCENARIOS", "Op", "Scenario", "healthy_scenario",
        "partial_heal_scenario", "single_partition_scenario",
    ),
})

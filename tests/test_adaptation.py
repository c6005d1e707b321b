"""Tests for the autonomic adaptation loop (observe → decide → act).

Covers the declarative policy grammar (JSON round-trips, hysteresis,
cooldowns), the signal reader, the guarded actuator (apply / undo /
dry-run veto), the engine's fire → probe → release state machine with
byte-identical same-seed decision logs, and the model checker's DFS
sweep over a scenario whose policy switches replication protocol twice.
"""

import json
from dataclasses import replace

import pytest

from repro.adapt import (
    ACTIONS,
    ActionVetoed,
    AdaptationActuator,
    AdaptationPolicy,
    CONDITION_OPS,
    Condition,
    SIGNALS,
    SignalReader,
)
from repro.check import CheckConfig, ModelChecker, Op, Scenario, run_schedule
from repro.core import AcceptAllHandler, ConstraintPriority, OperationShedded
from repro.corpus import GeneratorConfig, generate_scenario, validate_scenario
from repro.faults.chaos import replay_scenario


def _sell(at, node, count, flight=0):
    return Op(at=at, kind="invoke", node=node, ref_index=flight,
              method="sell_tickets", args=(count,))


def _flight_scenario(ops=(), faults=(), params=None, entities=1, name="adapt-test"):
    return Scenario(
        name=name,
        node_ids=("n1", "n2", "n3"),
        entities=entities,
        params=params if params is not None else {"seats": 10},
        ops=tuple(ops),
        fault_events=tuple(faults),
    )


def _with_adaptation(scenario, policies, tick=0.25, horizon=None):
    params = dict(scenario.params)
    adaptation = {"policies": policies, "tick": tick}
    if horizon is not None:
        adaptation["horizon"] = horizon
    params["adaptation"] = adaptation
    return replace(scenario, params=params)


def _phases(report, policy=None):
    entries = [json.loads(line) for line in report.adaptation_trace]
    if policy is not None:
        entries = [entry for entry in entries if entry["policy"] == policy]
    return [entry["phase"] for entry in entries]


class TestCondition:
    def test_met_and_default_clear(self):
        condition = Condition("threat_backlog", ">=", 3.0)
        assert condition.met(3.0) and condition.met(7.0)
        assert not condition.met(2.9)
        # No hysteresis: clears exactly where it stops firing.
        assert condition.cleared(2.9)
        assert not condition.cleared(3.0)

    def test_hysteresis_band(self):
        condition = Condition("threat_backlog", ">=", 5.0, clear_threshold=2.0)
        assert condition.met(5.0)
        assert not condition.met(4.0)
        # Inside the band the condition neither fires nor clears.
        assert not condition.cleared(4.0)
        assert not condition.cleared(2.0)
        assert condition.cleared(1.9)

    def test_every_registered_op_spelling(self):
        for op in CONDITION_OPS:
            assert Condition("x", op, 1.0).met(1.0) in (True, False)

    def test_validation(self):
        with pytest.raises(ValueError):
            Condition("", ">=", 1.0)
        with pytest.raises(ValueError):
            Condition("x", "==", 1.0)


class TestPolicyGrammar:
    def _policy(self):
        return AdaptationPolicy(
            name="tighten",
            when=(
                Condition("degraded", ">=", 1.0),
                Condition("threat_backlog", ">=", 2.0, clear_threshold=1.0),
            ),
            action="set_tradeability",
            args={"entity_class": "Flight", "tradeable": False},
            cooldown=0.5,
            probe_window=0.25,
            rollback_if=(Condition("breaker_open_fraction", ">", 0.5),),
        )

    def test_json_round_trip(self):
        policy = self._policy()
        wire = json.dumps(policy.to_dict(), sort_keys=True)
        assert AdaptationPolicy.from_dict(json.loads(wire)) == policy

    def test_defaults_round_trip(self):
        policy = AdaptationPolicy(
            name="p", when=(Condition("degraded", ">=", 1.0),), action="shed_load"
        )
        data = policy.to_dict()
        assert "probe_window" not in data and "rollback_if" not in data
        assert AdaptationPolicy.from_dict(data) == policy

    def test_validation(self):
        when = (Condition("degraded", ">=", 1.0),)
        with pytest.raises(ValueError):
            AdaptationPolicy(name="", when=when, action="shed_load")
        with pytest.raises(ValueError):
            AdaptationPolicy(name="p", when=(), action="shed_load")
        with pytest.raises(ValueError):
            AdaptationPolicy(name="p", when=when, action="")
        with pytest.raises(ValueError):
            AdaptationPolicy(name="p", when=when, action="shed_load", cooldown=-1)
        with pytest.raises(ValueError):
            AdaptationPolicy(
                name="p",
                when=when,
                action="shed_load",
                rollback_if=(Condition("degraded", ">=", 1.0),),
            )  # rollback_if without a probe window


class TestSignalReader:
    def test_degradation_tracking(self):
        cluster, _refs = _flight_scenario().build()
        reader = SignalReader(cluster)
        sample = reader.read(1.0)
        assert sample["degraded"] == 0.0
        assert sample["degraded_duration"] == 0.0
        assert sample["partition_count"] == 1.0

        cluster.network.partition(("n1",), ("n2", "n3"))
        sample = reader.read(2.0)
        assert sample["degraded"] == 1.0
        assert sample["partition_count"] == 2.0
        assert sample["degraded_duration"] == 0.0  # just noticed
        assert reader.read(3.5)["degraded_duration"] == pytest.approx(1.5)

        cluster.network.heal_all()
        sample = reader.read(4.0)
        assert sample["degraded"] == 0.0
        assert sample["degraded_duration"] == 0.0

    def test_threat_backlog_and_rate(self):
        cluster, refs = _flight_scenario(params={"seats": 2}).build()
        reader = SignalReader(cluster)
        assert reader.read(1.0)["threat_backlog"] == 0.0
        cluster.network.partition(("n1",), ("n2", "n3"))
        cluster.invoke(
            "n1", refs[0], "sell_tickets", 5, negotiation_handler=AcceptAllHandler()
        )
        sample = reader.read(2.0)
        assert sample["threat_backlog"] == 1.0
        assert sample["threat_rate"] == pytest.approx(1.0)  # +1 identity over 1s
        # Identical threats merge: backlog is identity-, not event-, counted.
        cluster.invoke(
            "n1", refs[0], "sell_tickets", 5, negotiation_handler=AcceptAllHandler()
        )
        assert reader.read(3.0)["threat_backlog"] == 1.0

    def test_vocabulary_matches_reader_output(self):
        cluster, _refs = _flight_scenario().build()
        assert set(SignalReader(cluster).read(0.5)) == set(SIGNALS)


class TestActuator:
    def _cluster(self, **kwargs):
        return _flight_scenario(**kwargs).build()

    def test_unknown_action_vetoed(self):
        cluster, _refs = self._cluster()
        actuator = AdaptationActuator(cluster)
        assert "unknown action" in actuator.validate("reboot_world", {})
        with pytest.raises(ActionVetoed):
            actuator.apply("reboot_world", {})
        assert cluster.adaptation_actions == []

    def test_set_tradeability_apply_and_release(self):
        cluster, _refs = self._cluster()
        actuator = AdaptationActuator(cluster)
        registrations = actuator._class_registrations("Flight")
        assert registrations, "flight domain registers a ticket constraint"
        before = [r.constraint.priority for r in registrations]

        applied = actuator.apply(
            "set_tradeability", {"entity_class": "Flight", "tradeable": False}
        )
        assert all(
            r.constraint.priority is ConstraintPriority.CRITICAL for r in registrations
        )
        assert cluster.adaptation_actions == [applied]

        actuator.release(applied)
        assert [r.constraint.priority for r in registrations] == before
        assert applied.undone
        actuator.release(applied)  # idempotent
        assert [r.constraint.priority for r in registrations] == before

    def test_set_tradeability_requires_known_class(self):
        cluster, _refs = self._cluster()
        actuator = AdaptationActuator(cluster)
        assert "no constraints" in actuator.validate(
            "set_tradeability", {"entity_class": "Spaceship", "tradeable": False}
        )
        assert "needs entity_class" in actuator.validate("set_tradeability", {})

    def test_tighten_allowed_while_violated(self):
        # The dry run only vetoes *blind* tightening (UNCHECKABLE): a
        # definitely-violated constraint rejects writes regardless of
        # priority, so tightening it merely stops the bleeding.
        cluster, refs = self._cluster(params={"seats": 2})
        cluster.entity_on("n1", refs[0]).set_sold(5)
        actuator = AdaptationActuator(cluster)
        assert (
            actuator.validate(
                "set_tradeability", {"entity_class": "Flight", "tradeable": False}
            )
            is None
        )

    def test_set_min_degree_apply_undo_and_veto(self):
        cluster, _refs = self._cluster()
        actuator = AdaptationActuator(cluster)
        assert "unknown degree" in actuator.validate(
            "set_min_degree", {"entity_class": "Flight", "degree": "PERFECT"}
        )
        registrations = actuator._class_registrations("Flight")
        before = [r.constraint.min_satisfaction_degree for r in registrations]
        applied = actuator.apply(
            "set_min_degree", {"entity_class": "Flight", "degree": "SATISFIED"}
        )
        assert all(
            r.constraint.min_satisfaction_degree.name == "SATISFIED"
            for r in registrations
        )
        actuator.release(applied)
        assert [r.constraint.min_satisfaction_degree for r in registrations] == before

    def test_set_protocol_switch_and_undo(self):
        cluster, refs = self._cluster()
        actuator = AdaptationActuator(cluster)
        original = cluster.replication.protocol_for(refs[0]).name
        applied = actuator.apply(
            "set_protocol", {"entity_class": "Flight", "protocol": "pp"}
        )
        switched = cluster.replication.protocol_for(refs[0]).name
        assert switched != original
        assert "->" in applied.detail
        actuator.release(applied)
        assert cluster.replication.protocol_for(refs[0]).name == original

    def test_set_protocol_vetoes_bad_specs(self):
        cluster, _refs = self._cluster()
        actuator = AdaptationActuator(cluster)
        assert "bad protocol spec" in actuator.validate(
            "set_protocol", {"entity_class": "Flight", "protocol": "carrier-pigeon"}
        )
        assert "not replicated" in actuator.validate(
            "set_protocol", {"entity_class": "Spaceship", "protocol": "pp"}
        )

    def test_shed_load_blocks_tradeable_writes_until_released(self):
        cluster, refs = self._cluster()
        actuator = AdaptationActuator(cluster)
        applied = actuator.apply("shed_load", {})
        assert all(
            cluster.ccmgrs[node].shed_tradeable_writes for node in cluster.ccmgrs
        )
        with pytest.raises(OperationShedded):
            cluster.invoke(
                "n1", refs[0], "sell_tickets", 1,
                negotiation_handler=AcceptAllHandler(),
            )
        actuator.release(applied)
        assert not any(
            cluster.ccmgrs[node].shed_tradeable_writes for node in cluster.ccmgrs
        )
        cluster.invoke(
            "n1", refs[0], "sell_tickets", 1, negotiation_handler=AcceptAllHandler()
        )
        assert cluster.entity_on("n1", refs[0]).get_sold() == 1

    def test_rehome_primaries_moves_into_heaviest_partition(self):
        cluster, refs = self._cluster(entities=2)
        actuator = AdaptationActuator(cluster)
        cluster.network.partition(("n1",), ("n2", "n3"))
        before = {
            ref: cluster.replication.info(ref).designated_primary for ref in refs
        }
        applied = actuator.apply("rehome_primaries", {"entity_class": "Flight"})
        for ref in refs:
            assert cluster.replication.info(ref).designated_primary in ("n2", "n3")
        actuator.release(applied)
        assert {
            ref: cluster.replication.info(ref).designated_primary for ref in refs
        } == before

    def test_catalog_is_the_dispatch_surface(self):
        cluster, _refs = self._cluster()
        actuator = AdaptationActuator(cluster)
        for action in ACTIONS:
            assert hasattr(actuator, f"_validate_{action}")
            assert hasattr(actuator, f"_apply_{action}")


PARTITION = (("n1",), ("n2", "n3"))


class TestEngine:
    def _tighten_policy(self, cooldown=0.05, **extra):
        policy = {
            "name": "tighten",
            "when": [{"signal": "degraded", "op": ">=", "threshold": 1.0}],
            "action": "set_tradeability",
            "args": {"entity_class": "Flight", "tradeable": False},
            "cooldown": cooldown,
        }
        policy.update(extra)
        return policy

    def _two_window_scenario(self):
        ops = [_sell(0.1 + 0.2 * i, "n1", 1) for i in range(10)]
        ops.append(Op(at=2.3, kind="reconcile"))
        faults = (
            (0.3, "partition", PARTITION),
            (0.8, "heal_all", ()),
            (1.3, "partition", PARTITION),
            (1.8, "heal_all", ()),
        )
        return _flight_scenario(ops=ops, faults=faults, params={"seats": 100})

    def test_fire_and_release_per_window(self):
        scenario = _with_adaptation(
            self._two_window_scenario(), [self._tighten_policy()], tick=0.1
        )
        report = replay_scenario(scenario)
        assert report.all_invariants_hold
        # One fire + release per partition window; cooldown is short
        # enough for the second window to fire again.
        assert _phases(report) == ["fire", "release", "fire", "release"]

    def test_cooldown_suppresses_refire(self):
        scenario = _with_adaptation(
            self._two_window_scenario(),
            [self._tighten_policy(cooldown=10.0)],
            tick=0.1,
        )
        report = replay_scenario(scenario)
        assert _phases(report) == ["fire", "release"]

    def test_veto_is_traced_and_cooled_down(self):
        bad = {
            "name": "bad-switch",
            "when": [{"signal": "degraded", "op": ">=", "threshold": 1.0}],
            "action": "set_protocol",
            "args": {"entity_class": "Flight", "protocol": "carrier-pigeon"},
            "cooldown": 5.0,
        }
        scenario = _with_adaptation(self._two_window_scenario(), [bad], tick=0.1)
        report = replay_scenario(scenario)
        phases = _phases(report)
        assert phases and set(phases) == {"veto"}
        # The cooldown throttles retries: far fewer vetoes than ticks.
        assert len(phases) <= 2

    def test_probe_rolls_back_on_regression(self):
        policy = self._tighten_policy(
            probe_window=0.15,
            rollback_if=[{"signal": "degraded", "op": ">=", "threshold": 1.0}],
        )
        # One long window: the probe still sees degradation → roll back.
        ops = [_sell(0.1 + 0.2 * i, "n1", 1) for i in range(8)]
        faults = ((0.3, "partition", PARTITION), (1.5, "heal_all", ()))
        scenario = _with_adaptation(
            _flight_scenario(ops=ops, faults=faults, params={"seats": 100}),
            [policy],
            tick=0.1,
        )
        report = replay_scenario(scenario)
        phases = _phases(report)
        assert phases[:2] == ["fire", "rollback"]

    def test_probe_ok_keeps_action_until_release(self):
        policy = self._tighten_policy(
            probe_window=0.15,
            rollback_if=[{"signal": "threat_backlog", "op": ">=", "threshold": 999.0}],
        )
        ops = [_sell(0.1 + 0.2 * i, "n1", 1) for i in range(8)]
        faults = ((0.3, "partition", PARTITION), (1.5, "heal_all", ()))
        scenario = _with_adaptation(
            _flight_scenario(ops=ops, faults=faults, params={"seats": 100}),
            [policy],
            tick=0.1,
        )
        report = replay_scenario(scenario)
        assert _phases(report) == ["fire", "probe_ok", "release"]

    def test_same_seed_decision_log_is_byte_identical(self):
        scenario = _with_adaptation(
            self._two_window_scenario(), [self._tighten_policy()], tick=0.1
        )
        first = replay_scenario(scenario)
        second = replay_scenario(scenario)
        assert first.adaptation_trace == second.adaptation_trace
        assert first.adaptation_trace  # non-trivial log

    def test_engine_validation(self):
        cluster, _refs = _flight_scenario().build()
        policy = AdaptationPolicy(
            name="p", when=(Condition("degraded", ">=", 1.0),), action="shed_load"
        )
        with pytest.raises(ValueError):
            cluster.attach_adaptation([policy], tick=0.0)
        with pytest.raises(ValueError):
            cluster.attach_adaptation([policy, policy])


class TestCheckerSweep:
    """The DFS sweep the acceptance criteria call for: a scenario whose
    policy switches replication protocol (≥2 mode switches) explored by
    the model checker with zero invariant violations."""

    def _mode_switch_scenario(self):
        policy = {
            "name": "partition-protocol",
            "when": [{"signal": "degraded", "op": ">=", "threshold": 1.0}],
            "action": "set_protocol",
            "args": {"entity_class": "Flight", "protocol": "pp"},
            "cooldown": 0.05,
        }
        # Ops collide with each other and with the 0.25s engine ticks so
        # the DFS has genuine ordering choices to explore.
        ops = [
            _sell(0.5, "n2", 1),
            _sell(0.5, "n3", 1),
            _sell(0.75, "n2", 1),
            _sell(1.5, "n2", 1),
            _sell(1.75, "n3", 1),
            Op(at=2.2, kind="reconcile"),
        ]
        faults = (
            (0.4, "partition", PARTITION),
            (0.9, "heal_all", ()),
            (1.4, "partition", PARTITION),
            (1.9, "heal_all", ()),
        )
        return _with_adaptation(
            _flight_scenario(ops=ops, faults=faults, params={"seats": 100},
                             name="adapt-mode-switch"),
            [policy],
            tick=0.25,
        )

    def test_fifo_run_switches_modes_twice_cleanly(self):
        result = run_schedule(self._mode_switch_scenario())
        assert result.ok, result.violations
        events = [json.loads(line) for line in result.trace_jsonl.splitlines()]
        switches = [
            event
            for event in events
            if event["type"] == "adapt_mode_switch"
            and event["data"]["protocol"] == "primary-partition"
        ]
        assert len(switches) >= 2, result.trace_jsonl

    def test_dfs_sweep_finds_no_violation(self):
        report = ModelChecker(
            self._mode_switch_scenario(),
            CheckConfig(max_schedules=40, max_decisions=8),
        ).explore()
        assert not report.found_violation
        assert report.schedules_explored > 1


class TestCorpusOscillatingPlan:
    def test_deterministic_and_valid(self):
        cfg = GeneratorConfig(
            domain="flight_booking", seed=5, nodes=4, entities=3, ops=30,
            faults=4, fault_plan="oscillating",
        )
        first = generate_scenario(cfg)
        second = generate_scenario(cfg)
        assert first.to_dict() == second.to_dict()
        assert first.params["fault_plan"] == "oscillating"
        assert validate_scenario(first) == []

    def test_oscillation_shape(self):
        scenario = generate_scenario(
            GeneratorConfig(
                domain="flight_booking", seed=5, nodes=4, entities=3, ops=30,
                faults=4, fault_plan="oscillating",
            )
        )
        partitions = [e for e in scenario.fault_events if e[1] == "partition"]
        assert len(partitions) == 4
        # Mid-run reconcile ops interleave with the workload (plus the
        # terminal one after the horizon).
        reconciles = [op for op in scenario.ops if op.kind == "reconcile"]
        assert len(reconciles) == 5

    def test_unknown_plan_rejected_by_generator_and_validator(self):
        with pytest.raises(KeyError):
            generate_scenario(
                GeneratorConfig(domain="flight_booking", seed=0, fault_plan="bogus")
            )
        good = generate_scenario(GeneratorConfig(domain="flight_booking", seed=0))
        params = dict(good.params)
        params["fault_plan"] = "bogus"
        issues = validate_scenario(replace(good, params=params))
        assert any(issue.code == "unknown-fault-plan" for issue in issues)

    def test_episode_plan_unchanged_by_default(self):
        scenario = generate_scenario(GeneratorConfig(domain="flight_booking", seed=0))
        assert "fault_plan" not in scenario.params


class TestAdaptiveBeatsStaticExtremes:
    """The payoff of the loop on oscillating partitions: tightening
    tradeability only once a degradation has *lasted* serves short
    windows like the permissive static config and protects long ones
    like the strict one, so it beats both on effective availability —
    served ops minus the seats rebooked at reconciliation, over
    attempted ops."""

    ADAPTIVE = [
        {
            "name": "tighten-on-sustained-degradation",
            "when": [
                {"signal": "degraded", "op": ">=", "threshold": 1.0},
                {"signal": "degraded_duration", "op": ">=", "threshold": 0.25},
            ],
            "action": "set_tradeability",
            "args": {"entity_class": "Flight", "tradeable": False},
            "cooldown": 0.05,
        }
    ]
    NEVER_TRADEABLE = [
        {
            "action": "set_tradeability",
            "args": {"entity_class": "Flight", "tradeable": False},
        }
    ]

    @staticmethod
    def _effective_availability(report):
        rebooked = sum(
            excess
            for handler in report.constraint_handlers
            if handler is not None
            for _ref, excess in getattr(handler, "rebooked", [])
        )
        return (report.served - rebooked) / report.attempted

    @pytest.mark.parametrize("seed", [0, 3])
    def test_adaptive_strictly_dominates_both_static_configs(self, seed):
        always_config = generate_scenario(
            GeneratorConfig(
                domain="flight_booking", seed=seed, nodes=5, entities=6, ops=120,
                faults=6, fault_plan="oscillating", partition_sensitive=True,
                params={"seats": 8},
            )
        )
        never_config = replace(
            always_config,
            params={**always_config.params, "adapt_initial": self.NEVER_TRADEABLE},
        )
        adaptive_config = _with_adaptation(always_config, self.ADAPTIVE, tick=0.05)
        always, never, adaptive, rerun = (
            replay_scenario(scenario)
            for scenario in (always_config, never_config, adaptive_config, adaptive_config)
        )
        for report in (always, never, adaptive):
            assert report.all_invariants_hold, report.failed_invariants
        assert self._effective_availability(adaptive) > self._effective_availability(always)
        assert self._effective_availability(adaptive) > self._effective_availability(never)
        assert adaptive.integrity_violations <= always.integrity_violations
        assert {"fire", "release"} <= set(_phases(adaptive))
        assert rerun.adaptation_trace == adaptive.adaptation_trace

"""Source guards: mechanisms that were replaced and may not grow back.

Tier-1 runs this file, and so does CI's ``lint`` job.  Each guard's name
and docstring say what it holds; most read source lines through
:func:`matches`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def matches(pattern: str, *packages: str, root: Path = SRC) -> list[str]:
    """``path:line: text`` for every Python source line under ``packages``
    (files, directories or globs relative to ``root``; all of ``root`` when
    none is given) that matches ``pattern``."""
    regex = re.compile(pattern)
    roots = []
    for package in packages:
        found = sorted(root.glob(package))
        assert found, f"{package} names nothing under {root}"
        roots += found
    return [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for start in roots or [root]
        for path in ([start] if start.is_file() else sorted(start.rglob("*.py")))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if regex.search(line)
    ]


def test_no_topology_oracle_read_in_replication_or_core():
    oracle = r"partition_of\(|\.partitions\(\)|\.reachable\(|is_crashed\(|is_healthy\(|link_up\("
    assert matches(oracle, "replication", "core") == []


def test_a_transaction_undoes_through_one_map():
    """Rollback hands each object its image from ``Transaction.undo``: no
    write logs a closure of its own."""
    assert matches(r"log_undo|_undo_log|^\s+def undo\(") == []


def test_the_trace_is_the_only_instrument():
    """Every fact the middleware records is one trace event: no metrics
    registry, no instrument beside the emit."""
    assert not (SRC / "obs" / "metrics.py").exists()
    assert matches(r"\bMETRICS\b|registry\.(counter|gauge|histogram)\(|self\._m_") == []


def test_the_trace_has_one_recorder():
    """The tracer numbers, tallies and keeps each event itself: no sink
    layer under ``obs``, one lock in the package, taken once per emit."""
    assert matches(r"^\s*class \w*Sink\b|\bsinks\b", "obs") == []
    assert len(matches(r"threading\.Lock\(", "obs")) == 1
    tree = ast.parse((SRC / "obs" / "tracing.py").read_text())
    (tracer,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Tracer"]
    (emit,) = [node for node in tracer.body if isinstance(node, ast.FunctionDef) and node.name == "emit"]
    assert len([node for node in ast.walk(emit) if isinstance(node, ast.With)]) == 1


def test_one_dispatch_path_and_one_repository_knob():
    """The CCMgr keeps no per-strategy fork, and the repository no second
    option."""
    assert matches(r"dispatch is not None|caching_repository") == []


def test_one_value_copy_helper():
    """Every state or row copy goes through ``objects.values.copy_value``,
    which deep-copies only what a shallow copy would leave shared."""
    found = matches(r"copy\.deepcopy", "objects", "persistence")
    assert len(found) == 1 and found[0].startswith("objects/values.py:"), found


def test_per_call_derivations_are_made_once():
    """Entity accessors are built with the class, with no per-access
    ``__getattr__``; an Invocation's read-or-write fact is an attribute set
    in ``__init__``, not a property; the cost ledger's books (its counts and
    the seconds folded in from them) are written only in ``sim/costs.py``,
    by the charge function and the fold of ``totals``, which nothing
    assigns; ``cluster.py`` imports ``repro.net`` once, at module level."""
    assert matches(r"def __getattr__", "objects/entity.py") == []
    properties = [
        node.name
        for node in ast.walk(ast.parse((SRC / "objects" / "invocation.py").read_text()))
        if isinstance(node, ast.FunctionDef)
        and "property" in [ast.unparse(decorator) for decorator in node.decorator_list]
    ]
    assert [name for name in properties if re.match(r"is_(write|getter|setter)", name)] == []
    writers = matches(r"\b(counts|_?sums|_?folded)\[[^]]+\] *=[^=]", "sim")
    assert len(writers) == 5 and all(w.startswith("sim/costs.py:") for w in writers), writers
    assert matches(r"ledger\.counts\[[^]]+\] *\+?=[^=]|\.totals\[[^]]+\] *\+?=[^=]") == []
    assert [line for line in matches(r"\._(sums|folded)\b") if not line.startswith("sim/costs.py:")] == []
    assert matches(r"ledger\.charge\(") == []
    assert matches(r"^\s+from \.net import", "cluster.py") == []


def test_one_workload_loop():
    """A chaos run and the availability study are scenario data replayed by
    ``check.runner.OpDriver``: no bespoke runner, private counter entity or
    tally loop, and one place catches the errors that block an op."""
    bespoke = r"ChaosRunner|ChaosRecord|_drive_workload|_chaos_constraint|_record_constraint"
    assert matches(bespoke) == []
    assert len(matches(r"except BLOCKING_ERRORS")) == 1


def test_no_log_that_only_grows():
    """The persistence journal is a count and a short tail handed out
    without a copy, and a network keeps a delivered message only in the
    recorder a checker attached (``Network.record_deliveries``)."""
    assert matches(r"list\(self\._journal\)") == []
    assert matches(r"_delivered: list|_delivered\.append\(|delivered_since|delivered_messages") == []


def test_one_measurement_estate():
    """Wall-clock numbers come from ``benchmarks/ledger``, the
    dissertation's simulated-time figures from the nine scripts of
    DESIGN.md §4, and anything else that is true is a test: no tenth
    script, no root ``BENCH_*.json`` snapshot, no JSON writer or
    quick-mode knob in a figure script."""
    assert len(list((ROOT / "benchmarks").glob("bench_*.py"))) == 9
    assert list(ROOT.glob("BENCH_*.json")) == []
    writers = r"RESULTS_DIR|write_metrics|write_text|json\.dump|BENCH_(QUICK|PROFILE)"
    assert matches(writers, "benchmarks/bench_*.py", "benchmarks/conftest.py", root=ROOT) == []


def test_one_epoch_counter():
    found = matches(r"epoch \+= 1")
    assert len(found) == 1 and found[0].startswith("membership/gms.py:"), found


def test_the_sim_adapter_is_the_only_topology_subscriber():
    found = matches(r"\.on_topology_change\(")
    assert found and all(line.startswith("membership/sim_adapter.py:") for line in found), found


def test_in_membership_only_the_sim_adapter_reads_the_topology():
    found = matches(r"partition_of\(|\.reachable\(|is_crashed\(", "membership")
    assert found and all(line.startswith("membership/sim_adapter.py:") for line in found), found


def test_the_gms_holds_no_network():
    assert matches(r"gms\.network") == []
    imports = matches(r"^(from|import) (\.\.|repro\.)net", "membership/gms.py")
    assert [line.split(": ", 1)[1] for line in imports] == ["from ..net import NodeId"], imports


def test_a_worker_keeps_no_peer_table_beside_its_view():
    assert matches(r"peer_up\s*[:=]|\.peer_up\b|def degraded|_set_peer_up", "transport/procnode.py") == []


def test_no_constraint_phase_reimplementation_in_transport():
    assert matches(r"validate_registration|mark_deferred|SimpleNamespace", "transport") == []


def _driver() -> ast.Module:
    return ast.parse((SRC / "transport" / "proccluster.py").read_text())


def test_the_process_driver_merges_through_the_flight_domain_handler():
    """The §1.3 additive merge lives in ``AdditiveSoldMerge`` alone: the
    driver picks lineages and sums no deltas of its own."""
    assert matches(r"\bsum\(|deltas|baseline\s*[-+]|[-+]\s*baseline", "transport/proccluster.py") == []
    (merge,) = [node for node in _driver().body if getattr(node, "name", "") == "merge_dumps"]
    assert "AdditiveSoldMerge" in _calls(merge)


def test_the_driver_dumps_state_only_in_its_first_round():
    """``revalidate`` answers with each repaired entry, so a ``state-dump``
    goes out only from ``states()`` and ``reconcile``'s first round."""
    (driver,) = [node for node in _driver().body if getattr(node, "name", "") == "ProcessCluster"]
    methods = {node.name: node for node in driver.body if isinstance(node, ast.FunctionDef)}
    dumping = [
        name for name, method in methods.items()
        if any(getattr(node, "value", None) == "state-dump" for node in ast.walk(method))
    ]
    assert dumping == ["_dumps"] and len(matches(r'"state-dump"', "transport/proccluster.py")) == 1
    callers = {name: _calls(method).count("self._dumps") for name, method in methods.items()}
    assert {name: count for name, count in callers.items() if count} == {"states": 1, "reconcile": 1}
    reconcile = list(ast.walk(methods["reconcile"]))
    (dump,) = [node.lineno for node in reconcile if isinstance(node, ast.Call) and ast.unparse(node) == "self._dumps()"]
    assert dump < min(node.lineno for node in reconcile if getattr(node, "value", None) == "revalidate")


def test_a_package_init_imports_nothing_but_the_reexport_helper():
    # ``analysis/rules`` registers its rule families by importing them.
    eager = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("__init__.py"))
        if path != SRC / "analysis" / "rules" / "__init__.py"
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "_lazy")
    ]
    assert eager == []


def test_the_helper_holds_the_only_module_getattr():
    # A module's takes the name alone; a class's takes ``self`` first.
    found = matches(r"def __getattr__\(name")
    assert len(found) == 1 and found[0].startswith("_lazy.py:"), found


def test_no_event_loop_and_no_executor_hop_in_the_worker():
    """No coroutine anywhere in ``src/``, so replint analyses no event loop."""
    assert matches(r"^\s*(import|from) asyncio") == []
    coroutines = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.AsyncFunctionDef, ast.Await, ast.AsyncFor, ast.AsyncWith))
    ]
    assert coroutines == []
    assert matches(r"ThreadPoolExecutor|run_in_executor", "transport/procnode.py") == []


def test_the_threaded_backend_hands_off_without_an_executor():
    """A send goes straight onto its destination's mailbox: no event loop
    relays it and no thread pool's future carries it."""
    relay = r"new_event_loop|call_soon_threadsafe|run_in_executor|ThreadPoolExecutor|concurrent\.futures"
    assert matches(relay, "transport/asyncio_backend.py") == []


def test_one_admission_path_for_every_network():
    """Admission (reachability, injected link faults, latency charge, send
    accounting) is ``net.network.Network._admit``: the threaded backend
    keeps no copy of it, and the fault injector has that one caller."""
    assert matches(r"on_send|_m_dropped|payload_size", "transport/asyncio_backend.py") == []
    callers = matches(r"\.on_send\(")
    assert len(callers) == 1 and callers[0].startswith("net/network.py:"), callers


def test_the_threaded_backend_wakes_through_pipes_not_a_queue_or_a_lock():
    """A message wakes its node's worker and its sender through pipes:
    no ``SimpleQueue`` mailbox, and ``_post`` builds no reply lock."""
    assert matches(r"SimpleQueue", "transport/asyncio_backend.py") == []
    tree = ast.parse((SRC / "transport" / "asyncio_backend.py").read_text())
    (post,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_post"
    ]
    built = [
        ast.unparse(call.func)
        for call in ast.walk(post)
        if isinstance(call, ast.Call)
        and re.search(r"Lock|Condition|Semaphore|Event|Barrier", ast.unparse(call.func))
    ]
    assert built == []


def test_the_interceptor_chain_is_composed_once():
    """No per-hop closure or index walk: the chain's links are made when
    the chain is, over a fixed tuple of interceptors."""
    from repro.objects import InterceptorChain

    assert matches(r"\blambda\b|_proceed", "objects/invocation.py") == []
    assert isinstance(InterceptorChain([]).interceptors, tuple)


def test_interceptors_are_linked_with_no_wrapper_between_hops():
    """An interceptor calls its successor's ``intercept`` directly, through
    the ``proceed`` the chain linked once: the chain module builds no
    closure for a hop (it defines no nested function), nothing named
    ``_step`` is left in the package, and no wired interceptor takes a
    ``proceed`` argument."""
    import inspect

    import repro.core.interceptor
    import repro.replication.interceptors
    from repro.objects import Interceptor

    tree = ast.parse((SRC / "objects" / "invocation.py").read_text())
    nested = [
        f"{outer.name}.{getattr(inner, 'name', 'lambda')}"
        for outer in ast.walk(tree)
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(outer)
        if inner is not outer
        and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    assert nested == []
    assert matches(r"\b_step\b") == []

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    wired = {
        cls.__name__: list(inspect.signature(cls.intercept).parameters)
        for cls in subclasses(Interceptor)
        if cls.__module__.startswith("repro.")
    }
    assert {"CCMInterceptor", "TransportInterceptor", "ContainerInvoker"} <= set(wired)
    assert {name: params for name, params in wired.items() if params != ["self", "invocation"]} == {}


def test_a_worker_starts_only_as_a_fork_of_the_template():
    """The driver starts one process, the template; only the template's
    loop forks; and no worker command line is left to start one cold."""
    assert len(matches(r"subprocess\.Popen\(", "transport/proccluster.py")) == 1
    forks = [
        (str(path.relative_to(SRC)), function.name)
        for path in sorted(SRC.rglob("*.py"))
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, ast.FunctionDef)
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "os.fork"
    ]
    assert forks == [("transport/procnode.py", "serve_template")]
    assert len(matches(r"\bfork\(")) == 1, "a fork outside a function, or under another name"
    assert matches(r"--node|argparse", "transport/procnode.py") == []


def test_the_ccmgr_reads_its_view_in_one_helper_and_asks_staleness_behind_the_gate():
    """No per-validation ``is_degraded()`` / ``partition_weight()``: only
    ``_environment`` reads the membership view or asks the staleness gate,
    and ``is_possibly_stale`` is asked only inside ``if stale_gate:``."""
    view_reads = {
        "view_of", "weight_fraction", "partition_weight_fraction", "may_be_stale",
        "is_degraded", "partition_weight",
    }
    calls: list[tuple[str, str, bool]] = []  # (function, called name, gated)

    def visit(node: ast.AST, function: str, gated: bool) -> None:
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.If) and ast.unparse(node.test) == "stale_gate":
            for child in node.body:
                visit(child, function, True)
            for child in node.orelse:
                visit(child, function, gated)
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            calls.append((function, node.func.attr, gated))
        for child in ast.iter_child_nodes(node):
            visit(child, function, gated)

    visit(ast.parse((SRC / "core" / "ccmgr.py").read_text()), "<module>", False)
    readers = {(function, name) for function, name, _ in calls if name in view_reads}
    assert readers == {
        ("_environment", "view_of"),
        ("_environment", "weight_fraction"),
        ("_environment", "may_be_stale"),
    }
    asked = [(function, gated) for function, name, gated in calls if name == "is_possibly_stale"]
    assert asked == [("_validate", True)]


def test_no_hand_written_scenario_scripts():
    """Every driver of a workload plays a ``Scenario`` through ``OpDriver``;
    only the §5.2 micro-benchmark loops of ``evaluation/ch5.py`` and the
    process worker's request handler call ``cluster.invoke`` besides."""
    assert not (SRC / "transport" / "differential.py").exists()
    callers = [
        (str(path.relative_to(SRC)), function.name)
        for package in ("check", "evaluation", "faults", "transport")
        for path in sorted((SRC / package).rglob("*.py"))
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, ast.FunctionDef)
        for call in ast.walk(function)
        if isinstance(call, ast.Call)
        and ast.unparse(call.func).endswith("cluster.invoke")
    ]
    assert sorted(set(callers)) == [
        ("check/runner.py", "_run"),
        ("evaluation/ch5.py", "async_constraint_improvement"),
        ("evaluation/ch5.py", "figure_5_4"),
        ("evaluation/ch5.py", "figure_5_6"),
        ("evaluation/ch5.py", "figure_5_8"),
        ("evaluation/ch5.py", "measure_operations"),
        ("evaluation/ch5.py", "violated_op"),
        ("transport/procnode.py", "handle_invoke"),
    ]


def test_a_dedisys_test_script_drives_the_cluster_only_through_the_op_driver():
    """``evaluation/scripting.py`` parses a script into a ``Scenario``;
    it makes no op or fault call of its own."""
    drives = {
        "invoke", "run_in_tx", "create_entity", "delete_entity", "partition", "heal",
        "reconcile", "crash_node", "recover_node",
    }
    tree = ast.parse((SRC / "evaluation" / "scripting.py").read_text())
    called = {
        call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", "")
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
    }
    assert called & drives == set()
    assert "OpDriver" in called


def test_one_clock_notion():
    """Every backend runs on the simulator's clock and scheduler: no
    wall-clock timer or param refusal grows back, only the transports
    build a scheduler (and ``SimNetwork``, when built without one), and
    the middleware reads its node's clock rather than the scheduler's."""
    assert matches(r"\bWallClock\b|RealScheduler|WALL_CLOCK_UNSAFE_PARAMS|deterministic =") == []
    assert matches(r"^\s*class ", "transport/wallclock.py") == []
    assert matches(r"time\.sleep", "transport/asyncio_backend.py") == []
    builders = {line.split(":", 1)[0] for line in matches(r"\bScheduler\(")}
    assert builders == {"transport/sim.py", "transport/asyncio_backend.py", "net/network.py"}
    substrate = ("sim/", "transport/", "net/", "faults/schedule.py", "membership/failure_detector.py")
    readers = [line for line in matches(r"scheduler\.clock") if not line.startswith(substrate)]
    assert readers == []


def test_one_invariant_list():
    from repro.check import default_registry

    assert matches(r"def check_", "faults/chaos.py") == []
    defined = {
        line.split("class ", 1)[1].split("(", 1)[0]
        for line in matches(r"^class \w+\(Invariant\)")
    }
    registered = {type(invariant).__name__ for invariant in default_registry().invariants}
    assert defined == registered


def test_an_absorbed_threat_updates_its_row_by_field():
    """An absorbed occurrence and a deferral rewrite only the fields they
    change (``Table.update``), never the whole ``snapshot()`` row, and a
    journal entry is a tuple, not a frozen dataclass."""
    import dataclasses

    from repro.persistence import JournalEntry

    tree = ast.parse((SRC / "core" / "threats.py").read_text())
    (store,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ThreatStore"]
    methods = {node.name: node for node in store.body if isinstance(node, ast.FunctionDef)}
    (absorbed,) = [
        node
        for node in ast.walk(methods["record"])
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("IDENTICAL_ONCE")
    ]
    for scope in (ast.Module(body=absorbed.body, type_ignores=[]), methods["mark_deferred"]):
        called = [
            node.func.attr
            for node in ast.walk(scope)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ]
        assert "update" in called and "snapshot" not in called and "put" not in called
    assert not dataclasses.is_dataclass(JournalEntry)
    assert issubclass(JournalEntry, tuple)


def test_write_path_values_are_built_in_c():
    """A message and a journal entry are tuples, not dataclasses whose
    ``__init__`` sets each field; a liveness check builds no tuple, as
    ``is_active`` is a stored bool that each status change assigns a
    constant; a backup's undo keeps the dict ``apply_state`` replaced
    instead of taking a ``state()`` copy first."""
    import dataclasses

    from repro.net import Message
    from repro.persistence import JournalEntry

    assert not dataclasses.is_dataclass(Message)
    assert not dataclasses.is_dataclass(JournalEntry)

    def method(module: str, cls: str, name: str) -> ast.FunctionDef:
        tree = ast.parse((SRC / module).read_text())
        (owner,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls]
        (found,) = [node for node in owner.body if isinstance(node, ast.FunctionDef) and node.name == name]
        return found

    tree = ast.parse((SRC / "tx" / "transactions.py").read_text())
    (transaction,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Transaction"
    ]
    assert "is_active" not in {
        node.name for node in transaction.body if isinstance(node, ast.FunctionDef)
    }
    liveness = [
        node.value
        for node in ast.walk(transaction)
        if isinstance(node, ast.Assign)
        and [ast.unparse(target) for target in node.targets] == ["self.is_active"]
    ]
    assert liveness and all(
        isinstance(value, ast.Constant) and isinstance(value.value, bool) for value in liveness
    )
    apply_replica = method("replication/manager.py", "ReplicationManager", "_apply_replica")
    assert not [
        node
        for node in ast.walk(apply_replica)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "state"
    ]


def test_per_op_reads_are_stored_fields_and_refs_compare_by_identity():
    """The clock's time, the current transaction and its liveness are
    stored fields, not properties; only the simulator moves a clock; and an
    interned ``ObjectRef`` leaves ``==`` and ``hash`` to ``object``'s
    identity slots, without becoming a tuple."""
    from repro.objects import ObjectRef
    from repro.sim import SimClock
    from repro.tx import Transaction, TransactionManager

    for owner, name in (
        (SimClock, "now"), (TransactionManager, "current"), (Transaction, "is_active")
    ):
        assert name not in vars(owner), f"{owner.__name__}.{name} is a class attribute"
    manager = TransactionManager()
    assert "current" in vars(manager) and "now" in vars(SimClock())
    assert "is_active" in vars(manager.begin())

    assert not {"__hash__", "__eq__"} & set(vars(ObjectRef))
    assert ObjectRef.__hash__ is object.__hash__ and ObjectRef.__eq__ is object.__eq__
    assert not issubclass(ObjectRef, tuple)

    writers = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if not path.relative_to(SRC).parts[0] == "sim"
        for node in ast.walk(ast.parse(path.read_text()))
        for target in (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
            else []
        )
        if isinstance(target, ast.Attribute) and target.attr == "now"
    ]
    assert writers == []


def test_one_write_propagation_path():
    """A write reaches the backups in ``propagate_update``'s own multicast
    round (§4.3): no commit-time batch, so the replication manager is no
    transactional resource, and a fault injector is installed on the
    network, not through the cluster's configuration."""
    import dataclasses

    from repro.cluster import ClusterConfig
    from repro.replication import ReplicationManager

    batching = r"batch_updates|replica-update-batch|flush_updates|update_batch_entry|_pending_updates"
    assert matches(batching) == []
    assert not {"prepare", "commit", "rollback"} & set(vars(ReplicationManager))
    fields = {field.name for field in dataclasses.fields(ClusterConfig)}
    assert not {"batch_updates", "fault_injector"} & fields


def test_options_no_caller_set_stay_constants():
    """Options that no caller set are gone, their one branch kept; so are
    the records nothing read (replint REACH001 holds the functions)."""
    import dataclasses
    import inspect

    from repro.analysis import engine
    from repro.check import explorer, runner
    from repro.cluster import ClusterConfig, DedisysCluster
    from repro.core.ccmgr import ConstraintConsistencyManager
    from repro.corpus import validate_scenario

    assert matches(r"CCMConfig|registry_factory|RegistryFactory|written_entities|after_completion") == []
    # A cluster's transport is named, never handed in ready-made.
    assert matches(r"isinstance\(spec, Transport\)", "transport") == []
    assert ClusterConfig.__annotations__["transport"] in (str, "str")
    fields = {field.name for field in dataclasses.fields(ClusterConfig)}
    assert len(fields) == 9 and not {"default_min_degree", "costs"} & fields
    removed = [
        (ConstraintConsistencyManager.__init__, "config"),
        (explorer.Counterexample.replay, "registry_factory"),
        (explorer.ModelChecker.__init__, "registry_factory"),
        (explorer.shrink_counterexample, "registry_factory"),
        (runner.run_schedule, "obs"),
        (engine.run_analysis, "project_factory"),
        (engine.load_project, "exclude"),
        (validate_scenario, "obs"),
    ]
    for function, parameter in removed:
        assert parameter not in inspect.signature(function).parameters, function


def test_settings_with_one_value_in_use_are_constants():
    """Each of these parameters had one value outside the tests; it is a
    constant now, or gone with the branch it selected."""
    import dataclasses
    import inspect

    from repro.cluster import ClusterConfig, DedisysCluster
    from repro.core.negotiation import Negotiator
    from repro.core.ocl_constraints import OclConstraint
    from repro.corpus import generate_corpus, generate_scenario, run_sweep
    from repro.net import GroupChannel, Network, SimNetwork
    from repro.objects import Container, Node
    from repro.objects.node import NodeServices
    from repro.obs import Observability
    from repro.persistence import PersistenceEngine, StateHistory, StateVersion, Table
    from repro.replication import AdaptiveVotingProtocol
    from repro.sim import CostLedger, charger
    from repro.transport import build_transport
    from repro.transport.asyncio_backend import (
        AsyncioGroupChannel,
        AsyncioNetwork,
        AsyncioTransport,
    )
    from repro.transport.base import Transport
    from repro.transport.sim import SimTransport

    removed = [
        (Network.__init__, ("loss_probability", "seed", "costs")),
        (SimNetwork.__init__, ("loss_probability", "seed", "costs")),
        (SimTransport.__init__, ("seed", "costs")),
        (build_transport, ("seed", "costs")),
        (ClusterConfig, ("seed", "costs")),
        (AsyncioTransport.__init__, ("costs",)),
        (AsyncioNetwork.__init__, ("costs",)),
        (Node.__init__, ("costs",)),
        (NodeServices.__init__, ("costs",)),
        (PersistenceEngine.__init__, ("costs",)),
        (charger, ("costs",)),
        (DedisysCluster.deploy, ("replicated",)),
        (OclConstraint.__init__, ("strategy",)),
        (Negotiator.__init__, ("default_min_degree", "static_bounds_dynamic")),
        (AdaptiveVotingProtocol.__init__, ("votes", "adaptive")),
        (DedisysCluster.create_entity, ("bind_name",)),
        (Container.create, ("persist",)),
        (Container.remove, ("persist",)),
        (Table.insert, ("cost",)),
        (Table.put, ("cost",)),
        (Table.get, ("cost",)),
        (Table.delete, ("cost",)),
        (Table.scan, ("cost",)),
        (GroupChannel.__init__, ("group",)),
        (AsyncioGroupChannel.__init__, ("group",)),
        (Transport.make_channel, ("group",)),
        (SimTransport.make_channel, ("group",)),
        (AsyncioTransport.make_channel, ("group",)),
        (StateHistory.record, ("partition_epoch", "txid")),
        (generate_scenario, ("obs",)),
        (generate_corpus, ("obs",)),
        (run_sweep, ("obs",)),
        (Observability.__init__, ("clock", "sinks")),
        (CostLedger, ("totals", "counts")),
    ]
    assert len(removed) == 34 and sum(len(names) for _, names in removed) == 46
    for function, names in removed:
        assert not set(names) & set(inspect.signature(function).parameters), function
    assert {field.name for field in dataclasses.fields(StateVersion)} == {
        "version", "state", "timestamp"
    }
    assert matches(r"\.group\b", "net/multicast.py", "transport") == []
    # The testbed's costs are one constant table: nothing holds or builds
    # a cost model of its own.
    assert matches(r"\bcosts\s*[:=]|(?<!sim)\.costs\b|CostModel|\breplicate_class\b") == []
    # ``CostInterceptor(hops=)`` went with its class: an invocation's hops
    # are charged by the invocation service (see the guard below).


def count_settable(root: Path = SRC) -> int:
    """Every parameter with a default (positional or keyword-only) of
    every def, plus every field with a default of every ``@dataclass``
    class, under ``root``."""

    def is_dataclass(node: ast.ClassDef) -> bool:
        return any(
            (isinstance(d, ast.Name) and d.id == "dataclass")
            or (isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass")
            for d in node.decorator_list
        )

    total = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                total += len(node.args.defaults)
                total += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and is_dataclass(node):
                total += sum(
                    isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body
                )
    return total


#: Settable values under ``src/repro``, as :func:`count_settable` counts them.
#: A change that raises it says why in CHANGES.md, as for a frame pin.
SETTABLE_VALUES = 498


def test_the_settable_values_are_pinned():
    assert count_settable() == SETTABLE_VALUES


def test_no_interceptor_exists_only_to_charge():
    """The modelled cost of an interceptor chain is charged where the chain
    starts, by ``InvocationService``: no cost interceptor grows back."""
    assert matches(r"\bCostInterceptor\b") == []


def test_every_link_fault_is_an_injector_decision():
    """A network rolls no loss of its own: a lost message is a drop the
    installed fault injector decided, on every substrate."""
    assert matches(r"_rng\b|import random", "net", "transport") == []
    assert matches(r"loss_probability") == []


def test_an_ocl_constraint_validates_its_compiled_form():
    """The AST walk is ``validation.ocl``'s interpreter, the reference the
    compiled form is checked against; a constraint never walks it."""
    assert matches(r"evaluate\(|_ast\b|strategy", "core/ocl_constraints.py") == []


def test_a_dynamic_handler_decides_outright():
    """§3.2.1: static metadata does not bound the dynamic handler."""
    assert matches(r"static_bounds_dynamic|static-boundary") == []


def test_adaptive_voting_always_adapts_on_one_vote_per_node():
    import inspect
    import textwrap

    from repro.replication import AdaptiveVotingProtocol

    assert not {"__init__", "_vote", "_has_write_quorum"} & set(vars(AdaptiveVotingProtocol))
    source = textwrap.dedent(inspect.getsource(AdaptiveVotingProtocol.write_node))
    refusals = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Return)
        and isinstance(node.value, ast.Constant)
        and node.value.value is None
    ]
    assert refusals == []


def test_the_p4_write_rule_is_written_once():
    """P4 and adaptive voting inherit the one rule; primary-partition
    applies it behind its majority gate."""
    from repro.replication import protocols

    owners = [
        name
        for name, value in vars(protocols).items()
        if isinstance(value, type) and "write_node" in vars(value)
    ]
    assert owners == ["ReplicationProtocol", "PrimaryPartitionProtocol"]
    gated = _method("replication/protocols.py", "PrimaryPartitionProtocol", "write_node")
    assert sorted(_calls(gated)) == ["self._is_primary_partition", "super", "super().write_node"]


def test_an_object_is_reached_by_its_reference_not_a_bound_name():
    import repro.objects

    assert "NamingService" not in repro.objects.__all__
    assert matches(r"NamingService|bind_name|\.naming\b") == []


def test_a_lost_call_fails_fast_with_no_retry_deadline_or_breaker():
    """The paper degrades (P4, threats, reconciliation) and never retries
    a client call: an ``UnreachableError`` reaches the caller at once."""
    import dataclasses

    import repro
    import repro.faults
    from repro.cluster import ClusterConfig
    from repro.objects import Invocation

    fields = {field.name for field in dataclasses.fields(ClusterConfig)}
    assert len(fields) == 9 and "resilience" not in fields
    assert "deadline" not in Invocation.__slots__
    resilience = re.compile(r"Resilience|Retry|Breaker|Circuit|Deadline")
    assert [name for name in repro.__all__ if resilience.search(name)] == []
    assert [name for name in repro.faults.__all__ if resilience.search(name)] == []
    assert matches(r"send_redirect|retry_policy|ResilienceConfig|breaker_open_fraction") == []


def test_no_runtime_adaptation_loop_beside_the_degraded_modes():
    """The policy engine, its actuator and the core hooks only it used
    (per-class protocol overrides, primary re-homing, write shedding,
    its guardrail invariant) are gone.  The pattern leaves
    ``adapt_monitor``, the ADAPT framework's cost charge, alone."""
    import importlib.util

    from repro.check import default_registry

    assert importlib.util.find_spec("repro.adapt") is None
    assert matches(
        r"attach_adaptation|protocol_for|set_class_protocol|rehome_primary"
        r"|shed_tradeable|OperationShedded|adaptation_trace|AdaptationGuardrails"
    ) == []
    assert len(default_registry().invariants) == 8


def test_every_run_record_is_linked_from_changes():
    records = sorted(path.name for path in (ROOT / "docs" / "runs").glob("PR-*.md"))
    changes = (ROOT / "CHANGES.md").read_text()
    assert records
    assert [name for name in records if f"docs/runs/{name}" not in changes] == []


#: EXPERIMENTS.md keeps the paper tables, the divergences and one
#: paragraph per campaign; a campaign's log goes to ``docs/runs/``.
EXPERIMENTS_BUDGET = 42_500
#: A CHANGES.md line is one paragraph with a link to its run record,
#: which holds the test lists and tables.
CHANGES_LINE_BUDGET = 3_000
#: The whole of CHANGES.md: one short line per PR and per finding.
CHANGES_BUDGET = 120_000


def test_the_record_stays_within_its_size_budget():
    assert len((ROOT / "EXPERIMENTS.md").read_bytes()) < EXPERIMENTS_BUDGET
    lines = (ROOT / "CHANGES.md").read_text().splitlines()
    assert [line[:60] for line in lines if len(line) > CHANGES_LINE_BUDGET] == []
    assert len((ROOT / "CHANGES.md").read_bytes()) < CHANGES_BUDGET


def _method(module: str, cls: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / module).read_text())
    (owner,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls]
    (found,) = [node for node in owner.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return found


def _calls(function: ast.AST) -> list[str]:
    return [
        ast.unparse(node.func)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
    ]


def test_a_threat_is_built_in_one_frame_with_one_identity():
    """A threat's defaults are a literal, a shared frozen value and a C
    counter (no default factory, no lambda), and its identity is a field
    made once, not a property built on every read."""
    import dataclasses

    from repro.core import ConsistencyThreat, ReconciliationInstructions

    assert matches(r"lambda|default_factory=ReconciliationInstructions", "core/threats.py") == []
    assert "__init__" in vars(ConsistencyThreat)
    assert not isinstance(vars(ConsistencyThreat).get("identity"), property)
    assert ReconciliationInstructions.__dataclass_params__.frozen
    (identity,) = [
        field for field in dataclasses.fields(ConsistencyThreat) if field.name == "identity"
    ]
    assert not identity.init and not identity.repr and not identity.compare


def test_a_negotiation_result_is_a_tuple_built_in_c():
    """``accepted`` is a stored field of a tuple, not a dataclass
    property, and ``negotiate`` builds each result with ``tuple.__new__``."""
    import dataclasses

    from repro.core import NegotiationResult

    assert not dataclasses.is_dataclass(NegotiationResult)
    assert issubclass(NegotiationResult, tuple) and "accepted" in NegotiationResult._fields
    returns = [
        ast.unparse(node.value.func)
        for node in ast.walk(_method("core/negotiation.py", "Negotiator", "negotiate"))
        if isinstance(node, ast.Return)
    ]
    assert returns == ["_result"] * 3


def test_an_absorbed_occurrence_compares_degrees_by_value():
    """The lattice comparison of a new occurrence's degree with the
    stored head's reads the members' values; no ``SatisfactionDegree``
    operator (``__lt__``, or ``total_ordering``'s ``__ge__``) runs on the
    threat path."""
    comparisons = [
        ast.unparse(node)
        for path in ("core/threats.py", "core/negotiation.py", "core/ccmgr.py")
        for node in ast.walk(ast.parse((SRC / path).read_text()))
        if isinstance(node, ast.Compare)
        and isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
        and "degree" in ast.unparse(node)
    ]
    assert comparisons and all("._value_" in comparison for comparison in comparisons)


def test_a_row_update_of_leaves_is_its_own_copy():
    """``Table.update`` hands ``copy_value`` only changes that hold more
    than leaves: the merged dict already copies a leaf-only change."""
    update = _method("persistence/store.py", "Table", "update")
    (guarded,) = [
        node
        for node in ast.walk(update)
        if isinstance(node, ast.If) and "copy_value" in _calls(node)
    ]
    assert "LEAVES.issuperset" in ast.unparse(guarded.test)
    assert _calls(update).count("copy_value") == 1


def test_staleness_is_asked_once_per_placement_and_partition():
    """``is_possibly_stale`` still asks each entity's node's view (one
    ``view_of`` per call) but asks the protocol only for a (designated
    primary, replica nodes, partition) it has not answered yet."""
    stale = _method("replication/manager.py", "ReplicationManager", "is_possibly_stale")
    calls = _calls(stale)
    assert calls.count("self.gms.view_of") == 1
    asked = [
        node
        for node in ast.walk(stale)
        if isinstance(node, ast.If) and "self.protocol.is_possibly_stale" in _calls(node)
    ]
    assert [ast.unparse(node.test) for node in asked] == ["stale is None"]


def test_a_temporary_primary_is_chosen_once_and_announced_every_time():
    """No sort per ``route_write``: the smallest replica node inside the
    partition is chosen once per (replica nodes, partition), and the
    promotion hook still fires on every call."""
    choose = _method("replication/protocols.py", "ReplicationProtocol", "_temporary_primary")
    calls = _calls(choose)
    assert "sorted" not in calls and "self.promotion_hook" in calls
    chosen = [
        node
        for node in ast.walk(choose)
        if isinstance(node, ast.If) and "min" in _calls(node)
    ]
    assert [ast.unparse(node.test) for node in chosen] == ["chosen is _UNCHOSEN"]


def test_a_degraded_write_keeps_one_snapshot_and_a_tuple_record():
    """The history entry, the update record and the backups share the one
    ``state()`` copy a degraded write makes, and its update record is a
    tuple built in C, not a nine-field dataclass; reconciliation sorts
    the records by C key functions, not by lambdas reading their fields."""
    import dataclasses

    from repro.replication import UpdateRecord

    assert not dataclasses.is_dataclass(UpdateRecord) and issubclass(UpdateRecord, tuple)
    assert matches(r"key=lambda", "replication/manager.py") == []
    assert "copy_value" not in _calls(_method("persistence/store.py", "StateHistory", "record"))
    propagate = _method("replication/manager.py", "ReplicationManager", "propagate_update")
    assert _calls(propagate).count("entity.state") == 1
    assert "_record" in _calls(_method("replication/manager.py", "ReplicationManager", "_record_update"))


def test_no_tracked_file_is_ignored():
    """Nothing ``.gitignore`` excludes (build metadata, caches, ledger
    output) is committed beside the code."""
    import shutil
    import subprocess

    import pytest

    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    tracked = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert tracked == []

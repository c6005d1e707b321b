"""The interprocedural index: call graph, summaries, and fixpoints.

Runs against the dedicated fixture trees under
``tests/fixtures/analysis`` — ``interproc`` for the graph machinery
itself and the ``conc*`` trees for the derived facts the CONC rules
consume (loop reachability, acquisition edges, transitive blocking).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.engine import load_project
from repro.analysis.interproc import analyze

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
SRC_REPRO = Path(__file__).parents[1] / "src" / "repro"


def index_of(fixture: str):
    return analyze(load_project(FIXTURES / fixture))


class TestIndexConstruction:
    def test_functions_and_classes_registered(self):
        index = index_of("interproc")
        assert "app/graph.py::Diamond.top" in index.functions
        assert "app/graph.py::spin" in index.functions
        assert index.classes["Diamond"].methods["bottom"] == (
            "app/graph.py::Diamond.bottom"
        )

    def test_lock_registry_and_guard_decls(self):
        index = index_of("interproc")
        assert index.lock_kind("_lock") == "Lock"
        decls = {decl.class_name for decl in index.guarded["_value"]}
        assert decls == {"Diamond"}
        decl = index.guarded["_value"][0]
        assert decl.lock == "_lock"
        assert decl.rel_path == "app/graph.py"

    def test_index_is_cached_per_project(self):
        project = load_project(FIXTURES / "interproc")
        assert analyze(project) is analyze(project)


class TestCallGraph:
    def test_diamond_edges(self):
        index = index_of("interproc")
        top = index.functions["app/graph.py::Diamond.top"]
        callees = {c for site in top.calls for c in site.callees}
        assert callees == {
            "app/graph.py::Diamond.left",
            "app/graph.py::Diamond.right",
        }
        left = index.functions["app/graph.py::Diamond.left"]
        assert {c for site in left.calls for c in site.callees} == {
            "app/graph.py::Diamond.bottom"
        }

    def test_recursion_terminates(self):
        index = index_of("interproc")
        spin = index.functions["app/graph.py::spin"]
        assert {c for site in spin.calls for c in site.callees} == {
            "app/graph.py::spin"
        }
        # The greatest-fixpoint must converge on the cycle.
        assert index.holds("app/graph.py::spin", "_lock") is False

    def test_dynamic_dispatch_widens_to_subclasses(self):
        index = index_of("interproc")
        dispatch = index.functions["app/graph.py::dispatch"]
        callees = {c for site in dispatch.calls for c in site.callees}
        assert callees == {
            "app/graph.py::Base.hook",
            "app/graph.py::Impl.hook",
        }

    def test_unique_name_fallback_on_untyped_receiver(self):
        index = index_of("interproc")
        duck = index.functions["app/graph.py::duck"]
        callees = {c for site in duck.calls for c in site.callees}
        assert callees == {"app/graph.py::DuckTarget.distinctive_quack"}

    def test_ambiguous_name_fallback_resolves_to_nothing(self):
        index = index_of("interproc")
        # `hook` exists on Base and Impl: a name-only call must not be
        # wired to either (typed resolution handled dispatch() above).
        assert len(index.by_name["hook"]) == 2

    def test_property_access_is_a_call_edge(self):
        index = index_of("interproc")
        read = index.functions["app/graph.py::WithProp.read"]
        callees = {c for site in read.calls for c in site.callees}
        assert "app/graph.py::WithProp.x" in callees


class TestHoldsFixpoint:
    def test_diamond_leaf_is_proven(self):
        index = index_of("interproc")
        assert index.holds("app/graph.py::Diamond.bottom", "_lock")
        assert index.holds("app/graph.py::Diamond.left", "_lock")

    def test_entry_points_hold_nothing(self):
        index = index_of("interproc")
        assert not index.holds("app/graph.py::Diamond.top", "_lock")

    def test_one_unlocked_caller_breaks_the_proof(self):
        index = index_of("conc001_bad")
        # snapshot() reads with no lock and no callers: unproven.
        assert not index.holds("app/mod.py::Store.snapshot", "_lock")
        # _count_locked() is reached only through count()'s with-block.
        assert index.holds("app/mod.py::Store._count_locked", "_lock")


class TestSummaries:
    def test_acquires_and_accesses_recorded(self):
        index = index_of("interproc")
        top = index.functions["app/graph.py::Diamond.top"]
        assert [acq.lock for acq in top.acquires] == ["_lock"]
        bottom = index.functions["app/graph.py::Diamond.bottom"]
        accesses = [(a.field_name, a.is_write) for a in bottom.accesses]
        assert ("_value", True) in accesses

    def test_init_writes_are_exempt(self):
        index = index_of("interproc")
        init = index.functions["app/graph.py::Diamond.__init__"]
        assert init.accesses == []

    def test_spawn_boundary_recorded(self):
        index = index_of("conc002_bad")
        safe = index.functions["app/mod.py::Pump.safe"]
        spawned = [site for site in safe.calls if site.spawn]
        assert any(
            "app/mod.py::Pump._work" in site.callees for site in spawned
        )


class TestLoopReachability:
    def test_coroutine_chain_reaches_inline_callee(self):
        index = index_of("conc002_bad")
        reachable = index.loop_reachability()
        chain = reachable["app/mod.py::Pump._work"]
        assert chain[0] == "app/mod.py::Pump.run"

    def test_call_soon_threadsafe_callback_is_a_root(self):
        index = index_of("conc002_bad")
        reachable = index.loop_reachability()
        assert reachable["app/mod.py::Pump._tick"] == (
            "app/mod.py::Pump._tick",
        )

    def test_executor_boundary_stops_reachability(self):
        index = index_of("conc_good")
        reachable = index.loop_reachability()
        assert "app/mod.py::Disciplined._slow" not in reachable


class TestDerivedFacts:
    def test_acquisition_edges_cross_functions(self):
        index = index_of("conc003_bad")
        edges = index.acquisition_edges()
        assert ("_a", "_b") in edges  # local nesting in forward()
        assert ("_b", "_a") in edges  # interprocedural via backward()

    def test_transitive_blocking_sees_through_helpers(self):
        index = index_of("conc004_bad")
        blocking = index.transitive_blocking()
        op = blocking["app/mod.py::Sender._dial"]
        assert op is not None and op.is_network

    def test_transitive_blocking_sees_through_a_connection_pool(self):
        # The shape of transport.frames: request() never touches a socket
        # constructor itself, it checks one out of a module-level pool.
        index = index_of("conc_good")
        blocking = index.transitive_blocking()
        op = blocking["app/mod.py::exchange"]
        assert op is not None and op.is_network
        assert op.desc == "socket create_connection()" and not op.held
        assert index.guarded["_idle"][0].lock == "_pool_lock"

    def test_frames_request_is_still_a_network_op(self):
        # CONC004 on procnode/proccluster depends on this chain:
        # frames.request -> ConnectionPool.checkout -> create_connection.
        index = analyze(load_project(SRC_REPRO))
        op = index.transitive_blocking()["transport/frames.py::request"]
        assert op is not None and op.is_network and not op.held

    def test_clean_tree_has_no_acquisition_cycle(self):
        index = index_of("conc_good")
        edges = index.acquisition_edges()
        assert ("_outer", "_inner") in edges
        assert ("_inner", "_outer") not in edges

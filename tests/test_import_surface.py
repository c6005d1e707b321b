"""A process imports what it runs, and a package still exports its names.

The package ``__init__`` files re-export through ``repro._lazy`` and load
a submodule when one of its names is first used, so a cluster built from
the default configuration carries neither the model checker, the Ch. 2
study, the corpus nor an event loop.  The cases that look at
``sys.modules`` read them from fresh interpreters; they compare module
*sets* and never a time.  "Removed, not deferred" is the rule the cycle
cases hold: whatever a run needs is loaded by the time its first
operation has been served, so no ``import`` executes inside a timed
operation, a degraded block or a ``reconcile()``.
"""

from __future__ import annotations

import ast
import functools
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts) for path in SRC.rglob("__init__.py")
)

#: Nothing of these may be loaded by a default sim cluster's life cycle.
UNUSED_BY_A_DEFAULT_CLUSTER = (
    "repro.check", "repro.corpus", "repro.evaluation", "repro.analysis",
    "repro.validation", "repro.web", "repro.administration",
    "repro.faults.chaos", "repro.transport.asyncio_backend",
    "repro.transport.proccluster", "repro.transport.procnode", "repro.transport.frames",
    "asyncio", "ssl", "xml", "subprocess", "logging",
)

#: Build the default three-node cluster, serve one read (``first``), then a
#: write and a partition → degraded write → heal → reconcile cycle (``end``).
PARTITION_CYCLE = """
import json, sys
from repro import ClusterConfig, DedisysCluster
from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.core import AcceptAllHandler

def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "repro")

cluster = DedisysCluster(ClusterConfig(node_ids=("a", "b", "c"), transport=sys.argv[1]))
try:
    cluster.deploy(Flight)
    cluster.register_constraint(ticket_constraint_registration())
    flight = cluster.create_entity("a", "Flight", "F1", {"flight_number": "F 1", "seats": 80})
    assert cluster.invoke("a", flight, "get_sold") == 0
    first = loaded()
    cluster.invoke("a", flight, "sell_tickets", 10)
    cluster.partition({"a"}, {"b", "c"})
    cluster.invoke("b", flight, "sell_tickets", 1, negotiation_handler=AcceptAllHandler())
    assert cluster.threat_stores["b"].count_identities() == 1
    cluster.heal()
    assert cluster.reconcile().threats_reevaluated == 1
finally:
    cluster.close()
print(json.dumps({"first": first, "end": loaded(), "all": sorted(sys.modules)}))
"""

#: What a worker forked from the template does first: after the template's
#: warm-up, build a worker whose primary never answers, serve it one frame
#: of every kind over a socket (writes forward, fail over and propagate to
#: the dead peer), shut it down, and list the modules that were imported.
FORKED_WORKER = """
import json, socket, sys, threading, time
from repro.transport import frames, procnode

def unused_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]

procnode.warm_up()
before = set(sys.modules)
port = unused_port()
worker = procnode.WorkerNode("b", port, {"a": ("127.0.0.1", unused_port())}, primary="a")
server = threading.Thread(target=worker.serve, args=(60.0,))
server.start()
deadline = time.monotonic() + 10
while True:
    try:
        frames.request("127.0.0.1", port, {"kind": "ping"})
        break
    except OSError:
        if time.monotonic() > deadline:
            raise
        time.sleep(0.01)
flight = {"flight_number": "K9", "seats": 80, "sold": 70}
sale = {"kind": "invoke", "cls": "Flight", "oid": "K9", "method": "sell_tickets"}
answers = [
    "ok" in frames.request("127.0.0.1", port, payload)
    for payload in (
        {"kind": "status"},
        {"kind": "create", "cls": "Flight", "oid": "K9", "attrs": flight},
        {**sale, "args": [1]},
        {**sale, "args": [100]},
        {"kind": "replica-create", "cls": "Flight", "oid": "K8", "state": flight,
         "version": 1, "origin": "a"},
        {"kind": "replica-update", "cls": "Flight", "oid": "K8", "state": flight,
         "version": 2, "origin": "a"},
        {"kind": "state-dump"},
        {"kind": "state-apply", "objects": {"Flight|K9": {
            "cls": "Flight", "oid": "K9", "state": {**flight, "sold": 85}, "version": 9}}},
        {"kind": "revalidate"},
        {"kind": "no-such-kind"},
        {"kind": "shutdown"},
    )
]
server.join(timeout=10)
imported = sorted(set(sys.modules) - before)
print(json.dumps({"answers": answers, "stopped": not server.is_alive(), "imported": imported}))
"""


def fresh_interpreter(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter; the JSON object it prints last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@functools.cache
def partition_cycle(transport: str) -> dict:
    """One run of ``PARTITION_CYCLE`` per transport, shared by the cases."""
    return fresh_interpreter(PARTITION_CYCLE, transport)


def modules_after(statement: str) -> list[str]:
    return fresh_interpreter(
        f"import json, sys\n{statement}\nprint(json.dumps({{'all': sorted(sys.modules)}}))"
    )["all"]


def under(prefix: str, modules: list[str]) -> list[str]:
    return [name for name in modules if name == prefix or name.startswith(prefix + ".")]


class TestWhatAProcessLoads:
    def test_importing_the_root_package_loads_only_the_helper(self):
        assert under("repro", modules_after("import repro")) == ["repro", "repro._lazy"]

    def test_a_default_cluster_carries_no_catalogue_and_no_event_loop(self):
        loaded = partition_cycle("sim")["all"]
        assert "repro.core.reconciliation" in loaded
        carried = {prefix: under(prefix, loaded) for prefix in UNUSED_BY_A_DEFAULT_CLUSTER}
        assert {prefix: found for prefix, found in carried.items() if found} == {}

    @pytest.mark.parametrize("transport", ["sim", "asyncio"])
    def test_nothing_is_imported_after_the_first_served_operation(self, transport):
        run = partition_cycle(transport)
        assert run["first"] == run["end"]

    def test_the_process_driver_imports_no_event_loop(self):
        loaded = modules_after("import repro.transport.proccluster")
        assert "repro.transport.frames" in loaded
        assert under("asyncio", loaded) == []
        # The ledger imports the driver for every workload; the worker's
        # stack and the page-copying helper load in the template only.
        assert under("ctypes", loaded) == under("repro.cluster", loaded) == []
        assert "repro.transport.procnode" not in loaded

    def test_a_process_worker_imports_no_event_loop(self):
        loaded = modules_after("import repro.transport.procnode")
        assert "repro.cluster" in loaded
        assert under("asyncio", loaded) == under("ssl", loaded) == []

    def test_a_forked_worker_imports_nothing_after_the_template_warm_up(self):
        run = fresh_interpreter(FORKED_WORKER)
        assert run["answers"] == [True] * len(run["answers"]) and run["stopped"]
        assert run["imported"] == []


def export_table(package: str) -> dict[str, str]:
    """``name -> defining submodule`` as the package's ``__init__`` declares
    it: the table literal handed to ``reexport``, or the ``from . import``
    list of ``analysis.rules`` (each module exports itself)."""
    path = SRC.joinpath(*package.split("."), "__init__.py")
    origin: dict[str, str] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "reexport":
            for submodule, names in ast.literal_eval(node.args[1]).items():
                origin.update(dict.fromkeys(names, submodule))
            for keyword in node.keywords:
                origin.update({name: name for name in ast.literal_eval(keyword.value)})
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            origin.update({alias.name: alias.name for alias in node.names})
    return origin


@pytest.mark.parametrize("package", PACKAGES)
class TestEveryPackageStillExportsItsNames:
    def test_each_exported_name_is_the_object_its_submodule_defines(self, package):
        module = importlib.import_module(package)
        origin = export_table(package)
        assert sorted(origin) == sorted(set(module.__all__) - {"__version__"})
        for name, submodule in origin.items():
            defining = importlib.import_module(f"{package}.{submodule}")
            expected = defining if name == submodule else getattr(defining, name)
            assert getattr(module, name) is expected, name
            assert name in dir(module)

    def test_a_star_import_binds_exactly_all(self, package):
        namespace: dict[str, object] = {}
        exec(f"from {package} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(importlib.import_module(package).__all__)

    def test_an_unknown_name_is_an_attribute_error_naming_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=re.escape(repr(package))):
            module.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec(f"from {package} import no_such_name", {})


def test_re_exported_objects_pickle_by_their_defining_module():
    from repro import ObjectRef
    from repro.core import SatisfactionDegree, ThreatStoragePolicy

    assert pickle.loads(pickle.dumps(SatisfactionDegree)) is SatisfactionDegree
    policy = ThreatStoragePolicy.IDENTICAL_ONCE
    assert pickle.loads(pickle.dumps(policy)) is policy
    ref = ObjectRef("Flight", "F1")
    copy = pickle.loads(pickle.dumps(ref))
    assert copy == ref and hash(copy) == hash(ref) and copy is ref  # interned

"""Tests for the distributed-object layer: entities, containers, location,
invocation interception."""

import copy
import inspect
import json
import pickle
import threading
import types
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest

from repro.objects import (
    ContainerInvoker,
    Entity,
    Interceptor,
    InterceptorChain,
    Invocation,
    LocationService,
    Node,
    ObjectNotFound,
    ObjectRef,
)
from repro.objects.entity import trackers
from repro.sim import COSTS, CostLedger, SimClock
from repro.tx import TransactionManager


class Account(Entity):
    fields = {"balance": 0, "owner": "", "partner": None}

    def deposit(self, amount: int) -> int:
        self._set("balance", self._get("balance") + amount)
        return self._get("balance")


@pytest.fixture
def node():
    clock = SimClock()
    return Node("n1", clock, CostLedger(), TransactionManager())


@pytest.fixture
def container(node):
    node.container.deploy(Account)
    return node.container


class TestObjectRef:
    def test_equal_refs_from_different_constructions(self):
        one = ObjectRef("Flight", "F1")
        other = ObjectRef("".join(["Fli", "ght"]), "".join(["F", "1"]))
        # Interned: the second construction returns the first's instance.
        assert one is other and one == other and not one != other
        assert hash(one) == hash(other)
        assert {one: "row"}[other] == "row" and other in {one}
        assert one != ObjectRef("Flight", "F2") and one != ObjectRef("Person", "F1")

    def test_not_equal_to_the_tuple_of_its_fields(self):
        ref = ObjectRef("Flight", "F1")
        assert ref != ("Flight", "F1") and ("Flight", "F1") != ref
        assert ref not in {("Flight", "F1"): 1}

    def test_repr_and_str_are_what_payload_sizes_and_goldens_read(self):
        ref = ObjectRef("Flight", "F1")
        assert repr(ref) == "ObjectRef(class_name='Flight', oid='F1')"
        assert str(ref) == "Flight#F1"

    def test_immutable(self):
        ref = ObjectRef("Flight", "F1")
        with pytest.raises(FrozenInstanceError):
            ref.oid = "F2"
        with pytest.raises(FrozenInstanceError):
            del ref.class_name
        with pytest.raises(FrozenInstanceError):
            ref.colour = "red"
        assert ref == ObjectRef("Flight", "F1") and hash(ref) == hash(ObjectRef("Flight", "F1"))

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda ref: pickle.loads(pickle.dumps(ref))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_round_trip_to_an_equal_ref(self, clone):
        ref = ObjectRef("Flight", "F1")
        again = clone(ref)
        assert again == ref and hash(again) == hash(ref) and {ref: 1}[again] == 1

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda ref: pickle.loads(pickle.dumps(ref))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_return_the_interned_ref(self, clone):
        ref = ObjectRef("Flight", "F1")
        assert clone(ref) is ref
        assert clone([ref, {ref: ref}]) == [ref, {ref: ref}]

    def test_pickle_carries_the_fields_not_the_identity(self):
        # Identities differ between interpreter processes; the receiving
        # process interns the two fields into its own instance.
        assert ObjectRef("Flight", "F1").__reduce__() == (ObjectRef, ("Flight", "F1"))

    def test_threads_that_build_one_ref_get_one_object(self):
        oid = f"race-{id(object())}"  # a ref no other test has built
        start = threading.Barrier(8)
        built = []

        def build():
            start.wait()
            built.extend(ObjectRef("Flight", oid) for _ in range(200))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(built) == 8 * 200
        assert len({id(ref) for ref in built}) == 1
        assert built[0] is ObjectRef("Flight", oid)

    def test_a_ref_is_no_tuple_to_json_or_to_comparison(self):
        ref = ObjectRef("Flight", "F1")
        assert not isinstance(ref, tuple)
        assert json.dumps(ref, default=str) == '"Flight#F1"'
        assert ref != ("Flight", "F1")
        assert ("Flight", "F1") != ref


class Savings(Account):
    """A sub-subclass of :class:`Entity` with inherited and own fields,
    a hand-written accessor and a field named like a base method."""

    fields = {**Account.fields, "rate": 0.5, "version": "shadowed"}

    def get_rate(self) -> str:
        return f"{self._get('rate'):.0%}"


class TestSynthesisedAccessors:
    def test_accessors_exist_on_the_class(self):
        assert Account.get_balance.__qualname__ == "Account.get_balance"
        assert Account.set_owner.__name__ == "set_owner"
        assert "get_balance" not in Savings.__dict__  # inherited, not rebuilt
        assert "set_rate" in Savings.__dict__

    def test_subclass_sees_inherited_and_own_fields(self):
        savings = Savings("s1", balance=10)
        savings.set_owner("ann")
        savings.set_rate(0.25)
        assert (savings.get_balance(), savings.get_owner()) == (10, "ann")
        assert savings.deposit(5) == 15

    def test_hand_written_accessor_is_not_overwritten(self):
        assert Savings("s1").get_rate() == "50%"

    def test_base_method_wins_over_a_field_of_its_name(self):
        savings = Savings("s1")
        assert savings.get_version() == 0  # VersionedEntity, not the field
        savings.set_version("v2")  # no base setter: the field's accessor
        assert savings.get_version() == 1 and savings.state()["version"] == "v2"

    def test_unknown_accessor_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="get_nope"):
            Savings("s1").get_nope
        assert not hasattr(Account("a1"), "get_rate")

    def test_accessors_track_fill_the_undo_map_and_bump_the_version(self, container):
        account = container.create("Account", "a1", {"balance": 5})
        txmgr = container.node.services.txmgr
        tx = txmgr.begin()
        tracker = {}
        trackers.append(tracker)
        try:
            account.set_balance(account.get_balance() + 1)
        finally:
            trackers.pop()
        assert tracker == {account.ref: account}
        assert account.version == 1
        txmgr.rollback(tx)
        assert account.get_balance() == 5 and account.version == 0

    def test_an_entitys_first_write_in_a_transaction_sets_its_undo_entry(self, container):
        account = container.create("Account", "a1", {"balance": 5, "owner": "ann"})
        before = (account.state(), account.version, account.last_update_time)
        txmgr = container.node.services.txmgr
        tx = txmgr.begin()
        account.deposit(1)
        account.set_owner("bob")
        account.deposit(1)
        assert tx.undo == {account: before}
        txmgr.rollback(tx)
        assert (account.get_balance(), account.get_owner(), account.version) == (5, "ann", 0)
        row = container.node.persistence.table("entities").get(("Account", "a1"))
        assert row == account.state()


class TestEntityBasics:
    def test_fields_initialized_with_defaults(self):
        account = Account("a1")
        assert account.get_balance() == 0

    def test_constructor_attributes(self):
        account = Account("a1", balance=10)
        assert account.get_balance() == 10

    def test_unknown_field_rejected(self):
        with pytest.raises(AttributeError):
            Account("a1", bogus=1)

    def test_set_get_accessors(self):
        account = Account("a1")
        account.set_balance(42)
        assert account.get_balance() == 42

    def test_unknown_accessor_raises(self):
        account = Account("a1")
        with pytest.raises(AttributeError):
            account.get_bogus()
        with pytest.raises(AttributeError):
            account.nonsense

    def test_ref_identity(self):
        account = Account("a1")
        assert account.ref == ObjectRef("Account", "a1")
        assert str(account.ref) == "Account#a1"
        assert account.ref is account.ref

    def test_state_snapshot_is_deep(self):
        account = Account("a1", partner=None)
        state = account.state()
        state["balance"] = 999
        assert account.get_balance() == 0

    def test_apply_state(self):
        account = Account("a1")
        account.apply_state({"balance": 7, "owner": "x", "partner": None}, version=3)
        assert account.get_balance() == 7
        assert account.version == 3

    def test_business_method(self):
        account = Account("a1")
        assert account.deposit(5) == 5


class TestVersioning:
    def test_version_bumps_on_write(self):
        account = Account("a1")
        account.set_balance(1)
        account.set_balance(2)
        assert account.get_version() == 2

    def test_estimated_latest_without_interval(self):
        account = Account("a1")
        account.set_balance(1)
        assert account.estimated_latest_version() == account.get_version()

    def test_estimated_latest_with_interval(self, container):
        account = container.create("Account", "a1")
        account.set_balance(1)
        account.expected_update_interval = 10.0
        container.node.services.clock.advance(35.0)
        # three full intervals elapsed: expects 3 missed updates (§4.2.1)
        assert account.estimated_latest_version() == account.get_version() + 3


class TestAccessTracking:
    def test_reads_recorded_by_tracker(self):
        account = Account("a1")
        tracker = {}
        trackers.append(tracker)
        try:
            account.get_balance()
        finally:
            trackers.pop()
        assert tracker == {account.ref: account}

    def test_each_entity_recorded_once(self):
        account = Account("a1")
        tracker = {}
        trackers.append(tracker)
        try:
            account.get_balance()
            account.get_owner()
        finally:
            trackers.pop()
        assert list(tracker.values()) == [account]

    def test_no_tracker_no_error(self):
        Account("a1").get_balance()


class TestUndoLogging:
    def test_write_undone_on_rollback(self, container):
        txmgr = container.node.services.txmgr
        account = container.create("Account", "a1")
        tx = txmgr.begin()
        account.set_balance(100)
        assert account.get_balance() == 100
        txmgr.rollback(tx)
        assert account.get_balance() == 0
        assert account.version == 0

    def test_write_survives_commit(self, container):
        txmgr = container.node.services.txmgr
        account = container.create("Account", "a1")
        tx = txmgr.begin()
        account.set_balance(100)
        txmgr.commit(tx)
        assert account.get_balance() == 100


class TestContainer:
    def test_create_and_resolve(self, container):
        entity = container.create("Account", "a1", {"balance": 5})
        assert container.resolve(entity.ref) is entity
        assert container.resolve(ObjectRef("Account", "a1")) is entity

    def test_resolve_unknown_raises_object_not_found(self, container):
        missing = ObjectRef("Account", "nope")
        with pytest.raises(ObjectNotFound) as caught:
            container.resolve(missing)
        assert caught.value.ref is missing

    def test_create_persists_row(self, container):
        container.create("Account", "a1", {"balance": 5})
        row = container.node.persistence.table("entities").get(("Account", "a1"))
        assert row["balance"] == 5

    def test_duplicate_create_rejected(self, container):
        container.create("Account", "a1")
        with pytest.raises(KeyError):
            container.create("Account", "a1")

    def test_undeployed_class_rejected(self, node):
        with pytest.raises(KeyError):
            node.container.create("Ghost", "g1")

    def test_deploy_non_entity_rejected(self, node):
        with pytest.raises(TypeError):
            node.container.deploy(int)  # type: ignore[arg-type]

    def test_remove(self, container):
        entity = container.create("Account", "a1")
        container.remove(entity.ref)
        assert not container.has(entity.ref)
        assert entity.deleted
        with pytest.raises(ObjectNotFound):
            container.resolve(entity.ref)

    def test_remove_deletes_the_persisted_row(self, container):
        entity = container.create("Account", "a1", {"balance": 5})
        table = container.node.persistence.table("entities")
        assert ("Account", "a1") in table
        container.remove(entity.ref)
        assert ("Account", "a1") not in table
        assert table.keys() == []

    def test_instances_of(self, container):
        container.create("Account", "a2")
        container.create("Account", "a1")
        oids = [e.oid for e in container.instances_of("Account")]
        assert oids == ["a1", "a2"]

    def test_len(self, container):
        container.create("Account", "a1")
        assert len(container) == 1


class TestLocation:
    def test_location_service(self):
        location = LocationService()
        ref = ObjectRef("A", "1")
        location.register(ref, "n1")
        assert location.home_of(ref) == "n1"
        assert location.knows(ref)
        location.unregister(ref)
        with pytest.raises(ObjectNotFound):
            location.home_of(ref)


class TestInterceptorChain:
    def test_chain_runs_in_order(self, node, container):
        container.create("Account", "a1")
        order = []

        class Tagger(Interceptor):
            def __init__(self, tag):
                self.tag = tag

            def intercept(self, invocation):
                order.append(f"{self.tag}-in")
                result = self.proceed(invocation)
                order.append(f"{self.tag}-out")
                return result

        outer, inner, invoker = Tagger("outer"), Tagger("inner"), ContainerInvoker(node)
        chain = InterceptorChain([outer, inner, invoker])
        # Linked once: each interceptor holds its successor's intercept.
        assert chain.execute == outer.intercept
        assert outer.proceed == inner.intercept and inner.proceed == invoker.intercept
        invocation = Invocation(ObjectRef("Account", "a1"), "deposit", (5,), "n1")
        assert chain.execute(invocation) == 5
        assert order == ["outer-in", "inner-in", "inner-out", "outer-out"]

    def test_an_interceptor_links_into_one_chain_only(self, node):
        invoker = ContainerInvoker(node)
        InterceptorChain([invoker])
        with pytest.raises(ValueError, match="already linked"):
            InterceptorChain([Interceptor(), invoker])
        shared = Interceptor()
        with pytest.raises(ValueError, match="already linked"):
            InterceptorChain([shared, shared, ContainerInvoker(node)])

    def test_chain_without_dispatcher_raises(self):
        chain = InterceptorChain([])
        with pytest.raises(RuntimeError):
            chain.execute(Invocation(ObjectRef("A", "1"), "m", (), "n1"))

    @pytest.mark.parametrize("entry", ["run_server_chain", "invoke_local"])
    def test_a_server_chain_books_one_hop_where_it_starts(self, node, container, entry):
        """No interceptor charges: entering a server chain books exactly one
        ``interceptor_hop`` of two hops' seconds, before the chain runs."""
        container.create("Account", "a1")
        ledger = node.persistence.ledger
        before, seen = Counter(ledger.counts), []

        class Probe(Interceptor):
            def intercept(self, invocation):
                seen.append(Counter(ledger.counts) - before)
                return self.proceed(invocation)

        service = node.invocation_service
        service.server_chain = InterceptorChain([Probe(), ContainerInvoker(node)])
        ref = ObjectRef("Account", "a1")
        if entry == "run_server_chain":
            assert service.run_server_chain(Invocation(ref, "get_balance", (), "n1")) == 0
        else:
            assert service.invoke_local(ref, "get_balance") == 0
        assert seen == [{"interceptor_hop": 1}]
        assert Counter(ledger.counts) - before == {"interceptor_hop": 1}
        assert ledger.totals["interceptor_hop"] == 2 * COSTS["interceptor_hop"]


class TestInvocationSemantics:
    def test_write_detection_by_naming_convention(self):
        assert Invocation(ObjectRef("A", "1"), "set_x", (1,), "n").is_write
        assert not Invocation(ObjectRef("A", "1"), "get_x", (), "n").is_write
        # non-getter, non-setter methods are writes "to be on the safe side"
        assert Invocation(ObjectRef("A", "1"), "do_stuff", (), "n").is_write

    @pytest.mark.parametrize(
        "method, write",
        [("get_x", False), ("set_x", True), ("book", True), ("getaway", True)],
    )
    def test_read_or_write_is_decided_with_the_invocation(self, method, write):
        invocation = Invocation(ObjectRef("A", "1"), method, (), "n")
        # A fact stored in a slot when the invocation is made, not a
        # property: a property would show up here instead of a slot
        # descriptor.
        assert isinstance(
            inspect.getattr_static(Invocation, "is_write"), types.MemberDescriptorType
        )
        assert invocation.is_write is write

    def test_invoke_local_runs_server_chain(self, node, container):
        container.create("Account", "a1")
        node.invocation_service.server_chain = InterceptorChain([ContainerInvoker(node)])
        result = node.invocation_service.invoke_local(
            ObjectRef("Account", "a1"), "deposit", (3,)
        )
        assert result == 3

    def test_invoke_charges_base_cost(self, node, container):
        container.create("Account", "a1")
        node.invocation_service.client_chain = InterceptorChain([ContainerInvoker(node)])
        before = node.services.clock.now
        node.invocation_service.invoke(ObjectRef("Account", "a1"), "get_balance")
        assert node.services.clock.now >= before + COSTS["invocation_base"]

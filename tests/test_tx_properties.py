"""Property tests: transactional atomicity of entity state.

Random sequences of attribute writes inside a transaction leave no trace
after rollback and exactly their net effect after commit.
"""

from hypothesis import given, strategies as st

from repro.objects import Entity, Node
from repro.sim import CostLedger, SimClock
from repro.tx import TransactionManager, TransactionRolledBack


class Sheet(Entity):
    fields = {"x": 0, "y": 0, "z": 0}


def make_node():
    txmgr = TransactionManager()
    node = Node("n1", SimClock(), CostLedger(), txmgr)
    node.container.deploy(Sheet)
    return node, txmgr


writes = st.lists(
    st.tuples(st.sampled_from(["x", "y", "z"]), st.integers(-100, 100)),
    max_size=20,
)


@given(operations=writes)
def test_rollback_restores_exact_state(operations):
    node, txmgr = make_node()
    sheet = node.container.create("Sheet", "s1", {"x": 1, "y": 2, "z": 3})
    before_state = sheet.state()
    before_version = sheet.version
    tx = txmgr.begin()
    for field_name, value in operations:
        sheet._set(field_name, value)
    txmgr.rollback(tx)
    assert sheet.state() == before_state
    assert sheet.version == before_version


@given(operations=writes)
def test_commit_applies_net_effect(operations):
    node, txmgr = make_node()
    sheet = node.container.create("Sheet", "s1")
    expected = {"x": 0, "y": 0, "z": 0}
    tx = txmgr.begin()
    for field_name, value in operations:
        sheet._set(field_name, value)
        expected[field_name] = value
    txmgr.commit(tx)
    assert sheet.state() == expected
    assert sheet.version == len(operations)


@given(first=writes, second=writes)
def test_rolled_back_transaction_invisible_to_next(first, second):
    node, txmgr = make_node()
    sheet = node.container.create("Sheet", "s1")
    tx = txmgr.begin()
    for field_name, value in first:
        sheet._set(field_name, value)
    txmgr.rollback(tx)
    expected = {"x": 0, "y": 0, "z": 0}
    tx = txmgr.begin()
    for field_name, value in second:
        sheet._set(field_name, value)
        expected[field_name] = value
    txmgr.commit(tx)
    assert sheet.state() == expected


@given(operations=writes)
def test_rollback_only_transaction_never_leaks(operations):
    node, txmgr = make_node()
    sheet = node.container.create("Sheet", "s1")
    before = sheet.state()
    tx = txmgr.begin()
    for field_name, value in operations:
        sheet._set(field_name, value)
    tx.set_rollback_only("testing")
    try:
        txmgr.commit(tx)
    except TransactionRolledBack:
        pass
    else:
        assert not operations or sheet.state() == before  # commit impossible
    assert sheet.state() == before

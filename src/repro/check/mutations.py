"""Test-only middleware mutations: deliberate invariant breakage.

The model checker is only trustworthy if it can *fail*.  These context
managers inject targeted bugs into a live cluster — the kind of recovery
logic mistakes REL-style validation is meant to catch — so the mutation
smoke tests can assert that exploration finds each violation within a
bounded budget and shrinks it to a small repro.

Never use these outside tests/benchmarks: they exist to be caught.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator


@contextlib.contextmanager
def split_brain_primaries(cluster: Any) -> Iterator[None]:
    """Every node in a degraded partition routes writes to *itself*.

    Breaks the P4 guarantee of at most one (temporary) primary per
    partition: as soon as a partition with two or more members exists,
    two callers in it disagree on the write target — split brain.
    """
    manager = cluster.replication
    if manager is None:
        raise ValueError("split-brain mutation needs replication enabled")
    original = manager.route_write

    def broken(ref: Any, caller: Any) -> Any:
        target = original(ref, caller)
        partition = manager.gms.view_of(caller).members
        if caller in partition and len(partition) < len(manager.network.nodes):
            return caller  # everyone believes they are the primary
        return target

    manager.route_write = broken
    try:
        yield
    finally:
        del manager.route_write  # restore the class method


@contextlib.contextmanager
def skipped_threat_reevaluation(cluster: Any, node_id: str | None = None) -> Iterator[None]:
    """One node silently drops threat-resolution during reconciliation.

    The victim's threat store ignores ``remove``, so threats that
    reconciliation re-evaluated as satisfied stay persisted there while
    the run reports a clean outcome — exactly the "recovery logic forgot
    a step" bug class.  Violates threat accounting: a clean
    reconciliation of a healthy network must empty every store.
    """
    victim = node_id if node_id is not None else min(cluster.threat_stores)
    store = cluster.threat_stores[victim]

    def broken_remove(identity: Any) -> int:
        return 0  # pretend nothing was stored; rows silently survive

    store.remove = broken_remove
    try:
        yield
    finally:
        del store.remove  # restore the class method

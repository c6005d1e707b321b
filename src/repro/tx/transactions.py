"""Transactions and two-phase commit.

The dissertation keeps Atomicity, Isolation and Durability strictly bound
to transactions ("AID" transactions, Fig. 1.2) while replication and
constraint consistency operate on top.  The constraint consistency manager
registers itself as a *transactional resource* taking part in two-phase
commit (§4.2.3): soft constraints are validated during ``prepare`` and any
violation or rejected consistency threat marks the transaction
rollback-only, preventing a successful commit.

The simulation executes one business operation at a time, so isolation is
trivially provided; what matters for the reproduction is the commit
protocol, rollback-only marking, the undo map, and the per-transaction
registration of negotiation handlers (§3.2.1).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Protocol

from ..obs import ensure_obs


class TransactionStatus(enum.Enum):
    ACTIVE = "active"
    MARKED_ROLLBACK = "marked_rollback"
    PREPARING = "preparing"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"

    # Singletons: an identity hash in C, not Enum's Python-level one.
    __hash__ = object.__hash__


class TransactionRolledBack(RuntimeError):
    """Raised by ``commit`` when the transaction could not commit."""

    def __init__(self, tx: "Transaction", reason: str) -> None:
        super().__init__(f"transaction {tx.txid} rolled back: {reason}")
        self.tx = tx
        self.reason = reason


class TransactionalResource(Protocol):
    """Participant in two-phase commit."""

    def prepare(self, tx: "Transaction") -> bool:
        """Vote on commit.  Returning ``False`` vetoes the transaction."""

    def commit(self, tx: "Transaction") -> None:
        """Make the transaction's effects durable."""

    def rollback(self, tx: "Transaction") -> None:
        """Undo the transaction's effects."""


class Transaction:
    """A single business transaction.

    :attr:`is_active` — whether it still accepts work, i.e. its status is
    ``ACTIVE`` or ``MARKED_ROLLBACK`` — is a stored field that every
    status change sets beside :attr:`status`, since every entity write and
    every CCMgr notification reads it.

    :attr:`undo` maps each object a write changed to the image its first
    change noted; rollback hands them back newest first, as
    ``obj.roll_back(image)``, and completion sets it to ``None``.
    """

    _ids = itertools.count(1)

    def __init__(self, manager: "TransactionManager") -> None:
        self.txid = next(Transaction._ids)
        self.manager = manager
        self.status = TransactionStatus.ACTIVE
        self.is_active = True
        self.rollback_reason: str | None = None
        self._resources: list[TransactionalResource] = []
        self.undo: dict[Any, Any] | None = {}
        # Arbitrary per-transaction context used by the middleware, e.g. the
        # negotiation handler registered for this use case (§3.2.1) and the
        # set of objects accessed during constraint validation.
        self.context: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # enlistment
    # ------------------------------------------------------------------
    def enlist(self, resource: TransactionalResource) -> None:
        """Enlist a resource; duplicates are ignored."""
        if not self.is_active:
            self._require_active()
        if resource not in self._resources:
            self._resources.append(resource)

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------
    def set_rollback_only(self, reason: str = "") -> None:
        """Prevent the transaction from committing (CCMgr uses this on
        constraint violations, §4.2.3)."""
        if self.status is TransactionStatus.ACTIVE:
            self.status = TransactionStatus.MARKED_ROLLBACK
        if reason and not self.rollback_reason:
            self.rollback_reason = reason

    def _require_active(self) -> None:
        # Callers test ``is_active`` first, so a live transaction's per-op
        # path never enters this frame.
        if not self.is_active:
            raise RuntimeError(
                f"transaction {self.txid} is {self.status.value}, not active"
            )

    # internal: called by the manager ----------------------------------
    def _commit(self) -> None:
        if self.status is TransactionStatus.MARKED_ROLLBACK:
            self._rollback()
            raise TransactionRolledBack(
                self, self.rollback_reason or "marked rollback-only"
            )
        if not self.is_active:
            self._require_active()
        self.status = TransactionStatus.PREPARING
        self.is_active = False
        prepared: list[TransactionalResource] = []
        for resource in self._resources:
            vote = resource.prepare(self)
            prepared.append(resource)
            if vote is False or self.rollback_reason is not None and vote is not True:
                # A resource either vetoed outright or marked us
                # rollback-only during prepare (e.g. a violated soft
                # constraint).
                self.status = TransactionStatus.MARKED_ROLLBACK
                self.is_active = True
                self._rollback()
                raise TransactionRolledBack(
                    self, self.rollback_reason or "resource vetoed prepare"
                )
        for resource in self._resources:
            resource.commit(self)
        self.status = TransactionStatus.COMMITTED
        self.is_active = False
        self.undo = None

    def _rollback(self) -> None:
        if self.status in (TransactionStatus.COMMITTED, TransactionStatus.ROLLED_BACK):
            raise RuntimeError(f"transaction {self.txid} already completed")
        undo, self.undo = self.undo, None
        for obj, image in reversed(undo.items()):
            obj.roll_back(image)
        for resource in self._resources:
            resource.rollback(self)
        self.status = TransactionStatus.ROLLED_BACK
        self.is_active = False


class TransactionManager:
    """Begins, commits and rolls back transactions.

    The simulated cluster runs one request at a time, so the manager keeps
    a single "current" transaction (with support for joining an existing
    one, which models nested EJB invocations running in the caller's
    transaction context).  :attr:`current` is that transaction, or
    ``None``: a stored field, read on every entity write.
    """

    def __init__(self, obs: Any = None) -> None:
        self.current: Transaction | None = None
        self.committed_count = 0
        self.rolled_back_count = 0
        self.obs = ensure_obs(obs)

    def begin(self) -> Transaction:
        if self.current is not None and self.current.is_active:
            raise RuntimeError(
                f"transaction {self.current.txid} is still active"
            )
        self.current = Transaction(self)
        return self.current

    def commit(self, tx: Transaction) -> None:
        if tx is not self.current:
            self._require_current(tx)
        try:
            tx._commit()
            self.committed_count += 1
            if self.obs.enabled:
                self.obs.emit("tx_commit")
        except TransactionRolledBack:
            self.rolled_back_count += 1
            self._note_rollback(tx)
            raise
        finally:
            self.current = None

    def rollback(self, tx: Transaction) -> None:
        if tx is not self.current:
            self._require_current(tx)
        try:
            tx._rollback()
            self.rolled_back_count += 1
            self._note_rollback(tx)
        finally:
            self.current = None

    def _note_rollback(self, tx: Transaction) -> None:
        if self.obs.enabled:
            self.obs.emit("tx_rollback", reason=tx.rollback_reason)

    def run(self, body: Callable[[Transaction], Any]) -> Any:
        """Run ``body`` inside a fresh transaction; commit on success.

        Any exception from the body rolls the transaction back and is
        re-raised.
        """
        tx = self.begin()
        try:
            result = body(tx)
        except BaseException:
            if tx.is_active:
                self.rollback(tx)
            raise
        self.commit(tx)
        return result

    def _require_current(self, tx: Transaction) -> None:
        if tx is not self.current:
            raise RuntimeError(
                f"transaction {tx.txid} is not the current transaction"
            )

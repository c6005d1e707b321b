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
protocol, rollback-only marking, undo logging, and the per-transaction
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


#: The statuses in which a transaction still accepts work.
_LIVE = frozenset({TransactionStatus.ACTIVE, TransactionStatus.MARKED_ROLLBACK})


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
    """A single business transaction."""

    _ids = itertools.count(1)

    def __init__(self, manager: "TransactionManager") -> None:
        self.txid = next(Transaction._ids)
        self.manager = manager
        self.status = TransactionStatus.ACTIVE
        self.rollback_reason: str | None = None
        self._resources: list[TransactionalResource] = []
        self._undo_log: list[Callable[[], None]] = []
        self._after_completion: list[Callable[[bool], None]] = []
        # Arbitrary per-transaction context used by the middleware, e.g. the
        # negotiation handler registered for this use case (§3.2.1) and the
        # set of objects accessed during constraint validation.
        self.context: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # enlistment
    # ------------------------------------------------------------------
    def enlist(self, resource: TransactionalResource) -> None:
        """Enlist a resource; duplicates are ignored."""
        self._require_active()
        if resource not in self._resources:
            self._resources.append(resource)

    def log_undo(self, undo: Callable[[], None]) -> None:
        """Record an undo action, executed in reverse order on rollback."""
        self._require_active()
        self._undo_log.append(undo)

    def after_completion(self, callback: Callable[[bool], None]) -> None:
        """Register ``callback(committed)`` to run after 2PC finishes."""
        self._after_completion.append(callback)

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        return self.status in _LIVE

    def set_rollback_only(self, reason: str = "") -> None:
        """Prevent the transaction from committing (CCMgr uses this on
        constraint violations, §4.2.3)."""
        if self.status is TransactionStatus.ACTIVE:
            self.status = TransactionStatus.MARKED_ROLLBACK
        if reason and not self.rollback_reason:
            self.rollback_reason = reason

    def _require_active(self) -> None:
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
        self._require_active()
        self.status = TransactionStatus.PREPARING
        prepared: list[TransactionalResource] = []
        for resource in self._resources:
            vote = resource.prepare(self)
            prepared.append(resource)
            if vote is False or self.rollback_reason is not None and vote is not True:
                # A resource either vetoed outright or marked us
                # rollback-only during prepare (e.g. a violated soft
                # constraint).
                self.status = TransactionStatus.MARKED_ROLLBACK
                self._rollback()
                raise TransactionRolledBack(
                    self, self.rollback_reason or "resource vetoed prepare"
                )
        for resource in self._resources:
            resource.commit(self)
        self.status = TransactionStatus.COMMITTED
        self._undo_log.clear()
        self._fire_after_completion(True)

    def _rollback(self) -> None:
        if self.status in (TransactionStatus.COMMITTED, TransactionStatus.ROLLED_BACK):
            raise RuntimeError(f"transaction {self.txid} already completed")
        for undo in reversed(self._undo_log):
            undo()
        self._undo_log.clear()
        for resource in self._resources:
            resource.rollback(self)
        self.status = TransactionStatus.ROLLED_BACK
        self._fire_after_completion(False)

    def _fire_after_completion(self, committed: bool) -> None:
        callbacks, self._after_completion = self._after_completion, []
        for callback in callbacks:
            callback(committed)


class TransactionManager:
    """Begins, commits and rolls back transactions.

    The simulated cluster runs one request at a time, so the manager keeps
    a single "current" transaction (with support for joining an existing
    one, which models nested EJB invocations running in the caller's
    transaction context).
    """

    def __init__(self, obs: Any = None) -> None:
        self._current: Transaction | None = None
        self.committed_count = 0
        self.rolled_back_count = 0
        self.obs = ensure_obs(obs)
        self._m_commits = self.obs.registry.counter(
            "tx_commits_total", "transactions committed"
        )
        self._m_rollbacks = self.obs.registry.counter(
            "tx_rollbacks_total", "transactions rolled back"
        )

    @property
    def current(self) -> Transaction | None:
        return self._current

    def begin(self) -> Transaction:
        if self._current is not None and self._current.is_active:
            raise RuntimeError(
                f"transaction {self._current.txid} is still active"
            )
        self._current = Transaction(self)
        return self._current

    def require_current(self) -> Transaction:
        if self._current is None or not self._current.is_active:
            raise RuntimeError("no active transaction")
        return self._current

    def commit(self, tx: Transaction) -> None:
        self._require_current(tx)
        try:
            tx._commit()
            self.committed_count += 1
            if self.obs.enabled:
                self._m_commits.inc()
                self.obs.emit("tx_commit")
        except TransactionRolledBack:
            self.rolled_back_count += 1
            self._note_rollback(tx)
            raise
        finally:
            self._current = None

    def rollback(self, tx: Transaction) -> None:
        self._require_current(tx)
        try:
            tx._rollback()
            self.rolled_back_count += 1
            self._note_rollback(tx)
        finally:
            self._current = None

    def _note_rollback(self, tx: Transaction) -> None:
        if self.obs.enabled:
            self._m_rollbacks.inc()
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
        if tx is not self._current:
            raise RuntimeError(
                f"transaction {tx.txid} is not the current transaction"
            )

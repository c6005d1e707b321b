"""Transaction management: AID transactions with two-phase commit."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "transactions": (
        "Transaction", "TransactionManager", "TransactionRolledBack",
        "TransactionStatus", "TransactionalResource",
    ),
})

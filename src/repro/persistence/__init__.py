"""In-memory persistence with simulated access costs."""

from .._lazy import reexport

__getattr__, __dir__, __all__ = reexport(globals(), {
    "store": (
        "Journal", "JournalEntry", "PersistenceEngine", "StateHistory", "StateVersion",
        "Table",
    ),
})

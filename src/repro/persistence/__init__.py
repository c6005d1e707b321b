"""In-memory persistence with simulated access costs."""

from .store import (
    Journal,
    JournalEntry,
    PersistenceEngine,
    StateHistory,
    StateVersion,
    Table,
)

__all__ = [
    "Journal",
    "JournalEntry",
    "PersistenceEngine",
    "StateHistory",
    "StateVersion",
    "Table",
]

"""Built-in replint rules.

Importing this package registers every rule family with the engine:

* ``DET0xx`` — determinism of sim-reachable code (wall clock, global
  RNG, ``id()``, unordered set iteration).
* ``REG0xx`` — observability registry drift (emitted trace events vs.
  the canonical ``repro.obs.registry``).
* ``MSG0xx`` — message-kind exhaustiveness (every sent kind handled,
  every handled kind sent).
* ``META0xx`` — constraint metadata consistency (paper §4.2.2):
  affected methods exist, tradeable constraints declare a minimum
  satisfaction degree, ``validate`` only touches declared context state.
* ``PRB0xx`` — invariant probe purity (side-effect-free cluster reads).
* ``TRN0xx`` — transport clock boundary (machine-clock reads confined to
  ``repro.sim`` and ``repro.transport``).
* ``CONC0xx`` — concurrency discipline of the real transport backends
  (guarded-by lock coverage, event-loop blocking, lock ordering, locks
  across remote operations, unlocked lazy init), built on the
  interprocedural index in ``repro.analysis.interproc``.
* ``NODE0xx`` — node ownership: ``core/`` and ``replication/`` index the
  per-node tables only by the acting node, never by a loop over them.
"""

from . import (
    concurrency,
    constraints,
    determinism,
    messages,
    nodes,
    probes,
    reach,
    registry_drift,
    transport,
)

__all__ = [
    "concurrency",
    "constraints",
    "determinism",
    "messages",
    "nodes",
    "probes",
    "reach",
    "registry_drift",
    "transport",
]

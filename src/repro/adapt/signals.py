"""The observe side of the adaptation loop.

:class:`SignalReader` condenses the cluster's observable state into a
flat ``{signal_name: float}`` dict each engine tick.  Everything is
derived from simulated time and deterministic cluster state (sorted
iteration throughout), so the signal stream — and hence every decision
downstream of it — is a pure function of the scenario and seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import DedisysCluster

#: Signal names a :class:`~repro.adapt.policy.Condition` may reference.
SIGNALS: dict[str, str] = {
    "degraded": "1.0 while the network is partitioned, else 0.0",
    "degraded_duration": "simulated seconds the current degradation has lasted",
    "partition_count": "number of reachability components",
    "threat_backlog": "distinct threat identities pending across all stores",
    "threat_rate": "threat-backlog growth per simulated second since last read",
    "reconciliation_backlog": "deferred/postponed recon decisions plus queued update records",
}


class SignalReader:
    """Samples the cluster into the signal vocabulary above."""

    def __init__(self, cluster: "DedisysCluster") -> None:
        self.cluster = cluster
        self._degraded_since: float | None = None
        self._last_read_at: float | None = None
        self._last_backlog = 0

    # ------------------------------------------------------------------
    def read(self, now: float) -> dict[str, float]:
        """One sample; updates the reader's duration/rate bookkeeping."""
        cluster = self.cluster
        healthy = cluster.network.is_healthy()
        if healthy:
            self._degraded_since = None
        elif self._degraded_since is None:
            self._degraded_since = now
        duration = (
            0.0
            if self._degraded_since is None
            else max(0.0, now - self._degraded_since)
        )

        backlog = self._threat_backlog()
        if self._last_read_at is None or now <= self._last_read_at:
            rate = 0.0
        else:
            rate = (backlog - self._last_backlog) / (now - self._last_read_at)
        self._last_read_at = now
        self._last_backlog = backlog

        return {
            "degraded": 0.0 if healthy else 1.0,
            "degraded_duration": duration,
            "partition_count": float(len(cluster.network.partitions())),
            "threat_backlog": float(backlog),
            "threat_rate": rate,
            "reconciliation_backlog": float(self._reconciliation_backlog()),
        }

    # ------------------------------------------------------------------
    def _threat_backlog(self) -> int:
        identities: set[Any] = set()
        for node_id in sorted(self.cluster.threat_stores):
            identities.update(self.cluster.threat_stores[node_id].identities())
        return len(identities)

    def _reconciliation_backlog(self) -> int:
        backlog = 0
        last = self.cluster.last_reconciliation
        if last is not None:
            backlog += int(getattr(last, "deferred", 0))
            backlog += int(getattr(last, "postponed", 0))
        if self.cluster.replication is not None:
            backlog += len(self.cluster.replication.pending_update_records())
        return backlog

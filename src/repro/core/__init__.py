"""The PerDNN system core (paper §3).

* :class:`PerDNNConfig` — every tunable of the system in one place.
* :class:`EdgeServer` — per-cell server: GPU contention state, per-client
  layer cache with TTL, nvml-style statistics.
* :class:`MobileClient` — one client running one DNN model: its server,
  model version, upload backoff and breakers.
* :class:`MasterServer` — the controller: GPU-aware partitioning via the
  execution-time estimator, mobility prediction, proactive (optionally
  fractional) migration of server-side layers over the backhaul.
"""

from repro.core.config import PerDNNConfig
from repro.core.edge_server import CachedModel, EdgeServer
from repro.core.client import MobileClient
from repro.core.master import MasterServer, MigrationPolicy
from repro.core.collaboration import (
    CollaborativeResult,
    execute_collaboratively,
)
from repro.core.routing import (
    RoutedTensors,
    routed_tensors,
    routing_overhead_seconds,
)

__all__ = [
    "PerDNNConfig",
    "EdgeServer",
    "CachedModel",
    "MobileClient",
    "MasterServer",
    "MigrationPolicy",
    "CollaborativeResult",
    "execute_collaboratively",
    "RoutedTensors",
    "routed_tensors",
    "routing_overhead_seconds",
]

"""Simulation harness: the paper's evaluation scenarios (§4).

* :mod:`repro.simulation.query_loop` — the continuous query/upload
  integration shared by all scenarios (0.5 s inter-query gap workload).
* :mod:`repro.simulation.single_client` — Fig 1, Fig 7, Table II: one
  client handing off between two edge servers.
* :mod:`repro.simulation.large_scale` — Fig 9, §4.B.4, Fig 10: a whole
  region of mobile users, proactive migration, backhaul traffic.
"""

from repro.simulation.query_loop import (
    WindowOutcome,
    run_local_window,
    run_query_window,
)
from repro.simulation.single_client import (
    HandoffResult,
    UploadThroughput,
    simulate_handoff,
    upload_window_throughput,
)
from repro.simulation.large_scale import (
    LargeScaleResult,
    SimulationSettings,
    run_large_scale,
)
from repro.simulation.multi_handoff import (
    HandoffChainResult,
    simulate_handoff_chain,
)
from repro.simulation.sharding import (
    ShardPlan,
    plan_shards,
    run_large_scale_sharded,
    shard_seed,
)
from repro.simulation.checkpoint import (
    CheckpointStore,
    ShardRecord,
    run_fingerprint,
)
from repro.simulation.supervisor import (
    ShardError,
    ShardFailure,
    SupervisionReport,
    SupervisorConfig,
    retry_delay,
    supervise,
)

__all__ = [
    "WindowOutcome",
    "run_local_window",
    "run_query_window",
    "HandoffResult",
    "UploadThroughput",
    "simulate_handoff",
    "upload_window_throughput",
    "SimulationSettings",
    "LargeScaleResult",
    "run_large_scale",
    "ShardPlan",
    "plan_shards",
    "run_large_scale_sharded",
    "shard_seed",
    "CheckpointStore",
    "ShardRecord",
    "run_fingerprint",
    "ShardError",
    "ShardFailure",
    "SupervisionReport",
    "SupervisorConfig",
    "retry_delay",
    "supervise",
    "HandoffChainResult",
    "simulate_handoff_chain",
]

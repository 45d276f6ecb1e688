"""Single-client handoff experiments (§4.A: Fig 1, Fig 7, Table II).

One client offloads to edge server A, then changes to edge server B.  With
IONN (no proactive migration) the client re-uploads from scratch at B and
query latency spikes; with PerDNN, B already holds the first
``premigrated_bytes`` of the upload schedule and the spike shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import PerDNNConfig
from repro.partitioning.partitioner import DNNPartitioner
from repro.simulation.query_loop import run_query_window


@dataclass(frozen=True)
class HandoffResult:
    """Per-query latencies across a server change."""

    latencies: tuple[float, ...]  # seconds, per query
    switch_query_index: int  # first query served by the new server
    migrated_bytes: float
    peak_latency_after_switch: float

    @property
    def num_queries(self) -> int:
        return len(self.latencies)


def simulate_handoff(
    partitioner: DNNPartitioner,
    config: PerDNNConfig,
    num_queries: int = 40,
    switch_after: int = 20,
    premigrated_bytes: float = 0.0,
    server_slowdown: float = 1.0,
) -> HandoffResult:
    """Execute ``num_queries`` queries with a server change after
    ``switch_after`` of them.

    Server A starts empty (the client uploads incrementally, as in IONN);
    at the switch, server B starts with ``premigrated_bytes`` of the upload
    schedule already cached (0 reproduces the paper's IONN baseline in
    Fig 1; >0 reproduces the PM curves of Fig 7).
    """
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    if not 0 < switch_after < num_queries:
        raise ValueError("switch_after must fall inside the query sequence")
    result = partitioner.partition(server_slowdown)
    schedule = result.schedule
    total = schedule.total_bytes
    premigrated_bytes = min(premigrated_bytes, total)
    byte_rate = config.network.uplink_bps / 8.0
    latencies: list[float] = []
    received = 0.0
    clock = 0.0
    for index in range(num_queries):
        if index == switch_after:
            # Handoff: the new server holds only the premigrated prefix.
            received = premigrated_bytes
        latency = schedule.latency_after_bytes(received)
        latencies.append(latency)
        elapsed = latency + config.query_gap_seconds
        clock += elapsed
        received = min(total, received + byte_rate * elapsed)
    after_switch = latencies[switch_after:]
    return HandoffResult(
        latencies=tuple(latencies),
        switch_query_index=switch_after,
        migrated_bytes=premigrated_bytes,
        peak_latency_after_switch=max(after_switch),
    )


@dataclass(frozen=True)
class UploadThroughput:
    """Table II: queries executed while a full model upload would run."""

    upload_seconds: float
    miss_queries: int  # incremental upload from scratch (IONN)
    hit_queries: int  # all layers already present (PerDNN hit)


def upload_window_throughput(
    partitioner: DNNPartitioner,
    config: PerDNNConfig,
    server_slowdown: float = 1.0,
) -> UploadThroughput:
    """Queries executed during the model-upload window, miss vs hit."""
    result = partitioner.partition(server_slowdown)
    schedule = result.schedule
    upload_seconds = schedule.total_bytes * 8.0 / config.network.uplink_bps
    miss = run_query_window(
        schedule,
        start_bytes=0.0,
        uplink_bps=config.network.uplink_bps,
        duration=upload_seconds,
        query_gap=config.query_gap_seconds,
        uploading=True,
    )
    hit = run_query_window(
        schedule,
        start_bytes=schedule.total_bytes,
        uplink_bps=config.network.uplink_bps,
        duration=upload_seconds,
        query_gap=config.query_gap_seconds,
        uploading=False,
    )
    return UploadThroughput(
        upload_seconds=upload_seconds,
        miss_queries=miss.count,
        hit_queries=hit.count,
    )

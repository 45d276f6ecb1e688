"""Efficiency-greedy upload ordering (paper §3.C.2, after Shin et al.).

Given a partitioning plan, the server-side layers must be shipped to the
edge server (by the client over the wireless uplink, or between servers
over the backhaul for proactive migration).  The paper sends
highest-benefit-per-byte first:

    "We create the partitions of the server-side layers, which are all
     possible successive layers in the server-side layers, and calculate
     the efficiency of each partition.  Then, we decide to upload a
     partition with the highest efficiency first and update the efficiency
     of the remaining partitions."

Here *efficiency* of a contiguous run of layers is the query-latency
reduction it enables divided by its weight bytes.  Each greedy round
evaluates every contiguous candidate run still missing, with boundary
transfer costs that account for runs already scheduled (an adjacent
already-scheduled run absorbs a network crossing).  This makes
compute-dense, low-weight convolution runs — Inception's front stem — go
first, the structural effect behind Fig 7 and fractional migration.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.partitioning.execution_graph import ExecutionCosts
from repro.partitioning.shortest_path import PartitionPlan, constrained_latency

_MIN_BYTES = 1.0  # avoid division by zero for weightless runs


@dataclass(frozen=True)
class UploadChunk:
    """One contiguous run of layers scheduled for a single transfer."""

    indices: tuple[int, ...]  # topological positions
    layer_names: tuple[str, ...]
    nbytes: float
    efficiency: float  # seconds saved per byte, at selection time
    benefit: float  # seconds saved, at selection time


@dataclass(frozen=True)
class UploadSchedule:
    """Ordered chunks plus the query latency after each chunk arrives.

    ``latencies[k]`` is the best query latency once chunks ``0..k-1`` are
    available on the server (``latencies[0]`` is the no-upload latency);
    ``latencies[-1]`` equals the plan's final latency.
    """

    chunks: tuple[UploadChunk, ...]
    latencies: tuple[float, ...]

    def __post_init__(self) -> None:
        # A zero latency never advances the query loop's clock.
        if not all(latency > 0 for latency in self.latencies):
            raise ValueError("latencies must be positive")

    @cached_property
    def total_bytes(self) -> float:
        # Same left-to-right running sum as :meth:`cumulative_bytes`, cached
        # because the simulator reads it once per client per interval.
        return sum(chunk.nbytes for chunk in self.chunks)

    def cumulative_bytes(self) -> list[float]:
        total = 0.0
        out = []
        for chunk in self.chunks:
            total += chunk.nbytes
            out.append(total)
        return out

    @cached_property
    def _cumulative(self) -> np.ndarray:
        return np.cumsum([chunk.nbytes for chunk in self.chunks])

    @cached_property
    def _cumulative_list(self) -> list[float]:
        return self._cumulative.tolist()

    def latency_after_bytes(self, received_bytes: float) -> float:
        """Query latency once ``received_bytes`` of the schedule arrived."""
        if not self.chunks:
            return self.latencies[0]
        # bisect_right on the same cumulative values np.searchsorted
        # (side="right") would scan — identical index, ~30x less overhead.
        stage = bisect_right(self._cumulative_list, received_bytes + 1e-9)
        return self.latencies[stage]

    def chunks_within_bytes(self, byte_budget: float) -> tuple[UploadChunk, ...]:
        """Prefix of the schedule fitting in ``byte_budget`` bytes."""
        out = []
        total = 0.0
        for chunk in self.chunks:
            if total + chunk.nbytes > byte_budget + 1e-9:
                break
            total += chunk.nbytes
            out.append(chunk)
        return tuple(out)


def _segment_candidates(
    start: int,
    end: int,
    diff_prefix: np.ndarray,
    weight_prefix: np.ndarray,
    up: np.ndarray,
    down: np.ndarray,
    left_adjacent: bool,
    right_adjacent: bool,
) -> tuple[float, int, int, float, float] | None:
    """Best (efficiency, i, j, benefit, bytes) run inside segment [start, end].

    ``left_adjacent``/``right_adjacent`` say whether the layer just before
    ``start`` / just after ``end`` is already scheduled on the server, which
    changes which network crossings a candidate run absorbs.
    """
    length = end - start + 1
    offsets = np.arange(length)
    i_idx = start + offsets[:, None]  # run start (absolute)
    j_idx = start + offsets[None, :]  # run end (absolute)
    valid = j_idx >= i_idx
    gain = diff_prefix[j_idx + 1] - diff_prefix[i_idx]
    nbytes = weight_prefix[j_idx + 1] - weight_prefix[i_idx]
    # Entry cost at boundary i: absorbed when the run starts at `start` and
    # the left neighbour is scheduled (crossing there disappears: we gain the
    # downlink crossing that used to exist).
    entry = np.where(
        left_adjacent & (i_idx == start), -down[i_idx], up[i_idx]
    )
    # Exit cost at boundary j+1: absorbed when the run ends at `end` and the
    # right neighbour is scheduled (its entry upload disappears).
    exit_ = np.where(
        right_adjacent & (j_idx == end), -up[j_idx + 1], down[j_idx + 1]
    )
    benefit = np.where(valid, gain - entry - exit_, -np.inf)
    efficiency = benefit / np.maximum(nbytes, _MIN_BYTES)
    flat = int(np.argmax(efficiency))
    i_best, j_best = np.unravel_index(flat, efficiency.shape)
    if not np.isfinite(efficiency[i_best, j_best]):
        return None
    return (
        float(efficiency[i_best, j_best]),
        int(i_idx[i_best, 0]),
        int(j_idx[0, j_best]),
        float(benefit[i_best, j_best]),
        float(nbytes[i_best, j_best]),
    )


def _subdivide(
    chunks: list[UploadChunk],
    costs: ExecutionCosts,
    max_chunk_bytes: float,
) -> list[UploadChunk]:
    """Split chunks into contiguous sub-runs of at most ``max_chunk_bytes``.

    Finer granularity smooths the incremental-offloading latency curve (a
    client re-plans after every completed transfer); single layers larger
    than the cap (e.g. a huge fc) become their own chunk.
    """
    out: list[UploadChunk] = []
    for chunk in chunks:
        group: list[int] = []
        group_bytes = 0.0
        for index in chunk.indices:
            layer_bytes = float(costs.weight_bytes[index])
            if group and group_bytes + layer_bytes > max_chunk_bytes:
                out.append(_make_sub_chunk(chunk, group, group_bytes, costs))
                group, group_bytes = [], 0.0
            group.append(index)
            group_bytes += layer_bytes
        if group:
            out.append(_make_sub_chunk(chunk, group, group_bytes, costs))
    return out


def _make_sub_chunk(
    parent: UploadChunk, indices: list[int], nbytes: float, costs: ExecutionCosts
) -> UploadChunk:
    share = nbytes / parent.nbytes if parent.nbytes > 0 else 0.0
    return UploadChunk(
        indices=tuple(indices),
        layer_names=tuple(costs.layer_names[k] for k in indices),
        nbytes=nbytes,
        efficiency=parent.efficiency,
        benefit=parent.benefit * share,
    )


def build_upload_schedule(
    costs: ExecutionCosts, plan: PartitionPlan, max_chunk_bytes: float | None = None
) -> UploadSchedule:
    """Greedy highest-efficiency-first ordering of the plan's server layers."""
    server = sorted(plan.server_indices)
    if not server:
        latency = constrained_latency(costs, frozenset())
        return UploadSchedule(chunks=(), latencies=(latency,))
    server_set = set(server)
    diff = costs.client_times - costs.server_times
    diff_prefix = np.concatenate([[0.0], np.cumsum(diff)])
    weight_prefix = np.concatenate([[0.0], np.cumsum(costs.weight_bytes)])
    up = costs.cut_bytes * 8.0 / costs.uplink_bps
    down = costs.cut_bytes * 8.0 / costs.downlink_bps
    scheduled: set[int] = set()
    chunks: list[UploadChunk] = []
    while len(scheduled) < len(server_set):
        remaining = sorted(server_set - scheduled)
        # Maximal contiguous segments of remaining layers.
        segments: list[tuple[int, int]] = []
        seg_start = remaining[0]
        prev = remaining[0]
        for index in remaining[1:]:
            if index != prev + 1:
                segments.append((seg_start, prev))
                seg_start = index
            prev = index
        segments.append((seg_start, prev))
        best: tuple[float, int, int, float, float] | None = None
        for start, end in segments:
            candidate = _segment_candidates(
                start,
                end,
                diff_prefix,
                weight_prefix,
                up,
                down,
                left_adjacent=(start - 1) in scheduled,
                right_adjacent=(end + 1) in scheduled,
            )
            if candidate is not None and (best is None or candidate[0] > best[0]):
                best = candidate
        assert best is not None, "remaining segments must yield a candidate"
        _, i, j, benefit, nbytes = best
        indices = tuple(range(i, j + 1))
        scheduled.update(indices)
        chunks.append(
            UploadChunk(
                indices=indices,
                layer_names=tuple(costs.layer_names[k] for k in indices),
                nbytes=nbytes,
                efficiency=best[0],
                benefit=benefit,
            )
        )
    if max_chunk_bytes is not None:
        if max_chunk_bytes <= 0:
            raise ValueError("max_chunk_bytes must be positive")
        chunks = _subdivide(chunks, costs, max_chunk_bytes)
    # Exact query latency after each chunk, via the constrained DP.
    latencies = [constrained_latency(costs, frozenset())]
    available: set[str] = set()
    for chunk in chunks:
        available.update(chunk.layer_names)
        latencies.append(constrained_latency(costs, frozenset(available)))
    return UploadSchedule(chunks=tuple(chunks), latencies=tuple(latencies))

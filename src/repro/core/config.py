"""System-wide configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.network.links import LAB_WIFI, NetworkSpeed


@dataclass(frozen=True)
class PerDNNConfig:
    """Every tunable of the PerDNN system, defaulted to the paper's values.

    * wireless: the authors' lab Wi-Fi (50 Mbps down / 35 Mbps up),
    * 50 m hex cells (typical Wi-Fi AP service range),
    * query gap 0.5 s (the cognitive-assistance workload),
    * trajectory history n = 5, proactive-migration radius r, TTL = 5
      intervals,
    """

    network: NetworkSpeed = field(default_factory=lambda: LAB_WIFI)
    cell_radius_m: float = 50.0
    # Backhaul link characteristics, used by the §3.A routing alternative
    # (queries relayed from the access cell to a remote serving cell).
    backhaul_bps: float = 1e9
    backhaul_hop_latency_s: float = 2.5e-3
    # Handover hysteresis: a client re-associates only when the candidate
    # cell's centre is this much closer than the current one (metres).
    # 0 = immediate cell-boundary handovers (the paper's implicit model).
    handover_hysteresis_m: float = 0.0
    query_gap_seconds: float = 0.5
    prediction_history: int = 5
    migration_radius_m: float = 100.0
    ttl_intervals: int = 5
    # A visit counts as a `hit` when at least this share of the plan's
    # server-side bytes is already cached (1.0 = the paper's strict "all
    # layers received" definition; kept configurable for ablations).
    hit_byte_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not (self.cell_radius_m > 0 and math.isfinite(self.cell_radius_m)):
            raise ValueError("cell_radius_m must be positive and finite")
        if not (self.backhaul_bps > 0 and math.isfinite(self.backhaul_bps)):
            raise ValueError("backhaul_bps must be positive and finite")
        if not (
            self.backhaul_hop_latency_s >= 0
            and math.isfinite(self.backhaul_hop_latency_s)
        ):
            raise ValueError(
                "backhaul_hop_latency_s must be non-negative and finite"
            )
        if not self.handover_hysteresis_m >= 0:  # NaN too
            raise ValueError("handover_hysteresis_m must be non-negative")
        if not (
            self.query_gap_seconds >= 0
            and math.isfinite(self.query_gap_seconds)
        ):
            raise ValueError("query_gap_seconds must be non-negative and finite")
        if self.prediction_history < 1:
            raise ValueError("prediction_history must be >= 1")
        if not self.migration_radius_m >= 0:  # NaN too
            raise ValueError("migration_radius_m must be non-negative")
        if self.ttl_intervals < 1:
            raise ValueError("ttl_intervals must be >= 1")
        if not 0.0 < self.hit_byte_fraction <= 1.0:
            raise ValueError("hit_byte_fraction must be in (0, 1]")

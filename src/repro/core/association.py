"""Client-to-server association with handover hysteresis.

The paper's simulator re-associates a client the instant its position
crosses a hex-cell boundary.  Real Wi-Fi clients apply *hysteresis*: they
stick to the current AP until a candidate is clearly better, which
suppresses boundary ping-pong (and with it, spurious cold starts).  This
module provides that decision rule as a pure function; the large-scale
simulator applies it when ``PerDNNConfig.handover_hysteresis_m > 0``.
"""

from __future__ import annotations

from repro.geo.geometry import euclidean
from repro.geo.wifi import EdgeServerRegistry


def decide_association(
    registry: EdgeServerRegistry,
    position: tuple[float, float],
    current_server: int | None,
    hysteresis_m: float = 0.0,
) -> int | None:
    """The server the client should be associated with at ``position``.

    Returns the current server unless the position's cell has a different
    server whose centre is at least ``hysteresis_m`` closer than the
    current server's centre.  Returns ``None`` only when no server covers
    the position and none is currently held.
    """
    if hysteresis_m < 0:
        raise ValueError("hysteresis_m must be non-negative")
    candidate = registry.server_at(position)
    if current_server is None:
        return candidate
    if candidate is None or candidate == current_server:
        return current_server
    if hysteresis_m == 0.0:
        return candidate
    current_distance = euclidean(
        position, registry.server_location(current_server)
    )
    candidate_distance = euclidean(
        position, registry.server_location(candidate)
    )
    if candidate_distance + hysteresis_m <= current_distance:
        return candidate
    return current_server


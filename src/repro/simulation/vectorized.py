"""The vectorized association pass.

Deciding every client's association one call at a time is a chain of
per-client Python calls (``cell_of`` -> dict probe -> hysteresis
comparison).  At city scale that chain *is* the runtime, so the
large-scale simulator gathers every active client's position from its
replay table into one ``(n, 2)`` float64 array, their current servers
into one int64 array (-1 = unassociated), and proposes every next
association in one vectorized ``cells_of`` + ``servers_for_cells`` pass.

Bit-exactness contract: every array pass reproduces the scalar helpers'
arithmetic operation for operation (and falls back to the scalar helper
outright for the rare hysteresis tie-breaks), so a run exports the same
telemetry bytes as one deciding each client with
:func:`~repro.core.association.decide_association`.
"""

from __future__ import annotations

import numpy as np

from repro.core.association import decide_association
from repro.geo.wifi import EdgeServerRegistry


def propose_associations(
    registry: EdgeServerRegistry,
    positions: np.ndarray,
    current_servers: np.ndarray,
    hysteresis_m: float,
) -> np.ndarray:
    """Vectorized :func:`~repro.core.association.decide_association`.

    ``positions`` is ``(n, 2)``; ``current_servers`` is ``(n,)`` int64
    with -1 for unassociated clients.  Returns the proposed server id per
    client (-1 only when both candidate and current are absent).  The
    decision table mirrors the scalar function:

    * no current server -> take the covering cell's candidate;
    * no candidate, or candidate == current -> keep current;
    * zero hysteresis -> take the candidate;
    * otherwise defer to the scalar helper for the exact distance
      comparison (identical float ops, identical result).
    """
    if hysteresis_m < 0:
        raise ValueError("hysteresis must be non-negative")
    candidates = registry.servers_at_points(positions)
    current = np.asarray(current_servers, dtype=np.int64)
    proposals = candidates.copy()
    keep = (current >= 0) & ((candidates < 0) | (candidates == current))
    proposals[keep] = current[keep]
    if hysteresis_m > 0.0:
        contested = (current >= 0) & (candidates >= 0) & (candidates != current)
        for i in np.nonzero(contested)[0]:
            decided = decide_association(
                registry,
                (positions[i, 0], positions[i, 1]),
                int(current[i]),
                hysteresis_m,
            )
            proposals[i] = -1 if decided is None else decided
    return proposals

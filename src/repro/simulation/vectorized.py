"""Struct-of-arrays client state and vectorized interval passes.

Deciding every client's association one call at a time is a chain of
per-client Python calls (``cell_of`` -> dict probe -> hysteresis
comparison).  At city scale that chain *is* the runtime, so the
large-scale simulator keeps client state mirrored in flat numpy arrays
and turns the movement/association phase into a handful of array
passes:

* positions of every active client in one ``(n, 2)`` float64 buffer;
* current association in one int64 array (-1 = unassociated);
* one vectorized ``cells_of`` + ``servers_for_cells`` pass proposing the
  next association for every client at once.

Bit-exactness contract: every array pass reproduces the scalar helpers'
arithmetic operation for operation (and falls back to the scalar helper
outright for the rare hysteresis tie-breaks), so a run exports the same
telemetry bytes as one deciding each client with
:func:`~repro.core.association.decide_association`.
"""

from __future__ import annotations

import numpy as np

from repro.core.association import decide_association
from repro.core.client import MobileClient
from repro.geo.wifi import EdgeServerRegistry


class ClientArrays:
    """Flat per-client state mirror for the vectorized interval passes.

    Rows are indexed by ``client_id`` (which equals the client's index in
    the driver's client list).  ``refresh`` reloads the interval's active
    rows from the client objects at the top of each interval — client
    objects stay the source of truth (faults and overload mutate them
    mid-interval), the arrays are the vector view the batched passes
    consume.  ``set_association`` is for callers that prefer to push
    updates eagerly instead of rescanning.
    """

    def __init__(self, num_clients: int) -> None:
        self.positions = np.zeros((num_clients, 2), dtype=float)
        self.current_server = np.full(num_clients, -1, dtype=np.int64)

    @classmethod
    def from_clients(cls, clients: list[MobileClient]) -> "ClientArrays":
        arrays = cls(len(clients))
        for client in clients:
            if client.current_server is not None:
                arrays.current_server[client.client_id] = client.current_server
        return arrays

    def refresh(
        self, active: list[MobileClient], positions: list[np.ndarray]
    ) -> np.ndarray:
        """Load this interval's positions/associations; returns the active
        row indices (client ids) as an int array."""
        ids = np.fromiter(
            (client.client_id for client in active),
            dtype=np.int64,
            count=len(active),
        )
        if len(active):
            self.positions[ids] = positions
            self.current_server[ids] = [
                -1 if client.current_server is None else client.current_server
                for client in active
            ]
        return ids

    def set_association(self, client_id: int, server_id: int | None) -> None:
        self.current_server[client_id] = -1 if server_id is None else server_id


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

"""Oracles for the per-request overload path.

Verbatim copies of the functions a flash-crowd run calls once per shed
request, as they were before the one-pass redirect, the per-interval
down set and the single-row forest walk:

* :func:`redirect_target` — ``MasterServer.redirect_target``, which
  filtered the radius neighbourhood into a list and then picked the
  minimum through :func:`least_loaded_server`;
* :func:`least_loaded_server` — the selection helper it called;
* :func:`server_down` — ``FaultSchedule.server_down``, a scan over the
  server's crash windows;
* :func:`server_available` — ``MasterServer.server_available``, which
  asked :func:`server_down` per server;
* :func:`forest_predict` — ``RandomForestRegressor.predict``, which sent
  every row count through the stacked level-synchronous walk.

:func:`patched` installs all of them on the production classes for the
duration of a ``with`` block.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.master import MasterServer
from repro.faults.schedule import FaultSchedule
from repro.geo.geometry import euclidean
from repro.ml.forest import RandomForestRegressor


def least_loaded_server(
    candidates: Iterable[int],
    load_of: Callable[[int], float],
    distance_of: Callable[[int], float],
) -> int | None:
    """Load-aware server selection for redirected clients.

    Picks the candidate with the lowest load (queue depth or client
    count), breaking ties by distance and then by server id so the
    choice is deterministic.  Returns ``None`` for an empty candidate
    set.
    """
    return min(
        candidates,
        key=lambda server_id: (
            load_of(server_id), distance_of(server_id), server_id
        ),
        default=None,
    )


def redirect_target(
    self,
    position: tuple[float, float],
    interval: int,
    radius_m: float,
    load_of: Callable[[int], float] | None = None,
    exclude: Iterable[int] = (),
    require: Callable[[int], bool] | None = None,
    admission=None,
) -> int | None:
    """Least-loaded reachable live server for a redirected client.

    Candidates are the servers within ``radius_m`` of ``position``
    that are up at ``interval``, minus ``exclude`` (typically the
    saturated home server) and anything failing ``require`` (e.g. an
    admission-capacity check).  ``load_of`` defaults to the client
    count; the simulator passes the admission controller's queue
    depth so selection folds in this interval's actual backlog.

    ``admission`` stands for the ``load_of``/``require`` pair the
    simulator passed before the parameter replaced them.
    """
    if admission is not None:
        load_of = admission.depth_of
        require = lambda s: admission.has_capacity(self.server(s))  # noqa: E731
    excluded = set(exclude)
    candidates = [
        server_id
        for server_id in self.registry.servers_within(position, radius_m)
        if server_id not in excluded
        and self.server_available(server_id, interval)
        and (require is None or require(server_id))
    ]
    return least_loaded_server(
        candidates,
        load_of or self.association_load,
        lambda server_id: euclidean(
            position, self.registry.server_location(server_id)
        ),
    )


def server_down(self, server_id: int, interval: int) -> bool:
    windows = self._down.get(server_id)
    if not windows:
        return False
    return any(w.contains(interval) for w in windows)


def server_available(self, server_id: int, interval: int) -> bool:
    """Is the server up at ``interval`` under the run's fault schedule?"""
    if self.fault_schedule is None:
        return True
    return not self.fault_schedule.server_down(server_id, interval)


def forest_predict(self, X: np.ndarray) -> np.ndarray:
    if not self._trees:
        raise RuntimeError("forest has not been fitted")
    X = self._trees[0]._validate_X(X)
    return self._stacked.predict_all(X).mean(axis=0)


@contextmanager
def patched() -> Iterator[None]:
    """Run the block with every oracle installed on its production class.

    Forked shard workers inherit the patched classes, so sharded runs at
    ``workers > 1`` use the oracles too.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MasterServer, "redirect_target", redirect_target)
        mp.setattr(MasterServer, "server_available", server_available)
        mp.setattr(FaultSchedule, "server_down", server_down)
        mp.setattr(RandomForestRegressor, "predict", forest_predict)
        yield

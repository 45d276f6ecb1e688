"""Span tracing for the traced benchmark run, installed from outside ``src/``.

:func:`traced` replaces each layer's public function or method (the
:data:`PATCHES` table) with a timing wrapper for the duration of a
``with`` block and puts every original back when the block ends, also
on error, so untraced runs time unmodified code.  Spans are aggregated in
memory by a :class:`Tracer` — calls, inclusive seconds, self seconds
(inclusive minus the traced spans nested inside) and a per-layer row
count — and read once when the run ends.

Shard workers are forked from the traced driver, so they inherit the
wrappers.  A worker resets its inherited tracer, runs its shard, and
returns its spans inside the shard result (``extras``); the driver folds
them back in when the result is turned into a merge record, before the
merge reads it.  Nothing the wrappers do reaches the telemetry registry.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

#: Key under which a worker ships its spans in ``LargeScaleResult.extras``.
SPANS_KEY = "perfbench.spans"

#: Spans whose every duration is kept (for per-shard percentiles).
SAMPLED = frozenset({"large_scale.run"})


class Tracer:
    """In-memory span aggregate: ``name -> [calls, seconds, self_s, rows]``."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.totals: dict[str, list[float]] = {}
        self.samples: dict[str, list[float]] = {}
        #: Seconds shard workers spent in their shard job (out of process).
        self.worker_busy = 0.0
        self._stack: list[float] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        rows: Callable[[tuple, dict, Any], float] | None = None,
    ) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = tracer.totals.setdefault(name, [0, 0.0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
                if rows is not None:
                    entry[3] += rows(args, kwargs, out)
                if name in SAMPLED:
                    tracer.samples.setdefault(name, []).append(elapsed)

        return wrapper

    def export(self) -> dict:
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def absorb(self, exported: dict, busy_seconds: float) -> None:
        """Fold in the spans a worker process shipped back."""
        for name, values in exported["totals"].items():
            entry = self.totals.setdefault(name, [0, 0.0, 0.0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value
        for name, values in exported["samples"].items():
            self.samples.setdefault(name, []).extend(values)
        self.worker_busy += busy_seconds

    def calls(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0, 0.0])[2]

    def rows(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0, 0.0])[3]


def _first_len(args: tuple, kwargs: dict, out: Any) -> float:
    """Row count of a batch call: the length of its first argument after
    ``self`` (``predict(X)``, ``predict_points(windows)``, ...)."""
    batch = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    return float(len(batch))


def _file_bytes(args: tuple, kwargs: dict, out: Any) -> float:
    """Bytes of the file a store method wrote (it returns the path)."""
    return float(os.path.getsize(out)) if out is not None else 0.0


@dataclass(frozen=True)
class Patch:
    """One attribute to wrap: ``owner.attr`` becomes a span ``name``."""

    module: str
    owner: str | None  # class name inside the module; None for a function
    attr: str
    name: str
    rows: Callable[[tuple, dict, Any], float] | None = None

    def target(self) -> Any:
        import importlib

        module = importlib.import_module(self.module)
        return module if self.owner is None else getattr(module, self.owner)


#: Every layer boundary the traced run times.  Module-level functions are
#: patched where the caller looks them up (``large_scale`` and
#: ``sharding`` import them by name); methods on the class defining them.
PATCHES: tuple[Patch, ...] = (
    Patch("repro.simulation.sharding", None, "run_large_scale_sharded",
          "sharding.run"),
    Patch("repro.simulation.sharding", None, "plan_shards",
          "sharding.plan_shards"),
    Patch("repro.simulation.sharding", None, "supervise",
          "sharding.supervise"),
    Patch("repro.simulation.sharding", None, "merge_registries",
          "telemetry.merge_registries"),
    Patch("repro.simulation.sharding", None, "run_large_scale",
          "large_scale.run"),
    Patch("repro.simulation.checkpoint", "ShardDatasetStore", "store",
          "checkpoint.dataset_store", _file_bytes),
    Patch("repro.simulation.checkpoint", "ShardDatasetStore", "read",
          "checkpoint.dataset_read"),
    Patch("repro.simulation.checkpoint", "CheckpointStore", "write_shard",
          "checkpoint.write_shard", _file_bytes),
    Patch("repro.simulation.checkpoint", "CheckpointStore", "load_shard",
          "checkpoint.load_shard"),
    Patch("repro.geo.wifi", "EdgeServerRegistry", "from_visited_points",
          "geo.registry_build"),
    Patch("repro.geo.wifi", "EdgeServerRegistry", "servers_within_batch",
          "geo.servers_within_batch", _first_len),
    Patch("repro.simulation.large_scale", None, "propose_associations",
          "vectorized.propose_associations"),
    Patch("repro.simulation.large_scale", None, "run_query_window",
          "query_loop.run_query_window"),
    Patch("repro.simulation.large_scale", None, "run_local_window",
          "query_loop.run_local_window"),
    Patch("repro.core.edge_server", "EdgeServer", "step_gpu",
          "edge_server.step_gpu"),
    Patch("repro.core.master", "MasterServer", "estimate_slowdowns",
          "master.estimate_slowdowns"),
    Patch("repro.core.master", "MasterServer", "estimate_slowdown",
          "master.estimate_slowdown"),
    Patch("repro.core.master", "MasterServer", "expire_caches",
          "master.expire_caches"),
    Patch("repro.core.master", "MasterServer", "proactive_migrate_batch",
          "master.proactive_migrate_batch"),
    Patch("repro.core.master", "MasterServer", "redirect_target",
          "master.redirect_target"),
    Patch("repro.estimation.estimator", "ContentionEstimator",
          "predict_slowdown_batch", "estimation.predict_slowdown_batch",
          _first_len),
    Patch("repro.ml.forest", "RandomForestRegressor", "predict",
          "ml.forest_predict", _first_len),
    Patch("repro.ml.forest", "RandomForestRegressor", "predict_per_tree",
          "ml.forest_predict", _first_len),
    Patch("repro.mobility.svr", "SVRPredictor", "predict_points",
          "mobility.predict_points", _first_len),
    Patch("repro.partitioning.partitioner", "DNNPartitioner", "partition",
          "partitioning.partition"),
    Patch("repro.overload.admission", "AdmissionController", "try_admit",
          "overload.try_admit"),
)


def _rewrap(raw: Any, wrap: Callable[[Callable], Callable]) -> Any:
    """Wrap the function behind ``raw`` keeping its descriptor kind."""
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    return wrap(raw)


def _shard_job_wrapper(tracer: Tracer, original: Callable) -> Callable:
    """Worker side: trace one shard in a fresh span table, ship it back."""

    def run_shard_job(job):
        if os.getpid() == tracer.owner_pid:
            return original(job)  # in-process supervision: spans are local
        tracer.reset()
        start = time.perf_counter()
        result = original(job)
        result.extras[SPANS_KEY] = (
            tracer.export(), time.perf_counter() - start
        )
        return result

    return run_shard_job


def _from_result_wrapper(tracer: Tracer, original: Callable) -> Callable:
    """Driver side: take a worker's spans out of its result."""

    def from_result(cls, index, result):
        shipped = result.extras.pop(SPANS_KEY, None)
        if shipped is not None:
            tracer.absorb(*shipped)
        return original(cls, index, result)

    return from_result


def installed_attributes() -> list[tuple[Any, str]]:
    """Every ``(owner, attribute)`` :func:`traced` replaces."""
    from repro.simulation import checkpoint, sharding

    return [(patch.target(), patch.attr) for patch in PATCHES] + [
        (sharding, "_run_shard_job"),
        (checkpoint.ShardRecord, "from_result"),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install every span wrapper; restore the originals on exit."""
    from repro.simulation import checkpoint, sharding

    replaced: list[tuple[Any, str, Any]] = []
    try:
        for patch in PATCHES:
            owner = patch.target()
            raw = owner.__dict__[patch.attr]  # KeyError: not defined here
            setattr(owner, patch.attr, _rewrap(
                raw, lambda fn, p=patch: tracer.wrap(p.name, fn, p.rows)
            ))
            replaced.append((owner, patch.attr, raw))
        raw = sharding.__dict__["_run_shard_job"]
        sharding._run_shard_job = _shard_job_wrapper(tracer, raw)
        replaced.append((sharding, "_run_shard_job", raw))
        raw = checkpoint.ShardRecord.__dict__["from_result"]
        checkpoint.ShardRecord.from_result = classmethod(
            _from_result_wrapper(tracer, raw.__func__)
        )
        replaced.append((checkpoint.ShardRecord, "from_result", raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(replaced):
            setattr(owner, attr, raw)

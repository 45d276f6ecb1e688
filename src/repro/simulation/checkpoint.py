"""Per-shard checkpoint spill and resume for the sharded simulator.

Each completed shard is written to the checkpoint directory as one
deterministic JSON document (``shard-00042.json``) the moment the
supervisor delivers it, via an atomic temp-file + rename so a crash or
Ctrl-C can never leave a half-written shard behind.  A ``MANIFEST.json``
pins the run's **settings fingerprint** — a digest over the dataset's
actual trajectory bytes, the simulation settings, the decomposition, the
model pool and the event-trace setting — so resuming against a checkpoint produced by any
different run fails fast instead of silently merging incompatible shards.

The spill doubles as the streaming telemetry export ROADMAP item 1(c)
asks for: with a checkpoint directory attached, the merge loads one shard
record at a time from disk and folds it into the permutation-invariant
registry merge, so the per-shard registries of a 100k+-client run never
co-reside in memory.  JSON float round-tripping is exact (``repr``
shortest-form in, ``float`` out), so a merge streamed from checkpoint
files is byte-identical to the in-memory merge — the checkpoint test
suite pins this.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.config import PerDNNConfig
from repro.mobility.trajectory import TrajectoryDataset
from repro.network.traffic import TrafficSummary
from repro.telemetry import Event, MetricsRegistry, event_from_dict

#: Schema tags (bumped together when the on-disk layout changes).
CHECKPOINT_SCHEMA = "perdnn-checkpoint/1"
SHARD_SCHEMA = "perdnn-shard/1"
MODELS_SCHEMA = "perdnn-models/1"

MANIFEST_NAME = "MANIFEST.json"


def run_fingerprint(
    dataset: TrajectoryDataset,
    settings,
    config: PerDNNConfig,
    shard_size: int,
    model_names: list[str],
    record_events: bool,
) -> str:
    """Digest everything that determines the per-shard results.

    Two invocations agree on the fingerprint iff they would produce
    byte-identical shards: same trajectory data (hashed point-by-point,
    not by name), same settings/config, same decomposition target, same
    model pool, and same event-trace setting.  ``workers`` is
    deliberately absent — shard results never depend on it.
    """
    hasher = hashlib.sha256()
    hasher.update(CHECKPOINT_SCHEMA.encode())
    for trajectory in dataset.trajectories:
        points = np.ascontiguousarray(trajectory.points, dtype=np.float64)
        hasher.update(str(points.shape[0]).encode())
        hasher.update(points.tobytes())
    faults = settings.faults
    payload = {
        "dataset": {
            "name": dataset.name,
            "interval_seconds": dataset.interval_seconds,
            "num_trajectories": len(dataset.trajectories),
        },
        "settings": {
            "policy": settings.policy.value,
            "migration_radius_m": settings.migration_radius_m,
            "replay_fraction": settings.replay_fraction,
            "max_steps": settings.max_steps,
            "seed": settings.seed,
            "crowded_servers": sorted(settings.crowded_servers),
            "crowded_byte_budget": settings.crowded_byte_budget,
            "use_contention_estimator": settings.use_contention_estimator,
            "model_update_every": settings.model_update_every,
            # Sharded runs only accept profiles (schedules are per-shard);
            # the profile name pins the failure regime.
            "faults": None if faults is None else faults.name,
            "overload": (
                None if settings.overload is None
                else asdict(settings.overload)
            ),
        },
        "config": asdict(config),
        "shard_size": shard_size,
        "models": list(model_names),
        "record_events": bool(record_events),
    }
    hasher.update(
        json.dumps(payload, sort_keys=True, default=str).encode()
    )
    return hasher.hexdigest()


def model_fingerprint(
    dataset: TrajectoryDataset,
    settings,
    config: PerDNNConfig,
    model_names: list[str],
) -> str:
    """Digest everything that determines the *trained models*.

    Strictly coarser than :func:`run_fingerprint`: two runs that agree
    here train bit-identical predictor/estimator pairs even if they
    differ in shard size, fault profile, horizon, or event-trace setting —
    model training consumes only the train split (dataset +
    ``replay_fraction``), the run seed, the policy (whether a mobility
    predictor is fit at all), the prediction history length, the
    contention-estimator toggle, and the partitioner pool (the estimator
    profiles the first model's layers).
    """
    hasher = hashlib.sha256()
    hasher.update(MODELS_SCHEMA.encode())
    for trajectory in dataset.trajectories:
        points = np.ascontiguousarray(trajectory.points, dtype=np.float64)
        hasher.update(str(points.shape[0]).encode())
        hasher.update(points.tobytes())
    payload = {
        "interval_seconds": dataset.interval_seconds,
        "replay_fraction": settings.replay_fraction,
        "seed": settings.seed,
        "policy": settings.policy.value,
        "use_contention_estimator": settings.use_contention_estimator,
        "prediction_history": config.prediction_history,
        "models": list(model_names),
    }
    hasher.update(json.dumps(payload, sort_keys=True, default=str).encode())
    return hasher.hexdigest()


class ModelCache:
    """On-disk cache of the trained (predictor, estimator) pickle blob.

    Keyed by :func:`model_fingerprint`, so a repeat run over the same
    dataset/seed skips the dominant fixed cost of city-scale setup —
    random-forest contention profiling plus SVR mobility training — and
    broadcasts the cached bytes to shard workers instead.  Pickle
    round-trips every float bit-exactly and the parent consumes no RNG
    after training, so a cache hit leaves the merged telemetry
    byte-identical to a freshly-trained run (pinned by the model-cache
    test suite).  Writes are atomic (temp file + rename); unreadable or
    mismatched entries are treated as misses and overwritten.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = os.fspath(directory)

    def prepare(self) -> None:
        """Create the directory and prove it is writable."""
        probe = os.path.join(self.directory, ".write-probe")
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(probe, "w", encoding="utf-8") as handle:
                handle.write("ok")
            os.remove(probe)
        except OSError as exc:
            raise ValueError(
                f"model cache directory {self.directory!r} is not "
                f"writable: {exc}"
            ) from exc

    def path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f"models-{fingerprint}.pkl")

    def load(self, fingerprint: str) -> bytes | None:
        """The cached blob for ``fingerprint``, or None on a miss."""
        try:
            with open(self.path(fingerprint), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def store(self, fingerprint: str, blob: bytes) -> str:
        path = self.path(fingerprint)
        temp = f"{path}.tmp"
        with open(temp, "wb") as handle:
            handle.write(blob)
        os.replace(temp, path)
        return path


class ShardDatasetStore:
    """On-disk spill of per-shard trajectory subsets.

    The sharded driver normally slices the full
    :class:`~repro.mobility.trajectory.TrajectoryDataset` into one
    sub-dataset per shard and keeps every slice alive in the job list
    until its worker finishes — which pins the whole population in the
    parent for the duration of the run.  Spilling writes each shard's
    subset to ``dataset-00042.pkl`` once at plan time (atomic temp file +
    rename, same discipline as :class:`CheckpointStore`) and hands the
    job only the *path*; the worker loads its own file and the parent can
    drop the population entirely.  Pickle round-trips the float64
    trajectory arrays bit-exactly, so a spilled run is byte-identical to
    an in-memory one (pinned by the equivalence suite).

    The files are scratch, not checkpoints: every invocation re-spills
    the shards it is about to run, so :meth:`cleanup` removes them as
    soon as the supervisor returns.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = os.fspath(directory)

    def prepare(self) -> None:
        """Create the directory and prove it is writable."""
        probe = os.path.join(self.directory, ".write-probe")
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(probe, "w", encoding="utf-8") as handle:
                handle.write("ok")
            os.remove(probe)
        except OSError as exc:
            raise ValueError(
                f"dataset spill directory {self.directory!r} is not "
                f"writable: {exc}"
            ) from exc

    def path(self, index: int) -> str:
        return os.path.join(self.directory, f"dataset-{index:05d}.pkl")

    def store(self, index: int, dataset: TrajectoryDataset) -> str:
        """Atomically spill one shard's sub-dataset; returns its path."""
        path = self.path(index)
        temp = f"{path}.tmp"
        with open(temp, "wb") as handle:
            pickle.dump(dataset, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp, path)
        return path

    @staticmethod
    def read(path: str) -> TrajectoryDataset:
        """Load a spilled sub-dataset (worker side)."""
        with open(path, "rb") as handle:
            return pickle.load(handle)

    def cleanup(self) -> None:
        """Best-effort removal of every spilled file and the directory."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name.startswith("dataset-"):
                try:
                    os.remove(os.path.join(self.directory, name))
                except OSError:
                    pass
        try:
            os.rmdir(self.directory)
        except OSError:
            pass


def _summary_to_doc(summary: TrafficSummary) -> dict:
    return {
        "peak_mbps": summary.peak_mbps,
        "peak_server": summary.peak_server,
        "peak_interval": summary.peak_interval,
        "total_bytes": summary.total_bytes,
        "server_peaks_mbps": {
            str(server): peak
            for server, peak in sorted(summary.server_peaks_mbps.items())
        },
    }


def _summary_from_doc(doc: dict) -> TrafficSummary:
    return TrafficSummary(
        peak_mbps=doc["peak_mbps"],
        peak_server=doc["peak_server"],
        peak_interval=doc["peak_interval"],
        total_bytes=doc["total_bytes"],
        server_peaks_mbps={
            int(server): peak
            for server, peak in doc["server_peaks_mbps"].items()
        },
    )


def _registry_from_doc(doc: dict) -> MetricsRegistry:
    registry = MetricsRegistry()
    for metric in doc["counters"]:
        registry.counter(metric["name"], metric["labels"]).value = (
            metric["value"]
        )
    for metric in doc["gauges"]:
        registry.gauge(metric["name"], metric["labels"]).set(metric["value"])
    for metric in doc["histograms"]:
        histogram = registry.histogram(
            metric["name"], tuple(metric["buckets"]), metric["labels"]
        )
        histogram.counts = [int(count) for count in metric["counts"]]
        histogram.sum = float(metric["sum"])
        histogram.count = int(metric["count"])
    return registry


@dataclass
class ShardRecord:
    """Exactly what the merge needs from one completed shard."""

    index: int
    num_clients: int
    num_servers: int
    cache_hits: int
    cache_misses: int
    registry: MetricsRegistry
    events: tuple[Event, ...]
    uplink: TrafficSummary
    downlink: TrafficSummary

    @classmethod
    def from_result(cls, index: int, result) -> "ShardRecord":
        cache = result.extras["partition_cache"]
        return cls(
            index=index,
            num_clients=result.num_clients,
            num_servers=result.num_servers,
            cache_hits=cache["hits"],
            cache_misses=cache["misses"],
            registry=result.telemetry.registry,
            events=tuple(result.telemetry.trace),
            uplink=result.uplink,
            downlink=result.downlink,
        )

    def to_doc(self) -> dict:
        return {
            "schema": SHARD_SCHEMA,
            "shard": {
                "index": self.index,
                "num_clients": self.num_clients,
                "num_servers": self.num_servers,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
            },
            "metrics": self.registry.as_dict(),
            "events": [event.as_dict() for event in self.events],
            "uplink": _summary_to_doc(self.uplink),
            "downlink": _summary_to_doc(self.downlink),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ShardRecord":
        if doc.get("schema") != SHARD_SCHEMA:
            raise ValueError(
                f"not a shard checkpoint (schema={doc.get('schema')!r})"
            )
        header = doc["shard"]
        return cls(
            index=int(header["index"]),
            num_clients=int(header["num_clients"]),
            num_servers=int(header["num_servers"]),
            cache_hits=int(header["cache_hits"]),
            cache_misses=int(header["cache_misses"]),
            registry=_registry_from_doc(doc["metrics"]),
            events=tuple(
                event_from_dict(payload) for payload in doc["events"]
            ),
            uplink=_summary_from_doc(doc["uplink"]),
            downlink=_summary_from_doc(doc["downlink"]),
        )


class CheckpointStore:
    """One checkpoint directory: manifest + per-shard snapshot files."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = os.fspath(directory)

    # ------------------------------------------------------------------
    # Validation / lifecycle
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Create the directory and prove it is writable.

        Called before any expensive work (predictor/estimator training)
        so a bad ``--checkpoint-dir`` fails in milliseconds.
        """
        probe = os.path.join(self.directory, ".write-probe")
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(probe, "w", encoding="utf-8") as handle:
                handle.write("ok")
            os.remove(probe)
        except OSError as exc:
            raise ValueError(
                f"checkpoint directory {self.directory!r} is not "
                f"writable: {exc}"
            ) from exc

    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def has_manifest(self) -> bool:
        return os.path.exists(self.manifest_path())

    def write_manifest(
        self, fingerprint: str, num_shards: int, shard_size: int,
        record_events: bool,
    ) -> None:
        doc = {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": fingerprint,
            "num_shards": num_shards,
            "shard_size": shard_size,
            "record_events": bool(record_events),
        }
        self._write_json(self.manifest_path(), doc)

    def read_manifest(self) -> dict:
        path = self.manifest_path()
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            raise ValueError(
                f"no checkpoint manifest at {path!r}; nothing to resume"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(
                f"unreadable checkpoint manifest at {path!r}: {exc}"
            ) from exc
        if doc.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"not a checkpoint manifest (schema={doc.get('schema')!r})"
            )
        return doc

    def check_fingerprint(self, fingerprint: str) -> dict:
        """Load the manifest and reject a stale checkpoint."""
        manifest = self.read_manifest()
        if manifest.get("fingerprint") != fingerprint:
            raise ValueError(
                f"stale checkpoint in {self.directory!r}: it was written "
                "by a run with different settings (dataset, seed, "
                "shard_size, faults/overload, or an earlier fingerprint "
                "layout); "
                "use a fresh --checkpoint-dir or rerun with the original "
                "settings"
            )
        return manifest

    # ------------------------------------------------------------------
    # Per-shard records
    # ------------------------------------------------------------------
    def shard_path(self, index: int) -> str:
        return os.path.join(self.directory, f"shard-{index:05d}.json")

    def write_shard(self, record: ShardRecord) -> str:
        """Atomically spill one shard (temp file + rename)."""
        path = self.shard_path(record.index)
        self._write_json(path, record.to_doc())
        return path

    def load_shard(self, index: int) -> ShardRecord:
        with open(self.shard_path(index), encoding="utf-8") as handle:
            return ShardRecord.from_doc(json.load(handle))

    def completed_shards(self, num_shards: int) -> set[int]:
        """Indices whose shard files exist and parse cleanly.

        A torn or corrupt file (impossible via the atomic writer, but the
        directory is user-controlled) is treated as *not completed* — the
        shard simply re-runs and overwrites it.
        """
        completed: set[int] = set()
        for index in range(num_shards):
            path = self.shard_path(index)
            if not os.path.exists(path):
                continue
            try:
                with open(path, encoding="utf-8") as handle:
                    doc = json.load(handle)
                if (
                    doc.get("schema") == SHARD_SCHEMA
                    and doc.get("shard", {}).get("index") == index
                ):
                    completed.add(index)
            except (OSError, json.JSONDecodeError):
                continue
        return completed

    # ------------------------------------------------------------------
    def _write_json(self, path: str, doc: dict) -> None:
        text = json.dumps(
            doc, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        temp = f"{path}.tmp"
        with open(temp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
            handle.write("\n")
        os.replace(temp, path)

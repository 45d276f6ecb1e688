"""Per-shard checkpoint spill and resume for the sharded simulator.

Each completed shard is written to the checkpoint directory as one
deterministic JSON document (``shard-00042.json``) the moment the
supervisor delivers it, through :class:`ArtifactStore`'s fsynced
temp-file + rename so a crash or Ctrl-C can never leave a half-written
shard behind.  A ``MANIFEST.json`` pins the run's **settings
fingerprint** — a digest over the dataset's actual trajectory bytes, the
simulation settings, the decomposition, the model pool and the
event-trace setting — so resuming against a checkpoint produced by any
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

import contextlib
import hashlib
import io
import json
import os
import pickle
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.config import PerDNNConfig
from repro.geo.geometry import BoundingBox
from repro.mobility.trajectory import Trajectory, TrajectoryDataset
from repro.network.traffic import TrafficSummary
from repro.simulation import training
from repro.telemetry import Event, MetricsRegistry, event_from_dict

#: Schema tags (bumped together when the on-disk layout changes).
CHECKPOINT_SCHEMA = "perdnn-checkpoint/1"
SHARD_SCHEMA = "perdnn-shard/1"

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
    model pool, same predictor-training bound and same event-trace
    setting.  ``workers`` is deliberately absent — shard results never
    depend on it.
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
        "train_users": training.TRAIN_USERS,
    }
    hasher.update(
        json.dumps(payload, sort_keys=True, default=str).encode()
    )
    return hasher.hexdigest()


class ArtifactStore:
    """One directory of named byte blobs: the only code that probes,
    writes or removes the sharded driver's artifact files.

    Writes are atomic and durable — a temp file is flushed and fsynced
    before it is renamed into place — so a crash or Ctrl-C can never
    leave a half-written artifact under its real name.  The dataset
    spill and the checkpoint add their file formats on top of it.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = os.fspath(directory)

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def prepare(self) -> None:
        """Create the directory and prove it is writable (callers run
        this before training, so a bad directory fails in milliseconds)."""
        probe = self.path(".write-probe")
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(probe, "w", encoding="utf-8") as handle:
                handle.write("ok")
            os.remove(probe)
        except OSError as exc:
            raise ValueError(
                f"artifact directory {self.directory!r} is not "
                f"writable: {exc}"
            ) from exc

    def put(self, name: str, data: bytes) -> str:
        """Durably and atomically write ``data`` as ``name``; its path."""
        path = self.path(name)
        temp = f"{path}.tmp"
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        return path

    def cleanup(self, prefix: str) -> None:
        """Best-effort removal of the files named ``prefix*``, then of the
        directory if that left it empty."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name.startswith(prefix):
                with contextlib.suppress(OSError):
                    os.remove(self.path(name))
        with contextlib.suppress(OSError):
            os.rmdir(self.directory)


class _BuiltinsUnpickler(pickle.Unpickler):
    """Decodes builtin values only: every global a pickle names is
    refused, so decoding never calls a class or function the file
    chooses."""

    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"global {module}.{name} refused")


class ShardDatasetStore(ArtifactStore):
    """On-disk spill of per-shard trajectory subsets.

    The sharded driver normally slices the full
    :class:`~repro.mobility.trajectory.TrajectoryDataset` into one
    sub-dataset per shard and keeps every slice alive in the job list
    until its worker finishes — which pins the whole population in the
    parent for the duration of the run.  Spilling writes each shard's
    subset to ``dataset-00042.pkl`` once at plan time and hands the job
    only the *path*; the worker loads its own file and the parent can
    drop the population entirely.

    A file holds one pickled record of columns, ``(name, interval, bbox,
    user_ids, lengths, points)``: the bounding box as ``(min_x, min_y,
    max_x, max_y)``, the user ids as a list, every trajectory's length
    as the raw bytes of one int64 array and every point as the raw
    bytes of one stacked ``(n, 2)`` float64 array.  The record holds
    builtins only and :meth:`read` resolves no class while decoding it,
    so a damaged file cannot make decoding call into numpy (a flipped
    bit in a pickled numpy dtype can crash the interpreter); it rebuilds
    the trajectories as views into one array over the points' bytes.
    The bytes are copied verbatim, so a spilled run is byte-identical to
    an in-memory one (pinned by the equivalence suite).

    The files are scratch, not checkpoints: every invocation re-spills
    the shards it is about to run and removes them with
    ``cleanup("dataset-")`` when the run ends, however it ends.
    """

    def store(self, index: int, dataset: TrajectoryDataset) -> str:
        """Spill one shard's sub-dataset; returns its path."""
        trajectories = dataset.trajectories
        bbox = dataset.bbox
        record = (
            dataset.name,
            dataset.interval_seconds,
            (bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y),
            [trajectory.user_id for trajectory in trajectories],
            pickle.PickleBuffer(
                np.array([len(t) for t in trajectories], dtype=np.int64)
            ),
            pickle.PickleBuffer(
                np.concatenate([t.points for t in trajectories])
                if trajectories else np.empty((0, 2))
            ),
        )
        return self.put(
            f"dataset-{index:05d}.pkl",
            pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL),
        )

    @staticmethod
    def read(path: str) -> TrajectoryDataset:
        """Load a spilled sub-dataset (worker side).

        Raises :class:`ValueError` naming ``path`` when the file is
        truncated or not a pickle, names a class or function, or does
        not hold a spill record whose lengths add up to the rows of its
        ``(n, 2)`` float64 points.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        # A damaged file can fail anywhere in decoding: every failure is
        # the one typed error, with its cause chained.
        try:
            name, interval, bbox, user_ids, lengths, points = (
                _BuiltinsUnpickler(io.BytesIO(data)).load()
            )
            return TrajectoryDataset(
                name=name,
                interval_seconds=interval,
                bbox=BoundingBox(*bbox),
                trajectories=Trajectory.stacked(
                    list(user_ids),
                    interval,
                    np.frombuffer(lengths, dtype=np.int64).tolist(),
                    np.frombuffer(points, dtype=np.float64).reshape(-1, 2),
                ),
            )
        except Exception as exc:
            raise ValueError(
                f"spilled dataset {path!r} is truncated, not a pickle or "
                f"not a spill record: {exc!r}"
            ) from exc


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


class CheckpointStore(ArtifactStore):
    """One checkpoint directory: manifest + per-shard snapshot files."""

    def has_manifest(self) -> bool:
        return os.path.exists(self.path(MANIFEST_NAME))

    def write_manifest(
        self, fingerprint: str, num_shards: int, shard_size: int,
        record_events: bool,
    ) -> None:
        self._write_doc(MANIFEST_NAME, {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": fingerprint,
            "num_shards": num_shards,
            "shard_size": shard_size,
            "record_events": bool(record_events),
        })

    def check_fingerprint(self, fingerprint: str) -> None:
        """Load the manifest and reject a missing, foreign or stale one."""
        try:
            manifest = self._read_doc(MANIFEST_NAME, "checkpoint manifest")
        except FileNotFoundError:
            raise ValueError(
                f"no checkpoint manifest at {self.path(MANIFEST_NAME)!r}; "
                "nothing to resume"
            ) from None
        if manifest.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(
                "not a checkpoint manifest "
                f"(schema={manifest.get('schema')!r})"
            )
        if manifest.get("fingerprint") != fingerprint:
            raise ValueError(
                f"stale checkpoint in {self.directory!r}: it was written "
                "by a run with different settings (dataset, seed, "
                "shard_size, faults/overload, or an earlier fingerprint "
                "layout); use a fresh --checkpoint-dir or rerun with the "
                "original settings"
            )

    def write_shard(self, record: ShardRecord) -> str:
        """Spill one shard; returns its path."""
        name = f"shard-{record.index:05d}.json"
        return self._write_doc(name, record.to_doc())

    def load_shard(self, index: int) -> ShardRecord:
        return ShardRecord.from_doc(
            self._read_doc(f"shard-{index:05d}.json", "shard checkpoint")
        )

    def completed_shards(self, num_shards: int) -> set[int]:
        """Indices whose shard files exist and parse cleanly.

        A torn or corrupt file (impossible via the atomic writer, but the
        directory is user-controlled) is treated as *not completed* — the
        shard simply re-runs and overwrites it.
        """
        completed: set[int] = set()
        for index in range(num_shards):
            try:
                doc = self._read_doc(
                    f"shard-{index:05d}.json", "shard checkpoint"
                )
            except (OSError, ValueError):
                continue
            if (
                doc.get("schema") == SHARD_SCHEMA
                and doc.get("shard", {}).get("index") == index
            ):
                completed.add(index)
        return completed

    def _write_doc(self, name: str, doc: dict) -> str:
        text = json.dumps(
            doc, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return self.put(name, f"{text}\n".encode("utf-8"))

    def _read_doc(self, name: str, what: str) -> dict:
        """The JSON object stored as ``name``: FileNotFoundError if it is
        missing, ``ValueError("unreadable <what> ...")`` if it cannot be
        read or parsed or holds JSON other than an object."""
        path = self.path(name)
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            raise
        except (OSError, ValueError) as exc:
            raise ValueError(f"unreadable {what} at {path!r}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError(
                f"unreadable {what} at {path!r}: not a JSON object"
            )
        return doc

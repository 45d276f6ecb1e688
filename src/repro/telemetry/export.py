"""Deterministic JSON/CSV export of telemetry snapshots.

A *snapshot* is one JSON document bundling a registry view, an optional
event trace, and optional caller-provided metadata:

.. code-block:: json

    {
      "schema": "perdnn-telemetry/1",
      "meta": {"benchmark": "fig9", "dataset": "kaist"},
      "metrics": {"counters": [...], "gauges": [...], "histograms": [...]},
      "events": [{"kind": "migration", "interval": 3, ...}, ...]
    }

Serialization is byte-deterministic: metric lists are sorted by
``(name, labels)``, events keep simulation order, keys are sorted, and no
timestamp is added unless the caller puts one in ``meta``.  Two same-seed
simulation runs therefore export identical bytes (the determinism
regression test relies on this).
"""

from __future__ import annotations

import csv
import io
import json
import os

from repro.telemetry.events import EventTrace
from repro.telemetry.registry import MetricsRegistry

SCHEMA = "perdnn-telemetry/1"


def snapshot(
    registry: MetricsRegistry,
    trace: EventTrace | None = None,
    meta: dict | None = None,
) -> dict:
    """Plain-dict snapshot of a registry (+ optional trace and metadata)."""
    doc: dict = {"schema": SCHEMA, "metrics": registry.as_dict()}
    if meta:
        doc["meta"] = dict(meta)
    if trace is not None:
        doc["events"] = trace.as_dicts()
    return doc


def dumps_snapshot(
    registry: MetricsRegistry,
    trace: EventTrace | None = None,
    meta: dict | None = None,
) -> str:
    """Canonical JSON text of a snapshot (sorted keys, no whitespace)."""
    return json.dumps(
        snapshot(registry, trace, meta),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def write_snapshot(
    path: str | os.PathLike,
    registry: MetricsRegistry,
    trace: EventTrace | None = None,
    meta: dict | None = None,
) -> str:
    """Write the canonical JSON snapshot to ``path``; returns the path."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dumps_snapshot(registry, trace, meta))
        handle.write("\n")
    return path


def read_snapshot(path: str | os.PathLike) -> dict:
    """Load a snapshot document, checking the schema marker."""
    with open(os.fspath(path), encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"not a telemetry snapshot (schema={doc.get('schema')!r})"
        )
    return doc


def metrics_csv(registry: MetricsRegistry) -> str:
    """Flat CSV view of the registry: one row per metric datum.

    Columns: ``kind,name,labels,field,value``; histogram rows carry one
    ``le=<bound>`` field per bucket plus ``sum`` and ``count``.  Rows are
    emitted in the registry's deterministic order.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["kind", "name", "labels", "field", "value"])
    doc = registry.as_dict()
    for kind in ("counters", "gauges"):
        for metric in doc[kind]:
            labels = json.dumps(metric["labels"], sort_keys=True)
            writer.writerow(
                [kind[:-1], metric["name"], labels, "value", metric["value"]]
            )
    for metric in doc["histograms"]:
        labels = json.dumps(metric["labels"], sort_keys=True)
        bounds = [*metric["buckets"], "+inf"]
        for bound, count in zip(bounds, metric["counts"]):
            writer.writerow(
                ["histogram", metric["name"], labels, f"le={bound}", count]
            )
        writer.writerow(
            ["histogram", metric["name"], labels, "sum", metric["sum"]]
        )
        writer.writerow(
            ["histogram", metric["name"], labels, "count", metric["count"]]
        )
    return out.getvalue()


def write_metrics_csv(path: str | os.PathLike, registry: MetricsRegistry) -> str:
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(metrics_csv(registry))
    return path


def summarize_snapshot(doc: dict, top: int = 10) -> list[str]:
    """Human-readable summary lines of a snapshot (the CLI's output).

    ``top`` caps the counters listed (largest first); it must be >= 0.
    """
    if top < 0:
        raise ValueError(f"top must be non-negative (got {top})")
    lines: list[str] = []
    meta = doc.get("meta") or {}
    if meta:
        joined = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"meta: {joined}")
    metrics = doc.get("metrics", {})
    counters = metrics.get("counters", [])
    gauges = metrics.get("gauges", [])
    histograms = metrics.get("histograms", [])
    if counters:
        lines.append(f"counters ({len(counters)}):")
        ranked = sorted(counters, key=lambda c: -c["value"])[:top]
        for metric in ranked:
            labels = _label_text(metric["labels"])
            lines.append(f"  {metric['name']}{labels} = {metric['value']:g}")
        if len(counters) > top:
            lines.append(f"  ... {len(counters) - top} more")
    if gauges:
        lines.append(f"gauges ({len(gauges)}):")
        for metric in gauges:
            labels = _label_text(metric["labels"])
            lines.append(f"  {metric['name']}{labels} = {metric['value']:g}")
    if histograms:
        lines.append(f"histograms ({len(histograms)}):")
        for metric in histograms:
            labels = _label_text(metric["labels"])
            mean = metric["sum"] / metric["count"] if metric["count"] else 0.0
            lines.append(
                f"  {metric['name']}{labels}: count={metric['count']} "
                f"sum={metric['sum']:g} mean={mean:g}"
            )
    events = doc.get("events")
    if events is not None:
        lines.append(f"events ({len(events)}):")
        tally: dict[str, int] = {}
        for event in events:
            tally[event["kind"]] = tally.get(event["kind"], 0) + 1
        for kind, count in sorted(tally.items()):
            lines.append(f"  {kind}: {count}")
    if not lines:
        lines.append("(empty snapshot)")
    return lines


def _label_text(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"

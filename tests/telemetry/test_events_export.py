"""Event trace and exporter tests: schema, round-trips, determinism."""

import json

import pytest

from repro.telemetry import (
    SCHEMA,
    AssociationEvent,
    CacheEvictionEvent,
    ColdStartEvent,
    EventTrace,
    FractionalTruncationEvent,
    MetricsRegistry,
    MigrationEvent,
    QueryWindowEvent,
    Telemetry,
    dumps_snapshot,
    event_from_dict,
    metrics_csv,
    read_snapshot,
    snapshot,
    summarize_snapshot,
    write_snapshot,
)

ALL_EVENTS = (
    AssociationEvent(interval=0, client_id=1, server_id=2, previous_server=None),
    ColdStartEvent(
        interval=1, client_id=1, server_id=3, hit=False,
        cached_bytes=0.0, required_bytes=1e6,
    ),
    MigrationEvent(
        interval=1, client_id=1, source_server=2, target_server=3, nbytes=5e5,
    ),
    FractionalTruncationEvent(
        interval=2, client_id=1, source_server=2, target_server=3,
        plan_bytes=1e6, budget_bytes=2e5,
    ),
    CacheEvictionEvent(interval=7, server_id=2, client_id=1),
    QueryWindowEvent(
        interval=2, client_id=1, server_id=3, queries=12, coldstart=True,
        end_bytes=9e5,
    ),
)


class TestEventTrace:
    def test_append_only_order_preserved(self):
        trace = EventTrace()
        for event in ALL_EVENTS:
            trace.record(event)
        assert len(trace) == len(ALL_EVENTS)
        assert trace.events == ALL_EVENTS
        assert list(trace) == list(ALL_EVENTS)

    def test_counts_and_filtering(self):
        trace = EventTrace()
        for event in ALL_EVENTS:
            trace.record(event)
        counts = trace.counts_by_kind()
        assert counts["migration"] == 1
        assert sum(counts.values()) == len(ALL_EVENTS)
        assert trace.of_kind("cold_start") == [ALL_EVENTS[1]]

    def test_every_event_round_trips_through_dict(self):
        for event in ALL_EVENTS:
            payload = event.as_dict()
            assert payload["kind"] == type(event).kind
            assert event_from_dict(payload) == event

    def test_event_from_dict_rejects_unknowns(self):
        with pytest.raises(ValueError):
            event_from_dict({"kind": "nope", "interval": 0})
        with pytest.raises(ValueError):
            event_from_dict(
                {"kind": "cache_eviction", "interval": 0, "server_id": 1,
                 "client_id": 2, "extra": True}
            )


def _loaded_telemetry() -> Telemetry:
    t = Telemetry.create()
    t.registry.counter("sim.cold_start", {"outcome": "hit"}).inc(3)
    t.registry.gauge("sim.steps").set(9)
    t.registry.histogram("query.latency_seconds", (0.1, 1.0)).observe(0.4)
    for event in ALL_EVENTS:
        t.trace.record(event)
    return t


class TestExport:
    def test_snapshot_shape(self):
        t = _loaded_telemetry()
        doc = snapshot(t.registry, t.trace, meta={"run": "x"})
        assert doc["schema"] == SCHEMA
        assert doc["meta"] == {"run": "x"}
        assert {"counters", "gauges", "histograms"} <= set(doc["metrics"])
        assert len(doc["events"]) == len(ALL_EVENTS)

    def test_dumps_is_byte_deterministic(self):
        a = _loaded_telemetry()
        b = _loaded_telemetry()
        assert a.dumps() == b.dumps()
        # Recording order of distinct metrics must not matter.
        c = Telemetry.create()
        c.registry.histogram("query.latency_seconds", (0.1, 1.0)).observe(0.4)
        c.registry.gauge("sim.steps").set(9)
        c.registry.counter("sim.cold_start", {"outcome": "hit"}).inc(3)
        for event in ALL_EVENTS:
            c.trace.record(event)
        assert c.dumps() == a.dumps()

    def test_write_and_read_round_trip(self, tmp_path):
        t = _loaded_telemetry()
        path = write_snapshot(
            tmp_path / "snap" / "run.telemetry.json", t.registry, t.trace
        )
        doc = read_snapshot(path)
        assert doc == t.snapshot()
        rebuilt = [event_from_dict(e) for e in doc["events"]]
        assert tuple(rebuilt) == ALL_EVENTS

    def test_read_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            read_snapshot(path)

    def test_dumps_without_trace_omits_events(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        doc = json.loads(dumps_snapshot(reg))
        assert "events" not in doc

    def test_metrics_csv_is_deterministic_and_complete(self):
        t = _loaded_telemetry()
        text = metrics_csv(t.registry)
        assert text == metrics_csv(t.registry)
        lines = text.strip().splitlines()
        assert lines[0] == "kind,name,labels,field,value"
        # 1 counter + 1 gauge + histogram (2 buckets + overflow + sum + count)
        assert len(lines) == 1 + 1 + 1 + 5

    def test_summarize_mentions_all_sections(self):
        t = _loaded_telemetry()
        text = "\n".join(summarize_snapshot(t.snapshot(meta={"run": "x"})))
        for needle in (
            "meta:", "counters (1):", "gauges (1):", "histograms (1):",
            "events (6):", "sim.cold_start{outcome=hit}", "migration: 1",
        ):
            assert needle in text

    def test_summarize_top_caps_counters_and_rejects_negative(self):
        doc = _loaded_telemetry().snapshot()
        assert "  ... 1 more" in summarize_snapshot(doc, top=0)
        assert not any(
            "more" in line for line in summarize_snapshot(doc, top=1)
        )
        with pytest.raises(ValueError, match="non-negative"):
            summarize_snapshot(doc, top=-1)

    def test_summarize_empty_snapshot(self):
        assert summarize_snapshot({"schema": SCHEMA, "metrics": {}}) == [
            "(empty snapshot)"
        ]

"""Process-local metrics registry: counters, gauges, histograms.

The registry is the single instrumentation surface of the reproduction.
Hot paths (the master's planning loop, edge-server caches, the backhaul
meter, the query-window integrator) record into it; simulation drivers
derive their reported results from it; exporters serialize it.

Design constraints (see ISSUE 1):

* few dependencies — the stdlib, plus numpy for the batched
  :meth:`Histogram.observe_runs`;
* deterministic — metric identity is ``(name, sorted labels)``, exported
  views are sorted, and no wall-clock value ever enters the registry;
* cheap — recording is a dict lookup plus a float add, so instrumenting
  the simulator's inner loops does not noticeably change tier-1 runtime.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping

import numpy as np

Labels = tuple[tuple[str, str], ...]


def normalize_labels(labels: Mapping[str, str] | None) -> Labels:
    """Canonical label identity: sorted ``(key, value)`` string pairs."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically non-decreasing accumulator."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only move forward (amount >= 0)")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """Last-written value (set/add; not monotonic)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def merge(self, other: "Gauge") -> None:
        # Last write wins; in a merge the other registry is "newer".
        self.value = other.value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """Fixed-boundary histogram with sum/count.

    ``buckets`` are strictly increasing upper bounds; an observation lands
    in the first bucket whose bound is >= the value, or in the implicit
    overflow bucket past the last bound (``counts`` has ``len(buckets)+1``
    slots).
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self, name: str, buckets: tuple[float, ...], labels: Labels = ()
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def observe_repeated(self, value: float, times: int) -> None:
        """``times`` consecutive ``observe(value)`` calls in one step.

        ``sum`` still accumulates one addition per observation: float
        addition is not associative, and the fast simulation path relies
        on this being bit-identical to the equivalent observe() loop.
        ``times == 0`` is a no-op that does not register anything.
        """
        self.observe_runs((value,), (times,))

    def observe_runs(self, values, counts) -> None:
        """``observe_repeated(values[i], counts[i])`` for each run ``i``,
        in order, bit for bit.

        ``values`` and ``counts`` are parallel sequences or arrays.  Each
        run's bucket is a ``searchsorted`` on the bounds and the bucket
        counts one ``bincount``; ``sum`` is one serial left fold over
        every observation of every run, ``((sum + v) + v) + ...``,
        carried out by ``np.add.accumulate`` (a sequential fold, unlike
        the pairwise ``np.sum``): the same additions in the same order as
        one ``observe`` call each.  Raises before recording anything when
        a run has a negative count.
        """
        values = np.asarray(values, dtype=float).reshape(-1)
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        if values.shape != counts.shape:
            raise ValueError("values and counts must have the same length")
        if (counts < 0).any():
            raise ValueError("times must be non-negative")
        if not values.size:
            return
        # First bound >= value (NaN sorts past every bound: overflow).
        index = np.searchsorted(np.asarray(self.buckets), values, side="left")
        per_bucket = np.bincount(
            index, weights=counts, minlength=len(self.counts)
        ).tolist()
        self.counts = [
            count + int(added) for count, added in zip(self.counts, per_bucket)
        ]
        observed = np.repeat(values, counts)
        if observed.size:
            self.sum = float(
                np.add.accumulate(np.concatenate(([self.sum], observed)))[-1]
            )
        self.count += int(counts.sum())

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Conservative q-quantile: the smallest bucket upper bound whose
        cumulative count covers the q-fraction of observations, clamped to
        the last bound for the overflow bucket.  0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0 or not self.buckets:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                return self.buckets[min(i, len(self.buckets) - 1)]
        return self.buckets[-1]

    def reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.count += other.count

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create registry keyed by ``(name, labels)``.

    A ``(name, labels)`` pair is bound to one metric kind for the life of
    the registry; asking for the same pair as a different kind (or a
    histogram with different buckets) raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, Labels], Metric] = {}
        # Resolution fast paths for the simulator's hot loops: unlabeled
        # counters by name, histograms by (name, identity of the buckets
        # tuple the caller passed).  Pure lookup caches over
        # ``_get_or_create`` — creation order and validation behaviour are
        # unchanged (a cache miss takes the full path).
        self._unlabeled_counters: dict[str, Counter] = {}
        self._unlabeled_histograms: dict[str, tuple[Histogram, object]] = {}

    # ------------------------------------------------------------------
    # Get-or-create
    # ------------------------------------------------------------------
    def _get_or_create(
        self, cls, name: str, labels: Mapping[str, str] | None, **kwargs
    ):
        key = (name, normalize_labels(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r}{dict(key[1])!r} already registered as "
                    f"{type(existing).__name__}"
                )
            if (
                isinstance(existing, Histogram)
                and "buckets" in kwargs
                and existing.buckets != tuple(float(b) for b in kwargs["buckets"])
            ):
                raise ValueError(
                    f"histogram {name!r} already registered with different "
                    "bucket bounds"
                )
            return existing
        metric = cls(name, labels=key[1], **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> Counter:
        if labels is None:
            cached = self._unlabeled_counters.get(name)
            if cached is not None:
                return cached
            metric = self._get_or_create(Counter, name, None)
            self._unlabeled_counters[name] = metric
            return metric
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...],
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        if labels is None:
            cached = self._unlabeled_histograms.get(name)
            # Identity check on the buckets argument: hot callers pass the
            # same module-level constant every time, which skips the
            # per-call bounds re-validation; any other object falls
            # through to the full checked path.
            if cached is not None and cached[1] is buckets:
                return cached[0]
            metric = self._get_or_create(Histogram, name, None, buckets=buckets)
            self._unlabeled_histograms[name] = (metric, buckets)
            return metric
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> Metric | None:
        """The registered metric for ``(name, labels)``, or None."""
        return self._metrics.get((name, normalize_labels(labels)))

    def value(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> float:
        """Current value of a counter/gauge; 0.0 if never recorded."""
        metric = self._metrics.get((name, normalize_labels(labels)))
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a histogram; read .sum/.count")
        return metric.value

    def series(self, name: str) -> list[tuple[dict[str, str], float]]:
        """All labelled values of one counter/gauge name, sorted by labels."""
        out = []
        for (metric_name, labels), metric in sorted(self._metrics.items()):
            if metric_name == name and not isinstance(metric, Histogram):
                out.append((dict(labels), metric.value))
        return out

    def metrics(self) -> Iterator[Metric]:
        """All metrics in deterministic (name, labels) order."""
        for _, metric in sorted(self._metrics.items()):
            yield metric

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every metric in place (registrations and buckets stay)."""
        for metric in self._metrics.values():
            metric.reset()

    def clear(self) -> None:
        """Drop every registration."""
        self._metrics.clear()
        self._unlabeled_counters.clear()
        self._unlabeled_histograms.clear()

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry in place and return self.

        Counters and histograms accumulate, gauges take the other's value.
        Merging two registries that recorded disjoint halves of a workload
        equals one registry that recorded the interleaved whole (for
        counters and histograms; gauges are last-write).

        .. warning:: last-write gauges make pairwise merging
           *order-dependent*, and chained float ``+=`` makes even counter
           sums depend on fold order in the last ulp.  When combining more
           than two registries (shard fan-in), use
           :func:`merge_registries`, which is permutation-invariant.
        """
        for key, theirs in sorted(other._metrics.items()):
            mine = self._metrics.get(key)
            if mine is None:
                if isinstance(theirs, Histogram):
                    mine = self.histogram(key[0], theirs.buckets, dict(key[1]))
                elif isinstance(theirs, Gauge):
                    mine = self.gauge(key[0], dict(key[1]))
                else:
                    mine = self.counter(key[0], dict(key[1]))
            elif type(mine) is not type(theirs):
                raise TypeError(
                    f"cannot merge {key[0]!r}: kind mismatch "
                    f"({type(mine).__name__} vs {type(theirs).__name__})"
                )
            mine.merge(theirs)
        return self

    def as_dict(self) -> dict:
        """Deterministic nested view: kind -> sorted list of metric dicts."""
        counters, gauges, histograms = [], [], []
        for metric in self.metrics():
            if isinstance(metric, Counter):
                counters.append(metric.as_dict())
            elif isinstance(metric, Gauge):
                gauges.append(metric.as_dict())
            else:
                histograms.append(metric.as_dict())
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


#: Gauge combination rules accepted by :func:`merge_registries`.
GAUGE_RULES = ("sum", "max", "min")


class _MergeSlot:
    """Streaming accumulator for one ``(name, labels)`` key.

    Integer tallies (bucket counts, observation counts) fold as they
    arrive — integer addition is exact.  Float values are *collected* and
    reduced with :func:`math.fsum` at the end, so the result is the exact
    correctly-rounded sum regardless of how many registries streamed
    through or in which order.
    """

    __slots__ = ("kind", "values", "buckets", "counts", "count")

    def __init__(self, metric: Metric) -> None:
        self.kind = type(metric)
        self.values: list[float] = []
        if isinstance(metric, Histogram):
            self.buckets = metric.buckets
            self.counts = [0] * (len(metric.buckets) + 1)
            self.count = 0

    def absorb(self, name: str, metric: Metric) -> None:
        if type(metric) is not self.kind:
            raise TypeError(f"cannot merge {name!r}: kind mismatch")
        if isinstance(metric, Histogram):
            if metric.buckets != self.buckets:
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket bounds differ"
                )
            for i, bucket_count in enumerate(metric.counts):
                self.counts[i] += bucket_count
            self.count += metric.count
            self.values.append(metric.sum)
        else:
            self.values.append(metric.value)


def merge_registries(
    registries,
    gauge_rules: Mapping[str, str] | None = None,
    default_gauge_rule: str = "sum",
) -> MetricsRegistry:
    """Combine any number of registries into a fresh, order-independent one.

    Unlike pairwise :meth:`MetricsRegistry.merge` (which folds left and
    lets the last gauge write win), this merge is *permutation-invariant*:
    feeding the same registries in any order produces byte-identical
    exports.

    * counters and histogram sums use :func:`math.fsum` — the exact
      correctly-rounded sum, which does not depend on addend order;
    * histogram bucket tallies and counts are integer sums;
    * gauges combine under a per-name rule (``"sum"``, ``"max"`` or
      ``"min"``; ``gauge_rules`` maps gauge names to rules, everything
      else uses ``default_gauge_rule``) — all commutative, so no write
      ordering leaks into the result.

    ``registries`` may be any iterable — including a generator that loads
    registries lazily (e.g. one checkpointed shard file at a time).  Each
    registry is consumed and released before the next is requested, so
    peak memory is the *merged* footprint plus one input, never all
    inputs at once.  Streaming and materialized inputs produce
    byte-identical merges (the fsum sees the same addend multiset).

    Metric kinds and histogram bucket bounds must agree across inputs for
    any shared ``(name, labels)`` key.
    """
    if default_gauge_rule not in GAUGE_RULES:
        raise ValueError(f"unknown gauge rule {default_gauge_rule!r}")
    rules = dict(gauge_rules or {})
    for name, rule in rules.items():
        if rule not in GAUGE_RULES:
            raise ValueError(f"unknown gauge rule {rule!r} for {name!r}")
    slots: dict[tuple[str, Labels], _MergeSlot] = {}
    for registry in registries:
        for metric in registry.metrics():
            key = (metric.name, metric.labels)
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = _MergeSlot(metric)
            slot.absorb(metric.name, metric)
    merged = MetricsRegistry()
    for (name, labels), slot in sorted(slots.items()):
        labels_map = dict(labels)
        if slot.kind is Counter:
            merged.counter(name, labels_map).value = math.fsum(slot.values)
        elif slot.kind is Gauge:
            rule = rules.get(name, default_gauge_rule)
            if rule == "sum":
                combined = math.fsum(slot.values)
            elif rule == "max":
                combined = max(slot.values)
            else:
                combined = min(slot.values)
            merged.gauge(name, labels_map).set(combined)
        else:
            hist = merged.histogram(name, slot.buckets, labels_map)
            hist.counts = list(slot.counts)
            hist.sum = math.fsum(slot.values)
            hist.count = slot.count
    return merged

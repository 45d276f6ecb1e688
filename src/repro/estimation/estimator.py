"""Execution-time estimator families.

All estimators are trained per layer *kind* (conv, fc, ...), as the paper
does, from :class:`~repro.profiling.profiler.ContentionSample` datasets.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict

import numpy as np

from repro.dnn.graph import LayerInfo
from repro.dnn.layer import LayerKind
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import BestOfLinearLog
from repro.estimation.features import (
    build_matrix,
    layer_features,
    sample_features,
    sample_matrix,
    stats_features,
    stats_matrix,
)
from repro.profiling.gpu_stats import GpuStats
from repro.profiling.profiler import ContentionSample


def _group_by_kind(
    samples: list[ContentionSample],
) -> dict[LayerKind, list[ContentionSample]]:
    groups: dict[LayerKind, list[ContentionSample]] = defaultdict(list)
    for sample in samples:
        groups[sample.info.kind].append(sample)
    return dict(groups)


def _forest_rowwise_mean(
    model: RandomForestRegressor, X: np.ndarray
) -> np.ndarray:
    """Ensemble mean per row, bit-identical to single-row ``predict``.

    The transpose makes each row's tree predictions contiguous, so the
    reduction uses the same pairwise summation a ``(n_trees, 1)`` scalar
    call gets — batched estimates therefore agree with the per-sample
    scalar path to the last bit (see RandomForestRegressor.predict_per_tree).
    """
    per_tree = model.predict_per_tree(X)
    return np.ascontiguousarray(per_tree.T).mean(axis=1)


def _group_by_nearest_load(
    samples: list[ContentionSample],
    models: dict[LayerKind, dict[int, "BestOfLinearLog"]],
) -> dict[tuple[LayerKind, int], list[int]]:
    """Sample indices grouped by (kind, nearest trained load level) — one
    linear-model matrix call per group instead of one per sample."""
    groups: dict[tuple[LayerKind, int], list[int]] = {}
    for i, sample in enumerate(samples):
        kind = sample.info.kind
        if kind not in models:
            raise KeyError(f"no model trained for layer kind {kind}")
        by_load = models[kind]
        nearest = min(
            by_load, key=lambda load: abs(load - sample.stats.num_clients)
        )
        groups.setdefault((kind, nearest), []).append(i)
    return groups


class ExecutionTimeEstimator(ABC):
    """Predicts a layer's contended execution time on a given server."""

    name: str = "base"

    @abstractmethod
    def fit(self, samples: list[ContentionSample]) -> "ExecutionTimeEstimator":
        """Train from profiled samples."""

    @abstractmethod
    def predict(self, info: LayerInfo, stats: GpuStats) -> float:
        """Predicted execution time (seconds) of ``info`` under ``stats``."""

    def predict_batch(
        self, samples: list[ContentionSample]
    ) -> np.ndarray:
        """Predicted times for many samples at once.

        The base implementation loops over :meth:`predict`; vectorizing
        subclasses override it with grouped matrix predictions that agree
        with the scalar path element-for-element.
        """
        return np.array([self.predict(s.info, s.stats) for s in samples])


class RFWithLoadEstimator(ExecutionTimeEstimator):
    """PerDNN's estimator: random forest on layer + GPU workload features."""

    name = "RF w/ server load info"

    def __init__(
        self,
        n_estimators: int = 40,
        max_depth: int = 16,
        rng: np.random.Generator | None = None,
    ) -> None:
        self._n_estimators = n_estimators
        self._max_depth = max_depth
        self._rng = rng or np.random.default_rng()
        self._models: dict[LayerKind, RandomForestRegressor] = {}

    def fit(self, samples: list[ContentionSample]) -> "RFWithLoadEstimator":
        for kind, group in _group_by_kind(samples).items():
            X, y = build_matrix(group, with_load=True)
            model = RandomForestRegressor(
                n_estimators=self._n_estimators,
                max_depth=self._max_depth,
                # All features per split: with only 8 features, the
                # multiplicative layer-size x load interaction needs every
                # split to see both feature groups; bootstrap still
                # decorrelates the trees.
                max_features=None,
                rng=self._rng,
            )
            self._models[kind] = model.fit(X, y)
        return self

    def predict(self, info: LayerInfo, stats: GpuStats) -> float:
        model = self._require_model(info.kind)
        x = np.concatenate([layer_features(info), stats_features(stats)])
        return float(model.predict(x[None, :])[0])

    def predict_batch(
        self, samples: list[ContentionSample]
    ) -> np.ndarray:
        """One forest call per layer kind over a matrix-built feature
        block, scattered back into sample order."""
        out = np.empty(len(samples))
        by_kind: dict[LayerKind, list[int]] = defaultdict(list)
        for i, sample in enumerate(samples):
            by_kind[sample.info.kind].append(i)
        for kind, indices in by_kind.items():
            model = self._require_model(kind)
            X = sample_matrix([samples[i] for i in indices], with_load=True)
            out[indices] = _forest_rowwise_mean(model, X)
        return out

    def feature_importances(self, kind: LayerKind) -> np.ndarray:
        model = self._require_model(kind)
        assert model.feature_importances_ is not None
        return model.feature_importances_

    def _require_model(self, kind: LayerKind) -> RandomForestRegressor:
        if kind not in self._models:
            raise KeyError(f"no model trained for layer kind {kind}")
        return self._models[kind]


class LLWithLoadEstimator(ExecutionTimeEstimator):
    """The paper's first ablation: the same per-load LL models as the
    NeuroSurgeon baseline, but with GPU workload statistics added to the
    features ("we trained the same LL models but with GPU statistics as
    well as layer hyperparameters")."""

    name = "LL w/ server load info"

    def __init__(self) -> None:
        self._models: dict[LayerKind, dict[int, BestOfLinearLog]] = {}

    def fit(self, samples: list[ContentionSample]) -> "LLWithLoadEstimator":
        for kind, group in _group_by_kind(samples).items():
            by_load: dict[int, list[ContentionSample]] = defaultdict(list)
            for sample in group:
                by_load[sample.stats.num_clients].append(sample)
            self._models[kind] = {}
            for load, load_group in by_load.items():
                X, y = build_matrix(load_group, with_load=True)
                self._models[kind][load] = BestOfLinearLog().fit(X, y)
        return self

    def predict(self, info: LayerInfo, stats: GpuStats) -> float:
        if info.kind not in self._models:
            raise KeyError(f"no model trained for layer kind {info.kind}")
        by_load = self._models[info.kind]
        nearest = min(by_load, key=lambda load: abs(load - stats.num_clients))
        x = np.concatenate([layer_features(info), stats_features(stats)])
        return float(by_load[nearest].predict(x[None, :])[0])

    def predict_batch(
        self, samples: list[ContentionSample]
    ) -> np.ndarray:
        out = np.empty(len(samples))
        for (kind, load), indices in _group_by_nearest_load(
            samples, self._models
        ).items():
            X = sample_matrix([samples[i] for i in indices], with_load=True)
            out[indices] = self._models[kind][load].predict(X)
        return out


class LLPerLoadEstimator(ExecutionTimeEstimator):
    """NeuroSurgeon baseline: LL on layer features, one model per load level.

    The paper trains "different models for each server load (~ number of
    clients), as described in their paper".  At prediction time the model
    for the nearest trained client count is used; GPU statistics beyond the
    client count are ignored.
    """

    name = "LL"

    def __init__(self) -> None:
        self._models: dict[LayerKind, dict[int, BestOfLinearLog]] = {}

    def fit(self, samples: list[ContentionSample]) -> "LLPerLoadEstimator":
        for kind, group in _group_by_kind(samples).items():
            by_load: dict[int, list[ContentionSample]] = defaultdict(list)
            for sample in group:
                by_load[sample.stats.num_clients].append(sample)
            self._models[kind] = {}
            for load, load_group in by_load.items():
                X = np.stack(
                    [sample_features(s, with_load=False) for s in load_group]
                )
                y = np.array([s.measured_time for s in load_group])
                self._models[kind][load] = BestOfLinearLog().fit(X, y)
        return self

    def predict(self, info: LayerInfo, stats: GpuStats) -> float:
        if info.kind not in self._models:
            raise KeyError(f"no model trained for layer kind {info.kind}")
        by_load = self._models[info.kind]
        nearest = min(by_load, key=lambda load: abs(load - stats.num_clients))
        x = layer_features(info)
        return float(by_load[nearest].predict(x[None, :])[0])

    def predict_batch(
        self, samples: list[ContentionSample]
    ) -> np.ndarray:
        out = np.empty(len(samples))
        for (kind, load), indices in _group_by_nearest_load(
            samples, self._models
        ).items():
            X = sample_matrix([samples[i] for i in indices], with_load=False)
            out[indices] = self._models[kind][load].predict(X)
        return out


class ContentionEstimator:
    """GPU-stats -> slowdown-factor regressor for online planning.

    The simulator's master server holds each model's uncontended per-layer
    profile; multiplying it by the predicted slowdown yields the server-side
    layer times used for partitioning.  This is the distilled form of the
    per-kind estimators, cheap enough to apply to hundreds of servers per
    planning round.
    """

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 8,
        rng: np.random.Generator | None = None,
    ) -> None:
        self._rng = rng or np.random.default_rng()
        self._model = RandomForestRegressor(
            n_estimators=n_estimators, max_depth=max_depth, rng=self._rng
        )
        self._fitted = False

    def fit(self, samples: list[ContentionSample]) -> "ContentionEstimator":
        usable = [s for s in samples if s.base_time > 0]
        if not usable:
            raise ValueError("no samples with positive base time")
        X = np.stack([stats_features(s.stats) for s in usable])
        y = np.array([s.measured_time / s.base_time for s in usable])
        self._model.fit(X, y)
        self._fitted = True
        return self

    def predict_slowdown(self, stats: GpuStats) -> float:
        if not self._fitted:
            raise RuntimeError("estimator has not been fitted")
        x = stats_features(stats)
        return max(1.0, float(self._model.predict(x[None, :])[0]))

    def predict_slowdown_batch(self, stats_list: list[GpuStats]) -> np.ndarray:
        """Slowdown factors for many pinged servers in one forest call.

        Element ``i`` is bit-identical to ``predict_slowdown(stats_list[i])``
        — including the per-element ``max(1.0, ·)`` clamp — so the master
        can swap the per-server scalar loop for this without changing any
        same-seed simulation output.
        """
        if not self._fitted:
            raise RuntimeError("estimator has not been fitted")
        if not stats_list:
            return np.empty(0)
        X = stats_matrix(stats_list)
        return np.maximum(1.0, _forest_rowwise_mean(self._model, X))

    def max_slowdown(self) -> float:
        """An upper bound on every slowdown this estimator can predict.

        A forest prediction is the mean over trees of one leaf value per
        tree, so the mean of each tree's largest leaf bounds it.  The
        bound is reduced as :func:`_forest_rowwise_mean` reduces one row
        (a contiguous mean over the trees), and rounded sums are monotone
        in their terms, so no ``predict_slowdown`` or
        ``predict_slowdown_batch`` value exceeds it by even one ulp.
        """
        if not self._fitted:
            raise RuntimeError("estimator has not been fitted")
        return max(1.0, float(self._model.max_leaf_values().mean()))

    def predict_time(self, base_time: float, stats: GpuStats) -> float:
        return base_time * self.predict_slowdown(stats)

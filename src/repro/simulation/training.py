"""Default model training: :func:`train_default_models` is the one seam
both large-scale entry points train through, so one seed derives the
same models in either."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import PerDNNConfig
from repro.core.master import MigrationPolicy
from repro.estimation.estimator import ContentionEstimator
from repro.mobility.predictor import PointPredictor
from repro.mobility.svr import SVRPredictor
from repro.mobility.trajectory import TrajectoryDataset
from repro.partitioning.partitioner import DNNPartitioner
from repro.profiling.profiler import generate_contention_dataset

if TYPE_CHECKING:
    from repro.simulation.large_scale import SimulationSettings


def train_default_predictor(
    train: TrajectoryDataset, history: int, rng: np.random.Generator
) -> PointPredictor:
    """The paper's deployed predictor: linear SVR on recent coordinates."""
    predictor = SVRPredictor(history=history, rng=rng)
    predictor.fit(train)
    return predictor


def train_default_estimator(
    partitioner: DNNPartitioner, rng: np.random.Generator
) -> ContentionEstimator:
    """Offline profiling campaign -> GPU-stats-to-slowdown estimator."""
    samples = generate_contention_dataset(
        partitioner.profile.graph,
        partitioner.profile.server_device,
        rng,
        client_counts=(1, 2, 4, 8, 12, 16),
        rounds_per_count=6,
    )
    return ContentionEstimator(rng=rng).fit(samples)


def train_default_models(
    dataset: TrajectoryDataset,
    partitioner: DNNPartitioner,
    settings: SimulationSettings,
    config: PerDNNConfig,
    rng: np.random.Generator,
    predictor: PointPredictor | None = None,
    contention_estimator: ContentionEstimator | None = None,
) -> tuple[PointPredictor | None, ContentionEstimator | None]:
    """Train whichever default models the run needs and was not given.

    The PerDNN predictor comes first, fitted on the train half of the
    time split (cut only when a predictor is fitted), then the contention
    estimator; both draw from ``rng`` in that order.
    """
    if settings.policy is MigrationPolicy.PERDNN and predictor is None:
        train, _ = dataset.split_time(settings.replay_fraction)
        predictor = train_default_predictor(
            train, config.prediction_history, rng
        )
    if contention_estimator is None and settings.use_contention_estimator:
        contention_estimator = train_default_estimator(partitioner, rng)
    return predictor, contention_estimator

"""Default model training: :func:`train_default_models` is the one seam
both large-scale entry points train through, so one seed derives the
same models in either."""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import PerDNNConfig
from repro.core.master import MigrationPolicy
from repro.estimation.estimator import ContentionEstimator
from repro.mobility.predictor import PointPredictor
from repro.mobility.svr import SVRPredictor
from repro.mobility.trajectory import TrajectoryDataset, replay_cut
from repro.partitioning.partitioner import DNNPartitioner
from repro.profiling.profiler import generate_contention_dataset

if TYPE_CHECKING:
    from repro.simulation.large_scale import SimulationSettings

#: The default predictor is fitted on at most this many users (the paper
#: fits its SVR on 31 KAIST or 138 Geolife users); each user costs about
#: 0.15 CPU s of training at 360 trace steps.
TRAIN_USERS = 64

#: Salts the training sample's own seed stream, so drawing the sample
#: takes nothing from the run's rng.
_TRAIN_SAMPLE_SALT = 0x5A


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
    time split of :func:`_training_users` (cut only when a predictor is
    fitted), then the contention estimator; both draw from ``rng`` in
    that order.
    """
    if settings.policy is MigrationPolicy.PERDNN and predictor is None:
        users = _training_users(dataset, settings, config.prediction_history)
        train, _ = users.split_time(settings.replay_fraction)
        predictor = train_default_predictor(
            train, config.prediction_history, rng
        )
    if contention_estimator is None and settings.use_contention_estimator:
        contention_estimator = train_default_estimator(partitioner, rng)
    return predictor, contention_estimator


def _training_users(
    dataset: TrajectoryDataset, settings: SimulationSettings, history: int
) -> TrajectoryDataset:
    """The users the default predictor is fitted on.

    A user is *eligible* when its train part is longer than ``history``
    points, i.e. it yields at least one SVR window.  Up to
    :data:`TRAIN_USERS` eligible users, that is the whole ``dataset``
    (users without a window add nothing to the fit); past it, a sample of
    :data:`TRAIN_USERS` eligible users in index order, drawn from a
    stream salted off ``settings.seed``.
    """
    eligible = [
        index for index, trajectory in enumerate(dataset.trajectories)
        if replay_cut(len(trajectory), settings.replay_fraction) > history
    ]
    if not eligible:
        raise ValueError(
            "traces are too short to train the mobility predictor: no "
            f"user's train part is longer than prediction_history={history}"
        )
    if len(eligible) <= TRAIN_USERS:
        return dataset
    seed = np.random.SeedSequence([settings.seed, _TRAIN_SAMPLE_SALT])
    chosen = np.random.default_rng(seed).choice(
        eligible, TRAIN_USERS, replace=False
    )
    trajectories = tuple(dataset.trajectories[i] for i in np.sort(chosen))
    return replace(dataset, trajectories=trajectories)

"""The default predictor's training sample.

:func:`~repro.simulation.training.train_default_models` fits the SVR on
every user while at most ``TRAIN_USERS`` users are eligible (their train
part yields a window) and on a seeded sample of ``TRAIN_USERS`` eligible
users past that.  These tests pin both regimes bit for bit, and that the
sample takes nothing from the run's shared rng.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import PerDNNConfig
from repro.core.master import MigrationPolicy
from repro.mobility.trajectory import replay_cut
from repro.simulation import training
from repro.simulation.checkpoint import run_fingerprint
from repro.simulation.large_scale import SimulationSettings
from repro.trajectories.synthetic import kaist_like

CONFIG = PerDNNConfig()
HISTORY = CONFIG.prediction_history
FIT = training.train_default_predictor


def make_settings(seed=3):
    return SimulationSettings(
        policy=MigrationPolicy.PERDNN, seed=seed,
        use_contention_estimator=False,
    )


def make_dataset(num_users, short_every=None):
    """Short KAIST-like traces; with ``short_every`` every that-many-th
    user is cut to too few points to yield a training window."""
    dataset = kaist_like(
        np.random.default_rng(7), num_users=num_users, duration_steps=16
    )
    if short_every is None:
        return dataset
    trajectories = tuple(
        replace(t, points=t.points[:HISTORY]) if i % short_every == 0 else t
        for i, t in enumerate(dataset.trajectories)
    )
    return replace(dataset, trajectories=trajectories)


def eligible(trajectory, settings):
    return replay_cut(len(trajectory), settings.replay_fraction) > HISTORY


def train(dataset, settings, rng):
    predictor, estimator = training.train_default_models(
        dataset, None, settings, CONFIG, rng
    )
    assert estimator is None
    return predictor


def spy_on_fit(monkeypatch):
    """Record every dataset ``train_default_predictor`` is handed."""
    seen = []

    def spy(train_part, history, rng):
        seen.append(train_part)
        return FIT(train_part, history, rng)

    monkeypatch.setattr(training, "train_default_predictor", spy)
    return seen


def sampled_ids(dataset, settings, monkeypatch):
    seen = spy_on_fit(monkeypatch)
    train(dataset, settings, np.random.default_rng(settings.seed))
    (train_part,) = seen
    return [t.user_id for t in train_part.trajectories]


class TestUpToTheBound:
    @pytest.mark.parametrize(
        "num_users, short_every", [(24, None), (80, 4)],
        ids=["all-eligible", "64-of-80-eligible"],
    )
    def test_fits_the_whole_train_half(self, num_users, short_every):
        # 80 users of whom 20 are too short leave 60 eligible: still the
        # whole population's train half, exactly as before the bound.
        dataset = make_dataset(num_users, short_every)
        settings = make_settings()
        assert sum(eligible(t, settings) for t in dataset.trajectories) <= (
            training.TRAIN_USERS
        )
        rng = np.random.default_rng(settings.seed)
        predictor = train(dataset, settings, rng)
        expected_rng = np.random.default_rng(settings.seed)
        expected = FIT(
            dataset.split_time(settings.replay_fraction)[0],
            HISTORY, expected_rng,
        )
        assert pickle.dumps(predictor) == pickle.dumps(expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_no_eligible_user_is_one_value_error(self):
        dataset = make_dataset(3, short_every=1)
        with pytest.raises(ValueError, match="prediction_history=5"):
            train(dataset, make_settings(), np.random.default_rng(0))


class TestPastTheBound:
    def test_fits_a_sorted_sample_of_eligible_users(self, monkeypatch):
        dataset = make_dataset(90)
        settings = make_settings()
        ids = sampled_ids(dataset, settings, monkeypatch)
        assert len(ids) == training.TRAIN_USERS
        assert ids == sorted(set(ids))
        assert all(eligible(dataset.trajectories[i], settings) for i in ids)

    def test_sample_draws_nothing_from_the_shared_rng(self, monkeypatch):
        dataset = make_dataset(90)
        settings = make_settings()
        seen = spy_on_fit(monkeypatch)
        rng = np.random.default_rng(settings.seed)
        predictor = train(dataset, settings, rng)
        ids = [t.user_id for t in seen[0].trajectories]
        sub = replace(
            dataset, trajectories=tuple(dataset.trajectories[i] for i in ids)
        )
        # Fitting the sample with an rng in the run's starting state
        # gives the same bits and leaves the same state behind.
        expected_rng = np.random.default_rng(settings.seed)
        expected = FIT(
            sub.split_time(settings.replay_fraction)[0],
            HISTORY, expected_rng,
        )
        assert pickle.dumps(predictor) == pickle.dumps(expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_the_seed_picks_the_sample(self, monkeypatch):
        dataset = make_dataset(90)
        first = sampled_ids(dataset, make_settings(seed=3), monkeypatch)
        again = sampled_ids(dataset, make_settings(seed=3), monkeypatch)
        other = sampled_ids(dataset, make_settings(seed=4), monkeypatch)
        assert first == again
        assert first != other

    def test_never_samples_an_ineligible_user(self, monkeypatch):
        # Every third user is too short: 66 of 99 stay eligible.
        dataset = make_dataset(99, short_every=3)
        settings = make_settings()
        ids = sampled_ids(dataset, settings, monkeypatch)
        assert len(ids) == training.TRAIN_USERS
        assert all(eligible(dataset.trajectories[i], settings) for i in ids)


def test_run_fingerprint_records_the_bound(monkeypatch):
    dataset = make_dataset(4)
    settings = make_settings()

    def fingerprint():
        return run_fingerprint(dataset, settings, CONFIG, 8, ["tiny"], True)

    before = fingerprint()
    monkeypatch.setattr(training, "TRAIN_USERS", training.TRAIN_USERS + 1)
    assert fingerprint() != before

"""The dataset spill's columnar file format and its typed errors.

``ShardDatasetStore.store`` writes one record of columns per shard;
``read`` rebuilds the dataset bit for bit, as views into one points
array, and refuses a damaged or malformed file with a ``ValueError``
that names it, without calling anything the file names.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geo.geometry import BoundingBox
from repro.mobility.trajectory import Trajectory, TrajectoryDataset
from repro.simulation.checkpoint import ShardDatasetStore


def make_dataset(lengths=(3, 0, 5, 1)) -> TrajectoryDataset:
    rng = np.random.default_rng(7)
    return TrajectoryDataset(
        name="city-test",
        interval_seconds=20.0,
        bbox=BoundingBox(-1.5, 0.0, 900.25, 1e3),
        trajectories=tuple(
            Trajectory(10 + i, 20.0, rng.uniform(-1e3, 1e3, size=(n, 2)))
            for i, n in enumerate(lengths)
        ),
    )


def assert_same_dataset(a: TrajectoryDataset, b: TrajectoryDataset) -> None:
    assert (a.name, a.interval_seconds, a.bbox) == (
        b.name, b.interval_seconds, b.bbox
    )
    assert len(a.trajectories) == len(b.trajectories)
    for x, y in zip(a.trajectories, b.trajectories):
        assert x.user_id == y.user_id
        assert x.interval_seconds == y.interval_seconds
        assert x.points.dtype == y.points.dtype == np.float64
        assert x.points.tobytes() == y.points.tobytes()


class TestColumnarSpill:
    def test_round_trip_is_bit_exact(self, tmp_path):
        dataset = make_dataset()
        path = ShardDatasetStore(tmp_path).store(3, dataset)
        assert path.endswith("dataset-00003.pkl")
        assert_same_dataset(ShardDatasetStore.read(path), dataset)

    def test_trajectories_are_views_of_one_array(self, tmp_path):
        path = ShardDatasetStore(tmp_path).store(0, make_dataset())
        read = ShardDatasetStore.read(path)
        points = [t.points for t in read.trajectories]
        assert all(p.base is not None for p in points)
        assert len({id(p.base) for p in points}) == 1

    def test_empty_dataset_round_trips(self, tmp_path):
        dataset = make_dataset(lengths=())
        path = ShardDatasetStore(tmp_path).store(1, dataset)
        assert_same_dataset(ShardDatasetStore.read(path), dataset)

    def test_the_record_is_columns(self, tmp_path):
        path = ShardDatasetStore(tmp_path).store(0, make_dataset())
        with open(path, "rb") as handle:
            name, interval, bbox, user_ids, lengths, points = pickle.load(
                handle
            )
        assert (name, interval) == ("city-test", 20.0)
        assert bbox == (-1.5, 0.0, 900.25, 1e3)
        assert user_ids == [10, 11, 12, 13]
        assert type(lengths) is type(points) is bytearray
        assert np.frombuffer(lengths, dtype=np.int64).tolist() == [3, 0, 5, 1]
        assert points == b"".join(
            t.points.tobytes() for t in make_dataset().trajectories
        )


def write_record(tmp_path, record) -> str:
    path = str(tmp_path / "dataset-00000.pkl")
    with open(path, "wb") as handle:
        pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def int64_bytes(values) -> bytearray:
    return bytearray(np.array(values, dtype=np.int64).tobytes())


def good_record():
    return (
        "city", 20.0, (0.0, 0.0, 1.0, 1.0), [0, 1],
        int64_bytes([2, 1]), bytearray(np.zeros((3, 2)).tobytes()),
    )


CALLS = []


def _record_call():
    CALLS.append(1)
    return int64_bytes([2, 1])


class _CallsOnLoad:
    def __reduce__(self):
        return (_record_call, ())


class TestMalformedRecords:
    @pytest.mark.parametrize(
        "column, value",
        [
            (4, int64_bytes([2, 2])),  # lengths sum to 4 != 3
            (4, int64_bytes([4, -1])),  # negative length
            (4, [2, 1]),  # not bytes
            (4, np.array([2, 1], dtype=np.int64)),  # a numpy global
            (5, np.zeros((3, 2), dtype=np.float32).tobytes()),  # 3 floats
            (5, np.zeros((3, 3)).tobytes()),  # 9 floats, not (x, y) pairs
            (5, b"\0" * 7),  # not whole float64s
            (5, np.zeros((3, 2))),  # a numpy global
            (3, [0]),  # user ids do not match the lengths
            (2, (1.0, 1.0, 0.0, 0.0)),  # degenerate bounding box
            (1, -20.0),  # non-positive interval
        ],
    )
    def test_rejected_with_the_path(self, tmp_path, column, value):
        record = list(good_record())
        record[column] = value
        path = write_record(tmp_path, tuple(record))
        with pytest.raises(ValueError, match="dataset-00000.pkl"):
            ShardDatasetStore.read(path)

    @pytest.mark.parametrize("record", [None, ("city", 20.0), [1, 2, 3]])
    def test_not_a_record(self, tmp_path, record):
        path = write_record(tmp_path, record)
        with pytest.raises(ValueError, match="dataset-00000.pkl"):
            ShardDatasetStore.read(path)

    def test_good_record_reads(self, tmp_path):
        dataset = ShardDatasetStore.read(write_record(tmp_path, good_record()))
        assert [len(t) for t in dataset.trajectories] == [2, 1]
        assert all(t.points.flags.writeable for t in dataset.trajectories)

    def test_a_named_callable_is_never_called(self, tmp_path):
        record = list(good_record())
        record[4] = _CallsOnLoad()
        path = write_record(tmp_path, tuple(record))
        with pytest.raises(ValueError, match="refused"):
            ShardDatasetStore.read(path)
        assert CALLS == []


def test_a_numpy_dtype_flip_is_refused_not_a_crash(tmp_path):
    """Flipping one bit of a pickled int64 array's dtype code, ``i8`` to
    ``m8``, makes numpy's dtype ``__setstate__`` crash the interpreter.
    Such a file must be refused before numpy sees it; the read runs in a
    child so a regression fails this test instead of the whole session."""
    record = list(good_record())
    record[4] = np.array([2, 1], dtype=np.int64)
    blob = pickle.dumps(tuple(record), protocol=pickle.HIGHEST_PROTOCOL)
    assert blob.count(b"i8") == 1
    path = tmp_path / "dataset-00000.pkl"
    path.write_bytes(blob.replace(b"i8", b"m8"))
    code = (
        "import sys\n"
        "from repro.simulation.checkpoint import ShardDatasetStore\n"
        "try:\n"
        "    ShardDatasetStore.read(sys.argv[1])\n"
        "except ValueError as exc:\n"
        "    print('refused' if 'refused' in str(exc) else 'other')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (child.returncode, child.stdout.strip()) == (0, "refused"), (
        child.stderr
    )


@pytest.fixture(scope="module")
def spilled(tmp_path_factory):
    directory = tmp_path_factory.mktemp("spill")
    path = ShardDatasetStore(directory).store(0, make_dataset())
    with open(path, "rb") as handle:
        return directory, handle.read()


class TestDamagedFiles:
    @given(st.data())
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_truncation_is_a_typed_error(self, spilled, data):
        directory, blob = spilled
        cut = data.draw(st.integers(0, len(blob) - 1))
        path = str(directory / "truncated.pkl")
        with open(path, "wb") as handle:
            handle.write(blob[:cut])
        with pytest.raises(ValueError, match="truncated.pkl"):
            ShardDatasetStore.read(path)

    @given(st.data())
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_a_bit_flip_reads_or_is_a_typed_error(self, spilled, data):
        directory, blob = spilled
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
        path = str(directory / "flipped.pkl")
        with open(path, "wb") as handle:
            handle.write(bytes(damaged))
        try:
            dataset = ShardDatasetStore.read(path)
        except ValueError as exc:
            assert "flipped.pkl" in str(exc)
        else:
            # A flip inside the float payload or a name still decodes.
            assert isinstance(dataset, TrajectoryDataset)

"""Production telemetry bytes pinned across commits.

The oracle matrix compares production with the reference oracles inside
one commit, so code both paths share (fault transitions, model updates,
applying associations, the GPU step, expiry order) could drift without
either side noticing.  Here every matrix case's production snapshot,
unsharded and sharded, must hash to the sha256 recorded in
``oracle_matrix_digests.json``.

Regenerate the file (only when a change of bytes is intended) with::

    PYTHONPATH=src python -m tests.simulation.test_golden_digests

Float results can differ across numpy releases, so the check skips on a
numpy version other than the one the digests were generated with.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from tests.simulation.test_oracle_matrix import (  # noqa: F401 - fixtures
    CASES,
    branchy_partitioner,
    dataset,
    run_case,
)

DIGESTS_PATH = os.path.join(
    os.path.dirname(__file__), "oracle_matrix_digests.json"
)


def case_key(case: str, sharded: bool) -> str:
    return f"{case}/{'sharded' if sharded else 'unsharded'}"


def case_digest(case, sharded, dataset, tiny_partitioner, branchy_partitioner):
    result = run_case(
        case, sharded, dataset, tiny_partitioner, branchy_partitioner
    )
    return hashlib.sha256(result.telemetry.dumps().encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(DIGESTS_PATH) as handle:
        pinned = json.load(handle)
    if pinned["numpy"] != np.__version__:
        pytest.skip(
            f"digests were generated with numpy {pinned['numpy']}; "
            f"this is numpy {np.__version__}"
        )
    return pinned["digests"]


def test_every_case_is_pinned(golden):
    expected = {
        case_key(case, sharded)
        for case in CASES for sharded in (False, True)
    }
    assert set(golden) == expected


@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "sharded"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_production_bytes_match_golden(
    golden, dataset, tiny_partitioner, branchy_partitioner, case, sharded
):
    digest = case_digest(
        case, sharded, dataset, tiny_partitioner, branchy_partitioner
    )
    assert digest == golden[case_key(case, sharded)]


def main() -> None:
    """Rewrite the digest file from this checkout's production bytes."""
    from repro.dnn.models import tiny_branchy_dnn, tiny_linear_dnn
    from repro.partitioning.partitioner import DNNPartitioner
    from repro.profiling.hardware import odroid_xu4, titan_xp_server
    from repro.profiling.profiler import ExecutionProfile
    from repro.trajectories.synthetic import kaist_like

    def partitioner(graph):
        profile = ExecutionProfile.build(
            graph, odroid_xu4(), titan_xp_server()
        )
        return DNNPartitioner(profile, uplink_bps=35e6, downlink_bps=50e6)

    # Same inputs as the conftest and oracle-matrix fixtures.
    trace = kaist_like(np.random.default_rng(3), num_users=18,
                       duration_steps=60)
    tiny = partitioner(tiny_linear_dnn())
    branchy = partitioner(tiny_branchy_dnn())
    digests = {
        case_key(case, sharded): case_digest(
            case, sharded, trace, tiny, branchy
        )
        for case in sorted(CASES) for sharded in (False, True)
    }
    with open(DIGESTS_PATH, "w") as handle:
        json.dump({"numpy": np.__version__, "digests": digests}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()

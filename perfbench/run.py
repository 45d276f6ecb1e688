"""City-scale sharded-simulator benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload perdnn-100k --seed 1 --seconds 20 --trace 0

The measurement runs in a forked child, so its peak-RSS figures start
from a fresh high-water mark and the inputs it builds are its own.
Times are CPU seconds (user + system) of that child and the shard
workers it reaps, so a busy neighbour on a shared host, which stretches
wall time, does not move them; wall seconds are in the report.  Two
lines go to standard output: a JSON report (host block, every call's
timing, what each statistic is, the telemetry digest, spans when
tracing) and, last, the result line ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Workloads and metrics are
declared in ``BENCHMARK.json``; ``perfbench/layers.json`` maps each
per-layer metric to the end-to-end metric and workload it should move.

Exits 2 without a result when the simulator's sources (``src/repro``)
are not beside the benchmark, and 1 when the measurement itself breaks.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
import traceback

# One BLAS thread per process, set before numpy loads.  With the default
# (one per core) every driver and shard-worker process spins its own BLAS
# threads on the same few cores, and the spinning showed up as +-20%
# CPU time on identical calls.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import harness  # noqa: E402 - after the thread settings above

#: The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0


def _child(conn, workload, seed: int, seconds: float, trace: bool) -> None:
    try:
        payload = ("ok", harness.measure(workload, seed, seconds, trace))
    except Exception:  # reported to the parent, which exits non-zero
        payload = ("error", traceback.format_exc())
    conn.send(payload)
    conn.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(harness.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(
            f"perfbench: no simulator sources under {harness.SRC}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, harness.SRC)

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(
        target=_child,
        args=(
            sender, harness.WORKLOADS[args.workload], args.seed,
            args.seconds, bool(args.trace),
        ),
    )
    started = time.monotonic()
    child.start()
    sender.close()
    try:
        if not receiver.poll(CHILD_TIMEOUT_S):
            print(
                f"perfbench: no result within {CHILD_TIMEOUT_S:g} s",
                file=sys.stderr,
            )
            return 1
        status, payload = receiver.recv()
    except (EOFError, OSError) as exc:
        print(f"perfbench: measurement process died: {exc!r}", file=sys.stderr)
        return 1
    finally:
        if child.is_alive() and time.monotonic() - started >= CHILD_TIMEOUT_S:
            child.terminate()
        child.join()
        receiver.close()
    if status != "ok":
        print(payload, file=sys.stderr)
        return 1
    report, line = payload
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

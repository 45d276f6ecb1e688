"""Remote shard dispatch: run sharded-simulation jobs on other machines.

The supervisor isolates every shard attempt behind a one-shot channel
and already treats "the channel died" as a crash to retry — so remote
execution is purely a transport concern.  This module supplies both
ends of that transport:

* :class:`RemoteExecutor` — one supervision slot that ships each attempt
  to a ``repro shard-worker`` listener over TCP and plugs into the same
  ``launch``/``receive``/``kill`` seam as the local process executor, so
  retries, per-shard timeouts, chaos, and quarantine behave identically
  whether a shard ran locally, remotely, or on a mixed fleet (the
  equivalence suite pins byte-identical telemetry across all three).
* :func:`serve` — the listener: accepts one connection per shard
  attempt, forks a disposable handler process per request (a chaos
  ``os._exit`` or a real crash kills only that handler; the supervisor
  observes the dropped connection as ``CAUSE_CRASH`` and retries), runs
  :func:`~repro.simulation.supervisor.run_attempt` — the same attempt body
  as the local slots — and streams its outcome back.

Wire format: each direction carries exactly one frame — an 8-byte
big-endian unsigned length followed by that many bytes of pickle.  The
request frame is ``(runner, job, attempt, chaos)``; the response frame
is the same ``(status, payload)`` pair the local worker sends over its
pipe.  A short read or an undecodable frame at any point surfaces as
``EOFError`` (crash semantics).  Spilled datasets are hydrated on the
executor side before pickling, so the listener never needs access to
the driver's filesystem.

**Security**: frames are *pickle* — deserializing one executes arbitrary
code by design (the request literally carries the runner callable).
Run shard workers only on trusted hosts over trusted links (a lab
switch, an SSH tunnel, a VPN); never expose the port to an untrusted
network.  This mirrors the trust model of ``multiprocessing``'s own
remote connections.
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
import struct
from dataclasses import replace
from typing import Any, Callable

from repro.simulation.checkpoint import ShardDatasetStore
from repro.simulation.supervisor import FinishedAttempt, run_attempt

#: Default ``repro shard-worker`` port (unassigned range, easy to grep).
DEFAULT_PORT = 7077

_HEADER = struct.Struct(">Q")

#: Refuse frames past this size (64 GiB) — corrupted headers otherwise
#: turn into absurd allocations before the short read is noticed.
_MAX_FRAME = 1 << 36


def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"`` (or bare ``"host"`` using the default port)."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = text, str(DEFAULT_PORT)
    if not host:
        raise ValueError(f"invalid shard-worker address {text!r}: empty host")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"invalid shard-worker address {text!r}: expected host:port"
        ) from None
    if not 0 < port < 65536:
        raise ValueError(
            f"invalid shard-worker address {text!r}: port out of range"
        )
    return host, port


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise EOFError("peer closed the connection mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Write one length-prefixed pickle frame."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(blob)) + blob)


def recv_frame(sock: socket.socket) -> Any:
    """Read one length-prefixed pickle frame; ``EOFError`` on a dead
    peer or an undecodable payload (the supervisor maps either to
    crash-and-retry)."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > _MAX_FRAME:
        raise EOFError(f"frame length {length} exceeds the sanity cap")
    blob = _recv_exact(sock, length)
    try:
        return pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - corrupt bytes raise anything
        raise EOFError(
            f"undecodable frame: {type(exc).__name__}: {exc}"
        ) from exc


def _hydrate(job: Any) -> Any:
    """Inline a spilled dataset so the listener never touches our disk."""
    path = getattr(job, "dataset_path", None)
    if path is None or getattr(job, "dataset", None) is not None:
        return job
    return replace(
        job, dataset=ShardDatasetStore.read(path), dataset_path=None
    )


class RemoteExecutor:
    """One supervision slot dispatching attempts to a shard worker.

    Each attempt opens a fresh connection (one-shot, exactly like the
    local executor's one-shot pipe+process), sends the request frame,
    and hands the socket to the supervisor's wait loop.  A worker that
    is down, unreachable, or drops the connection surfaces as
    ``CAUSE_CRASH`` — the supervisor retries with backoff on whichever
    slot frees up first.  A remote that cannot be reached at launch is
    retired for the rest of the run, so a dead remote degrades a mixed
    fleet instead of failing the run.

    One executor is one slot: the listener forks a handler per request,
    but this driver serializes its own dispatch per address.  Pass the
    same address several times to run several shards there concurrently.
    """

    def __init__(self, address: str, *, connect_timeout: float = 10.0):
        self.host, self.port = parse_address(address)
        self.connect_timeout = connect_timeout

    def launch(self, runner, job, attempt, chaos) -> Any:
        sock = None
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
            sock.settimeout(None)
            send_frame(sock, (runner, _hydrate(job), attempt, chaos))
        except OSError as exc:
            if sock is not None:
                sock.close()
            return FinishedAttempt(
                failure=f"{self.describe()} is unreachable: {exc}"
            )
        return RemoteAttempt(sock, self.describe())

    def describe(self) -> str:
        return f"remote {self.host}:{self.port}"


class RemoteAttempt:
    """Handle for one shard attempt in flight on a remote worker."""

    def __init__(self, sock: socket.socket, peer: str):
        self._sock = sock
        self._peer = peer

    @property
    def waitable(self):
        return self._sock  # mp_connection.wait accepts socket objects

    def receive(self):
        return recv_frame(self._sock)

    def finish(self) -> None:
        self._sock.close()

    # Closing the socket is all the supervisor can do to kill an attempt
    # from here; the remote handler dies on its next write (broken pipe).
    kill = finish

    def crash_detail(self) -> str:
        return (
            f"{self._peer} closed the connection or sent an undecodable "
            "frame before delivering a result"
        )


def _handle_request(sock: socket.socket) -> None:
    """Run one shard attempt and ship ``(status, payload)`` back."""
    try:
        send_frame(sock, run_attempt(*recv_frame(sock)))
    except (EOFError, OSError):
        # The client gave up before sending a full request, or timed us
        # out and closed its end.
        pass
    finally:
        sock.close()


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    max_requests: int | None = None,
    on_ready: Callable[[str, int], None] | None = None,
) -> int:
    """Run a shard-worker listener; returns the request count served.

    Accepts one connection per shard attempt and — where ``fork`` is
    available — runs each handler in a disposable child process, so a
    chaos injection or a hard crash inside one shard never takes the
    listener down.  ``port=0`` binds an ephemeral port; ``on_ready``
    fires with the actual ``(host, port)`` once listening (the CLI
    prints it so scripts can scrape the address).  ``max_requests``
    bounds the accept loop for tests and smokes.
    """
    listener = socket.create_server((host, port))
    bound_port = listener.getsockname()[1]
    if on_ready is not None:
        on_ready(host, bound_port)
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork") if can_fork else None
    children: list[Any] = []
    served = 0
    try:
        while max_requests is None or served < max_requests:
            conn, _ = listener.accept()
            served += 1
            if ctx is None:
                _handle_request(conn)  # no fork: chaos kills the listener
                continue
            process = ctx.Process(
                target=_handle_request, args=(conn,), daemon=True
            )
            process.start()
            conn.close()
            children = [c for c in children if c.is_alive()] + [process]
    finally:
        listener.close()
        for child in children:
            child.join(timeout=30.0)
    return served


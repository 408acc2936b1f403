"""Multi-process OSD serving: one target shard per worker process.

One asyncio event loop tops out on a single core; past the protocol-level
wins (zero-copy framing, coalesced writes) the remaining service-layer
ceiling is the GIL. :class:`WorkerPool` scales past it the way Open-CAS
scales per-cache worker queues and PiCN scales ``LayerProcess`` stages:
keep the protocol engine single-threaded *per shard* and run N shards as
separate processes.

Placement model
---------------

Every worker owns a private :class:`~repro.osd.target.OsdTarget` (its own
in-memory flash array — nothing is shared, so no cross-process locking).
Load balancing is **connection-affine**: all workers accept on the same
TCP port, the kernel picks a worker per *connection*, and every command on
that connection executes against that worker's shard. A client therefore
reads its own writes as long as it keeps using the same connection —
exactly the contract the closed-loop load generator and the pooled client
already follow.

Accept models
-------------

- **SO_REUSEPORT** (Linux, modern BSDs): every worker binds its own
  listening socket on the shared port; the kernel load-balances incoming
  connections across workers.
- **Sharded accept** (fallback): the parent binds + listens once and the
  workers inherit the socket over ``fork``, all accepting on the same fd.

Workers are forked, not spawned: the target factory may be any callable
(closures included), and the pre-fork listening socket rides along for the
fallback path.
"""

from __future__ import annotations

import multiprocessing
import queue
import socket
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.stats import merge_snapshots
from repro.osd.target import OsdTarget

__all__ = [
    "WorkerPool",
    "supports_reuse_port",
]

#: Factory invoked inside each worker process to build that worker's shard.
TargetFactory = Callable[[int], OsdTarget]

_LISTEN_BACKLOG = 128


def supports_reuse_port() -> bool:
    """Whether this platform accepts ``SO_REUSEPORT`` on a TCP socket."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    except OSError:
        return False
    finally:
        probe.close()
    return True


def _worker_main(
    worker_id: int,
    target_factory: TargetFactory,
    host: str,
    port: int,
    listen_sock: Optional[socket.socket],
    reuse_port: bool,
    max_in_flight: int,
    ready_queue: "multiprocessing.Queue[Tuple[int, int]]",
    stats_queue: "multiprocessing.Queue[Tuple[int, Dict[str, object]]]",
    stop_event: "multiprocessing.synchronize.Event",
) -> None:
    """Child-process entry: serve one shard until the pool says stop."""
    import asyncio

    from repro.net.server import OsdServer

    async def _serve() -> None:
        target = target_factory(worker_id)
        server = OsdServer(
            target,
            host,
            port,
            max_in_flight=max_in_flight,
            reuse_port=reuse_port,
            sock=listen_sock,
        )
        await server.start()
        ready_queue.put((worker_id, server.port))
        # Block a worker thread, not the event loop, on the stop signal.
        await asyncio.get_running_loop().run_in_executor(None, stop_event.wait)
        await server.shutdown()
        stats_queue.put((worker_id, server.stats.snapshot()))

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass


class WorkerPool:
    """N forked OSD worker processes sharing one service port.

    Usage::

        pool = WorkerPool(make_shard, workers=4)
        pool.start()                      # blocks until every worker accepts
        ... drive pool.port with clients ...
        snapshots = pool.shutdown()       # graceful: drain, then collect stats

    ``target_factory(worker_id)`` runs *inside* each worker and builds that
    worker's private shard.
    """

    def __init__(
        self,
        target_factory: TargetFactory,
        workers: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = 32,
        start_timeout: float = 15.0,
        stop_timeout: float = 15.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.target_factory = target_factory
        self.workers = workers
        self.host = host
        self.port = port
        self.max_in_flight = max_in_flight
        self.start_timeout = start_timeout
        self.stop_timeout = stop_timeout
        self.reuse_port = supports_reuse_port()
        self._context = multiprocessing.get_context("fork")
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._listen_sock: Optional[socket.socket] = None
        self._stop_event = self._context.Event()
        self._ready_queue = self._context.Queue()
        self._stats_queue = self._context.Queue()
        self._snapshots: Optional[List[Dict[str, object]]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork the workers and wait until all of them are accepting."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if self.reuse_port:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, self.port))
            self.port = sock.getsockname()[1]
            if not self.reuse_port:
                # Sharded accept: the children inherit this listening fd.
                sock.listen(_LISTEN_BACKLOG)
        except BaseException:  # repro: allow[broad-except] rollback, re-raises
            sock.close()
            raise
        self._listen_sock = sock
        child_sock = None if self.reuse_port else sock
        for worker_id in range(self.workers):
            process = self._context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    self.target_factory,
                    self.host,
                    self.port,
                    child_sock,
                    self.reuse_port,
                    self.max_in_flight,
                    self._ready_queue,
                    self._stats_queue,
                    self._stop_event,
                ),
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        ready = 0
        try:
            while ready < self.workers:
                self._ready_queue.get(timeout=self.start_timeout)
                ready += 1
        except queue.Empty:
            self.shutdown()
            raise RuntimeError(
                f"only {ready}/{self.workers} workers came up within "
                f"{self.start_timeout}s"
            ) from None
        if self.reuse_port:
            # Every worker holds its own SO_REUSEPORT socket now; the
            # parent's placeholder only reserved the port during startup.
            sock.close()
            self._listen_sock = None

    def shutdown(self) -> List[Dict[str, object]]:
        """Graceful stop: signal, drain, join; returns per-worker snapshots."""
        if self._snapshots is not None:
            return self._snapshots
        self._stop_event.set()
        snapshots: List[Dict[str, object]] = []
        for _ in self._processes:
            try:
                _worker_id, snapshot = self._stats_queue.get(timeout=self.stop_timeout)
                snapshots.append(snapshot)
            except queue.Empty:
                break  # worker died or hung; join/terminate below
        for process in self._processes:
            process.join(timeout=self.stop_timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        if self._listen_sock is not None:
            self._listen_sock.close()
            self._listen_sock = None
        self._snapshots = snapshots
        return snapshots

    def merged_stats(self) -> Dict[str, object]:
        """Cross-worker ServiceStats aggregate (see ``merge_snapshots``)."""
        return merge_snapshots(self.shutdown())

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.shutdown()

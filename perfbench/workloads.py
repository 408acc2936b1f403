"""The benchmark's three workloads and their correctness checks.

``osd_direct`` and ``cluster_mix`` drive the networked service from one
event-loop thread: two client objects (``AsyncOsdClient`` or
``RouterClient``), each multiplexing four closed-loop logical clients over
its pipelined connection(s), so eight requests are outstanding at once.
Every logical client owns 16 private 4 KiB objects, picks the object and
read/write from its own seeded RNG, and verifies every read byte-exact
against a seeded payload oracle.

``sim_replay`` replays the paper's MediSyn medium-locality trace through
``ReoCache`` with ``ExperimentRunner`` (no sockets): Reo-20%, a cache of
10% of the data set, device 0 failed at mid-trace with a spare inserted
and prioritized recovery started. The seed shuffles the request order:
MediSyn draws requests independently from one Zipf law, so every order is
an equally likely trace over the same catalog.

Every workload runs at the ``fast`` experiment profile (:data:`PROFILE`).
Each returns a :class:`Outcome`: end-to-end metrics from the untraced
window, or per-layer metrics from a traced window (which runs after an
untraced one of the same length, so the two rates give the tracing
overhead).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import random
import resource
import statistics
import struct
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.map import fragment_object_id
from repro.cluster.router import decode_fragment
from repro.cluster.service import ClusterService, default_target_factory
from repro.erasure.rs import RSCodec
from repro.errors import FlashError
from repro.experiments.common import PROFILES, build_experiment_cache, make_trace
from repro.flash.array import FlashArray, ObjectHealth
from repro.net.client import AsyncOsdClient, OsdServiceError
from repro.net.server import OsdServer
from repro.osd.target import OsdTarget
from repro.osd.types import FIRST_USER_OID, PARTITION_BASE, ObjectId
from repro.sim.runner import ExperimentRunner, FailureEvent
from repro.workload.medisyn import Locality
from repro.workload.trace import Trace

import layers
from spans import SpanLog

__all__ = ["Outcome", "PROFILE", "WORKLOADS", "check_redundancy", "percentile"]

Metrics = Dict[str, Tuple[float, str]]

#: The experiment profile every workload runs (trace size, warm-up share).
PROFILE = PROFILES["fast"]


@dataclass
class Outcome:
    """One run's result: metrics plus the correctness ledger."""

    attempted: int
    failed: int
    metrics: Metrics
    #: Correctness findings; any entry makes the run incorrect.
    problems: List[str] = field(default_factory=list)
    #: Sample counts and other context printed beside the metrics.
    info: Dict[str, Any] = field(default_factory=dict)
    spans: Optional[SpanLog] = None


def percentile(values: np.ndarray, fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    index = min(len(values) - 1, int(fraction * len(values)))
    return float(np.partition(values, index)[index])


#: A segment is one slice of a timed window (or one replay); latency
#: percentiles are taken per segment and reported as their median.
LATENCY_SEGMENT_S = 3.0


def _latency_metrics(
    segments: List[Tuple[np.ndarray, np.ndarray]], info: Dict[str, Any]
) -> Metrics:
    """p50 and p99 per op type, in ms: the median over segments.

    Each segment holds ``(reads, writes)`` latencies already normalized
    for host speed. The median over segments keeps one bad stretch of the
    host from moving a run's tail. ``info`` gets the sample counts.
    """
    metrics: Metrics = {}
    info["latency_segments"] = len(segments)
    for position, kind in enumerate(("read", "write")):
        counts = [len(segment[position]) for segment in segments if len(segment[position])]
        info[f"{kind}_samples"] = sum(counts)
        # p99 is backed by >= 10 samples beyond it from 1000 samples on.
        info[f"{kind}_p99_supported"] = min(counts, default=0) >= 1000
        for name, fraction in (("p50", 0.50), ("p99", 0.99)):
            values = [
                percentile(segment[position], fraction)
                for segment in segments if len(segment[position])
            ]
            metrics[f"{kind}_{name}_ms"] = (statistics.median(values) * 1e3, "ms")
    return metrics


#: What one host-speed probe takes on the reference host (the 2-vCPU dev
#: box at its median speed); timed metrics are reported in its seconds.
REFERENCE_PROBE_SECONDS = 200e-6


def _probe_work() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


def _solo() -> bool:
    """True while this process runs one Python thread and has no child process.

    Only then does a slow probe mean a slow host: a second thread holding
    the GIL, or a worker process on the other vCPU, would slow the probe
    too and be credited back as host slowdown.
    """
    if threading.active_count() != 1:
        return False
    try:
        return not any(
            path.read_text().strip() for path in Path("/proc/self/task").glob("*/children")
        )
    except OSError:
        return True


class HostSpeed:
    """Interleaved probe of how fast the host runs the interpreter right now.

    The shared host's CPU speed drifts by +-15-25% within seconds. Timing a
    fixed slice of pure-Python work every few milliseconds *during* a
    measured window, and rescaling the window's times by the probe's mean
    against :data:`REFERENCE_PROBE_SECONDS`, cancels most of that drift;
    the raw wall-clock figures are kept in the run's metadata.

    The rescaling is applied only while the process stays :func:`solo`
    (checked at every probe for threads, and by :meth:`check_solo` for
    child processes); otherwise :meth:`slowdown` reads 1.0 and the figures
    are raw, which the run's metadata records as ``host_normalized``.
    """

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")
        self.seconds = 0.0
        self.solo = True

    def check_solo(self) -> None:
        self.solo = self.solo and _solo()

    def probe(self) -> None:
        started = time.perf_counter()
        _probe_work()
        took = time.perf_counter() - started
        self.at.append(started)
        self.took.append(took)
        self.seconds += took
        if threading.active_count() != 1:
            self.solo = False

    def slowdown(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean probe time in ``[start, end)`` over the reference (> 1: slower)."""
        at = np.frombuffer(self.at)
        took = np.frombuffer(self.took)[(at >= start) & (at < end)]
        if not self.solo or not len(took):
            return 1.0
        return float(took.mean()) / REFERENCE_PROBE_SECONDS


#: Seconds between host-speed probes on the event loop (about 2% of it).
PROBE_INTERVAL_S = 0.01


@contextlib.contextmanager
def _probing(host: HostSpeed) -> Iterator[None]:
    """Probe ``host`` every :data:`PROBE_INTERVAL_S` on the running loop."""
    loop = asyncio.get_running_loop()
    timer: asyncio.TimerHandle

    def probe() -> None:
        nonlocal timer
        host.probe()
        timer = loop.call_later(PROBE_INTERVAL_S, probe)

    host.check_solo()
    timer = loop.call_later(PROBE_INTERVAL_S, probe)
    try:
        yield
    finally:
        timer.cancel()
        host.check_solo()


#: Interpreter probes timed back to back between two service set-ups.
CALIBRATION_PROBES = 150
#: What one allocation probe takes on the reference host.
REFERENCE_ALLOCATION_SECONDS = 20e-3


def interpreter_slowdown() -> float:
    """Host slowdown for interpreter-bound work, from a block of probes."""
    started = time.perf_counter()
    for _ in range(CALIBRATION_PROBES):
        _probe_work()
    took = time.perf_counter() - started
    return took / CALIBRATION_PROBES / REFERENCE_PROBE_SECONDS


@dataclass(frozen=True)
class _Record:
    key: int
    size: float
    name: str


def allocation_slowdown() -> float:
    """Host slowdown for allocation-bound work: building many small objects."""
    started = time.perf_counter()
    _ = [_Record(i, i * 0.5, "k") for i in range(20000)]
    return (time.perf_counter() - started) / REFERENCE_ALLOCATION_SECONDS


class SetupTimer:
    """Times repeated set-ups, each between two calibration blocks.

    A set-up (a fraction of a second) is too short to probe from inside,
    and the host's speed minutes later says little about it. So every
    set-up is bracketed by calls of ``calibrate`` (a slowdown probe), and
    divided by the mean of the slowdowns just before and after it. The
    probe must match the set-up's work, because the host's memory speed
    drifts apart from its interpreter speed: a service set-up runs the
    event loop (:func:`interpreter_slowdown`), a replay set-up builds the
    trace's records (:func:`allocation_slowdown`). A garbage collection
    before each block keeps one set-up's garbage out of the next one's
    time. Set-ups are taken raw if the process is ever not :func:`_solo`.
    """

    def __init__(self, calibrate: Callable[[], float]) -> None:
        self.calibrate = calibrate
        self.solo = True
        self.raw: List[float] = []
        self.normalized: List[float] = []
        self._before = self._calibrate()

    def _calibrate(self) -> float:
        gc.collect()
        self.solo = self.solo and _solo()
        return self.calibrate()

    @contextlib.contextmanager
    def timing(self) -> Iterator[None]:
        started = time.perf_counter()
        yield
        took = time.perf_counter() - started
        after = self._calibrate()
        slowdown = (self._before + after) / 2 if self.solo else 1.0
        self._before = after
        self.raw.append(took)
        self.normalized.append(took / slowdown)

    def record(self, info: Dict[str, Any]) -> float:
        """The median normalized set-up time; raw figures go to ``info``."""
        info.update(
            setup_runs=len(self.raw),
            raw_setup_s=statistics.median(self.raw),
            setup_normalized=self.solo,
        )
        return statistics.median(self.normalized)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_redundancy(array: FlashArray, keys: Optional[List[Any]] = None) -> List[str]:
    """Each object in ``array`` survives the loss of any one of its chunks.

    Reads every chunk of every stripe straight from its device, then
    rebuilds the stripe once per chunk with that chunk left out; each
    rebuild must give the bytes a healthy read returns. So a stripe whose
    scheme promises redundancy but whose parity or copies are missing,
    wrong, or on a shared device fails, and ``stored_per_user_byte`` can
    fall only through real space savings. ``keys`` defaults to every object.
    """
    problems: List[str] = []
    codecs: Dict[Tuple[int, int], RSCodec] = {}
    for key in list(array.keys()) if keys is None else keys:
        extent = array.get_extent(key)
        payload, _ = array.read_object(key)
        tolerated = extent.scheme.tolerable_failures(array.width)
        offset = 0
        for stripe in extent.stripes:
            expected = payload[offset : offset + stripe.payload_bytes]
            offset += stripe.payload_bytes
            try:
                chunks = {
                    chunk.fragment_index: array.devices[chunk.device_id].read_chunk(chunk.address)[0]
                    for chunk in stripe.chunks
                }
            except FlashError as error:
                problems.append(f"{key}: stripe {stripe.stripe_id} has an unreadable chunk: {error}")
                break
            spread = len({chunk.device_id for chunk in stripe.chunks}) == len(stripe.chunks)
            if not spread or len(stripe.chunks) - stripe.data_count < tolerated:
                problems.append(f"{key}: stripe {stripe.stripe_id} cannot lose {tolerated} chunks")
                break
            if stripe.replicated:
                # Every copy is whole, so losing any one leaves another.
                if any(copy[: stripe.payload_bytes] != expected for copy in chunks.values()):
                    problems.append(f"{key}: stripe {stripe.stripe_id} has a stale copy")
                continue
            for lost in list(chunks) if tolerated else [None]:
                survivors = {i: chunk for i, chunk in sorted(chunks.items()) if i != lost}
                if stripe.parity_count:
                    shape = (stripe.data_count, stripe.parity_count)
                    codec = codecs.get(shape) or codecs.setdefault(shape, RSCodec(*shape))
                    rebuilt = b"".join(
                        codec.decode(dict(list(survivors.items())[: stripe.data_count]))
                    )
                else:
                    rebuilt = b"".join(survivors.values())
                if rebuilt[: stripe.payload_bytes] != expected:
                    problems.append(
                        f"{key}: stripe {stripe.stripe_id} does not rebuild without chunk {lost}"
                    )
                    break
    return problems


# ----------------------------------------------------------------------
# Service workloads: osd_direct and cluster_mix
# ----------------------------------------------------------------------
_PAYLOAD_HEADER = struct.Struct(">QQ")
_POOL_BYTES = 1 << 18


class PayloadOracle:
    """Seeded payload for ``(object key, version)``: the read-verification oracle.

    A 16-byte ``(key, version)`` header makes every version's content
    unique, so a stale or misrouted read is caught, not just a torn one;
    the rest is a slice of one seeded random pool, which keeps the oracle
    cheap beside the measured requests.
    """

    def __init__(self, seed: int, size: int) -> None:
        self.size = size
        self._pool = random.Random(f"payload/{seed}").randbytes(_POOL_BYTES + size)

    def payload(self, key: int, version: int) -> bytes:
        body = self.size - _PAYLOAD_HEADER.size
        offset = (key * 2654435761 + version * 40503) % _POOL_BYTES
        return _PAYLOAD_HEADER.pack(key, version) + self._pool[offset : offset + body]


@dataclass(frozen=True)
class ServiceShape:
    """Size and mix of one service workload."""

    #: 0 = a single ``OsdServer``; N = an N-shard ``ClusterService``.
    shards: int
    #: Object j of a logical client has class j mod 4 (else all class 3).
    mixed_classes: bool
    clients: int = 2
    logical_per_client: int = 4
    objects_per_logical: int = 16
    payload_bytes: int = 4096
    write_fraction: float = 0.35
    #: Closed-loop ops per logical client during set-up (after seeding).
    warmup_ops: int = 150
    #: Set-ups per run; set-up time is their median.
    setup_runs: int = 9

    @property
    def logical_clients(self) -> int:
        return self.clients * self.logical_per_client

    @property
    def live_bytes(self) -> int:
        return self.logical_clients * self.objects_per_logical * self.payload_bytes


class _Logical:
    """One closed-loop logical client: its objects, versions and RNG."""

    def __init__(self, index: int, client: Any, shape: ServiceShape, seed: int) -> None:
        self.client = client
        self.rng = random.Random(f"{seed}/{index}")
        base = FIRST_USER_OID + 0x100 * (index + 1)
        self.objects = [
            ObjectId(PARTITION_BASE, base + j) for j in range(shape.objects_per_logical)
        ]
        self.classes = [
            j % 4 if shape.mixed_classes else 3 for j in range(shape.objects_per_logical)
        ]
        self.keys = [index * shape.objects_per_logical + j for j in range(len(self.objects))]
        self.versions = [0] * len(self.objects)


@dataclass
class _Window:
    """Outcome of one closed-loop window."""

    ops: int = 0
    failed: int = 0
    corrupt: int = 0
    read_attempts: int = 0
    #: Latencies of successful ops and their completion times (perf_counter).
    reads: "array[float]" = field(default_factory=lambda: array("d"))
    read_done: "array[float]" = field(default_factory=lambda: array("d"))
    writes: "array[float]" = field(default_factory=lambda: array("d"))
    write_done: "array[float]" = field(default_factory=lambda: array("d"))
    start: float = 0.0
    seconds: float = 0.0
    host: HostSpeed = field(default_factory=HostSpeed)

    @property
    def ops_per_s(self) -> float:
        """Ops per wall second, probe time excluded."""
        busy = self.seconds - self.host.seconds
        return self.ops / busy if busy > 0 else 0.0

    def latency_segments(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-slice ``(reads, writes)`` latencies, each slice host-normalized."""
        count = max(1, round(self.seconds / LATENCY_SEGMENT_S))
        edges = np.linspace(self.start, self.start + self.seconds, count + 1)
        edges[-1] = math.inf
        segments = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            slowdown = self.host.slowdown(lo, hi)
            segments.append(tuple(
                np.frombuffer(latencies)[(np.frombuffer(done) >= lo) & (np.frombuffer(done) < hi)]
                / slowdown
                for latencies, done in ((self.reads, self.read_done), (self.writes, self.write_done))
            ))
        return segments


class _ServiceEnv:
    """Servers, clients and logical clients of one service set-up."""

    def __init__(self, shape: ServiceShape, seed: int) -> None:
        self.shape = shape
        self.oracle = PayloadOracle(seed, shape.payload_bytes)
        self.seed = seed
        self.server: Optional[OsdServer] = None
        self.cluster: Optional[ClusterService] = None
        self.clients: List[Any] = []
        self.logicals: List[_Logical] = []

    async def start(self) -> None:
        shape = self.shape
        if shape.shards:
            self.cluster = ClusterService(shape.shards)
            await self.cluster.start()
            self.clients = [
                self.cluster.router(pool_size=1, timeout=30.0) for _ in range(shape.clients)
            ]
        else:
            self.server = OsdServer(default_target_factory(0), max_in_flight=64)
            await self.server.start()
            self.clients = [
                AsyncOsdClient("127.0.0.1", self.server.port, pool_size=1, timeout=30.0)
                for _ in range(shape.clients)
            ]
        for client in self.clients:
            await client.connect()
        self.logicals = [
            _Logical(index, self.clients[index // shape.logical_per_client], shape, self.seed)
            for index in range(shape.logical_clients)
        ]
        await asyncio.gather(*(self._seed_objects(logical) for logical in self.logicals))
        warmup = _Window()
        await asyncio.gather(
            *(self._drive(logical, warmup, ops=shape.warmup_ops) for logical in self.logicals)
        )
        if warmup.failed or warmup.corrupt:
            raise RuntimeError(f"warm-up had {warmup.failed + warmup.corrupt} failed ops")

    async def close(self) -> None:
        for client in self.clients:
            await client.aclose()
        if self.cluster is not None:
            await self.cluster.shutdown()
        if self.server is not None:
            await self.server.shutdown()

    async def _seed_objects(self, logical: _Logical) -> None:
        for j, object_id in enumerate(logical.objects):
            payload = self.oracle.payload(logical.keys[j], 0)
            response = await logical.client.write(object_id, payload, logical.classes[j])
            if not response.ok:
                raise RuntimeError(f"seed write of {object_id} failed: {response.sense!r}")

    async def _drive(
        self,
        logical: _Logical,
        window: _Window,
        *,
        ops: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> None:
        """Closed loop: ``ops`` requests, or until ``deadline`` (perf_counter)."""
        rng, client, oracle = logical.rng, logical.client, self.oracle
        count = len(logical.objects)
        write_fraction = self.shape.write_fraction
        clock = time.perf_counter
        issued = 0
        while (ops is None or issued < ops) and (deadline is None or clock() < deadline):
            issued += 1
            j = rng.randrange(count)
            is_write = rng.random() < write_fraction
            started = clock()
            corrupt = False
            try:
                if is_write:
                    logical.versions[j] += 1
                    payload = oracle.payload(logical.keys[j], logical.versions[j])
                    response = await client.write(
                        logical.objects[j], payload, logical.classes[j]
                    )
                    ok = response.ok
                else:
                    payload, response = await client.read(logical.objects[j])
                    ok = response.ok
                    if ok and payload != oracle.payload(logical.keys[j], logical.versions[j]):
                        ok = corrupt = True
            except OsdServiceError:
                ok = False
            finished = clock()
            elapsed = finished - started
            window.ops += 1
            window.read_attempts += not is_write
            if corrupt:
                window.corrupt += 1
            elif not ok:
                window.failed += 1
            elif is_write:
                window.writes.append(elapsed)
                window.write_done.append(finished)
            else:
                window.reads.append(elapsed)
                window.read_done.append(finished)

    async def window(self, seconds: float, probed: bool = False) -> _Window:
        """Run every logical client closed-loop for ``seconds``.

        ``probed`` interleaves host-speed probes on the loop.
        """
        window = _Window()
        with _probing(window.host) if probed else contextlib.nullcontext():
            window.start = time.perf_counter()
            deadline = window.start + seconds
            try:
                await asyncio.gather(
                    *(self._drive(logical, window, deadline=deadline) for logical in self.logicals)
                )
            finally:
                window.seconds = time.perf_counter() - window.start
        return window

    # ------------------------------------------------------------------
    # Inspection (outside any timed window)
    # ------------------------------------------------------------------
    def targets(self) -> List[OsdTarget]:
        if self.cluster is not None:
            return [server.target for _, server in sorted(self.cluster.shards.items())]
        assert self.server is not None
        return [self.server.target]

    def counters(self) -> Dict[str, float]:
        servers = (
            list(self.cluster.shards.values()) if self.cluster is not None else [self.server]
        )
        counters: Dict[str, float] = {
            "server.commands": sum(s.stats.commands for s in servers),
            "server.flushes": sum(s.stats.flushes for s in servers),
            "server.busy_rejections": sum(s.stats.busy_rejections for s in servers),
            "server.wire_errors": sum(s.stats.wire_errors for s in servers),
            "client.retries": sum(c.stats.retries for c in self.clients),
            "client.timeouts": sum(c.stats.timeouts for c in self.clients),
            "router.redirects": 0,
            "router.hedges": 0,
        }
        hits = misses = 0
        for target in self.targets():
            decoder = target.array.decoder_cache_stats()
            hits += decoder["hits"]
            misses += decoder["misses"]
        for client in self.clients:
            if hasattr(client, "router_stats"):
                counters["router.redirects"] += client.router_stats.redirects
                counters["router.hedges"] += client.router_stats.hedged_reads
                info = client.codec.decoder_cache_info()
                hits += info.hits
                misses += info.misses
        counters["rs.decoder_hits"] = hits
        counters["rs.decoder_misses"] = misses
        return counters

    async def verify_contents(self) -> int:
        """Read every object back; returns how many reads failed or mismatched."""
        bad = 0
        for logical in self.logicals:
            for j, object_id in enumerate(logical.objects):
                payload, response = await logical.client.read(object_id)
                expected = self.oracle.payload(logical.keys[j], logical.versions[j])
                if not response.ok or payload != expected:
                    bad += 1
        return bad

    def check_layout(self) -> List[str]:
        """Every object is stored under its class's scheme on the right shards."""
        problems: List[str] = []
        targets = self.targets()
        for target in targets:
            for info in target.user_objects():
                extent = target.array.get_extent(info.object_id)
                if extent.scheme != target.policy(info.class_id):
                    problems.append(f"{info.object_id} stored as {extent.scheme}")
            problems.extend(check_redundancy(target.array))
        for logical in self.logicals:
            for j, object_id in enumerate(logical.objects):
                expected = self.oracle.payload(logical.keys[j], logical.versions[j])
                problems.extend(
                    self._check_object(targets, object_id, logical.classes[j], expected)
                )
        return problems

    def _check_object(
        self, targets: List[OsdTarget], object_id: ObjectId, class_id: int, expected: bytes
    ) -> List[str]:
        holders = [i for i, target in enumerate(targets) if target.exists(object_id)]
        if self.cluster is None:
            return [] if holders == [0] and self._held(targets[0], object_id, class_id, expected) \
                else [f"{object_id}: not stored as class {class_id}"]
        cluster_map = self.cluster.cluster_map
        assert cluster_map is not None
        if class_id in (0, 1):
            owners = sorted(cluster_map.owners_for(object_id, width=2))
            if holders != owners or not all(
                self._held(targets[i], object_id, class_id, expected) for i in owners
            ):
                return [f"{object_id}: class {class_id} not mirrored on {owners}"]
            return []
        if class_id == 3:
            primary = cluster_map.primary_for(object_id)
            if holders != [primary] or not self._held(targets[primary], object_id, 3, expected):
                return [f"{object_id}: class 3 not a single copy on shard {primary}"]
            return []
        if holders:
            return [f"{object_id}: striped object also stored whole on {holders}"]
        return self._check_stripe(targets, cluster_map, object_id, expected)

    @staticmethod
    def _held(target: OsdTarget, object_id: ObjectId, class_id: int, expected: bytes) -> bool:
        response = target.read_object(object_id)
        return (
            response.ok
            and response.payload == expected
            and target.get_info(object_id).class_id == class_id
        )

    def _check_stripe(
        self, targets: List[OsdTarget], cluster_map: Any, object_id: ObjectId, expected: bytes
    ) -> List[str]:
        codec: RSCodec = self.clients[0].codec
        fragments: Dict[int, bytes] = {}
        for index in range(codec.n):
            fragment_id = fragment_object_id(object_id, index)
            target = targets[cluster_map.owners_for(fragment_id)[0]]
            response = target.read_object(fragment_id)
            if not response.ok:
                return [f"{object_id}: stripe fragment {index} missing"]
            header, body = decode_fragment(bytes(response.payload))
            if (header["k"], header["m"], header["index"], header["class_id"]) != (
                codec.k, codec.m, index, 2
            ) or header["size"] != len(expected):
                return [f"{object_id}: stripe fragment {index} has header {header}"]
            fragments[index] = body
        data = b"".join(fragments[i] for i in range(codec.k))[: len(expected)]
        # Decoding from the last k fragments (parity included) proves the
        # parity is real redundancy, not padding.
        survivors = {i: fragments[i] for i in range(codec.m, codec.n)}
        rebuilt = b"".join(codec.decode(survivors))[: len(expected)]
        if data != expected or rebuilt != expected:
            return [f"{object_id}: stripe does not decode to the written payload"]
        return []

    def stored_per_user_byte(self) -> float:
        stored = sum(
            target.array.data_bytes + target.array.redundancy_bytes for target in self.targets()
        )
        return stored / self.shape.live_bytes


#: Most of a traced service window the event loop may keep as its own self
#: time (task switches, coroutine bodies of client and router, the load
#: generator); it kept about a third on ``cluster_mix`` when this was set.
SERVICE_UNCLAIMED_CEILING = 0.5


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}


async def _run_service(
    shape: ServiceShape, seed: int, seconds: float, trace: bool
) -> Outcome:
    setups = SetupTimer(interpreter_slowdown)
    env: Optional[_ServiceEnv] = None
    for _ in range(shape.setup_runs):
        if env is not None:
            await env.close()
        with setups.timing():
            env = _ServiceEnv(shape, seed)
            await env.start()
    assert env is not None
    problems: List[str] = []
    info: Dict[str, Any] = {}
    setup_s = setups.record(info)
    log: Optional[SpanLog] = None
    try:
        if trace:
            untraced = await env.window(seconds / 2)
            log = SpanLog()
            before = env.counters()
            layers.install(log)
            started = time.perf_counter()
            try:
                measured = await env.window(seconds / 2)
            finally:
                ended = time.perf_counter()
                log.uninstall()
            window = layers.TracedWindow(
                start=started,
                end=ended,
                ops=measured.ops,
                untraced_ops_per_s=untraced.ops_per_s,
                traced_ops_per_s=measured.ops_per_s,
                counters=_delta(env.counters(), before),
            )
            windows = [untraced, measured]
        else:
            measured = await env.window(seconds, probed=True)
            windows = [measured]
        peak_rss_mb = _peak_rss_mb()
        stored = env.stored_per_user_byte()
        bad_reads = await env.verify_contents()
        if bad_reads:
            problems.append(f"{bad_reads} objects did not read back as last written")
        problems.extend(env.check_layout())
    finally:
        await env.close()
    attempted = sum(w.ops for w in windows)
    failed = sum(w.failed + w.corrupt for w in windows)
    info.update(ops=measured.ops, corrupt=sum(w.corrupt for w in windows))
    if trace:
        assert log is not None
        metrics = layers.layer_metrics(log, window)
        problems.extend(layers.accounting_problems(metrics, SERVICE_UNCLAIMED_CEILING))
    else:
        slowdown = measured.host.slowdown()
        info.update(
            raw_ops_per_s=measured.ops_per_s,
            host_slowdown=slowdown,
            host_normalized=measured.host.solo,
        )
        metrics = {
            "ops_per_s": (measured.ops_per_s * slowdown, "1/s"),
            **_latency_metrics(measured.latency_segments(), info),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "stored_per_user_byte": (stored, "B/B"),
            # No cache tier in front of the store: a read is a hit when it
            # returned the verified payload.
            "hit_ratio": (len(measured.reads) / max(1, measured.read_attempts), "ratio"),
        }
    return Outcome(attempted, failed, metrics, problems, info, log)


def _service(shape: ServiceShape) -> Callable[[int, float, bool], Outcome]:
    def run(seed: int, seconds: float, trace: bool) -> Outcome:
        return asyncio.run(_run_service(shape, seed, seconds, trace))

    return run


# ----------------------------------------------------------------------
# sim_replay
# ----------------------------------------------------------------------
#: Cache size as a share of the trace's data set (the paper's 10% point).
CACHE_SHARE = 0.10
#: Set-ups (trace generation + ReoCache.build) per run; set-up time is their median.
SIM_SETUP_RUNS = 40
#: Most of a traced replay ``ExperimentRunner.run`` may keep as its own self
#: time (its request loop and the benchmark's timing shim).
SIM_UNCLAIMED_CEILING = 0.1
#: Requests between host-speed probes in a timed replay (about 2% of it).
PROBE_EVERY_REQUESTS = 20


@dataclass
class _Replay:
    seconds: float
    requests: int
    #: Host slowdown over the replay (1.0 when no probes ran or not solo).
    slowdown: float
    normalized: bool
    hits: List[float]
    misses: List[float]
    #: Values that must repeat exactly for a given seed.
    fingerprint: Dict[str, float]
    counters: Dict[str, float]
    problems: List[str]


def _make_trace(seed: int) -> Trace:
    """The paper's medium-locality trace, its requests in a seeded order."""
    base = make_trace(Locality.MEDIUM, PROFILE)
    records = list(base.records)
    random.Random(f"order/{seed}").shuffle(records)
    return Trace(base.name, base.catalog, records, {**base.params, "order_seed": seed})


def _build_cache(trace: Any) -> Any:
    return build_experiment_cache("Reo-20%", int(trace.total_bytes * CACHE_SHARE), PROFILE)


def _replay(trace: Any, log: Optional[SpanLog] = None) -> Tuple[_Replay, float, float]:
    cache = _build_cache(trace)
    failures = [FailureEvent(request_index=len(trace) // 2, device_id=0, insert_spare=True)]
    runner = ExperimentRunner(
        cache,
        trace,
        failures=failures,
        recovery_share=PROFILE.recovery_share,
        warmup_fraction=PROFILE.warmup_fraction,
    )
    latencies: List[float] = []
    hit_flags: List[bool] = []
    cache_type = type(cache)
    clock = time.perf_counter
    host = HostSpeed()
    probe_every = 0 if log is not None else PROBE_EVERY_REQUESTS

    def timed_read(name: str) -> Any:
        # Times the request at the runner's call boundary; looks the
        # method up per call so a traced run still goes through the spans.
        if probe_every and len(latencies) % probe_every == 0:
            host.probe()
        started = clock()
        result = cache_type.read(cache, name)
        latencies.append(clock() - started)
        hit_flags.append(result.hit)
        return result

    cache.read = timed_read
    host.check_solo()
    if log is not None:
        layers.install(log)
    started = clock()
    try:
        runner.run()
    finally:
        ended = clock()
        if log is not None:
            log.uninstall()
    host.check_solo()
    cutoff = int(len(trace) * PROFILE.warmup_fraction)
    hits = [t for t, hit in zip(latencies[cutoff:], hit_flags[cutoff:]) if hit]
    misses = [t for t, hit in zip(latencies[cutoff:], hit_flags[cutoff:]) if not hit]
    array = cache.array
    stats = cache.stats
    fingerprint = {
        "hit_ratio": stats.hit_ratio,
        "stored_per_user_byte": (array.data_bytes + array.redundancy_bytes) / array.logical_bytes,
        "objects_recovered": cache.recovery.objects_rebuilt,
        "objects_lost": cache.recovery.objects_lost,
        "evictions": stats.evictions,
        "reclassifications": stats.reclassifications,
    }
    decoder = array.decoder_cache_stats()
    counters = {
        "cache.evictions": stats.evictions,
        "cache.requests": stats.requests,
        "cache.reclassifications": stats.reclassifications,
        "recovery.rebuilt": cache.recovery.objects_rebuilt,
        "recovery.lost": cache.recovery.objects_lost,
        "rs.decoder_hits": decoder["hits"],
        "rs.decoder_misses": decoder["misses"],
    }
    replay = _Replay(
        seconds=ended - started - host.seconds,
        requests=len(trace),
        slowdown=host.slowdown(),
        normalized=host.solo,
        hits=hits,
        misses=misses,
        fingerprint=fingerprint,
        counters=counters,
        problems=_check_cache(cache),
    )
    return replay, started, ended


def _check_cache(cache: Any) -> List[str]:
    """Every cached object reads back byte-exact under its class's scheme.

    Objects the failure left degraded (recovery may still be running) are
    read through their parity; every healthy one must also survive the
    loss of any one of its chunks.
    """
    problems: List[str] = []
    manager, target, array = cache.manager, cache.target, cache.array
    healthy = []
    for name in list(manager.cached_names()):
        cached = manager.get_cached(name)
        info = target.get_info(cached.object_id)
        extent = array.get_extent(cached.object_id)
        if info.class_id != cached.class_id or extent.scheme != target.policy(info.class_id):
            problems.append(f"{name}: class {cached.class_id} stored as {extent.scheme}")
            continue
        payload, response = cache.initiator.read(cached.object_id)
        if not response.ok or payload != cache.backend.payload_for(name, cached.version):
            problems.append(f"{name}: cached copy differs from version {cached.version}")
        elif array.object_health(cached.object_id) is ObjectHealth.HEALTHY:
            healthy.append(cached.object_id)
    return problems + check_redundancy(array, healthy)


def _run_sim(seed: int, seconds: float, trace_mode: bool) -> Outcome:
    setups = SetupTimer(allocation_slowdown)
    gen_times: List[float] = []
    trace = None
    for _ in range(SIM_SETUP_RUNS):
        with setups.timing():
            started = time.perf_counter()
            trace = _make_trace(seed)
            gen_times.append(time.perf_counter() - started)
            _build_cache(trace)
    assert trace is not None
    replays: List[_Replay] = []
    info: Dict[str, Any] = {"requests_per_replay": len(trace)}
    setup_s = setups.record(info)
    log: Optional[SpanLog] = None
    # The timing shim and each replay's cache refer to each other, so a
    # collection after every replay keeps the memory peak from stacking.
    if trace_mode:
        untraced, _, _ = _replay(trace)
        gc.collect()
        log = SpanLog()
        traced, started, ended = _replay(trace, log)
        replays = [untraced, traced]
    else:
        elapsed = 0.0
        while not replays or elapsed < seconds:
            replay, _, _ = _replay(trace)
            gc.collect()
            replays.append(replay)
            elapsed += replay.seconds
    problems = [problem for replay in replays for problem in replay.problems]
    failed = sum(len(replay.problems) for replay in replays)
    first = replays[0].fingerprint
    for replay in replays[1:]:
        if replay.fingerprint != first:
            problems.append(f"replays of seed {seed} differ: {first} vs {replay.fingerprint}")
            failed += 1
    info.update(replays=len(replays), **{k: v for k, v in first.items()})
    attempted = sum(replay.requests for replay in replays)
    rates = [replay.requests / replay.seconds for replay in replays]
    info["replay_ops_per_s"] = [round(rate, 1) for rate in rates]
    if trace_mode:
        assert log is not None
        window = layers.TracedWindow(
            start=started,
            end=ended,
            ops=traced.requests,
            untraced_ops_per_s=rates[0],
            traced_ops_per_s=rates[1],
            counters=traced.counters,
            trace_gen_s=statistics.median(gen_times),
        )
        metrics = layers.layer_metrics(log, window)
        problems.extend(layers.accounting_problems(metrics, SIM_UNCLAIMED_CEILING))
    else:
        peak_rss_mb = _peak_rss_mb()
        latency = _latency_metrics(
            [
                (np.asarray(r.hits) / r.slowdown, np.asarray(r.misses) / r.slowdown)
                for r in replays
            ],
            info,
        )
        info["host_slowdown"] = [round(r.slowdown, 4) for r in replays]
        info["host_normalized"] = all(r.normalized for r in replays)
        metrics = {
            "ops_per_s": (
                statistics.median(rate * r.slowdown for rate, r in zip(rates, replays)),
                "1/s",
            ),
            **latency,
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "stored_per_user_byte": (first["stored_per_user_byte"], "B/B"),
            "hit_ratio": (first["hit_ratio"], "ratio"),
        }
    return Outcome(attempted, failed, metrics, problems, info, log)


#: Workload name -> ``run(seed, seconds, trace) -> Outcome``.
WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "osd_direct": _service(ServiceShape(shards=0, mixed_classes=False)),
    "cluster_mix": _service(ServiceShape(shards=4, mixed_classes=True)),
    "sim_replay": _run_sim,
}

"""Which entry points the traced run wraps, and the per-layer metrics.

Every span is named ``<layer>.<entry point>``, where the layer is the
repository module it times (``osd.wire``, ``flash.array``, ...). Two
layers are not the program's: ``asyncio.selector`` is the event loop's
wait for socket readiness (the kernel), and the roots — the event loop's
``asyncio.loop`` on the service workloads, ``sim.runner`` on
``sim_replay`` — keep what no other layer claims as their self time
(transport callbacks, task switches, coroutine bodies, the benchmark's own
load generator). :func:`accounting_problems` bounds that unclaimed share.

One plan serves all workloads; an entry point a workload never calls
records nothing, and its metrics read 0.
"""

from __future__ import annotations

import asyncio.base_events
import selectors
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.backend.store import BackendStore
from repro.cache.manager import CacheManager
from repro.cluster.router import RouterClient
from repro.core.recovery import RecoveryManager
from repro.core.reo import ReoCache
from repro.erasure.rs import RSCodec
from repro.flash.array import FlashArray
from repro.flash.device import FlashDevice
from repro.net import client as net_client
from repro.net import server as net_server
from repro.net.flush import StreamFlusher
from repro.net.stats import ServiceStats
from repro.osd import wire
from repro.osd.target import OsdTarget
from repro.sim.runner import ExperimentRunner

from spans import SpanLog

__all__ = ["TracedWindow", "accounting_problems", "install", "layer_metrics"]

Metrics = Dict[str, Tuple[float, str]]

_WIRE = {
    "decode_cmd": "osd.wire.decode_command_pdu",
    "encode_resp": "osd.wire.encode_response_parts",
    "encode_cmd": "osd.wire.encode_command_parts",
    "decode_resp": "osd.wire.decode_response_pdu",
}
_RS_ENCODE = ("erasure.rs.encode_arrays", "erasure.rs.encode_stripe")
_RS_DECODE = ("erasure.rs.decode_arrays", "erasure.rs.reconstruct_arrays")
#: Catch-all root spans: their self time is what no named layer claims.
_ROOTS = ("asyncio.loop.run_once", "sim.runner.run")


def install(log: SpanLog) -> None:
    """Wrap every traced entry point (undo with ``log.uninstall()``)."""
    log.span(asyncio.base_events.BaseEventLoop, "_run_once", "asyncio.loop.run_once")
    log.span(selectors.DefaultSelector, "select", "asyncio.selector.select")
    # net/server.py and net/client.py call wire.* through the module, so
    # the module attribute is the seam.
    for span_name in _WIRE.values():
        log.span(wire, span_name.rsplit(".", 1)[1], span_name)
    log.span(net_server._Connection, "buffer_updated", "net.server.recv")
    log.record(ServiceStats, "end_command", "net.server.service_seconds", 1)
    log.span(net_client._Connection, "buffer_updated", "net.client.recv")
    log.span(net_client.AsyncOsdClient, "submit", "net.client.submit")
    log.span(StreamFlusher, "_flush_batch", "net.flush.flush_batch")
    log.span(RouterClient, "write", "cluster.router.write")
    log.span(RouterClient, "read", "cluster.router.read")
    log.span(ExperimentRunner, "run", "sim.runner.run")
    log.span(ReoCache, "read", "cache.manager.read")
    log.span(CacheManager, "reclassify", "cache.manager.reclassify")
    log.span(BackendStore, "read", "backend.store.read")
    log.span(RecoveryManager, "start", "core.recovery.start")
    log.span(RecoveryManager, "run_until", "core.recovery.run_until")
    for op in ("write_object", "read_object", "remove_object"):
        log.span(OsdTarget, op, f"osd.target.{op}")
    for op in ("write_object", "read_object", "delete_object", "rebuild_object"):
        log.span(FlashArray, op, f"flash.array.{op}")
    # Installed over the span wrapper: counts payload bytes per write_object.
    log.tally(FlashArray, "write_object", "flash.array.user_bytes", lambda args: len(args[2]))
    log.tally(FlashDevice, "write_chunk", "flash.device.write_chunk", lambda args: len(args[2]))
    for span_name in _RS_ENCODE + _RS_DECODE:
        log.span(RSCodec, span_name.rsplit(".", 1)[1], span_name)
    log.tally(RSCodec, "encode_arrays", "erasure.rs.encode_bytes", lambda args: args[1].nbytes)
    log.tally(
        RSCodec, "encode_stripe", "erasure.rs.encode_bytes",
        lambda args: sum(len(fragment) for fragment in args[1]),
    )


@dataclass
class TracedWindow:
    """What the workload knows about its traced window."""

    #: Wall seconds between installing and removing the wrappers.
    start: float
    end: float
    #: Logical (user-level) operations completed inside the window.
    ops: int
    untraced_ops_per_s: float
    traced_ops_per_s: float
    #: Program counters (server, client, router, cache, recovery) moved
    #: inside the window; names as in :func:`layer_metrics`.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Median seconds to generate the workload trace (sim_replay only).
    trace_gen_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(log: SpanLog, window: TracedWindow) -> Metrics:
    """Every per-layer metric of BENCHMARK.json, from one traced window."""
    stats = log.stats()
    counters = window.counters
    seconds = window.seconds
    us = stats.mean_self_us
    share = lambda prefix: _ratio(stats.self_sum(prefix), seconds)  # noqa: E731
    pdus = stats.calls[_WIRE["decode_cmd"]]
    service = log.samples.get("net.server.service_seconds", ())
    service_us = _ratio(sum(service), len(service)) * 1e6
    wire_per_pdu_us = _ratio(stats.self_sum("osd.wire."), pdus) * 1e6
    submit_us = _ratio(stats.total_seconds["net.client.submit"], stats.calls["net.client.submit"]) * 1e6
    writes = stats.calls["flash.array.write_object"]
    chunk_writes, _ = log.tally_count("flash.device.write_chunk", within="flash.array.write_object")
    _, all_chunk_bytes = log.tally_count("flash.device.write_chunk")
    _, user_bytes = log.tally_count("flash.array.user_bytes")
    _, encoded_bytes = log.tally_count("erasure.rs.encode_bytes")
    encode_seconds = sum(stats.self_seconds[name] for name in _RS_ENCODE)
    rs_names = _RS_ENCODE + _RS_DECODE
    rs_calls = sum(stats.calls[name] for name in rs_names) - log.count_children(
        ("erasure.rs.reconstruct_arrays",), "erasure.rs.decode_arrays"
    )
    decoder_lookups = counters.get("rs.decoder_hits", 0) + counters.get("rs.decoder_misses", 0)
    router_ops = stats.calls["cluster.router.write"] + stats.calls["cluster.router.read"]
    router_legs = log.count_children(
        ("cluster.router.write", "cluster.router.read"), "net.client.submit"
    )
    metrics: Metrics = {
        "osd.wire.decode_cmd_us": (us(_WIRE["decode_cmd"]), "us/call"),
        "osd.wire.encode_resp_us": (us(_WIRE["encode_resp"]), "us/call"),
        "osd.wire.encode_cmd_us": (us(_WIRE["encode_cmd"]), "us/call"),
        "osd.wire.decode_resp_us": (us(_WIRE["decode_resp"]), "us/call"),
        "osd.wire.pdus_per_op": (_ratio(pdus, window.ops), "PDU/op"),
        "osd.wire.busy_share": (share("osd.wire."), "share"),
        "net.server.recv_us": (us("net.server.recv"), "us/call"),
        "net.server.service_us": (service_us, "us/call"),
        "net.server.responses_per_flush": (
            _ratio(counters.get("server.commands", 0), counters.get("server.flushes", 0)),
            "resp/flush",
        ),
        "net.server.busy_rejections": (counters.get("server.busy_rejections", 0), "count"),
        "net.server.wire_errors": (counters.get("server.wire_errors", 0), "count"),
        "net.server.busy_share": (share("net.server."), "share"),
        "net.flush.busy_share": (share("net.flush."), "share"),
        "net.client.submit_us": (submit_us, "us/call"),
        "net.client.wait_us": (
            submit_us - service_us - wire_per_pdu_us if pdus else 0.0, "us/call"
        ),
        "net.client.retries": (counters.get("client.retries", 0), "count"),
        "net.client.timeouts": (counters.get("client.timeouts", 0), "count"),
        "net.client.busy_share": (share("net.client.recv"), "share"),
        "osd.target.write_us": (us("osd.target.write_object"), "us/call"),
        "osd.target.read_us": (us("osd.target.read_object"), "us/call"),
        "osd.target.remove_us": (us("osd.target.remove_object"), "us/call"),
        "osd.target.busy_share": (share("osd.target."), "share"),
        "flash.array.write_us": (us("flash.array.write_object"), "us/call"),
        "flash.array.read_us": (us("flash.array.read_object"), "us/call"),
        "flash.array.delete_us": (us("flash.array.delete_object"), "us/call"),
        "flash.array.rebuild_us": (us("flash.array.rebuild_object"), "us/call"),
        "flash.array.chunks_per_write": (_ratio(chunk_writes, writes), "chunk/write"),
        "flash.array.device_bytes_per_user_byte": (_ratio(all_chunk_bytes, user_bytes), "B/B"),
        "flash.array.busy_share": (share("flash.array."), "share"),
        "erasure.rs.encode_us": (us(*_RS_ENCODE), "us/call"),
        "erasure.rs.decode_us": (us(*_RS_DECODE), "us/call"),
        "erasure.rs.encode_mbps": (_ratio(encoded_bytes / 1e6, encode_seconds), "MB/s"),
        "erasure.rs.calls": (rs_calls, "count"),
        "erasure.rs.decoder_cache_hit_ratio": (
            _ratio(counters.get("rs.decoder_hits", 0), decoder_lookups), "ratio"
        ),
        "erasure.rs.busy_share": (share("erasure.rs."), "share"),
        "cluster.router.write_us": (us("cluster.router.write"), "us/call"),
        "cluster.router.read_us": (us("cluster.router.read"), "us/call"),
        "cluster.router.legs_per_op": (_ratio(router_legs, router_ops), "leg/op"),
        "cluster.router.redirects": (counters.get("router.redirects", 0), "count"),
        "cluster.router.hedges": (counters.get("router.hedges", 0), "count"),
        "cache.manager.read_us": (us("cache.manager.read"), "us/call"),
        "cache.manager.evictions_per_req": (
            _ratio(counters.get("cache.evictions", 0), counters.get("cache.requests", 0)),
            "evict/req",
        ),
        "cache.manager.reclassify_ms": (us("cache.manager.reclassify") / 1e3, "ms/call"),
        "cache.manager.reclassifications": (counters.get("cache.reclassifications", 0), "count"),
        "cache.manager.busy_share": (share("cache.manager."), "share"),
        "backend.store.read_us": (us("backend.store.read"), "us/call"),
        "backend.store.reads": (stats.calls["backend.store.read"], "count"),
        "core.recovery.run_ms": (stats.self_sum("core.recovery.") * 1e3, "ms/run"),
        "core.recovery.objects_recovered": (counters.get("recovery.rebuilt", 0), "count"),
        "core.recovery.objects_lost": (counters.get("recovery.lost", 0), "count"),
        "sim.runner.self_share": (share("sim.runner."), "share"),
        "workload.medisyn.gen_s": (window.trace_gen_s, "s/trace"),
        "asyncio.loop.self_share": (share("asyncio.loop."), "share"),
        "asyncio.selector.busy_share": (share("asyncio.selector."), "share"),
        "trace.self_sum_share": (_ratio(stats.sync_self_seconds, seconds), "share"),
        "trace.unclaimed_share": (
            _ratio(sum(stats.self_seconds.get(root, 0.0) for root in _ROOTS), seconds), "share"
        ),
        "trace.untraced_ops_per_s": (window.untraced_ops_per_s, "1/s"),
        "trace.traced_ops_per_s": (window.traced_ops_per_s, "1/s"),
        "trace.overhead_pct": (
            (_ratio(window.untraced_ops_per_s, window.traced_ops_per_s) - 1.0) * 100.0, "%"
        ),
        "trace.spans": (len(log), "count"),
    }
    return {name: (float(value), unit) for name, (value, unit) in metrics.items()}


def accounting_problems(metrics: Metrics, unclaimed_ceiling: float) -> List[str]:
    """Whether the layers account for the traced window.

    The self times of the synchronous spans must sum to the window within
    10%: their roots run for the whole window, so a miss here means spans
    were lost or the window was cut wrong. The real coverage test is the
    share the roots keep for themselves: at most ``unclaimed_ceiling`` of
    the window may lie outside every named layer. When a change pushes it
    past the ceiling, the hot code has moved out of the wrapped entry
    points, and :func:`install` needs a wrapper for its new home.
    """
    problems = []
    total = metrics["trace.self_sum_share"][0]
    if not 0.9 <= total <= 1.1:
        problems.append(f"layer self times sum to {total:.1%} of the traced window")
    unclaimed = metrics["trace.unclaimed_share"][0]
    if unclaimed > unclaimed_ceiling:
        problems.append(
            f"{unclaimed:.1%} of the traced window is in no named layer "
            f"(at most {unclaimed_ceiling:.0%} allowed)"
        )
    return problems

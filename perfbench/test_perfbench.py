"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
from repro.flash.array import FlashArray  # noqa: E402
from repro.flash.stripe import ChunkKind, ParityScheme, ReplicationScheme  # noqa: E402
from spans import SpanLog  # noqa: E402
from workloads import WORKLOADS, HostSpeed, check_redundancy  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def _wrapped_originals():
    """Every attribute the traced run wraps, with its original value."""
    probe = SpanLog()
    layers.install(probe)
    wrapped = list(probe._patches)
    probe.uninstall()
    # An attribute wrapped twice records the first wrapper as the second's
    # original; the first patch holds the program's own function.
    originals = {}
    for owner, attr, original in wrapped:
        originals.setdefault((owner, attr), original)
    return [(owner, attr, original) for (owner, attr), original in originals.items()]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
def test_tiny_run_yields_every_named_metric(workload, trace):
    originals = _wrapped_originals()
    outcome = WORKLOADS[workload](7, 0.4, trace)
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.attempted > 0
    expected = _units("per_layer" if trace else "end_to_end")
    assert {name: unit for name, (_, unit) in outcome.metrics.items()} == expected
    assert all(math.isfinite(value) for value, _ in outcome.metrics.values())
    if trace:
        # The traced run leaves the program exactly as it found it.
        for owner, attr, original in originals:
            assert vars(owner)[attr] is original, f"{owner}.{attr}"
    else:
        assert all(
            outcome.metrics[metric["name"]][0] > 0 for metric in SPEC["end_to_end"]
        )


def _striped_array():
    array = FlashArray(num_devices=5, chunk_size=1024)
    array.write_object("a", bytes(range(256)) * 20, ParityScheme(1))
    array.write_object("b", b"copy" * 300, ReplicationScheme(2))
    array.write_object("c", b"plain" * 300, ParityScheme(0))
    return array


def test_redundancy_check_passes_real_parity_and_copies():
    assert check_redundancy(_striped_array()) == []


def test_redundancy_check_catches_a_parity_chunk_that_does_not_encode():
    array = _striped_array()
    stripe = array.get_extent("a").stripes[0]
    parity = next(chunk for chunk in stripe.chunks if chunk.kind is ChunkKind.PARITY)
    # A rewrite keeps the chunk's checksum valid: only decoding can tell.
    array.devices[parity.device_id].write_chunk(parity.address, bytes(parity.length))
    assert check_redundancy(array) == [
        f"a: stripe {stripe.stripe_id} does not rebuild without chunk 0"
    ]


def test_host_speed_is_not_rescaled_while_another_thread_runs():
    host = HostSpeed()
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    helper.start()
    try:
        host.probe()
    finally:
        release.set()
        helper.join()
    assert not host.solo
    assert host.slowdown() == 1.0


def test_span_self_time_subtracts_children_and_overlapping_legs():
    log = SpanLog()

    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    log.span(Layer, "outer", "t.outer")
    log.span(Layer, "inner", "t.inner")
    try:
        assert Layer().outer() == 2
    finally:
        log.uninstall()
    stats = log.stats()
    assert stats.calls == {"t.outer": 1, "t.inner": 2}
    total = stats.total_seconds["t.outer"]
    assert stats.self_seconds["t.outer"] == pytest.approx(
        total - stats.total_seconds["t.inner"]
    )
    # Self times of a synchronous tree add up to its root's span.
    assert stats.self_sum("t.") == pytest.approx(total)


def test_coroutine_self_time_subtracts_the_union_of_parallel_legs():
    log = SpanLog()

    class Router:
        async def op(self):
            await asyncio.gather(self.leg(), self.leg())

        async def leg(self):
            await asyncio.sleep(0.02)

    log.span(Router, "op", "t.op")
    log.span(Router, "leg", "t.leg")
    try:
        asyncio.run(Router().op())
    finally:
        log.uninstall()
    stats = log.stats()
    assert stats.calls == {"t.op": 1, "t.leg": 2}
    # The legs overlap: their union (~20 ms), not their sum (~40 ms), is
    # taken out of the parent, so its self time stays small and positive.
    assert 0.0 <= stats.self_seconds["t.op"] < 0.01
    assert stats.total_seconds["t.leg"] > stats.total_seconds["t.op"]


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", "out"
    ))
    result = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "osd_direct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout

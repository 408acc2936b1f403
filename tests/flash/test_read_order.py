"""The stripe read order is the trusted-first ranking, snapshotted per stripe.

``FlashArray._fragment_order`` ranks a stripe's readable fragments by
``(known corrupt, not ONLINE, fragment index)`` in one pass. These tests
pin that ranking against a plain ``sorted`` of the same key, and pin that
``read_object`` reads exactly the ranked fragments, in that order, falling
back fragment by fragment on checksum and transient failures. A reference
reader written from the specification (rank with ``sorted``, read in
order, bill each device its queue wait plus its service) runs on a twin
array with the same faults; payload, device reads and billed
:class:`ArrayIoResult` must match it exactly.
"""

from typing import Dict, List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ChunkCorruptedError,
    TransientIoError,
    UnrecoverableDataError,
)
from repro.flash.array import FlashArray
from repro.flash.device import DeviceState
from repro.flash.stripe import ChunkKind, ParityScheme, ReplicationScheme
from tests.flash.test_billing_fastpath import result_snapshot

ReadLog = List[Tuple[int, Tuple[int, int]]]


class RecordingInjector:
    """Fault-injector spy: logs every hook, raises on chosen reads."""

    def __init__(self, transient: Set[Tuple[int, Tuple[int, int]]]) -> None:
        self.transient = transient
        self.hooks: List[str] = []
        self.reads: ReadLog = []

    def on_write(self, device, address):
        self.hooks.append("on_write")

    def after_write(self, device, address):
        self.hooks.append("after_write")

    def on_read(self, device, address):
        self.hooks.append("on_read")
        self.reads.append((device.device_id, address))
        if (device.device_id, address) in self.transient:
            raise TransientIoError(f"device {device.device_id}: transient at {address}")

    def scale_time(self, device, seconds):
        self.hooks.append("scale_time")
        return seconds


def payload_of(size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def spec_order(array, stripe):
    """The ranking as specified: ``sorted`` by the trust key."""
    readable = [
        chunk
        for chunk in stripe.chunks
        if array.devices[chunk.device_id].has_chunk(chunk.address)
    ]

    def rank(chunk):
        device = array.devices[chunk.device_id]
        return (
            chunk.address in device.corrupt_chunks,
            device.state is not DeviceState.ONLINE,
            chunk.fragment_index,
        )

    return sorted(readable, key=rank)


def reference_read(array, key):
    """``read_object`` written from its specification, for comparison.

    Returns ``(payload or None, snapshot)``; the payload is None when a
    stripe cannot be served (the real read raises there).
    """
    start = array.clock.now
    lanes: Dict[int, Dict[str, float]] = {}
    totals = {"chunks_read": 0, "bytes_read": 0}
    degraded = False

    def read(chunk):
        device = array.devices[chunk.device_id]
        lane = lanes.setdefault(
            device.device_id,
            {
                "wait": max(0.0, device.busy_until - start),
                "reads": 0, "writes": 0, "bytes_read": 0, "bytes_written": 0,
                "seconds": 0.0, "errors": 0,
            },
        )
        lane["reads"] += 1
        try:
            payload, seconds = device.read_chunk(chunk.address)
        except (ChunkCorruptedError, TransientIoError):
            lane["errors"] += 1
            return None
        lane["bytes_read"] += len(payload)
        lane["seconds"] += seconds
        totals["chunks_read"] += 1
        totals["bytes_read"] += len(payload)
        return payload

    pieces = []
    payload = None
    for stripe in array.get_extent(key).stripes:
        order = spec_order(array, stripe)
        fragments = {}
        need = 1 if stripe.replicated else stripe.data_count
        for chunk in order:
            if len(fragments) == need:
                break
            data = read(chunk)
            if data is None:
                degraded = True
                continue
            fragments[chunk.fragment_index] = data
            if stripe.replicated and chunk.kind is not ChunkKind.DATA:
                degraded = True
        if len(fragments) < need:
            break
        if stripe.replicated:
            pieces.append(next(iter(fragments.values()))[: stripe.payload_bytes])
        elif all(index in fragments for index in range(need)):
            joined = b"".join(fragments[index] for index in range(need))
            pieces.append(joined[: stripe.payload_bytes])
        else:
            degraded = True
            codec = array._codec(stripe.data_count, stripe.parity_count)
            pieces.append(codec.decode_arrays(fragments).tobytes()[: stripe.payload_bytes])
    else:
        payload = b"".join(pieces)
    elapsed = max((lane["wait"] + lane["seconds"] for lane in lanes.values()), default=0.0)
    snapshot = (
        elapsed,
        totals["chunks_read"],
        0,
        totals["bytes_read"],
        0,
        degraded,
        "read",
        {
            device_id: {
                field: lane[field]
                for field in ("reads", "writes", "bytes_read", "bytes_written", "seconds", "errors")
            }
            for device_id, lane in sorted(lanes.items())
        },
    )
    return payload, snapshot


SCHEMES = [
    ParityScheme(0),
    ParityScheme(1),
    ParityScheme(2),
    ParityScheme(3),
    ReplicationScheme(),
    ReplicationScheme(2),
]


@st.composite
def faulty_arrays(draw):
    """A stored object plus random device states and chunk faults.

    Returns a builder so the same scenario can be laid out twice.
    """
    num_devices = draw(st.integers(min_value=4, max_value=7))
    chunk_size = draw(st.sampled_from([8, 16, 64]))
    scheme = draw(st.sampled_from(SCHEMES).filter(lambda s: getattr(s, "parity", 0) < num_devices))
    size = draw(st.integers(min_value=1, max_value=400))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    states = draw(
        st.lists(
            st.sampled_from(["online", "online", "online", "suspect", "failed"]),
            min_size=num_devices,
            max_size=num_devices,
        )
    )
    probe = FlashArray(num_devices=num_devices, device_capacity=10**6, chunk_size=chunk_size)
    probe.write_object("obj", payload_of(size, seed), scheme)
    chunks = [chunk for stripe in probe.get_extent("obj").stripes for chunk in stripe.chunks]
    pick = st.lists(st.sampled_from(range(len(chunks))), unique=True, max_size=len(chunks))
    known_corrupt = draw(pick)
    latent = draw(pick)
    transient = draw(pick)
    now = draw(st.sampled_from([0.0, 1e-4]))

    def build():
        array = FlashArray(num_devices=num_devices, device_capacity=10**6, chunk_size=chunk_size)
        data = payload_of(size, seed)
        array.write_object("obj", data, scheme)
        array.clock.advance(now)
        located = [c for stripe in array.get_extent("obj").stripes for c in stripe.chunks]
        for index in known_corrupt:
            chunk = located[index]
            array.devices[chunk.device_id].corrupt_chunk(chunk.address)
            array.devices[chunk.device_id].corrupt_chunks.add(chunk.address)
        for index in latent:
            chunk = located[index]
            array.devices[chunk.device_id].corrupt_chunk(chunk.address)
        for device_id, state in enumerate(states):
            if state == "suspect":
                array.devices[device_id].suspect()
            elif state == "failed":
                array.fail_device(device_id)
        spy = RecordingInjector(
            {(located[index].device_id, located[index].address) for index in transient}
        )
        for device in array.devices:
            device.fault_injector = spy
        return array, data, spy

    return build


class TestFragmentOrder:
    @given(build=faulty_arrays())
    @settings(max_examples=150, deadline=None)
    def test_one_pass_order_equals_sorted_ranking(self, build):
        array, _, _ = build()
        for stripe in array.get_extent("obj").stripes:
            assert array._fragment_order(stripe, array._devices_by_id) == spec_order(
                array, stripe
            )

    def test_healthy_stripe_is_data_then_parity(self):
        array = FlashArray(num_devices=6, device_capacity=10**6, chunk_size=16)
        array.write_object("obj", payload_of(200), ParityScheme(2))
        for stripe in array.get_extent("obj").stripes:
            order = array._fragment_order(stripe, array._devices_by_id)
            assert [chunk.fragment_index for chunk in order] == list(range(6))

    def test_demoted_fragments_sort_behind_trusted_parity(self):
        array = FlashArray(num_devices=6, device_capacity=10**6, chunk_size=16)
        array.write_object("obj", payload_of(64), ParityScheme(2))
        stripe = array.get_extent("obj").stripes[0]
        by_index = {chunk.fragment_index: chunk for chunk in stripe.chunks}
        # Fragment 0 known corrupt, fragment 1 on a SUSPECT device.
        corrupt = by_index[0]
        array.devices[corrupt.device_id].corrupt_chunks.add(corrupt.address)
        array.devices[by_index[1].device_id].suspect()
        order = array._fragment_order(stripe, array._devices_by_id)
        assert [chunk.fragment_index for chunk in order] == [2, 3, 4, 5, 1, 0]


class TestReadOrder:
    @given(build=faulty_arrays())
    @settings(max_examples=200, deadline=None)
    def test_reads_follow_the_ranked_snapshot(self, build):
        array, data, spy = build()
        twin, _, twin_spy = build()
        by_id = array._devices_by_id
        # The ranking each stripe's reads must follow, taken before any read.
        ranked = [
            [(chunk.device_id, chunk.address) for chunk in array._fragment_order(stripe, by_id)]
            for stripe in array.get_extent("obj").stripes
        ]
        expected_payload, expected_snapshot = reference_read(twin, "obj")
        if expected_payload is None:
            with pytest.raises(UnrecoverableDataError):
                array.read_object("obj")
        else:
            payload, result = array.read_object("obj")
            assert payload == expected_payload == data
            assert result_snapshot(result) == expected_snapshot
        assert spy.reads == twin_spy.reads
        # Every read of a stripe is a prefix of that stripe's snapshot, in order.
        position = 0
        for order in ranked:
            count = 0
            while position + count < len(spy.reads) and spy.reads[position + count] in order:
                count += 1
            assert spy.reads[position : position + count] == order[:count]
            position += count
        assert position == len(spy.reads)

    def test_data_fragment_failure_mid_read_falls_back_to_parity(self):
        array = FlashArray(num_devices=6, device_capacity=10**6, chunk_size=16)
        data = payload_of(64)
        array.write_object("obj", data, ParityScheme(2))
        stripe = array.get_extent("obj").stripes[0]
        by_index = {chunk.fragment_index: chunk for chunk in stripe.chunks}
        spy = RecordingInjector({(by_index[1].device_id, by_index[1].address)})
        for device in array.devices:
            device.fault_injector = spy
        payload, result = array.read_object("obj")
        assert payload == data
        assert result.degraded
        assert spy.reads == [
            (by_index[index].device_id, by_index[index].address) for index in (0, 1, 2, 3, 4)
        ]

    def test_hooks_fire_in_program_order(self):
        array = FlashArray(num_devices=5, device_capacity=10**6, chunk_size=16)
        spy = RecordingInjector(set())
        for device in array.devices:
            device.fault_injector = spy
        array.write_object("obj", payload_of(16), ReplicationScheme(1))
        array.read_object("obj")
        assert spy.hooks == ["on_write", "after_write", "scale_time", "on_read", "scale_time"]

"""Transactional-overwrite semantics of the array write path.

A mid-write failure (device full) must leave the previous copy intact —
this is what keeps restripe-based recovery from destroying the objects it
is trying to save.
"""

import numpy as np
import pytest

from repro.errors import DeviceFullError, ObjectNotFoundError
from repro.flash.array import FlashArray, ObjectHealth
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ParityScheme, ReplicationScheme


def payload_of(size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def make_array(capacity=4_000, num_devices=5):
    return FlashArray(
        num_devices=num_devices,
        device_capacity=capacity,
        chunk_size=64,
        model=ZERO_COST,
    )


class TestTransactionalOverwrite:
    def test_failed_overwrite_preserves_old_copy(self):
        array = make_array(capacity=1_000)
        data = payload_of(2_000)
        array.write_object("a", data, ParityScheme(0))
        # Replication of the same payload needs 5x the space: cannot fit.
        with pytest.raises(DeviceFullError):
            array.write_object("a", data, ReplicationScheme(), overwrite=True)
        assert array.read_object("a")[0] == data
        assert array.get_extent("a").scheme == ParityScheme(0)

    def test_failed_overwrite_rolls_back_space(self):
        array = make_array(capacity=1_000)
        data = payload_of(2_000, seed=1)
        array.write_object("a", data, ParityScheme(0))
        used_before = array.used_bytes
        with pytest.raises(DeviceFullError):
            array.write_object("a", data, ReplicationScheme(), overwrite=True)
        assert array.used_bytes == used_before
        assert array.logical_bytes == len(data)

    def test_failed_fresh_write_leaves_nothing(self):
        array = make_array(capacity=500)
        with pytest.raises(DeviceFullError):
            array.write_object("big", payload_of(10_000), ParityScheme(0))
        assert "big" not in array
        assert array.used_bytes == 0
        with pytest.raises(ObjectNotFoundError):
            array.read_object("big")

    def test_successful_overwrite_releases_old_space(self):
        array = make_array(capacity=10_000)
        array.write_object("a", payload_of(4_000, seed=2), ParityScheme(0))
        array.write_object("a", payload_of(1_000, seed=3), ParityScheme(0), overwrite=True)
        # Old chunks are gone: usage reflects only the new copy (+ padding).
        assert array.used_bytes <= 1_100
        assert array.read_object("a")[0] == payload_of(1_000, seed=3)

    def test_overwrite_while_old_copy_degraded(self):
        # Restripe scenario: old chunks partially on a failed device.
        array = make_array(capacity=10_000)
        data = payload_of(2_000, seed=4)
        array.write_object("a", data, ParityScheme(1))
        array.fail_device(0)
        payload, _ = array.read_object("a")  # degraded read
        array.write_object("a", payload, ParityScheme(1), overwrite=True)
        assert array.object_health("a") is ObjectHealth.HEALTHY
        assert array.read_object("a")[0] == data

    @pytest.mark.parametrize(
        "scheme", [ReplicationScheme(copies=4), ParityScheme(1)], ids=["replication", "rs"]
    )
    def test_failure_mid_stripe_leaves_no_orphans(self, scheme):
        # Device 2 is nearly full, so the first stripe's write fails after
        # some of its chunks already landed on other devices.
        array = FlashArray(num_devices=4, device_capacity=1_000, chunk_size=500, model=ZERO_COST)
        array.devices[2].write_chunk((10_000, 0), bytes(900))
        before = [(d.chunk_count, d.free_bytes) for d in array.devices]
        writes_before = sum(d.stats.writes for d in array.devices)
        with pytest.raises(DeviceFullError):
            array.write_object("x", payload_of(400, seed=5), scheme)
        assert "x" not in array
        assert sum(d.stats.writes for d in array.devices) > writes_before  # mid-stripe
        assert [(d.chunk_count, d.free_bytes) for d in array.devices] == before


class TestRestripe:
    def test_restripe_moves_object_off_failed_device(self):
        array = make_array(capacity=10_000)
        data = payload_of(2_000, seed=5)
        array.write_object("a", data, ParityScheme(1))
        array.fail_device(2)
        result = array.restripe_object("a")
        assert result.degraded
        assert array.object_health("a") is ObjectHealth.HEALTHY
        used_devices = {
            chunk.device_id
            for stripe in array.get_extent("a").stripes
            for chunk in stripe.chunks
        }
        assert 2 not in used_devices

    def test_restripe_with_new_scheme(self):
        array = make_array(capacity=10_000)
        data = payload_of(1_000, seed=6)
        array.write_object("a", data, ParityScheme(2))
        array.fail_device(0)
        array.fail_device(1)
        # Width 3 can still host 2-parity, but down-shift to 1-parity to
        # save space on the shrunken array.
        array.restripe_object("a", ParityScheme(1))
        assert array.read_object("a")[0] == data
        assert array.object_health("a") is ObjectHealth.HEALTHY

    def test_restripe_survives_next_failure(self):
        array = make_array(capacity=20_000)
        data = payload_of(1_000, seed=7)
        array.write_object("a", data, ParityScheme(2))
        array.fail_device(0)
        array.restripe_object("a")
        array.fail_device(1)
        array.fail_device(2)
        # Fresh 2-parity on the survivors tolerates two more losses.
        assert array.read_object("a")[0] == data

    def test_restripe_unrecoverable_raises(self):
        from repro.errors import UnrecoverableDataError

        array = make_array()
        array.write_object("a", payload_of(1_000, seed=8), ParityScheme(0))
        array.fail_device(0)
        with pytest.raises(UnrecoverableDataError):
            array.restripe_object("a")

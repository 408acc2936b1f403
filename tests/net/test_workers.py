"""Multi-process worker pool: sharded serving with byte-exact data paths.

Each worker owns a private target shard; placement is connection-affine
(the kernel — or the shared accept queue — picks a worker per connection),
so a single-connection client must read back exactly what it wrote no
matter which shard it landed on.
"""

import asyncio

import pytest

from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ParityScheme
from repro.net.client import AsyncOsdClient
from repro.net.cluster import WorkerPool, supports_reuse_port
from repro.net.stats import merge_snapshots
from repro.osd.target import OsdTarget
from repro.osd.types import PARTITION_BASE, ObjectId

pytestmark = pytest.mark.net


def make_shard(_worker_id: int) -> OsdTarget:
    array = FlashArray(
        num_devices=5,
        device_capacity=256 * 1024 * 1024,
        chunk_size=4096,
        model=ZERO_COST,
    )
    target = OsdTarget(array, policy=lambda _cid: ParityScheme(1))
    target.create_partition(PARTITION_BASE)
    return target


class TestWorkerPool:
    def test_two_workers_byte_exact_round_trip(self):
        """2-worker pool: every write reads back byte-identical."""
        payloads = {
            ObjectId(PARTITION_BASE, 0x20000 + index): (
                b"worker-pool-%04d-" % index
            ) * 37
            for index in range(24)
        }

        async def drive(port):
            # pool_size=1: one connection, so one shard sees every command
            # and read-your-writes holds under connection-affine placement.
            async with AsyncOsdClient("127.0.0.1", port, pool_size=1) as client:
                for object_id, payload in payloads.items():
                    response = await client.write(object_id, payload)
                    assert response.ok
                for object_id, payload in payloads.items():
                    data, response = await client.read(object_id)
                    assert response.ok
                    assert data == payload

        with WorkerPool(make_shard, workers=2) as pool:
            asyncio.run(drive(pool.port))
            snapshots = pool.shutdown()
        assert len(snapshots) == 2
        merged = merge_snapshots(snapshots)
        assert merged["workers"] == 2
        assert merged["commands"] == 2 * len(payloads)
        assert merged["wire_errors"] == 0

    def test_concurrent_clients_across_workers(self):
        """Several single-connection clients spread across the shards."""

        async def one_client(port, index):
            object_id = ObjectId(PARTITION_BASE, 0x30000 + index)
            payload = b"client-%d-" % index + b"z" * 512
            async with AsyncOsdClient("127.0.0.1", port, pool_size=1) as client:
                assert (await client.write(object_id, payload)).ok
                data, response = await client.read(object_id)
                assert response.ok and data == payload

        async def drive(port):
            await asyncio.gather(*(one_client(port, index) for index in range(8)))

        with WorkerPool(make_shard, workers=2) as pool:
            asyncio.run(drive(pool.port))
            merged = pool.merged_stats()
        assert merged["commands"] == 16
        assert merged["wire_errors"] == 0

    def test_reuse_port_probe_is_boolean(self):
        assert supports_reuse_port() in (True, False)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(make_shard, workers=0)

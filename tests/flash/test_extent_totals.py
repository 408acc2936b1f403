"""Space totals are kept incrementally and always equal the walked chunks.

``ObjectExtent.data_bytes``/``redundancy_bytes`` are running totals the
write path keeps as it appends stripes; the array's totals are kept as
objects come and go. A random sequence of every operation that stores,
moves, repairs or drops chunks must leave both equal to sums over the
chunk metadata.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.flash.array import FlashArray
from repro.flash.stripe import ChunkKind, ParityScheme, ReplicationScheme

SCHEMES = [ParityScheme(0), ParityScheme(1), ParityScheme(2), ReplicationScheme(), ReplicationScheme(2)]
KEYS = ["a", "b", "c", "d"]


def payload_of(size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def walked(extent):
    data = redundancy = 0
    for stripe in extent.stripes:
        for chunk in stripe.chunks:
            if chunk.kind is ChunkKind.DATA:
                data += chunk.length
            else:
                redundancy += chunk.length
    return data, redundancy


def assert_totals_consistent(array):
    data_sum = redundancy_sum = logical = 0
    for key in array.keys():
        extent = array.get_extent(key)
        assert (extent.data_bytes, extent.redundancy_bytes) == walked(extent)
        assert extent.stored_bytes == extent.data_bytes + extent.redundancy_bytes
        data_sum += extent.data_bytes
        redundancy_sum += extent.redundancy_bytes
        logical += extent.size
    assert array.data_bytes == data_sum
    assert array.redundancy_bytes == redundancy_sum
    assert array.logical_bytes == logical
    occupied = data_sum + redundancy_sum
    assert array.space_efficiency == (data_sum / occupied if occupied else 1.0)


operations = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(KEYS), st.integers(1, 700), st.sampled_from(SCHEMES)),
    st.tuples(st.just("delete"), st.sampled_from(KEYS)),
    st.tuples(st.just("restripe"), st.sampled_from(KEYS), st.sampled_from(SCHEMES)),
    st.tuples(st.just("update"), st.sampled_from(KEYS), st.integers(0, 700), st.integers(1, 90)),
    st.tuples(st.just("fail"), st.integers(0, 5)),
    st.tuples(st.just("replace_rebuild"), st.integers(0, 5)),
    st.tuples(st.just("scrub"), st.integers(0, 5)),
)


class TestExtentTotals:
    @given(ops=st.lists(operations, max_size=25), capacity=st.sampled_from([3_000, 10**6]))
    @settings(max_examples=150, deadline=None)
    def test_totals_equal_walked_sums(self, ops, capacity):
        array = FlashArray(num_devices=6, device_capacity=capacity, chunk_size=32)
        for step, op in enumerate(ops):
            kind, *args = op
            try:
                if kind == "write":
                    key, size, scheme = args
                    array.write_object(key, payload_of(size, step), scheme, overwrite=True)
                elif kind == "delete" and args[0] in array:
                    array.delete_object(args[0])
                elif kind == "restripe" and args[0] in array:
                    array.restripe_object(args[0], args[1])
                elif kind == "update" and args[0] in array:
                    key, offset, length = args
                    size = array.object_size(key)
                    offset = min(offset, size - 1)
                    length = min(length, size - offset)
                    array.update_range(key, offset, payload_of(length, step))
                elif kind == "fail":
                    array.fail_device(args[0])
                elif kind == "replace_rebuild":
                    if not array.devices[args[0]].is_online:
                        array.replace_device(args[0])
                    for key in list(array.keys()):
                        array.rebuild_object(key)
                elif kind == "scrub":
                    # Rot one chunk of some object, then sweep.
                    keys = sorted(array.keys())
                    if keys:
                        extent = array.get_extent(keys[args[0] % len(keys)])
                        chunk = extent.stripes[0].chunks[0]
                        device = array.devices[chunk.device_id]
                        if device.has_chunk(chunk.address):
                            device.corrupt_chunk(chunk.address)
                    array.scrub()
            except ReproError:
                # Device full, too few online devices, unrecoverable stripes:
                # the failed operation must leave the totals consistent too.
                pass
            assert_totals_consistent(array)

    def test_overwrite_and_delete_return_to_zero(self):
        array = FlashArray(num_devices=5, device_capacity=10**6, chunk_size=64)
        array.write_object("a", payload_of(1000), ParityScheme(1))
        extent = array.get_extent("a")
        # 1000 bytes over k=4 data chunks of 64: 3 full stripes (768 B) and a
        # tail of 232 B in four 58-byte chunks, each stripe with one parity.
        assert (extent.data_bytes, extent.redundancy_bytes) == (1000, 3 * 64 + 58)
        array.write_object("a", payload_of(300), ReplicationScheme(2), overwrite=True)
        assert_totals_consistent(array)
        array.delete_object("a")
        assert (array.data_bytes, array.redundancy_bytes, array.logical_bytes) == (0, 0, 0)
        assert array.space_efficiency == 1.0

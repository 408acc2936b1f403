"""The shared ONLINE → SUSPECT → FAILED machine, seen through both adapters.

The device monitor (:mod:`repro.core.health`) and the shard monitor
(:mod:`repro.cluster.health`) feed one :class:`HealthTracker` different
evidence. These tests pin what the machine guarantees to every listener,
whatever the evidence: which steps exist, that FAILED is final and
announced once per identity, and the one adapter difference — shards
recover from SUSPECT, devices never do.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.health import ShardHealthMonitor, ShardHealthPolicy
from repro.core.health import HealthMonitor, HealthPolicy
from repro.flash.array import ArrayIoResult, DeviceIoSample, FlashArray
from repro.flash.latency import ServiceTimeModel

MODEL = ServiceTimeModel(0.001, 0.001, 1e6, 1e6)
CHUNK = 64
DEVICES = 3
SHARDS = 3
BASE = 0.001  # a shard's healthy round trip


def make_array():
    return FlashArray(num_devices=4, device_capacity=10**6, chunk_size=CHUNK, model=MODEL)


def device_io(device_id, reads, errors=0, slowdown=1.0):
    expected = reads * (MODEL.read_overhead + CHUNK / MODEL.read_bandwidth)
    sample = DeviceIoSample(
        reads=reads, errors=errors, seconds=slowdown * expected, bytes_read=reads * CHUNK
    )
    return ArrayIoResult(elapsed=0.0, op="read", degraded=False, device_io={device_id: sample})


def check_chains(events, allowed):
    """Every identity's steps chain from its start state through ``allowed``.

    ``events`` holds ``("start", identity, state)`` markers (an identity
    that someone else demoted starts SUSPECT) and ``("step", identity,
    transition)`` records in emission order.
    """
    state = {}
    for kind, identity, payload in events:
        if kind == "start":
            if state.get(identity, "online") == "online":
                state[identity] = payload
            continue
        old = state.get(identity, "online")
        assert old != "failed", f"{identity}: step after FAILED: {payload}"
        assert payload.old == old, f"{identity}: {payload} does not follow {old}"
        assert (payload.old, payload.new) in allowed(payload), payload
        state[identity] = payload.new


ratios = st.sampled_from([0.5, 1.0, 2.0, 5.0, 30.0, 80.0])

device_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("io"),
            st.integers(0, DEVICES - 1),
            st.integers(1, 6),
            st.floats(0.0, 1.0),
            ratios,
        ),
        st.tuples(st.just("poll"), st.sampled_from([0.0, 0.4, 1.5])),
        st.tuples(st.just("fail_stop"), st.integers(0, DEVICES - 1)),
        st.tuples(st.just("demote"), st.integers(0, DEVICES - 1)),
        st.tuples(st.just("replace"), st.integers(0, DEVICES - 1)),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(alpha=st.sampled_from([0.05, 0.3, 1.0]), steps=device_steps)
def test_device_adapter_only_takes_allowed_steps(alpha, steps):
    array = make_array()
    monitor = HealthMonitor(
        array, HealthPolicy(alpha=alpha, min_ops=2, confirm_ops=4, suspect_grace=1.0)
    )
    events = []

    def identity(device_id):
        return (device_id, array.devices[device_id].generation)

    monitor.listeners.append(lambda t: events.append(("step", identity(t.device_id), t)))
    now = 0.0
    for step in steps:
        kind, arg = step[0], step[1]
        if kind == "io":
            _, device_id, reads, error_share, slowdown = step
            errors = round(error_share * reads)
            monitor.ingest(device_io(device_id, reads, errors, slowdown), now)
        elif kind == "poll":
            now += arg
            monitor.poll(now)
        elif kind == "fail_stop":
            array.fail_device(arg)
        elif kind == "demote":
            if array.devices[arg].is_online:
                events.append(("start", identity(arg), "suspect"))
            array.devices[arg].suspect()
        elif not array.devices[arg].is_online:
            array.replace_device(arg)
        for device in array.devices[:DEVICES]:
            if device.is_available:
                # The monitor's picture and the device agree on trust.
                record = monitor.health_of(device.device_id)
                assert (record.state == "online") == device.is_online

    def allowed(t):
        if t.reason == "fail-stop observed":
            return {("online", "failed"), ("suspect", "failed")}
        return {("online", "suspect"), ("suspect", "failed")}

    check_chains(events, allowed)


shard_steps = st.lists(
    st.one_of(
        st.tuples(st.just("ok"), st.integers(0, SHARDS - 1), ratios),
        st.tuples(st.just("error"), st.integers(0, SHARDS - 1)),
        st.tuples(st.just("reset"), st.integers(0, SHARDS - 1)),
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(alpha=st.sampled_from([0.12, 0.3, 1.0]), steps=shard_steps)
def test_shard_adapter_only_takes_allowed_steps(alpha, steps):
    monitor = ShardHealthMonitor(ShardHealthPolicy(alpha=alpha, min_ops=2, confirm_ops=4))
    epoch = {shard_id: 0 for shard_id in range(SHARDS)}
    events = []
    monitor.listeners.append(
        lambda t: events.append(("step", (t.shard_id, epoch[t.shard_id]), t))
    )
    for now, step in enumerate(steps):
        kind, shard_id = step[0], step[1]
        if kind == "ok":
            monitor.observe(shard_id, BASE * step[2], ok=True, now=float(now))
        elif kind == "error":
            monitor.observe(shard_id, None, ok=False, now=float(now))
        else:
            monitor.reset(shard_id)
            epoch[shard_id] += 1  # a re-admitted shard is a fresh identity

    check_chains(
        events,
        lambda t: {("online", "suspect"), ("suspect", "failed"), ("suspect", "online")},
    )


class TestRecoveryAsymmetry:
    """Clean evidence past ``confirm_ops`` clears a shard, never a device."""

    def test_suspect_device_stays_suspect(self):
        array = make_array()
        monitor = HealthMonitor(array)
        for _ in range(monitor.policy.min_ops):
            monitor.ingest(device_io(0, reads=1), now=0.0)
        while array.devices[0].is_online:
            monitor.ingest(device_io(0, reads=1, errors=1), now=1.0)
        for _ in range(200):
            monitor.ingest(device_io(0, reads=1), now=2.0)
        record = monitor.health_of(0)
        assert record.error_ewma < monitor.policy.suspect_error_rate
        assert record.slowdown_ewma < monitor.policy.suspect_slowdown
        assert record.ops - record.suspect_at_ops >= monitor.policy.confirm_ops
        assert [(t.old, t.new) for t in monitor.transitions] == [("online", "suspect")]
        assert record.state == "suspect"
        assert not array.devices[0].is_online and array.devices[0].is_available

    def test_suspect_shard_recovers(self):
        monitor = ShardHealthMonitor()
        for i in range(monitor.policy.min_ops):
            monitor.observe(0, BASE, ok=True, now=float(i))
        while monitor.state_of(0) == "online":
            monitor.observe(0, None, ok=False, now=10.0)
        for _ in range(200):
            monitor.observe(0, BASE, ok=True, now=20.0)
        assert [(t.old, t.new) for t in monitor.transitions] == [
            ("online", "suspect"),
            ("suspect", "online"),
        ]
        assert monitor.state_of(0) == "online"


def test_device_listener_hears_suspect_after_the_demotion():
    array = make_array()
    monitor = HealthMonitor(array)
    heard = []
    monitor.listeners.append(
        lambda t: heard.append((t.new, array.devices[t.device_id].is_online))
    )
    while not heard:
        monitor.ingest(device_io(1, reads=1, errors=1), now=1.0)
    assert heard == [("suspect", False)]

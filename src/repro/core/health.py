"""Health tracking: one ONLINE → SUSPECT → FAILED machine, two evidence feeds.

Real arrays do not get a courtesy call when a device starts dying: they
*infer* failure from the I/O stream. :class:`HealthTracker` is the
inference, shared by every level that does it. Per identity (a device
generation here, a shard in :mod:`repro.cluster.health`) it folds
evidence into:

- an EWMA of the **error rate** (errors per operation), and
- an EWMA of the **slowdown** — observed service time over what a
  healthy identity would take, so the metric is scale-free: a healthy
  identity hovers near 1.0 and a fail-slow one converges to its latency
  multiplier regardless of payload sizes.

Policy thresholds move an identity ONLINE → SUSPECT (after ``min_ops``
warm-up) → FAILED, the last only when the pathology *persists* for
``confirm_ops`` further operations or worsens past the hard thresholds.
Every step is a transition record on one listener stream. Whether a
SUSPECT identity whose evidence has cleared may return to ONLINE is fixed
by the adapter, not by callers: shards recover (a flapping link that
stopped flapping is still the same healthy server), devices never do (a
SUSPECT device has had its reads diverted to peers, so clean evidence
after demotion says little about the medium, and a replacement is cheap).

:class:`HealthMonitor` is the device adapter. It watches every
:class:`~repro.flash.array.ArrayIoResult` the array produces (the array
feeds its :attr:`~repro.flash.array.FlashArray.health` hook from every
finished batch) and measures slowdown against the device's own
:class:`ServiceTimeModel`. It demotes a device to SUSPECT itself (placement
stops, reads prefer peers/parity) before any listener hears of it; the
FAILED verdict is emitted for the
:class:`~repro.core.supervisor.RecoverySupervisor` to act on (spare swap,
prioritized rebuild), keeping detection separate from repair policy.
Fail-stop failures (device already FAILED on the array) are *observed* by
:meth:`HealthMonitor.poll` and emitted through the same transition stream,
so one listener sees every failure shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Generic, List, NamedTuple, Optional, TypeVar

if TYPE_CHECKING:  # pragma: no cover - imports only for annotations
    from repro.flash.array import ArrayIoResult, FlashArray
    from repro.flash.device import FlashDevice

__all__ = [
    "DeviceHealth", "HealthMonitor", "HealthPolicy", "HealthRecord",
    "HealthTracker", "HealthTransition", "VerdictPolicy",
]


@dataclass(frozen=True)
class VerdictPolicy:
    """Thresholds separating noise from demotion-worthy pathology.

    Adapters subclass this with their own defaults (and extra knobs).

    Attributes:
        alpha: EWMA smoothing factor *per operation*. A batch of ``n`` ops
            moves the average by ``1 - (1 - alpha) ** n``, so one bad op in
            a small batch cannot spike a healthy identity over a threshold —
            only a sustained rate converges there.
        min_ops: operations observed before any verdict (EWMA warm-up).
        suspect_error_rate: error-rate EWMA demoting ONLINE → SUSPECT.
        fail_error_rate: error-rate EWMA escalating SUSPECT → FAILED.
        suspect_slowdown: slowdown EWMA demoting ONLINE → SUSPECT.
        fail_slowdown: slowdown EWMA escalating SUSPECT → FAILED.
        confirm_ops: operations a SUSPECT identity must stay past a suspect
            threshold before escalation to FAILED — one bad burst parks it,
            only a *persistent* pathology condemns it.
    """

    alpha: float
    min_ops: int
    suspect_error_rate: float
    fail_error_rate: float
    suspect_slowdown: float
    fail_slowdown: float
    confirm_ops: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.suspect_error_rate > self.fail_error_rate:
            raise ValueError("suspect_error_rate must not exceed fail_error_rate")
        if self.suspect_slowdown > self.fail_slowdown:
            raise ValueError("suspect_slowdown must not exceed fail_slowdown")
        if self.min_ops < 1 or self.confirm_ops < 1:
            raise ValueError("min_ops and confirm_ops must be >= 1")


@dataclass(frozen=True)
class HealthPolicy(VerdictPolicy):
    """Device thresholds (see :class:`VerdictPolicy` for the shared ones).

    Attributes:
        suspect_grace: simulated seconds a device may stay SUSPECT before
            :meth:`HealthMonitor.poll` escalates it to FAILED regardless of
            traffic. Demotion diverts reads to peers, so a parked device may
            see no further I/O and the ops-based escalation would starve;
            the grace period is the time-based backstop (a real array would
            either rehabilitate the device with probes or evict it).
    """

    alpha: float = 0.02
    min_ops: int = 8
    suspect_error_rate: float = 0.05
    fail_error_rate: float = 0.30
    suspect_slowdown: float = 3.0
    fail_slowdown: float = 20.0
    confirm_ops: int = 24
    suspect_grace: float = 30.0


@dataclass
class HealthRecord:
    """The tracker's rolling picture of one identity."""

    state: str = "online"  # "online" | "suspect" | "failed"
    ops: int = 0
    errors: int = 0
    error_ewma: float = 0.0
    slowdown_ewma: float = 1.0
    #: ops counter value when the identity entered SUSPECT (escalation timer).
    suspect_at_ops: Optional[int] = None
    suspect_since: Optional[float] = None


Transition = TypeVar("Transition")


class HealthTracker(Generic[Transition]):
    """The verdict machine; subclasses feed it evidence.

    An adapter keeps its records keyed by identity, calls :meth:`_fold` with
    each observation and :meth:`_evaluate` after it, and names the
    transition type its listeners receive.
    """

    #: Whether SUSPECT returns to ONLINE once the evidence has stayed under
    #: the suspect lines for ``confirm_ops`` operations. Fixed per adapter.
    recovers = False

    def __init__(
        self, policy: VerdictPolicy, transition: Callable[..., Transition]
    ) -> None:
        self.policy = policy
        self.listeners: List[Callable[[Transition], None]] = []
        self.transitions: List[Transition] = []
        self._transition = transition

    def _fold(
        self, record: HealthRecord, ops: int, errors: int, slowdown: Optional[float]
    ) -> None:
        """Fold ``ops`` operations (``errors`` of them failed) into the EWMAs.

        A batch is ``ops`` samples of its own rate, so the smoothing factor
        compounds per operation.
        """
        alpha = 1.0 - (1.0 - self.policy.alpha) ** ops
        record.ops += ops
        record.errors += errors
        record.error_ewma += alpha * (errors / ops - record.error_ewma)
        if slowdown is not None:
            record.slowdown_ewma += alpha * (slowdown - record.slowdown_ewma)

    def _evaluate(self, key: int, record: HealthRecord, now: float) -> None:
        """Apply the thresholds to one record, emitting at most one step."""
        policy = self.policy
        if record.ops < policy.min_ops or record.state == "failed":
            return
        errs, slow = record.error_ewma, record.slowdown_ewma
        bad = errs >= policy.suspect_error_rate or slow >= policy.suspect_slowdown
        if record.state == "online":
            if bad:
                record.suspect_at_ops = record.ops
                record.suspect_since = now
                reason = (
                    f"error_ewma={errs:.3f}"
                    if errs >= policy.suspect_error_rate
                    else f"slowdown_ewma={slow:.1f}"
                )
                self._emit(key, record, "suspect", now, reason)
            return
        if errs >= policy.fail_error_rate or slow >= policy.fail_slowdown:
            self._emit(
                key, record, "failed", now,
                f"error_ewma={errs:.3f} slowdown_ewma={slow:.1f}",
            )
            return
        held = record.ops - (record.suspect_at_ops or 0)
        if held < policy.confirm_ops:
            return
        if bad:
            self._emit(key, record, "failed", now, f"persistent after {held} ops")
        elif self.recovers:
            record.suspect_at_ops = None
            record.suspect_since = None
            self._emit(key, record, "online", now, "recovered")

    def _emit(
        self, key: int, record: HealthRecord, new: str, at: float, reason: str
    ) -> Transition:
        transition = self._transition(key, record.state, new, at, reason)
        record.state = new
        self.transitions.append(transition)
        for listener in list(self.listeners):
            listener(transition)
        return transition


@dataclass
class DeviceHealth(HealthRecord):
    """One device generation's record (a spare starts a fresh one)."""

    generation: int = 0


class HealthTransition(NamedTuple):
    """One state-machine step the monitor decided or observed."""

    device_id: int
    old: str
    new: str  # "suspect" | "failed"
    at: float
    reason: str


class HealthMonitor(HealthTracker[HealthTransition]):
    """Watches per-device I/O health and drives the SUSPECT/FAILED verdicts."""

    policy: HealthPolicy

    def __init__(
        self,
        array: "FlashArray",
        policy: Optional[HealthPolicy] = None,
        attach: bool = True,
    ) -> None:
        super().__init__(policy or HealthPolicy(), HealthTransition)
        self.array = array
        self.devices: Dict[int, DeviceHealth] = {}
        #: Degraded foreground-read latencies (simulated seconds), for the
        #: durability ledger's degraded-read percentiles.
        self.degraded_read_latencies: List[float] = []
        if attach:
            array.health = self

    # ------------------------------------------------------------------
    # Observation intake
    # ------------------------------------------------------------------
    def ingest(self, result: "ArrayIoResult", now: float) -> None:
        """Fold one array operation's per-device samples into the EWMAs."""
        if result.op == "read" and result.degraded:
            self.degraded_read_latencies.append(result.elapsed)
        for device_id, sample in result.device_io.items():
            ops = sample.reads + sample.writes
            if ops == 0:
                continue
            device = self.array.devices[device_id]
            health = self._health(device)
            expected = self._expected_seconds(device, sample)
            slowdown = None
            if expected > 0.0 and sample.seconds > 0.0:
                slowdown = sample.seconds / expected
            self._fold(health, ops, sample.errors, slowdown)
            if device.is_available:
                # A fail-stop is observed by poll(), not inferred here.
                self._evaluate(device_id, health, now)

    def poll(self, now: float) -> List[HealthTransition]:
        """Observe out-of-band state changes (fail-stop shootdowns, swaps).

        Returns the transitions emitted by this poll. Called between
        requests by the supervisor so a fail-stop is noticed at the first
        opportunity even when no I/O touches the dead device.
        """
        emitted: List[HealthTransition] = []
        for device in self.array.devices:
            health = self._health(device)  # refreshed on generation change
            if health.state == "failed":
                continue
            if not device.is_available:
                emitted.append(
                    self._emit(device.device_id, health, "failed", now,
                               "fail-stop observed")
                )
            elif health.state == "suspect":
                # Reads were diverted to peers, so the ops-based escalation
                # may never see another sample. The grace period is the
                # time-based backstop.
                if health.suspect_since is None:
                    health.suspect_since = now
                elif now - health.suspect_since >= self.policy.suspect_grace:
                    emitted.append(
                        self._emit(
                            device.device_id, health, "failed", now,
                            f"suspect for {now - health.suspect_since:.3f}s",
                        )
                    )
        return emitted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health_of(self, device_id: int) -> DeviceHealth:
        return self._health(self.array.devices[device_id])

    def degraded_read_percentile(self, fraction: float) -> float:
        """Degraded foreground-read latency percentile (0 when none seen)."""
        if not self.degraded_read_latencies:
            return 0.0
        ordered = sorted(self.degraded_read_latencies)
        index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
        return ordered[index]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _health(self, device: "FlashDevice") -> DeviceHealth:
        health = self.devices.get(device.device_id)
        if health is None or health.generation != device.generation:
            # First sighting, or a spare was swapped in: fresh record — a
            # replacement is a different physical device.
            health = DeviceHealth(generation=device.generation)
            self.devices[device.device_id] = health
        if health.state == "online" and device.is_available and not device.is_online:
            # Demoted by someone else: SUSPECT all the same, with no emission.
            health.state = "suspect"
        return health

    def _expected_seconds(self, device: "FlashDevice", sample) -> float:
        model = device.model
        return (
            sample.reads * model.read_overhead
            + sample.bytes_read / model.read_bandwidth
            + sample.writes * model.write_overhead
            + sample.bytes_written / model.write_bandwidth
        )

    def _emit(
        self, key: int, record: HealthRecord, new: str, at: float, reason: str
    ) -> HealthTransition:
        if new == "suspect":
            # Demote before anyone hears of it: a listener already sees
            # placement stopped and reads preferring peers.
            self.array.devices[key].suspect()
        return super()._emit(key, record, new, at, reason)

"""Shard-level health monitoring: the cluster's failure detector.

:class:`ShardHealthMonitor` is the shard adapter over the shared
:class:`~repro.core.health.HealthTracker`. The device monitor infers
device failure from the I/O stream; here the *shard* (one OSD server
behind a socket) is the unit of suspicion, and the evidence is
round-trip observations — passive samples reported by the
:class:`~repro.cluster.router.RouterClient` around every routed command,
plus active heartbeats from a :class:`ShardProbe` loop, each folded into
the tracker's EWMAs as one operation:

- an **error-rate** EWMA (timeouts, connection failures, exhausted
  retries per observation), and
- a **slowdown** EWMA — observed round-trip seconds over the shard's own
  learned healthy baseline (the mean of its first successful samples,
  never below ``baseline_floor``), so a healthy shard hovers near 1.0
  and a fail-slow link converges to its injected multiplier.

The tracker's verdicts apply unchanged — a flapping link parks a shard in
SUSPECT without condemning it, while sustained fail-slow escalates — with
one adapter choice: a SUSPECT shard whose evidence clears for
``confirm_ops`` observations returns to ONLINE. The FAILED verdict is
emitted as a :class:`ShardTransition` for the autonomous
:class:`~repro.cluster.supervisor.ClusterSupervisor` loop to act on
(drain → condemn → re-home), keeping detection separate from repair.

The monitor holds no clock of its own: callers stamp every observation
with their ``now``. Transitions carry those wall timestamps for the
chaos campaign's detection-latency metric, and their reasons embed
wall-fed EWMA readings, so nothing here feeds the DurabilityLedger
directly — the supervisor books ledger entries on its own logical step
clock, which is what keeps ledgers byte-identical per seed despite
wall-time noise. The determinism-taint rule treats :class:`ShardHealth`
EWMAs and :class:`ShardTransition` reasons/timestamps as wall-clock
values wherever they are read.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional

from repro.core.health import HealthRecord, HealthTracker, VerdictPolicy
from repro.net.client import OsdServiceError

if TYPE_CHECKING:  # pragma: no cover - imports only for annotations
    from repro.cluster.router import RouterClient

__all__ = [
    "ShardHealth",
    "ShardHealthMonitor",
    "ShardHealthPolicy",
    "ShardProbe",
    "ShardTransition",
]


@dataclass(frozen=True)
class ShardHealthPolicy(VerdictPolicy):
    """Thresholds separating network noise from a demotion-worthy shard.

    The numbers are deliberately hotter than the device policy's: a shard
    observation is a whole round trip (already smoothed over many device
    ops), sample rates are lower (per command + heartbeat, not per chunk),
    and a condemned shard is rebuilt from redundancy rather than thrown
    away — so the detector can afford to be decisive. The shared
    thresholds are documented on :class:`~repro.core.health.VerdictPolicy`;
    here ``min_ops`` is also the baseline-learning window for the
    slowdown denominator.

    Attributes:
        baseline_floor: lower bound (seconds) on the learned healthy
            baseline, so loopback's sub-millisecond round trips cannot
            make scheduler jitter register as a pathological slowdown.
    """

    alpha: float = 0.15
    min_ops: int = 6
    suspect_error_rate: float = 0.25
    fail_error_rate: float = 0.60
    suspect_slowdown: float = 4.0
    fail_slowdown: float = 60.0
    confirm_ops: int = 12
    baseline_floor: float = 0.0005


@dataclass
class ShardHealth(HealthRecord):
    """One shard's record, plus the learned round-trip baseline."""

    #: Learned healthy round-trip baseline (seconds); None while warming up.
    baseline: Optional[float] = None
    _baseline_sum: float = field(default=0.0, repr=False)
    _baseline_count: int = field(default=0, repr=False)

    def snapshot(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "ops": self.ops,
            "errors": self.errors,
            "error_ewma": round(self.error_ewma, 6),
            "slowdown_ewma": round(self.slowdown_ewma, 6),
            "baseline": None if self.baseline is None else round(self.baseline, 6),
        }


class ShardTransition(NamedTuple):
    """One detector state-machine step for one shard."""

    shard_id: int
    old: str
    new: str  # "suspect" | "failed" | "online"
    at: float
    reason: str


class ShardHealthMonitor(HealthTracker[ShardTransition]):
    """Folds per-shard round-trip observations into SUSPECT/FAILED verdicts."""

    # A flap that stopped flapping earns its way back to ONLINE.
    recovers = True
    policy: ShardHealthPolicy

    def __init__(self, policy: Optional[ShardHealthPolicy] = None) -> None:
        super().__init__(policy or ShardHealthPolicy(), ShardTransition)
        self.shards: Dict[int, ShardHealth] = {}

    # ------------------------------------------------------------------
    # Observation intake
    # ------------------------------------------------------------------
    def observe(
        self,
        shard_id: int,
        latency: Optional[float],
        *,
        ok: bool,
        now: float,
    ) -> None:
        """Fold one round-trip observation (probe or routed command).

        ``latency`` is the observed round-trip in seconds for successful
        observations; errors (``ok=False``) carry no latency sample — a
        timeout's duration measures the client's patience, not the shard.
        """
        policy = self.policy
        health = self._health(shard_id)
        slowdown = None
        if ok and latency is not None:
            if health.baseline is None:
                health._baseline_sum += latency
                health._baseline_count += 1
                if health._baseline_count >= policy.min_ops:
                    health.baseline = max(
                        policy.baseline_floor,
                        health._baseline_sum / health._baseline_count,
                    )
            else:
                slowdown = latency / health.baseline
        self._fold(health, 1, 0 if ok else 1, slowdown)
        self._evaluate(shard_id, health, now)

    def reset(self, shard_id: int) -> None:
        """Forget a shard's record (re-admit after repair: fresh identity)."""
        self.shards.pop(shard_id, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health_of(self, shard_id: int) -> ShardHealth:
        return self._health(shard_id)

    def state_of(self, shard_id: int) -> str:
        return self._health(shard_id).state

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {
            str(shard_id): self.shards[shard_id].snapshot()
            for shard_id in sorted(self.shards)
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _health(self, shard_id: int) -> ShardHealth:
        health = self.shards.get(shard_id)
        if health is None:
            health = ShardHealth()
            self.shards[shard_id] = health
        return health


class ShardProbe:
    """Active heartbeat loop feeding a :class:`ShardHealthMonitor`.

    Passive router observations alone starve the detector exactly when it
    matters most: a crashed or blackholed shard stops producing routed
    traffic (the breaker fast-fails, reads fail over), so its EWMAs would
    freeze mid-suspicion. The probe keeps evidence flowing — one cheap
    ``ServiceStats`` control read per readable shard per tick, measured
    and reported like any other observation. Probes go straight to the
    per-shard client, bypassing the router's circuit breaker: they are the
    mechanism by which a SUSPECT shard either rehabilitates or confirms.
    """

    def __init__(
        self,
        router: "RouterClient",
        monitor: ShardHealthMonitor,
        *,
        interval: float = 0.02,
    ) -> None:
        self.router = router
        self.monitor = monitor
        self.interval = interval
        self.probes = 0
        self.failures = 0
        self._task: Optional[asyncio.Task] = None

    async def start(self) -> "ShardProbe":
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())
        return self

    async def aclose(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _run(self) -> None:
        while True:
            await self.probe_once()
            await asyncio.sleep(self.interval)

    async def probe_once(self) -> None:
        """One heartbeat round over every readable shard."""
        loop = asyncio.get_running_loop()
        for shard_id in sorted(self.router.cluster_map.readable_ids):
            started = loop.time()
            try:
                await self.router.client(shard_id).service_stats()
            except (OsdServiceError, ConnectionError, OSError):
                self.failures += 1
                self.monitor.observe(shard_id, None, ok=False, now=loop.time())
            else:
                elapsed = loop.time() - started
                self.monitor.observe(shard_id, elapsed, ok=True, now=loop.time())
            finally:
                self.probes += 1

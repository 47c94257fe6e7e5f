"""The fabric coordinator: drive a job across socket workers.

One :class:`FabricCoordinator` owns a set of worker addresses and a
:class:`~repro.fabric.scheduler.WorkStealingScheduler` over indexed
work units, and runs the whole campaign loop on one asyncio event
loop.  The addresses name remote ``repro worker`` daemons
(``workers=``) or the forked loopback workers of
:func:`~repro.fabric.local.local_workers` (``jobs=N``); nothing below
tells the two apart.

* per address, a **reconnect loop** governed by that worker's
  :class:`~repro.fabric.health.WorkerHealth` machine -- connect,
  handshake (versioned hello + fingerprint comparison), serve, and on
  any loss back off with the capped-exponential schedule and try
  again (``max_rounds=0`` makes the first loss terminal).  A worker
  whose fingerprint is *rejected* is terminally dead; if every worker
  is rejected the run raises :class:`FabricMismatch` (the
  socket-transport sibling of
  :class:`~repro.resilience.checkpoint.CheckpointMismatch`), and if
  every worker is dead for any other reason, :class:`FabricError`
  naming the incomplete units.
* per connection, a **pinger** (heartbeats + deadline checks + lease
  top-up + stall detection) and a **frame loop** (results, errors,
  idle notifications -- every frame refreshing the health machine).
* losses requeue with retry accounting:
  ``campaign_shard_retries_total{reason=crash|timeout|error,attempt}``
  counters, and a unit requeued past ``max_retries`` raises
  :class:`ShardFailure`.

Determinism: results are keyed by unit index and every unit is a pure
function of its payload, so the merged result dict is independent of
worker count, schedules, steals, crashes and retries -- the caller's
``sorted(results)`` merge yields byte-identical reports.  The
coordinator is also the only writer of any checkpoint store, so worker
crashes can never tear it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fabric.frames import FrameError, encode_frame, read_frame
from repro.fabric.health import WorkerHealth, WorkerState, state_census
from repro.fabric.jobs import get_job
from repro.fabric.scheduler import WorkStealingScheduler
from repro.fabric.worker import PROTOCOL_VERSION
from repro.resilience.clock import MONOTONIC, Clock

__all__ = [
    "FabricConfig",
    "FabricCoordinator",
    "FabricError",
    "FabricMismatch",
    "ShardFailure",
    "parse_workers",
]


class FabricError(RuntimeError):
    """The fabric cannot finish the job (every worker is gone)."""


class FabricMismatch(FabricError):
    """Every worker was rejected at the handshake (fingerprint skew)."""


class ShardFailure(RuntimeError):
    """One unit exhausted its retries."""

    def __init__(self, index: int, attempts: int, reason: str) -> None:
        super().__init__(
            f"shard {index} failed after {attempts} attempts: {reason}"
        )
        self.index = index
        self.attempts = attempts
        self.reason = reason


def parse_workers(spec: str) -> List[Tuple[str, int]]:
    """``"host:port,host:port"`` -> ``[(host, port), ...]``."""
    out: List[Tuple[str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"bad worker address {part!r}; expected host:port"
            )
        out.append((host or "127.0.0.1", int(port)))
    if not out:
        raise ValueError("no worker addresses given")
    return out


@dataclass(frozen=True)
class FabricConfig:
    """Scheduling and fault-handling knobs of one fabric run."""

    #: adaptive lease sizing: target seconds of work per lease.
    lease_target_s: float = 1.0
    min_lease: int = 1
    max_lease: int = 64
    #: pin every lease to this many units instead (benchmark baseline).
    fixed_lease: Optional[int] = None
    #: let idle workers steal the back half of the biggest outstanding
    #: run.  Off, the fabric degrades to classic static partitioning --
    #: the tail-latency benchmark's baseline.
    allow_steal: bool = True
    #: seconds between pings (also the health/top-up check cadence).
    heartbeat_interval: float = 0.25
    #: silence thresholds of the worker health ladder.
    degraded_after: float = 2.0
    dead_after: float = 6.0
    #: per-unit progress deadline: a connected worker holding leases
    #: that produces no result for this long is hung (its pongs keep
    #: the health machine happy, so this is a separate check); None
    #: disables it.
    unit_timeout: Optional[float] = None
    #: how many times one unit may be requeued before the run fails.
    max_retries: int = 2
    #: reconnect backoff: ``min(cap, base * 2**(round-1))`` seconds.
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    #: failed connection rounds per worker before it is terminally
    #: dead; None retries forever (then only unit retries bound the run),
    #: 0 gives up on the first loss (local workers are never respawned).
    max_rounds: Optional[int] = 8
    connect_timeout: float = 5.0


class _Session:
    """Live connection state for one bound worker."""

    __slots__ = ("writer", "lock", "last_progress", "leased_at")

    def __init__(self, writer: asyncio.StreamWriter, now: float) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.last_progress = now
        self.leased_at = now

    async def send(self, message: Dict[str, object]) -> None:
        async with self.lock:
            self.writer.write(encode_frame(message))
            await self.writer.drain()


class FabricCoordinator:
    """Run indexed work units of one job over socket workers."""

    def __init__(
        self,
        job: str,
        params: Dict[str, object],
        units: Sequence[Tuple[int, object]],
        workers: Sequence[Tuple[str, int]],
        config: Optional[FabricConfig] = None,
        metrics=None,
        on_result: Optional[Callable[[int, object], None]] = None,
        injections_per_unit: int = 1,
        clock: Clock = MONOTONIC,
    ) -> None:
        if not workers:
            raise ValueError("need at least one worker address")
        self.job = job
        self.params = dict(params)
        self.config = config or FabricConfig()
        self.addresses = list(workers)
        self._metrics = metrics
        self._on_result = on_result
        self._clock = clock
        self.scheduler = WorkStealingScheduler(
            units,
            injections_per_unit=injections_per_unit,
            lease_target_s=self.config.lease_target_s,
            min_lease=self.config.min_lease,
            max_lease=self.config.max_lease,
            fixed_lease=self.config.fixed_lease,
        )
        self.results: Dict[int, object] = {}
        self.health: Dict[str, WorkerHealth] = {}
        self._sessions: Dict[str, _Session] = {}
        self._attempts: Dict[int, int] = {}
        self._failure: Optional[BaseException] = None
        self._rejections: Dict[str, str] = {}
        self._done: Optional[asyncio.Event] = None  # created inside run()
        self._fingerprint: Dict[str, object] = {}  # computed once in run()

    # -- shared accounting ----------------------------------------------
    def _count_retry(self, reason: str, attempt: int) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "campaign_shard_retries_total",
                reason=reason, attempt=attempt,
            ).inc()

    def _requeue_units(
        self, worker: str, indices: Sequence[int], reason: str, detail: str
    ) -> None:
        """Return lost units to the queue, with retry accounting."""
        sched = self.scheduler
        for index in indices:
            if index in sched.completed:
                continue
            attempt = self._attempts.get(index, 0) + 1
            self._attempts[index] = attempt
            if attempt > self.config.max_retries:
                self._fail(ShardFailure(index, attempt, detail))
                return
            self._count_retry(reason, attempt)
        sched.revoke_from(worker, indices)
        live = [i for i in indices if i not in sched.completed]
        sched.pending = sorted(set(sched.pending) | set(live))

    def _fail(self, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = exc
        if self._done is not None:
            self._done.set()

    # -- leasing --------------------------------------------------------
    async def _top_up(self, name: str) -> None:
        """Grant (or steal) work for an idle, healthy worker."""
        sched = self.scheduler
        session = self._sessions.get(name)
        health = self.health.get(name)
        if session is None or health is None:
            return
        if health.state != WorkerState.HEALTHY:
            return
        if sched.outstanding.get(name):
            return
        units = sched.grant(name)
        victim = None
        if not units and self.config.allow_steal:
            victim, units = sched.steal(name)
        if not units:
            return
        if victim is not None:
            victim_session = self._sessions.get(victim)
            if victim_session is not None:
                # Best-effort: the victim drops the stolen units from
                # its queue.  If the revoke is lost (or the unit was
                # already running) both sides compute it and the
                # first result wins -- identical by determinism.
                try:
                    await victim_session.send({
                        "type": "revoke",
                        "indices": [i for i, _ in units],
                    })
                except (ConnectionError, OSError):
                    pass
        now = self._clock()
        session.last_progress = now
        session.leased_at = now
        await session.send({"type": "lease", "units": [[i, p] for i, p in units]})
        if self._metrics is not None:
            self._metrics.counter(
                "fabric_leases_total", worker=name,
                kind="steal" if victim is not None else "grant",
            ).inc()

    # -- one worker address ---------------------------------------------
    async def _worker_loop(self, host: str, port: int) -> None:
        name = f"{host}:{port}"
        health = WorkerHealth(
            name,
            degraded_after=self.config.degraded_after,
            dead_after=self.config.dead_after,
            backoff_base=self.config.backoff_base,
            backoff_cap=self.config.backoff_cap,
            max_rounds=self.config.max_rounds,
            clock=self._clock,
            metrics=self._metrics,
        )
        self.health[name] = health
        while not (self.scheduler.done or self._failure or health.terminal):
            if health.state == WorkerState.DEAD:
                if not health.may_reconnect():
                    await asyncio.sleep(
                        min(0.05, self.config.heartbeat_interval)
                    )
                    continue
            health.on_reconnecting()
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port),
                    self.config.connect_timeout,
                )
            except (OSError, asyncio.TimeoutError):
                health.on_disconnect()
                continue
            try:
                await self._serve_connection(name, health, reader, writer)
            except (FrameError, ConnectionError, OSError):
                pass
            finally:
                self._sessions.pop(name, None)
                try:
                    writer.close()
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            if self.scheduler.done or self._failure:
                break
            if health.state != WorkerState.DEAD:
                health.on_disconnect()
            self._requeue_units(
                name, list(self.scheduler.outstanding.get(name, [])),
                "crash", f"lost connection to worker {name} mid-lease",
            )

    async def _serve_connection(
        self, name: str, health: WorkerHealth, reader, writer
    ) -> None:
        session = _Session(writer, self._clock())
        await session.send({"type": "hello", "version": PROTOCOL_VERSION})
        welcome = await asyncio.wait_for(
            read_frame(reader), self.config.connect_timeout
        )
        if welcome is None:
            return
        if welcome.get("type") == "reject":
            health.on_disconnect()  # busy etc: retry with backoff
            return
        if welcome.get("type") != "welcome":
            return
        await session.send({
            "type": "init", "job": self.job, "params": self.params,
            "fingerprint": self._fingerprint,
        })
        bound = await asyncio.wait_for(read_frame(reader), None)
        if bound is None:
            return
        if bound.get("type") == "reject":
            reason = str(bound.get("reason", "rejected"))
            self._rejections[name] = reason
            terminal = "mismatch" in reason or "cannot bind" in reason
            health.on_disconnect(terminal=terminal)
            return
        if bound.get("type") != "bound":
            return
        health.on_connected()
        self._sessions[name] = session
        await self._top_up(name)
        pinger = asyncio.ensure_future(self._ping_loop(name, health, session))
        try:
            await self._frame_loop(name, health, session, reader)
        finally:
            pinger.cancel()
            try:
                await pinger
            except asyncio.CancelledError:
                pass

    async def _ping_loop(self, name: str, health: WorkerHealth, session) -> None:
        """Heartbeats out, deadline checks, lease top-up, stall detection."""
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            try:
                await session.send({"type": "ping", "t": self._clock()})
            except (ConnectionError, OSError):
                return
            if health.check() == WorkerState.DEAD:
                # Heartbeat deadline blown (e.g. a SIGSTOPped worker):
                # abandon the connection; the worker loop requeues.
                session.writer.close()
                return
            timeout = self.config.unit_timeout
            if timeout is not None and self.scheduler.outstanding.get(name):
                stalled = self._clock() - session.last_progress
                if stalled > timeout:
                    self._requeue_units(
                        name,
                        list(self.scheduler.outstanding.get(name, [])),
                        "timeout",
                        f"worker {name} made no progress for "
                        f"{stalled:.1f}s (unit_timeout={timeout})",
                    )
                    session.writer.close()
                    return
            await self._top_up(name)
            if self._metrics is not None:
                state_census(self.health.values(), self._metrics)
            if self.scheduler.done or self._failure:
                try:
                    await session.send({"type": "bye"})
                except (ConnectionError, OSError):
                    pass
                session.writer.close()
                return

    async def _frame_loop(self, name: str, health: WorkerHealth, session, reader) -> None:
        sched = self.scheduler
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return
            health.on_frame()
            kind = frame.get("type")
            if kind == "result":
                index = int(frame["index"])
                seconds = frame.get("seconds")
                if isinstance(seconds, (int, float)):
                    sched.observe(float(seconds))
                session.last_progress = self._clock()
                if sched.complete(index):
                    self.results[index] = frame.get("payload")
                    if self._on_result is not None:
                        self._on_result(index, frame.get("payload"))
                if sched.done:
                    if self._done is not None:
                        self._done.set()
                    try:
                        await session.send({"type": "bye"})
                    except (ConnectionError, OSError):
                        pass
                    return
            elif kind == "error":
                index = int(frame["index"])
                session.last_progress = self._clock()
                self._requeue_units(
                    name, [index], "error", str(frame.get("detail", "")),
                )
                if self._failure is not None:
                    return
            elif kind == "idle":
                await self._top_up(name)
            # pong / revoked are heartbeat-only

    # -- the run --------------------------------------------------------
    async def _run(self) -> None:
        self._done = asyncio.Event()
        if self.scheduler.done:
            return
        self._fingerprint = get_job(self.job).fingerprint(self.params)
        loops = [
            asyncio.ensure_future(self._worker_loop(host, port))
            for host, port in self.addresses
        ]
        try:
            while not (self.scheduler.done or self._failure):
                crashed = any(
                    loop.done() and not loop.cancelled()
                    and loop.exception() is not None
                    for loop in loops
                )
                if crashed or all(loop.done() for loop in loops):
                    break  # a loop crashed, or every worker loop gave up
                try:
                    await asyncio.wait_for(self._done.wait(), 0.05)
                except asyncio.TimeoutError:
                    pass
                self._done.clear()
        finally:
            for loop in loops:
                loop.cancel()
            gathered = await asyncio.gather(*loops, return_exceptions=True)
        for outcome in gathered:
            # A worker loop died of something other than fabric traffic
            # (e.g. an exception out of the caller's on_result hook):
            # that is the caller's error, not a worker loss -- re-raise.
            if isinstance(outcome, BaseException) and not isinstance(
                outcome, asyncio.CancelledError
            ):
                raise outcome
        if self._failure is not None:
            raise self._failure
        if not self.scheduler.done:
            if self._rejections and len(self._rejections) == len(self.addresses):
                detail = "; ".join(
                    f"{name}: {reason}"
                    for name, reason in sorted(self._rejections.items())
                )
                raise FabricMismatch(
                    f"every worker rejected the handshake -- {detail}"
                )
            missing = sorted(
                set(self.scheduler.payloads) - self.scheduler.completed
            )
            shown = ", ".join(str(i) for i in missing[:10])
            if len(missing) > 10:
                shown += ", ..."
            raise FabricError(
                f"fabric lost every worker with {len(missing)} unit(s) "
                f"incomplete (units {shown}); check worker logs and "
                "addresses"
            )

    def run(self) -> Dict[int, object]:
        """Drive the job to completion; returns ``{index: result}``.

        Raises :class:`ShardFailure` when one unit exhausts its
        retries, :class:`FabricMismatch` when every worker is rejected
        at the handshake, :class:`FabricError` when every worker is
        terminally lost with work remaining.
        """
        # The results stay off the main task: asyncio.run formats the
        # task's repr (its result included) when it restores SIGINT.
        asyncio.run(self._run())
        return dict(self.results)

    def stats(self) -> Dict[str, object]:
        """Scheduler + health snapshot (benchmarks, the CLI summary)."""
        stats = self.scheduler.stats()
        stats["workers"] = {
            name: health.state.name for name, health in self.health.items()
        }
        stats["retried_units"] = len(self._attempts)
        return stats

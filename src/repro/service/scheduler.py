"""Priority scheduling, admission control, and request coalescing.

The scheduler sits between the HTTP layer and the executor:

1. **Result cache** — a request whose content key is cached returns
   immediately (``cache="hit"``).
2. **Coalescing** — if an identical request (same content key) is
   already queued or executing, the newcomer attaches to its future
   instead of enqueueing a duplicate (``cache="coalesced"``); N
   concurrent identical requests cost exactly one simulation.
3. **Admission control** — the backlog is bounded: at most
   ``concurrency`` jobs executing plus ``max_queue`` waiting.  (The
   bound is on *backlog*, not raw heap depth — a job is counted
   whether a pump has popped it yet or not, so admission is
   deterministic under simultaneous arrivals.)  A full system rejects
   with :class:`AdmissionError` carrying a ``retry_after`` estimate
   (drain time at the observed execution rate), which the server
   surfaces as HTTP 429 + ``Retry-After``.
4. **Priority** — admitted jobs drain lowest-``priority``-value first
   (FIFO within a class via a monotone sequence number).

Draining: :meth:`close` stops admission (503 upstream) while
:meth:`drain` lets already-admitted jobs finish, so a graceful shutdown
never drops accepted work.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..runtime.counters import CounterRegistry
from .cache import ResultCache
from .executor import SimulationExecutor, fusion_eligible
from .fusion import FusionGate, FusionSaturated
from .model import SimRequest

__all__ = ["AdmissionError", "JobScheduler"]

#: Per-sample clamp feeding the execution-time EWMA: one pathological
#: job (a hang that eventually returned, a cold compile) must not drag
#: the average — and with it every Retry-After estimate — to minutes.
_AVG_EXEC_SAMPLE_CAP = 30.0
#: Ceiling on the advertised Retry-After: beyond this the estimate is
#: noise and clients should just re-poll.
_RETRY_AFTER_CAP = 120.0


class AdmissionError(Exception):
    """Queue full — back off for ``retry_after`` seconds."""

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(
            f"queue full ({depth} jobs); retry after {retry_after:.1f}s"
        )
        self.depth = depth
        self.retry_after = retry_after


@dataclass(order=True)
class _Job:
    priority: int
    seq: int
    request: SimRequest = field(compare=False)
    future: "asyncio.Future[Dict[str, Any]]" = field(compare=False)
    enqueued_at: float = field(compare=False, default=0.0)


class JobScheduler:
    """Bounded, coalescing priority queue feeding the executor."""

    def __init__(
        self,
        executor: SimulationExecutor,
        cache: Optional[ResultCache] = None,
        metrics: Optional[CounterRegistry] = None,
        max_queue: int = 256,
        concurrency: int = 4,
        fusion: Optional[FusionGate] = None,
    ) -> None:
        self.executor = executor
        self.cache = cache if cache is not None else ResultCache()
        self.metrics = metrics if metrics is not None else CounterRegistry()
        self.max_queue = max_queue
        self.concurrency = concurrency
        self.fusion = fusion
        if fusion is not None:
            # Gate batches settle outside the pump loop; this keeps the
            # coalescing map from pinning resolved futures forever.
            fusion.done_hooks.append(
                lambda key: self._inflight.pop(key, None)
            )
        self._heap: list = []
        self._seq = 0
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._running = 0
        self._accepting = True
        self._wakeup: Optional[asyncio.Event] = None
        self._pumps: list = []
        self._started = False
        # EWMA of execution seconds, seeds the retry-after estimate.
        self._avg_exec = 0.05
        self.metrics.register_gauge("queue_depth", lambda: len(self._heap))
        self.metrics.register_gauge("jobs_running", lambda: self._running)
        self.metrics.register_gauge(
            "coalesced_inflight_keys", lambda: len(self._inflight)
        )

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Spawn the pump tasks (call from inside the event loop)."""
        if self._started:
            return
        self._wakeup = asyncio.Event()
        self._pumps = [
            asyncio.create_task(self._pump(), name=f"repro-pump-{i}")
            for i in range(self.concurrency)
        ]
        if self.fusion is not None:
            self.fusion.start()
        self._started = True

    def close(self) -> None:
        """Stop admitting new jobs; queued jobs keep draining."""
        self._accepting = False
        if self.fusion is not None:
            # Stop holding fusion windows: pending batches flush now so
            # the drain below only waits on real work.
            self.fusion.close()

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Wait for the queue and every running job to finish."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while (
            self._heap
            or self._running
            or self._inflight
            or (self.fusion is not None and self.fusion.depth())
        ):
            if deadline is not None and time.monotonic() > deadline:
                break
            await asyncio.sleep(0.01)
        if self.fusion is not None:
            await self.fusion.stop()
        for task in self._pumps:
            task.cancel()
        for task in self._pumps:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._pumps = []
        self._started = False

    # -- stats ------------------------------------------------------------
    def queue_stats(self) -> Dict[str, Any]:
        return {
            "depth": len(self._heap),
            "max_queue": self.max_queue,
            "running": self._running,
            "inflight_keys": len(self._inflight),
            "accepting": self._accepting,
            "concurrency": self.concurrency,
            "avg_exec_seconds": self._avg_exec,
            "fusion_pending": (
                self.fusion.depth() if self.fusion is not None else 0
            ),
        }

    def _retry_after(self) -> float:
        """Rough drain time of the current backlog, in [1, cap] seconds."""
        backlog = len(self._heap) + self._running
        return min(
            _RETRY_AFTER_CAP,
            max(1.0, backlog * self._avg_exec / max(1, self.concurrency)),
        )

    # -- submission -------------------------------------------------------
    async def submit(self, request: SimRequest) -> Tuple[Dict[str, Any], str]:
        """Resolve one admitted request.

        Returns ``(payload, source)`` with ``source`` in
        ``{"hit", "coalesced", "fused", "miss"}``.  Raises
        :class:`AdmissionError` on a full queue and ``RuntimeError``
        when the scheduler is closed.
        """
        if not self._accepting:
            raise RuntimeError("scheduler is draining; not accepting jobs")
        if not self._started:
            self.start()
        key = request.content_key()

        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.inc("result_cache_hits_total")
            return cached, "hit"

        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.inc("requests_coalesced_total")
            # A shielded wait: one coalesced caller disconnecting must
            # not cancel the shared simulation.  If the duplicate is
            # still *held* in the fusion gate, register as a waiter so
            # the entry survives the original caller hanging up.
            retained = (
                self.fusion is not None and self.fusion.retain(key)
            )
            try:
                payload = await asyncio.shield(existing)
            except asyncio.CancelledError:
                if retained and self.fusion is not None:
                    if self.fusion.release(key):
                        self._inflight.pop(key, None)
                raise
            return payload, "coalesced"

        if (
            self.fusion is not None
            and self.fusion.enabled
            and fusion_eligible(request)
        ):
            try:
                future = self.fusion.enqueue(request)
            except FusionSaturated as exc:
                self.metrics.inc("requests_rejected_total")
                raise AdmissionError(
                    exc.depth, self._retry_after()
                ) from None
            self._inflight[key] = future
            try:
                payload = await asyncio.shield(future)
            except asyncio.CancelledError:
                # Last waiter gone before the flush: withdraw the entry
                # so the batch never carries orphaned rows.  Post-flush
                # this is a no-op — running batches always complete and
                # cache their results.
                if self.fusion.release(key):
                    self._inflight.pop(key, None)
                raise
            return payload, "fused"

        backlog = len(self._heap) + self._running
        if backlog >= self.max_queue + self.concurrency:
            self.metrics.inc("requests_rejected_total")
            raise AdmissionError(backlog, self._retry_after())

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        self._inflight[key] = future
        self._seq += 1
        job = _Job(
            priority=request.priority,
            seq=self._seq,
            request=request,
            future=future,
            enqueued_at=time.monotonic(),
        )
        heapq.heappush(self._heap, job)
        assert self._wakeup is not None
        self._wakeup.set()
        payload = await asyncio.shield(future)
        return payload, "miss"

    # -- pump -------------------------------------------------------------
    async def _pump(self) -> None:
        assert self._wakeup is not None
        while True:
            while not self._heap:
                self._wakeup.clear()
                await self._wakeup.wait()
            job = heapq.heappop(self._heap)
            self._running += 1
            started = time.monotonic()
            self.metrics.observe("queue_wait", started - job.enqueued_at)
            try:
                payload = await self.executor.run(job.request)
            except Exception as exc:  # noqa: BLE001 — surfaced via future
                if not job.future.done():
                    job.future.set_exception(exc)
                self.metrics.inc(
                    "jobs_failed_total",
                    labels={"error": type(exc).__name__},
                )
            else:
                elapsed = time.monotonic() - started
                self._avg_exec = 0.8 * self._avg_exec + 0.2 * min(
                    elapsed, _AVG_EXEC_SAMPLE_CAP
                )
                self.metrics.observe("execute", elapsed)
                self.metrics.inc("jobs_executed_total")
                self.cache.put(job.request.content_key(), payload)
                if not job.future.done():
                    job.future.set_result(payload)
            finally:
                self._running -= 1
                self._inflight.pop(job.request.content_key(), None)

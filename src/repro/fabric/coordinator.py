"""The fabric coordinator: fault-tolerant distributed sweep execution.

The coordinator turns a sweep's pending cells into leased
:class:`~repro.fabric.units.WorkUnit`\\ s and drives a fleet of
``repro-serve``/``repro-fabric-worker`` processes over the service's
HTTP/JSON protocol.  Robustness mechanisms, in the order they engage:

* **Health probes** — every worker answers ``GET /healthz`` before it
  receives work; an unreachable fleet raises :class:`NoWorkersError`
  and the sweep layer degrades to local execution.
* **Lease-based assignment** — each dispatch acquires a lease with a
  deadline; a watchdog releases expired leases so a hung or partitioned
  worker silently loses the unit instead of wedging the sweep.
* **Bounded retry with backoff + jitter** — worker loss and transient
  HTTP failures requeue the unit under the
  :class:`~repro.runtime.supervisor.RetryPolicy` ladder, with
  deterministic per-unit jitter so a herd of retries cannot
  resynchronise against a recovering worker.
* **Work stealing** — once the queue drains, idle workers re-dispatch
  the stragglers' in-flight units; the first result wins and the loser
  is discarded (results are bit-identical wherever a unit runs, so the
  race is pure bookkeeping).
* **Quorum-free resume** — completed cells land in the checkpoint
  journal the moment their unit's result arrives; a restarted
  coordinator replays the journal and re-dispatches only incomplete
  units.  Lease/ack events are journalled for observability but resume
  never depends on them.
* **Graceful degradation** — if the whole fleet dies mid-run, the
  unfinished cells are handed back to the caller for local execution
  (the sweep still completes, just vertically).

Determinism: workers execute units with the very same per-cell seeded
functions the local path uses, so a distributed sweep — under any
combination of kills, reassignments, steals and resumes — is
bit-identical to a single-host run.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..experiments.serialize import cell_from_json, cell_to_json, point_from_dict
from ..runtime.checkpoint import CheckpointJournal
from ..runtime.faults import FabricFaultPlan, FaultPlan
from ..runtime.supervisor import RetryPolicy
from .lease import COMPLETED, FAILED, LEASED, PENDING, UnitLease
from .transport import TransportError, WorkerTransport
from .units import WorkUnit, partition_units
from .wire import build_work_request

__all__ = ["FabricCoordinator", "FabricReport", "NoWorkersError", "UnitFailure"]

CellKey = Tuple[float, Optional[int]]

#: Transport failures in a row before a worker is retired for the run.
_RETIRE_AFTER = 3


class NoWorkersError(RuntimeError):
    """No worker in the fleet answered its health probe."""

    def __init__(self, probed: int) -> None:
        super().__init__(f"0/{probed} fabric workers reachable")
        self.probed = probed


@dataclass(frozen=True)
class UnitFailure:
    """One work unit that exhausted its retry budget."""

    unit_id: str
    cells: Tuple[CellKey, ...]
    error_type: str
    message: str
    attempts: int
    retryable: bool = True


@dataclass
class FabricReport:
    """Counters describing one coordinator run (tests and smoke gates)."""

    workers_probed: int = 0
    workers_healthy: int = 0
    workers_retired: List[str] = field(default_factory=list)
    units_total: int = 0
    units_completed: int = 0
    units_failed: int = 0
    dispatches: int = 0
    reassignments: int = 0
    steals: int = 0
    stale_results: int = 0
    lease_expiries: int = 0
    restored_cells: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class _Worker:
    """Coordinator-side view of one fleet member."""

    transport: WorkerTransport
    healthy: bool = True
    retired: bool = False
    consecutive_failures: int = 0
    units_completed: int = 0

    @property
    def address(self) -> str:
        return self.transport.address


class FabricCoordinator:
    """Dispatch one sweep's pending cells across a worker fleet."""

    def __init__(
        self,
        config: Any,
        instances: Sequence[Any],
        workers: Sequence[str],
        fingerprint: str,
        *,
        retry: Optional[RetryPolicy] = None,
        journal: Optional[CheckpointJournal] = None,
        fault_plan: Optional[FabricFaultPlan] = None,
        cell_fault_plan: Optional[FaultPlan] = None,
        lease_timeout: float = 60.0,
        probe_timeout: float = 3.0,
        on_result: Optional[Callable[[CellKey, Any, int], None]] = None,
        progress: Optional[Callable[[str], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not workers:
            raise NoWorkersError(0)
        self.config = config
        self.instances = instances
        self.fingerprint = fingerprint
        # Fabric retries default to jittered backoff (thundering-herd
        # protection); an explicit policy is honoured verbatim.
        self.retry = retry or RetryPolicy(jitter=0.25)
        self.journal = journal
        self.cell_fault_plan = cell_fault_plan or FaultPlan()
        self.lease_timeout = float(lease_timeout)
        self.probe_timeout = float(probe_timeout)
        self.on_result = on_result
        self.progress = progress
        self.clock = clock
        self._workers = [
            _Worker(
                WorkerTransport(
                    addr,
                    fault_plan=fault_plan,
                    timeout=self.lease_timeout + 5.0,
                )
            )
            for addr in workers
        ]
        self._units: Dict[str, WorkUnit] = {}
        self._leases: Dict[str, UnitLease] = {}
        self._failures: List[UnitFailure] = []
        self.report = FabricReport(workers_probed=len(self._workers))

    # -- public ------------------------------------------------------------
    def run(
        self,
        pending: Sequence[CellKey],
        fusion_key_of: Callable[[CellKey], Any],
    ) -> Tuple[List[UnitFailure], List[CellKey]]:
        """Execute the pending cells; blocks until done or fleet loss.

        Each decoded :class:`~repro.experiments.runner.PointResult` is
        delivered through ``on_result`` as its unit completes.  Returns
        ``(failures, leftover)``: units that exhausted their retries,
        and cells left unfinished because every worker died (the caller
        runs those locally).
        Raises :class:`NoWorkersError` when the initial probe finds no
        live worker at all.
        """
        return asyncio.run(self._run_async(pending, fusion_key_of))

    # -- lifecycle ---------------------------------------------------------
    async def _run_async(
        self,
        pending: Sequence[CellKey],
        fusion_key_of: Callable[[CellKey], Any],
    ) -> Tuple[List[UnitFailure], List[CellKey]]:
        await self._probe_fleet()
        units = partition_units(pending, fusion_key_of, self.fingerprint)
        self._units = {u.unit_id: u for u in units}
        self._leases = {u.unit_id: UnitLease(u.unit_id) for u in units}
        self.report.units_total = len(units)
        self._note(
            f"[fabric] {len(units)} unit(s) across "
            f"{self.report.workers_healthy} worker(s)"
        )
        watchdog = asyncio.create_task(self._watchdog())
        try:
            await asyncio.gather(
                *(
                    self._worker_loop(w)
                    for w in self._workers
                    if w.healthy
                )
            )
        finally:
            watchdog.cancel()
            try:
                await watchdog
            except asyncio.CancelledError:
                pass
        leftover = [
            key
            for unit_id, lease in self._leases.items()
            if not lease.done
            for key in self._units[unit_id].cells
        ]
        return self._failures, leftover

    async def _probe_fleet(self) -> None:
        outcomes = await asyncio.gather(
            *(w.transport.probe(self.probe_timeout) for w in self._workers),
            return_exceptions=True,
        )
        for worker, outcome in zip(self._workers, outcomes):
            if isinstance(outcome, BaseException):
                worker.healthy = False
                worker.retired = True
                self._note(f"[fabric] worker {worker.address} down: {outcome}")
        self.report.workers_healthy = sum(
            1 for w in self._workers if w.healthy
        )
        if self.report.workers_healthy == 0:
            raise NoWorkersError(len(self._workers))

    # -- scheduling --------------------------------------------------------
    def _all_done(self) -> bool:
        return all(lease.done for lease in self._leases.values())

    def _claim(self, worker: _Worker) -> Optional[Tuple[WorkUnit, bool]]:
        """Pick the next unit for an idle worker (pending first, then steal)."""
        now = self.clock()
        for unit_id, lease in self._leases.items():
            if lease.state == PENDING and lease.not_before <= now:
                lease.acquire(worker.address, now, self.lease_timeout)
                return self._units[unit_id], False
        # Queue drained: steal the longest-in-flight straggler.
        best: Optional[str] = None
        best_deadline = float("inf")
        for unit_id, lease in self._leases.items():
            if (
                lease.state == LEASED
                and worker.address not in lease.holders
                and len(lease.holders) == 1
                and lease.deadline < best_deadline
            ):
                best, best_deadline = unit_id, lease.deadline
        if best is None:
            return None
        self._leases[best].acquire(
            worker.address, now, self.lease_timeout, steal=True
        )
        self.report.steals += 1
        return self._units[best], True

    async def _worker_loop(self, worker: _Worker) -> None:
        while not self._all_done() and not worker.retired:
            if not worker.healthy:
                try:
                    await worker.transport.probe(self.probe_timeout)
                except TransportError:
                    worker.consecutive_failures += 1
                    if worker.consecutive_failures >= _RETIRE_AFTER:
                        self._retire(worker, "failed health re-probe")
                        return
                    await asyncio.sleep(0.05)
                    continue
                worker.healthy = True
            claimed = self._claim(worker)
            if claimed is None:
                await asyncio.sleep(0.02)
                continue
            unit, stolen = claimed
            await self._dispatch(worker, unit, stolen)

    def _retire(self, worker: _Worker, why: str) -> None:
        worker.retired = True
        worker.healthy = False
        self.report.workers_retired.append(worker.address)
        self._note(f"[fabric] retiring worker {worker.address}: {why}")

    # -- dispatch ----------------------------------------------------------
    async def _dispatch(
        self, worker: _Worker, unit: WorkUnit, stolen: bool
    ) -> None:
        lease = self._leases[unit.unit_id]
        attempt = lease.attempt
        self.report.dispatches += 1
        self._event(
            "lease",
            unit=unit.unit_id,
            worker=worker.address,
            attempt=attempt,
            steal=stolen,
            cells=[cell_to_json(k) for k in unit.cells],
        )
        body = build_work_request(
            self.fingerprint,
            unit.unit_id,
            attempt,
            self.config,
            self.instances,
            unit.cells,
            [self.cell_fault_plan.for_cell(k) for k in unit.cells],
        )
        try:
            status, doc = await worker.transport.work(body)
        except TransportError as exc:
            self._on_worker_loss(worker, unit, stolen, exc)
            return
        worker.consecutive_failures = 0
        if status == 200:
            self._on_unit_result(worker, unit, doc)
            return
        detail = doc.get("error", f"HTTP {status}")
        if status in (400, 409, 422):
            # Deterministic protocol rejection: retrying cannot help.
            self._drop_holder(worker, unit, stolen)
            if lease.state == PENDING:
                lease.fail()
                self.report.units_failed += 1
                self._failures.append(
                    UnitFailure(
                        unit.unit_id, unit.cells, "WorkRejected",
                        str(detail), lease.attempt, retryable=False,
                    )
                )
                self._event(
                    "unit-failed", unit=unit.unit_id, error=str(detail)
                )
            return
        # 5xx / 503: transient server-side failure — retry ladder.
        self._on_worker_loss(
            worker, unit, stolen,
            TransportError(f"{worker.address} answered {status}: {detail}"),
        )

    def _drop_holder(
        self, worker: _Worker, unit: WorkUnit, stolen: bool
    ) -> None:
        """Release this worker's hold if it still exists (expiry races)."""
        lease = self._leases[unit.unit_id]
        if lease.state == LEASED and worker.address in lease.holders:
            lease.release(worker.address)
            if not stolen:
                self.report.reassignments += 1

    def _on_worker_loss(
        self,
        worker: _Worker,
        unit: WorkUnit,
        stolen: bool,
        exc: TransportError,
    ) -> None:
        lease = self._leases[unit.unit_id]
        worker.healthy = False
        worker.consecutive_failures += 1
        self._event(
            "release", unit=unit.unit_id, worker=worker.address,
            error=str(exc),
        )
        self._drop_holder(worker, unit, stolen)
        if lease.state == PENDING:
            if lease.attempt >= self.retry.max_attempts:
                lease.fail()
                self.report.units_failed += 1
                self._failures.append(
                    UnitFailure(
                        unit.unit_id, unit.cells, "TransportError",
                        str(exc), lease.attempt,
                    )
                )
                self._event("unit-failed", unit=unit.unit_id, error=str(exc))
            else:
                lease.not_before = self.clock() + self.retry.backoff(
                    lease.attempt, token=unit.unit_id
                )
        if worker.consecutive_failures >= _RETIRE_AFTER:
            self._retire(worker, str(exc))
        else:
            self._note(
                f"[fabric] {unit.unit_id} lost on {worker.address} "
                f"(attempt {lease.attempt}): {exc}"
            )

    def _on_unit_result(
        self, worker: _Worker, unit: WorkUnit, doc: Dict[str, Any]
    ) -> None:
        lease = self._leases[unit.unit_id]
        if doc.get("unit_id") != unit.unit_id or "points" not in doc:
            self._on_worker_loss(
                worker, unit, worker.address not in lease.holders,
                TransportError(
                    f"{worker.address} answered a malformed unit result"
                ),
            )
            return
        if lease.state == COMPLETED or lease.state == FAILED:
            self.report.stale_results += 1
            return
        if lease.state == LEASED and worker.address in lease.holders:
            won = lease.complete(worker.address)
        else:
            # A lease that expired (or was reassigned) returning late:
            # the result is bit-identical to what a re-dispatch would
            # produce, so adopt it rather than waste the work.
            won = lease.adopt(worker.address)
        if not won:
            self.report.stale_results += 1
            return
        worker.units_completed += 1
        self.report.units_completed += 1
        if self.on_result is not None:
            for cell, point in doc["points"]:
                self.on_result(
                    cell_from_json(cell), point_from_dict(point), lease.attempt
                )
        self._event(
            "ack",
            unit=unit.unit_id,
            worker=worker.address,
            attempt=lease.attempt,
            cells=[cell_to_json(k) for k in unit.cells],
        )

    # -- watchdog ----------------------------------------------------------
    async def _watchdog(self) -> None:
        """Expire overdue leases so hung workers lose their units."""
        while True:
            await asyncio.sleep(min(0.25, self.lease_timeout / 4))
            now = self.clock()
            for unit_id, lease in self._leases.items():
                if lease.expired(now):
                    self.report.lease_expiries += 1
                    self._event("expire", unit=unit_id,
                                holders=sorted(lease.holders))
                    self._note(
                        f"[fabric] lease on {unit_id} expired; requeueing"
                    )
                    for holder in list(lease.holders):
                        lease.release(holder)
                    self.report.reassignments += 1

    # -- plumbing ----------------------------------------------------------
    def _note(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _event(self, kind: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.record_event(kind, **fields)

"""Fabric unit execution inside the arithmetic service (``/v1/work``).

Any ``repro-serve`` process can be a fabric worker: this handler turns a
:func:`~repro.fabric.wire.parse_work_request` payload into results by
running the unit through :func:`~repro.experiments.runner.execute_unit`
— the very worker the local sweep supervisor runs, so a unit computes
bit-identical points no matter which venue executes it.

Error contract (what the coordinator's recovery ladder keys on):

* ``200`` — the unit ran; every member's point is returned, including
  a non-finite one (an injected ``nan`` fault).  Numerical health is
  judged by the sweep that receives the points, exactly as for a local
  unit, so such a cell fails alone and is never retried.
* ``400`` — malformed or fingerprint-skewed payload.  Deterministic:
  the coordinator fails the unit instead of retrying.
* ``500`` — execution raised (e.g. an injected ``raise`` fault).
  Transient from the fabric's point of view: the coordinator requeues
  under its retry policy.
* ``503`` — the worker is draining; the unit is requeued elsewhere.

Units execute on a thread off the event loop (bounded by
``max_inflight``), so ``/healthz`` keeps answering while a unit runs —
the coordinator can tell "busy" from "dead".

``kill_after_units`` arms the real-process crash used by the chaos
harness: the Nth received unit ``os._exit``\\ s the worker before any
response is written, indistinguishable from an OOM kill mid-unit.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..cut.parallel import FRAGMENT_KINDS
from ..experiments.runner import execute_unit
from ..experiments.serialize import cell_to_json, point_to_dict
from ..fabric.wire import WireError, parse_work_request
from ..runtime.faults import CRASH_EXIT_CODE

__all__ = ["WorkHandler"]


class WorkHandler:
    """Execute fabric work units inside a running service."""

    def __init__(
        self,
        max_inflight: int = 1,
        kill_after_units: Optional[int] = None,
    ) -> None:
        self.max_inflight = max(1, int(max_inflight))
        self.kill_after_units = kill_after_units
        self.units_received = 0
        self.units_completed = 0
        self.units_rejected = 0
        self.units_failed = 0
        self.cells_completed = 0
        self._sem: Optional[asyncio.Semaphore] = None

    def stats(self) -> Dict[str, Any]:
        return {
            "units_received": self.units_received,
            "units_completed": self.units_completed,
            "units_rejected": self.units_rejected,
            "units_failed": self.units_failed,
            "cells_completed": self.cells_completed,
            "max_inflight": self.max_inflight,
        }

    async def handle(
        self, body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Serve one ``POST /v1/work`` body; returns (status, headers, payload)."""
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self.units_rejected += 1
            return 400, {}, _json({"error": f"malformed JSON body: {exc}"})
        if (
            isinstance(payload, dict)
            and payload.get("kind") in FRAGMENT_KINDS
        ):
            return await self._handle_fragment(payload)
        try:
            request = parse_work_request(payload)
        except WireError as exc:
            self.units_rejected += 1
            return 400, {}, _json({"error": str(exc)})
        self.units_received += 1
        if (
            self.kill_after_units is not None
            and self.units_received >= self.kill_after_units
        ):
            # The chaos harness's real worker kill: die before replying,
            # exactly as an OOM-killed worker would.
            print(
                f"repro-fabric-worker: injected kill on unit "
                f"{self.units_received}",
                flush=True,
            )
            os._exit(CRASH_EXIT_CODE)
        status, points = await self._run_bounded(
            self._execute, request, {"unit_id": request["unit_id"]}
        )
        if status != 200:
            return status, {}, _json(points)
        self.units_completed += 1
        self.cells_completed += len(points)
        return 200, {}, _json(
            {
                "unit_id": request["unit_id"],
                "attempt": request["attempt"],
                "points": points,
            }
        )

    async def _handle_fragment(
        self, payload: Dict[str, Any]
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Serve one circuit-cutting fragment job (``kind`` dispatch).

        Fragment jobs share the sweep units' endpoint and error
        contract: malformed payloads are a deterministic 400, execution
        failures a retryable 500 (the cut runner falls back to local
        evaluation on either).
        """
        from ..cut.parallel import execute_wire_job

        self.units_received += 1
        status, result = await self._run_bounded(
            execute_wire_job, payload, {},
            bad_input=(KeyError, TypeError, ValueError),
        )
        if status != 200:
            return status, {}, _json(result)
        self.units_completed += 1
        return 200, {}, _json(
            {"kind": payload["kind"], "result": result}
        )

    async def _run_bounded(
        self,
        fn: Callable[[Any], Any],
        arg: Any,
        error_fields: Dict[str, Any],
        bad_input: Tuple[type, ...] = (),
    ) -> Tuple[int, Any]:
        """Run ``fn(arg)`` on a thread, at most ``max_inflight`` at once.

        Returns ``(200, result)``, ``(400, error doc)`` for an exception
        in ``bad_input`` (a deterministic rejection), or ``(500, error
        doc)`` for any other exception (retryable by the caller).
        """
        if self._sem is None:
            self._sem = asyncio.Semaphore(self.max_inflight)
        async with self._sem:
            try:
                return 200, await asyncio.get_running_loop().run_in_executor(
                    None, fn, arg
                )
            except bad_input as exc:
                self.units_rejected += 1
                return 400, {"error": f"bad fragment payload: {exc}"}
            except Exception as exc:  # noqa: BLE001 — surfaced as retryable 500
                self.units_failed += 1
                return 500, {
                    "error": f"{type(exc).__name__}: {exc}", **error_fields
                }

    def _execute(self, request: Dict[str, Any]) -> List[List[Any]]:
        """Run the unit's cells (worker thread; blocking)."""
        cells = request["cells"]
        ran = execute_unit(
            (
                request["config"],
                request["instances"],
                cells,
                request["faults"],
                None,
            ),
            request["attempt"],
        )
        return [[cell_to_json(key), point_to_dict(ran[key])] for key in cells]


def _json(obj: Any) -> bytes:
    return json.dumps(obj).encode()

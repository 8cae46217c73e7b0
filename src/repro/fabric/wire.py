"""Wire format of the fabric's coordinator <-> worker protocol.

One ``POST /v1/work`` request carries everything a stateless worker
needs to execute a unit bit-identically to the local path: the full
:class:`~repro.experiments.config.SweepConfig`, the operand instance
set, the member cell keys, the unit's attempt number, and (for chaos
runs) the per-cell fault specs.  The config, instances and cell keys
travel in the shapes of :mod:`repro.experiments.serialize` — the same
codecs the results file and the checkpoint journal use — so this module
owns only the work-request envelope, the fault specs and the
fingerprint check.  Workers never see the journal and hold
no sweep state between units — any worker can run any unit at any time,
which is what makes reassignment and work stealing safe.

The payload also carries the sweep *fingerprint*; a worker recomputes
it from the decoded config + instances and refuses units whose
fingerprint does not match — a coordinator/worker version or config
skew turns into a loud 400, never a silently wrong result merged into a
checkpoint journal.

Shipping the instance list on every unit is deliberate redundancy (a
few tens of kilobytes at paper scale): it keeps workers stateless and
the protocol single-round-trip.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..experiments.config import SweepConfig
from ..experiments.serialize import (
    cell_from_json,
    cell_to_json,
    config_from_dict,
    config_to_dict,
    instances_from_json,
    instances_to_json,
)
from ..runtime.faults import FaultSpec

__all__ = [
    "WORK_PATH",
    "WireError",
    "build_work_request",
    "parse_work_request",
]

CellKey = Tuple[float, Optional[int]]

#: The batch-execution endpoint served by fabric workers.
WORK_PATH = "/v1/work"


class WireError(ValueError):
    """A malformed or incompatible fabric payload."""


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------
def _fault_to_wire(spec: Optional[FaultSpec]) -> Optional[Dict[str, Any]]:
    if spec is None:
        return None
    return {
        "kind": spec.kind,
        "attempts": spec.attempts,
        "hang_seconds": spec.hang_seconds,
    }


def _fault_from_wire(d: Optional[Dict[str, Any]]) -> Optional[FaultSpec]:
    if d is None:
        return None
    try:
        return FaultSpec(
            kind=d["kind"],
            attempts=int(d.get("attempts", 1)),
            hang_seconds=float(d.get("hang_seconds", 3600.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad fault spec payload: {exc}") from exc


# ----------------------------------------------------------------------
# Work requests
# ----------------------------------------------------------------------
def build_work_request(
    fingerprint: str,
    unit_id: str,
    attempt: int,
    config: SweepConfig,
    instances: Sequence,
    cells: Sequence[CellKey],
    fault_specs: Optional[Sequence[Optional[FaultSpec]]] = None,
) -> Dict[str, Any]:
    """The ``POST /v1/work`` body for one unit dispatch."""
    return {
        "fingerprint": fingerprint,
        "unit_id": unit_id,
        "attempt": int(attempt),
        "config": config_to_dict(config),
        "instances": instances_to_json(instances),
        "cells": [cell_to_json(k) for k in cells],
        "faults": [
            _fault_to_wire(s)
            for s in (fault_specs or [None] * len(cells))
        ],
    }


def parse_work_request(payload: Any) -> Dict[str, Any]:
    """Decode and sanity-check a work request (worker side).

    Returns a dict with typed fields: ``fingerprint``, ``unit_id``,
    ``attempt``, ``config`` (:class:`SweepConfig`), ``instances``,
    ``cells`` and ``faults``.  Raises :class:`WireError` on anything
    malformed, including a fingerprint that does not match the decoded
    config + instances (config skew between coordinator and worker).
    """
    if not isinstance(payload, dict):
        raise WireError(
            f"work request must be a JSON object, got {type(payload).__name__}"
        )
    missing = [
        f
        for f in ("fingerprint", "unit_id", "attempt", "config",
                  "instances", "cells")
        if f not in payload
    ]
    if missing:
        raise WireError(f"work request missing fields: {missing}")
    try:
        config = config_from_dict(payload["config"])
        instances = instances_from_json(config, payload["instances"])
        cells = [cell_from_json(c) for c in payload["cells"]]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise WireError(f"bad sweep unit payload: {exc}") from exc
    if not cells:
        raise WireError("work request carries no cells")
    faults_raw = payload.get("faults") or [None] * len(cells)
    if len(faults_raw) != len(cells):
        raise WireError(
            f"faults list length {len(faults_raw)} != cells {len(cells)}"
        )
    from ..experiments.sweep import sweep_fingerprint

    expected = sweep_fingerprint(config, instances)
    if payload["fingerprint"] != expected:
        raise WireError(
            f"fingerprint mismatch: coordinator sent "
            f"{payload['fingerprint']!r}, worker derives {expected!r} "
            f"(config/version skew)"
        )
    return {
        "fingerprint": str(payload["fingerprint"]),
        "unit_id": str(payload["unit_id"]),
        "attempt": int(payload["attempt"]),
        "config": config,
        "instances": instances,
        "cells": cells,
        "faults": [_fault_from_wire(f) for f in faults_raw],
    }

"""Distributed sweep fabric: fault-tolerant coordinator/worker execution.

The fabric runs a panel sweep across a fleet of worker processes over
the arithmetic service's HTTP/JSON protocol, with the checkpoint
journal as durable truth.  See :mod:`repro.fabric.coordinator` for the
recovery model and ``docs/distributed.md`` for topology, the lease
lifecycle, and the failure matrix.

Layering: ``lease`` (unit state machine) and ``units`` (partitioning)
are pure logic; ``wire`` defines the work-request envelope around the
sweep's own JSON shapes (config, instances and cell keys use the
:mod:`repro.experiments.serialize` codecs); ``transport``
is the asyncio HTTP client with deterministic fault injection;
``registry`` handles fleet discovery; ``coordinator`` composes them;
``worker`` is the ``repro-fabric-worker`` console entry point.
"""

from .coordinator import (
    FabricCoordinator,
    FabricReport,
    NoWorkersError,
    UnitFailure,
)
from .lease import COMPLETED, FAILED, LEASED, PENDING, LeaseError, UnitLease
from .registry import WorkerRegistry, parse_workers
from .transport import TransportError, WorkerTransport, parse_address
from .units import DEFAULT_UNIT_MAX_CELLS, WorkUnit, partition_units
from .wire import (
    WORK_PATH,
    WireError,
    build_work_request,
    parse_work_request,
)

__all__ = [
    "FabricCoordinator",
    "FabricReport",
    "NoWorkersError",
    "UnitFailure",
    "UnitLease",
    "LeaseError",
    "PENDING",
    "LEASED",
    "COMPLETED",
    "FAILED",
    "WorkerRegistry",
    "parse_workers",
    "TransportError",
    "WorkerTransport",
    "parse_address",
    "WorkUnit",
    "partition_units",
    "DEFAULT_UNIT_MAX_CELLS",
    "WORK_PATH",
    "WireError",
    "build_work_request",
    "parse_work_request",
]

"""Work-unit partitioning for the distributed sweep fabric.

A *work unit* is the fabric's dispatch granule: a contiguous group of
fusion-compatible sweep cells that one worker executes in a single
``/v1/work`` call.  Units reuse the batched scheduler's grouping rule
(cells sharing a :attr:`CompiledProgram.fusion_key` stay co-located, so
the worker's fused trajectory batches and kernel caches amortise across
the whole unit), chunked to a bounded cell count so the lease timeout
and retry granularity stay sane: no unit can grow unboundedly heavy.

Unit identifiers are *deterministic*: derived from the sweep
fingerprint and the member cell keys, so a restarted coordinator
re-derives the same ids for the same remaining work and journalled
lease/ack events stay attributable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..runtime.checkpoint import config_fingerprint

__all__ = ["WorkUnit", "partition_units", "DEFAULT_UNIT_MAX_CELLS"]

CellKey = Tuple[float, Optional[int]]

#: Cells per unit ceiling, shared by fabric units and local
#: ``batching="group"`` units — bounding per-unit runtime (retry,
#: timeout and lease granularity) while still amortising kernels.
DEFAULT_UNIT_MAX_CELLS = 8


@dataclass(frozen=True)
class WorkUnit:
    """One dispatchable group of sweep cells."""

    unit_id: str
    cells: Tuple[CellKey, ...]

    @property
    def weight(self) -> int:
        return len(self.cells)

    def __str__(self) -> str:
        return f"{self.unit_id}[{len(self.cells)} cells]"


def unit_id_for(fingerprint: str, cells: Sequence[CellKey]) -> str:
    """Deterministic id of the unit holding ``cells`` of one sweep."""
    digest = config_fingerprint(
        {
            "fp": fingerprint,
            "cells": [[rate, "full" if d is None else d] for rate, d in cells],
        }
    )
    return f"u-{digest[:12]}"


def partition_units(
    keys: Sequence[CellKey],
    fusion_key_of: Callable[[CellKey], Any],
    fingerprint: str,
    max_cells: int = DEFAULT_UNIT_MAX_CELLS,
) -> List[WorkUnit]:
    """Partition pending cells into fusion-co-located units.

    Cells are first bucketed by their fusion key (grid order preserved
    inside a bucket), then chunked in order into at most ``max_cells``
    cells each.  The local ``batching="group"`` sweep partitions with
    this same function, so a sweep dispatched over the fabric runs the
    very same cell groups a single host would.
    """
    by_fusion: dict = {}
    for key in keys:
        by_fusion.setdefault(fusion_key_of(key), []).append(key)
    units: List[WorkUnit] = []
    for bucket in by_fusion.values():
        for start in range(0, len(bucket), max_cells):
            cells = tuple(bucket[start:start + max_cells])
            units.append(WorkUnit(unit_id_for(fingerprint, cells), cells))
    return units

"""The sweep's JSON shapes, shared by every boundary sweep data crosses.

The sweep-result JSON (:mod:`repro.experiments.results`), the runtime
checkpoint journal (:mod:`repro.runtime.checkpoint`) and the fabric's
``POST /v1/work`` payload (:mod:`repro.fabric.wire`) all encode the
:class:`~repro.experiments.config.SweepConfig`, operand instances,
``(rate, depth)`` cell keys, :class:`~repro.experiments.runner.PointResult`
cells and :class:`~repro.experiments.sweep.FailedCell` records with the
codecs below, so a config means the same thing on every side and a
checkpointed cell is bit-for-bit the cell a full save would have
written.  The config codec walks ``dataclasses.fields(SweepConfig)``:
a new field crosses every boundary without a codec edit, and a key an
older file lacks takes the field's default.

The ``"full"`` string is the JSON sentinel for ``depth=None`` (the
un-truncated QFT) throughout.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.qint import QInteger
from ..metrics.success import InstanceOutcome, SuccessSummary
from .config import SweepConfig
from .instances import ArithmeticInstance
from .runner import PointResult

__all__ = [
    "depth_to_json",
    "depth_from_json",
    "config_to_dict",
    "config_from_dict",
    "instances_to_json",
    "instances_from_json",
    "cell_to_json",
    "cell_from_json",
    "point_to_dict",
    "point_from_dict",
    "failed_cell_to_dict",
    "failed_cell_from_dict",
]


def depth_to_json(depth: Optional[int]):
    """``None`` (full QFT) -> the ``"full"`` sentinel."""
    return "full" if depth is None else int(depth)


def depth_from_json(v) -> Optional[int]:
    """Inverse of :func:`depth_to_json`."""
    return None if v == "full" else int(v)


def config_to_dict(config: SweepConfig) -> Dict[str, Any]:
    """JSON-ready dict of every :class:`SweepConfig` field, in field order."""
    d = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    d["orders"] = list(config.orders)
    d["error_rates"] = list(config.error_rates)
    d["depths"] = [depth_to_json(x) for x in config.depths]
    return d


def config_from_dict(d: Dict[str, Any]) -> SweepConfig:
    """Inverse of :func:`config_to_dict`; absent keys take the default.

    Unknown keys are ignored.  A missing required field raises
    ``KeyError`` or ``TypeError``, a bad value ``ValueError``.
    """
    kwargs = {
        f.name: d[f.name] for f in dataclasses.fields(SweepConfig) if f.name in d
    }
    kwargs["orders"] = tuple(d["orders"])
    kwargs["error_rates"] = tuple(d["error_rates"])
    kwargs["depths"] = tuple(depth_from_json(x) for x in d["depths"])
    return SweepConfig(**kwargs)


def instances_to_json(instances: Sequence) -> List[Dict[str, List[int]]]:
    """Operand value lists, one ``{"x": [...], "y": [...]}`` per instance."""
    return [
        {"x": [int(v) for v in inst.x.values],
         "y": [int(v) for v in inst.y.values]}
        for inst in instances
    ]


def instances_from_json(config: SweepConfig, data: Sequence[dict]) -> List:
    """Rebuild the instance list (uniform-amplitude operands)."""
    return [
        ArithmeticInstance(
            config.operation,
            config.n,
            config.m,
            QInteger.uniform(list(i["x"]), config.n),
            QInteger.uniform(list(i["y"]), config.m),
        )
        for i in data
    ]


def cell_to_json(key: Tuple[float, Optional[int]]) -> List[Any]:
    """A ``(rate, depth)`` cell key as ``[rate, depth or "full"]``."""
    return [key[0], depth_to_json(key[1])]


def cell_from_json(v: Sequence[Any]) -> Tuple[float, Optional[int]]:
    """Inverse of :func:`cell_to_json`."""
    return (float(v[0]), depth_from_json(v[1]))


def point_to_dict(pr: PointResult) -> dict:
    """A JSON-ready representation of one sweep cell."""
    return {
        "error_rate": pr.error_rate,
        "depth": depth_to_json(pr.depth),
        "depth_label": pr.depth_label,
        "success_rate": pr.summary.success_rate,
        "num_instances": pr.summary.num_instances,
        "num_success": pr.summary.num_success,
        "sigma": pr.summary.sigma,
        "lower_flip": pr.summary.lower_flip,
        "upper_flip": pr.summary.upper_flip,
        "mean_min_diff": pr.summary.mean_min_diff,
        "outcomes": [
            [int(o.success), o.min_diff, o.shots] for o in pr.outcomes
        ],
        "program_fingerprint": pr.program_fingerprint,
        "dedup_ratio": pr.dedup_ratio,
        "batch_occupancy": pr.batch_occupancy,
        "trajectories_spent": pr.trajectories_spent,
        "num_fragments": pr.num_fragments,
        "cut_count": pr.cut_count,
        "variants_evaluated": pr.variants_evaluated,
    }


def point_from_dict(p: dict) -> PointResult:
    """Rebuild one sweep cell written by :func:`point_to_dict`."""
    outcomes = tuple(
        InstanceOutcome(bool(s), int(d), int(sh)) for s, d, sh in p["outcomes"]
    )
    summary = SuccessSummary(
        num_instances=p["num_instances"],
        num_success=p["num_success"],
        sigma=p["sigma"],
        lower_flip=p["lower_flip"],
        upper_flip=p["upper_flip"],
        mean_min_diff=p["mean_min_diff"],
    )
    return PointResult(
        error_rate=p["error_rate"],
        depth=depth_from_json(p["depth"]),
        depth_label=p["depth_label"],
        summary=summary,
        outcomes=outcomes,
        # Absent in journals written before program compilation existed.
        program_fingerprint=p.get("program_fingerprint", ""),
        # Absent before the batched scheduler; defaults mean "not used".
        dedup_ratio=float(p.get("dedup_ratio", 1.0)),
        batch_occupancy=float(p.get("batch_occupancy", 0.0)),
        trajectories_spent=int(p.get("trajectories_spent", 0)),
        # Absent before circuit cutting; zeros mean "point not cut".
        num_fragments=int(p.get("num_fragments", 0)),
        cut_count=int(p.get("cut_count", 0)),
        variants_evaluated=int(p.get("variants_evaluated", 0)),
    )


def failed_cell_to_dict(f) -> dict:
    """A JSON-ready representation of one FailedCell record."""
    return {
        "error_rate": f.error_rate,
        "depth": depth_to_json(f.depth),
        "error_type": f.error_type,
        "message": f.message,
        "traceback": f.traceback,
        "attempts": f.attempts,
        "retryable": f.retryable,
    }


def failed_cell_from_dict(d: dict):
    """Rebuild one FailedCell written by :func:`failed_cell_to_dict`."""
    from .sweep import FailedCell

    return FailedCell(
        error_rate=d["error_rate"],
        depth=depth_from_json(d["depth"]),
        error_type=d["error_type"],
        message=d["message"],
        traceback=d.get("traceback", ""),
        attempts=int(d.get("attempts", 1)),
        retryable=bool(d.get("retryable", False)),
    )

"""Result persistence: JSON and CSV serialisation of sweep results.

The JSON schema is flat and stable so stored runs (EXPERIMENTS.md's
source data under ``results/``) can be re-rendered without re-simulating.
Schema 2 adds the ``failures`` list (partial-result semantics — see
``docs/reliability.md``); schema-1 files load unchanged with an empty
failure list.  The config and instance shapes are the shared codecs of
:mod:`repro.experiments.serialize`, so a file records every
:class:`~repro.experiments.config.SweepConfig` field, and a key an
older file lacks takes the field's default.  Loaders raise descriptive
:class:`ValueError`\\ s on unknown schema versions, truncated/corrupt
JSON, and missing fields rather than leaking ``KeyError`` from deep
inside the decoder.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .runner import PointResult
from .serialize import (
    config_from_dict,
    config_to_dict,
    failed_cell_from_dict,
    failed_cell_to_dict,
    instances_from_json,
    instances_to_json,
    point_from_dict,
    point_to_dict,
)
from .sweep import SweepResult

__all__ = [
    "sweep_to_dict",
    "sweep_from_dict",
    "save_sweep",
    "load_sweep",
    "sweep_to_csv",
]

_SCHEMA_VERSION = 2
#: Versions ``sweep_from_dict`` can decode (1 = pre-failure-records).
_SUPPORTED_SCHEMAS = (1, 2)


def sweep_to_dict(result: SweepResult) -> dict:
    """A JSON-ready representation of a sweep result."""
    return {
        "schema": _SCHEMA_VERSION,
        "config": config_to_dict(result.config),
        "elapsed_seconds": result.elapsed_seconds,
        "instances": instances_to_json(result.instances),
        "points": [point_to_dict(pr) for pr in result.points.values()],
        "failures": [failed_cell_to_dict(f) for f in result.failures],
    }


def sweep_from_dict(data: dict) -> SweepResult:
    """Rebuild a :class:`SweepResult` (instances as value lists only)."""
    if not isinstance(data, dict):
        raise ValueError(
            f"sweep JSON must decode to an object, got {type(data).__name__}"
        )
    schema = data.get("schema")
    if schema not in _SUPPORTED_SCHEMAS:
        raise ValueError(
            f"unsupported sweep schema {schema!r}; this version reads "
            f"schemas {list(_SUPPORTED_SCHEMAS)}"
        )
    try:
        config = config_from_dict(data["config"])
        instances = instances_from_json(config, data["instances"])
        points: Dict[Tuple[float, Optional[int]], PointResult] = {}
        for p in data["points"]:
            pr = point_from_dict(p)
            points[(pr.error_rate, pr.depth)] = pr
        failures = [
            failed_cell_from_dict(f) for f in data.get("failures", [])
        ]
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(
            f"truncated or malformed sweep JSON: missing/bad field "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    return SweepResult(
        config=config,
        points=points,
        instances=instances,
        elapsed_seconds=data.get("elapsed_seconds", 0.0),
        failures=failures,
    )


def save_sweep(result: SweepResult, path: Union[str, Path]) -> Path:
    """Write a sweep result as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(sweep_to_dict(result), indent=1))
    return path


def load_sweep(path: Union[str, Path]) -> SweepResult:
    """Read a sweep result saved by :func:`save_sweep`.

    Raises a descriptive :class:`ValueError` when the file is not valid
    JSON (e.g. truncated by an interrupted write) or violates the
    schema.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"corrupt or truncated sweep JSON at {path}: {exc}"
        ) from exc
    try:
        return sweep_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def sweep_to_csv(result: SweepResult) -> str:
    """Flat CSV: one row per (error_rate, depth) point."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(
        [
            "operation", "n", "m", "orders", "error_axis", "error_rate",
            "depth", "success_rate", "lower_bar", "upper_bar",
            "num_instances", "sigma",
        ]
    )
    cfg = result.config
    for rate in cfg.error_rates:
        for depth in cfg.depths:
            pr = result.points.get((rate, depth))
            if pr is None:
                continue
            s = pr.summary
            w.writerow(
                [
                    cfg.operation, cfg.n, cfg.m,
                    f"{cfg.orders[0]}:{cfg.orders[1]}", cfg.error_axis,
                    rate, pr.depth_label, f"{s.success_rate:.2f}",
                    f"{s.lower_bar:.2f}", f"{s.upper_bar:.2f}",
                    s.num_instances, f"{s.sigma:.2f}",
                ]
            )
    return buf.getvalue()

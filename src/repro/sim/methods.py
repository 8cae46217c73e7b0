"""The single registry of simulation methods.

Every surface that enumerates engines — :class:`SweepConfig`
validation, the service request schema, the ``repro-arith sweep
--method`` CLI flag, docs and examples — derives its list from
:data:`METHOD_SPECS` here, so adding an engine is a one-line change
and the surfaces can never drift apart (``tests/test_docs_consistency``
pins them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .density import DensityMatrixEngine
from .ptm import PTMEngine

__all__ = [
    "MethodSpec",
    "METHOD_SPECS",
    "METHODS",
    "dense_width_cap",
    "method_names",
    "method_help",
]


@dataclass(frozen=True)
class MethodSpec:
    """One simulation method as exposed to users."""

    name: str
    #: one-line summary used in CLI help and docs
    summary: str
    #: exact output distribution (vs stochastic sampling)
    exact: bool


#: Registration order is the presentation order everywhere.
METHOD_SPECS: Dict[str, MethodSpec] = {
    spec.name: spec
    for spec in (
        MethodSpec(
            "auto",
            "pick per circuit: statevector / ptm / trajectory",
            exact=False,
        ),
        MethodSpec(
            "statevector",
            "ideal pure-state evolution (noise-free only)",
            exact=True,
        ),
        MethodSpec(
            "density",
            "exact density-matrix channels (small registers)",
            exact=True,
        ),
        MethodSpec(
            "ptm",
            "pre-compiled Pauli-transfer-matrix exact lane",
            exact=True,
        ),
        MethodSpec(
            "trajectory",
            "batched stochastic Pauli unravelling",
            exact=False,
        ),
        MethodSpec(
            "perturbative",
            "deterministic low-order error expansion",
            exact=True,
        ),
        MethodSpec(
            "cut",
            "wire-cut fragments + tensor reconstruction (wide registers)",
            exact=False,
        ),
    )
}

#: Canonical method-name tuple, in registry order.
METHODS: Tuple[str, ...] = tuple(METHOD_SPECS)


def method_names() -> Tuple[str, ...]:
    """All registered method names, in registry order."""
    return METHODS


def method_help() -> str:
    """One formatted line per method, for CLI help text."""
    return "; ".join(
        f"'{spec.name}' = {spec.summary}" for spec in METHOD_SPECS.values()
    )


def dense_width_cap(method: str) -> Optional[int]:
    """The dense engine's qubit cap for ``method`` (None = uncapped)."""
    engine = {"density": DensityMatrixEngine, "ptm": PTMEngine}.get(method)
    return None if engine is None else engine.max_qubits

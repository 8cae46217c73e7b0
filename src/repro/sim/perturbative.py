"""Perturbative (sparse-error) noisy simulation.

When the expected number of gate errors per shot is small — the regime of
the paper's QFA sweeps, where ~300-500 gates at 0.2-0.5% error yield
roughly one error per shot — the noisy output distribution is dominated
by configurations with few error insertions.  This engine computes the
*exact* mixture over all configurations with at most ``max_order``
non-identity Pauli insertions, renormalised to account for truncated
weight:

    P(outcome) ~ sum_{configs c, |c| <= K} w(c) * P_c(outcome) / sum w(c)

Only Pauli errors are supported (the paper's depolarizing models are
Pauli channels).  The implementation makes a single forward sweep
maintaining the state after each prefix; for every error location the
3 (or 15) Pauli variants are evolved through the remaining suffix as one
batch, so order-1 costs O(G^2 / 2) batched gate applications.

This engine is deterministic (no Monte-Carlo variance) and serves as a
cross-check of the trajectory engine in the sparse regime (benchmark
E10), and as a fast exact path for order-1-dominated sweeps.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from ..runtime.health import NumericalHealthError, check_finite
from .backend import resolve_complex_dtype
from .ops import apply_pauli_rows, probabilities, BitCache
from .program import CompiledProgram, as_program
from .result import Distribution
from .statevector import zero_state

__all__ = ["PerturbativeEngine"]


def _healthy_distribution(
    accum: np.ndarray, total_weight: float, n: int
) -> Distribution:
    """Validate the truncated mixture before renormalising it."""
    check_finite(accum, "perturbative engine")
    if not math.isfinite(total_weight) or total_weight <= 0:
        raise NumericalHealthError(
            f"perturbative engine: degenerate truncation weight "
            f"{total_weight!r}"
        )
    return Distribution(accum / total_weight, n)


class PerturbativeEngine:
    """Truncated error-configuration expansion (order 0 and 1).

    Parameters
    ----------
    max_order:
        Highest number of simultaneous error insertions kept; currently
        0 or 1.  (Order >= 2 costs O(G^2) full circuit evaluations and is
        intentionally not implemented — use the trajectory engine there.)
    """

    def __init__(self, max_order: int = 1, dtype=None) -> None:
        if max_order not in (0, 1):
            raise ValueError("max_order must be 0 or 1")
        self.max_order = int(max_order)
        self.dtype = resolve_complex_dtype(dtype)
        self._bits = BitCache()

    def distribution(
        self,
        circuit: Union[QuantumCircuit, CompiledProgram],
        noise_model: Optional[NoiseModel] = None,
        initial_state: Optional[np.ndarray] = None,
    ) -> Distribution:
        """The truncated-and-renormalised noisy outcome distribution.

        A raw circuit is lowered with ``noise_model`` through the compile
        cache; a :class:`~repro.sim.program.CompiledProgram` is used as
        is (``noise_model`` is then ignored).  Readout errors are left
        to the caller.
        """
        program = as_program(circuit, noise_model)
        n = program.num_qubits
        ops = program.ops
        log_w0 = 0.0
        for op in ops:
            if op.kind == "reset":
                raise ValueError(
                    "perturbative engine does not support mid-circuit reset"
                )
            if op.kind != "noise":
                continue
            if not op.is_pauli:
                raise ValueError(
                    "perturbative engine supports Pauli errors only, "
                    f"got {type(op.error).__name__}"
                )
            p_id = op.error.identity_prob
            if p_id <= 0:
                # An always-erring channel has no sparse regime.
                raise ValueError(
                    "perturbative engine requires identity probability > 0 "
                    "at every error site"
                )
            log_w0 += math.log(p_id)
        w0 = math.exp(log_w0)

        if initial_state is None:
            base = zero_state(n, 1, self.dtype)
        else:
            base = (
                np.asarray(initial_state, dtype=self.dtype)
                .reshape(1, -1)
                .copy()
            )
            if base.shape[1] != (1 << n):
                raise ValueError("initial state has wrong dimension")

        accum = np.zeros(1 << n, dtype=float)
        total_weight = 0.0

        # Forward sweep: ``base`` holds the ideal state after each prefix;
        # every weighted site evolves its Pauli variants through the
        # remaining suffix as one batch.
        for i, op in enumerate(ops):
            if op.kind == "unitary":
                op.apply(base, n)
                continue
            if op.kind != "noise" or self.max_order == 0 or not op.e:
                continue
            m = len(op.labels)
            batch = np.repeat(base, m, axis=0)
            for j, label in enumerate(op.labels):
                for pos, ch in enumerate(label):
                    if ch != "I":
                        apply_pauli_rows(
                            batch, ch, op.qubits[pos], np.array([j]), n,
                            self._bits,
                        )
            for later in ops[i + 1 :]:
                if later.kind == "unitary":
                    later.apply(batch, n)
            probs = probabilities(batch)
            # weight(config) = w0 * p_pi / p_identity at this site.
            weights = w0 * (op.cond * op.e) / op.error.identity_prob
            accum += weights @ probs
            total_weight += float(weights.sum())

        accum += w0 * probabilities(base)[0]
        total_weight += w0
        return _healthy_distribution(accum, total_weight, n)

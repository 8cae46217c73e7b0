"""Numerical-health guards: NaN / norm-drift detection in every engine."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.noise.model import NoiseModel
from repro.runtime import (
    NumericalHealthError,
    check_finite,
    check_norms,
    check_trace,
    norm_tolerance,
)
from repro.sim import (
    DensityMatrixEngine,
    PerturbativeEngine,
    StatevectorEngine,
    TrajectoryEngine,
)


@pytest.fixture(autouse=True)
def _canonical_backend(monkeypatch):
    """Float64 exactness oracles: pin the canonical tier so a
    ``REPRO_BACKEND`` matrix lane doesn't widen their tolerances."""
    monkeypatch.setenv("REPRO_BACKEND", "numpy64")


def _bell_circuit():
    qc = QuantumCircuit(2)
    qc.h(0)
    qc.cx(0, 1)
    return qc


def _nan_state(n=2):
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = np.nan
    return vec


def _unnormalised_state(n=2):
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = 2.0  # norm 4, far outside any tolerance
    return vec


class TestCheckers:
    def test_check_finite_passes_clean(self):
        check_finite(np.ones(4, dtype=complex), "t")

    def test_check_finite_rejects_nan(self):
        arr = np.array([1.0, np.nan], dtype=complex)
        with pytest.raises(NumericalHealthError, match="non-finite"):
            check_finite(arr, "t")

    def test_check_finite_rejects_inf(self):
        arr = np.array([1.0, np.inf])
        with pytest.raises(NumericalHealthError):
            check_finite(arr, "t")

    def test_check_norms_accepts_unit_rows(self):
        state = np.zeros((3, 4), dtype=complex)
        state[:, 0] = 1.0
        check_norms(state, "t")

    def test_check_norms_rejects_drift(self):
        state = np.zeros((2, 4), dtype=complex)
        state[0, 0] = 1.0
        state[1, 0] = 1.01
        with pytest.raises(NumericalHealthError, match="norm drifted"):
            check_norms(state, "t")

    def test_norm_tolerance_wider_for_single_precision(self):
        assert norm_tolerance(np.complex64) > norm_tolerance(np.complex128)

    def test_check_trace_rejects_drift(self):
        rho = np.eye(4, dtype=complex) * 0.3
        with pytest.raises(NumericalHealthError, match="trace drifted"):
            check_trace(rho, "t")


class TestEngineGuards:
    def test_statevector_rejects_nan_initial_state(self):
        with pytest.raises(NumericalHealthError):
            StatevectorEngine().run(_bell_circuit(), initial_state=_nan_state())

    def test_statevector_rejects_unnormalised_state(self):
        with pytest.raises(NumericalHealthError):
            StatevectorEngine().run(
                _bell_circuit(), initial_state=_unnormalised_state()
            )

    def test_statevector_clean_run_passes(self):
        sv = StatevectorEngine().run(_bell_circuit())
        assert sv.num_qubits == 2

    def test_density_rejects_nan_initial_state(self):
        noise = NoiseModel.depolarizing(p2q=0.01)
        with pytest.raises(NumericalHealthError):
            DensityMatrixEngine().run(
                _bell_circuit(), noise, initial_state=_nan_state()
            )

    def test_density_clean_run_passes(self):
        noise = NoiseModel.depolarizing(p2q=0.01)
        dm = DensityMatrixEngine().run(_bell_circuit(), noise)
        assert abs(np.real(np.trace(dm.data)) - 1.0) < 1e-9

    def test_trajectory_rejects_nan_initial_state(self):
        noise = NoiseModel.depolarizing(p2q=0.01)
        eng = TrajectoryEngine(trajectories=4, seed=1)
        with pytest.raises(NumericalHealthError):
            eng.run(_bell_circuit(), noise, shots=16, initial_state=_nan_state())

    def test_trajectory_split_path_rejects_nan(self):
        noise = NoiseModel.depolarizing(p2q=0.01)
        eng = TrajectoryEngine(trajectories=4, seed=1)
        with pytest.raises(NumericalHealthError):
            eng.run(_bell_circuit(), noise, shots=16, initial_state=_nan_state())

    def test_trajectory_clean_run_passes(self):
        noise = NoiseModel.depolarizing(p2q=0.01)
        counts = TrajectoryEngine(trajectories=4, seed=1).run(
            _bell_circuit(), noise, shots=32
        )
        assert counts.shots == 32

    def test_perturbative_rejects_nan_initial_state(self):
        noise = NoiseModel.depolarizing(p2q=0.01)
        with pytest.raises(NumericalHealthError):
            PerturbativeEngine().distribution(
                _bell_circuit(), noise, initial_state=_nan_state()
            )

    def test_perturbative_clean_run_passes(self):
        noise = NoiseModel.depolarizing(p2q=0.01)
        dist = PerturbativeEngine().distribution(_bell_circuit(), noise)
        assert abs(dist.probs.sum() - 1.0) < 1e-9

"""Additional perturbative-engine coverage: site expansion, 2q errors,
and harness integration."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.metrics import total_variation_distance
from repro.noise import NoiseModel, PauliError, depolarizing_error
from repro.sim import DensityMatrixEngine, PerturbativeEngine, compile_circuit


def ghz(n):
    qc = QuantumCircuit(n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    return qc


class TestSiteExpansion:
    """The perturbative engine sweeps the lowering's weighted noise
    sites, so its site expansion is the program's ``pauli_sites()``."""

    def test_2q_error_sites(self):
        noise = NoiseModel.depolarizing(p2q=0.01)
        sites = [op for _, op in compile_circuit(ghz(3), noise).pauli_sites()]
        # Two cx gates -> two 2-qubit sites with 15 Paulis each.
        assert len(sites) == 2
        assert all(len(s.labels) == 15 for s in sites)

    def test_1q_error_on_2q_gate_expands(self):
        err = depolarizing_error(0.01, 1)
        noise = NoiseModel().add_all_qubit_quantum_error(err, ["cx"])
        sites = [op for _, op in compile_circuit(ghz(3), noise).pauli_sites()]
        # Each cx contributes two 1q sites.
        assert len(sites) == 4
        assert all(len(s.qubits) == 1 for s in sites)

    def test_always_erring_channel_rejected(self):
        err = PauliError(["X"], [1.0])
        noise = NoiseModel().add_all_qubit_quantum_error(err, ["cx"])
        with pytest.raises(ValueError):
            PerturbativeEngine().distribution(ghz(2), noise)


class TestAccuracy:
    def test_2q_depolarizing_low_rate(self):
        noise = NoiseModel.depolarizing(p2q=0.002)
        qc = ghz(4)
        exact = DensityMatrixEngine().distribution(qc, noise)
        approx = PerturbativeEngine().distribution(qc, noise)
        assert total_variation_distance(exact, approx) < 1e-4

    def test_initial_state_injection(self):
        noise = NoiseModel.depolarizing(p1q=0.01, gates_1q=("x",))
        qc = QuantumCircuit(2)
        qc.x(0)
        init = np.array([0, 0, 1, 0], dtype=complex)  # |q1=1, q0=0>
        dist = PerturbativeEngine().distribution(qc, noise, init)
        exact = DensityMatrixEngine().distribution(qc, noise, init)
        assert total_variation_distance(exact, dist) < 1e-9

    def test_harness_uses_perturbative_method(self):
        from repro.experiments import (
            SweepConfig,
            generate_instances,
            run_point,
        )

        cfg = SweepConfig(
            operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
            error_rates=(0.005,), depths=(None,), instances=3,
            shots=256, trajectories=8, seed=71, method="perturbative",
        )
        insts = generate_instances("add", 3, 3, (1, 1), 3, seed=71)
        pr = run_point(cfg, insts, 0.005, None)
        assert pr.summary.num_instances == 3

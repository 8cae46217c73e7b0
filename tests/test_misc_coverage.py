"""Edge-case coverage across modules: dispatch boundaries, diagonal
gate paths, 2q Kraus trajectories, rendering helpers."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.circuits import gates as G
from repro.circuits.circuit import Instruction
from repro.metrics import total_variation_distance
from repro.noise import KrausError, NoiseModel
from repro.sim import (
    DensityMatrixEngine,
    TrajectoryEngine,
    choose_method,
    simulate_counts,
)
from repro.sim.engines import EXACT_MAX_QUBITS
from repro.sim.ops import apply_instruction


class TestDispatchBoundary:
    def test_boundary_qubit_count(self):
        noise = NoiseModel.depolarizing(p1q=0.01)
        at_limit = QuantumCircuit(EXACT_MAX_QUBITS)
        at_limit.h(0)
        over = QuantumCircuit(EXACT_MAX_QUBITS + 1)
        over.h(0)
        assert choose_method(at_limit, noise) == "ptm"
        assert choose_method(over, noise) == "trajectory"

    def test_simulate_counts_trajectory_path(self):
        qc = QuantumCircuit(11)
        qc.h(0)
        for i in range(10):
            qc.cx(i, i + 1)
        noise = NoiseModel.depolarizing(p2q=0.01)
        counts = simulate_counts(qc, noise, shots=64, seed=0)
        assert counts.shots == 64


class TestDiagonalGatePaths:
    @pytest.mark.parametrize(
        "gate,qubits",
        [
            (G.CRZGate(0.7), (0, 2)),
            (G.CRZGate(-1.3), (2, 1)),
        ],
    )
    def test_crz_via_diagonal_fast_path(self, gate, qubits):
        n = 3
        rng = np.random.default_rng(0)
        state = rng.normal(size=(2, 1 << n)) + 1j * rng.normal(
            size=(2, 1 << n)
        )
        expected = state.copy()
        # Reference: full-matrix application.
        from repro.sim.ops import apply_gate_matrix

        ref = apply_gate_matrix(state.copy(), gate.matrix, list(qubits), n)
        got = apply_instruction(
            state.copy(), Instruction(gate, list(qubits)), n
        )
        np.testing.assert_allclose(got, ref, atol=1e-12)


class TestTwoQubitKrausTrajectories:
    def test_2q_kraus_channel(self):
        # A 2q channel: 80% identity, 20% apply CZ.
        import math

        k0 = math.sqrt(0.8) * np.eye(4, dtype=complex)
        k1 = math.sqrt(0.2) * G.CZGate().matrix
        err = KrausError([k0, k1])
        noise = NoiseModel().add_all_qubit_quantum_error(err, ["cx"])
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).h(0)
        exact = DensityMatrixEngine().distribution(qc, noise)
        eng = TrajectoryEngine(trajectories=4000, seed=8)
        counts = eng.run(qc, noise, shots=4000)
        # Kraus noise disables splitting; plain trajectories still exact.
        assert total_variation_distance(exact, counts) < 0.05


class TestRenderFigure:
    def test_multi_panel_rendering(self):
        from repro.experiments import (
            SweepConfig,
            render_figure,
            run_sweep,
        )

        cfg = SweepConfig(
            operation="add", n=2, m=2, orders=(1, 1), error_axis="2q",
            error_rates=(0.0,), depths=(None,), instances=2, shots=64,
            trajectories=4, seed=1,
        )
        res = run_sweep(cfg, workers=1)
        text = render_figure([("panel-a", res), ("panel-b", res)], "Fig. X")
        assert text.count("panel-") == 2
        assert "Fig. X" in text


class TestReprSmoke:
    def test_reprs_do_not_crash(self):
        from repro.core import QInteger
        from repro.noise import PauliError, ReadoutError, ResetError
        from repro.sim import Counts, Distribution

        objs = [
            QuantumCircuit(2),
            Instruction(G.HGate(), [0]),
            QInteger.uniform([1, 2], 3),
            PauliError(["I", "X"], [0.9, 0.1]),
            ResetError(0.1),
            ReadoutError(0.01),
            NoiseModel.depolarizing(p1q=0.01),
            Counts({0: 5, 1: 2, 2: 2, 3: 1, 4: 1}, 3),
            Distribution(np.array([0.5, 0.5]), 1),
        ]
        for o in objs:
            assert repr(o)

    def test_gate_counts_str(self):
        from repro.transpile import gate_counts

        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        s = str(gate_counts(qc))
        assert "1q=1" in s and "2q=1" in s


class TestStatevectorHelpers:
    def test_statevector_from_int(self):
        from repro.sim import Statevector

        sv = Statevector.from_int(5, 3)
        assert sv.data[5] == 1.0

    def test_density_from_statevector(self):
        from repro.sim import DensityMatrix

        v = np.array([1, 1]) / np.sqrt(2)
        dm = DensityMatrix.from_statevector(v, 1)
        assert dm.purity() == pytest.approx(1.0)

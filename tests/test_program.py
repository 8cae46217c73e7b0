"""Tests for the compiled execution IR (repro.sim.program).

Covers the lowering taxonomy (diagonal fusion, permutations, noise and
measure sites), program<->circuit equivalence on random circuits,
the decompile round-trip checked with the symbolic equivalence engine,
the two-level compile cache, bitwise parity of the cached monomial
pieces with a plain left fold, pickling for worker shipping, and the
resolved-method audit trail on simulation results.
"""

import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.circuits import gates as G
from repro.core import qfa_circuit
from repro.experiments.config import SweepConfig
from repro.experiments.instances import generate_instances
from repro.experiments.runner import (
    build_arithmetic_circuit,
    build_compiled_program,
    noise_model_for,
    run_point,
)
from repro.experiments.serialize import point_from_dict, point_to_dict
from repro.lint import check_equivalence
from repro.metrics import total_variation_distance
from repro.noise import NoiseModel, PauliError
from repro.sim import (
    CompiledProgram,
    DensityMatrixEngine,
    PerturbativeEngine,
    StatevectorEngine,
    TrajectoryEngine,
    compile_circuit,
    compile_cache_stats,
    reset_compile_caches,
    simulate_counts,
    simulate_distribution,
)
from repro.sim import program as program_mod
from repro.sim.program import (
    DenseOp,
    DiagonalOp,
    KernelCache,
    MeasureSiteOp,
    NoiseOp,
    PermutationOp,
    _MonoSegment,
    _perm_indices,
    circuit_fingerprint,
    kernel_cache_stats,
)
from repro.transpile import transpile

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(autouse=True)
def _canonical_backend(monkeypatch):
    """Float64 exactness oracles: pin the canonical tier so a
    ``REPRO_BACKEND`` matrix lane doesn't widen their tolerances."""
    monkeypatch.setenv("REPRO_BACKEND", "numpy64")


_GATE_POOL = ["h", "x", "s", "t", "sx", "rz", "cp", "cx", "z", "cz",
              "swap", "ccx", "p", "tdg", "sdg"]


def _random_circuit(seed: int, n: int, depth: int = 12) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(n)
    for _ in range(depth):
        name = _GATE_POOL[rng.integers(len(_GATE_POOL))]
        g = (
            G.make_gate(name, float(rng.uniform(-3, 3)))
            if name in ("rz", "cp", "p")
            else G.make_gate(name)
        )
        if g.num_qubits > n:
            continue
        qs = rng.choice(n, size=g.num_qubits, replace=False)
        qc.append(g, [int(q) for q in qs])
    return qc


def _order1_mixture(qc, noise, init) -> np.ndarray:
    """Order-1 truncated mixture by brute force, without the lowering.

    One statevector interpreter run per (error site, non-identity
    Pauli), with that Pauli inserted after the site's gate, weighted
    ``w0 * p / p_identity``; plus the error-free run at weight ``w0``.
    """
    instrs = list(qc)
    sites = []
    for k, instr in enumerate(instrs):
        for err in noise.gate_errors(instr):
            if err.num_qubits == 1 and len(instr.qubits) > 1:
                sites += [(k, (q,), err) for q in instr.qubits]
            else:
                sites.append((k, instr.qubits, err))
    w0 = math.prod(err.identity_prob for _, _, err in sites)

    def run(at=None, qubits=(), label=""):
        circ = QuantumCircuit(qc.num_qubits, qc.num_clbits)
        for k, instr in enumerate(instrs):
            circ.append(instr.gate, instr.qubits, instr.clbits)
            if k == at:
                for q, ch in zip(qubits, label):
                    if ch != "I":
                        circ.append(G.make_gate(ch.lower()), [q])
        return StatevectorEngine().distribution(circ, init).probs

    accum, total = w0 * run(), w0
    for k, qubits, err in sites:
        for label, p in zip(err.paulis, err.probs):
            if set(label) == {"I"} or p == 0:
                continue
            w = w0 * p / err.identity_prob
            accum = accum + w * run(k, qubits, label)
            total += w
    return accum / total


def bell() -> QuantumCircuit:
    qc = QuantumCircuit(2)
    qc.h(0)
    qc.cx(0, 1)
    return qc


# ---------------------------------------------------------------------------
# Lowering taxonomy
# ---------------------------------------------------------------------------

class TestLowering:
    def test_adjacent_diagonals_fuse_into_one_op(self):
        qc = QuantumCircuit(3)
        qc.rz(0.3, 0)
        qc.cp(0.2, 0, 1)
        qc.t(2)
        qc.h(1)
        prog = compile_circuit(qc)
        diags = [op for op in prog.ops if isinstance(op, DiagonalOp)]
        assert len(diags) == 1
        assert len(diags[0].terms) == 3

    def test_permutation_and_measure_ops(self):
        qc = QuantumCircuit(3, 3)
        qc.x(0)
        qc.cx(0, 1)
        qc.ccx(0, 1, 2)
        qc.measure(0, 0)
        prog = compile_circuit(qc)
        kinds = [type(op).__name__ for op in prog.ops]
        assert kinds.count("PermutationOp") == 3
        assert isinstance(prog.ops[-1], MeasureSiteOp)

    def test_noise_sites_resolved(self):
        qc = QuantumCircuit(2)
        qc.sx(0)
        qc.cx(0, 1)
        noise = NoiseModel.depolarizing(p1q=0.01, p2q=0.02)
        prog = compile_circuit(qc, noise)
        sites = [op for op in prog.ops if isinstance(op, NoiseOp)]
        # sx carries a 1q channel; cx carries one 2q channel.
        assert [s.error.num_qubits for s in sites] == [1, 2]
        assert all(s.is_pauli and s.e > 0 for s in sites)
        assert prog.num_noise_sites == 2
        assert prog.pauli_only

    def test_1q_channel_on_2q_gate_expands_per_qubit(self):
        noise = NoiseModel().add_all_qubit_quantum_error(
            PauliError(["I", "X"], [0.9, 0.1]), ["cx"]
        )
        prog = compile_circuit(bell(), noise)
        sites = [op for op in prog.ops if isinstance(op, NoiseOp)]
        assert [s.qubits for s in sites] == [(0,), (1,)]

    def test_fingerprints_distinguish_noise_and_circuit(self):
        a = compile_circuit(bell(), NoiseModel.depolarizing(p2q=0.01))
        b = compile_circuit(bell(), NoiseModel.depolarizing(p2q=0.02))
        c = compile_circuit(bell())
        assert a.circuit_fingerprint == b.circuit_fingerprint
        assert a.noise_fingerprint != b.noise_fingerprint
        assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3

    def test_circuit_fingerprint_content_keyed(self):
        assert circuit_fingerprint(bell()) == circuit_fingerprint(bell())
        other = QuantumCircuit(2)
        other.h(1)
        other.cx(0, 1)
        assert circuit_fingerprint(bell()) != circuit_fingerprint(other)

    def test_dense_op_only_above_crossover(self):
        qc = QuantumCircuit(8)
        qc.sx(0)
        qc.sx(7)
        prog = compile_circuit(qc)
        dense = [op for op in prog.ops if isinstance(op, DenseOp)]
        assert len(dense) == 1
        assert dense[0].term[1] == (7,)


# ---------------------------------------------------------------------------
# Program <-> circuit equivalence
# ---------------------------------------------------------------------------

class TestEquivalence:
    @_SETTINGS
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 5))
    def test_optimized_program_matches_interpreter(self, seed, n):
        qc = _random_circuit(seed, n)
        ref = StatevectorEngine().run(qc).data
        got = StatevectorEngine().run(compile_circuit(qc)).data
        np.testing.assert_allclose(got, ref, atol=1e-12)

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_decompiled_fused_runs_stay_equivalent(self, seed):
        """lint.check_equivalence accepts the decompilation round-trip."""
        qc = _random_circuit(seed, 4)
        round_tripped = compile_circuit(qc).decompile()
        verdict = check_equivalence(qc, round_tripped)
        assert verdict.is_equivalent

    def test_decompile_qfa_corpus_circuit(self):
        qc = transpile(qfa_circuit(3, 3))
        prog = compile_circuit(qc, NoiseModel.depolarizing(p2q=0.01))
        verdict = check_equivalence(qc, prog.decompile())
        assert verdict.is_equivalent

    def test_density_engine_program_path(self):
        noise = NoiseModel.depolarizing(p1q=0.02, p2q=0.05)
        ref = DensityMatrixEngine().distribution(bell(), noise)
        got = DensityMatrixEngine().distribution(
            compile_circuit(bell(), noise)
        )
        np.testing.assert_allclose(got.probs, ref.probs, atol=1e-12)

    def test_density_engine_program_with_readout(self):
        from repro.noise.channels import ReadoutError

        noise = NoiseModel.depolarizing(p1q=0.02)
        noise.add_readout_error(ReadoutError(0.1, 0.05))
        ref = DensityMatrixEngine().distribution(bell(), noise)
        got = DensityMatrixEngine().distribution(
            compile_circuit(bell(), noise)
        )
        np.testing.assert_allclose(got.probs, ref.probs, atol=1e-12)

    def test_perturbative_engine_program_path(self):
        """The order-1 sweep over program ops against a mixture built
        from the raw circuit with the statevector interpreter."""
        qc = transpile(qfa_circuit(2, 2))
        dim = 1 << qc.num_qubits
        rng = np.random.default_rng(5)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        for axis, rate in (("1q", 0.01), ("2q", 0.02)):
            noise = noise_model_for(axis, rate)
            for init in (None, psi):
                ref = _order1_mixture(qc, noise, init)
                got = PerturbativeEngine().distribution(
                    compile_circuit(qc, noise), initial_state=init
                )
                np.testing.assert_allclose(got.probs, ref, atol=1e-12)

    @pytest.mark.parametrize("p", [0.01, 0.1])
    def test_trajectory_program_matches_exact_distribution(self, p):
        noise = NoiseModel.depolarizing(p1q=p, p2q=p)
        exact = DensityMatrixEngine().distribution(bell(), noise)
        eng = TrajectoryEngine(trajectories=8000, seed=2)
        counts = eng.run(compile_circuit(bell(), noise), shots=8000)
        assert total_variation_distance(exact, counts) < 0.04

    def test_trajectory_segment_walker_matches_exact(self):
        """Dense boundaries + interior fire/fork events at high rate."""
        qc = transpile(qfa_circuit(2, 2))
        noise = noise_model_for("2q", 0.05)
        exact = DensityMatrixEngine().distribution(qc, noise)
        eng = TrajectoryEngine(trajectories=6000, seed=7)
        counts = eng.run(compile_circuit(qc, noise), shots=6000)
        assert total_variation_distance(exact, counts) < 0.05

    def test_trajectory_program_readout_table(self):
        from repro.noise.channels import ReadoutError

        qc = QuantumCircuit(1)
        qc.x(0)
        noise = NoiseModel()
        noise.add_readout_error(ReadoutError(0.0, 0.25))
        eng = TrajectoryEngine(trajectories=1, seed=9)
        counts = eng.run(compile_circuit(qc, noise), shots=4000)
        assert counts[0] / 4000 == pytest.approx(0.25, abs=0.03)

    def test_non_pauli_channel_program_path(self):
        from repro.noise.channels import ResetError

        qc = QuantumCircuit(1)
        qc.x(0)
        noise = NoiseModel().add_all_qubit_quantum_error(
            ResetError(0.3, 0.0), ["x"]
        )
        prog = compile_circuit(qc, noise)
        assert not prog.pauli_only
        exact = DensityMatrixEngine().distribution(qc, noise)
        counts = TrajectoryEngine(trajectories=4000, seed=5).run(
            prog, shots=4000
        )
        assert total_variation_distance(exact, counts) < 0.04


# ---------------------------------------------------------------------------
# Compile caching
# ---------------------------------------------------------------------------

class TestCompileCache:
    def test_rate_only_sweep_lowers_once(self):
        reset_compile_caches()
        circ = build_arithmetic_circuit("add", 3, 3, None)
        rates = (0.002, 0.005, 0.007, 0.01, 0.02)
        programs = [
            compile_circuit(circ, noise_model_for("2q", r)) for r in rates
        ]
        stats = compile_cache_stats()
        assert stats.lowerings == 1
        assert stats.lower_hits == len(rates) - 1
        assert stats.binds == len(rates)
        assert stats.bind_hits == 0
        assert len({p.fingerprint for p in programs}) == len(rates)

    def test_repeat_rate_hits_bind_cache(self):
        reset_compile_caches()
        circ = build_arithmetic_circuit("add", 3, 3, None)
        noise = noise_model_for("2q", 0.01)
        a = compile_circuit(circ, noise)
        b = compile_circuit(circ, noise_model_for("2q", 0.01))
        assert a is b
        assert compile_cache_stats().bind_hits == 1

    def test_structure_change_triggers_new_lowering(self):
        reset_compile_caches()
        circ = build_arithmetic_circuit("add", 3, 3, None)
        compile_circuit(circ, noise_model_for("2q", 0.01))
        compile_circuit(circ, noise_model_for("1q", 0.002))
        assert compile_cache_stats().lowerings == 2

    def test_structure_key_ignores_rates(self):
        a = noise_model_for("2q", 0.007)
        b = noise_model_for("2q", 0.02)
        c = noise_model_for("1q", 0.002)
        assert a.structure_key() == b.structure_key()
        assert a.structure_key() != c.structure_key()
        assert a.fingerprint() != b.fingerprint()

    def test_build_compiled_program_memoised(self):
        build_compiled_program.cache_clear()
        a = build_compiled_program("add", 3, 3, None, "2q", 0.01)
        b = build_compiled_program("add", 3, 3, None, "2q", 0.01)
        assert a is b
        assert build_compiled_program.cache_info().hits == 1

    def test_ideal_model_compiles_to_noise_free_program(self):
        prog = compile_circuit(bell(), NoiseModel.ideal())
        assert prog.num_noise_sites == 0
        assert not prog.readout

    def test_snapshots_never_see_half_a_compile(self):
        # Fresh circuit objects force a lowering (the slow step) on
        # every call, so a snapshot taken between the lower and bind
        # bookkeeping of an unlocked ledger would break the identity.
        reset_compile_caches()
        stop = threading.Event()
        torn = []

        def compile_many(seed):
            for i in range(40):
                qc = QuantumCircuit(3)
                qc.h(0).cx(0, 1).rz(0.1 * (seed + i), 2).cx(1, 2)
                compile_circuit(qc, noise_model_for("2q", 0.001 * (i % 4 + 1)))

        def watch():
            while not stop.is_set():
                s = compile_cache_stats().as_dict()
                if s["lowerings"] + s["lower_hits"] != s["binds"] + s["bind_hits"]:
                    torn.append(s)

        watcher = threading.Thread(target=watch)
        workers = [
            threading.Thread(target=compile_many, args=(k,)) for k in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            watcher.start()
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            stop.set()
            watcher.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers + [watcher])
        assert not torn, torn[:3]
        assert compile_cache_stats().lowerings == 4 * 40


# ---------------------------------------------------------------------------
# Monomial pieces: prefix reuse and in-place folds, bit for bit
# ---------------------------------------------------------------------------

def _reference_fold(elems, n, dtype):
    """The fold before prefix reuse: from the identity, every diagonal
    materialised by ``op.diag()`` and multiplied in as ``ph * d``."""
    src, ph = None, None
    for op in elems:
        if isinstance(op, DiagonalOp):
            d = op.diag(n, dtype)
            ph = d if ph is None else ph * d
        else:
            t = _perm_indices(n, op.name, op.qubits)
            src = t if src is None else np.take(src, t)
            ph = None if ph is None else np.take(ph, t)
    return src, ph


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        elif w.dtype.kind == "c":
            assert g.dtype == w.dtype
            assert np.array_equal(g.view(g.real.dtype), w.view(w.real.dtype))
        else:
            assert np.array_equal(g, w)


def _hand_built_segment():
    """5 qubits: rz, the phase-on-ones family, a generic diagonal, a
    fused (cached) diagonal run and every permutation gate."""
    diag = lambda *terms: DiagonalOp(terms)  # noqa: E731
    elems = (
        diag(("rz", (0,), (0.37,))),
        PermutationOp("cx", (0, 2)),
        diag(("cp", (1, 3), (1.1,))),
        diag(("ccp", (0, 2, 4), (-0.8,))),
        PermutationOp("x", (3,)),
        diag(("z", (2,), ())),
        diag(("s", (4,), ())),
        PermutationOp("swap", (1, 4)),
        diag(("t", (0,), ())),
        diag(("crz", (3, 1), (0.9,))),
        PermutationOp("ccx", (0, 1, 2)),
        diag(("rz", (3,), (-2.2,)), ("cp", (0, 4), (0.5,)),
             ("crz", (2, 0), (1.3,))),
        diag(("sdg", (1,), ())),
        diag(("tdg", (2,), ())),
        diag(("rz", (4,), (2.9,))),
    )
    return 5, _MonoSegment(elems, (), 5)


def _fold_segments():
    """Fresh segments (empty prefix indexes): the hand-built one and
    every segment of a noisy 8-qubit QFA program."""
    prog = compile_circuit(
        transpile(qfa_circuit(4, 4)), noise_model_for("1q", 0.003)
    )
    n = prog.num_qubits
    qfa = [
        (n, _MonoSegment(seg.elems, seg.sites, n))
        for tag, seg in prog.exec_stream()
        if tag == "seg" and seg.elems
    ]
    assert max(len(seg.elems) for _, seg in qfa) >= 20
    return [_hand_built_segment()] + qfa


def _kernel_counts():
    stats = kernel_cache_stats()
    return stats["folds"], stats["prefix_reuse"], stats["evictions"]


class TestMonomialFold:
    @pytest.mark.parametrize("dtype", ["complex128", "complex64"])
    @pytest.mark.parametrize(
        "order", ["shortest_first", "longest_first", "evicting"]
    )
    def test_pieces_match_the_reference_fold_bitwise(
        self, monkeypatch, dtype, order
    ):
        dtype = np.dtype(dtype)
        # A few pieces fit in the small budget (an 8-qubit piece is
        # 2-5 KB), so prefixes get evicted between requests.
        budget = 8 << 10 if order == "evicting" else 1 << 30
        monkeypatch.setattr(program_mod, "_KERNELS", KernelCache(budget))
        _, reused0, evicted0 = _kernel_counts()
        for n, seg in _fold_segments():
            size = len(seg.elems)
            pieces = sorted(
                ((s, e) for s in range(size) for e in range(s + 1, size + 1)),
                key=lambda p: p[1] - p[0],
                reverse=order == "longest_first",
            )
            for s, e in pieces:
                got = (
                    seg.full(n, dtype) if (s, e) == (0, size)
                    else seg.partial(n, s, e, dtype)
                )
                _assert_same_bits(
                    got, _reference_fold(seg.elems[s:e], n, dtype)
                )
        _, reused, evicted = _kernel_counts()
        if order == "longest_first":
            assert reused == reused0
        else:
            assert reused > reused0
        assert (evicted > evicted0) == (order == "evicting")

    def test_threads_sharing_a_segment_get_identical_pieces(
        self, monkeypatch
    ):
        monkeypatch.setattr(program_mod, "_KERNELS", KernelCache(4 << 10))
        n, seg = _hand_built_segment()
        size = len(seg.elems)
        pieces = [(s, e) for s in range(size) for e in range(s + 1, size + 1)]
        want = {p: _reference_fold(seg.elems[p[0]:p[1]], n, None) for p in pieces}
        errors = []

        def walk(seed):
            order = np.random.default_rng(seed).permutation(len(pieces))
            try:
                for i in order:
                    s, e = pieces[i]
                    _assert_same_bits(seg.partial(n, s, e), want[(s, e)])
            except AssertionError as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=walk, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert not errors

    def test_folds_count_only_ops_past_a_cached_prefix(self, monkeypatch):
        cache = KernelCache(1 << 30)
        monkeypatch.setattr(program_mod, "_KERNELS", cache)
        n, seg = _hand_built_segment()
        s, k, e = 2, 6, 12
        folds0, reused0, _ = _kernel_counts()
        seg.partial(n, s, k)
        folds1, reused1, _ = _kernel_counts()
        assert (folds1 - folds0, reused1 - reused0) == (k - s, 0)
        seg.partial(n, s, e)
        folds2, reused2, _ = _kernel_counts()
        assert (folds2 - folds1, reused2 - reused1) == (e - k, 1)
        # One more piece into a cache with no room evicts everything.
        cache.budget_bytes = 0
        seg.partial(n, s + 1, e)
        assert len(cache._entries) == 1
        cache.budget_bytes = 1 << 30
        folds3, reused3, _ = _kernel_counts()
        seg.partial(n, s, e)
        folds4, reused4, _ = _kernel_counts()
        assert (folds4 - folds3, reused4 - reused3) == (e - s, 0)

    def test_fold_counters_are_exported(self):
        from repro.service.server import ArithmeticService
        from repro.service.stats import cache_stats_snapshot

        assert {"folds", "prefix_reuse"} <= set(
            cache_stats_snapshot()["kernel_cache"]
        )
        service = ArithmeticService()
        try:
            text = service.metrics_text()
        finally:
            service.executor.shutdown(wait=False)
        assert "repro_kernel_folds" in text
        assert "repro_kernel_prefix_reuse" in text


# ---------------------------------------------------------------------------
# Worker shipping (pickle) and sweep integration
# ---------------------------------------------------------------------------

class TestShipping:
    def test_pickle_round_trip_executes_identically(self):
        qc = transpile(qfa_circuit(2, 2))
        noise = NoiseModel.depolarizing(p1q=0.002, p2q=0.01)
        prog = compile_circuit(qc, noise)
        clone = pickle.loads(pickle.dumps(prog))
        assert clone.fingerprint == prog.fingerprint
        assert clone.pauli_only == prog.pauli_only
        ref = StatevectorEngine().run(prog).data
        got = StatevectorEngine().run(clone).data
        np.testing.assert_allclose(got, ref, atol=1e-14)

    def test_run_point_records_program_fingerprint(self):
        cfg = SweepConfig(
            operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
            error_rates=(0.01,), depths=(None,), instances=2, shots=64,
            trajectories=4, seed=11,
        )
        insts = generate_instances("add", 3, 3, (1, 1), 2, seed=11)
        pr = run_point(cfg, insts, 0.01, None)
        expected = build_compiled_program("add", 3, 3, None, "2q", 0.01)
        assert pr.program_fingerprint == expected.fingerprint

    def test_point_serialization_keeps_fingerprint(self):
        cfg = SweepConfig(
            operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
            error_rates=(0.0,), depths=(None,), instances=2, shots=64,
            trajectories=4, seed=11,
        )
        insts = generate_instances("add", 3, 3, (1, 1), 2, seed=11)
        pr = run_point(cfg, insts, 0.0, None)
        assert pr.program_fingerprint
        back = point_from_dict(point_to_dict(pr))
        assert back.program_fingerprint == pr.program_fingerprint

    def test_legacy_point_dict_defaults_to_empty_fingerprint(self):
        cfg = SweepConfig(
            operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
            error_rates=(0.0,), depths=(None,), instances=2, shots=64,
            trajectories=4, seed=11,
        )
        insts = generate_instances("add", 3, 3, (1, 1), 2, seed=11)
        d = point_to_dict(run_point(cfg, insts, 0.0, None))
        d.pop("program_fingerprint")
        assert point_from_dict(d).program_fingerprint == ""


# ---------------------------------------------------------------------------
# Resolved-method audit trail
# ---------------------------------------------------------------------------

class TestResolvedMethod:
    def test_auto_ideal_resolves_to_statevector(self):
        dist = simulate_distribution(bell())
        assert dist.method == "statevector"

    def test_auto_small_noisy_resolves_to_density(self):
        dist = simulate_distribution(
            bell(), NoiseModel.depolarizing(p1q=0.01)
        )
        assert dist.method == "density"

    def test_auto_records_trajectory_downgrade(self):
        """Large noisy circuits silently ran perturbative before; the
        substitution is now visible on the result."""
        qc = QuantumCircuit(11)
        for q in range(11):
            qc.x(q)
        dist = simulate_distribution(qc, NoiseModel.depolarizing(p1q=0.01))
        assert dist.method == "perturbative"

    def test_explicit_method_recorded(self):
        dist = simulate_distribution(
            bell(), NoiseModel.depolarizing(p1q=0.01), method="perturbative"
        )
        assert dist.method == "perturbative"

    def test_counts_carry_resolved_method(self):
        counts = simulate_counts(
            bell(), NoiseModel.depolarizing(p1q=0.01), shots=32,
            method="trajectory", trajectories=4, rng=np.random.default_rng(0),
        )
        assert counts.method == "trajectory"
        sampled = simulate_counts(bell(), shots=32)
        assert sampled.method == "statevector"

    def test_program_input_dispatch(self):
        noisy = compile_circuit(bell(), NoiseModel.depolarizing(p2q=0.01))
        assert simulate_distribution(noisy).method == "density"
        ideal = compile_circuit(bell())
        assert simulate_distribution(ideal).method == "statevector"

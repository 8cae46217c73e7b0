"""Compiled-program benchmarks: lowering cost and sweep cache behaviour.

* How long does a cold lowering + bind of the paper's QFM cell take,
  and how long does one trajectory run over the compiled program?
* Does a rate-only sweep lower exactly once, re-binding per rate?

Timings honour ``REPRO_SCALE``.  The trajectory engine runs compiled
programs only, so there is no interpreter baseline to race against.
"""

import pytest

from repro.core import qfm_circuit
from repro.noise import NoiseModel
from repro.noise.ibm import P2Q_SWEEP
from repro.sim import TrajectoryEngine
from repro.sim.program import (
    compile_cache_stats,
    compile_circuit,
    reset_compile_caches,
)
from repro.transpile import transpile

SHOTS = 1024
# Trajectory counts sized so a round stays in seconds at every scale;
# the per-trajectory kernel cost (what the IR accelerates) dominates.
_TRAJ = {"smoke": 8, "default": 16, "paper": 64}


@pytest.fixture(scope="module")
def qfm(scale):
    """The paper's multiplier cell at the current scale, transpiled."""
    return transpile(qfm_circuit(scale.qfm_n, scale.qfm_n))


@pytest.fixture(scope="module")
def noise():
    """The paper's 2q reference point (cx depolarizing at 1%)."""
    return NoiseModel.depolarizing(p2q=0.01)


def test_compile_latency(benchmark, qfm, noise):
    """Cold lowering + bind cost — what the cache amortises away."""

    def compile_cold():
        reset_compile_caches()
        return compile_circuit(qfm, noise)

    benchmark.pedantic(compile_cold, rounds=5, iterations=1)


def test_trajectory_program_path(benchmark, scale, qfm, noise):
    """Program-path trajectory run (compile cached outside the timer)."""
    program = compile_circuit(qfm, noise)

    def run():
        eng = TrajectoryEngine(trajectories=_TRAJ[scale.name], seed=7)
        return eng.run(program, noise, shots=SHOTS)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_rate_only_sweep_compiles_once(qfm):
    """A 2q-rate sweep lowers one skeleton and binds once per rate."""
    reset_compile_caches()
    rates = [r for r in P2Q_SWEEP if r > 0]
    programs = [
        compile_circuit(qfm, NoiseModel.depolarizing(p2q=r)) for r in rates
    ]
    stats = compile_cache_stats()
    assert stats.lowerings == 1, stats
    assert stats.binds == len(rates), stats
    assert len({p.fingerprint for p in programs}) == len(rates)
    # A second pass over the same rates is pure cache hits.
    for r in rates:
        compile_circuit(qfm, NoiseModel.depolarizing(p2q=r))
    assert stats.lowerings == 1, stats
    assert stats.bind_hits == len(rates), stats

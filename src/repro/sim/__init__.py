"""Simulation engines: statevector, density matrix, trajectories,
perturbative — plus the ``auto`` dispatcher used by the harness."""

from .batch import (
    FusedTrajectoryScheduler,
    TaskResult,
    TrajectoryTask,
    scheduler_stats,
)
from .density import DensityMatrix, DensityMatrixEngine
from .engines import (
    choose_method,
    simulate_counts,
    simulate_distribution,
)
from .perturbative import PerturbativeEngine
from .program import (
    CompiledProgram,
    compile_cache_stats,
    compile_circuit,
    kernel_cache_stats,
    reset_compile_caches,
)
from .result import Counts, Distribution, extract_register_values
from .statevector import Statevector, StatevectorEngine, zero_state
from .trajectories import TrajectoryEngine

__all__ = [
    "CompiledProgram",
    "compile_circuit",
    "compile_cache_stats",
    "kernel_cache_stats",
    "reset_compile_caches",
    "StatevectorEngine",
    "Statevector",
    "DensityMatrixEngine",
    "DensityMatrix",
    "TrajectoryEngine",
    "FusedTrajectoryScheduler",
    "TrajectoryTask",
    "TaskResult",
    "scheduler_stats",
    "PerturbativeEngine",
    "simulate_counts",
    "simulate_distribution",
    "choose_method",
    "Counts",
    "Distribution",
    "extract_register_values",
    "zero_state",
]

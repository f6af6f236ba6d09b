"""Qudit Hadamard-test and linear-response estimators for two-time spin correlations."""

import os
import sys

# One BLAS thread per process.  A study's parallelism is its thread pool:
# a second BLAS thread adds CPU and no wall time, and it changes how
# eigh, matmul and vector norms round, so the exact cells of a CSV would
# depend on the thread count.  BLAS reads these variables once, when
# NumPy loads it, so a process that imported NumPy first keeps its own
# count; set OPENBLAS_NUM_THREADS=1 there.
if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .register import (
    LocalOperator,
    QuditState,
    ancilla_zero_probability,
    apply_controlled,
    apply_local,
    basis_state,
    site_marginal,
)
from .observables import (
    HermitianObservable,
    decompose,
    spin_matrix,
)
from .dynamics import (
    Propagator,
    SparseHamiltonian,
    build_xxz,
    evolve,
    make_propagator,
)
from .hadamard import (
    CorrelatorEstimate,
    measure_dynamical_correlator,
    run_hadamard_circuit,
    variance_model,
)
from .linear_response import (
    LinearResponseConfig,
    measure_lr,
)
from .benchmark import (
    ConfigError,
    FigureOfMerit,
    RunConfig,
    StudyRow,
    connected_anticommutator,
    neel_superposition,
    relative_error,
    run_quench_study,
    time_averaged_std,
)

__version__ = "0.1.0"

__all__ = [
    "LocalOperator",
    "QuditState",
    "ancilla_zero_probability",
    "apply_controlled",
    "apply_local",
    "basis_state",
    "site_marginal",
    "HermitianObservable",
    "decompose",
    "spin_matrix",
    "Propagator",
    "SparseHamiltonian",
    "build_xxz",
    "evolve",
    "make_propagator",
    "CorrelatorEstimate",
    "measure_dynamical_correlator",
    "run_hadamard_circuit",
    "variance_model",
    "LinearResponseConfig",
    "measure_lr",
    "ConfigError",
    "FigureOfMerit",
    "RunConfig",
    "StudyRow",
    "connected_anticommutator",
    "neel_superposition",
    "relative_error",
    "run_quench_study",
    "time_averaged_std",
    "__version__",
]

"""Spin-1 XXZ chain Hamiltonians and exact-in-time propagators.

The chain is open, nearest-neighbor:

    H = sum_{i=1}^{N-1} [ J_xy (S^x_i S^x_{i+1} + S^y_i S^y_{i+1})
                          + J_z S^z_i S^z_{i+1} ],

with hbar = 1 and all times in units of 1/J_xy.  Pulsed perturbations
replace H by H - lambda*J_xy*S_j^z (Hermitian) or H - i*lambda*J_xy*S_j^z
(non-Hermitian); since each segment is time independent, piecewise
exponentials propagate exactly, with no splitting error.

Two propagation strategies are provided: dense eigendecomposition of a
Hermitian H for dimensions up to 729 (N <= 6), and the sparse action of the
exponential (SciPy's expm_multiply, Al-Mohy & Higham, SIAM J. Sci.
Comput. 33(2), 2011) for larger or non-Hermitian Hamiltonians and for
the pulses.  `trajectory` streams a state through a whole time grid
and is the only code that propagates, one path per strategy; `evolve`,
one exp(-i H t), is its one-time case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, norm

from .observables import spin_matrix
from .register import MAX_AMPLITUDES, QuditState

# 3^6, so N <= 6: at N = 7 one dense eigh took 15 s on 2 vCPUs, while a
# whole sparse trajectory takes 0.1 s.
DENSE_DIM_LIMIT = 729

HERMITIAN = "hermitian"
NON_HERMITIAN = "non_hermitian"

# Largest 1-norm of -i*H*t, times the number of vectors, handed to one
# expm_multiply call.  Up to ~63 / (number of vectors) SciPy picks its
# Taylor degree from the exact 1-norm of the (trace-shifted, so at most
# twice as large) operator; beyond it, from onenormest, which draws from
# the global np.random and would make the evolved state depend on that
# state.  Longer evolutions are split into equal sub-steps below this
# norm.
MAX_STEP_NORM = 16.0


@dataclass
class SparseHamiltonian:
    matrix: sp.csr_matrix
    dimension: int
    hermitian: bool
    couplings: tuple[float, float]  # (J_xy, J_z)
    n_sites: int

    def __post_init__(self):
        if self.matrix.shape != (self.dimension, self.dimension):
            raise ValueError("matrix shape does not match the declared dimension")
        if self.hermitian:
            err = abs(self.matrix - self.matrix.conj().T)
            worst = err.max() if err.nnz else 0.0
            if worst > 1e-12:
                raise ValueError(f"hermitian flag set but max|H - H^+| = {worst:.2e}")

    @property
    def j_xy(self) -> float:
        return self.couplings[0]


def site_sz_diagonal(n_sites: int, site: int) -> np.ndarray:
    """Diagonal of S^z on one site of the chain (S^z is diagonal in the product basis)."""
    sz = np.diag(spin_matrix(1, "z").matrix).real
    return np.kron(np.kron(np.ones(3**site), sz), np.ones(3 ** (n_sites - site - 1)))


def build_xxz(n_sites: int, j_xy: float, j_z: float) -> SparseHamiltonian:
    """Open-boundary spin-1 XXZ chain on n_sites >= 2 sites (dim 3^N)."""
    if n_sites < 2:
        raise ValueError("the chain needs at least 2 sites")
    dim = 3**n_sites
    if dim > MAX_AMPLITUDES:
        raise ValueError(
            f"dimension 3^{n_sites} = {dim} exceeds the {MAX_AMPLITUDES} budget"
        )
    sx = spin_matrix(1, "x").matrix
    sy = spin_matrix(1, "y").matrix
    sz = spin_matrix(1, "z").matrix
    bond = j_xy * (np.kron(sx, sx) + np.kron(sy, sy)) + j_z * np.kron(sz, sz)
    bond_s = sp.csr_matrix(bond)
    h = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for i in range(n_sites - 1):
        left = sp.identity(3**i, format="csr", dtype=np.complex128)
        right = sp.identity(3 ** (n_sites - i - 2), format="csr", dtype=np.complex128)
        h = h + sp.kron(sp.kron(left, bond_s), right, format="csr")
    return SparseHamiltonian(
        matrix=h.tocsr(),
        dimension=dim,
        hermitian=True,
        couplings=(float(j_xy), float(j_z)),
        n_sites=n_sites,
    )


def build_perturbed(
    h0: SparseHamiltonian, site: int, lam: float, kind: str
) -> SparseHamiltonian:
    """H0 - lambda*J_xy*S_j^z, or its non-Hermitian variant with lambda -> i*lambda."""
    if lam <= 0:
        raise ValueError("perturbation strength lambda must be positive")
    if not 0 <= site < h0.n_sites:
        raise IndexError(f"site {site} out of range for {h0.n_sites} sites")
    if kind not in (HERMITIAN, NON_HERMITIAN):
        raise ValueError(f"kind must be '{HERMITIAN}' or '{NON_HERMITIAN}'")
    pert = sp.diags(site_sz_diagonal(h0.n_sites, site) * (lam * h0.j_xy))
    if kind == HERMITIAN:
        mat = h0.matrix - pert
        hermitian = h0.hermitian
    else:
        mat = h0.matrix - 1j * pert
        hermitian = False
    return SparseHamiltonian(
        matrix=mat.tocsr(),
        dimension=h0.dimension,
        hermitian=hermitian,
        couplings=h0.couplings,
        n_sites=h0.n_sites,
    )


@dataclass
class Propagator:
    """Applies exp(-i H t) to the system block of a register.

    States whose trailing sites multiply out to the Hamiltonian
    dimension are accepted; any leading sites (the ancilla) are treated
    as batch indices and left untouched.  "dense-eig" diagonalizes a
    Hermitian H once; "sparse" works on the sparse H directly.
    """

    strategy: str  # "dense-eig" | "sparse"
    hamiltonian: SparseHamiltonian
    _eig: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.strategy not in ("dense-eig", "sparse"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "dense-eig":
            if not self.hamiltonian.hermitian:
                raise ValueError("dense-eig needs a Hermitian Hamiltonian; use sparse")
            if self.hamiltonian.dimension > DENSE_DIM_LIMIT:
                raise ValueError(
                    f"dense-eig limited to dimension {DENSE_DIM_LIMIT}, "
                    f"got {self.hamiltonian.dimension}"
                )
            self._eig = np.linalg.eigh(self.hamiltonian.matrix.toarray())


def make_propagator(h: SparseHamiltonian) -> Propagator:
    """dense-eig for a Hermitian H up to DENSE_DIM_LIMIT, sparse otherwise."""
    dense = h.hermitian and h.dimension <= DENSE_DIM_LIMIT
    return Propagator("dense-eig" if dense else "sparse", h)


def _check_system_block(state: QuditState, dim: int):
    """Raise unless the trailing sites of state multiply out to dim."""
    prod = 1
    for d in reversed(state.dims):
        prod *= d
        if prod >= dim:
            break
    if prod != dim:
        raise ValueError(
            f"state dims {state.dims} have no trailing block of dimension {dim}"
        )


def evolve(prop: Propagator, state: QuditState, duration: float) -> QuditState:
    """exp(-i H * duration)|state>, acting on the system sites only.

    The one-time case of trajectory.  Negative durations propagate
    backwards (needed when the second correlator time precedes the
    first).  Unitary evolution preserves the norm; non-Hermitian
    Hamiltonians return an unnormalized state whose squared norm is
    tracked by the QuditState itself.
    """
    return next(trajectory(prop, state, (duration,)))


def trajectory(prop: Propagator, state: QuditState, times):
    """Iterator over exp(-i H t)|state> for each t of a non-decreasing grid.

    Streams: one state is alive at a time, whatever the grid length.
    The leading (ancilla) sites are batch rows.  A time of 0 yields a
    copy of the state, never a view of it.
    """
    times = [float(t) for t in times]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("trajectory times must be non-decreasing")
    _check_system_block(state, prop.hamiltonian.dimension)
    if prop.strategy == "dense-eig":
        return _dense_trajectory(prop, state, times)
    return _sparse_trajectory(prop, state, times)


def _dense_trajectory(prop, state, times):
    """Project onto the eigenbasis once; each time is a phase and V c."""
    vals, vecs = prop._eig
    block = state.amplitudes.reshape(-1, prop.hamiltonian.dimension)
    coeff = (block.conj() @ vecs).conj()  # rows of V^+ x, without forming V^+
    for t in times:
        if t == 0.0:
            yield state.copy()
        else:
            out = (coeff * np.exp(-1j * vals * t)) @ vecs.T  # vecs.T is a view
            yield QuditState(state.shape, out.reshape(-1))


def _sparse_trajectory(prop, state, times):
    """Reach each time from the previous one by sub-stepped expm_multiply."""
    h = prop.hamiltonian.matrix
    now = 0.0
    for t in times:
        if t == now:
            yield state.copy()
            continue
        gen = -1j * (t - now) * h
        block = state.amplitudes.reshape(-1, prop.hamiltonian.dimension)
        steps = max(1, math.ceil(norm(gen, 1) * block.shape[0] / MAX_STEP_NORM))
        out = block.T  # all rows in one call, as the columns of block.T
        for _ in range(steps):
            out = expm_multiply(gen / steps, out)
        state, now = QuditState(state.shape, out.T.reshape(-1)), t
        yield state

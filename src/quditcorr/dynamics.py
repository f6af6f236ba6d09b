"""Spin-1 XXZ chain Hamiltonians and exact-in-time propagators.

The chain is open, nearest-neighbor:

    H = sum_{i=1}^{N-1} [ J_xy (S^x_i S^x_{i+1} + S^y_i S^y_{i+1})
                          + J_z S^z_i S^z_{i+1} ],

with hbar = 1 and all times in units of 1/J_xy.  Pulsed perturbations
replace H by H - lambda*J_xy*S_j^z (Hermitian) or H - i*lambda*J_xy*S_j^z
(non-Hermitian); since each segment is time independent, piecewise
exponentials propagate exactly, with no splitting error.

A propagator splits H once into the connected components of its sparsity
pattern (for the chain, the sectors of total S^z) and propagates only
the blocks that a state touches.  Two strategies are provided:
dense eigendecomposition of a Hermitian block of dimension up to
DENSE_BLOCK_LIMIT, and the sparse action of the exponential (SciPy's
expm_multiply, Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011) for
larger blocks, for non-Hermitian Hamiltonians and for the pulses.
`trajectory` streams a state through a whole time grid and is the only
code that propagates; `evolve`, one exp(-i H t), is its one-time case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, norm

from .observables import spin_matrix
from .register import MAX_AMPLITUDES, QuditState

# Largest block that "dense-eig" diagonalizes.  The chain's largest
# blocks have dimension 393 at N = 7, whose eigh takes ~0.05 s, and 1107
# at N = 8, whose eigh takes 1.5 s against 0.07 s for a whole sparse
# trajectory of the block (2 vCPUs).
DENSE_BLOCK_LIMIT = 500

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


def _diagonal_blocks(matrix: sp.csr_matrix):
    """(indices, sub-matrix) of each connected component of matrix's sparsity pattern.

    The components come from min-label propagation along the stored
    entries, in both directions, with pointer jumping: every label stays
    an index of its own component, and at the fixed point it is constant
    on each component.  A block's rows hold no column outside it, so
    its sub-matrix is its rows with each column index mapped to the
    position of that column within the block.
    """
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    cols = matrix.indices
    label = np.arange(matrix.shape[0])
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")  # ascending within each component
    bounds = [0, *(np.flatnonzero(np.diff(label[order])) + 1), order.size]
    local = np.empty_like(order)
    local[order] = np.arange(order.size) - np.repeat(bounds[:-1], np.diff(bounds))
    for start, stop in zip(bounds, bounds[1:]):
        index = order[start:stop]
        block_rows = matrix[index]
        sub = sp.csr_matrix(
            (block_rows.data, local[block_rows.indices], block_rows.indptr),
            shape=(index.size, index.size),
        )
        yield index, sub


@dataclass(frozen=True)
class Block:
    """One connected component of H's sparsity pattern and how it propagates.

    op is (eigenvalues, eigenvectors) for "dense-eig" and the sparse
    sub-matrix for "sparse".
    """

    index: np.ndarray  # full-space indices, ascending
    strategy: str
    op: object = field(repr=False)


def _block(sub, index: np.ndarray, strategy: str) -> Block:
    if strategy == "dense-eig" and index.size <= DENSE_BLOCK_LIMIT:
        dense = sub.toarray()
        if not dense.imag.any():
            # A real eigh is faster, and it moves results by less: 9.3e-15
            # against 1.6e-14 for a complex one on the N = 4 study.
            dense = dense.real
        return Block(index, strategy, np.linalg.eigh(dense))
    return Block(index, "sparse", sub)


@dataclass
class Propagator:
    """Applies exp(-i H t) to the system block of a register.

    States whose trailing sites multiply out to the Hamiltonian
    dimension are accepted; any leading sites (the ancilla) are treated
    as batch indices and left untouched.  H is split into the connected
    components of its sparsity pattern (blocks).  "dense-eig"
    diagonalizes each block of a Hermitian H up to DENSE_BLOCK_LIMIT and
    propagates larger ones sparsely; "sparse" works on the sparse
    sub-matrix of every block.  All of it happens here, so one
    propagator can serve several threads.
    """

    strategy: str  # "dense-eig" | "sparse"
    hamiltonian: SparseHamiltonian
    blocks: list[Block] = field(init=False, repr=False)

    def __post_init__(self):
        if self.strategy not in ("dense-eig", "sparse"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "dense-eig" and not self.hamiltonian.hermitian:
            raise ValueError("dense-eig needs a Hermitian Hamiltonian; use sparse")
        h = self.hamiltonian.matrix.tocsr()
        self.blocks = [_block(sub, idx, self.strategy) for idx, sub in _diagonal_blocks(h)]

    def blocks_touched(self, state: QuditState) -> list[Block]:
        """The blocks on which state has a nonzero amplitude in any batch row."""
        x = state.amplitudes.reshape(-1, self.hamiltonian.dimension)
        return [b for b in self.blocks if x[:, b.index].any()]


def make_propagator(h: SparseHamiltonian) -> Propagator:
    """dense-eig for a Hermitian H (dense where the block allows), sparse otherwise."""
    return Propagator("dense-eig" if h.hermitian else "sparse", h)


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
    return _block_trajectory(prop, state, times)


def _block_trajectory(prop, state, times):
    """Gather the touched blocks, stream them by their strategy, scatter each time.

    Each dense-eig block streams on its own.  The sparse ones stream
    together as one block-diagonal matrix, which pays SciPy's per-call
    setup once per step for all of them.
    """
    x = state.amplitudes.reshape(-1, prop.hamiltonian.dimension)
    touched = prop.blocks_touched(state)
    runs = [(b.index, _dense_stream, b.op) for b in touched if b.strategy == "dense-eig"]
    sparse = [b for b in touched if b.strategy == "sparse"]
    if sparse:
        index = np.concatenate([b.index for b in sparse])
        runs.append((index, _sparse_stream, sp.block_diag([b.op for b in sparse], format="csr")))
    streams = [
        (index, stream(op, np.ascontiguousarray(x[:, index].T), times))  # a column per batch row
        for index, stream, op in runs
    ]
    for _ in times:
        out = np.zeros_like(x)
        for index, stream in streams:
            out[:, index] = next(stream).T
        yield QuditState(state.shape, out.reshape(-1))


def _matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for a C-contiguous complex z; a real m takes z's real and imaginary parts at once."""
    if np.isrealobj(m):
        return (m @ z.view(np.float64)).view(np.complex128)
    return m @ z


def _dense_stream(eig, x, times):
    """Project onto the block's eigenbasis once; each time is a phase and V c."""
    vals, vecs = eig
    coeff = _matmul(vecs.conj().T, x)
    for t in times:
        yield x if t == 0.0 else _matmul(vecs, np.exp(-1j * vals * t)[:, None] * coeff)


def _sparse_stream(h, x, times):
    """Reach each time from the previous one by sub-stepped expm_multiply."""
    now = 0.0
    for t in times:
        if t != now:
            gen = -1j * (t - now) * h
            steps = max(1, math.ceil(norm(gen, 1) * x.shape[1] / MAX_STEP_NORM))
            for _ in range(steps):
                x = expm_multiply(gen / steps, x)  # all batch rows in one call
            now = t
        yield x

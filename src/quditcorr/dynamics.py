"""Spin-1 XXZ chain Hamiltonians and exact-in-time propagators.

The chain is open, nearest-neighbor:

    H = sum_{i=1}^{N-1} [ J_xy (S^x_i S^x_{i+1} + S^y_i S^y_{i+1})
                          + J_z S^z_i S^z_{i+1} ],

with hbar = 1 and all times in units of 1/J_xy.  Pulsed perturbations
replace H by H - lambda*J_xy*S_j^z (Hermitian) or H - i*lambda*J_xy*S_j^z
(non-Hermitian); since each segment is time independent, piecewise
exponentials propagate exactly, with no splitting error.

Two propagation strategies are provided: dense eigendecomposition for
dimensions up to 4096, and Krylov expm-action (Lanczos for Hermitian,
Arnoldi otherwise) with adaptive sub-stepping for larger registers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .observables import spin_matrix
from .register import MAX_AMPLITUDES, QuditState

DENSE_DIM_LIMIT = 4096

HERMITIAN = "hermitian"
NON_HERMITIAN = "non_hermitian"


class KrylovConvergenceError(RuntimeError):
    """Raised when the Krylov step cannot reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


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
    as batch indices and left untouched.
    """

    strategy: str  # "dense-eig" | "krylov"
    hamiltonian: SparseHamiltonian
    tolerance: float = 1e-9
    max_krylov_dim: int = 30
    _eig: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.strategy not in ("dense-eig", "krylov"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "dense-eig":
            if self.hamiltonian.dimension > DENSE_DIM_LIMIT:
                raise ValueError(
                    f"dense-eig limited to dimension {DENSE_DIM_LIMIT}, "
                    f"got {self.hamiltonian.dimension}"
                )
            self._prepare_dense()

    def _prepare_dense(self):
        dense = self.hamiltonian.matrix.toarray()
        if self.hamiltonian.hermitian:
            vals, vecs = np.linalg.eigh(dense)
            self._eig = ("eigh", vals, vecs)
        else:
            vals, vecs = scipy.linalg.eig(dense)
            # A nearly defective eigenvector matrix would poison the
            # similarity transform; fall back to per-call expm.
            if np.linalg.cond(vecs) < 1e8:
                self._eig = ("eig", vals, vecs, np.linalg.inv(vecs))
            else:
                self._eig = ("expm", dense)


def make_propagator(
    h: SparseHamiltonian,
    strategy: str | None = None,
    tolerance: float = 1e-9,
    max_krylov_dim: int = 30,
) -> Propagator:
    if strategy is None:
        strategy = "dense-eig" if h.dimension <= DENSE_DIM_LIMIT else "krylov"
    return Propagator(strategy, h, tolerance, max_krylov_dim)


def _system_block(state: QuditState, dim: int) -> int:
    """Number of trailing sites forming the system block of size dim."""
    prod = 1
    for k in range(len(state.dims) - 1, -1, -1):
        prod *= state.dims[k]
        if prod == dim:
            return k
        if prod > dim:
            break
    raise ValueError(
        f"state dims {state.dims} have no trailing block of dimension {dim}"
    )


def evolve(prop: Propagator, state: QuditState, duration: float) -> QuditState:
    """exp(-i H * duration)|state>, acting on the system sites only.

    Negative durations propagate backwards (needed when the second
    correlator time precedes the first).  Unitary evolution preserves
    the norm; non-Hermitian Hamiltonians return an unnormalized state
    whose squared norm is tracked by the QuditState itself.
    """
    dim = prop.hamiltonian.dimension
    _system_block(state, dim)
    if duration == 0.0:
        return state.copy()
    block = state.amplitudes.reshape(-1, dim)
    if prop.strategy == "dense-eig":
        out = _evolve_dense(prop, block, duration)
    else:
        out = np.empty_like(block)
        for r in range(block.shape[0]):
            out[r] = _expm_action_krylov(
                prop.hamiltonian,
                block[r],
                duration,
                prop.tolerance,
                prop.max_krylov_dim,
            )
    return QuditState(state.shape, out.reshape(-1))


def _evolve_dense(prop: Propagator, block: np.ndarray, duration: float) -> np.ndarray:
    kind = prop._eig[0]
    if kind == "eigh":
        _, vals, vecs = prop._eig
        phases = np.exp(-1j * vals * duration)
        coeff = vecs.conj().T @ block.T
        return (vecs @ (phases[:, None] * coeff)).T
    if kind == "eig":
        _, vals, vecs, vinv = prop._eig
        phases = np.exp(-1j * vals * duration)
        coeff = vinv @ block.T
        return (vecs @ (phases[:, None] * coeff)).T
    _, dense = prop._eig
    u = scipy.linalg.expm(-1j * duration * dense)
    return (u @ block.T).T


def _lanczos(matvec, v0: np.ndarray, m_max: int):
    """Hermitian Krylov basis; returns (V, T, beta_next, happy)."""
    n = v0.shape[0]
    V = np.empty((m_max, n), dtype=np.complex128)
    alpha = np.empty(m_max)
    beta = np.empty(m_max)
    V[0] = v0
    w = matvec(v0)
    alpha[0] = np.real(np.vdot(V[0], w))
    w = w - alpha[0] * V[0]
    m = 1
    happy = False
    beta_next = 0.0
    for j in range(1, m_max):
        # Full reorthogonalization: cheap at m <= 30 and avoids ghost modes.
        for k in range(j):
            w = w - np.vdot(V[k], w) * V[k]
        b = float(np.linalg.norm(w))
        if b < 1e-14:
            happy = True
            break
        beta[j - 1] = b
        V[j] = w / b
        w = matvec(V[j])
        alpha[j] = np.real(np.vdot(V[j], w))
        w = w - alpha[j] * V[j] - b * V[j - 1]
        m = j + 1
    else:
        for k in range(m_max):
            w = w - np.vdot(V[k], w) * V[k]
        beta_next = float(np.linalg.norm(w))
    T = np.diag(alpha[:m]).astype(np.complex128)
    for j in range(m - 1):
        T[j, j + 1] = T[j + 1, j] = beta[j]
    return V[:m], T, beta_next, happy


def _arnoldi(matvec, v0: np.ndarray, m_max: int):
    """General Krylov basis; returns (V, H, h_next, happy)."""
    n = v0.shape[0]
    V = np.empty((m_max, n), dtype=np.complex128)
    H = np.zeros((m_max, m_max), dtype=np.complex128)
    V[0] = v0
    m = m_max
    happy = False
    h_next = 0.0
    for j in range(m_max):
        w = matvec(V[j])
        for k in range(j + 1):
            H[k, j] = np.vdot(V[k], w)
            w = w - H[k, j] * V[k]
        b = float(np.linalg.norm(w))
        if j + 1 == m_max:
            h_next = b
            break
        if b < 1e-14:
            m = j + 1
            happy = True
            break
        H[j + 1, j] = b
        V[j + 1] = w / b
    return V[:m], H[:m, :m], h_next, happy


def _expm_action_krylov(
    h: SparseHamiltonian,
    v: np.ndarray,
    t: float,
    tol: float,
    m_max: int,
    max_halvings: int = 60,
) -> np.ndarray:
    """exp(-i H t) v via a Krylov subspace with adaptive sub-stepping.

    The per-step error is estimated from the first neglected basis
    vector (the usual last-component heuristic); a step failing its
    share of the tolerance budget is halved and retried.
    """
    beta0 = float(np.linalg.norm(v))
    if beta0 == 0.0:
        return v.copy()
    mat = h.matrix
    matvec = mat.dot
    build = _lanczos if h.hermitian else _arnoldi

    x = v.copy()
    done = 0.0
    total = float(t)
    while abs(total - done) > 1e-15 * max(1.0, abs(total)):
        beta = float(np.linalg.norm(x))
        if beta == 0.0:
            return x
        V, T, h_next, happy = build(matvec, x / beta, m_max)
        tau = total - done
        residual = math.inf
        for _ in range(max_halvings):
            small_u = scipy.linalg.expm(-1j * tau * T)
            y = small_u[:, 0]
            residual = 0.0 if happy else float(h_next * abs(y[-1]))
            budget = tol * max(beta0, 1.0) * max(abs(tau) / abs(total), 1e-3)
            if residual <= budget:
                x = beta * (y @ V)
                done += tau
                break
            tau /= 2.0
        else:
            raise KrylovConvergenceError(
                f"no convergence within max_krylov_dim={m_max} "
                f"after {max_halvings} step halvings",
                residual,
            )
    return x

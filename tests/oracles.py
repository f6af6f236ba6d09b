"""Independent dense references for the test suite.

Everything here is built from np.kron and scipy.linalg.expm only, so
the brute-force values never share code with the package's stride
kernels, sparse Hamiltonians, or propagators; `pulse_diagonal` builds an
LR pulse's whole diagonal from np.kron, for build_perturbed.  The
adapters at the end only reach the package's own objects: `csr` turns
H's arrays into a SciPy matrix, `propagator` picks a kernel by name,
`start` turns a register into a trajectory start, `blocks_touched` gives
the blocks a register touches, and `taylor_evolve` runs the Taylor kernel
on H's whole matrix, with no block split and no Hermitian check.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from quditcorr import dynamics
from quditcorr.dynamics import Propagator

SQ2 = np.sqrt(2.0)
SX1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQ2
SY1 = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQ2
SZ1 = np.diag([1.0, 0.0, -1.0]).astype(complex)


def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def site_op(n, i, local):
    ops = [np.eye(3, dtype=complex)] * n
    ops[i] = local
    return kron_chain(ops)


def dense_xxz(n, jxy, jz):
    h = np.zeros((3**n, 3**n), dtype=complex)
    for i in range(n - 1):
        for a, c in ((SX1, jxy), (SY1, jxy), (SZ1, jz)):
            ops = [np.eye(3, dtype=complex)] * n
            ops[i] = a
            ops[i + 1] = a
            h += c * kron_chain(ops)
    return h


def neel_superposition_vec(n):
    amp = np.zeros(3**n, dtype=complex)
    idx_a = idx_b = 0
    for k in range(n):
        idx_a = idx_a * 3 + (0 if k % 2 == 0 else 2)
        idx_b = idx_b * 3 + (2 if k % 2 == 0 else 0)
    amp[idx_a] = amp[idx_b] = 1.0 / SQ2
    return amp


def u_matrix(h, t):
    return scipy.linalg.expm(-1j * h * t)


def heisenberg_pair(h, psi, a, b, t1, t2):
    """(anti-commutator, commutator) of a(t1), b(t2) in state psi."""
    u1, u2 = u_matrix(h, t1), u_matrix(h, t2)
    at = u1.conj().T @ a @ u1
    bt = u2.conj().T @ b @ u2
    anti = np.vdot(psi, (at @ bt + bt @ at) @ psi)
    comm = 1j * np.vdot(psi, (at @ bt - bt @ at) @ psi)
    return float(anti.real), float(comm.real)


def connected_pair(h, psi, site_a, site_b, t1, t2):
    """Same, with the anti-commutator's disconnected part subtracted."""
    n = int(round(np.log(h.shape[0]) / np.log(3)))
    a = site_op(n, site_a, SZ1)
    b = site_op(n, site_b, SZ1)
    anti, comm = heisenberg_pair(h, psi, a, b, t1, t2)
    u1, u2 = u_matrix(h, t1), u_matrix(h, t2)
    ea = float(np.vdot(psi, u1.conj().T @ a @ u1 @ psi).real)
    eb = float(np.vdot(psi, u2.conj().T @ b @ u2 @ psi).real)
    return anti - 2.0 * ea * eb, comm


def site_sz(n, site):
    """The diagonal of S^z on one site of an n-site chain."""
    return kron_chain([np.ones(3)] * site + [np.diag(SZ1).real] + [np.ones(3)] * (n - site - 1))


def pulse_diagonal(h0, site, lam, kind):
    """The diagonal of -lam J_xy S^z_site on h0's chain, times i for the non-Hermitian kind."""
    pert = site_sz(h0.n_sites, site) * (lam * h0.j_xy)
    return -pert if kind == "hermitian" else -1j * pert


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def csr(h):
    """H as a SciPy CSR matrix, built from its data, indices and indptr."""
    return sp.csr_matrix((h.data, h.indices, h.indptr), shape=(h.dimension,) * 2)


def propagator(kernel, h):
    """A propagator of h whose blocks run the named kernel.

    "dense-eig" is Propagator(h), which diagonalizes its blocks up to
    DENSE_BLOCK_LIMIT.  "sparse" is its zero pulse, strength 0 on site 0,
    which sends every block through the Taylor kernel.  Either checks each
    block of h Hermitian when a state first touches it, so a non-Hermitian
    h is refused.
    """
    prop = Propagator(h)
    return prop.pulse(0, 0.0) if kernel == "sparse" else prop


def start(state):
    """A register as a trajectory start: its support's basis indices, and its amplitudes there.

    The system is the register's trailing spin-1 sites; an ancilla qubit at
    site 0 gives the start a second batch row.
    """
    x = state.amplitudes.reshape(-1, 3 ** (len(state.dims) - (state.dims[0] == 2)))
    index = np.flatnonzero(x.any(axis=0))
    return index, x[:, index]


def blocks_touched(prop, state):
    """The blocks of prop on which a register has a nonzero amplitude in any batch row."""
    return prop.blocks_of(start(state)[0])


def taylor_evolve(h, state, t):
    """exp(-i h t)|state> by the Taylor kernel on h's whole matrix, a non-Hermitian h too."""
    x = np.ascontiguousarray(state.amplitudes.reshape(-1, h.dimension).T)
    return next(dynamics._taylor_stream(dynamics._taylor_op(csr(h)), x, [t])).T.reshape(-1)

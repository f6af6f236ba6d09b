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

H is built and split with NumPy alone.  SciPy is loaded only when a
sparse block first propagates: the chain's blocks above the limit
(N >= 8), a non-Hermitian H and the pulses.  A study whose blocks are
all dense-eig never imports it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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


class _Csr(NamedTuple):
    """The three arrays of a CSR matrix."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _rows(indptr: np.ndarray) -> np.ndarray:
    """Row index of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _canonical_csr(matrix, dim: int):
    """(data, indices, indptr) of matrix with each row's columns ascending and duplicates summed.

    The column indices are int32, as SciPy stores them at these sizes
    (dim <= MAX_AMPLITUDES < 2^31); keys that combine rows and columns
    are computed in 64 bits.
    """
    if hasattr(matrix, "tocsr"):  # a SciPy sparse matrix in any format
        matrix = matrix.tocsr()
    data = np.asarray(matrix.data, dtype=np.complex128)
    indices = np.asarray(matrix.indices)
    indptr = np.asarray(matrix.indptr, dtype=np.int64)
    if (
        getattr(matrix, "shape", (dim, dim)) != (dim, dim)
        or indptr.shape != (dim + 1,)
        or (indices.size and not 0 <= indices.min() <= indices.max() < dim)
    ):
        raise ValueError("matrix shape does not match the declared dimension")
    indices = indices.astype(np.int32, copy=False)
    key = _rows(indptr)
    key *= dim
    key += indices
    if np.all(key[1:] > key[:-1]):
        return data, indices, indptr
    order = np.argsort(key, kind="stable")
    key, first = np.unique(key[order], return_index=True)
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // dim, minlength=dim), out=indptr[1:])
    return np.add.reduceat(data[order], first), (key % dim).astype(np.int32), indptr


def _hermitian_error(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> float:
    """max|H - H^+| over the stored entries of a canonical CSR matrix.

    An entry whose mirror is not stored counts whole.
    """
    rows, dim = _rows(indptr), indptr.size - 1
    # The entries in column-major order: a stable sort by column, done as
    # one sort of the column and the position packed into one integer.
    shift = data.size.bit_length()
    order = indices.astype(np.int64)
    order <<= shift
    order |= np.arange(data.size)
    order.sort()
    order &= (1 << shift) - 1
    if np.array_equal(indices[order], rows) and np.array_equal(rows[order], indices):
        # A symmetric pattern: entry order[j] is the mirror of entry j.
        diff = np.conjugate(data[order])
        return float(np.abs(np.subtract(data, diff, out=diff)).max(initial=0.0))
    cols = indices.astype(np.int64)
    key, mirror = rows * dim + cols, cols * dim + rows
    at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
    partner = np.where(key[at] == mirror, data[at].conj(), 0.0)
    return float(np.abs(data - partner).max(initial=0.0))


class SparseHamiltonian:
    """H as the NumPy arrays data, indices and indptr of a canonical CSR matrix.

    matrix is anything with data/indices/indptr arrays, a SciPy CSR
    matrix included; duplicate entries are summed.  The attribute
    `matrix` gives H back as a SciPy CSR matrix, built on first use; the
    propagators never ask for it, so building and propagating H by
    dense-eig blocks loads no SciPy.
    """

    def __init__(self, matrix, dimension: int, hermitian: bool, couplings, n_sites: int):
        self.data, self.indices, self.indptr = _canonical_csr(matrix, dimension)
        self.dimension = dimension
        self.hermitian = hermitian
        self.couplings = couplings  # (J_xy, J_z)
        self.n_sites = n_sites
        if hermitian:
            worst = _hermitian_error(self.data, self.indices, self.indptr)
            if worst > 1e-12:
                raise ValueError(f"hermitian flag set but max|H - H^+| = {worst:.2e}")

    @property
    def j_xy(self) -> float:
        return self.couplings[0]

    @functools.cached_property
    def matrix(self):
        """H as a SciPy CSR matrix; loads SciPy."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.dimension,) * 2)


def site_sz_diagonal(n_sites: int, site: int) -> np.ndarray:
    """Diagonal of S^z on one site of the chain (S^z is diagonal in the product basis)."""
    sz = np.diag(spin_matrix(1, "z").matrix).real
    return np.kron(np.kron(np.ones(3**site), sz), np.ones(3 ** (n_sites - site - 1)))


def build_xxz(n_sites: int, j_xy: float, j_z: float) -> SparseHamiltonian:
    """Open-boundary spin-1 XXZ chain on n_sites >= 2 sites (dim 3^N).

    The diagonal is summed over the bonds in order.  Every nonzero
    off-diagonal entry of a bond term is a group of entries of H, in the
    rows where the bond's two sites hold its row pair, all at one column
    offset; no two bonds share an entry.  Written out group by group in
    ascending offset, every row's columns come out ascending.
    """
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

    def by_pair(v, i):
        """v over the basis as (left sites, pair on bond i, right sites)."""
        return v.reshape(3**i, 9, 3 ** (n_sites - i - 2))

    off = bond - np.diag(np.diag(bond))
    diag = np.zeros(dim, dtype=np.complex128)
    count = np.zeros(dim, dtype=np.int64)  # stored entries per row
    groups = [(0, None, 0, 0)]  # (column offset, bond, pair p, pair q); bond None: the diagonal
    for i in range(n_sites - 1):
        by_pair(diag, i)[...] += np.diag(bond)[:, None]
        by_pair(count, i)[...] += np.count_nonzero(off, axis=1)[:, None]
        step = 3 ** (n_sites - i - 2)  # the column offset of a unit step in the pair index
        groups += [((q - p) * step, i, p, q) for p, q in zip(*np.nonzero(off))]
    count += diag != 0
    groups.sort(key=lambda g: g[0])
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(count, out=indptr[1:])
    # Each entry's group number goes to the next free place of its row,
    # group by group in ascending offset; the columns then ascend.
    group = np.empty(indptr[-1], dtype=np.uint16)
    fill = indptr[:-1].copy()
    for g, (_, i, p, _) in enumerate(groups):
        if i is None:
            on_diag = g
            rows = np.flatnonzero(diag)
            group[fill[rows]] = g
            fill[rows] += 1
        else:
            at = by_pair(fill, i)[:, p]  # a view: the += below advances fill
            group[at] = g
            at += 1
    data = (np.array([bond[p, q] for _, _, p, q in groups]) + 0.0)[group]  # + 0.0: no -0.0 parts
    data[group == on_diag] = diag[diag != 0]
    indices = np.repeat(np.arange(dim, dtype=np.int32), count)
    indices += np.array([g[0] for g in groups], dtype=np.int32)[group]
    return SparseHamiltonian(
        _Csr(data, indices, indptr),
        dimension=dim,
        hermitian=True,
        couplings=(float(j_xy), float(j_z)),
        n_sites=n_sites,
    )


def build_perturbed(
    h0: SparseHamiltonian, site: int, lam: float, kind: str
) -> SparseHamiltonian:
    """H0 - lambda*J_xy*S_j^z, or its non-Hermitian variant with lambda -> i*lambda.

    Only the diagonal changes, and H0's off-diagonal entries keep their
    order: a diagonal entry of H0 is overwritten, or deleted where the
    sum is zero, and a new one is inserted after its row's columns left
    of it.
    """
    if lam <= 0:
        raise ValueError("perturbation strength lambda must be positive")
    if not 0 <= site < h0.n_sites:
        raise IndexError(f"site {site} out of range for {h0.n_sites} sites")
    if kind not in (HERMITIAN, NON_HERMITIAN):
        raise ValueError(f"kind must be '{HERMITIAN}' or '{NON_HERMITIAN}'")
    dim = h0.dimension
    # Where each row's diagonal entry is stored, or would go.
    key, diag_key = _rows(h0.indptr) * dim + h0.indices, np.arange(dim) * (dim + 1)
    at = np.searchsorted(key, diag_key)
    had = np.zeros(dim, dtype=bool)
    inside = at < key.size
    had[inside] = key[at[inside]] == diag_key[inside]
    diag = np.zeros(dim, dtype=np.complex128)
    diag[had] = h0.data[at[had]]
    pert = site_sz_diagonal(h0.n_sites, site) * (lam * h0.j_xy)
    diag = diag - (pert if kind == HERMITIAN else 1j * pert)
    keep = diag != 0
    stay, gone, new = had & keep, had & ~keep, keep & ~had
    drop = at[gone]
    data = np.delete(h0.data, drop)
    data[at[stay] - np.searchsorted(drop, at[stay])] = diag[stay]
    put = at[new] - np.searchsorted(drop, at[new])  # positions once drop is gone
    indptr = h0.indptr.copy()
    indptr[1:] += np.cumsum(new.astype(np.int64) - gone)
    h = SparseHamiltonian(
        _Csr(
            np.insert(data, put, diag[new]),
            np.insert(np.delete(h0.indices, drop), put, np.flatnonzero(new)),
            indptr,
        ),
        dimension=dim,
        hermitian=False,
        couplings=h0.couplings,
        n_sites=h0.n_sites,
    )
    # Adding a real diagonal leaves max|H - H^+| as H0's own check found it.
    h.hermitian = h0.hermitian and kind == HERMITIAN
    return h


def _diagonal_blocks(h: SparseHamiltonian):
    """(indices, CSR arrays) of each connected component of H's sparsity pattern.

    The components come from min-label propagation along the stored
    entries, in both directions, with pointer jumping: every label stays
    an index of its own component, and at the fixed point it is constant
    on each component.  A block's rows hold no column outside it, so
    its sub-matrix is its rows with each column index mapped to the
    position of that column within the block.
    """
    rows = _rows(h.indptr)
    cols = h.indices
    label = np.arange(h.dimension)
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
    local = np.empty(order.size, dtype=np.int32)
    local[order] = np.arange(order.size) - np.repeat(bounds[:-1], np.diff(bounds))
    counts = np.diff(h.indptr)
    for start, stop in zip(bounds, bounds[1:]):
        index = order[start:stop]
        ptr = np.zeros(index.size + 1, dtype=np.int64)
        np.cumsum(counts[index], out=ptr[1:])
        take = np.repeat(h.indptr[index] - ptr[:-1], counts[index]) + np.arange(ptr[-1])
        yield index, _Csr(h.data[take], local[h.indices[take]], ptr)


@dataclass(frozen=True)
class Block:
    """One connected component of H's sparsity pattern and how it propagates.

    op is (eigenvalues, eigenvectors) for "dense-eig" and the CSR arrays
    of the sub-matrix for "sparse".
    """

    index: np.ndarray  # full-space indices, ascending
    strategy: str
    op: object = field(repr=False)


def _block(sub: _Csr, index: np.ndarray, strategy: str) -> Block:
    if strategy == "dense-eig" and index.size <= DENSE_BLOCK_LIMIT:
        dense = np.zeros((index.size, index.size), dtype=np.complex128)
        dense[_rows(sub.indptr), sub.indices] = sub.data
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
        self.blocks = [
            _block(sub, idx, self.strategy) for idx, sub in _diagonal_blocks(self.hamiltonian)
        ]

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
        runs.append((index, _sparse_stream, [b.op for b in sparse]))
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


def _sparse_stream(blocks, x, times):
    """Reach each time from the previous one by sub-stepped expm_multiply.

    The blocks' CSR arrays become one block-diagonal SciPy matrix.  SciPy
    is loaded here, when a sparse block first runs: a study whose blocks
    are all dense-eig never loads it.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply, norm

    blocks = [sp.csr_matrix(b, shape=(b.indptr.size - 1,) * 2) for b in blocks]
    h = sp.block_diag(blocks, format="csr")
    now = 0.0
    for t in times:
        if t != now:
            gen = -1j * (t - now) * h
            steps = max(1, math.ceil(norm(gen, 1) * x.shape[1] / MAX_STEP_NORM))
            for _ in range(steps):
                x = expm_multiply(gen / steps, x)  # all batch rows in one call
            now = t
        yield x

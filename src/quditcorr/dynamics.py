"""Spin-1 XXZ chain Hamiltonians and exact-in-time propagators.

The chain is open, nearest-neighbor:

    H = sum_{i=1}^{N-1} [ J_xy (S^x_i S^x_{i+1} + S^y_i S^y_{i+1})
                          + J_z S^z_i S^z_{i+1} ],

with hbar = 1 and all times in units of 1/J_xy.  A pulse adds a diagonal
to H for its duration (linear_response builds the LR pulses' diagonals);
since each segment is time independent, piecewise exponentials
propagate exactly, with no splitting error.

H conserves total S^z, so a propagator splits it into the 2N + 1
sectors of total S^z, found from the digits of each basis index, and
propagates only the blocks that a state touches, each on its own: by dense
eigendecomposition (up to DENSE_BLOCK_LIMIT) or by a truncated Taylor
kernel (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011; larger
blocks, and every block of a pulse, Propagator.pulse(diagonal), which
propagates H + diag(diagonal) on prop's sectors).  `trajectory` streams a
state through a whole time grid and is the only code that propagates;
`evolve`, one exp(-i H t), is its one-time case.

H is NumPy CSR arrays only, built and split with NumPy; a block builds
its operator from them when a state first touches it (see Block).
The Taylor kernel multiplies by a dense NumPy block up to the limit and
by a SciPy CSR block above it: SciPy loads where such a block propagates
(N >= 8) and in build_perturbed only.
"""

from __future__ import annotations

import collections
import copy
import math
import sys
import threading

import numpy as np

from .observables import require_hermitian, spin_matrix
from .register import MAX_AMPLITUDES, QuditState

# Largest block that "dense-eig" diagonalizes.  The chain's largest
# blocks have dimension 393 at N = 7, whose eigh takes ~0.05 s, and 1107
# at N = 8, whose eigh takes 1.5 s against 0.07 s for a whole sparse
# trajectory of the block (2 vCPUs).
DENSE_BLOCK_LIMIT = 500

# Most Taylor steps that one trajectory of one block may take, counted
# from its time grid before the first product.  A step is up to 55
# products with the block, about 10 ms at N = 10 (dimension 8953), so the
# limit is some 15 min of one trajectory there.  The count grows with
# |t| times the block's 1-norm: a t_max or pulse duration of 1e9 needs
# about 1e9 steps and would run for years instead of failing.  A study's
# plan (benchmark.study_plan) refuses such a trajectory before H is built.
MAX_TAYLOR_STEPS = 10**5

# theta_m of Al-Mohy & Higham (2011), as in SciPy: the largest 1-norm of
# a step's generator for which m Taylor terms reach double precision.
_THETA = dict(zip(
    [*range(1, 31), 35, 40, 45, 50, 55],
    [2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1,
     2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26, 1.44,
     1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9],
))


_Csr = collections.namedtuple("_Csr", "data indices indptr")  # the arrays of a CSR matrix


def _rows(indptr: np.ndarray) -> np.ndarray:
    """Row index of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _canonical_csr(matrix):
    """(data, indices, indptr) of a square CSR matrix whose columns ascend strictly in each row.

    Anything else is refused, not repaired.  The column indices are
    int32, as SciPy stores them at these sizes (dim <= MAX_AMPLITUDES <
    2^31); each is compared with its left neighbour, a byte per entry.
    """
    data = np.asarray(matrix.data, dtype=np.complex128)
    indices = np.asarray(matrix.indices)
    indptr = np.asarray(matrix.indptr, dtype=np.int64)
    dim = indptr.size - 1
    if data.shape != indices.shape:
        raise ValueError(f"CSR data has {data.size} entries but indices {indices.size}")
    if dim < 0 or indptr[0] != 0:
        raise ValueError("CSR indptr must start at 0")
    if np.any(np.diff(indptr) < 0) or indptr[-1] != indices.size:
        raise ValueError(f"CSR indptr must not decrease and must end at {indices.size} entries")
    square = getattr(matrix, "shape", (dim, dim)) == (dim, dim)
    if not square or indices.min(initial=0) < 0 or indices.max(initial=-1) >= dim:
        raise ValueError(f"matrix is not square with its {dim} rows")
    indices = indices.astype(np.int32, copy=False)
    ascends = indices[1:] > indices[:-1]  # entry k + 1's column is above entry k's
    starts = indptr[1:-1]  # a row's first entry has no left neighbour in its row
    ascends[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    if not ascends.all():
        raise ValueError("CSR columns must ascend strictly in each row: sum duplicates first")
    return data, indices, indptr


class SparseHamiltonian:
    """H of a chain of n_sites spin-1 sites as the NumPy arrays of a canonical CSR matrix.

    matrix is anything with data/indices/indptr arrays, a SciPy CSR
    matrix included; its dimension, the rows of indptr, must be 3^N,
    which gives n_sites = N.  These arrays are the only form of H:
    nothing here converts it to SciPy or checks it (see Block).  j_xy,
    the flip-flop coupling, scales the pulses.
    """

    def __init__(self, matrix, j_xy: float):
        self.data, self.indices, self.indptr = _canonical_csr(matrix)
        self.dimension = self.indptr.size - 1
        self.n_sites = round(math.log(max(self.dimension, 1), 3))
        if self.n_sites < 1 or 3**self.n_sites != self.dimension:
            raise ValueError(f"dimension {self.dimension} is not 3^N for N >= 1 sites")
        self.j_xy = float(j_xy)


def site_sz_diagonal(n_sites: int, site: int) -> np.ndarray:
    """Diagonal of S^z on one site of the chain (S^z is diagonal in the product basis)."""
    sz = np.diag(spin_matrix(1, "z").matrix).real
    return np.kron(np.kron(np.ones(3**site), sz), np.ones(3 ** (n_sites - site - 1)))


def check_dimension(n_sites: int) -> None:
    """Refuse a chain whose 3^N amplitudes exceed MAX_AMPLITUDES, before 3^N is formed."""
    if n_sites > math.log(MAX_AMPLITUDES, 3):  # 3^N itself takes minutes at N = 10^8
        shown = f" = {3**n_sites}" if n_sites < 40 else ""
        raise ValueError(f"dimension 3^{n_sites}{shown} exceeds the {MAX_AMPLITUDES} budget")


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
    check_dimension(n_sites)
    dim = 3**n_sites
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
    return SparseHamiltonian(_Csr(data, indices, indptr), j_xy)


def build_perturbed(h0: SparseHamiltonian, diagonal: np.ndarray) -> SparseHamiltonian:
    """H0 + diag(diagonal) as one matrix: the tested reference of Propagator.pulse(diagonal).

    The pulses add the diagonal to the blocks of H0's propagator instead,
    so no study calls this; an anti-Hermitian diagonal propagates only as
    a pulse.  It adds with SciPy, which drops a diagonal entry that sums to zero.
    """
    import scipy.sparse as sp

    h = sp.csr_matrix((h0.data, h0.indices, h0.indptr), shape=(h0.dimension,) * 2)
    return SparseHamiltonian(h + sp.diags(diagonal), h0.j_xy)


def _diagonal_blocks(h: SparseHamiltonian):
    """(indices of each total-S^z sector, local); an entry of H between two sectors is refused.

    An index's sector is its base-3 digit sum, N - S^z.  The sectors come
    in ascending digit sum, which is ascending smallest index.  local[i]
    is the position of index i within its sector, so a block's sub-matrix
    is its rows of H with each column mapped through local.
    """
    digits = np.zeros(1, dtype=np.int8)
    for _ in range(h.n_sites):
        digits = np.add.outer(digits, np.arange(3, dtype=np.int8)).reshape(-1)
    if np.any(np.repeat(digits, np.diff(h.indptr)) != digits[h.indices]):
        raise ValueError("H has an entry between two total-S^z sectors")
    order = np.argsort(digits, kind="stable")
    sizes = np.bincount(digits)
    local = np.empty(order.size, dtype=np.int32)
    local[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return np.split(order, np.cumsum(sizes)[:-1]), local


class Block:
    """One total-S^z sector of the chain and how its propagator's generator propagates in it.

    Unpulsed, H propagates by "dense-eig", op (eigenvalues, eigenvectors),
    up to DENSE_BLOCK_LIMIT and by "sparse", op the Taylor kernel's
    operator, above it, each checked first by require_hermitian (on the
    array eigh reads or the SciPy CSR sub-matrix); pulsed, H + diag(pulse)
    runs the Taylor kernel, unchecked.  A block holds its indices and no
    entry of H: sub() gathers its sub-matrix from H's own arrays, and op
    is built from it on the first read, under its propagator's lock, so a
    block that no state touches is never checked, factorized or converted.
    """

    def __init__(self, index: np.ndarray, h: SparseHamiltonian, local, lock: threading.Lock, pulse):
        self.index = index  # full-space indices, ascending
        self._h, self._local, self._lock, self._pulse, self._op = h, local, lock, pulse, None
        dense = pulse is None and index.size <= DENSE_BLOCK_LIMIT
        self.strategy = "dense-eig" if dense else "sparse"

    def sub(self) -> _Csr:
        """The block's sub-matrix of H, gathered from H's arrays."""
        h, index = self._h, self.index
        counts = h.indptr[index + 1] - h.indptr[index]
        ptr = np.zeros(index.size + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        take = np.repeat(h.indptr[index] - ptr[:-1], counts) + np.arange(ptr[-1])
        return _Csr(h.data[take], self._local[h.indices[take]], ptr)

    @property
    def op(self):
        if self._op is None:
            with self._lock:
                if self._op is None:
                    sub = self.sub()
                    if self._pulse is None:  # H alone; every dense-eig block is unpulsed
                        a = _dense(sub) if self.strategy == "dense-eig" else _scipy_csr(sub)
                        require_hermitian(a, "an unpulsed block must be Hermitian")
                    if self.strategy == "dense-eig":
                        # A real eigh is faster, and it moves results by less:
                        # 9.3e-15 against 1.6e-14 for a complex one on the N = 4 study.
                        self._op = np.linalg.eigh(a)
                    else:
                        pulse = np.zeros(self.index.size) if self._pulse is None else self._pulse
                        self._op = _taylor_op(sub, pulse)
        return self._op


def _dense(sub: _Csr, diagonal=0.0) -> np.ndarray:
    """The sub-matrix plus diag(diagonal) as a dense array, real where it is real."""
    n = sub.indptr.size - 1
    a = np.zeros((n, n), dtype=np.complex128)
    a[_rows(sub.indptr), sub.indices] = sub.data
    a[np.diag_indices(n)] += diagonal
    return a if a.imag.any() else np.ascontiguousarray(a.real)


class Propagator:
    """Applies exp(-i H t) to the system block of a register, one total-S^z sector at a time.

    States whose trailing sites multiply out to the Hamiltonian
    dimension are accepted; any leading sites (the ancilla) are treated
    as batch indices and left untouched.  blocks are the sectors (see
    Block for their kernels); one lock guards their builds for threads.
    """

    def __init__(self, hamiltonian: SparseHamiltonian):
        self.hamiltonian, lock = hamiltonian, threading.Lock()
        indices, local = _diagonal_blocks(hamiltonian)
        self.blocks = [Block(index, hamiltonian, local, lock, None) for index in indices]

    def pulse(self, diagonal: np.ndarray) -> Propagator:
        """The propagator of H + diag(diagonal) on the same sectors, H being .hamiltonian."""
        dim = self.hamiltonian.dimension
        if np.shape(diagonal) != (dim,):
            raise ValueError(f"pulse diagonal of shape {np.shape(diagonal)}, expected ({dim},)")
        pulsed, lock, pulse = copy.copy(self), threading.Lock(), np.asarray(diagonal)
        pulsed.blocks = [Block(b.index, b._h, b._local, lock, pulse[b.index]) for b in self.blocks]
        return pulsed

    def blocks_touched(self, state: QuditState) -> list[Block]:
        """The blocks on which state has a nonzero amplitude in any batch row."""
        x = state.amplitudes.reshape(-1, self.hamiltonian.dimension)
        return [b for b in self.blocks if x[:, b.index].any()]


def make_propagator(h: SparseHamiltonian) -> Propagator:
    """Propagator(h); studies and verbs build their propagators through it."""
    return Propagator(h)


def evolve(prop: Propagator, state: QuditState, duration: float) -> QuditState:
    """exp(-i H * duration)|state>, acting on the system sites only.

    The one-time case of trajectory.  Negative durations propagate
    backwards (needed when the second correlator time precedes the
    first).  Unitary evolution preserves the norm; a pulse with an
    anti-Hermitian diagonal returns an unnormalized state whose squared
    norm is tracked by the QuditState itself.
    """
    return next(trajectory(prop, state, [duration]))


def trajectory(prop: Propagator, state: QuditState, times):
    """Iterator over exp(-i H t)|state> for each t of a non-decreasing grid.

    Streams: one state is alive at a time, whatever the grid length.
    The leading (ancilla) sites are batch rows.  A time of 0 yields a
    copy of the state, never a view of it.
    """
    times = [float(t) for t in times]
    if not all(map(math.isfinite, times)):
        raise ValueError("trajectory times must be finite")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("trajectory times must be non-decreasing")
    dim = prop.hamiltonian.dimension
    if not any(math.prod(state.dims[k:]) == dim for k in range(len(state.dims))):
        raise ValueError(f"state dims {state.dims} have no trailing block of dimension {dim}")
    x = state.amplitudes.reshape(-1, dim)
    streams = []
    for b in prop.blocks_touched(state):
        stream = _dense_stream if b.strategy == "dense-eig" else _taylor_stream
        streams.append((b.index, stream(b.op, np.ascontiguousarray(x[:, b.index].T), times)))
    return (QuditState(state.dims, _scatter(x, streams)) for _ in times)


def _scatter(x: np.ndarray, streams) -> np.ndarray:
    """The next state of each block stream, placed in zeros shaped like x, flattened."""
    out = np.zeros_like(x)
    for index, stream in streams:
        out[:, index] = next(stream).T  # a column per batch row
    return out.reshape(-1)


def _matmul(m, z: np.ndarray) -> np.ndarray:
    """m @ z, m dense or CSR, z C-contiguous complex; a real m does z's two parts at once."""
    if np.isrealobj(m):
        return (m @ z.view(np.float64)).view(np.complex128)
    return m @ z


def _dense_stream(eig, x, times):
    """Project onto the block's eigenbasis once; each time is a phase and V c."""
    vals, vecs = eig
    coeff = _matmul(vecs.conj().T, x)
    top = float(np.abs(vals).max())
    for t in times:
        if not math.isfinite(t * top):
            raise ValueError(f"time {t!r} overflows the phase of exp(-iHt)")
        yield x if t == 0.0 else _matmul(vecs, np.exp(-1j * vals * t)[:, None] * coeff)


def _taylor_op(sub: _Csr, diagonal: np.ndarray):
    """(A - mu I, mu, its 1-norm), A the sub-matrix plus diag(diagonal), mu its mean diagonal.

    A - mu I is a dense NumPy array up to DENSE_BLOCK_LIMIT and a SciPy
    CSR matrix above it, which is where SciPy is loaded.
    """
    n = sub.indptr.size - 1
    mu = (sub.data[_rows(sub.indptr) == sub.indices].sum() + diagonal.sum()) / n
    if n <= DENSE_BLOCK_LIMIT:
        a = _dense(sub, diagonal - mu)
        return a, mu, np.abs(a).sum(axis=0).max()
    import scipy.sparse as sp

    a = (_scipy_csr(sub) + sp.diags(diagonal - mu)).tocsr()
    return a, mu, np.bincount(a.indices, np.abs(a.data), n).max()


def _scipy_csr(sub: _Csr):
    """The sub-matrix as a SciPy CSR matrix; SciPy loads here."""
    import scipy.sparse as sp

    n = sub.indptr.size - 1
    return sp.csr_matrix(sub, shape=(n, n))


def _taylor_degree(norm: float) -> tuple[int, int]:
    """(m, s): s steps of m Taylor terms for a step whose generator has this 1-norm.

    Al-Mohy & Higham's code fragment 3.1 on its exact-norm branch: the
    fewest products m * s with s = ceil(norm / theta_m), the smaller m on
    a tie.
    """
    if norm == 0:
        return 0, 1
    return min(((m, math.ceil(norm / theta)) for m, theta in _THETA.items()), key=math.prod)


def pulse_limit(n_sites: int, growth: float) -> float:
    """The largest |entry| of a pulse diagonal that the Taylor kernel runs without overflow.

    Sufficient on a chain of n_sites for a pulse that grows a normalized
    state's norm by up to e^growth: such an entry adds at most twice itself
    to an entry of A - mu I (_taylor_op), whose products with a step's
    terms, at most e^theta_55 times the state, must stay finite, and mu sums
    up to 3^N of them (no more than MAX_AMPLITUDES: a longer chain is refused).
    """
    entries = min(n_sites * math.log(3), math.log(MAX_AMPLITUDES))
    most = max(math.log(2) + _THETA[55] + growth, entries)
    return math.exp(math.log(sys.float_info.max) - most)


def _taylor_stream(op, x, times):
    """Reach each time from the previous one by a truncated Taylor series of exp(-i tau A).

    op is _taylor_op's.  Al-Mohy & Higham's algorithm 3.2, as SciPy runs
    it for a vector: s steps of up to m terms of -i tau (A - mu I),
    each stopped once two successive terms fall below 2^-53 of the sum
    (inf-norms) and multiplied by e^{-i tau mu / s}.  Nothing is random.
    """
    a, mu, norm1 = op
    bound = float(norm1) + abs(complex(mu))  # bounds the 1-norm of A itself
    plan, now = [], 0.0  # (tau, m, s): s steps of m terms from the previous time; s = 0 stays
    for t in times:
        tau, now = t - now, t
        if tau and not math.isfinite(abs(tau) * bound):
            raise ValueError(f"time {t!r} overflows the phase of exp(-iHt)")
        # A step covers at most theta_55: past the cap, over MAX_TAYLOR_STEPS steps.
        norm = min(abs(tau) * norm1, (MAX_TAYLOR_STEPS + 1) * _THETA[55])
        plan.append((tau, *_taylor_degree(norm)) if tau else (tau, 0, 0))
    steps = sum(s for _, _, s in plan)
    if steps > MAX_TAYLOR_STEPS:
        raise ValueError(
            f"the time grid needs at least {steps} Taylor steps on a block of dimension "
            f"{x.shape[0]}, over the limit of {MAX_TAYLOR_STEPS}: shorten the times or the pulse"
        )
    for tau, m, s in plan:
        if s:
            eta = np.exp(-1j * tau * mu / s)
            for _ in range(s):
                f, c1 = x, np.linalg.norm(x, np.inf)
                for j in range(m):
                    x = (-1j * tau / (s * (j + 1))) * _matmul(a, x)
                    c2 = np.linalg.norm(x, np.inf)
                    f = f + x
                    if c1 + c2 <= 2.0**-53 * np.linalg.norm(f, np.inf):
                        break
                    c1 = c2
                x = eta * f
        yield x

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
blocks, and every block of a pulse).  Every block of H is checked
Hermitian before a kernel reads it: a non-Hermitian H is refused.  A pulse,
Propagator.pulse(diagonal), is a diagonal that the Taylor kernel adds to
H's blocks in each product.  `trajectory` streams a state's touched blocks
through a time grid and is the only code that propagates; `evolve`, its
one-time case, alone fills a full register.

H is NumPy CSR arrays only, built and split with NumPy; a block builds
its operators from them when a state first touches it (see Block).
The Taylor kernel multiplies by a dense NumPy block up to the limit and
by a SciPy CSR block above it: SciPy loads where such a block propagates
(N >= 8) and in build_perturbed only.
"""

from __future__ import annotations

import collections
import copy
import functools
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

# The price of a kernel's product (trajectory_price), fitted on 13 studies at N = 4..12, one
# worker (CHANGES.md): CPU seconds per entry read from a dense or a CSR block, and per product.
DENSE_ENTRY_SECONDS, CSR_ENTRY_SECONDS, PRODUCT_SECONDS = 0.25e-9, 1.76e-9, 9.8e-6
MAX_WORK = 600.0  # priced CPU seconds of a study's plan or a Taylor trajectory: minutes, not hours

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

    A pulse adds the diagonal to H0's blocks in the Taylor kernel instead, so no
    study calls this; an anti-Hermitian diagonal makes an H that is refused.
    It adds with SciPy, which drops a diagonal entry that sums to zero.
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


def sectors(n: int) -> list[tuple[int, int]]:
    """(dimension, entry bound, exact off the diagonal) of each total-S^z sector, by digit sum."""
    size = functools.reduce(np.convolve, [[1, 1, 1]] * n, np.ones(1, dtype=int)).tolist()
    # A bond's off-diagonal entries per state of the other N - 2 sites, by its pair's digit sum.
    pairs = functools.reduce(np.convolve, [[1, 1, 1]] * (n - 2), np.array([0, 2, 4, 2, 0]))
    return [(d, d + (n - 1) * p) for d, p in zip(size, pairs.tolist())]


class Block:
    """One total-S^z sector of the chain and its operators, which every pulse of H shares.

    A block holds its indices and no entry of H.  On the first read of op,
    under its propagator's lock, it gathers its sub-matrix from H's arrays
    (sub), dense up to DENSE_BLOCK_LIMIT and SciPy CSR above, refuses it
    unless require_hermitian passes, and builds from it the Taylor kernel's
    operator and, for "dense-eig" (kernel()), its eigh; a block that no
    state touches is never checked or built.
    """

    def __init__(self, index: np.ndarray, h: SparseHamiltonian, local, lock: threading.Lock):
        self.index = index  # full-space indices, ascending
        self._h, self._local, self._lock, self._op = h, local, lock, None
        self.strategy = kernel(index.size, False)

    def sub(self):
        """The block's sub-matrix of H, from H's arrays: dense (real where real) or SciPy CSR."""
        h, index = self._h, self.index
        counts = h.indptr[index + 1] - h.indptr[index]
        ptr = np.zeros(index.size + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        take = np.repeat(h.indptr[index] - ptr[:-1], counts) + np.arange(ptr[-1])
        data, columns = h.data[take], self._local[h.indices[take]]
        if self.strategy == "sparse":
            return _scipy_csr(_Csr(data, columns, ptr))
        a = np.zeros((index.size,) * 2, dtype=np.complex128)
        a[_rows(ptr), columns] = data
        return a if a.imag.any() else np.ascontiguousarray(a.real)

    @property
    def op(self):
        """(_taylor_op's operator, eigh's (eigenvalues, eigenvectors) or None)."""
        if self._op is None:
            with self._lock:
                if self._op is None:
                    m, dense = self.sub(), self.strategy == "dense-eig"
                    require_hermitian(m, "a block of H must be Hermitian")
                    # A real eigh is faster, and it moves results by less:
                    # 9.3e-15 against 1.6e-14 for a complex one on the N = 4 study.
                    self._op = _taylor_op(m), np.linalg.eigh(m) if dense else None
        return self._op


class Propagator:
    """Applies exp(-i H t) to the system block of a register, one total-S^z sector at a time.

    States whose trailing sites multiply out to the Hamiltonian
    dimension are accepted; any leading sites (the ancilla) are treated
    as batch indices and left untouched.  blocks are the sectors (see
    Block for their kernels); one lock guards their builds for threads.
    """

    def __init__(self, hamiltonian: SparseHamiltonian):
        self.hamiltonian, self.diagonal, lock = hamiltonian, None, threading.Lock()  # see pulse
        indices, local = _diagonal_blocks(hamiltonian)
        self.blocks = [Block(index, hamiltonian, local, lock) for index in indices]

    def pulse(self, diagonal: np.ndarray) -> Propagator:
        """The propagator of H + diag(diagonal), H being .hamiltonian: H's blocks, lock and all."""
        dim = self.hamiltonian.dimension
        if np.shape(diagonal) != (dim,):
            raise ValueError(f"pulse diagonal of shape {np.shape(diagonal)}, expected ({dim},)")
        pulsed = copy.copy(self)
        pulsed.diagonal = np.asarray(diagonal)
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

    The one-time case of trajectory, zero off the touched blocks; a negative
    duration propagates backwards.  A pulse with an anti-Hermitian diagonal
    returns an unnormalized state, its squared norm tracked by the QuditState.
    """
    index, amplitudes = trajectory(prop, state, [duration])
    out = np.zeros_like(state.amplitudes).reshape(-1, prop.hamiltonian.dimension)
    out[:, index] = next(amplitudes)
    return QuditState(state.dims, out.reshape(-1))


def trajectory(prop: Propagator, state: QuditState, times):
    """(index, arrays): exp(-i H t)|state> on its touched blocks at each t of a non-decreasing grid.

    index holds the touched blocks' basis indices, block by block (every
    other amplitude stays 0).  The iterator yields a new (batch rows,
    index.size) array per time, one alive at once, never a view of the state.
    """
    times = [float(t) for t in times]
    if not all(map(math.isfinite, times)):
        raise ValueError("trajectory times must be finite")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("trajectory times must be non-decreasing")
    dim = prop.hamiltonian.dimension
    if not any(math.prod(state.dims[k:]) == dim for k in range(len(state.dims))):
        raise ValueError(f"state dims {state.dims} have no trailing block of dimension {dim}")
    x, d = state.amplitudes.reshape(-1, dim), prop.diagonal
    blocks, empty = prop.blocks_touched(state), np.zeros((0, len(x)))  # empty: a zero state's
    columns = [np.ascontiguousarray(x[:, b.index].T) for b in blocks]  # a column per batch row
    streams = [_dense_stream(b.op[1], z, times) if d is None and b.strategy == "dense-eig" else
               _taylor_stream(b.op[0], z, times, None if d is None else d[b.index])
               for b, z in zip(blocks, columns)]
    index = np.concatenate([np.zeros(0, np.int64), *(b.index for b in blocks)])
    return index, (np.concatenate([empty, *map(next, streams)]).T for _ in times)


def level_sums(index: np.ndarray, n_sites: int, site: int) -> np.ndarray:
    """(index.size, 3): x @ it sums x (..., index.size) per level (index's digit) on a site."""
    if not 0 <= site < n_sites:
        raise IndexError(f"site {site} out of range for {n_sites} sites")
    return np.equal.outer(index // 3 ** (n_sites - 1 - site) % 3, np.arange(3)).astype(float)


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


def _taylor_op(m):
    """(A - mu I, mu, its diagonal, its column 1-norms) of a block's matrix A, mu its mean diagonal.

    m is dense (NumPy) or SciPy CSR, and A - mu I keeps its form.
    """
    diag = m.diagonal()
    mu, n = diag.mean(), diag.size
    if isinstance(m, np.ndarray):
        a = m - mu * np.eye(n)
        return a, mu, diag - mu, np.abs(a).sum(axis=0)
    import scipy.sparse as sp

    a = (m - mu * sp.identity(n)).tocsr()
    return a, mu, diag - mu, np.bincount(a.indices, np.abs(a.data), n)


def _scipy_csr(sub: _Csr):
    """The sub-matrix as a SciPy CSR matrix; SciPy loads here."""
    import scipy.sparse as sp

    return sp.csr_matrix(sub, shape=(sub.indptr.size - 1,) * 2)


def _taylor_degree(norm: float) -> tuple[int, int]:
    """(m, s): s steps of m Taylor terms for a step whose generator has this 1-norm.

    Al-Mohy & Higham's code fragment 3.1 on its exact-norm branch: the
    fewest products m * s with s = ceil(norm / theta_m), the smaller m on
    a tie.  A norm past _taylor_cap() is counted at it, so the counts stay finite.
    """
    if norm == 0:
        return 0, 1
    norm = min(_taylor_cap(), norm)  # inf and NaN too
    return min(((m, math.ceil(norm / theta)) for m, theta in _THETA.items()), key=math.prod)


def _taylor_cap() -> float:
    """The 1-norm past which one step alone, >= norm / theta_55 products, prices over MAX_WORK."""
    return MAX_WORK / PRODUCT_SECONDS * _THETA[55]


def kernel(dim: int, pulsed: bool) -> str:
    """A block's kernel: "dense-eig" for an unpulsed one up to DENSE_BLOCK_LIMIT, else "sparse"."""
    return "sparse" if pulsed or dim > DENSE_BLOCK_LIMIT else "dense-eig"


def trajectory_price(strategy: str, dim: int, entries: int, norms, times=1):
    """(products, capped, CPU seconds) of a trajectory through a block of that kernel and size.

    norms: each step's generator 1-norm, each step taken `times` times.  Dense-eig projects,
    then takes a product a step; Taylor m s a step, capped for a norm past _taylor_cap().
    """
    dense = strategy == "dense-eig"
    products = dense + times * sum(dense or math.prod(_taylor_degree(x)) for x in norms)
    capped = not dense and times > 0 and any(x > _taylor_cap() for x in norms)
    read = dim**2 * DENSE_ENTRY_SECONDS if dim <= DENSE_BLOCK_LIMIT else entries * CSR_ENTRY_SECONDS
    return products, capped, products * (read + PRODUCT_SECONDS)


def pulse_limit(n_sites: int, growth: float) -> float:
    """The largest |entry| of a pulse diagonal that the Taylor kernel runs without overflow.

    Sufficient on a chain of n_sites for a pulse that grows a normalized
    state's norm by up to e^growth: such an entry adds at most twice itself
    to an entry of A - mu I (_taylor_stream), whose products with a step's
    terms, at most e^theta_55 times the state, must stay finite, and mu sums
    up to 3^N of them (no more than MAX_AMPLITUDES: a longer chain is refused).
    """
    entries = min(n_sites * math.log(3), math.log(MAX_AMPLITUDES))
    most = max(math.log(2) + _THETA[55] + growth, entries)
    return math.exp(math.log(sys.float_info.max) - most)


def _taylor_stream(op, x, times, pulse=None):
    """Reach each time from the previous one by a truncated Taylor series of exp(-i tau A).

    op is _taylor_op's.  Al-Mohy & Higham's algorithm 3.2, as SciPy runs
    it for a vector: s steps of up to m terms of -i tau (A - mu I),
    each stopped once two successive terms fall below 2^-53 of the sum
    (inf-norms) and multiplied by e^{-i tau mu / s}.  Nothing is random.
    A pulse d, the block's part of a pulse diagonal, makes A = H + diag(d).
    """
    a, mu, diag, norms = op
    if pulse is not None:  # mu gains the pulse's mean, and the rest swaps into the diagonal
        mu, pulse = mu + pulse.mean(), pulse - pulse.mean()
        norms = norms - np.abs(diag) + np.abs(diag + pulse)
        pulse = pulse[:, None]  # a column: it scales every batch row alike
    norm1 = norms.max()
    bound = float(norm1) + abs(complex(mu))  # bounds the 1-norm of A itself
    taus = [t - s for s, t in zip([0.0, *times], times)]  # each time less the previous one
    for t, tau in zip(times, taus):
        if tau and not math.isfinite(abs(tau) * bound):
            raise ValueError(f"time {t!r} overflows the phase of exp(-iHt)")
    _, capped, cpu = trajectory_price("sparse", len(x), a.size, [abs(t) * norm1 for t in taus if t])
    if cpu > MAX_WORK:  # a count at the cap is a lower bound
        raise ValueError(f"the time grid needs {'over' if capped else 'about'} {cpu / 60:.3g} min "
                         f"of one-worker CPU on a block of dimension {len(x)}, over the bound "
                         f"of {MAX_WORK / 60:g} min: shorten the times or the pulse")
    product = (lambda z: _matmul(a, z)) if pulse is None else lambda z: _matmul(a, z) + pulse * z
    for tau in taus:
        if tau:  # s steps of m terms
            m, s = _taylor_degree(abs(tau) * norm1)
            eta = np.exp(-1j * tau * mu / s)
            for _ in range(s):
                f, c1 = x, np.linalg.norm(x, np.inf)
                for j in range(m):
                    x = (-1j * tau / (s * (j + 1))) * product(x)
                    c2 = np.linalg.norm(x, np.inf)
                    f = f + x
                    if c1 + c2 <= 2.0**-53 * np.linalg.norm(f, np.inf):
                        break
                    c1 = c2
                x = eta * f
        yield x

"""Mixed-radix state vectors and local operator application.

A register is an ordered list of qudits with independent local
dimensions, stored as a dense complex amplitude vector in row-major
mixed-radix order: site 0 is the slowest-varying digit.  When an
ancilla qubit is present it occupies site 0, so a controlled operation
on it touches two contiguous halves of the amplitude vector.

Operators are applied by gathering the support axes to the front,
multiplying the small operator matrix into the reshaped block, and
scattering back; the full-register matrix is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# Hard budget on register size (amplitude count).
MAX_AMPLITUDES = 2**27

@dataclass
class QuditState:
    """Dense state vector over a mixed-radix register.

    dims are the ordered local dimensions, e.g. (2, 3, 3, 3) = ancilla +
    3 spin-1 sites; they are checked before the amplitudes.  The squared
    norm is tracked explicitly: non-unitary evolution is allowed to
    shrink (or slightly grow) it, and probabilities are then understood
    relative to ``squared_norm`` instead of renormalizing.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray
    squared_norm: float = field(init=False)

    def __post_init__(self):
        self.dims, size = _register_size(self.dims)
        amp = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (size,):
            raise ValueError(
                f"amplitude vector of length {amp.shape} does not match register size {size}"
            )
        self.amplitudes = amp
        self.squared_norm = float(np.real(np.vdot(amp, amp)))


def _register_size(dims) -> tuple[tuple[int, ...], int]:
    """(dims as ints, amplitude count) of a register, checked before anything is allocated."""
    dims = tuple(map(int, dims))
    if not dims:
        raise ValueError("register needs at least one site")
    if min(dims) < 2:
        site = next(i for i, d in enumerate(dims) if d < 2)
        raise ValueError(f"every local dimension must be >= 2, got {dims[site]} at site {site}")
    size = 1
    for d in dims:  # stops at the first partial product past the budget
        size *= d
        if size > MAX_AMPLITUDES:
            raise ValueError(
                f"{len(dims)}-site register exceeds the {MAX_AMPLITUDES} amplitude budget"
            )
    return dims, size


def basis_state(dims, levels) -> QuditState:
    """Computational basis state |levels[0], levels[1], ...>."""
    dims, size = _register_size(dims)
    levels = tuple(int(l) for l in levels)
    if len(levels) != len(dims):
        raise ValueError("one level per site required")
    idx = 0
    for d, l in zip(dims, levels):
        if not 0 <= l < d:
            raise ValueError(f"level {l} out of range for dimension {d}")
        idx = idx * d + l
    amp = np.zeros(size, dtype=np.complex128)
    amp[idx] = 1.0
    return QuditState(dims, amp)


@dataclass(frozen=True)
class LocalOperator:
    """Square matrix acting on an ordered tuple of sites.

    The matrix lives in the tensor-product basis of the support sites in
    the listed order; everywhere else the operator acts as identity.
    """

    matrix: np.ndarray
    support: tuple[int, ...]

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got {mat.shape}")
        object.__setattr__(self, "matrix", mat)
        support = tuple(int(s) for s in self.support)
        object.__setattr__(self, "support", support)
        if not support:
            raise ValueError("operator needs at least one support site")
        if len(set(support)) != len(support):
            raise ValueError(f"support sites must be distinct, got {support}")
        if any(s < 0 for s in support):
            raise ValueError(f"support sites must be nonnegative, got {support}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def on(self, *sites: int) -> "LocalOperator":
        """Same matrix re-anchored on different sites."""
        if len(sites) != len(self.support):
            raise ValueError("site count must match the operator's support size")
        return replace(self, support=tuple(int(s) for s in sites))

    def dagger(self) -> "LocalOperator":
        return replace(self, matrix=self.matrix.conj().T)


def _check_support(state: QuditState, op: LocalOperator) -> int:
    dims = state.dims
    for s in op.support:
        if s >= len(dims):
            raise IndexError(f"support site {s} out of range for {len(dims)} sites")
    d_sup = math.prod(dims[s] for s in op.support)
    if op.dim != d_sup:
        raise ValueError(
            f"operator dimension {op.dim} does not match support dimension {d_sup}"
        )
    return d_sup


def _apply_to_tensor(psi: np.ndarray, op: LocalOperator, axes: tuple[int, ...]) -> np.ndarray:
    """Apply op to the given axes of an amplitude tensor (gather/scatter)."""
    k = len(axes)
    moved = np.moveaxis(psi, axes, range(k))
    head = moved.shape[:k]
    blk = moved.reshape(math.prod(head), -1)
    out = op.matrix @ blk
    out = out.reshape(head + moved.shape[k:])
    return np.moveaxis(out, range(k), axes)


def apply_local(state: QuditState, op: LocalOperator) -> QuditState:
    """Return op|state> with op embedded as identity off its support.

    Preserves the norm iff the operator is unitary; non-unitary
    (e.g. bare spin) operators produce a state whose squared norm equals
    <psi|M^+ M|psi>.
    """
    _check_support(state, op)
    psi = state.amplitudes.reshape(state.dims)
    out = _apply_to_tensor(psi, op, op.support)
    return QuditState(state.dims, out.reshape(-1))


def _ancilla_halves(state: QuditState) -> np.ndarray:
    """The amplitudes as (ancilla level, rest), with site 0 the ancilla qubit."""
    if state.dims[0] != 2:
        raise ValueError(f"site 0 has dimension {state.dims[0]}, expected a qubit")
    return state.amplitudes.reshape(2, -1)


def apply_controlled(state: QuditState, op: LocalOperator) -> QuditState:
    """Apply op (in register coordinates) where the ancilla qubit at site 0 is |1>."""
    if 0 in op.support:
        raise ValueError("the control site 0 lies inside the op support")
    _check_support(state, op)
    psi = _ancilla_halves(state).copy()
    slab = psi[1].reshape(state.dims[1:])  # view into the copy
    psi[1] = _apply_to_tensor(slab, op, tuple(s - 1 for s in op.support)).reshape(-1)
    return QuditState(state.dims, psi.reshape(-1))


def ancilla_zero_probability(state: QuditState) -> float:
    """P(ancilla = |0>), with site 0 the ancilla qubit.

    For unnormalized states the probability is relative to the total
    squared norm.
    """
    zero = _ancilla_halves(state)[0]
    if state.squared_norm <= 0.0:
        raise ValueError("state has vanishing norm")
    return float(np.sum(np.abs(zero) ** 2)) / state.squared_norm


def site_marginal(state: QuditState, site: int) -> np.ndarray:
    """Outcome distribution of a projective measurement of one site."""
    dims = state.dims
    if site < 0 or site >= len(dims):
        raise IndexError(f"site {site} out of range")
    if state.squared_norm <= 0.0:
        raise ValueError("state has vanishing norm")
    # The site's digit to the front; the rest keep their order, as np.moveaxis would.
    psi = state.amplitudes.reshape(math.prod(dims[:site]), dims[site], -1)
    moved = psi.transpose(1, 0, 2).reshape(dims[site], -1)
    p = np.sum(np.abs(moved) ** 2, axis=1) / state.squared_norm
    return p / np.sum(p)


def expectation(state: QuditState, op: LocalOperator) -> complex:
    """<psi|M|psi> without normalizing (see linear_response for the ratio)."""
    out = apply_local(state, op)
    return complex(np.vdot(state.amplitudes, out.amplitudes))

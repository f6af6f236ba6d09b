"""Spin operators and the unitary splitting of Hermitian observables.

Any Hermitian X with spectral norm n = max|eig(X)| can be written as

    X = (n / 2) * (W + W^+),     W = X/n + i * sqrt(1 - X^2 / n^2),

where W is unitary and the square root is taken on the principal
(nonnegative) branch, eigenvalue by eigenvalue.  Both operators are
functions of the same eigenbasis, so W commutes with X and the choice
of eigenvectors inside degenerate subspaces is immaterial.

For the spin-1 z operator this gives

    S^z = diag(1, 0, -1)   ->   W = diag(1, i, -1),

and the x/y versions follow by the basis change that diagonalizes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .register import LocalOperator

_SUPPORTED_SPINS = (0.5, 1.0, 1.5, 2.0)

# Numerical floor below which an observable counts as zero (rejected:
# the splitting divides by the norm and a zero observable has a
# trivially zero correlator anyway).
_ZERO_NORM = 1e-14

# Largest max|M - M^+| of an operator taken as Hermitian, and max|W^+ W - 1|
# of a W taken as unitary.
_ATOL = 1e-12


def spin_matrix(spin: float, axis: str) -> LocalOperator:
    """Standard spin matrix in the S^z eigenbasis (level 0 = m = +s).

    Satisfies [S^x, S^y] = i S^z and its cyclic permutations.
    """
    spin = float(spin)
    if spin not in _SUPPORTED_SPINS:
        raise ValueError(f"unsupported spin {spin}; expected one of {_SUPPORTED_SPINS}")
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    d = int(round(2 * spin + 1))
    m = spin - np.arange(d)
    if axis == "z":
        mat = np.diag(m).astype(np.complex128)
    else:
        raising = np.zeros((d, d))
        for k in range(1, d):
            raising[k - 1, k] = math.sqrt(spin * (spin + 1) - m[k] * (m[k] + 1))
        if axis == "x":
            mat = (raising + raising.T) / 2.0
        else:
            mat = (raising - raising.T) / 2.0j
    return LocalOperator(mat, support=(0,))


def require_hermitian(a, what: str) -> None:
    """Refuse a NumPy or SciPy sparse matrix unless max|a - a^+| <= 1e-12; a NaN entry fails."""
    err = abs(a - a.conj().T).max()
    if not err <= _ATOL:
        raise ValueError(f"{what} but max|a - a^+| = {err:.2e}")


@dataclass(frozen=True)
class HermitianObservable:
    """Hermitian operator (any other matrix is refused) with its spectral norm max|eig|, derived."""

    op: LocalOperator
    spectral_norm: float = field(init=False)

    def __post_init__(self):
        require_hermitian(self.op.matrix, "a spectral norm needs a Hermitian operator")
        norm = float(np.max(np.abs(np.linalg.eigvalsh(self.op.matrix))))
        if norm <= _ZERO_NORM:
            raise ValueError("zero observable rejected (norm below 1e-14)")
        object.__setattr__(self, "spectral_norm", norm)

    @property
    def support(self) -> tuple[int, ...]:
        return self.op.support


@dataclass(frozen=True)
class UnitaryDecomposition:
    """The pair (norm, W) with X = (norm/2)(W + W^+)."""

    norm: float
    w: LocalOperator
    w_dagger: LocalOperator


def _unitary_from_scaled(xn: np.ndarray) -> np.ndarray:
    """W for a Hermitian matrix with spectrum inside [-1, 1]."""
    vals, vecs = np.linalg.eigh(xn)
    vals = np.clip(vals, -1.0, 1.0)
    phases = vals + 1j * np.sqrt(1.0 - vals**2)
    return (vecs * phases) @ vecs.conj().T


def decompose(obs: HermitianObservable) -> UnitaryDecomposition:
    """Split a Hermitian observable into (norm/2)(W + W^+) with W unitary.

    Each eigenvalue x maps to x/norm + i sqrt(1 - (x/norm)^2); the
    nonnegative root keeps the eigenphases inside [0, pi].
    """
    w_mat = _unitary_from_scaled(obs.op.matrix / obs.spectral_norm)
    err = np.max(np.abs(w_mat.conj().T @ w_mat - np.eye(w_mat.shape[0])))
    if err > _ATOL:
        raise ValueError(f"W is not unitary: max|W^+ W - 1| = {err:.2e}")
    w = LocalOperator(w_mat, support=obs.op.support)
    return UnitaryDecomposition(norm=obs.spectral_norm, w=w, w_dagger=w.dagger())

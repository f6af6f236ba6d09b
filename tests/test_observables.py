import numpy as np
import pytest

from oracles import random_hermitian
from quditcorr import observables
from quditcorr.observables import (
    HermitianObservable,
    decompose,
    spin_matrix,
)
from quditcorr.register import LocalOperator


def obs(matrix, support=(0,)):
    return HermitianObservable(LocalOperator(matrix, support))


def test_spin1_z_matrix():
    np.testing.assert_allclose(spin_matrix(1, "z").matrix, np.diag([1.0, 0.0, -1.0]))


def test_spin1_x_matrix():
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2)
    np.testing.assert_allclose(spin_matrix(1, "x").matrix, expected, atol=1e-15)


def test_spin_half_z():
    np.testing.assert_allclose(spin_matrix(0.5, "z").matrix, np.diag([0.5, -0.5]))


@pytest.mark.parametrize("spin", [0.5, 1, 1.5, 2])
def test_commutation_relation(spin):
    sx = spin_matrix(spin, "x").matrix
    sy = spin_matrix(spin, "y").matrix
    sz = spin_matrix(spin, "z").matrix
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-13)


def test_unsupported_spin_and_axis():
    with pytest.raises(ValueError, match="unsupported spin"):
        spin_matrix(3, "z")
    with pytest.raises(ValueError, match="axis"):
        spin_matrix(1, "q")


def test_spectral_norm_values():
    assert HermitianObservable(spin_matrix(1, "z")).spectral_norm == pytest.approx(1.0)
    assert obs(np.eye(3)).spectral_norm == pytest.approx(1.0)
    zz = np.kron(np.diag([1.0, 0, -1]), np.diag([1.0, 0, -1]))
    assert obs(zz, (0, 1)).spectral_norm == pytest.approx(1.0)


def test_spectral_norm_scaling():
    rng = np.random.default_rng(10)
    m = random_hermitian(rng, 5)
    base = obs(m).spectral_norm
    for c in (-2.5, 0.3, 7.0):
        scaled = obs(c * m).spectral_norm
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


def test_spectral_norm_rejects_non_hermitian():
    message = "a spectral norm needs a Hermitian operator"
    with pytest.raises(ValueError, match=message):
        HermitianObservable(LocalOperator(np.array([[0, 1], [0, 0]]), (0,)))
    with pytest.raises(ValueError, match=message):
        obs(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_spectral_norm_is_derived_not_supplied():
    assert obs(2.5 * spin_matrix(1, "z").matrix).spectral_norm == pytest.approx(2.5)
    with pytest.raises(TypeError):
        HermitianObservable(spin_matrix(1, "z"), spectral_norm=5.0)


def test_decompose_refuses_a_non_unitary_w(monkeypatch):
    # The check on the W that decompose builds, reached by corrupting the split.
    monkeypatch.setattr(observables, "_unitary_from_scaled", lambda xn: np.diag([1.0, 0.5, -1.0]))
    with pytest.raises(ValueError, match="unitary"):
        decompose(obs(spin_matrix(1, "z").matrix))


def test_decompose_spin1_z():
    dec = decompose(obs(spin_matrix(1, "z").matrix))
    assert dec.norm == pytest.approx(1.0)
    np.testing.assert_allclose(dec.w.matrix, np.diag([1, 1j, -1]), atol=1e-12)


def test_decompose_identity():
    dec = decompose(obs(np.eye(3)))
    assert dec.norm == pytest.approx(1.0)
    np.testing.assert_allclose(dec.w.matrix, np.eye(3), atol=1e-12)


def test_decompose_spin1_x_is_basis_changed_z_version():
    sx = spin_matrix(1, "x").matrix
    dec = decompose(obs(sx))
    # independent construction: rotate diag(1, i, -1) into the S^x eigenbasis
    vals, vecs = np.linalg.eigh(sx)
    order = np.argsort(-vals)  # eigenvalues (1, 0, -1) like the z basis
    r = vecs[:, order]
    expected = r @ np.diag([1, 1j, -1]) @ r.conj().T
    # sqrt(1 - x^2) has infinite slope at |x| = 1, so the extremal
    # eigenvalues come back with O(sqrt(eps)) imaginary parts; the
    # required invariants (unitarity, reconstruction) are still 1e-10.
    np.testing.assert_allclose(dec.w.matrix, expected, atol=1e-7)
    recon = dec.norm / 2 * (dec.w.matrix + dec.w_dagger.matrix)
    np.testing.assert_allclose(recon, sx, atol=1e-10)


def test_decompose_random_properties():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(2, 10))
        x = random_hermitian(rng, dim)
        dec = decompose(obs(x))
        w = dec.w.matrix
        assert np.max(np.abs(w.conj().T @ w - np.eye(dim))) <= 1e-10
        recon = dec.norm / 2 * (w + w.conj().T)
        assert np.max(np.abs(recon - x)) <= 1e-10
        assert np.max(np.abs(w @ x - x @ w)) <= 1e-10


def test_decompose_degenerate_spectrum():
    rng = np.random.default_rng(12)
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    x = q @ np.diag([1.0, 1.0, -1.0, 0.25]) @ q.conj().T
    x = (x + x.conj().T) / 2
    dec = decompose(obs(x))
    recon = dec.norm / 2 * (dec.w.matrix + dec.w_dagger.matrix)
    np.testing.assert_allclose(recon, x, atol=1e-10)


def test_zero_observable_rejected():
    with pytest.raises(ValueError, match="zero observable"):
        obs(np.zeros((3, 3)))


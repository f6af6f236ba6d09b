import numpy as np
import pytest

from quditcorr.register import (
    LocalOperator,
    QuditState,
    ancilla_zero_probability,
    apply_controlled,
    apply_local,
    basis_state,
    expectation,
    site_marginal,
)
from quditcorr.rng import sample_counts, task_rng

W_SZ = LocalOperator(np.diag([1, 1j, -1]), (0,))
SZ = LocalOperator(np.diag([1.0, 0.0, -1.0]), (0,))


def random_state(rng, dims):
    size = int(np.prod(dims))
    amp = rng.normal(size=size) + 1j * rng.normal(size=size)
    return QuditState(dims, amp / np.linalg.norm(amp))


def random_unitary(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_identity_leaves_state_unchanged():
    rng = np.random.default_rng(1)
    state = random_state(rng, (3, 3))
    out = apply_local(state, LocalOperator(np.eye(3), (1,)))
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_phase_unitary_applied_twice_gives_minus_one():
    # diag(1, i, -1) on the middle level: i^2 = -1 overall on that component
    state = basis_state((3,), (1,))
    out = apply_local(apply_local(state, W_SZ), W_SZ)
    np.testing.assert_allclose(out.amplitudes, -state.amplitudes, atol=1e-15)


def test_nonunitary_apply_tracks_norm():
    rng = np.random.default_rng(2)
    state = random_state(rng, (3,))
    out = apply_local(state, SZ)
    expected = np.vdot(state.amplitudes, np.diag([1, 0, 1]) @ state.amplitudes).real
    assert out.squared_norm == pytest.approx(expected, abs=1e-12)


def test_controlled_noop_when_control_unoccupied():
    state = basis_state((2, 3), (0, 1))  # ancilla |0>, control on |1>
    out = apply_controlled(state, W_SZ.on(1))
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_controlled_identity_is_noop():
    rng = np.random.default_rng(3)
    state = random_state(rng, (2, 3, 3))
    ident = LocalOperator(np.eye(3), (2,))
    out = apply_controlled(state, ident)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_controlled_phase_branch_amplitudes():
    # (|0> + |1>)/sqrt2 (x) |m=-1>; controlled diag(1,i,-1) flips the |1> branch sign
    amp = np.zeros(6, dtype=complex)
    amp[2] = amp[5] = 1 / np.sqrt(2)  # levels (0,2) and (1,2)
    state = QuditState((2, 3), amp)
    out = apply_controlled(state, W_SZ.on(1))
    np.testing.assert_allclose(out.amplitudes[2], 1 / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(out.amplitudes[5], -1 / np.sqrt(2), atol=1e-15)


def test_anticontrol_via_x_conjugation():
    rng = np.random.default_rng(4)
    x = LocalOperator(np.array([[0, 1], [1, 0]]), (0,))
    u = LocalOperator(random_unitary(rng, 3), (1,))
    state = random_state(rng, (2, 3))
    lhs = apply_local(apply_controlled(apply_local(state, x), u), x)
    # X C(U) X applies U to the ancilla-|0> half and leaves the |1> half alone.
    psi = state.amplitudes.reshape(2, 3)
    rhs = np.stack([u.matrix @ psi[0], psi[1]])
    np.testing.assert_allclose(lhs.amplitudes.reshape(2, 3), rhs, atol=1e-12)


def test_disjoint_supports_commute():
    rng = np.random.default_rng(5)
    for _ in range(100):
        state = random_state(rng, (2, 3, 3, 3))
        a = LocalOperator(random_unitary(rng, 3), (1,))
        b = LocalOperator(random_unitary(rng, 9), (2, 3))
        ab = apply_local(apply_local(state, a), b)
        ba = apply_local(apply_local(state, b), a)
        assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) <= 1e-12


def test_unitary_apply_preserves_norm():
    rng = np.random.default_rng(6)
    for _ in range(100):
        dims = (2, 3, 3, 3)
        state = random_state(rng, dims)
        k = rng.integers(1, 3)
        sites = tuple(sorted(rng.choice(4, size=k, replace=False).tolist()))
        d = int(np.prod([dims[s] for s in sites]))
        u = LocalOperator(random_unitary(rng, d), sites)
        out = apply_local(state, u)
        assert abs(np.sqrt(out.squared_norm) - 1.0) <= 1e-12


def test_multi_site_apply_matches_dense_kron():
    rng = np.random.default_rng(7)
    state = random_state(rng, (2, 3, 3))
    u = random_unitary(rng, 6)
    op = LocalOperator(u, (0, 2))
    out = apply_local(state, op)
    # dense embedding: axes (0, 2) gathered to the front
    psi = state.amplitudes.reshape(2, 3, 3)
    moved = np.moveaxis(psi, (0, 2), (0, 1)).reshape(6, 3)
    expected = np.moveaxis((u @ moved).reshape(2, 3, 3), (0, 1), (0, 2)).reshape(-1)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-13)


def test_ancilla_zero_probability_cases():
    assert ancilla_zero_probability(basis_state((2, 3), (0, 2))) == pytest.approx(1.0)
    amp = np.zeros(6, dtype=complex)
    amp[0] = amp[3] = 1 / np.sqrt(2)
    assert ancilla_zero_probability(QuditState((2, 3), amp)) == pytest.approx(0.5)
    # relative to the squared norm for unnormalized states
    assert ancilla_zero_probability(QuditState((2, 3), 0.3 * amp)) == pytest.approx(0.5)


def test_ancilla_zero_probability_requires_qubit():
    with pytest.raises(ValueError, match="qubit"):
        ancilla_zero_probability(basis_state((3, 3), (0, 0)))


def test_sample_counts_basis_state():
    counts = sample_counts([site_marginal(basis_state((3, 3), (2, 0)), 0)], 1000, [task_rng(1)])[0]
    assert counts.tolist() == [0, 0, 1000]


def test_sample_counts_uniform_statistics():
    state = QuditState((3,), np.ones(3, dtype=complex) / np.sqrt(3))
    shots = 300_000
    counts = sample_counts([site_marginal(state, 0)], shots, [task_rng(11)])[0]
    sigma = np.sqrt((1 / 3) * (2 / 3) / shots)
    for c in counts:
        assert abs(c / shots - 1 / 3) <= 5 * sigma


def test_sample_counts_deterministic_and_empty():
    p = site_marginal(random_state(np.random.default_rng(8), (3, 3)), 1)
    a = sample_counts([p], 500, [task_rng(42)])[0]
    b = sample_counts([p], 500, [task_rng(42)])[0]
    assert a.tolist() == b.tolist()
    assert sample_counts([p], 0, [task_rng(42)])[0].tolist() == [0, 0, 0]
    with pytest.raises(ValueError):
        sample_counts([p], -1, [task_rng(42)])


def test_site_marginal_normalizes_unnormalized_states():
    state = QuditState((3,), np.array([2.0, 0.0, 0.0], dtype=complex))
    np.testing.assert_allclose(site_marginal(state, 0), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 3, 3, 3)])
def test_site_marginal_is_bitwise_the_moveaxis_form(dims):
    # The same sums in the same order as gathering the site with np.moveaxis.
    rng = np.random.default_rng(12)
    for _ in range(3):
        state = random_state(rng, dims)
        state = QuditState(state.dims, 1.7 * state.amplitudes)  # unnormalized
        for site in range(len(dims)):
            moved = np.moveaxis(state.amplitudes.reshape(dims), site, 0).reshape(dims[site], -1)
            p = np.sum(np.abs(moved) ** 2, axis=1) / state.squared_norm
            assert site_marginal(state, site).tolist() == (p / np.sum(p)).tolist()


def test_expectation_matches_dense():
    rng = np.random.default_rng(9)
    state = random_state(rng, (3, 3))
    val = expectation(state, SZ.on(1))
    dense = np.kron(np.eye(3), np.diag([1.0, 0.0, -1.0]))
    np.testing.assert_allclose(val, np.vdot(state.amplitudes, dense @ state.amplitudes))


def test_qudit_state_dims_validation():
    # The dims are checked before the amplitudes, so no test allocates a register.
    with pytest.raises(ValueError, match=">= 2"):
        QuditState((3, 1), np.zeros(3))
    with pytest.raises(ValueError, match="budget"):
        QuditState((2,) * 28, np.zeros(1))
    with pytest.raises(ValueError, match="budget"):
        basis_state((2,) * 28, (0,) * 28)
    # Exactly at the budget is allowed: the refusal is then the amplitude count.
    with pytest.raises(ValueError, match="does not match"):
        QuditState((2,) * 27, np.zeros(1))
    with pytest.raises(ValueError):
        QuditState((), np.zeros(1))
    assert QuditState([2, 3.0], np.zeros(6)).dims == (2, 3)


def test_an_oversized_register_is_refused_without_its_amplitude_count():
    # 3^100000 has 47713 digits: forming it takes about half a second and
    # printing it fails.  The refusal names the site count and the budget.
    dims = (3,) * 100000
    with pytest.raises(ValueError, match=r"100000-site register exceeds the \d+ amplitude budget"):
        QuditState(dims, [1.0])
    with pytest.raises(ValueError, match=r"100000-site register exceeds the \d+ amplitude budget"):
        basis_state(dims, [0] * 100000)


def test_a_register_with_a_site_below_dimension_2_is_refused_by_that_site():
    # The message names the first offending site, not the whole dims tuple.
    with pytest.raises(ValueError, match="got 1 at site 100000") as err:
        QuditState((3,) * 100000 + (1,), [1.0])
    assert len(str(err.value)) < 200


def test_local_operator_support_validation():
    with pytest.raises(ValueError, match="distinct"):
        LocalOperator(np.eye(9), (1, 1))


def test_apply_errors():
    state = basis_state((2, 3), (0, 0))
    with pytest.raises(IndexError):
        apply_local(state, SZ.on(5))
    with pytest.raises(ValueError, match="dimension"):
        apply_local(state, SZ.on(0))  # 3x3 matrix on the qubit site
    with pytest.raises(ValueError, match="inside"):
        apply_controlled(state, LocalOperator(np.eye(2), (0,)))
    with pytest.raises(ValueError, match="qubit"):
        apply_controlled(basis_state((3, 3), (0, 0)), SZ.on(1))

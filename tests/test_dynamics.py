import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from oracles import SZ1, csr, dense_xxz, neel_superposition_vec, propagator
from quditcorr import dynamics
from quditcorr.benchmark import neel_superposition
from quditcorr.dynamics import (
    DENSE_BLOCK_LIMIT,
    SparseHamiltonian,
    build_perturbed,
    build_xxz,
    evolve,
    make_propagator,
    site_sz_diagonal,
    trajectory,
)
from quditcorr.observables import spin_matrix
from quditcorr.register import QuditState, RegisterShape, basis_state


def random_state(rng, dims):
    shape = RegisterShape(dims)
    amp = rng.normal(size=shape.size) + 1j * rng.normal(size=shape.size)
    return QuditState(shape, amp / np.linalg.norm(amp))


def test_jz_only_chain_is_diagonal_in_products():
    h = csr(build_xxz(2, 0.0, 1.0)).toarray()
    np.testing.assert_allclose(h, np.diag([1, 0, -1, 0, 0, 0, -1, 0, 1]), atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sparse_chain_matches_dense_kron_oracle(n):
    h = build_xxz(n, 1.0, 0.5)
    assert h.hermitian
    np.testing.assert_allclose(csr(h).toarray(), dense_xxz(n, 1.0, 0.5), atol=1e-13)


def test_xy_chain_ground_energy():
    # frozen from the dense 9x9 eigensolver: the two-site XX chain
    # ground energy is -sqrt(2)
    h = build_xxz(2, 1.0, 0.0)
    vals = np.linalg.eigvalsh(csr(h).toarray())
    assert vals.min() == pytest.approx(-np.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_neel_states_not_coupled_by_two_local_terms(n):
    h = csr(build_xxz(n, 1.0, 0.5))
    idx_a = idx_b = 0
    for k in range(n):
        idx_a = idx_a * 3 + (0 if k % 2 == 0 else 2)
        idx_b = idx_b * 3 + (2 if k % 2 == 0 else 0)
    assert abs(h[idx_a, idx_b]) == 0.0


def test_build_xxz_validation():
    with pytest.raises(ValueError, match="at least 2"):
        build_xxz(1, 1.0, 0.5)


def test_perturbed_hermitian_block():
    h0 = build_xxz(3, 2.0, 0.5)
    hp = build_perturbed(h0, 1, 0.3, "hermitian")
    diff = (csr(hp) - csr(h0)).toarray()
    expected = -0.3 * 2.0 * np.kron(np.kron(np.eye(3), SZ1), np.eye(3))
    np.testing.assert_allclose(diff, expected, atol=1e-14)
    assert hp.hermitian


def test_perturbed_non_hermitian_adjoint():
    h0 = build_xxz(2, 1.0, 0.5)
    hp = build_perturbed(h0, 0, 0.2, "non_hermitian")
    assert not hp.hermitian
    diff = (csr(hp).conj().T - csr(h0)).toarray()
    expected = 1j * 0.2 * np.kron(SZ1, np.eye(3))
    np.testing.assert_allclose(diff, expected, atol=1e-14)


def test_perturbed_small_lambda_limit():
    h0 = build_xxz(2, 1.0, 0.5)
    hp = build_perturbed(h0, 0, 1e-14, "hermitian")
    assert abs(csr(hp) - csr(h0)).max() <= 2e-14


def test_perturbed_validation():
    h0 = build_xxz(2, 1.0, 0.5)
    with pytest.raises(ValueError, match="positive"):
        build_perturbed(h0, 0, 0.0, "hermitian")
    with pytest.raises(IndexError):
        build_perturbed(h0, 5, 0.1, "hermitian")
    with pytest.raises(ValueError, match="kind"):
        build_perturbed(h0, 0, 0.1, "imaginary")
    for kind in ("hermitian", "non_hermitian"):
        with pytest.raises(ValueError, match="positive"):
            build_perturbed(h0, 0, np.nan, kind)


def kron_xxz(n, j_xy, j_z):
    """H as SciPy builds it: each bond's sp.kron term added in order to an empty CSR."""
    sx, sy, sz = (spin_matrix(1, axis).matrix for axis in "xyz")
    bond = sp.csr_matrix(j_xy * (np.kron(sx, sx) + np.kron(sy, sy)) + j_z * np.kron(sz, sz))
    h = sp.csr_matrix((3**n, 3**n), dtype=np.complex128)
    for i in range(n - 1):
        left = sp.identity(3**i, format="csr", dtype=np.complex128)
        right = sp.identity(3 ** (n - i - 2), format="csr", dtype=np.complex128)
        h = h + sp.kron(sp.kron(left, bond), right, format="csr")
    return h


def kron_perturbed(h, n, j_xy, site, lam, kind):
    pert = sp.diags(site_sz_diagonal(n, site) * (lam * j_xy))
    return (h - pert if kind == "hermitian" else h - 1j * pert).tocsr()


def assert_same_bits(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("j_xy, j_z", [(1.0, 0.5), (2.0, 0.0)])
def test_hamiltonians_equal_the_kron_construction_bit_for_bit(n, j_xy, j_z):
    # lambda = 0.5 at J_z = 0.5 cancels some diagonal entries of H0, which
    # SciPy then drops.
    h0 = build_xxz(n, j_xy, j_z)
    want0 = kron_xxz(n, j_xy, j_z)
    assert_same_bits(h0, want0)
    for site in (0, n // 2):
        for lam in (0.2, 0.5):
            for kind in ("hermitian", "non_hermitian"):
                got = build_perturbed(h0, site, lam, kind)
                assert_same_bits(got, kron_perturbed(want0, n, j_xy, site, lam, kind))


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("mirrored", [True, False], ids=["symmetric-pattern", "lone-entry"])
def test_hermitian_flag_checks_every_entry_against_its_mirror(mirrored, n):
    # An asymmetry either in the value of a stored entry whose mirror is
    # stored, or as an entry whose mirror is not stored at all (all +1 to
    # all -1).  At N = 10, row * dim + column no longer fits 32 bits.
    h0 = csr(build_xxz(n, 1.0, 0.5))
    dim = h0.shape[0]
    row, col = (1, 3) if mirrored else (0, dim - 1)
    assert (h0[row, col] != 0) == mirrored and h0[col, row] == h0[row, col]
    for eps, raises in ((1e-9, True), (1e-13, False), (np.nan, True)):
        bump = sp.csr_matrix(([eps], ([row], [col])), shape=h0.shape)
        if raises:
            with pytest.raises(ValueError, match="hermitian flag"):
                SparseHamiltonian(h0 + bump, True, 1.0)
        else:
            assert SparseHamiltonian(h0 + bump, True, 1.0).hermitian
        assert not SparseHamiltonian(h0 + bump, False, 1.0).hermitian


@pytest.mark.parametrize(
    "data, indices, indptr, message",
    [
        ([1, 2, 1, 3, 9], [0, 1, 1, 2], [0, 2, 3, 4], "entries but indices"),
        ([1, 2, 1], [0, 1, 1, 2], [0, 2, 3, 4], "entries but indices"),
        ([1, 2, 1, 3], [0, 1, 1, 2], [1, 2, 3, 4], "start at 0"),
        ([1, 2, 1, 3], [0, 1, 1, 2], [0, 3, 2, 4], "must not decrease"),
        ([1, 2, 1, 3], [0, 1, 1, 2], [0, 2, 3, 3], "must end at 4 entries"),
        ([1, 2, 1, 3], [0, 1, 1, 3], [0, 2, 3, 4], "not square"),
        # Unsorted columns, a repeated entry, and both at once.
        ([2, 1, 1, 3], [1, 0, 1, 2], [0, 2, 3, 4], "ascend strictly"),
        ([1, 2, 0.5, 0.5, 3], [0, 1, 1, 1, 2], [0, 2, 4, 5], "ascend strictly"),
        ([2, 1, 0.5, 0.5, 3], [1, 0, 1, 1, 2], [0, 2, 4, 5], "ascend strictly"),
    ],
    ids=["data-longer", "data-shorter", "indptr-not-from-0", "indptr-decreasing",
         "indptr-short", "column-out-of-range", "unsorted", "duplicate", "unsorted-duplicate"],
)
def test_constructor_refuses_malformed_or_non_canonical_csr_arrays(data, indices, indptr, message):
    # Each fault is one ValueError naming it; the canonical arrays of the
    # same matrix, as plain arrays, are accepted.
    arrays = types.SimpleNamespace(data=np.array(data, dtype=float), indices=np.array(indices),
                                   indptr=np.array(indptr))
    with pytest.raises(ValueError, match=message):
        SparseHamiltonian(arrays, False, 1.0)
    canonical = types.SimpleNamespace(data=np.array([1.0, 2.0, 1.0, 3.0]),
                                      indices=np.array([0, 1, 1, 2]), indptr=np.array([0, 2, 3, 4]))
    h = SparseHamiltonian(canonical, False, 1.0)
    np.testing.assert_array_equal(csr(h).toarray(), [[1, 2, 0], [0, 1, 0], [0, 0, 3]])


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("j_z", [0.5, 0.0, -1.0])
def test_blocks_are_the_connected_components_of_h(n, j_z):
    # The total-S^z sectors, in order and index for index, are what a
    # graph search of H's pattern finds: no sector splits further.
    h = build_xxz(n, 1.0, j_z)
    count, labels = connected_components(abs(csr(h)), directed=False)
    components = [np.flatnonzero(labels == k) for k in range(count)]
    blocks = make_propagator(h).blocks
    assert len(blocks) == count == 2 * n + 1
    for block, component in zip(blocks, components):
        assert np.array_equal(block.index, component)


def test_an_entry_between_two_sectors_is_refused():
    # Indices 0 (all +1) and 1 (the last site at 0) differ in total S^z.
    bump = sp.csr_matrix(([0.1, 0.1], ([0, 1], [1, 0])), shape=(9, 9))
    h = SparseHamiltonian(csr(build_xxz(2, 1.0, 0.5)) + bump, True, 1.0)
    with pytest.raises(ValueError, match="between two total-S\\^z sectors"):
        make_propagator(h)


@pytest.mark.parametrize("dim", [0, 1, 2, 4, 8, 10, 26])
def test_a_dimension_that_is_not_a_power_of_3_is_refused(dim):
    with pytest.raises(ValueError, match=f"dimension {dim} is not 3\\^N"):
        SparseHamiltonian(sp.identity(dim, format="csr"), True, 1.0)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_dimension_and_n_sites_are_derived_from_the_matrix(n):
    h = SparseHamiltonian(sp.identity(3**n, format="csr"), True, 2)
    assert (h.dimension, h.n_sites) == (3**n, n)
    assert type(h.j_xy) is float and h.j_xy == 2.0
    if n > 1:
        h = build_xxz(n, 0.7, 0.5)
        assert (h.dimension, h.n_sites, h.j_xy) == (3**n, n, 0.7)


def test_zero_duration_returns_same_state():
    # On both strategies and with an ancilla, time 0 is a copy of the
    # input: equal to it and sharing no memory with it.
    h = build_xxz(2, 1.0, 0.5)
    rng = np.random.default_rng(0)
    for strategy in ("dense-eig", "sparse"):
        prop = propagator(strategy, h)
        for dims in ((3, 3), (2, 3, 3)):
            state = random_state(rng, dims)
            first = next(trajectory(prop, state, [0.0, 0.5]))
            for out in (evolve(prop, state, 0.0), first):
                np.testing.assert_array_equal(out.amplitudes, state.amplitudes)
                assert not np.shares_memory(out.amplitudes, state.amplitudes)


def test_eigenstate_acquires_phase_only():
    h = build_xxz(2, 1.0, 0.5)
    vals, vecs = np.linalg.eigh(csr(h).toarray())
    k = 3
    state = QuditState(RegisterShape((3, 3)), vecs[:, k])
    out = evolve(make_propagator(h), state, 1.7)
    np.testing.assert_allclose(
        out.amplitudes, np.exp(-1j * vals[k] * 1.7) * vecs[:, k], atol=1e-12
    )
    assert abs(np.sqrt(out.squared_norm) - 1) <= 1e-12


@pytest.mark.parametrize("strategy", ["dense-eig", "sparse"])
def test_group_property(strategy):
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        h = build_xxz(n, 1.0, 0.5)
        prop = propagator(strategy, h)
        state = random_state(rng, (3,) * n)
        t1, t2 = rng.uniform(0.1, 3.0, 2)
        a = evolve(prop, evolve(prop, state, t1), t2)
        b = evolve(prop, state, t1 + t2)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-8


def test_sparse_matches_dense_many_durations():
    # The Taylor kernel's (m, s) grow with |t| * ||H_b - mu I||_1: at t = +-30
    # the 19-state block (step norm 190) runs s = 20 steps of m = 55 terms,
    # and the two 1-state blocks are the trace phase alone (m = 0).
    rng = np.random.default_rng(2)
    h = build_xxz(4, 1.0, 0.5)
    pd = propagator("dense-eig", h)
    ps = propagator("sparse", h)
    state = random_state(rng, (3,) * 4)
    for t in [*rng.uniform(0.0, 10.0, 50), *rng.uniform(10.0, 30.0, 10), 30.0, -30.0]:
        a = evolve(pd, state, t)
        b = evolve(ps, state, t)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-8


@pytest.mark.usefixtures("restore_global_random_state")
def test_sparse_evolve_ignores_the_global_random_state():
    # The Taylor kernel takes (m, s) from each block's exact 1-norm and draws
    # no random numbers: at t = 20 the 141-state block (step norm 206) runs
    # s = 21 steps of m = 55 terms whatever the state of np.random.
    h = build_xxz(6, 1.0, 0.5)
    prop = propagator("sparse", h)
    state = random_state(np.random.default_rng(11), (3,) * 6)
    seen = set()
    for seed in range(4):
        np.random.seed(seed)
        seen.add(evolve(prop, state, 20.0).amplitudes.tobytes())
    assert len(seen) == 1


@pytest.mark.parametrize("columns", [1, 2])
def test_taylor_degree_is_fragment_3_1_on_the_exact_norm_branch(columns):
    # SciPy's expm_multiply picks (m, s) from the exact 1-norm while its
    # condition 3.13 holds (norm <= ~63.4 / columns) and from onenormest
    # beyond it; the kernel uses the exact-norm choice at every norm.
    from scipy.sparse.linalg._expm_multiply import (
        LazyOperatorNormInfo,
        _compute_p_max,
        _condition_3_13,
        _fragment_3_1,
        _theta,
    )

    p = _compute_p_max(55)
    limit = (2 * 2 * p * (p + 3)) * (_theta[55] / (columns * 55))  # as SciPy rounds it
    assert not _condition_3_13(np.nextafter(limit, np.inf), columns, 55, 2)
    rng = np.random.default_rng(20 + columns)
    norms = [1e-6, *np.geomspace(1e-6, limit, 300), *rng.uniform(0.0, limit, 300), limit]
    for norm in norms:
        assert _condition_3_13(norm, columns, 55, 2)
        info = LazyOperatorNormInfo(None, A_1_norm=norm, ell=2)
        assert dynamics._taylor_degree(norm) == _fragment_3_1(info, columns, 2.0**-53, ell=2)
    # SciPy takes no Taylor term for a zero norm, and one step.
    assert dynamics._taylor_degree(0.0) == (0, 1)


@pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "non-hermitian"])
def test_taylor_kernel_matches_expm(monkeypatch, csr, hermitian):
    # Step norms from 1e-3 to past 63.4, where SciPy would estimate its
    # norms instead; forwards and backwards, two columns.
    n = 40
    if csr:
        monkeypatch.setattr(dynamics, "DENSE_BLOCK_LIMIT", n - 1)
    rng = np.random.default_rng(21)
    a = sp.random(n, n, density=0.2, random_state=rng, format="csr") * (1 + 0j)
    a.data += 1j * rng.normal(size=a.data.size)
    a = a + sp.diags(rng.normal(size=n))
    h = ((a + a.conj().T) / 2 if hermitian else a).tocsr()
    sub = dynamics._Csr(h.data, h.indices.astype(np.int32), h.indptr.astype(np.int64))
    a, mu, norm1 = dynamics._taylor_op(sub, np.zeros(n))
    assert sp.issparse(a) == csr
    x = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    for norm in (1e-3, 0.1, 1.0, 10.0, 63.4, 100.0, 200.0):
        for t in (norm / norm1, -norm / norm1):
            got = next(dynamics._taylor_stream((a, mu, norm1), x, [t]))
            want = scipy.linalg.expm(-1j * t * h.toarray()) @ x
            assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def test_blocks_hold_no_entries_and_build_on_first_touch():
    # A block gathers its sub-matrix from H's arrays when a state first
    # touches it, so building a propagator converts nothing: at N = 8,
    # where the largest blocks run the Taylor kernel on SciPy CSR, it
    # loads no SciPy.
    code = (
        "import sys\nfrom quditcorr import dynamics\n"
        "dynamics.make_propagator(dynamics.build_xxz(8, 1.0, 0.5))\n"
        "print('scipy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(dynamics.__file__).parents[1])}
    cmd = [sys.executable, "-c", code]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    h, psi = build_xxz(8, 1.0, 0.5), neel_superposition(8)
    prop = make_propagator(h)
    assert all(b._op is None for b in prop.blocks)
    evolve(prop, psi, 0.5)
    touched = prop.blocks_touched(psi)
    assert [b._op is not None for b in prop.blocks] == [b in touched for b in prop.blocks]
    (b,) = touched
    assert b.strategy == "sparse" and b.index.size > DENSE_BLOCK_LIMIT
    m = csr(h)[b.index][:, b.index]
    sub = dynamics._Csr(m.data, m.indices.astype(np.int32), m.indptr.astype(np.int64))
    a, mu, norm1 = dynamics._taylor_op(sub, np.zeros(b.index.size))
    got, got_mu, got_norm1 = b.op
    assert (got_mu, got_norm1) == (mu, norm1)
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(a, name).tobytes()


def test_energy_conservation_and_norm_drift():
    rng = np.random.default_rng(3)
    h = build_xxz(4, 1.0, 0.5)
    prop = propagator("sparse", h)
    state = random_state(rng, (3,) * 4)
    e0 = np.vdot(state.amplitudes, csr(h) @ state.amplitudes).real
    out = state
    for _ in range(10):
        out = evolve(prop, out, 1.0)
    e1 = np.vdot(out.amplitudes, csr(h) @ out.amplitudes).real / out.squared_norm
    assert abs(e1 - e0) <= 1e-8
    assert abs(np.sqrt(out.squared_norm) - 1.0) <= 1e-9


def test_non_hermitian_single_spin_norm_decay():
    # H = -i*lambda*J*S^z on one spin-1: |m=+1> decays as exp(-2*lambda*J*t)
    lam, j, t = 0.3, 1.0, 0.8
    mat = sp.csr_matrix(-1j * lam * j * SZ1)
    h = SparseHamiltonian(mat, hermitian=False, j_xy=j)
    state = QuditState(RegisterShape((3,)), np.array([1.0, 0, 0], dtype=complex))
    out = evolve(make_propagator(h), state, t)
    assert out.squared_norm == pytest.approx(np.exp(-2 * lam * j * t), rel=1e-10)
    expm_out = scipy.linalg.expm(-1j * t * mat.toarray()) @ state.amplitudes
    np.testing.assert_allclose(out.amplitudes, expm_out, atol=1e-12)


@pytest.mark.parametrize("strategy", ["sparse"])
def test_non_hermitian_matches_expm_oracle(strategy):
    rng = np.random.default_rng(4)
    for n in (2, 3):
        h0 = build_xxz(n, 1.0, 0.5)
        hp = build_perturbed(h0, 0, 0.25, "non_hermitian")
        prop = propagator(strategy, hp)
        state = random_state(rng, (3,) * n)
        t = 0.9
        out = evolve(prop, state, t)
        oracle = scipy.linalg.expm(-1j * t * csr(hp).toarray()) @ state.amplitudes
        assert np.max(np.abs(out.amplitudes - oracle)) <= 1e-9
        assert out.squared_norm == pytest.approx(np.vdot(oracle, oracle).real, rel=1e-9)


def test_kernel_rule_is_the_hermitian_flag_and_the_block_size(monkeypatch):
    # A block is dense-eig exactly when H is flagged Hermitian and the
    # block is at most DENSE_BLOCK_LIMIT.  At N = 4 the sectors have
    # dimension 1, 4, 10, 16, 19 (each but 19 twice); the limit sits on 16.
    monkeypatch.setattr(dynamics, "DENSE_BLOCK_LIMIT", 16)
    h = build_xxz(4, 1.0, 0.5)
    kernels = {(b.index.size, b.strategy) for b in make_propagator(h).blocks}
    assert kernels == {(1, "dense-eig"), (4, "dense-eig"), (10, "dense-eig"), (16, "dense-eig"),
                       (19, "sparse")}
    unflagged = SparseHamiltonian(h, False, h.j_xy)
    assert {b.strategy for b in make_propagator(unflagged).blocks} == {"sparse"}
    hp = build_perturbed(build_xxz(2, 1.0, 0.5), 0, 0.25, "non_hermitian")
    assert {b.strategy for b in make_propagator(hp).blocks} == {"sparse"}
    assert {b.strategy for b in make_propagator(build_xxz(2, 1.0, 0.5)).blocks} == {"dense-eig"}


@pytest.mark.parametrize("strategy", ["dense-eig", "sparse"])
@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 3)])
def test_trajectory_matches_evolve_from_zero(strategy, dims):
    # A repeated time, a zero time and a non-uniform grid; (2, 3, 3)
    # carries an ancilla the propagator must leave alone.
    h = build_xxz(2 if dims[0] == 2 else 3, 1.0, 0.5)
    prop = propagator(strategy, h)
    state = random_state(np.random.default_rng(9), dims)
    grid = [0.0, 0.0, 0.4, 1.3, 1.3, 2.05, 7.5]
    states = list(trajectory(prop, state, grid))
    assert len(states) == len(grid)
    for t, got in zip(grid, states):
        want = evolve(prop, state, t)
        assert got.shape == state.shape
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-10
    np.testing.assert_array_equal(states[0].amplitudes, state.amplitudes)


def test_trajectory_rejects_decreasing_times():
    prop = make_propagator(build_xxz(2, 1.0, 0.5))
    state = random_state(np.random.default_rng(10), (3, 3))
    with pytest.raises(ValueError, match="non-decreasing"):
        trajectory(prop, state, [0.0, 1.0, 0.5])


@pytest.mark.parametrize("times", [[0.0, math.nan], [math.nan], [0.0, 1.0, math.inf], [-math.inf, 0.0]])
def test_trajectory_rejects_non_finite_times(times):
    prop = make_propagator(build_xxz(2, 1.0, 0.5))
    state = random_state(np.random.default_rng(10), (3, 3))
    with pytest.raises(ValueError, match="finite"):
        trajectory(prop, state, times)
    with pytest.raises(ValueError, match="finite"):
        evolve(prop, state, next(t for t in times if not math.isfinite(t)))


def test_threads_sharing_a_propagator_factorize_each_block_once(monkeypatch):
    # Blocks build their operator on first touch: eigh for dense-eig and
    # _taylor_op for the Taylor kernel.  The lock keeps two threads that
    # touch a block at once from both building it.
    h, psi = build_xxz(5, 1.0, 0.5), neel_superposition(5)
    want = scipy.linalg.expm(-0.7j * dense_xxz(5, 1.0, 0.5)) @ neel_superposition_vec(5)
    built = []

    def slow(name, build):
        def slow_build(*args, **kwargs):
            built.append((name, len(args[-1])))  # eigh's matrix, _taylor_op's diagonal
            time.sleep(0.01)  # widen the window between the check and the store
            return build(*args, **kwargs)

        return slow_build

    monkeypatch.setattr(np.linalg, "eigh", slow("eigh", np.linalg.eigh))
    monkeypatch.setattr(dynamics, "_taylor_op", slow("_taylor_op", dynamics._taylor_op))
    for kernel, name in (("dense-eig", "eigh"), ("sparse", "_taylor_op")):
        built.clear()
        prop = propagator(kernel, h)
        assert built == []  # building the propagator builds no operator
        results, start = [], threading.Barrier(8)

        def work():
            start.wait()
            results.append(evolve(prop, psi, 0.7).amplitudes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(b.index.size for b in prop.blocks_touched(psi)) == [45, 45]
        assert built == [(name, 45), (name, 45)]
        assert len(results) == 8
        for got in results:
            assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("strategy", ["dense-eig", "sparse"])
def test_ancilla_block_left_untouched(strategy):
    rng = np.random.default_rng(5)
    h = build_xxz(2, 1.0, 0.5)
    state = random_state(rng, (2, 3, 3))
    out = evolve(propagator(strategy, h), state, 1.1)
    u = scipy.linalg.expm(-1j * 1.1 * csr(h).toarray())
    oracle = np.kron(np.eye(2), u) @ state.amplitudes
    np.testing.assert_allclose(out.amplitudes, oracle, atol=1e-10)


def test_negative_duration_inverts_evolution():
    rng = np.random.default_rng(6)
    h = build_xxz(3, 1.0, 0.5)
    for strategy in ("dense-eig", "sparse"):
        prop = propagator(strategy, h)
        state = random_state(rng, (3, 3, 3))
        back = evolve(prop, evolve(prop, state, 1.3), -1.3)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-9


def test_dimension_mismatch_rejected():
    h = build_xxz(3, 1.0, 0.5)
    state = random_state(np.random.default_rng(7), (3, 3))
    with pytest.raises(ValueError, match="trailing block"):
        evolve(make_propagator(h), state, 1.0)
    # A pulse diagonal built for a longer chain: 81 entries against 27.
    pulse = dynamics.perturbation(build_xxz(4, 1.0, 0.5), 3, 0.3, "hermitian")
    with pytest.raises(ValueError, match=r"pulse diagonal of shape \(81,\), expected \(27,\)"):
        evolve(make_propagator(h), random_state(np.random.default_rng(7), (3,) * 3), 0.1, pulse)


def sector_of_each_index(n):
    """Total S^z of every product-basis index (level 0 is m = +1)."""
    m = np.zeros(3**n, dtype=int)
    for k in range(n):
        m += 1 - (np.arange(3**n) // 3 ** (n - 1 - k)) % 3
    return m


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_blocks_are_the_total_sz_sectors(n):
    # The sparsity pattern of H splits into the 2N + 1 sectors, the two
    # of dimension 1 (all +1, all -1) included.
    prop = make_propagator(build_xxz(n, 1.0, 0.5))
    m = sector_of_each_index(n)
    assert len(prop.blocks) == 2 * n + 1
    assert np.array_equal(np.sort(np.concatenate([b.index for b in prop.blocks])), np.arange(3**n))
    for b in prop.blocks:
        assert np.all(np.diff(b.index) > 0)
        assert np.unique(m[b.index]).size == 1
    assert sorted(b.index.size for b in prop.blocks)[:2] == [1, 1]


def test_dense_strategy_dimension_limit():
    # The dense-eig limit applies per block: at N = 8 (dimension 6561) the
    # sectors of dimension 504 to 1107 are propagated sparsely, the rest
    # are diagonalized.
    p8 = propagator("dense-eig", build_xxz(8, 1.0, 0.5))
    assert p8.hamiltonian.hermitian
    big = sorted(b.index.size for b in p8.blocks if b.strategy == "sparse")
    assert big == [504, 504, 784, 784, 1016, 1016, 1107]
    assert all(b.index.size <= DENSE_BLOCK_LIMIT for b in p8.blocks if b.strategy == "dense-eig")


def test_cut_over_sends_n7_to_sparse(monkeypatch):
    # The cut-over is per block. At N = 7 every sector, the largest of
    # dimension 393, is within DENSE_BLOCK_LIMIT and diagonalized, as at
    # N = 6; a limit one below 393 sends exactly that sector to sparse.
    for n, largest in ((6, 141), (7, 393)):
        prop = make_propagator(build_xxz(n, 1.0, 0.5))
        assert prop.hamiltonian.hermitian
        assert max(b.index.size for b in prop.blocks) == largest
        assert {b.strategy for b in prop.blocks} == {"dense-eig"}
    monkeypatch.setattr(dynamics, "DENSE_BLOCK_LIMIT", 392)
    p7 = make_propagator(build_xxz(7, 1.0, 0.5))
    assert [b.index.size for b in p7.blocks if b.strategy == "sparse"] == [393]


def test_non_hermitian_hamiltonian_is_all_sparse():
    hp = build_perturbed(build_xxz(4, 1.0, 0.5), 1, 0.25, "non_hermitian")
    prop = make_propagator(hp)
    assert not prop.hamiltonian.hermitian
    assert len(prop.blocks) == 9
    assert {b.strategy for b in prop.blocks} == {"sparse"}


def test_neel_superposition_touches_one_sector_at_even_n_and_two_at_odd_n():
    for n, dims in ((6, [141]), (7, [357, 357])):
        prop = make_propagator(build_xxz(n, 1.0, 0.5))
        assert [b.index.size for b in prop.blocks_touched(neel_superposition(n))] == dims


CASES = [
    ("dense-eig", None),
    ("sparse", None),
    ("dense-eig", "hermitian"),
    ("sparse", "non_hermitian"),
    ("dense-eig", "complex"),
]


def hamiltonian_case(n, kind):
    h0 = build_xxz(n, 1.0, 0.5)
    if kind == "complex":
        # D H0 D^+ with random diagonal phases: Hermitian, complex off the
        # diagonal, with H0's blocks and spectrum.
        d = sp.diags(np.exp(1j * np.random.default_rng(n).uniform(0, 2 * np.pi, h0.dimension)))
        mat = (d @ csr(h0) @ d.conj()).tocsr()
        return SparseHamiltonian(mat, True, h0.j_xy)
    return h0 if kind is None else build_perturbed(h0, n - 1, 0.3, kind)


@pytest.mark.parametrize("strategy, kind", CASES)
@pytest.mark.parametrize("dims_before", [(), (2,)], ids=["system", "ancilla"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_trajectory_matches_full_space_expm(n, dims_before, strategy, kind):
    # A random state touches every block, the dimension-1 ones included;
    # an ancilla's rows are propagated alike.
    h = hamiltonian_case(n, kind)
    prop = propagator(strategy, h)
    state = random_state(np.random.default_rng(100 + n), dims_before + (3,) * n)
    assert len(prop.blocks_touched(state)) == 2 * n + 1
    rows = state.amplitudes.reshape(-1, h.dimension)
    full = csr(h).toarray()
    grid = [0.0, 1.2, 1.2, 4.0]
    for t, got in [*zip(grid, trajectory(prop, state, grid)), (-2.5, evolve(prop, state, -2.5))]:
        want = rows @ scipy.linalg.expm(-1j * t * full).T
        assert np.max(np.abs(got.amplitudes - want.reshape(-1))) <= 1e-10
        assert got.shape == state.shape


def test_dense_and_sparse_blocks_in_one_trajectory(monkeypatch):
    # With the limit at 10, N = 4 has dense blocks (1, 4, 10) and sparse
    # ones (16, 19); one random state with an ancilla touches them all.
    monkeypatch.setattr(dynamics, "DENSE_BLOCK_LIMIT", 10)
    h = build_xxz(4, 1.0, 0.5)
    prop = make_propagator(h)
    assert {b.strategy for b in prop.blocks} == {"dense-eig", "sparse"}
    state = random_state(np.random.default_rng(12), (2,) + (3,) * 4)
    rows = state.amplitudes.reshape(2, -1)
    grid = [0.0, 0.7, 3.1]
    for t, got in zip(grid, trajectory(prop, state, grid)):
        want = rows @ scipy.linalg.expm(-1j * t * csr(h).toarray()).T
        assert np.max(np.abs(got.amplitudes - want.reshape(-1))) <= 1e-10


@pytest.mark.parametrize("strategy, kind", CASES)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_state_in_a_dimension_one_block_gets_its_phase(n, strategy, kind):
    # All +1 is its own block: H multiplies it by (N - 1) J_z, and the
    # perturbation on the last site subtracts lambda (times i if non-Hermitian).
    h = hamiltonian_case(n, kind)
    energy = (n - 1) * 0.5 - {"hermitian": 0.3, "non_hermitian": 0.3j}.get(kind, 0.0)
    state = basis_state((3,) * n, (0,) * n)
    out = evolve(propagator(strategy, h), state, 1.7)
    assert np.count_nonzero(out.amplitudes) == 1
    assert out.amplitudes[0] == pytest.approx(np.exp(-1j * energy * 1.7), abs=1e-13)

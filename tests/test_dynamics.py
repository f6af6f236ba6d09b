import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from oracles import (
    SZ1,
    blocks_touched,
    csr,
    dense_xxz,
    neel_superposition_vec,
    propagator,
    pulse_diagonal,
    site_sz,
    start,
)
from quditcorr import dynamics
from quditcorr.benchmark import neel_superposition
from quditcorr.dynamics import (
    DENSE_BLOCK_LIMIT,
    SparseHamiltonian,
    build_perturbed,
    build_xxz,
    evolve,
    make_propagator,
    trajectory,
)
from quditcorr.observables import spin_matrix
from quditcorr.register import QuditState, basis_state


def random_state(rng, dims):
    size = int(np.prod(dims))
    amp = rng.normal(size=size) + 1j * rng.normal(size=size)
    return QuditState(dims, amp / np.linalg.norm(amp))


def test_jz_only_chain_is_diagonal_in_products():
    h = csr(build_xxz(2, 0.0, 1.0)).toarray()
    np.testing.assert_allclose(h, np.diag([1, 0, -1, 0, 0, 0, -1, 0, 1]), atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sparse_chain_matches_dense_kron_oracle(n):
    h = build_xxz(n, 1.0, 0.5)
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
    # 3^(10^8) alone takes minutes to compute: the chain length is compared
    # with the amplitude budget first, and the dimension is not printed.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^dimension 3\^100000000 exceeds the 134217728 budget$"):
        build_xxz(10**8, 1.0, 0.5)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match=r"^dimension 3\^18 = 387420489 exceeds"):
        build_xxz(18, 1.0, 0.5)


def test_perturbed_hermitian_block():
    h0 = build_xxz(3, 2.0, 0.5)
    hp = build_perturbed(h0, pulse_diagonal(h0, 1, 0.3, "hermitian"))
    diff = (csr(hp) - csr(h0)).toarray()
    expected = -0.3 * 2.0 * np.kron(np.kron(np.eye(3), SZ1), np.eye(3))
    np.testing.assert_allclose(diff, expected, atol=1e-14)
    evolve(make_propagator(hp), neel_superposition(3), 0.5)  # its blocks pass the Hermitian check


def test_perturbed_non_hermitian_adjoint():
    h0 = build_xxz(2, 1.0, 0.5)
    hp = build_perturbed(h0, pulse_diagonal(h0, 0, 0.2, "non_hermitian"))
    with pytest.raises(ValueError, match="a block of H must be Hermitian"):
        evolve(make_propagator(hp), neel_superposition(2), 0.5)
    diff = (csr(hp).conj().T - csr(h0)).toarray()
    expected = 1j * 0.2 * np.kron(SZ1, np.eye(3))
    np.testing.assert_allclose(diff, expected, atol=1e-14)


def test_perturbed_small_lambda_limit():
    h0 = build_xxz(2, 1.0, 0.5)
    hp = build_perturbed(h0, pulse_diagonal(h0, 0, 1e-14, "hermitian"))
    assert abs(csr(hp) - csr(h0)).max() <= 2e-14


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
    pert = sp.diags(site_sz(n, site) * (lam * j_xy))
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
                got = build_perturbed(h0, pulse_diagonal(h0, site, lam, kind))
                assert_same_bits(got, kron_perturbed(want0, n, j_xy, site, lam, kind))


@pytest.mark.parametrize("n", [3, 8, 10])
@pytest.mark.parametrize("mirrored", [True, False], ids=["symmetric-pattern", "lone-entry"])
def test_hermitian_flag_checks_every_entry_against_its_mirror(mirrored, n):
    # An asymmetry either in the value of a stored entry whose mirror is
    # stored, or as an entry whose mirror is not stored at all (all +1 to
    # all -1).  The stored entry lies in the sector of digit sum 1, which
    # has dimension N and is always dense-eig, except at N = 8: there it
    # joins the Neel state to one flip-flop of its first bond, in the
    # M = 0 sector of dimension 1107, which runs the Taylor kernel.  A
    # block of H is checked when a state first propagates through it, by H
    # or by a pulse of H, which adds its diagonal to the same checked block;
    # the lone entry joins two sectors, which make_propagator refuses.
    h0 = csr(build_xxz(n, 1.0, 0.5))
    dim = h0.shape[0]
    if n == 8:  # base-3 digits: the Neel state and a flip-flop of its first bond
        row, col = int("02" * 4, 3), int("11" + "02" * 3, 3)
        in_bumped_sector = neel_superposition(n)
    else:
        row, col, in_bumped_sector = 1, 3, basis_state((3,) * n, [0] * (n - 1) + [1])  # index 1
    if not mirrored:
        row, col = 0, dim - 1
    assert (h0[row, col] != 0) == mirrored and h0[col, row] == h0[row, col]
    if mirrored:
        clean = make_propagator(SparseHamiltonian(h0, 1.0))
        (block,) = blocks_touched(clean, in_bumped_sector)
        assert {row, col} <= set(block.index)
        assert dynamics.kernel(block.index.size, False) == ("sparse" if n == 8 else "dense-eig")
    for eps, raises in ((1e-9, True), (1e-13, False), (np.nan, True)):
        bump = sp.csr_matrix(([eps], ([row], [col])), shape=h0.shape)
        h = SparseHamiltonian(h0 + bump, 1.0)
        if not mirrored:
            with pytest.raises(ValueError, match="between two total-S.z sectors"):
                make_propagator(h)
            continue
        for pulsed in (False, True):
            p = make_propagator(h)
            p = p.pulse(0, 0.0) if pulsed else p
            if raises:
                with pytest.raises(ValueError, match="a block of H must be Hermitian"):
                    evolve(p, in_bumped_sector, 0.3)
            else:
                evolve(p, in_bumped_sector, 0.3)


@pytest.mark.parametrize("n", [4, 8], ids=["dense-eig", "sparse"])
def test_a_bad_entry_outside_the_touched_sectors_does_not_stop_propagation(n):
    # The Hermitian check reads the blocks a state propagates through, and
    # no other: a bump in the sector of digit sum 1 leaves the Neel
    # superposition's propagation bit for bit as on the clean H.
    h0 = csr(build_xxz(n, 1.0, 0.5))
    bump = sp.csr_matrix(([1e-3], ([1], [3])), shape=h0.shape)
    clean, bad = (make_propagator(SparseHamiltonian(h, 1.0)) for h in (h0, h0 + bump))
    psi0 = neel_superposition(n)
    want = evolve(clean, psi0, 0.7).amplitudes
    assert evolve(bad, psi0, 0.7).amplitudes.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="a block of H must be Hermitian"):
        evolve(bad, basis_state((3,) * n, [0] * (n - 1) + [1]), 0.7)


def test_building_h_at_n11_peaks_under_120_mb():
    # H's own arrays are 36 MB at N = 11; a pass over all of H's entries
    # (a Hermitian check at construction) took the peak to 168 MB.  The
    # child reads its VmHWM: its ru_maxrss would include the RSS of this
    # process, which the kernel records when the child execs.
    code = (
        "from quditcorr.dynamics import build_xxz\n"
        "build_xxz(11, 1.0, 0.5)\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('VmHWM:')))"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(dynamics.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 120 * 1024  # kB


def test_csr_validation_allocates_under_3_bytes_per_entry():
    # The columns are checked pairwise as int32: a row-and-column key per
    # entry took 9.8 B per entry.  J_z = 0 leaves rows empty, row 0 included.
    for j_z in (0.5, 0.0):
        h = build_xxz(10, 1.0, j_z)
        tracemalloc.start()
        try:
            SparseHamiltonian(h, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * h.indices.size, (j_z, peak / h.indices.size)


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
        SparseHamiltonian(arrays, 1.0)
    canonical = types.SimpleNamespace(data=np.array([1.0, 2.0, 1.0, 3.0]),
                                      indices=np.array([0, 1, 1, 2]), indptr=np.array([0, 2, 3, 4]))
    h = SparseHamiltonian(canonical, 1.0)
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
    h = SparseHamiltonian(csr(build_xxz(2, 1.0, 0.5)) + bump, 1.0)
    with pytest.raises(ValueError, match="between two total-S\\^z sectors"):
        make_propagator(h)


@pytest.mark.parametrize("dim", [0, 1, 2, 4, 8, 10, 26])
def test_a_dimension_that_is_not_a_power_of_3_is_refused(dim):
    with pytest.raises(ValueError, match=f"dimension {dim} is not 3\\^N"):
        SparseHamiltonian(sp.identity(dim, format="csr"), 1.0)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_dimension_and_n_sites_are_derived_from_the_matrix(n):
    h = SparseHamiltonian(sp.identity(3**n, format="csr"), 2)
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
            index, arrays = trajectory(prop, start(state), [0.0, 0.5])
            first, out = next(arrays), evolve(prop, state, 0.0)
            np.testing.assert_array_equal(out.amplitudes, state.amplitudes)
            np.testing.assert_array_equal(first, state.amplitudes.reshape(-1, 9)[:, index])
            for got in (out.amplitudes, first):
                assert not np.shares_memory(got, state.amplitudes)


def test_eigenstate_acquires_phase_only():
    h = build_xxz(2, 1.0, 0.5)
    vals, vecs = np.linalg.eigh(csr(h).toarray())
    k = 3
    state = QuditState((3, 3), vecs[:, k])
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


def test_taylor_counts_stay_finite_and_past_the_cap_price_over_the_work_bound():
    # A norm past the cap, infinite and NaN included, is counted at the cap,
    # whose steps alone price over MAX_WORK: such a count is a lower bound.
    cap = dynamics._taylor_cap()
    assert dynamics._taylor_degree(cap / 2) != dynamics._taylor_degree(cap)
    for norm in (np.nextafter(cap, math.inf), 1e308, math.inf, math.nan):
        assert dynamics._taylor_degree(norm) == dynamics._taylor_degree(cap)
    m, s = dynamics._taylor_degree(cap)
    assert m * s * dynamics.PRODUCT_SECONDS > dynamics.MAX_WORK


def _long_evolution(n: int, pulsed: bool):
    """The N = 8 propagator of H, whose M = 0 block runs Taylor on CSR, or an N = 4 zero pulse."""
    prop = make_propagator(build_xxz(n, 1.0, 0.5))
    return (prop.pulse(0, 0.0) if pulsed else prop), neel_superposition(n)


@pytest.mark.parametrize("n, pulsed", [(8, False), (4, True)], ids=["n8", "n4-zero-pulse"])
def test_the_kernel_refuses_a_trajectory_over_the_work_bound_before_any_product(
    monkeypatch, n, pulsed
):
    # evolve has no plan: the Taylor kernel prices its own (m, s) and refuses
    # over MAX_WORK before its first product.  At t = 1e9 the steps' counts
    # stop at the cap, so the minutes stated are a lower bound of the price
    # of the full counts.
    prop, psi = _long_evolution(n, pulsed)
    monkeypatch.setattr(dynamics, "_matmul", lambda m, z: pytest.fail("a product ran"))
    with pytest.raises(ValueError, match="over the bound of 10 min") as refusal:
        evolve(prop, psi, 1e9)
    stated = re.match(r"the time grid needs over (\S+) min of one-worker CPU on a block of "
                      r"dimension (\d+)", str(refusal.value))
    (block,) = blocks_touched(prop, psi)
    a, _, _, norms = block.op("sparse")
    norm1 = norms.max()  # a zero pulse moves no column's norm
    assert int(stated[2]) == block.index.size
    monkeypatch.setattr(dynamics, "MAX_WORK", math.inf)  # no cap
    m, s = dynamics._taylor_degree(1e9 * norm1)
    price = dynamics.trajectory_price("sparse", block.index.size, a.size, [1e9 * norm1])
    assert price[:2] == (m * s, False)
    assert float(stated[1]) * 60 < price[2]
    monkeypatch.undo()
    assert evolve(prop, psi, 1.0).squared_norm == pytest.approx(1.0)  # a short time still runs


@pytest.mark.parametrize("n, pulsed", [(8, False), (4, True)], ids=["n8", "n4-zero-pulse"])
def test_the_kernel_refuses_a_time_whose_phase_overflows(n, pulsed):
    # |t| times the bound on the block's 1-norm must be finite, before any
    # count: 1e308 is finite, but its phase is not.
    prop, psi = _long_evolution(n, pulsed)
    with pytest.raises(ValueError, match=r"^time 1e\+308 overflows the phase of exp\(-iHt\)$"):
        evolve(prop, psi, 1e308)


@pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("kind", ["hermitian", "non-hermitian"])
def test_taylor_kernel_matches_expm(csr, kind):
    # Step norms from 1e-3 to past 63.4, where SciPy would estimate its
    # norms instead; forwards and backwards, two columns.  Then a pulse: a
    # random complex diagonal d, which the kernel adds in each product, so
    # the reference is the exponential of h + diag(d).
    n = 40
    rng = np.random.default_rng(21)
    a = sp.random(n, n, density=0.2, random_state=rng, format="csr") * (1 + 0j)
    a.data += 1j * rng.normal(size=a.data.size)
    a = a + sp.diags(rng.normal(size=n))
    h = ((a + a.conj().T) / 2 if kind == "hermitian" else a).tocsr()
    op = dynamics._taylor_op(h if csr else h.toarray())
    assert sp.issparse(op[0]) == csr
    x = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    for d in (None, rng.normal(size=n) + 1j * rng.normal(size=n)):
        g = h.toarray() + np.diag(np.zeros(n) if d is None else d)  # what the kernel propagates
        norm1 = np.abs(g - np.trace(g) / n * np.eye(n)).sum(axis=0).max()
        for norm in (1e-3, 0.1, 1.0, 10.0, 63.4, 100.0, 200.0):
            for t in (norm / norm1, -norm / norm1):
                got = next(dynamics._taylor_stream(op, x, [t], d))
                want = scipy.linalg.expm(-1j * t * g) @ x
                assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def test_blocks_hold_no_entries_and_build_on_first_touch():
    # A block gathers its sub-matrix from H's arrays when a state first
    # touches it, so building a propagator converts nothing: at N = 8,
    # where the largest blocks run the Taylor kernel on SciPy CSR, it
    # loads no SciPy.  An untouched propagator holds no 3^N-entry array
    # but its blocks' indices, int32 views of one 3^N array: a block maps
    # H's columns to its positions by searching its own ascending index, and
    # its sub-matrix is H's, bit for bit, dense up to DENSE_BLOCK_LIMIT and
    # CSR above (N = 8, 9).
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
    for n in range(2, 10):
        h = build_xxz(n, 1.0, 0.5)
        prop = make_propagator(h)
        held = [v for b in prop.blocks for k, v in vars(b).items() if k != "index"]
        held += vars(prop).values()
        assert not any(isinstance(v, np.ndarray) and v.size >= 3**n for v in held), n
        for b in prop.blocks:
            assert b.index.dtype == np.int32 and b.index.base.nbytes == 4 * 3**n, n
            got, want = b.sub(), csr(h)[b.index][:, b.index]
            assert sp.issparse(got) == (b.index.size > DENSE_BLOCK_LIMIT)
            if sp.issparse(got):
                for name in ("data", "indices", "indptr"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            else:
                want = want.toarray()
                assert got.tobytes() == (want if got.dtype == want.dtype else want.real).tobytes()
                assert np.array_equal(got, want)
    h, psi = build_xxz(8, 1.0, 0.5), neel_superposition(8)
    prop = make_propagator(h)
    assert all(b._ops == {} for b in prop.blocks)
    evolve(prop, psi, 0.5)
    touched = blocks_touched(prop, psi)
    assert [b._ops != {} for b in prop.blocks] == [b in touched for b in prop.blocks]
    (b,) = touched
    assert dynamics.kernel(b.index.size, False) == "sparse" and b.index.size > DENSE_BLOCK_LIMIT
    a, mu, diag, norms = dynamics._taylor_op(csr(h)[b.index][:, b.index])
    got, got_mu, got_diag, got_norms = b.op("sparse")
    assert list(b._ops) == ["sparse"] and got_mu == mu
    assert got_diag.tobytes() == diag.tobytes() and got_norms.tobytes() == norms.tobytes()
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(a, name).tobytes()


@pytest.mark.parametrize("n", [8, 9])
def test_an_unpulsed_taylor_block_converts_its_sub_matrix_to_scipy_once(monkeypatch, n):
    # Its Hermiticity check and its Taylor operator read the one SciPy CSR
    # matrix; at odd N the Neel superposition touches two such blocks.
    converted, scipy_csr = [], dynamics._scipy_csr
    counting = lambda sub: converted.append(sub.indptr.size - 1) or scipy_csr(sub)  # noqa: E731
    monkeypatch.setattr(dynamics, "_scipy_csr", counting)
    prop, psi = make_propagator(build_xxz(n, 1.0, 0.5)), neel_superposition(n)
    evolve(prop, psi, 0.5)
    touched = blocks_touched(prop, psi)
    kernels = {dynamics.kernel(b.index.size, False) for b in touched}
    assert len(touched) == 1 + n % 2 and kernels == {"sparse"}
    assert sorted(converted) == sorted(b.index.size for b in touched)


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
    # H = 0 pulsed by -i*lambda*J*S^z on one spin-1: |m=+1> decays as exp(-2*lambda*J*t)
    lam, j, t = 0.3, 1.0, 0.8
    h = SparseHamiltonian(sp.csr_matrix((3, 3)), j)
    state = QuditState((3,), np.array([1.0, 0, 0], dtype=complex))
    out = evolve(make_propagator(h).pulse(0, -1j * lam * j), state, t)
    assert out.squared_norm == pytest.approx(np.exp(-2 * lam * j * t), rel=1e-10)
    expm_out = scipy.linalg.expm(-1j * t * (-1j * lam * j * SZ1)) @ state.amplitudes
    np.testing.assert_allclose(out.amplitudes, expm_out, atol=1e-12)


@pytest.mark.parametrize("strategy", ["sparse"])
def test_non_hermitian_matches_expm_oracle(strategy):
    # The anti-Hermitian diagonal enters as a pulse of H0, which runs the
    # Taylor kernel on every block; the oracle exponentiates the whole matrix.
    rng = np.random.default_rng(4)
    for n in (2, 3):
        h0 = build_xxz(n, 1.0, 0.5)
        diagonal = pulse_diagonal(h0, 0, 0.25, "non_hermitian")
        hp = build_perturbed(h0, diagonal)
        prop = propagator(strategy, h0).pulse(0, -0.25j)
        state = random_state(rng, (3,) * n)
        t = 0.9
        out = evolve(prop, state, t)
        oracle = scipy.linalg.expm(-1j * t * csr(hp).toarray()) @ state.amplitudes
        assert np.max(np.abs(out.amplitudes - oracle)) <= 1e-9
        assert out.squared_norm == pytest.approx(np.vdot(oracle, oracle).real, rel=1e-9)


def test_kernel_rule_is_the_pulse_and_the_block_size(monkeypatch):
    # A block of H is dense-eig exactly when it is at most
    # DENSE_BLOCK_LIMIT; a pulse shares H's blocks and runs the Taylor
    # kernel on each of them.  At N = 4 the sectors have dimension 1, 4,
    # 10, 16, 19 (each but 19 twice); the limit sits on 16.
    monkeypatch.setattr(dynamics, "DENSE_BLOCK_LIMIT", 16)
    h = build_xxz(4, 1.0, 0.5)
    prop = make_propagator(h)
    kernels = {(b.index.size, dynamics.kernel(b.index.size, False)) for b in prop.blocks}
    assert kernels == {(1, "dense-eig"), (4, "dense-eig"), (10, "dense-eig"), (16, "dense-eig"),
                       (19, "sparse")}
    assert {dynamics.kernel(b.index.size, True) for b in prop.blocks} == {"sparse"}
    state = random_state(np.random.default_rng(15), (3,) * 4)
    streams = []

    def counted(name):
        stream = getattr(dynamics, name)
        return lambda *args: streams.append(name) or stream(*args)

    for name in ("_dense_stream", "_taylor_stream"):
        monkeypatch.setattr(dynamics, name, counted(name))
    evolve(prop, state, 0.5)
    assert sorted(streams) == ["_dense_stream"] * 8 + ["_taylor_stream"]
    for strength in (0.0, -0.25j):
        pulsed, streams[:] = prop.pulse(0, strength), []
        evolve(pulsed, state, 0.5)
        assert pulsed.blocks is prop.blocks and streams == ["_taylor_stream"] * 9
    small = make_propagator(build_xxz(2, 1.0, 0.5)).blocks
    assert {dynamics.kernel(b.index.size, False) for b in small} == {"dense-eig"}


@pytest.mark.parametrize("strategy", ["dense-eig", "sparse"])
@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 3)])
def test_trajectory_matches_evolve_from_zero(strategy, dims):
    # A repeated time, a zero time and a non-uniform grid; (2, 3, 3)
    # carries an ancilla the propagator must leave alone.
    h = build_xxz(2 if dims[0] == 2 else 3, 1.0, 0.5)
    prop = propagator(strategy, h)
    state = random_state(np.random.default_rng(9), dims)
    grid = [0.0, 0.0, 0.4, 1.3, 1.3, 2.05, 7.5]
    index, arrays = trajectory(prop, start(state), grid)
    arrays, rows = list(arrays), state.amplitudes.reshape(-1, h.dimension)
    assert len(arrays) == len(grid)
    for t, got in zip(grid, arrays):
        want = evolve(prop, state, t).amplitudes.reshape(rows.shape)
        assert got.shape == (len(rows), index.size)
        assert np.max(np.abs(got - want[:, index])) <= 1e-10
        assert not np.delete(want, index, axis=1).any()
    np.testing.assert_array_equal(arrays[0], rows[:, index])


def test_trajectory_rejects_decreasing_times():
    prop = make_propagator(build_xxz(2, 1.0, 0.5))
    state = random_state(np.random.default_rng(10), (3, 3))
    with pytest.raises(ValueError, match="non-decreasing"):
        trajectory(prop, start(state), [0.0, 1.0, 0.5])


@pytest.mark.parametrize("times", [[0.0, math.nan], [math.nan], [0.0, 1.0, math.inf], [-math.inf, 0.0]])
def test_trajectory_rejects_non_finite_times(times):
    prop = make_propagator(build_xxz(2, 1.0, 0.5))
    state = random_state(np.random.default_rng(10), (3, 3))
    with pytest.raises(ValueError, match="finite"):
        trajectory(prop, start(state), times)
    with pytest.raises(ValueError, match="finite"):
        evolve(prop, state, next(t for t in times if not math.isfinite(t)))


@pytest.mark.parametrize("strategy", ["dense-eig", "sparse"])
def test_a_shuffled_start_matches_evolve_of_its_register_bit_for_bit(strategy):
    # A start is basis indices and their amplitudes, in any order: here five
    # indices of the sectors of digit sums 2 and 3 at N = 4, shuffled, with
    # two batch rows.  Each block's column is filled by searchsorted, so
    # the trajectory equals evolve of the same register bit for bit.
    prop = propagator(strategy, build_xxz(4, 1.0, 0.5))
    index = np.array([5, 2, 31, 4, 19])  # digit sums 3, 2, 3, 2, 3
    rng = np.random.default_rng(16)
    x = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    rows = np.zeros((2, 81), dtype=complex)
    rows[:, index] = x
    state = QuditState((2,) + (3,) * 4, rows.reshape(-1))
    touched = np.concatenate([prop.blocks[2].index, prop.blocks[3].index])  # by digit sum
    for t in (0.0, 0.7, -2.0):
        got_index, arrays = trajectory(prop, (index, x), [t])
        np.testing.assert_array_equal(got_index, touched)
        want = evolve(prop, state, t).amplitudes.reshape(2, -1)
        assert next(arrays).tobytes() == want[:, got_index].tobytes()
        assert not np.delete(want, got_index, axis=1).any()


def test_a_start_needs_distinct_basis_indices_of_the_chain():
    # A start's indices are placed in their blocks by searchsorted: one off
    # the chain, or one given twice, is refused, not dropped or overwritten.
    prop = make_propagator(build_xxz(2, 1.0, 0.5))
    x = np.ones((1, 2), dtype=complex)
    refusal = r"^a start's basis indices must be distinct and in \[0, 3\^2\)$"
    for index in ([1, 9], [-1, 3], [3, 3], [4, 4]):
        with pytest.raises(ValueError, match=refusal):
            trajectory(prop, (np.array(index), x), [0.0])
    index, arrays = trajectory(prop, (np.zeros(0, dtype=np.int64), np.zeros((2, 0))), [0.0, 1.0])
    assert index.size == 0 and [a.shape for a in arrays] == [(2, 0), (2, 0)]


def test_threads_sharing_a_propagator_factorize_each_block_once(monkeypatch):
    # A block builds its Taylor operator, and its eigh for dense-eig, on
    # first touch, by H or by a pulse of H, which shares H's blocks.  The
    # lock keeps threads that touch a block at once from both building it.
    h, psi = build_xxz(5, 1.0, 0.5), neel_superposition(5)
    want = scipy.linalg.expm(-0.7j * dense_xxz(5, 1.0, 0.5)) @ neel_superposition_vec(5)
    built = []

    def slow(name, build):
        def slow_build(m):
            built.append((name, len(m)))
            time.sleep(0.01)  # widen the window between the check and the store
            return build(m)

        return slow_build

    monkeypatch.setattr(np.linalg, "eigh", slow("eigh", np.linalg.eigh))
    monkeypatch.setattr(dynamics, "_taylor_op", slow("_taylor_op", dynamics._taylor_op))
    prop = make_propagator(h)
    pulse = prop.pulse(0, 0.0)
    assert built == []  # building the propagator or its pulse builds no operator
    results, start = [], threading.Barrier(8)

    def work(p):
        start.wait()
        results.append(evolve(p, psi, 0.7).amplitudes)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(p,)) for p in [prop, pulse] * 4]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(b.index.size for b in blocks_touched(prop, psi)) == [45, 45]
    assert sorted(built) == [("_taylor_op", 45)] * 2 + [("eigh", 45)] * 2
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
    # A pulse on a site off the chain: site 3 of a longer one, or -1.
    for site in (-1, 3):
        with pytest.raises(IndexError, match=f"^site {site} out of range for 3 sites$"):
            make_propagator(h).pulse(site, -0.3)


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
    kernels = [(b.index.size, dynamics.kernel(b.index.size, False)) for b in p8.blocks]
    big = sorted(dim for dim, kernel in kernels if kernel == "sparse")
    assert big == [504, 504, 784, 784, 1016, 1016, 1107]
    assert all(dim <= DENSE_BLOCK_LIMIT for dim, kernel in kernels if kernel == "dense-eig")


def test_cut_over_sends_n7_to_sparse(monkeypatch):
    # The cut-over is per block. At N = 7 every sector, the largest of
    # dimension 393, is within DENSE_BLOCK_LIMIT and diagonalized, as at
    # N = 6; a limit one below 393 sends exactly that sector to sparse.
    for n, largest in ((6, 141), (7, 393)):
        prop = make_propagator(build_xxz(n, 1.0, 0.5))
        assert max(b.index.size for b in prop.blocks) == largest
        assert {dynamics.kernel(b.index.size, False) for b in prop.blocks} == {"dense-eig"}
    monkeypatch.setattr(dynamics, "DENSE_BLOCK_LIMIT", 392)
    p7 = make_propagator(build_xxz(7, 1.0, 0.5))
    sparse = [b.index.size for b in p7.blocks if dynamics.kernel(b.index.size, False) == "sparse"]
    assert sparse == [393]


def test_non_hermitian_hamiltonian_is_all_sparse(monkeypatch):
    # A non-Hermitian H is refused, by its propagator and by its zero pulse
    # alike.  Its anti-Hermitian diagonal propagates only as a pulse of H0,
    # which runs the Taylor kernel on every block, one operator built per block.
    h0 = build_xxz(4, 1.0, 0.5)
    diagonal = pulse_diagonal(h0, 1, 0.25, "non_hermitian")
    prop = make_propagator(build_perturbed(h0, diagonal))
    for p in (prop, prop.pulse(0, 0.0)):
        with pytest.raises(ValueError, match="a block of H must be Hermitian"):
            evolve(p, neel_superposition(4), 0.5)
    pulse = make_propagator(h0).pulse(1, -0.25j)
    assert len(pulse.blocks) == 9
    assert {dynamics.kernel(b.index.size, True) for b in pulse.blocks} == {"sparse"}
    built, taylor_op = [], dynamics._taylor_op
    monkeypatch.setattr(dynamics, "_taylor_op", lambda m: built.append(len(m)) or taylor_op(m))
    monkeypatch.setattr(dynamics, "_dense_stream", lambda *args: pytest.fail("dense-eig ran"))
    evolve(pulse, random_state(np.random.default_rng(13), (3,) * 4), 0.5)
    assert sorted(built) == sorted(b.index.size for b in pulse.blocks)


@pytest.mark.parametrize("n", [4, 8])
def test_a_pulse_of_a_non_hermitian_h_is_refused_before_any_product(monkeypatch, n):
    # No pulse runs unchecked: pulsing a non-Hermitian H, even by zero, reads
    # the blocks of H, whose check refuses it before the kernel's first
    # product.  At N = 8 the Neel state's block runs on SciPy CSR.
    h0 = build_xxz(n, 1.0, 0.5)
    h = build_perturbed(h0, pulse_diagonal(h0, 1, 0.25, "non_hermitian"))
    monkeypatch.setattr(dynamics, "_matmul", lambda m, z: pytest.fail("a product ran"))
    for strength in (0.0, -0.5):
        with pytest.raises(ValueError, match="^a block of H must be Hermitian"):
            evolve(make_propagator(h).pulse(0, strength), neel_superposition(n), 0.5)


def test_a_pulse_never_calls_eigh(monkeypatch):
    # Every block of a pulse, however small, runs the Taylor kernel, and a
    # block builds only the operator of the kernel that reads it: pulses of
    # either kind cause no eigh, not even on the dense-eig blocks of H.
    h = build_xxz(4, 1.0, 0.5)
    prop = make_propagator(h)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(len(m)) or eigh(m))
    monkeypatch.setattr(dynamics, "_dense_stream", lambda *args: pytest.fail("a pulse ran eigh"))
    state = random_state(np.random.default_rng(14), (2,) + (3,) * 4)
    for kind in ("hermitian", "non_hermitian", "hermitian"):
        evolve(prop.pulse(1, -0.3 if kind == "hermitian" else -0.3j), state, 0.5)
    assert calls == []


def test_neel_superposition_touches_one_sector_at_even_n_and_two_at_odd_n():
    for n, dims in ((6, [141]), (7, [357, 357])):
        prop = make_propagator(build_xxz(n, 1.0, 0.5))
        assert [b.index.size for b in blocks_touched(prop, neel_superposition(n))] == dims


CASES = [
    ("dense-eig", None),
    ("sparse", None),
    ("dense-eig", "hermitian"),
    ("sparse", "non_hermitian"),
    ("dense-eig", "complex"),
]


def hamiltonian_case(n, strategy, kind):
    """(H as one dense matrix, its propagator on the named kernel) of a CASES entry.

    The non-Hermitian H is H0 plus an anti-Hermitian diagonal, which
    propagates only as a pulse of H0.
    """
    h0 = build_xxz(n, 1.0, 0.5)
    if kind == "non_hermitian":
        full = csr(build_perturbed(h0, pulse_diagonal(h0, n - 1, 0.3, kind))).toarray()
        return full, make_propagator(h0).pulse(n - 1, -0.3j)
    if kind == "complex":
        # D H0 D^+ with random diagonal phases: Hermitian, complex off the
        # diagonal, with H0's blocks and spectrum.
        d = sp.diags(np.exp(1j * np.random.default_rng(n).uniform(0, 2 * np.pi, h0.dimension)))
        h = SparseHamiltonian((d @ csr(h0) @ d.conj()).tocsr(), h0.j_xy)
    else:
        h = h0 if kind is None else build_perturbed(h0, pulse_diagonal(h0, n - 1, 0.3, kind))
    return csr(h).toarray(), propagator(strategy, h)


@pytest.mark.parametrize("strategy, kind", CASES)
@pytest.mark.parametrize("dims_before", [(), (2,)], ids=["system", "ancilla"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_trajectory_matches_full_space_expm(n, dims_before, strategy, kind):
    # A random state touches every block, the dimension-1 ones included;
    # an ancilla's rows are propagated alike.
    full, prop = hamiltonian_case(n, strategy, kind)
    state = random_state(np.random.default_rng(100 + n), dims_before + (3,) * n)
    assert len(blocks_touched(prop, state)) == 2 * n + 1
    rows = state.amplitudes.reshape(-1, full.shape[0])
    grid = [0.0, 1.2, 1.2, 4.0]
    index, arrays = trajectory(prop, start(state), grid)
    for t, got in zip(grid, arrays):
        want = rows @ scipy.linalg.expm(-1j * t * full).T
        assert np.max(np.abs(got - want[:, index])) <= 1e-10
        assert not np.delete(want, index, axis=1).any()
        assert got.shape == (len(rows), index.size)
    got, want = evolve(prop, state, -2.5), rows @ scipy.linalg.expm(2.5j * full).T
    assert np.max(np.abs(got.amplitudes - want.reshape(-1))) <= 1e-10
    assert got.dims == state.dims


@pytest.mark.parametrize("strategy", ["dense-eig", "sparse"])
def test_trajectory_yields_the_touched_blocks_only(strategy):
    # The Neel superposition at N = 5 touches two sectors: the arrays hold
    # their amplitudes, block by block, and the reference is zero elsewhere,
    # where evolve writes zeros.
    h, psi = build_xxz(5, 1.0, 0.5), neel_superposition(5)
    prop = propagator(strategy, h)
    touched = blocks_touched(prop, psi)
    index, arrays = trajectory(prop, start(psi), [0.0, 0.9, 2.4])
    assert len(touched) == 2 and index.size < h.dimension
    np.testing.assert_array_equal(index, np.concatenate([b.index for b in touched]))
    for t, got in zip([0.0, 0.9, 2.4], arrays):
        want = scipy.linalg.expm(-1j * t * dense_xxz(5, 1.0, 0.5)) @ psi.amplitudes
        assert got.shape == (1, index.size)
        assert np.max(np.abs(got[0] - want[index])) <= 1e-10
        assert not np.delete(want, index).any()
        assert not np.delete(evolve(prop, psi, t).amplitudes, index).any()


def test_dense_and_sparse_blocks_in_one_trajectory(monkeypatch):
    # With the limit at 10, N = 4 has dense blocks (1, 4, 10) and sparse
    # ones (16, 19); one random state with an ancilla touches them all.
    monkeypatch.setattr(dynamics, "DENSE_BLOCK_LIMIT", 10)
    h = build_xxz(4, 1.0, 0.5)
    prop = make_propagator(h)
    assert {dynamics.kernel(b.index.size, False) for b in prop.blocks} == {"dense-eig", "sparse"}
    state = random_state(np.random.default_rng(12), (2,) + (3,) * 4)
    rows = state.amplitudes.reshape(2, -1)
    grid = [0.0, 0.7, 3.1]
    index, arrays = trajectory(prop, start(state), grid)
    for t, got in zip(grid, arrays):
        want = rows @ scipy.linalg.expm(-1j * t * csr(h).toarray()).T
        assert np.max(np.abs(got - want[:, index])) <= 1e-10
        assert not np.delete(want, index, axis=1).any()


@pytest.mark.parametrize("strategy, kind", CASES)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_state_in_a_dimension_one_block_gets_its_phase(n, strategy, kind):
    # All +1 is its own block: H multiplies it by (N - 1) J_z, and the
    # perturbation on the last site subtracts lambda (times i if non-Hermitian).
    _, prop = hamiltonian_case(n, strategy, kind)
    energy = (n - 1) * 0.5 - {"hermitian": 0.3, "non_hermitian": 0.3j}.get(kind, 0.0)
    state = basis_state((3,) * n, (0,) * n)
    out = evolve(prop, state, 1.7)
    assert np.count_nonzero(out.amplitudes) == 1
    assert out.amplitudes[0] == pytest.approx(np.exp(-1j * energy * 1.7), abs=1e-13)

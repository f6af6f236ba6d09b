import faulthandler
import functools
import importlib.util
import json
import math
import re
import signal
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import quditcorr.benchmark as benchmark
import quditcorr.dynamics as dynamics
from oracles import (
    SZ1,
    connected_pair,
    csr,
    dense_xxz,
    heisenberg_pair,
    propagator,
    pulse_diagonal,
    site_op,
    u_matrix,
)
from quditcorr.benchmark import (
    DEFAULT_BUDGETS,
    MAX_WORK,
    ConfigError,
    FigureOfMerit,
    RunConfig,
    brute_force_correlators,
    connected_anticommutator,
    default_workers,
    hadamard_estimate,
    neel_superposition,
    quench_system,
    relative_error,
    run_quench_study,
    time_averaged_std,
)
from quditcorr.dynamics import build_perturbed, build_xxz, evolve, make_propagator
from quditcorr.hadamard import (
    ALPHA_MINUS,
    ALPHA_PLUS,
    CorrelatorEstimate,
    circuit_probabilities,
    estimate_from_probabilities,
    measure_dynamical_correlator,
    trace_probabilities,
    variance_model,
)
from quditcorr.linear_response import (
    LinearResponseConfig,
    lr_estimate,
    lr_trace,
    measure_lr,
    unperturbed_readout,
)
from quditcorr.observables import HermitianObservable, spin_matrix
from quditcorr.register import LocalOperator, QuditState, expectation, site_marginal
from quditcorr.rng import sample_counts, task_rng

ROOT = Path(__file__).parents[1]
CONFIGS = {p.stem: json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))}
QUICK_N4 = CONFIGS["quick_n4"]


def est(value, std=0.0, shots=0, mode="exact"):
    return CorrelatorEstimate(value, std, shots, mode)


def test_neel_superposition_amplitudes_and_norm():
    state = neel_superposition(2)
    # |+1,-1> is index 0*3+2 = 2, |-1,+1> is 2*3+0 = 6
    np.testing.assert_allclose(state.amplitudes[[2, 6]], 1 / np.sqrt(2))
    assert np.count_nonzero(state.amplitudes) == 2
    assert state.squared_norm == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_neel_superposition_has_vanishing_site_magnetization(n):
    state = neel_superposition(n)
    for site in range(n):
        val = expectation(state, spin_matrix(1, "z").on(site))
        assert abs(val) <= 1e-14


def test_equal_time_connected_anticommutator_is_minus_two():
    state = neel_superposition(4)
    h = build_xxz(4, 1.0, 0.5)
    raw_p, _ = brute_force_correlators(h, state, 0, 1, 0.0, 0.0)
    conn = connected_anticommutator(est(raw_p), est(0.0), est(0.0))
    assert conn.value == pytest.approx(-2.0, abs=1e-12)


def test_connected_anticommutator_rules():
    assert connected_anticommutator(est(0.7), est(0.0), est(0.0)).value == pytest.approx(0.7)
    assert connected_anticommutator(est(0.0), est(1.0), est(1.0)).value == pytest.approx(-2.0)
    out = connected_anticommutator(
        est(1.0, std=0.3, shots=10, mode="sampled"),
        est(0.5, std=0.1, shots=5, mode="sampled"),
        est(-0.2, std=0.2, shots=5, mode="sampled"),
    )
    var = 0.3**2 + 4 * (-0.2 * 0.1) ** 2 + 4 * (0.5 * 0.2) ** 2
    assert out.std_error == pytest.approx(np.sqrt(var))
    assert out.shots == 20
    assert out.mode == "sampled"


def test_relative_error_values():
    grid = np.linspace(0, 5, 20)
    ref = np.sin(grid) + 0.2
    np.testing.assert_allclose(relative_error(ref, ref, grid), 0.0, atol=1e-15)
    assert relative_error(np.zeros_like(ref), ref, grid) == pytest.approx(1.0)
    assert relative_error(1.1 * ref, ref, grid) == pytest.approx(0.01)
    with pytest.raises(ZeroDivisionError):
        relative_error(ref, np.zeros_like(ref), grid)
    with pytest.raises(ValueError):
        relative_error(ref[:-1], ref, grid)


def test_time_averaged_std_values():
    grid = np.linspace(0, 3, 7)
    np.testing.assert_allclose(time_averaged_std(np.full(7, 0.4), grid), 0.4)
    ramp = np.linspace(0, 0.8, 7)
    np.testing.assert_allclose(time_averaged_std(ramp, grid), 0.4)
    with pytest.raises(ValueError):
        time_averaged_std(np.array([1.0]), np.array([0.0]))
    # A finite area keeps the plain quadrature's bits.
    std, grid = np.random.default_rng(5).uniform(0, 2, (2, 9))
    grid.sort()
    assert time_averaged_std(std, grid) == float(np.trapezoid(std, grid)) / (grid[-1] - grid[0])
    # Near the float limit the area overflows and the average does not.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mean = time_averaged_std([4.5e307, 4.5e307, 2.0e307], [0.0, 25.0, 50.0])
    assert mean == pytest.approx(3.875e307, rel=1e-15)


def test_dc_at_a_subnormal_t_max_is_not_rounded_to_the_smallest_subnormal():
    # On a span of 5e-324 the trapezoid's area is a multiple of 5e-324;
    # the average is taken in units of the span instead.
    def dc(t_max, steps):
        res = run_quench_study(RunConfig(n_sites=4, steps=steps, t_max=t_max, workers=1))
        return res, [v for f in res.figures.values() for v in (f.dc_plus, f.dc_minus)]

    # Two steps run at t = 0 and t_max: the same states and draws at either span.
    _, want = dc(1e-10, 2)
    _, got = dc(5e-324, 2)
    np.testing.assert_allclose(got, want, rtol=1e-9)
    # linspace(0, 1e-323, 3) is (0, 5e-324, 1e-323): the trapezoid's
    # weights 1/4, 1/2, 1/4 of the three error bars, as on a normal span.
    # (linspace(0, 5e-324, 3) repeats t = 0, and RunConfig refuses it.)
    res, got = dc(1e-323, 3)
    assert [r.t for r in res.rows[:3]] == [0.0, 5e-324, 1e-323]
    stds = [r.std_error for r in res.rows]
    want = [(a + 2 * b + c) / 4 for a, b, c in zip(stds[0::3], stds[1::3], stds[2::3])]
    assert got == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(got, dc(1e-10, 3)[1], rtol=1e-9)


def test_brute_force_reference_matches_independent_oracle():
    h = build_xxz(3, 1.0, 0.5)
    psi0 = neel_superposition(3)
    hd = dense_xxz(3, 1.0, 0.5)
    for t1, t2 in ((0.0, 0.9), (0.4, 1.7)):
        cp, cm = brute_force_correlators(h, psi0, 0, 1, t1, t2)
        cp_conn, cm_o = connected_pair(hd, psi0.amplitudes, 0, 1, t1, t2)
        ea = expectation(psi0, spin_matrix(1, "z").on(0))  # t1-dependence dropped below
        assert cm == pytest.approx(cm_o, abs=1e-10)
        # the package returns the raw anti-commutator; the oracle's connected
        # form coincides because the site magnetizations vanish here
        assert cp == pytest.approx(cp_conn, abs=1e-10)
        assert abs(ea) <= 1e-14


def test_brute_force_refuses_a_non_hermitian_h():
    # eigh reads one triangle of the matrix, so a non-Hermitian H would
    # give values; the oracle refuses it instead, as H's own propagator does.
    h0 = build_xxz(3, 1.0, 0.5)
    h = build_perturbed(h0, pulse_diagonal(h0, 0, 0.3, "non_hermitian"))
    with pytest.raises(ValueError, match="the dense oracle needs a Hermitian H"):
        brute_force_correlators(h, neel_superposition(3), 0, 1, 0.0, 0.7)
    with pytest.raises(ValueError, match="an unpulsed block must be Hermitian"):
        evolve(make_propagator(h), neel_superposition(3), 0.7)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_brute_force_densifies_h_bitwise_as_scipy_does(monkeypatch, n):
    # The oracle scatters H's CSR arrays into a complex dense matrix:
    # bitwise the toarray() of the SciPy CSR matrix built from them.
    seen, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.copy()) or eigh(a))
    h0 = build_xxz(n, 2.0, 0.0)
    for h in (build_xxz(n, 1.0, 0.5), build_perturbed(h0, pulse_diagonal(h0, 1, 0.5, "hermitian"))):
        seen.clear()
        brute_force_correlators(h, neel_superposition(n), 0, 1, 0.0, 0.7)
        want = csr(h).toarray()
        assert [a.dtype for a in seen] == [want.dtype] == [np.complex128]
        assert seen[0].tobytes() == want.tobytes()


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    return QuditState((3,) * n, amp / np.linalg.norm(amp))


def sz_obs(site):
    return HermitianObservable(spin_matrix(1, "z").on(site))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("state", ["neel", "random"])
def test_reference_trace_matches_heisenberg_oracle(n, state):
    # The study's R reference is the exact Hadamard trace.  The random
    # state has nonzero site magnetizations, so the disconnected part of
    # the connected C+ is exercised too.
    psi0 = neel_superposition(n) if state == "neel" else _random_state(n, 10 + n)
    site_a, site_b = 0, n - 1
    grid = np.linspace(0.0, 5.0, 26)
    h, hd = build_xxz(n, 1.0, 0.5), dense_xxz(n, 1.0, 0.5)
    a, b = site_op(n, site_a, SZ1), site_op(n, site_b, SZ1)
    psi = psi0.amplitudes
    mean_a = np.vdot(psi, a @ psi).real
    obs_a, obs_b = sz_obs(site_a), sz_obs(site_b)
    probabilities = trace_probabilities(obs_a, obs_b, psi0, make_propagator(h), grid)
    plus, minus = hadamard_estimate(obs_a, obs_b, psi0, probabilities, DEFAULT_BUDGETS["hadamard"])
    marginals_b = probabilities[2]
    assert plus.mode == minus.mode == "exact"  # no generators, no draws
    assert plus.value.shape == minus.value.shape == (grid.size,)
    assert marginals_b.shape == (grid.size, 3)
    for ti, t in enumerate(grid):
        anti, comm = heisenberg_pair(hd, psi, a, b, 0.0, t)
        psi_t = u_matrix(hd, t) @ psi
        mean_b = np.vdot(psi_t, b @ psi_t).real
        assert brute_force_correlators(h, psi0, site_a, site_b, 0.0, t) == pytest.approx(
            (anti, comm), abs=1e-10
        )
        assert plus.value[ti] == pytest.approx(anti - 2.0 * mean_a * mean_b, abs=1e-10)
        assert minus.value[ti] == pytest.approx(comm, abs=1e-10)
        assert marginals_b[ti] @ [1.0, 0.0, -1.0] == pytest.approx(mean_b, abs=1e-10)


@pytest.mark.parametrize(
    "obs_a, obs_b",
    [
        (HermitianObservable(LocalOperator(2 * SZ1, (0,))), sz_obs(2)),
        (sz_obs(0), HermitianObservable(spin_matrix(1, "x").on(2))),
        (HermitianObservable(LocalOperator(np.kron(SZ1, SZ1), (0, 1))), sz_obs(2)),
    ],
    ids=["2-sz-a", "sx-b", "two-site-a"],
)
def test_hadamard_estimate_refuses_observables_other_than_sz_on_one_site(obs_a, obs_b):
    # <A> and <B> are read from site marginals with the S^z levels, so any
    # other observable got a wrong disconnected part: for 2 S^z_0 and S^z_2
    # at N = 3 on a random state, C+ missed 2 x the connected oracle by
    # up to 0.11 on (0, 0.7, 1.3).
    psi0, prop = _random_state(3, 23), make_propagator(build_xxz(3, 1.0, 0.5))
    probabilities = trace_probabilities(obs_a, obs_b, psi0, prop, (0.0, 0.7, 1.3))
    with pytest.raises(ValueError, match="spin-1 S.z on one site"):
        hadamard_estimate(obs_a, obs_b, psi0, probabilities, DEFAULT_BUDGETS["hadamard"])


# Non-uniform, with a point inside the pulse window (t < dt = 1e-3).
ENGINE_GRID = (0.0, 4e-4, 0.3, 0.35, 1.2, 2.9, 5.0)


@pytest.mark.parametrize("strategy", ["dense-eig", "sparse"])
@pytest.mark.parametrize("state", ["neel", "random"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_engine_matches_circuit_and_lr_specification(n, state, strategy):
    psi0 = neel_superposition(n) if state == "neel" else _random_state(n, 20 + n)
    h = build_xxz(n, 1.0, 0.5)
    prop = propagator(strategy, h)
    obs_a, obs_b = sz_obs(0), sz_obs(n - 1)
    mean_a = expectation(psi0, obs_a.op).real

    # Hadamard: every circuit probability and the exact C+- against the
    # gate-level circuits run from t = 0.
    engine = trace_probabilities(obs_a, obs_b, psi0, prop, ENGINE_GRID)
    plus, minus = hadamard_estimate(obs_a, obs_b, psi0, engine, DEFAULT_BUDGETS["hadamard"])
    for ti, (t, (ps_plus, ps_minus, _)) in enumerate(zip(ENGINE_GRID, zip(*engine))):
        spec_plus = circuit_probabilities(obs_a, obs_b, 0.0, t, psi0, prop, ALPHA_PLUS)
        spec_minus = circuit_probabilities(obs_a, obs_b, 0.0, t, psi0, prop, ALPHA_MINUS)
        assert np.max(np.abs(ps_plus - spec_plus)) <= 1e-10
        assert np.max(np.abs(ps_minus - spec_minus)) <= 1e-10
        mean_b = expectation(evolve(prop, psi0, t), obs_b.op).real
        raw_plus, spec_minus_value = estimate_from_probabilities(
            [spec_plus, spec_minus], 1.0, 1.0, None
        ).value
        assert plus.value[ti] == pytest.approx(raw_plus - 2.0 * mean_a * mean_b, abs=1e-10)
        assert minus.value[ti] == pytest.approx(spec_minus_value, abs=1e-10)

    # LR: lr_estimate fed by lr_trace's pulsed branch and the readout from
    # the Hadamard trace's marginals, as a study feeds it.  The exact
    # quotient against measure_lr, compared as a difference of
    # expectation values (times lambda * pulse_area); the sampled value
    # from the same stream is the same draw.  At J_xy = 2 the pulse lasts
    # area / 2, so the pulse area and its duration differ.
    area = 1e-3
    for j_xy in (1.0, 2.0):
        h_lr = build_xxz(n, j_xy, 0.5 * j_xy)
        prop_lr = propagator(strategy, h_lr)
        *_, marginals = trace_probabilities(obs_a, obs_b, psi0, prop_lr, ENGINE_GRID)
        readout = unperturbed_readout(prop_lr, psi0, n - 1, area, ENGINE_GRID, marginals)
        for lam in (0.1, 0.4):
            for kind in ("hermitian", "non_hermitian"):
                cfg = LinearResponseConfig(lam, area, 0, n - 1, kind)
                rngs = [task_rng(3, ti) for ti in range(len(ENGINE_GRID))]
                pert, norms = lr_trace(cfg, psi0, prop_lr, ENGINE_GRID)
                exact = lr_estimate(cfg, pert, norms, readout, 1000)
                samp = lr_estimate(cfg, pert, norms, readout, 1000, rngs)
                for ti, t in enumerate(ENGINE_GRID):
                    args = (cfg, 0.0, max(t, area / j_xy), psi0, make_propagator(h_lr))
                    spec = measure_lr(*args, 1000)
                    assert abs(exact.value[ti] - spec.value) * lam * area <= 1e-10
                    assert exact.std_error[ti] == pytest.approx(spec.std_error, rel=1e-6)
                    assert exact.shots[ti] == spec.shots
                    spec_samp = measure_lr(*args, 1000, task_rng(3, ti))
                    assert (samp.value[ti], samp.shots[ti]) == (spec_samp.value, spec_samp.shots)


@pytest.mark.parametrize("strategy", ["dense-eig", "sparse"])
@pytest.mark.parametrize("n", [3, 4])
def test_readout_is_the_unpulsed_marginal_at_max_t_and_the_pulse_duration(n, strategy):
    # The Hadamard trace's marginals of B's site serve the LR readout at
    # every t >= dt; the points inside the pulse window read it at dt.
    psi0, area = neel_superposition(n), 1e-3
    for j_xy in (1.0, 2.0):
        prop = propagator(strategy, build_xxz(n, j_xy, 0.5 * j_xy))
        *_, marginals = trace_probabilities(sz_obs(0), sz_obs(n - 1), psi0, prop, ENGINE_GRID)
        readout = unperturbed_readout(prop, psi0, n - 1, area, ENGINE_GRID, marginals)
        dt = area / j_xy
        want = np.array([site_marginal(evolve(prop, psi0, max(t, dt)), n - 1) for t in ENGINE_GRID])
        early = np.array(ENGINE_GRID) < dt
        assert early.any() and not early.all()
        assert readout[early].tolist() == want[early].tolist()
        if strategy == "dense-eig":
            assert readout.tolist() == want.tolist()
        else:
            # The Taylor stream reaches each time from the previous one, so
            # it rounds apart from an evolve from 0, by up to 4.2e-15 here.
            assert readout[~early].tolist() == marginals[~early].tolist()
            assert np.max(np.abs(readout - want)) <= 1e-14


@pytest.mark.parametrize("lambdas", [(0.2,), (0.1, 0.2, 0.4)])
def test_a_study_runs_two_trajectories_plus_two_per_lambda(monkeypatch, lambdas):
    # Two for the Hadamard trace (psi0, and W_A psi0, which equals
    # W_A^+ psi0 on the Neel superposition) and the two pulsed branches
    # per lambda; the unpulsed readout reuses the first.
    real = dynamics.trajectory
    lengths = []

    def counting(prop, state, times, *args, **kwargs):
        lengths.append(len(times))
        return real(prop, state, times, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "quditcorr" and getattr(module, "trajectory", None) is real:
            monkeypatch.setattr(module, "trajectory", counting)
    config = RunConfig(n_sites=3, steps=5, lambdas=lambdas, workers=1)
    run_quench_study(config)
    assert lengths.count(config.steps) == 2 + 2 * len(lambdas)


def _reference_sampled_point(ps_plus, ps_minus, marginal_a, marginal_b, pref, n_plus, n_minus, rng):
    """Sampled (C+, C-) of one Hadamard point, one draw per circuit and per site, in Python floats.

    The draws come from rng in the study's order: the four C+ circuits,
    <S^z> on A's site at t = 0 and on B's at t, then the four C- circuits.
    """

    def circuits(ps, n):
        qs = [int(sample_counts([(p, 1.0 - p)], n, [rng])[0][0]) / n for p in ps]
        std = math.sqrt(pref**2 * sum((4.0 * math.sqrt(q * (1.0 - q) / n)) ** 2 for q in qs))
        return pref * sum(4.0 * q - 2.0 for q in qs), std, 4 * n

    def site_mean(marginal):
        up, _, down = sample_counts([marginal], n_plus, [rng])[0].tolist()  # S^z = +1, 0, -1
        mean = (up - down) / n_plus
        return mean, math.sqrt(max((up + down) / n_plus - mean**2, 0.0) / n_plus)

    raw, raw_std, raw_shots = circuits(ps_plus, n_plus)
    (mean_a, std_a), (mean_b, std_b) = site_mean(marginal_a), site_mean(marginal_b)
    plus = (
        raw - 2.0 * mean_a * mean_b,
        math.sqrt(raw_std**2 + 4.0 * (mean_b * std_a) ** 2 + 4.0 * (mean_a * std_b) ** 2),
        raw_shots + 2 * n_plus,
    )
    return plus, circuits(ps_minus, n_minus)


@pytest.mark.parametrize(
    "n, state, budgets",
    [(4, "neel", DEFAULT_BUDGETS["hadamard"]), (3, "random", {"plus": 30, "minus": 12})],
)
def test_sampled_hadamard_cells_match_a_per_point_reference(n, state, budgets):
    psi0 = neel_superposition(n) if state == "neel" else _random_state(n, 40 + n)
    obs_a, obs_b = sz_obs(0), sz_obs(n - 1)
    prop = make_propagator(build_xxz(n, 1.0, 0.5))
    grid, seed = np.linspace(0.0, 5.0, 11), 2024
    engine = trace_probabilities(obs_a, obs_b, psi0, prop, grid)
    rngs = [task_rng(seed, 1, ti) for ti in range(grid.size)]
    samp_plus, samp_minus = hadamard_estimate(obs_a, obs_b, psi0, engine, budgets, rngs)
    n_plus, n_minus = max(1, budgets["plus"] // 6), max(1, budgets["minus"] // 4)
    marginal_a = site_marginal(psi0, 0)
    pref = obs_a.spectral_norm * obs_b.spectral_norm / 4.0
    for ti, (ps_plus, ps_minus, marginal_b) in enumerate(zip(*engine)):
        expected = _reference_sampled_point(
            ps_plus, ps_minus, marginal_a, marginal_b, pref,
            n_plus, n_minus, task_rng(seed, 1, ti),
        )
        for samp, cells in zip((samp_plus, samp_minus), expected):
            assert samp.mode == "sampled"
            point = (samp.value[ti].item(), samp.std_error[ti].item(), samp.shots[ti].item())
            assert repr(point) == repr(cells)


def test_hadamard_plus_rows_carry_the_budget_of_six_expectation_values():
    # The four circuits and the two disconnected-part means, 250 shots each.
    config = RunConfig(n_sites=3, steps=3, protocols=("hadamard",))
    shots = {(r.kind, r.shots) for r in run_quench_study(config).rows}
    assert shots == {("+", 1500), ("-", 8000)}


def test_exact_plus_error_bar_includes_the_terms_of_the_two_means():
    # sigma_raw from variance_model, sigma_A and sigma_B from the exact S^z
    # variances, each over the plus // 6 shots of one expectation value.
    n, budgets = 3, {"plus": 600, "minus": 400}
    psi0, grid = _random_state(n, 77), np.linspace(0.0, 2.0, 5)
    obs_a, obs_b = sz_obs(0), sz_obs(n - 1)
    prop = make_propagator(build_xxz(n, 1.0, 0.5))
    probabilities = trace_probabilities(obs_a, obs_b, psi0, prop, grid)
    plus, minus = hadamard_estimate(obs_a, obs_b, psi0, probabilities, budgets)
    ps_plus, ps_minus, marginals_b = probabilities
    n_plus = budgets["plus"] // 6
    levels = np.array([1.0, 0.0, -1.0])
    marginal_a = site_marginal(psi0, 0)
    mean_a = marginal_a @ levels
    sigma_a = math.sqrt((marginal_a @ levels**2 - mean_a**2) / n_plus)
    assert abs(mean_a) > 0.01
    for ti in range(grid.size):
        mean_b = marginals_b[ti] @ levels
        sigma_b = math.sqrt((marginals_b[ti] @ levels**2 - mean_b**2) / n_plus)
        sigma_raw = math.sqrt(variance_model(ps_plus[ti], 1.0, 1.0) / (4 * n_plus))
        want = math.sqrt(sigma_raw**2 + 4 * (mean_b * sigma_a) ** 2 + 4 * (mean_a * sigma_b) ** 2)
        assert abs(mean_b) > 0.01
        assert plus.std_error[ti] == pytest.approx(want, rel=1e-12)
        assert plus.shots[ti] == 6 * n_plus and plus.mode == "exact"
        sigma_minus = math.sqrt(variance_model(ps_minus[ti], 1.0, 1.0) / budgets["minus"])
        assert minus.std_error[ti] == pytest.approx(sigma_minus, rel=1e-12)
        assert minus.shots[ti] == budgets["minus"]


@pytest.mark.parametrize(
    "protocol, kind, least",
    [("hadamard", "plus", 6), ("hadamard", "minus", 4), ("lr", "plus", 2), ("lr", "minus", 2)],
)
def test_budgets_below_one_shot_per_expectation_value_are_refused(protocol, kind, least):
    # A Hadamard C+ point splits its budget over six expectation values,
    # a C- point over four circuits, an LR point over two branches.
    shots = {protocol: {kind: least}}
    assert RunConfig(n_sites=2, steps=2, shots=shots).shots[protocol][kind] == least
    with pytest.raises(ConfigError, match=f"'shots'.*{protocol} {kind} budget .* >= {least}"):
        RunConfig(n_sites=2, steps=2, shots={protocol: {kind: least - 1}})


@pytest.mark.parametrize("n", range(2, 13))
def test_the_entry_bound_of_h_is_exact_off_the_diagonal(n):
    h = build_xxz(n, 1.0, 0.5)
    rows = np.repeat(np.arange(h.dimension), np.diff(h.indptr))
    off = rows != h.indices
    off_diagonal = int(np.count_nonzero(off))
    assert off_diagonal == 8 * (n - 1) * 3 ** (n - 2)
    assert h.indices.size <= 3**n + off_diagonal
    assert RunConfig(n_sites=n).plan.bytes[0] == benchmark.BYTES_PER_H_ENTRY * (3**n + off_diagonal)
    # The plan counts the sectors of H without building it: their sizes,
    # and in those psi0 touches, the off-diagonal entries exactly and all
    # entries from above.
    indices, _ = dynamics._diagonal_blocks(h)
    sizes = functools.reduce(np.convolve, [[1, 1, 1]] * n, [1])
    assert [len(i) for i in indices] == sizes.tolist()
    touched = make_propagator(h).blocks_touched(neel_superposition(n))
    sectors = benchmark._sectors(n)
    assert [dim for dim, _ in sectors] == [b.index.size for b in touched]
    for (dim, bound), block in zip(sectors, touched):
        in_block = np.zeros(h.dimension, dtype=bool)
        in_block[block.index] = True
        assert bound - dim == np.count_nonzero(off & in_block[rows])
        assert bound >= np.count_nonzero(in_block[rows])


def test_a_chain_too_long_for_memory_is_refused_before_anything_is_allocated():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="'n_sites': a study at 17 sites needs about"):
            RunConfig(n_sites=17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _physical_memory(monkeypatch, gib):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": gib * 2**30 // 4096}
    monkeypatch.setattr(benchmark.os, "sysconf", pages.__getitem__)


def test_the_memory_bound_follows_the_physical_memory(monkeypatch):
    # With 1 GiB installed, N = 13 (about 1.04 GiB estimated; it peaked at
    # 876 MB) is refused and N = 12 (0.32 GiB; 306 MB) accepted.
    _physical_memory(monkeypatch, 1)
    with pytest.raises(ConfigError, match="'n_sites'.*more than the 1.0 GiB of RAM"):
        RunConfig(n_sites=13)
    assert RunConfig(n_sites=12).n_sites == 12


def test_the_rows_of_a_long_grid_count_against_the_memory(monkeypatch):
    # quick_n4 at 10^6 steps is predicted at minutes of CPU, under the work
    # bound, but its rows (about 2 KB a step of two traces) would fill
    # 1 GiB: refused, naming steps.
    _physical_memory(monkeypatch, 1)
    message = "'steps': 1000000 steps of 2 traces need about 2.0 GiB, more than the 1.0 GiB of RAM"
    with pytest.raises(ConfigError, match=message):
        RunConfig(**{**QUICK_N4, "steps": 10**6})
    _physical_memory(monkeypatch, 8)
    assert RunConfig(**{**QUICK_N4, "steps": 10**6}).plan.cpu_seconds < MAX_WORK


@pytest.mark.parametrize("pulse_area", [1e-3, 0.7, 1.0])
@pytest.mark.parametrize("bound", ["underflow", "overflow"])
def test_run_config_refuses_a_lambda_exactly_when_the_lr_config_does(bound, pulse_area):
    # lambda * pulse_area must not underflow, and 2 lambda pulse_area must
    # stay below log(max float).  The quotients land within a float or two
    # of each bound, so the nine floats around them straddle it.
    if bound == "underflow":
        edge = sys.float_info.min / pulse_area
    else:
        edge = math.log(sys.float_info.max) / (2 * pulse_area)
    lams = [edge]
    for _ in range(4):
        lams = [np.nextafter(lams[0], 0.0), *lams, np.nextafter(lams[-1], math.inf)]
    accepted = []
    for lam in map(float, lams):
        try:
            LinearResponseConfig(lam, pulse_area)
            refusal = None
        except ValueError as err:
            refusal = f"invalid config field 'lambdas': {err}"
        try:
            RunConfig(n_sites=2, lambdas=(lam,), pulse_area=pulse_area)
            assert refusal is None, lam
        except ConfigError as err:
            assert str(err) == refusal, lam
        accepted.append(refusal is None)
    assert len(set(accepted)) == 2
    assert accepted == sorted(accepted, reverse=bound == "overflow")


def test_the_strongest_pulse_accepted_at_four_sites_runs_without_overflow():
    # dynamics.pulse_limit bounds lambda |J_xy| sufficiently: the largest
    # lambda accepted at N = 4 and pulse area 1e-305 runs a study with
    # RuntimeWarnings as errors, and the next float is refused, by
    # RunConfig and by the pulse of a library call alike.
    lam, area = 4.319284198117807e303, 1e-305
    config = RunConfig(n_sites=4, steps=3, lambdas=(lam,), pulse_area=area, workers=1)
    above = float(np.nextafter(lam, math.inf))
    message = re.escape(f"lambda |J_xy| = {above:.6g} for {above!r} at 4 sites: the Taylor kernel")
    with pytest.raises(ConfigError, match=f"invalid config field 'lambdas': {message}"):
        replace(config, lambdas=(above,))
    h0 = build_xxz(4, 1.0, 0.5)
    for kind in ("hermitian", "non_hermitian"):
        with pytest.raises(ValueError, match=message):
            LinearResponseConfig(above, area, kind=kind).pulse_diagonal(h0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        figures = run_quench_study(config).figures
    assert all(math.isfinite(f.dc_plus) and math.isfinite(f.dc_minus) for f in figures.values())


def test_the_steps_of_all_traces_together_are_bounded(monkeypatch):
    # The Hadamard trace and one LR trace per lambda share one bound on
    # their predicted one-worker CPU, MAX_WORK, whatever the memory: the
    # longest grid of each config below it is admitted, and one step more
    # is refused, naming steps, with the minutes and the bound.
    _physical_memory(monkeypatch, 2**20)

    def longest(**fields):
        admitted, refused = 1, 10**9
        while refused - admitted > 1:
            steps = (admitted + refused) // 2
            try:
                RunConfig(n_sites=4, steps=steps, **fields)
                admitted = steps
            except ConfigError as err:
                assert "'steps'" in str(err) and "over the bound of 10 min" in str(err)
                refused = steps
        plan = RunConfig(n_sites=4, steps=admitted, **fields).plan
        assert plan.cpu_seconds <= MAX_WORK
        message = f"'steps': {refused} steps to t_max = 5.0, {len(plan.traces)} traces, pulse_area"
        with pytest.raises(ConfigError, match=message):
            RunConfig(n_sites=4, steps=refused, **fields)
        return admitted

    # More traces, fewer steps; quick_n4 runs 10001 steps.
    assert 10001 < longest(lambdas=(0.1, 0.2, 0.3)) < longest() < longest(protocols=("hadamard",))


@pytest.mark.parametrize(
    "config, changes",
    [("quick_n4", {}), ("quick_n4", {"n_sites": 7}), ("chain10", {"n_sites": 8, "steps": 11})],
    ids=["quick_n4", "quick_n4-n7", "chain10-n8"],
)
def test_the_plan_counts_the_products_of_the_kernels(monkeypatch, config, changes):
    # The plan's products bound those the kernels make, within 2x: exactly
    # on the dense-eig blocks, from above where a Taylor step stops early.
    products, matmul = [], dynamics._matmul
    monkeypatch.setattr(dynamics, "_matmul", lambda m, z: products.append(1) or matmul(m, z))
    cfg = RunConfig(**{**CONFIGS[config], **changes, "workers": 1})
    run_quench_study(cfg)
    # At one second a product and nothing else, the predicted CPU counts the products.
    for name in ("DENSE_ENTRY_SECONDS", "CSR_ENTRY_SECONDS", "POINT_SECONDS", "AMPLITUDE_SECONDS"):
        monkeypatch.setattr(benchmark, name, 0.0)
    monkeypatch.setattr(benchmark, "PRODUCT_SECONDS", 1.0)
    planned = benchmark.study_plan(cfg).cpu_seconds
    assert 1 <= planned / len(products) <= 2
    if cfg.n_sites <= 7:
        assert planned == len(products)


def test_a_study_runs_the_plan_its_config_built(monkeypatch):
    # RunConfig plans the study once; run_quench_study reads config.plan.
    cfg = RunConfig(n_sites=2, steps=2, workers=1)
    monkeypatch.setattr(benchmark, "study_plan", lambda config: pytest.fail("planned again"))
    assert len(run_quench_study(cfg).rows) == 2 * 2 * len(cfg.plan.traces)


# Inputs of earlier reports of studies that ran for minutes or hours, with their refusals.
LONG = {
    # About an hour at N = 10; its 25 steps of t = 2000 count over 10^5 Taylor steps.
    "t-max-50000": ({**CONFIGS["chain10"], "t_max": 50000.0},
                    "'t_max': the time grid needs over 100000 Taylor steps"),
    # Hours, and 200 GB of rows.
    "steps-1e8": ({**CONFIGS["quick_n4"], "steps": 10**8},
                  "'steps': 100000000 steps .*(more than the .* GiB of RAM|over the bound of 10 min)"),
    # Admitted once, then refused by the Taylor kernel with the study under way.
    "j-z-1e9": ({**CONFIGS["quick_n4"], "j_z_over_j_xy": 1e9},
                "'pulse_area': the pulse of lambda = 0.2 needs over 100000 Taylor steps"),
}
MINUTES = {
    "steps-10000": {**CONFIGS["chain10"], "steps": 10000},  # about 2 min at N = 10
    # 58 ms a step at N = 11 (2000 steps: 116 s of CPU), so about 10 min.
    "n11-steps-10000": {**CONFIGS["chain10"], "n_sites": 11, "steps": 10000},
    "700-lambdas": {**CONFIGS["chain10"], "lambdas": [k / 1000 for k in range(1, 701)]},
    "j-z-3e8": {"n_sites": 4, "steps": 3, "j_z_over_j_xy": 3e8},  # 71771 Taylor steps a pulse
    "readme-n14": {**CONFIGS["chain10"], "n_sites": 14, "steps": 4, "workers": 1},
}


@pytest.mark.parametrize("name", LONG)
def test_what_would_run_for_hours_is_refused_at_once(monkeypatch, name):
    import tracemalloc

    config, message = LONG[name]
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(ConfigError, match=message):
            RunConfig(**config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 1 and peak < 2**20
    _physical_memory(monkeypatch, 2**20)  # where memory admits it, the work refuses it
    with pytest.raises(ConfigError, match="over the bound of 10 min|over 100000 Taylor steps"):
        RunConfig(**config)


@pytest.mark.parametrize(
    "field, config",
    [("j_z_over_j_xy", {"n_sites": 4}), ("t_max", {"n_sites": 8})],
    ids=["pulse", "time-grid"],
)
def test_every_trajectory_the_plan_admits_runs_under_the_kernels_step_limit(
    monkeypatch, field, config
):
    # At a limit of 200 Taylor steps, the largest anisotropy (set by the
    # pulses at N = 4) and t_max (by the time grid on the sparse blocks at
    # N = 8) that the plan admits run to the end: the plan counts every
    # trajectory's steps from above, so the kernel never refuses one.
    for module in (benchmark, dynamics):
        monkeypatch.setattr(module, "MAX_TAYLOR_STEPS", 200)
    admitted, refused = 1.0, 1e12
    while refused / admitted > 1 + 1e-6:
        value = math.sqrt(admitted * refused)
        try:
            RunConfig(steps=3, **config, **{field: value})
            admitted = value
        except ConfigError as err:
            assert f"'{'pulse_area' if field == 'j_z_over_j_xy' else field}'" in str(err)
            assert "over 200 Taylor steps" in str(err)
            refused = value
    result = run_quench_study(RunConfig(steps=3, workers=1, **config, **{field: admitted}))
    assert len(result.figures) == 2


@pytest.mark.parametrize("name", MINUTES)
def test_what_runs_for_minutes_is_admitted(monkeypatch, name):
    _physical_memory(monkeypatch, 8)  # the README's machine, for N = 14
    assert 30 < RunConfig(**MINUTES[name]).plan.cpu_seconds <= MAX_WORK


def test_every_shipped_documented_and_benchmarked_study_is_admitted(monkeypatch):
    _physical_memory(monkeypatch, 8)
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    perfbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench)
    studies = [*CONFIGS.values(), *perfbench.WORKLOADS.values()]
    for n_sites, steps in [(7, 26), (8, 11), (9, 6), (12, 6), (14, 4)]:  # CI and README runs
        studies.append({**CONFIGS["chain10"], "n_sites": n_sites, "steps": steps})
    studies.append({"n_sites": 6, "steps": 13, "protocols": ["hadamard"]})
    studies.append({**QUICK_N4, "steps": 10001})
    for study in studies:
        assert RunConfig(**study).plan.cpu_seconds <= MAX_WORK, study


def test_scenario_validation():
    with pytest.raises(ConfigError, match="invalid config field 'sites'.*distinct"):
        RunConfig(n_sites=3, sites=(2, 2))
    with pytest.raises(ConfigError, match="invalid config field 'sites'.*outside"):
        RunConfig(n_sites=3, sites=(1, 4))
    with pytest.raises(ValueError):
        FigureOfMerit(-0.1, 0.0, 0.0, 0.0)


def test_checked_config_is_immutable_and_hashable():
    cfg = RunConfig(n_sites=2, steps=2)
    with pytest.raises(TypeError):
        cfg.shots["hadamard"]["plus"] = 0
    with pytest.raises(TypeError):
        cfg.shots["lr"] = {"plus": 2, "minus": 2}
    with pytest.raises(TypeError):
        cfg.shots["hadamard"].update(plus=0)
    assert cfg.shots == DEFAULT_BUDGETS
    assert hash(cfg) == hash(RunConfig(n_sites=2, steps=2))
    assert len({cfg, replace(cfg), replace(cfg, seed=1)}) == 2
    partial = replace(cfg, shots={"hadamard": {"plus": 60}})
    assert partial.shots["hadamard"] == {"plus": 60, "minus": 8000}


def test_a_study_diagonalizes_only_the_blocks_psi0_touches(monkeypatch):
    # At N = 7 H0 has 15 blocks.  The Neel superposition, its W_A images
    # and its pulsed states lie in the two sectors S^z = +1 and -1.
    sizes, eigh = [], np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "quditcorr.dynamics":
            sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    run_quench_study(RunConfig(n_sites=7, steps=3, workers=2))
    assert sizes == [357, 357]


def test_a_study_splits_h_once_pulses_included(monkeypatch):
    # lambda_sweep_n4's shape: the Hadamard trace and 4 lambdas x 2 kinds
    # of pulses.  Each pulse shares the sectors of H0's propagator.
    calls, split = [], dynamics._diagonal_blocks
    monkeypatch.setattr(dynamics, "_diagonal_blocks", lambda h: calls.append(h) or split(h))
    res = run_quench_study(RunConfig(n_sites=4, steps=6, lambdas=(0.05, 0.1, 0.2, 0.4), workers=2))
    assert len(calls) == 1
    assert len(res.figures) == 5


def test_a_one_point_grid_reports_the_limit_of_r():
    # As the span shrinks, R tends to |est - ref|^2 / |ref|^2 at t = 0:
    # the LR C+(0, 0) is -1.9999959 against the reference -2.0, not R = 0.
    res = run_quench_study(RunConfig(n_sites=4, steps=1, lambdas=(0.4,), workers=1))
    cells = {(r.protocol, r.kind): r for r in res.rows}
    lr, ref = res.figures["lr:lambda=0.4"], cells[("hadamard", "+")].exact
    want = (cells[("lr", "+")].exact - ref) ** 2 / ref**2
    assert lr.r_plus > 0 and lr.r_plus == pytest.approx(want, rel=1e-9)
    # The reference C-(0, 0) = 0 against an LR estimate of 1.7e-10: undefined.
    assert lr.r_minus is None and "vanishes" in lr.r_minus_reason
    assert (res.figures["hadamard"].r_plus, res.figures["hadamard"].r_minus) == (0.0, 0.0)
    assert lr.dc_plus == cells[("lr", "+")].std_error  # dC's limit: std(0)


def test_single_point_grid_gives_equal_time_values():
    res = run_quench_study(RunConfig(n_sites=3, steps=1, seed=9, workers=1))
    by_key = {(r.protocol, r.kind): r for r in res.rows}
    assert by_key[("hadamard", "+")].exact == pytest.approx(-2.0, abs=1e-10)
    assert by_key[("hadamard", "-")].exact == pytest.approx(0.0, abs=1e-10)
    assert by_key[("lr", "+")].t == 0.0  # reported on the grid point


def test_study_deterministic_across_seeds_and_workers():
    config = RunConfig(n_sites=2, t_max=1.5, steps=4, seed=77)
    res_a = run_quench_study(replace(config, workers=1))
    res_b = run_quench_study(replace(config, workers=4))
    assert res_a.rows == res_b.rows
    assert res_a.figures == res_b.figures
    res_c = run_quench_study(replace(config, seed=78))
    assert res_c.rows != res_a.rows  # different seed, different samples


def test_exact_circuit_trace_matches_reference():
    grid = np.linspace(0, 2.0, 5)
    config = RunConfig(2, t_max=2.0, steps=5, protocols=("hadamard",), seed=3)
    res = run_quench_study(replace(config, workers=1))
    fom = res.figures["hadamard"]
    assert fom.r_plus <= 1e-12
    assert fom.r_minus <= 1e-12
    # The study's exact rows are the gate-level circuit values (the Neel
    # state has vanishing site magnetizations, so connected = raw C+).
    h = build_xxz(2, 1.0, 0.5)
    prop = make_propagator(h)
    by_key = {(r.kind, r.t): r.exact for r in res.rows}
    for t in grid:
        plus, minus = measure_dynamical_correlator(
            sz_obs(0), sz_obs(1), 0.0, t, neel_superposition(2), prop
        )
        assert by_key[("+", t)] == pytest.approx(plus.value, abs=1e-10)
        assert by_key[("-", t)] == pytest.approx(minus.value, abs=1e-10)


def test_sampled_trace_converges_to_exact_with_budget():
    grid = np.linspace(0, 2.5, 6)
    for seed in (1, 2, 3):
        r_by_budget = {}
        for budget in (1_000, 1_000_000):
            shots = {"hadamard": {"plus": budget, "minus": budget}}
            config = RunConfig(2, t_max=2.5, steps=6, protocols=("hadamard",), shots=shots)
            res = run_quench_study(replace(config, seed=seed, workers=1))
            rows = [r for r in res.rows if r.kind == "+"]
            exact = np.array([r.exact for r in rows])
            samp = np.array([r.sampled for r in rows])
            r_by_budget[budget] = relative_error(samp, exact, grid)
        assert r_by_budget[1_000_000] <= r_by_budget[1_000]


def test_lr_rows_carry_lambda_and_budget_split():
    res = run_quench_study(
        RunConfig(2, t_max=1.0, steps=2, protocols=("lr",), lambdas=(0.3,), seed=5, workers=1)
    )
    lr_rows = [r for r in res.rows if r.protocol == "lr"]
    assert all(r.lam == 0.3 for r in lr_rows)
    minus = [r for r in lr_rows if r.kind == "-"][0]
    assert minus.shots == 12000  # two branches at half the per-point default


def test_default_workers_is_the_affinity_capped_by_tasks(monkeypatch):
    monkeypatch.setattr(benchmark.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert default_workers(10) == 3
    assert default_workers(2) == 2
    assert default_workers(0) == 1


def test_study_pool_defaults_to_default_workers(monkeypatch):
    sizes = []
    real_pool = benchmark.ThreadPoolExecutor

    def recording_pool(max_workers, **kwargs):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(benchmark.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(benchmark, "ThreadPoolExecutor", recording_pool)
    # One task per trace: the Hadamard trace and one LR trace per lambda.
    config = RunConfig(2, t_max=1.0, steps=2, lambdas=(0.2,), seed=5)
    default = run_quench_study(config)
    assert sizes == [2]
    assert default.rows == run_quench_study(replace(config, workers=1)).rows
    run_quench_study(replace(config, protocols=("hadamard",)))
    assert sizes == [2, 1, 1]  # one worker, or a single trace, runs through the pool too


def test_interrupt_at_one_worker_lets_the_running_trace_finish(monkeypatch):
    # Ctrl-C reaches the main thread while the first trace (Hadamard) runs.
    config = RunConfig(2, t_max=1.0, steps=3, seed=5, workers=1)
    full = run_quench_study(config)
    real_trace = benchmark.trace_probabilities

    def interrupted_trace(*args):
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        return real_trace(*args)

    monkeypatch.setattr(benchmark, "trace_probabilities", interrupted_trace)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    faulthandler.dump_traceback_later(60, exit=True)  # a hung pool fails loudly
    try:
        with pytest.raises(benchmark.StudyInterrupted) as info:
            run_quench_study(config)
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGINT, previous)
    rows = info.value.result.rows
    hadamard_rows = [r for r in full.rows if r.protocol == "hadamard"]
    assert len(hadamard_rows) == 2 * config.steps
    assert rows[: len(hadamard_rows)] == tuple(hadamard_rows)


# Cells of a small study recorded before the exact and the sampled
# estimates shared one code path; a refactor must reproduce them.
RECORDED_N3 = [  # protocol, kind, t, exact, sampled, std_error, shots
    ('hadamard', '+', 0.0, -2.0, -2.008704, 0.017655421917133558, 1500),
    ('hadamard', '+', 1.6666666666666667, 1.3081279527636935, 1.3474559999999998, 0.04725224160303932, 1500),
    ('hadamard', '+', 3.3333333333333335, -0.9595677819671247, -0.96864, 0.0553646037392123, 1500),
    ('hadamard', '+', 5.0, 0.5960485947078773, 0.702336, 0.06065941952270892, 1500),
    ('hadamard', '-', 0.0, 0.0, 0.014499999999999957, 0.02235846316274891, 8000),
    ('hadamard', '-', 1.6666666666666667, -2.220446049250313e-16, 0.006999999999999895, 0.022357599379182014, 8000),
    ('hadamard', '-', 3.3333333333333335, -1.1102230246251565e-16, -5.551115123125783e-17, 0.022359723835503872, 8000),
    ('hadamard', '-', 5.0, 1.1102230246251565e-16, -0.008500000000000008, 0.022357535083277855, 8000),
    ('lr', '+', 0.0, -1.9999962266695204, -80.0, 258.1676744833639, 1500),
    ('lr', '+', 1.6666666666666667, 1.3083829001339642, -153.33333333333334, 212.1473980950945, 1500),
    ('lr', '+', 3.3333333333333335, -0.9597235610106503, 33.333333333333336, 224.79132710302846, 1500),
    ('lr', '+', 5.0, 0.5959757663860643, -180.0, 176.17516535791552, 1500),
    ('lr', '-', 0.0, 1.662558979376172e-10, 69.99999999999999, 91.28483606983306, 12000),
    ('lr', '-', 1.6666666666666667, -1.6186464391054756e-05, 39.99999999999999, 76.28920971224251, 12000),
    ('lr', '-', 3.3333333333333335, 0.0004694602531718495, 182.49999999999997, 79.90832058724594, 12000),
    ('lr', '-', 5.0, -0.0002927019614185067, -4.166666666666665, 63.45852666491305, 12000),
]


def assert_recorded_cells(config, recorded):
    # The CSV rule for a change that keeps the behaviour: sampled,
    # std_error and shots byte-identical (repr is what the CSV writes),
    # exact cells within 1e-14 on the expectation-value scale.
    rows = run_quench_study(config).rows
    assert len(rows) == len(recorded)
    for row, (protocol, kind, t, exact, sampled, std_error, shots) in zip(rows, recorded):
        assert (row.protocol, row.kind, row.t) == (protocol, kind, t)
        assert (repr(row.sampled), repr(row.std_error), row.shots) == (
            repr(sampled), repr(std_error), shots
        )
        scale = 1.0 if protocol == "hadamard" else row.lam * config.pulse_area
        assert abs(row.exact - exact) * scale <= 1e-14


def test_study_reproduces_recorded_cells():
    assert_recorded_cells(RunConfig(n_sites=3, steps=4, lambdas=(0.2,), seed=11), RECORDED_N3)


# Cells of two studies whose touched blocks exceed DENSE_BLOCK_LIMIT, so
# every trajectory runs the Taylor kernel on SciPy CSR blocks: N = 8
# touches the M = 0 block, N = 9 the two blocks M = +-1.
RECORDED_N8 = [
    ('hadamard', '+', 0.0, -2.0, -2.003072, 0.007291947786977085, 1500),
    ('hadamard', '+', 2.5, -0.15000600904694372, -0.17376, 0.06325769356528896, 1500),
    ('hadamard', '+', 5.0, 0.2734740383246421, 0.249248, 0.06374782584502785, 1500),
    ('hadamard', '-', 0.0, 0.0, 0.06800000000000006, 0.02233264426797687, 8000),
    ('hadamard', '-', 2.5, 0.0015019074687534495, 0.007999999999999952, 0.02235736455846261, 8000),
    ('hadamard', '-', 5.0, -0.08087057352570859, -0.1345, 0.022303298522864282, 8000),
    ('lr', '+', 0.0, -1.9999962266692428, 266.66666666666663, 258.07400603817615, 1500),
    ('lr', '+', 2.5, -0.14963254141825422, 200.0, 210.4966965518919, 1500),
    ('lr', '+', 5.0, 0.27342208159641945, 73.33333333333334, 219.7702504047419, 1500),
    ('lr', '-', 0.0, 1.6653345369377348e-10, -113.33333333333331, 91.27228292110168, 12000),
    ('lr', '-', 2.5, 0.0012661237294708805, -108.33333333333333, 74.48974419838439, 12000),
    ('lr', '-', 5.0, -0.0808800850596314, 48.333333333333336, 77.2248370860241, 12000),
]
RECORDED_N9 = [
    ('hadamard', '+', 0.0, -2.0, -2.003072, 0.007291947786977085, 1500),
    ('hadamard', '+', 2.5, -0.14621194511593438, -0.17376, 0.06325769356528896, 1500),
    ('hadamard', '+', 5.0, 0.42515324179228386, 0.40924800000000017, 0.0628248130913893, 1500),
    ('hadamard', '-', 0.0, 0.0, 0.06800000000000006, 0.02233264426797687, 8000),
    ('hadamard', '-', 2.5, -1.1102230246251565e-16, -0.021500000000000075, 0.02235354278408682, 8000),
    ('hadamard', '-', 5.0, 1.1102230246251565e-16, -0.05499999999999999, 0.0223454189936103, 8000),
    ('lr', '+', 0.0, -1.9999962266661897, 266.66666666666663, 258.07400603817615, 1500),
    ('lr', '+', 2.5, -0.14583546699281635, 200.0, 210.70013798796654, 1500),
    ('lr', '+', 5.0, 0.42514576455515707, 66.66666666666666, 213.50687385933313, 1500),
    ('lr', '-', 0.0, 1.6486811915683575e-10, -113.33333333333331, 91.27228292110168, 12000),
    ('lr', '-', 2.5, -0.0002359834577747577, -108.33333333333333, 74.56428838158284, 12000),
    ('lr', '-', 5.0, -4.04938527154286e-05, 48.333333333333336, 74.98928781524089, 12000),
]


@pytest.mark.parametrize("n, recorded", [(8, RECORDED_N8), (9, RECORDED_N9)], ids=["N8", "N9"])
def test_taylor_path_reproduces_recorded_cells(n, recorded):
    config = RunConfig(n_sites=n, steps=3, lambdas=(0.2,), workers=1)
    prop, psi0, _, _ = quench_system(config)
    touched = prop.blocks_touched(psi0)
    assert len(touched) == 1 + n % 2 and {b.strategy for b in touched} == {"sparse"}
    assert_recorded_cells(config, recorded)

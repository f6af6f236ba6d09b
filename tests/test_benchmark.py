import numpy as np
import pytest

import quditcorr.benchmark as benchmark
from oracles import SZ1, connected_pair, dense_xxz, heisenberg_pair, site_op, u_matrix
from quditcorr.benchmark import (
    FigureOfMerit,
    QuenchScenario,
    brute_force_correlators,
    connected_anticommutator,
    default_workers,
    neel_superposition,
    reference_trace,
    relative_error,
    run_quench_study,
    time_averaged_std,
)
from quditcorr.dynamics import build_xxz, make_propagator
from quditcorr.hadamard import CorrelatorEstimate
from quditcorr.observables import spin_matrix
from quditcorr.register import QuditState, RegisterShape, expectation


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


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    return QuditState(RegisterShape((3,) * n), amp / np.linalg.norm(amp))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("state", ["neel", "random"])
def test_reference_trace_matches_heisenberg_oracle(n, state):
    # The random state has nonzero site magnetizations, so the
    # disconnected part of the connected C+ is exercised too.
    psi0 = neel_superposition(n) if state == "neel" else _random_state(n, 10 + n)
    site_a, site_b = 0, n - 1
    grid = np.linspace(0.0, 5.0, 26)
    h, hd = build_xxz(n, 1.0, 0.5), dense_xxz(n, 1.0, 0.5)
    a, b = site_op(n, site_a, SZ1), site_op(n, site_b, SZ1)
    psi = psi0.amplitudes
    mean_a = np.vdot(psi, a @ psi).real
    plus, minus = reference_trace(h, psi0, site_a, site_b, grid)
    for i, t in enumerate(grid):
        anti, comm = heisenberg_pair(hd, psi, a, b, 0.0, t)
        psi_t = u_matrix(hd, t) @ psi
        mean_b = np.vdot(psi_t, b @ psi_t).real
        assert brute_force_correlators(h, psi0, site_a, site_b, 0.0, t) == pytest.approx(
            (anti, comm), abs=1e-10
        )
        assert plus[i] == pytest.approx(anti - 2.0 * mean_a * mean_b, abs=1e-10)
        assert minus[i] == pytest.approx(comm, abs=1e-10)


def test_scenario_validation():
    with pytest.raises(ValueError, match="start at 0"):
        QuenchScenario(3, (0.5, 1.0))
    with pytest.raises(ValueError, match="increasing"):
        QuenchScenario(3, (0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="distinct"):
        QuenchScenario(3, (0.0, 1.0), sites=(2, 2))
    with pytest.raises(ValueError, match="outside"):
        QuenchScenario(3, (0.0, 1.0), sites=(1, 4))
    with pytest.raises(ValueError):
        FigureOfMerit(-0.1, 0.0, 0.0, 0.0)


def test_single_point_grid_gives_equal_time_values():
    scenario = QuenchScenario(3, (0.0,), seed=9)
    res = run_quench_study(scenario, workers=1)
    by_key = {(r.protocol, r.kind): r for r in res.rows}
    assert by_key[("hadamard", "+")].exact == pytest.approx(-2.0, abs=1e-10)
    assert by_key[("hadamard", "-")].exact == pytest.approx(0.0, abs=1e-10)
    assert by_key[("lr", "+")].t == 0.0  # reported on the grid point


def test_study_deterministic_across_seeds_and_workers():
    scenario = QuenchScenario(2, tuple(np.linspace(0, 1.5, 4)), seed=77)
    res_a = run_quench_study(scenario, workers=1)
    res_b = run_quench_study(scenario, workers=4)
    assert res_a.rows == res_b.rows
    assert res_a.figures == res_b.figures
    res_c = run_quench_study(QuenchScenario(2, tuple(np.linspace(0, 1.5, 4)), seed=78))
    assert res_c.rows != res_a.rows  # different seed, different samples


def test_exact_circuit_trace_matches_reference():
    scenario = QuenchScenario(2, tuple(np.linspace(0, 2.0, 5)), seed=3)
    res = run_quench_study(scenario, protocols=("hadamard",), sampled=False, workers=1)
    fom = res.figures["hadamard"]
    assert fom.r_plus <= 1e-12
    assert fom.r_minus <= 1e-12


def test_sampled_trace_converges_to_exact_with_budget():
    grid = tuple(np.linspace(0, 2.5, 6))
    for seed in (1, 2, 3):
        r_by_budget = {}
        for budget in (1_000, 1_000_000):
            scenario = QuenchScenario(2, grid, seed=seed)
            shots = {"hadamard": {"plus": budget, "minus": budget}}
            res = run_quench_study(scenario, protocols=("hadamard",), budgets=shots, workers=1)
            rows = [r for r in res.rows if r.kind == "+"]
            exact = np.array([r.exact for r in rows])
            samp = np.array([r.sampled for r in rows])
            r_by_budget[budget] = relative_error(samp, exact, np.array(grid))
        assert r_by_budget[1_000_000] <= r_by_budget[1_000]


def test_lr_rows_carry_lambda_and_budget_split():
    scenario = QuenchScenario(2, (0.0, 1.0), seed=5)
    res = run_quench_study(scenario, protocols=("lr",), lambdas=(0.3,), workers=1)
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

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(benchmark.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(benchmark, "ThreadPoolExecutor", recording_pool)
    scenario = QuenchScenario(2, (0.0, 1.0), seed=5)
    default = run_quench_study(scenario, protocols=("hadamard",))
    assert sizes == [2]
    assert default.rows == run_quench_study(scenario, protocols=("hadamard",), workers=1).rows

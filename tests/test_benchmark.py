import faulthandler
import math
import signal
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import quditcorr.benchmark as benchmark
from oracles import SZ1, connected_pair, dense_xxz, heisenberg_pair, site_op, u_matrix
from quditcorr.benchmark import (
    DEFAULT_BUDGETS,
    ConfigError,
    FigureOfMerit,
    RunConfig,
    brute_force_correlators,
    connected_anticommutator,
    default_workers,
    hadamard_trace,
    neel_superposition,
    relative_error,
    run_quench_study,
    time_averaged_std,
)
from quditcorr.dynamics import Propagator, build_xxz, evolve, make_propagator
from quditcorr.hadamard import (
    ALPHA_MINUS,
    ALPHA_PLUS,
    CorrelatorEstimate,
    circuit_probabilities,
    estimate_from_probabilities,
    measure_dynamical_correlator,
    trace_probabilities,
)
from quditcorr.linear_response import (
    LinearResponseConfig,
    lr_trace,
    measure_lr,
    unperturbed_readout,
)
from quditcorr.observables import HermitianObservable, spin_matrix
from quditcorr.register import QuditState, RegisterShape, expectation, site_marginal
from quditcorr.rng import sample_counts, task_rng


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
    plus_trace, minus_trace = hadamard_trace(
        sz_obs(site_a), sz_obs(site_b), psi0, make_propagator(h), grid,
        DEFAULT_BUDGETS["hadamard"], False, 0,
    )
    assert len(plus_trace) == len(minus_trace) == grid.size
    for (plus, samp_plus), (minus, samp_minus), t in zip(plus_trace, minus_trace, grid):
        anti, comm = heisenberg_pair(hd, psi, a, b, 0.0, t)
        psi_t = u_matrix(hd, t) @ psi
        mean_b = np.vdot(psi_t, b @ psi_t).real
        assert brute_force_correlators(h, psi0, site_a, site_b, 0.0, t) == pytest.approx(
            (anti, comm), abs=1e-10
        )
        assert plus.value == pytest.approx(anti - 2.0 * mean_a * mean_b, abs=1e-10)
        assert minus.value == pytest.approx(comm, abs=1e-10)
        assert samp_plus is None and samp_minus is None


# Non-uniform, with a point inside the pulse window (t < dt = 1e-3).
ENGINE_GRID = (0.0, 4e-4, 0.3, 0.35, 1.2, 2.9, 5.0)


@pytest.mark.parametrize("strategy", ["dense-eig", "sparse"])
@pytest.mark.parametrize("state", ["neel", "random"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_engine_matches_circuit_and_lr_specification(n, state, strategy):
    psi0 = neel_superposition(n) if state == "neel" else _random_state(n, 20 + n)
    h = build_xxz(n, 1.0, 0.5)
    prop = Propagator(strategy, h)
    obs_a, obs_b = sz_obs(0), sz_obs(n - 1)
    mean_a = expectation(psi0, obs_a.op).real

    # Hadamard: every circuit probability and the exact C+- against the
    # gate-level circuits run from t = 0.
    plus_trace, minus_trace = hadamard_trace(
        obs_a, obs_b, psi0, prop, ENGINE_GRID, DEFAULT_BUDGETS["hadamard"], False, 0
    )
    engine = trace_probabilities(obs_a, obs_b, psi0, prop, ENGINE_GRID)
    for t, (ps_plus, ps_minus, _), (plus, _), (minus, _) in zip(
        ENGINE_GRID, engine, plus_trace, minus_trace
    ):
        spec_plus = circuit_probabilities(obs_a, obs_b, 0.0, t, psi0, prop, ALPHA_PLUS)
        spec_minus = circuit_probabilities(obs_a, obs_b, 0.0, t, psi0, prop, ALPHA_MINUS)
        assert np.max(np.abs(ps_plus - spec_plus)) <= 1e-10
        assert np.max(np.abs(ps_minus - spec_minus)) <= 1e-10
        mean_b = expectation(evolve(prop, psi0, t), obs_b.op).real
        raw_plus, spec_minus_value = estimate_from_probabilities(
            [spec_plus, spec_minus], 1.0, 1.0, None
        ).value
        assert plus.value == pytest.approx(raw_plus - 2.0 * mean_a * mean_b, abs=1e-10)
        assert minus.value == pytest.approx(spec_minus_value, abs=1e-10)

    # LR: the exact quotient against measure_lr, compared as a difference
    # of expectation values (times lambda * pulse_area); the sampled
    # value from the same stream is the same draw.  At J_xy = 2 the pulse
    # lasts area / 2, so the pulse area and its duration differ.
    area = 1e-3
    for j_xy in (1.0, 2.0):
        h_lr = build_xxz(n, j_xy, 0.5 * j_xy)
        prop_lr = Propagator(strategy, h_lr)
        unperturbed = unperturbed_readout(prop_lr, psi0, n - 1, area, ENGINE_GRID)
        for lam in (0.1, 0.4):
            for kind in ("hermitian", "non_hermitian"):
                cfg = LinearResponseConfig(lam, area, 0, n - 1, kind)
                rngs = [task_rng(3, ti) for ti in range(len(ENGINE_GRID))]
                trace = lr_trace(cfg, psi0, prop_lr, ENGINE_GRID, unperturbed, 1000, rngs)
                for ti, (t, (exact, samp)) in enumerate(zip(ENGINE_GRID, trace)):
                    args = (cfg, 0.0, max(t, area / j_xy), psi0, h_lr)
                    spec = measure_lr(*args, nominal_budget=1000)
                    assert abs(exact.value - spec.value) * lam * area <= 1e-10
                    assert exact.std_error == pytest.approx(spec.std_error, rel=1e-6)
                    assert exact.shots == spec.shots
                    spec_samp = measure_lr(*args, 1000, task_rng(3, ti))
                    assert (samp.value, samp.shots) == (spec_samp.value, spec_samp.shots)


def _reference_sampled_point(ps_plus, ps_minus, marginal_a, marginal_b, pref, n_plus, n_minus, rng):
    """Sampled (C+, C-) of one Hadamard point, one draw per circuit and per site, in Python floats.

    The draws come from rng in the study's order: the four C+ circuits,
    <S^z> on A's site at t = 0 and on B's at t, then the four C- circuits.
    """

    def circuits(ps, n):
        qs = [int(sample_counts((p, 1.0 - p), n, rng)[0]) / n for p in ps]
        std = math.sqrt(pref**2 * sum((4.0 * math.sqrt(q * (1.0 - q) / n)) ** 2 for q in qs))
        return pref * sum(4.0 * q - 2.0 for q in qs), std, 4 * n

    def site_mean(marginal):
        up, _, down = sample_counts(marginal, n_plus, rng).tolist()  # S^z = +1, 0, -1
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
    plus_trace, minus_trace = hadamard_trace(obs_a, obs_b, psi0, prop, grid, budgets, True, seed)
    n_plus, n_minus = max(1, budgets["plus"] // 6), max(1, budgets["minus"] // 4)
    marginal_a = site_marginal(psi0, 0)
    pref = obs_a.spectral_norm * obs_b.spectral_norm / 4.0
    engine = trace_probabilities(obs_a, obs_b, psi0, prop, grid)
    for ti, (ps_plus, ps_minus, phi) in enumerate(engine):
        expected = _reference_sampled_point(
            ps_plus, ps_minus, marginal_a, site_marginal(phi, n - 1), pref,
            n_plus, n_minus, task_rng(seed, 1, ti),
        )
        for (_, samp), cells in zip((plus_trace[ti], minus_trace[ti]), expected):
            assert samp.mode == "sampled"
            assert repr((samp.value, samp.std_error, samp.shots)) == repr(cells)


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
    run_quench_study(RunConfig(n_sites=7, steps=3, exact_only=True, workers=2))
    assert sizes == [357, 357]


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
    config = RunConfig(2, t_max=2.0, steps=5, protocols=("hadamard",), exact_only=True, seed=3)
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
    real_trace = benchmark.hadamard_trace

    def interrupted_trace(*args):
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        return real_trace(*args)

    monkeypatch.setattr(benchmark, "hadamard_trace", interrupted_trace)
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


def test_study_reproduces_recorded_cells():
    # The CSV rule for a change that keeps the behaviour: sampled,
    # std_error and shots byte-identical (repr is what the CSV writes),
    # exact cells within 1e-14 on the expectation-value scale.
    config = RunConfig(n_sites=3, steps=4, lambdas=(0.2,), seed=11)
    rows = run_quench_study(config).rows
    assert len(rows) == len(RECORDED_N3)
    for row, (protocol, kind, t, exact, sampled, std_error, shots) in zip(rows, RECORDED_N3):
        assert (row.protocol, row.kind, row.t) == (protocol, kind, t)
        assert (repr(row.sampled), repr(row.std_error), row.shots) == (
            repr(sampled), repr(std_error), shots
        )
        scale = 1.0 if protocol == "hadamard" else row.lam * config.pulse_area
        assert abs(row.exact - exact) * scale <= 1e-14

import numpy as np
import pytest
import scipy.linalg

from oracles import SZ1, connected_pair, dense_xxz, heisenberg_pair, neel_superposition_vec, site_op
from quditcorr.dynamics import (
    Propagator,
    build_perturbed,
    build_xxz,
    evolve,
    make_propagator,
    perturbation,
)
from quditcorr.linear_response import (
    LinearResponseConfig,
    effective_shots,
    lr_estimate,
    measure_lr,
    measure_site_expectation,
)
from quditcorr.observables import HermitianObservable
from quditcorr.register import LocalOperator, QuditState, RegisterShape, basis_state, site_marginal
from quditcorr.rng import task_rng


def neel_state(n):
    return QuditState(RegisterShape((3,) * n), neel_superposition_vec(n))


def test_effective_shots_rules():
    assert effective_shots(6000, 1.0) == 6000
    assert effective_shots(6000, 0.5) == 3000
    assert effective_shots(6000, 1e-9) == 1
    assert effective_shots(100, 1.0 + 5e-7) == 100  # slight growth clamps to nominal
    with pytest.raises(ValueError):
        effective_shots(6000, 0.0)
    with pytest.raises(ValueError):
        effective_shots(6000, 1.1)
    with pytest.raises(ValueError):
        effective_shots(0, 0.5)


def test_normalized_expectation_plain_and_scaled():
    rng = np.random.default_rng(0)
    amp = rng.normal(size=9) + 1j * rng.normal(size=9)
    amp /= np.linalg.norm(amp)
    state = QuditState(RegisterShape((3, 3)), amp)
    plain = measure_site_expectation(state, 1).value
    dense = np.kron(np.eye(3), SZ1)
    assert plain == pytest.approx(np.vdot(amp, dense @ amp).real, abs=1e-12)
    scaled = QuditState(RegisterShape((3, 3)), 0.5 * amp)
    assert site_marginal(scaled, 1) == pytest.approx(site_marginal(state, 1), abs=1e-15)
    assert measure_site_expectation(scaled, 1).value == pytest.approx(plain, abs=1e-12)


def test_normalized_expectation_after_non_hermitian_pulse():
    # single spin-1 under -i*lambda*S^z for time dt, against a 3x3 expm oracle
    lam, dt = 0.4, 0.7
    gen = -1j * lam * SZ1
    u = scipy.linalg.expm(-1j * dt * gen)
    amp = np.array([0.6, 0.64, 0.48], dtype=complex)
    evolved = u @ amp
    state = QuditState(RegisterShape((3,)), evolved)
    expected = np.vdot(evolved, SZ1 @ evolved).real / np.vdot(evolved, evolved).real
    assert abs(state.squared_norm - 1.0) > 1e-2  # the pulse changed the norm
    assert measure_site_expectation(state, 0).value == pytest.approx(expected, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError, match="lambda"):
        LinearResponseConfig(0.0)
    with pytest.raises(ValueError, match="pulse area"):
        LinearResponseConfig(0.1, pulse_area=0.0)
    with pytest.raises(ValueError, match="kind"):
        LinearResponseConfig(0.1, kind="weird")
    with pytest.raises(ValueError, match="lambda"):
        LinearResponseConfig(np.nan)
    with pytest.raises(ValueError, match="pulse area"):
        LinearResponseConfig(0.1, pulse_area=np.nan)


def test_pulse_must_fit_between_the_two_times():
    h = build_xxz(2, 1.0, 0.5)
    cfg = LinearResponseConfig(0.1, pulse_area=1e-3)
    with pytest.raises(ValueError, match="pulse duration"):
        measure_lr(cfg, 0.5, 0.5, neel_state(2), h)


def test_hermitian_kind_estimates_commutator_small_bias():
    # N=2, lambda=0.01, pulse area 1e-3, t2 = 1: bias well below 5% of the
    # trace scale, and not larger at lambda/2 (Richardson-style check)
    n = 2
    h = build_xxz(n, 1.0, 0.5)
    psi0 = neel_state(n)
    hd = dense_xxz(n, 1.0, 0.5)
    scale = max(
        abs(heisenberg_pair(hd, psi0.amplitudes, site_op(n, 0, SZ1), site_op(n, 1, SZ1), 0.0, t)[1])
        for t in np.linspace(0.2, 5.0, 25)
    )
    _, cm = heisenberg_pair(hd, psi0.amplitudes, site_op(n, 0, SZ1), site_op(n, 1, SZ1), 0.0, 1.0)
    est = measure_lr(LinearResponseConfig(0.01, 1e-3, 0, 1), 0.0, 1.0, psi0, h)
    bias = abs(est.value - cm)
    assert bias <= 0.05 * scale
    est_half = measure_lr(LinearResponseConfig(0.005, 1e-3, 0, 1), 0.0, 1.0, psi0, h)
    assert abs(est_half.value - cm) <= bias * 1.5 + 1e-8


def test_non_hermitian_kind_estimates_connected_anticommutator():
    n = 3
    h = build_xxz(n, 1.0, 0.5)
    psi0 = neel_state(n)
    hd = dense_xxz(n, 1.0, 0.5)
    cp_conn, _ = connected_pair(hd, psi0.amplitudes, 0, 1, 0.0, 1.4)
    cfg = LinearResponseConfig(0.02, 1e-3, 0, 1, "non_hermitian")
    est = measure_lr(cfg, 0.0, 1.4, psi0, h)
    assert est.value == pytest.approx(cp_conn, abs=2e-3)


def test_bias_bounded_across_lambda_grid():
    n = 2
    h = build_xxz(n, 1.0, 0.5)
    psi0 = neel_state(n)
    hd = dense_xxz(n, 1.0, 0.5)
    _, cm = heisenberg_pair(hd, psi0.amplitudes, site_op(n, 0, SZ1), site_op(n, 1, SZ1), 0.0, 2.0)
    biases = []
    for lam in (0.05, 0.1, 0.2, 0.4):
        est = measure_lr(LinearResponseConfig(lam, 1e-3, 0, 1), 0.0, 2.0, psi0, h)
        biases.append(abs(est.value - cm))
    assert max(biases) <= 1e-3  # pulse-area-limited systematics at every lambda


def test_sampled_standard_deviation_scaling():
    # empirical std over seeds ~ analytic sqrt(var_u/n + var_p/n)/(lam*area)
    n = 2
    h = build_xxz(n, 1.0, 0.5)
    psi0 = neel_state(n)
    budget = 4000
    for lam in (0.1, 0.4):
        cfg = LinearResponseConfig(lam, 1e-3, 0, 1)
        exact = measure_lr(cfg, 0.0, 1.0, psi0, h, nominal_budget=budget)
        vals = [
            measure_lr(cfg, 0.0, 1.0, psi0, h, budget, task_rng(17, int(lam * 10), s)).value
            for s in range(200)
        ]
        emp = np.std(vals, ddof=1)
        assert emp == pytest.approx(exact.std_error, rel=0.2)


def test_sampled_estimate_is_deterministic_per_stream():
    h = build_xxz(2, 1.0, 0.5)
    cfg = LinearResponseConfig(0.2, 1e-3, 0, 1)
    a = measure_lr(cfg, 0.0, 1.0, neel_state(2), h, 100, task_rng(5, 2))
    b = measure_lr(cfg, 0.0, 1.0, neel_state(2), h, 100, task_rng(5, 2))
    assert a.value == b.value and a.shots == b.shots


def test_missing_generator_is_seed_zero():
    # Every sampled entry point reads rng=None as task_rng(0).
    psi = neel_state(3)
    omitted = measure_site_expectation(psi, 1, 500)
    assert omitted == measure_site_expectation(psi, 1, 500, task_rng(0))
    cfg = LinearResponseConfig(0.2, 1e-3, 0, 1)
    args = (cfg, 0.0, 1.0, neel_state(2), build_xxz(2, 1.0, 0.5), 100)
    assert measure_lr(*args) == measure_lr(*args, task_rng(0))


@pytest.mark.parametrize("p", [0.5, 0.3141592653589793])
def test_sampled_estimate_ignores_rounding_of_the_marginals(p):
    # Readout marginals that differ by rounding only, as after a backend
    # change, give the same sampled cell.
    cfg = LinearResponseConfig(0.2, 1e-3, 0, 1)
    draws = []
    for eps in (-1e-15, 0.0, 1e-15):
        marginal = np.array([p + eps, (1 - p) / 2 - eps, (1 - p) / 2])
        args = (cfg, [marginal], [1.0], [marginal[::-1]], 2000, [task_rng(4, 1)])
        draws.append(lr_estimate(*args).points()[0])
    assert len({(d.value, d.std_error) for d in draws}) == 1


def test_non_hermitian_branch_shot_reduction():
    # strong decay: |+1,+1> under -i*lambda*J*Sz pulse loses most of its norm
    h = build_xxz(2, 1.0, 0.5)
    psi0 = basis_state((3, 3), (0, 0))
    cfg = LinearResponseConfig(5.0, 0.1, 0, 1, "non_hermitian")
    est = measure_lr(cfg, 0.0, 1.0, psi0, h, 1000, task_rng(1, 1))
    assert est.shots < 1000  # perturbed branch got fewer than its 500 nominal


def test_norm_collapse_flagged():
    h = build_xxz(2, 1.0, 0.5)
    psi0 = basis_state((3, 3), (0, 0))
    cfg = LinearResponseConfig(15.0, 1.0, 0, 1, "non_hermitian")
    with pytest.raises(ValueError, match="collapsed"):
        measure_lr(cfg, 0.0, 1.0, psi0, h)


@pytest.mark.usefixtures("restore_global_random_state")
@pytest.mark.parametrize(
    "n, kind, pulse_area",
    [
        (4, "hermitian", 1e-3),
        (4, "hermitian", 0.5),
        (4, "non_hermitian", 1e-3),
        (4, "non_hermitian", 0.5),
        # Long enough that one expm_multiply call would estimate its norms
        # with onenormest, which draws from np.random.
        (6, "hermitian", 20.0),
        (6, "non_hermitian", 20.0),
    ],
)
def test_lr_value_ignores_the_global_random_state(n, kind, pulse_area):
    h = build_xxz(n, 1.0, 0.5)
    cfg = LinearResponseConfig(0.05, pulse_area, 0, 1, kind)
    seen = set()
    for seed in range(4):
        np.random.seed(seed)
        est = measure_lr(cfg, 0.3, 25.0, neel_state(n), h, nominal_budget=1000)
        seen.add((est.value.hex(), est.std_error.hex()))
    assert len(seen) == 1


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["hermitian", "non_hermitian"])
@pytest.mark.parametrize("dt", [1e-3, 0.5, 30.0])
def test_pulsed_state_matches_expm_oracle(n, kind, dt):
    rng = np.random.default_rng(n)
    amp = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    amp /= np.linalg.norm(amp)
    state = QuditState(RegisterShape((3,) * n), amp)
    lam, site = 0.2, n - 1
    h0 = build_xxz(n, 1.0, 0.5)
    coupling = lam if kind == "hermitian" else 1j * lam
    oracle_h = dense_xxz(n, 1.0, 0.5) - coupling * site_op(n, site, SZ1)
    expected = scipy.linalg.expm(-1j * dt * oracle_h) @ amp
    pulse = Propagator("sparse", build_perturbed(h0, site, lam, kind))
    got = evolve(pulse, state, dt).amplitudes
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(expected)))


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("kind", ["hermitian", "non_hermitian"])
def test_pulse_on_the_study_blocks_matches_the_perturbed_propagator(n, kind):
    # A study pulses on the blocks of H0's propagator, with the
    # perturbation added as a diagonal; the reference propagates the whole
    # perturbed H.  At N = 8 the Neel state's block (1107) is a CSR block,
    # and the random state touches every block.
    h0 = build_xxz(n, 1.0, 0.5)
    prop = make_propagator(h0)
    rng = np.random.default_rng(n)
    amp = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    states = [neel_state(n), QuditState(RegisterShape((3,) * n), amp / np.linalg.norm(amp))]
    for site, lam, dt in ((0, 0.2, 1e-3), (n - 1, 0.4, 0.5)):
        reference = Propagator("sparse", build_perturbed(h0, site, lam, kind))
        for state in states:
            got = evolve(prop, state, dt, perturbation(h0, site, lam, kind))
            want = evolve(reference, state, dt)
            assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-14

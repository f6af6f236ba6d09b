import numpy as np
import pytest
import scipy.linalg

from oracles import (
    SZ1,
    connected_pair,
    dense_xxz,
    heisenberg_pair,
    neel_superposition_vec,
    propagator,
    pulse_diagonal,
    site_op,
    taylor_evolve,
)
from quditcorr.dynamics import Propagator, build_perturbed, build_xxz, evolve, make_propagator
from quditcorr.linear_response import (
    LinearResponseConfig,
    lr_estimate,
    measure_lr,
    measure_site_expectation,
    site_expectations,
)
from quditcorr.observables import HermitianObservable
from quditcorr.register import LocalOperator, QuditState, basis_state, site_marginal
from quditcorr.rng import task_rng


def neel_state(n):
    return QuditState((3,) * n, neel_superposition_vec(n))


def test_non_hermitian_shots_follow_the_squared_norm():
    # The pulsed branch keeps the share of its budget // 2 shots that its
    # squared norm keeps, at least one; the unpulsed branch keeps them all.
    cfg = LinearResponseConfig(0.2, 1e-3, 0, 1, "non_hermitian")
    marginal = np.array([[0.3, 0.4, 0.3]])

    def pulsed_shots(budget, norm):
        (shots,) = lr_estimate(cfg, marginal, [norm], marginal, budget).shots.tolist()
        return shots - budget // 2

    assert pulsed_shots(12000, 1.0) == 6000
    assert pulsed_shots(12000, 0.5) == 3000
    assert pulsed_shots(12000, 1e-6) == 1  # the smallest norm short of a collapse
    assert pulsed_shots(200, 1.0 + 5e-7) == 100  # slight growth clamps to nominal
    assert pulsed_shots(6_000_000, 1.0 + 5e-7) == 3_000_000  # unclamped: 3_000_001.5


def test_normalized_expectation_plain_and_scaled():
    rng = np.random.default_rng(0)
    amp = rng.normal(size=9) + 1j * rng.normal(size=9)
    amp /= np.linalg.norm(amp)
    state = QuditState((3, 3), amp)
    plain = measure_site_expectation(state, 1).value
    dense = np.kron(np.eye(3), SZ1)
    assert plain == pytest.approx(np.vdot(amp, dense @ amp).real, abs=1e-12)
    scaled = QuditState((3, 3), 0.5 * amp)
    assert site_marginal(scaled, 1) == pytest.approx(site_marginal(state, 1), abs=1e-15)
    assert measure_site_expectation(scaled, 1).value == pytest.approx(plain, abs=1e-12)


def test_normalized_expectation_after_non_hermitian_pulse():
    # single spin-1 under -i*lambda*S^z for time dt, against a 3x3 expm oracle
    lam, dt = 0.4, 0.7
    gen = -1j * lam * SZ1
    u = scipy.linalg.expm(-1j * dt * gen)
    amp = np.array([0.6, 0.64, 0.48], dtype=complex)
    evolved = u @ amp
    state = QuditState((3,), evolved)
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
    # The estimators divide by lambda * pulse_area, and a pulse grows a
    # squared norm by up to exp(2 lambda pulse_area): a product that
    # underflows or a growth that overflows is refused on construction, so
    # measure_lr raises one ValueError instead of overflowing in its error
    # bars or its squared norms.
    prop, psi0 = make_propagator(build_xxz(2, 1.0, 0.5)), neel_state(2)
    pulses = [
        (1e-300, 1e-10, r"^lambda \* pulse_area underflows for 1e-300$"),
        (400.0, 1.0, r"^2 \* lambda \* pulse_area = 800 for 400.0: exp of it overflows a float$"),
        (1e-160, 1e-160, r"^lambda \* pulse_area underflows for 1e-160$"),
    ]
    for lam, pulse_area, message in pulses:
        with pytest.raises(ValueError, match=message):
            LinearResponseConfig(lam, pulse_area)
        with pytest.raises(ValueError, match=message):
            cfg = LinearResponseConfig(lam, pulse_area, 0, 1, "non_hermitian")
            measure_lr(cfg, 0.3, 2.0, psi0, prop, 1000)


def test_pulse_diagonal_is_the_site_term_on_the_probe_site():
    # -lambda J_xy S^z on the probed site, times i for the non-Hermitian kind.
    h0 = build_xxz(3, 2.0, 0.5)
    sz = site_op(3, 1, SZ1).diagonal().real
    hermitian = LinearResponseConfig(0.3, probe_site=1).pulse_diagonal(h0)
    np.testing.assert_array_equal(hermitian, -0.6 * sz)
    non_hermitian = LinearResponseConfig(0.3, probe_site=1, kind="non_hermitian")
    np.testing.assert_array_equal(non_hermitian.pulse_diagonal(h0), -0.6j * sz)
    for site in (-1, 3):
        with pytest.raises(IndexError, match=f"^site {site} out of range for 3 sites$"):
            LinearResponseConfig(0.3, probe_site=site).pulse_diagonal(h0)


def test_pulse_must_fit_between_the_two_times():
    h = build_xxz(2, 1.0, 0.5)
    cfg = LinearResponseConfig(0.1, pulse_area=1e-3)
    with pytest.raises(ValueError, match="pulse duration"):
        measure_lr(cfg, 0.5, 0.5, neel_state(2), make_propagator(h))


def test_measure_lr_runs_on_the_callers_propagator(monkeypatch):
    # No hidden rebuild: H is not split into sectors again and psi0's
    # block is factorized once, in the propagator the caller passed.
    prop, psi0 = make_propagator(build_xxz(4, 1.0, 0.5)), neel_state(4)
    built = []
    init = Propagator.__init__
    monkeypatch.setattr(Propagator, "__init__", lambda self, h: built.append(h) or init(self, h))
    for kind in ("hermitian", "non_hermitian"):
        measure_lr(LinearResponseConfig(0.2, 1e-3, 0, 1, kind), 0.4, 1.5, psi0, prop, 100)
    assert built == []
    assert all(block._op is not None for block in prop.blocks_touched(psi0))


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
    est = measure_lr(LinearResponseConfig(0.01, 1e-3, 0, 1), 0.0, 1.0, psi0, make_propagator(h))
    bias = abs(est.value - cm)
    assert bias <= 0.05 * scale
    est_half = measure_lr(
        LinearResponseConfig(0.005, 1e-3, 0, 1), 0.0, 1.0, psi0, make_propagator(h)
    )
    assert abs(est_half.value - cm) <= bias * 1.5 + 1e-8


def test_non_hermitian_kind_estimates_connected_anticommutator():
    n = 3
    h = build_xxz(n, 1.0, 0.5)
    psi0 = neel_state(n)
    hd = dense_xxz(n, 1.0, 0.5)
    cp_conn, _ = connected_pair(hd, psi0.amplitudes, 0, 1, 0.0, 1.4)
    cfg = LinearResponseConfig(0.02, 1e-3, 0, 1, "non_hermitian")
    est = measure_lr(cfg, 0.0, 1.4, psi0, make_propagator(h))
    assert est.value == pytest.approx(cp_conn, abs=2e-3)


def test_bias_bounded_across_lambda_grid():
    n = 2
    h = build_xxz(n, 1.0, 0.5)
    psi0 = neel_state(n)
    hd = dense_xxz(n, 1.0, 0.5)
    _, cm = heisenberg_pair(hd, psi0.amplitudes, site_op(n, 0, SZ1), site_op(n, 1, SZ1), 0.0, 2.0)
    biases = []
    for lam in (0.05, 0.1, 0.2, 0.4):
        est = measure_lr(LinearResponseConfig(lam, 1e-3, 0, 1), 0.0, 2.0, psi0, make_propagator(h))
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
        exact = measure_lr(cfg, 0.0, 1.0, psi0, make_propagator(h), budget)
        vals = [
            measure_lr(
                cfg, 0.0, 1.0, psi0, make_propagator(h), budget, task_rng(17, int(lam * 10), s)
            ).value
            for s in range(200)
        ]
        emp = np.std(vals, ddof=1)
        assert emp == pytest.approx(exact.std_error, rel=0.2)


def test_sampled_estimate_is_deterministic_per_stream():
    h = build_xxz(2, 1.0, 0.5)
    cfg = LinearResponseConfig(0.2, 1e-3, 0, 1)
    a = measure_lr(cfg, 0.0, 1.0, neel_state(2), make_propagator(h), 100, task_rng(5, 2))
    b = measure_lr(cfg, 0.0, 1.0, neel_state(2), make_propagator(h), 100, task_rng(5, 2))
    assert a.value == b.value and a.shots == b.shots


def test_a_budget_without_a_generator_is_exact_with_its_error_bars():
    # The one-point entry points follow the array estimators' rule: no
    # generator, no draw; the budget only sets the error bars and shots.
    psi = neel_state(3)
    (want,) = site_expectations([[site_marginal(psi, 1)]], 500)
    est = measure_site_expectation(psi, 1, 500)
    assert est == want.points()[0] and est.mode == "exact" and est.std_error > 0
    h, dt = build_xxz(2, 1.0, 0.5), 1e-3
    prop = make_propagator(h)
    unpert = evolve(prop, neel_state(2), 1.0)
    for kind in ("hermitian", "non_hermitian"):
        cfg = LinearResponseConfig(0.2, dt, 0, 1, kind)
        pulsed = evolve(prop.pulse(pulse_diagonal(h, 0, 0.2, kind)), neel_state(2), dt)
        pert = evolve(prop, pulsed, 1.0 - dt)
        args = ([site_marginal(pert, 1)], [pert.squared_norm], [site_marginal(unpert, 1)])
        want = lr_estimate(cfg, *args, 100).points()[0]
        est = measure_lr(cfg, 0.0, 1.0, neel_state(2), make_propagator(h), 100)
        assert est == want and est.mode == "exact" and est.std_error > 0


@pytest.mark.parametrize("entry", ["site_expectations", "measure_site_expectation",
                                   "lr_estimate", "measure_lr"])
def test_a_generator_without_a_budget_is_refused(entry):
    # No budget means no shots to draw: a ValueError naming the budget,
    # not an exact value that ignores the generator.
    psi, h, marginal = neel_state(2), build_xxz(2, 1.0, 0.5), [[0.3, 0.4, 0.3]]
    cfg = LinearResponseConfig(0.2, 1e-3, 0, 1)
    calls = {
        "site_expectations": lambda rng: site_expectations([marginal], None, [rng]),
        "measure_site_expectation": lambda rng: measure_site_expectation(psi, 1, None, rng),
        "lr_estimate": lambda rng: lr_estimate(cfg, marginal, [1.0], marginal, None, [rng]),
        "measure_lr": lambda rng: measure_lr(cfg, 0.0, 1.0, psi, make_propagator(h), None, rng),
    }
    with pytest.raises(ValueError, match="budget"):
        calls[entry](task_rng(3))


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


@pytest.mark.parametrize("budget, rngs", [(None, [0]), (1, [0]), (1, None)])
def test_lr_estimate_refuses_to_sample_without_a_budget_or_below_two_shots(budget, rngs):
    # Without a budget the draws would hold no shots: 0/0 means, not an error.
    marginal = np.array([[0.3, 0.4, 0.3]])
    with pytest.raises(ValueError, match="per-point budget of at least 2 shots"):
        lr_estimate(LinearResponseConfig(0.2), marginal, [1.0], marginal, budget, rngs)


def test_non_hermitian_branch_shot_reduction():
    # strong decay: |+1,+1> under -i*lambda*J*Sz pulse loses most of its norm
    h = build_xxz(2, 1.0, 0.5)
    psi0 = basis_state((3, 3), (0, 0))
    cfg = LinearResponseConfig(5.0, 0.1, 0, 1, "non_hermitian")
    est = measure_lr(cfg, 0.0, 1.0, psi0, make_propagator(h), 1000, task_rng(1, 1))
    assert est.shots < 1000  # perturbed branch got fewer than its 500 nominal


def test_a_pulsed_norm_past_its_growth_bound_is_refused():
    # The pulse grows a normalized state's squared norm to at most
    # exp(2 lambda pulse_area), here 1.0004: a norm of 5.0 is a fault.
    cfg = LinearResponseConfig(0.2, 1e-3, 0, 1, "non_hermitian")
    marginal = np.array([[0.3, 0.4, 0.3]])
    with pytest.raises(ValueError, match=r"squared norm 5 exceeds its bound exp\(2 lambda"):
        lr_estimate(cfg, marginal, [5.0], marginal, 1000)
    # |-1, -1> is an eigenstate of H0 wholly at m = -1 on the probed site,
    # so its pulsed norm reaches the bound, e^0.6 here (2.2e-16 past it in
    # logarithm, by rounding), and is accepted.
    psi0 = basis_state((3, 3), (2, 2))
    strong = LinearResponseConfig(1.0, 0.3, 0, 1, "non_hermitian")
    prop = make_propagator(build_xxz(2, 1.0, 0.5))
    pulse = pulse_diagonal(prop.hamiltonian, 0, 1.0, "non_hermitian")
    norm = evolve(prop.pulse(pulse), psi0, 0.3).squared_norm
    assert norm == pytest.approx(np.exp(0.6), rel=1e-14)
    assert lr_estimate(strong, marginal, [norm], marginal, 1000).shots == 1000


@pytest.mark.parametrize("kind", ["hermitian", "non_hermitian"])
def test_a_nan_pulsed_norm_is_refused(kind):
    # NaN fails every comparison, so the collapse check is written to fail it.
    marginal = np.array([[0.3, 0.4, 0.3]])
    cfg = LinearResponseConfig(0.2, 1e-3, 0, 1, kind)
    with pytest.raises(ValueError, match=r"collapsed \(squared norm nan\)"):
        lr_estimate(cfg, marginal, [np.nan], marginal, 1000)


def test_norm_collapse_flagged():
    h = build_xxz(2, 1.0, 0.5)
    psi0 = basis_state((3, 3), (0, 0))
    cfg = LinearResponseConfig(15.0, 1.0, 0, 1, "non_hermitian")
    with pytest.raises(ValueError, match="collapsed"):
        measure_lr(cfg, 0.0, 1.0, psi0, make_propagator(h))


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
        est = measure_lr(cfg, 0.3, 25.0, neel_state(n), make_propagator(h), 1000)
        seen.add((est.value.hex(), est.std_error.hex()))
    assert len(seen) == 1


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["hermitian", "non_hermitian"])
@pytest.mark.parametrize("dt", [1e-3, 0.5, 30.0])
def test_pulsed_state_matches_expm_oracle(n, kind, dt):
    rng = np.random.default_rng(n)
    amp = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    amp /= np.linalg.norm(amp)
    state = QuditState((3,) * n, amp)
    lam, site = 0.2, n - 1
    h0 = build_xxz(n, 1.0, 0.5)
    coupling = lam if kind == "hermitian" else 1j * lam
    oracle_h = dense_xxz(n, 1.0, 0.5) - coupling * site_op(n, site, SZ1)
    expected = scipy.linalg.expm(-1j * dt * oracle_h) @ amp
    diagonal = pulse_diagonal(h0, site, lam, kind)
    # An anti-Hermitian diagonal propagates only as a pulse of H0.
    pulse = (make_propagator(h0).pulse(diagonal) if kind == "non_hermitian"
             else propagator("sparse", build_perturbed(h0, diagonal)))
    got = evolve(pulse, state, dt).amplitudes
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(expected)))


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("kind", ["hermitian", "non_hermitian"])
def test_pulse_on_the_study_blocks_matches_the_perturbed_propagator(n, kind):
    # A study pulses on the blocks of H0's propagator, with the
    # perturbation added as a diagonal; the reference runs the Taylor
    # kernel on the whole perturbed H, unsplit.  At N = 8 the Neel state's
    # block (1107) is a CSR block, and the random state touches every block.
    h0 = build_xxz(n, 1.0, 0.5)
    prop = make_propagator(h0)
    rng = np.random.default_rng(n)
    amp = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    states = [neel_state(n), QuditState((3,) * n, amp / np.linalg.norm(amp))]
    for site, lam, dt in ((0, 0.2, 1e-3), (n - 1, 0.4, 0.5)):
        diagonal = pulse_diagonal(h0, site, lam, kind)
        for state in states:
            got = evolve(prop.pulse(diagonal), state, dt)
            want = taylor_evolve(build_perturbed(h0, diagonal), state, dt)
            assert np.abs(got.amplitudes - want).max() <= 1e-14

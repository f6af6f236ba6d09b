import itertools
import math

import numpy as np
import pytest

import quditcorr.hadamard as hadamard
from oracles import SZ1, dense_xxz, heisenberg_pair, neel_superposition_vec, site_op, u_matrix
from quditcorr.dynamics import build_xxz, make_propagator
from quditcorr.hadamard import (
    ALPHA_MINUS,
    ALPHA_PLUS,
    circuit_probabilities,
    estimate_from_probabilities,
    measure_dynamical_correlator,
    run_hadamard_circuit,
    trace_probabilities,
    variance_model,
)
from quditcorr.observables import HermitianObservable, decompose, spin_matrix
from quditcorr.register import LocalOperator, QuditState
from quditcorr.rng import sample_counts, task_rng


def sz_obs(site):
    return HermitianObservable(spin_matrix(1, "z").on(site))


def neel_state(n):
    return QuditState((3,) * n, neel_superposition_vec(n))


def estimate_point(ps, norm_a, norm_b, shots, rng=None, nominal_total=None):
    # One point: a one-point batch of the array estimator.  Without shots
    # it is exact, with the error bars of nominal_total shots over the
    # four circuits.
    if shots is None:
        batch = estimate_from_probabilities([ps], norm_a, norm_b, nominal_total and nominal_total // 4)
    else:
        batch = estimate_from_probabilities([ps], norm_a, norm_b, shots, [rng])
    return batch.points()[0]


def exact_value(ps):
    # (||A|| ||B|| / 4) sum (4P - 2) at unit norms
    return estimate_point(ps, 1.0, 1.0, None).value


def setup_chain(n, jz=0.5):
    h = build_xxz(n, 1.0, jz)
    return h, make_propagator(h), neel_state(n)


def test_identity_observable_gives_trivial_probabilities():
    h, prop, psi0 = setup_chain(2)
    eye = LocalOperator(np.eye(3), (0,))
    dec_a, dec_b = decompose(HermitianObservable(eye)), decompose(HermitianObservable(eye.on(1)))
    for gates in itertools.product((dec_a.w, dec_a.w_dagger), (dec_b.w, dec_b.w_dagger)):
        p_plus = run_hadamard_circuit(*gates, 0.0, 0.9, psi0, prop, ALPHA_PLUS)
        p_minus = run_hadamard_circuit(*gates, 0.0, 0.9, psi0, prop, ALPHA_MINUS)
        assert p_plus == pytest.approx(1.0, abs=1e-12)
        assert p_minus == pytest.approx(0.5, abs=1e-12)


def test_each_circuit_probability_matches_analytic_form():
    # 4P - 2 = 2 Re(e^{i alpha} <V_A^+(t1) V_B(t2)>), checked per gate pair
    n, t1, t2 = 2, 0.3, 0.9
    h, prop, psi0 = setup_chain(n)
    hd = dense_xxz(n, 1.0, 0.5)
    psi = psi0.amplitudes
    dec_a = decompose(sz_obs(0))
    dec_b = decompose(sz_obs(1))
    u1, u2 = u_matrix(hd, t1), u_matrix(hd, t2)
    for alpha in (ALPHA_PLUS, ALPHA_MINUS):
        for gates in itertools.product((dec_a.w, dec_a.w_dagger), (dec_b.w, dec_b.w_dagger)):
            va, vb = site_op(n, 0, gates[0].matrix), site_op(n, 1, gates[1].matrix)
            corr = np.vdot(psi, (u1.conj().T @ va.conj().T @ u1) @ (u2.conj().T @ vb @ u2) @ psi)
            expected = 0.5 + 0.5 * np.real(np.exp(1j * alpha) * corr)
            p = run_hadamard_circuit(*gates, t1, t2, psi0, prop, alpha)
            assert p == pytest.approx(expected, abs=1e-10)


def test_assembled_correlators_match_brute_force_n2():
    h, prop, psi0 = setup_chain(2)
    hd = dense_xxz(2, 1.0, 0.5)
    plus, minus = measure_dynamical_correlator(sz_obs(0), sz_obs(1), 0.0, 0.7, psi0, prop)
    cp, cm = heisenberg_pair(hd, psi0.amplitudes, site_op(2, 0, SZ1), site_op(2, 1, SZ1), 0.0, 0.7)
    assert plus.value == pytest.approx(cp, abs=1e-8)
    assert minus.value == pytest.approx(cm, abs=1e-8)
    assert plus.mode == "exact" and plus.std_error == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_equivalence_random_time_pairs(n):
    h, prop, psi0 = setup_chain(n)
    hd = dense_xxz(n, 1.0, 0.5)
    a, b = site_op(n, 0, SZ1), site_op(n, 1, SZ1)
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        t1, t2 = np.sort(rng.uniform(0.0, 5.0, 2))
        plus, minus = measure_dynamical_correlator(sz_obs(0), sz_obs(1), t1, t2, psi0, prop)
        cp, cm = heisenberg_pair(hd, psi0.amplitudes, a, b, t1, t2)
        assert abs(plus.value - cp) <= 1e-8
        assert abs(minus.value - cm) <= 1e-8


def test_probability_and_per_term_ranges():
    h, prop, psi0 = setup_chain(3)
    rng = np.random.default_rng(13)
    for _ in range(5):
        t1, t2 = np.sort(rng.uniform(0.0, 4.0, 2))
        for alpha in (ALPHA_PLUS, ALPHA_MINUS):
            ps = circuit_probabilities(sz_obs(0), sz_obs(2), t1, t2, psi0, prop, alpha)
            assert np.all(ps >= -1e-12) and np.all(ps <= 1 + 1e-12)
            for p in ps:
                assert -2.0 <= exact_value(np.full(4, p)) <= 2.0


def test_probability_to_correlator_values():
    # Four equal P at unit norms give the per-circuit term 4P - 2 itself.
    assert exact_value(np.full(4, 0.5)) == pytest.approx(0.0)
    assert exact_value(np.full(4, 1.0)) == pytest.approx(2.0)
    assert exact_value(np.full(4, 0.0)) == pytest.approx(-2.0)
    assert exact_value([0.9, 0.5, 0.5, 0.5]) == pytest.approx(1.6 / 4)
    for shots in (None, 10):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            estimate_point([0.5, 0.5, 0.5, 1.1], 1.0, 1.0, shots, task_rng(1))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            estimate_point([-1e-9, 0.5, 0.5, 0.5], 1.0, 1.0, shots, task_rng(1))


def test_circuit_validation():
    h, prop, psi0 = setup_chain(2)
    gates = (decompose(sz_obs(0)).w, decompose(sz_obs(1)).w)
    with pytest.raises(ValueError, match="alpha"):
        run_hadamard_circuit(*gates, 0.0, 1.0, psi0, prop, 0.3)
    with pytest.raises(ValueError, match="nonnegative"):
        run_hadamard_circuit(*gates, -0.1, 1.0, psi0, prop, ALPHA_PLUS)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            run_hadamard_circuit(*gates, bad, 1.0, psi0, prop, ALPHA_PLUS)
        with pytest.raises(ValueError, match="finite"):
            run_hadamard_circuit(*gates, 0.0, bad, psi0, prop, ALPHA_PLUS)


def test_circuit_probabilities_splits_each_observable_once(monkeypatch):
    # Four circuits share one unitary pair per observable.
    real, split = hadamard.decompose, []

    def counting(obs):
        split.append(obs)
        return real(obs)

    monkeypatch.setattr(hadamard, "decompose", counting)
    h, prop, psi0 = setup_chain(2)
    a, b = sz_obs(0), sz_obs(1)
    ps = circuit_probabilities(a, b, 0.2, 1.1, psi0, prop, ALPHA_PLUS)
    assert split == [a, b]
    dec_a, dec_b = real(a), real(b)
    pairs = itertools.product((dec_a.w, dec_a.w_dagger), (dec_b.w, dec_b.w_dagger))
    for p, gates in zip(ps, pairs, strict=True):
        assert p == run_hadamard_circuit(*gates, 0.2, 1.1, psi0, prop, ALPHA_PLUS)


def test_assemble_correlator_cases():
    for shots in (None, 10):
        halves = estimate_point(np.full(4, 0.5), 1.0, 1.0, shots, task_rng(1))
        ones = estimate_point(np.full(4, 1.0), 1.0, 1.0, shots, task_rng(1))
        assert ones.value == pytest.approx(2.0)
        assert ones.std_error == 0.0
        if shots is None:
            assert halves.value == pytest.approx(0.0)
        else:
            assert (ones.shots, ones.mode, halves.shots) == (40, "sampled", 40)
        with pytest.raises(ValueError, match="per gate pair"):
            estimate_point(np.full(3, 0.5), 1.0, 1.0, shots, task_rng(1))
        with pytest.raises(ValueError, match="per gate pair"):
            estimate_point(np.full(5, 0.5), 1.0, 1.0, shots, task_rng(1))
    # Sampled: the four |0> fractions, drawn in gate-pair order, enter the
    # value with the ||A|| ||B|| / 4 prefactor and their binomial errors
    # combine in quadrature with the same prefactor.
    ps, n = (0.2, 0.4, 0.6, 0.8), 10
    est = estimate_point(ps, 2.0, 3.0, n, task_rng(4, 2))
    rng = task_rng(4, 2)
    qs = [sample_counts([(p, 1 - p)], n, [rng])[0][0] / n for p in ps]
    sigmas = [4 * np.sqrt(q * (1 - q) / n) for q in qs]
    assert est.value == pytest.approx(1.5 * sum(4 * q - 2 for q in qs))
    assert est.std_error == pytest.approx(1.5 * np.sqrt(sum(s**2 for s in sigmas)))
    assert est.std_error > 0.0


def test_sample_probability_behaviour():
    def sampled(p, shots, seed):
        # At unit norms (value + 2) / 4 is the mean |0> fraction of the four circuits.
        return (estimate_point(np.full(4, p), 1.0, 1.0, shots, task_rng(seed)).value + 2) / 4

    assert sampled(0.0, 100, seed=1) == 0.0
    assert sampled(1.0, 100, seed=1) == 1.0
    # round-off just outside [0, 1] is accepted and drawn as 0 or 1
    assert sampled(-1e-12, 100, seed=1) == 0.0
    assert sampled(1.0 + 1e-12, 100, seed=1) == 1.0
    a = sampled(0.37, 1000, seed=5)
    assert a == sampled(0.37, 1000, seed=5)
    draws = [sampled(0.5, 10_000, seed=s) for s in range(50)]
    assert abs(np.mean(draws) - 0.5) <= 5 * 0.005 / np.sqrt(50)
    with pytest.raises(ValueError, match="shots"):
        sampled(0.5, 0, seed=1)


def test_variance_model_values():
    assert variance_model([0, 1, 0, 1], 1.0, 1.0) == pytest.approx(0.0)
    assert variance_model([0.5] * 4, 1.0, 1.0) == pytest.approx(4.0)  # a priori bound
    assert variance_model([0.9, 0.1, 0.5, 0.5], 1.0, 1.0) == pytest.approx(2.72)
    assert variance_model([0.5] * 4, 2.0, 3.0) == pytest.approx(4.0 * 36.0)
    with pytest.raises(ValueError):
        variance_model([0.5, 0.5, 0.5], 1.0, 1.0)
    with pytest.raises(ValueError):
        variance_model([0.5, 0.5, 0.5, 1.2], 1.0, 1.0)


def test_equal_time_commutator_vanishes():
    h, prop, psi0 = setup_chain(3)
    # same observable on the same site
    _, minus_same = measure_dynamical_correlator(sz_obs(1), sz_obs(1), 0.8, 0.8, psi0, prop)
    assert abs(minus_same.value) <= 1e-10
    # commuting observables on distinct sites
    _, minus_distinct = measure_dynamical_correlator(sz_obs(0), sz_obs(2), 0.8, 0.8, psi0, prop)
    assert abs(minus_distinct.value) <= 1e-10


def test_time_swap_symmetry_of_assembled_correlators():
    h, prop, psi0 = setup_chain(3)
    t1, t2 = 0.4, 1.3
    plus_ab, minus_ab = measure_dynamical_correlator(sz_obs(0), sz_obs(1), t1, t2, psi0, prop)
    plus_ba, minus_ba = measure_dynamical_correlator(sz_obs(1), sz_obs(0), t2, t1, psi0, prop)
    assert plus_ab.value == pytest.approx(plus_ba.value, abs=1e-8)
    assert minus_ab.value == pytest.approx(-minus_ba.value, abs=1e-8)


def test_conjugating_both_gate_choices_leaves_assembly_invariant():
    h, prop, psi0 = setup_chain(2)
    dec_a, dec_b = decompose(sz_obs(0)), decompose(sz_obs(1))
    pairs = list(itertools.product((dec_a.w, dec_a.w_dagger), (dec_b.w, dec_b.w_dagger)))
    for alpha in (ALPHA_PLUS, ALPHA_MINUS):
        ps = [run_hadamard_circuit(*gates, 0.2, 1.1, psi0, prop, alpha) for gates in pairs]
        # Conjugating both gates of pair k, (W or W^+) x (W or W^+), gives pair 3 - k.
        conj = [(va.dagger(), vb.dagger()) for va, vb in pairs]
        ps_flipped = [run_hadamard_circuit(*gates, 0.2, 1.1, psi0, prop, alpha) for gates in conj]
        assert ps_flipped == ps[::-1]
        assert exact_value(ps) == pytest.approx(exact_value(ps_flipped), abs=1e-12)


def test_sampled_estimator_statistics():
    h, prop, psi0 = setup_chain(2)
    ps = circuit_probabilities(sz_obs(0), sz_obs(1), 0.0, 1.5, psi0, prop, ALPHA_PLUS)
    shots = 200
    rngs = [task_rng(9, s) for s in range(400)]
    vals = estimate_from_probabilities([ps] * 400, 1.0, 1.0, shots, rngs).value
    emp = np.var(vals, ddof=1)
    model = variance_model(ps, 1.0, 1.0) / (4 * shots)
    assert emp == pytest.approx(model, rel=0.25)
    exact = estimate_point(ps, 1.0, 1.0, None)
    assert np.mean(vals) == pytest.approx(exact.value, abs=5 * np.sqrt(model / 400))


def test_exact_mode_nominal_error_bar():
    h, prop, psi0 = setup_chain(2)
    ps = circuit_probabilities(sz_obs(0), sz_obs(1), 0.0, 1.5, psi0, prop, ALPHA_PLUS)
    est = estimate_point(ps, 1.0, 1.0, None, nominal_total=400)
    assert est.mode == "exact"
    assert est.shots == 400
    assert est.std_error == pytest.approx(np.sqrt(variance_model(ps, 1.0, 1.0) / 400))


@pytest.mark.parametrize("p", [0.5, 0.3141592653589793])
def test_sampled_estimate_ignores_rounding_of_the_exact_probabilities(p):
    # A backend change moves exact probabilities by rounding only; the
    # sampled cell must not move with them (p = 1/2 is where NumPy's
    # sampler branches).
    draws = [
        estimate_point(np.full(4, p + eps), 1.0, 1.0, 2000, task_rng(3, 1))
        for eps in (-1e-15, 0.0, 1e-15)
    ]
    assert len({(d.value, d.std_error) for d in draws}) == 1


def test_a_budget_without_a_generator_is_exact_with_its_error_bars():
    h, prop, psi0 = setup_chain(3)
    a, b = sz_obs(0), sz_obs(2)
    got = measure_dynamical_correlator(a, b, 0.4, 1.1, psi0, prop, 50)
    for est, alpha in zip(got, (ALPHA_PLUS, ALPHA_MINUS)):
        ps = circuit_probabilities(a, b, 0.4, 1.1, psi0, prop, alpha)
        assert est == estimate_point(ps, 1.0, 1.0, None, nominal_total=200)
        assert est.mode == "exact" and est.shots == 200 and est.std_error > 0


@pytest.mark.parametrize("entry", ["estimate_from_probabilities", "measure_dynamical_correlator"])
def test_a_generator_without_a_budget_is_refused(entry):
    # No budget means no shots to draw: a ValueError naming the budget,
    # not a TypeError from the sampler or an exact value.
    h, prop, psi0 = setup_chain(2)
    calls = {
        "estimate_from_probabilities":
            lambda rng: estimate_from_probabilities([np.full(4, 0.5)], 1.0, 1.0, None, [rng]),
        "measure_dynamical_correlator":
            lambda rng: measure_dynamical_correlator(
                sz_obs(0), sz_obs(1), 0.0, 1.0, psi0, prop, None, rng),
    }
    with pytest.raises(ValueError, match="budget"):
        calls[entry](task_rng(3))


def test_measure_deterministic_for_fixed_stream():
    h, prop, psi0 = setup_chain(2)
    a = measure_dynamical_correlator(sz_obs(0), sz_obs(1), 0.0, 1.0, psi0, prop, 50, task_rng(3, 1))
    b = measure_dynamical_correlator(sz_obs(0), sz_obs(1), 0.0, 1.0, psi0, prop, 50, task_rng(3, 1))
    assert a[0].value == b[0].value and a[1].value == b[1].value


@pytest.mark.parametrize("state, runs", [("neel", 2), ("random", 3)])
def test_trace_probabilities_runs_one_trajectory_per_distinct_start_state(monkeypatch, state, runs):
    # One trajectory per level of A's site that psi0 occupies: the Neel
    # superposition has no m = 0 amplitude, so its two Neel states; a
    # random psi0 has all three levels.
    real, starts = hadamard.trajectory, []

    def counting(prop, psi, times, *args):
        starts.append(psi.amplitudes)
        return real(prop, psi, times, *args)

    monkeypatch.setattr(hadamard, "trajectory", counting)
    n = 4
    h, prop, psi0 = setup_chain(n)
    if state == "random":
        rng = np.random.default_rng(7)
        amp = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
        psi0 = QuditState((3,) * n, amp / np.linalg.norm(amp))
    grid = [0.0, 0.6, 1.9]
    engine = trace_probabilities(sz_obs(0), sz_obs(3), psi0, prop, grid)
    ps = list(zip(*engine[:2]))
    assert len(starts) == runs
    assert len({a.tobytes() for a in starts}) == runs
    # Every probability still matches the gate-level circuit.
    for t, (plus, minus) in zip(grid, ps):
        for alpha, got in ((ALPHA_PLUS, plus), (ALPHA_MINUS, minus)):
            want = circuit_probabilities(sz_obs(0), sz_obs(3), 0.0, t, psi0, prop, alpha)
            assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("axes", [("x", "z"), ("z", "x")], ids=["sx-a", "sx-b"])
def test_trace_probabilities_refuses_observables_other_than_sz(axes):
    # The trace reads V_A and V_B as diagonals on one site each, so S^x on
    # A or on B is refused before anything propagates, naming the need.
    h, prop, psi0 = setup_chain(3)
    obs_a, obs_b = (HermitianObservable(spin_matrix(1, ax).on(s)) for ax, s in zip(axes, (0, 2)))
    need = r"^the Hadamard trace needs A and B to be spin-1 S\^z on one site each$"
    with pytest.raises(ValueError, match=need):
        trace_probabilities(obs_a, obs_b, psi0, prop, [0.0, 1.0])

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the long workstation preset is opt-in via QUDITCORR_RUN_PRESET=1.
"""

import os
import time

import numpy as np
import pytest

from oracles import SZ1, dense_xxz, heisenberg_pair, random_hermitian, site_op
from quditcorr.benchmark import (
    RunConfig,
    brute_force_correlators,
    connected_anticommutator,
    neel_superposition,
    relative_error,
    run_quench_study,
    time_averaged_std,
)
from quditcorr.dynamics import build_xxz, make_propagator
from quditcorr.hadamard import (
    ALPHA_MINUS,
    ALPHA_PLUS,
    CorrelatorEstimate,
    circuit_probabilities,
    estimate_from_probabilities,
    measure_dynamical_correlator,
    variance_model,
)
from quditcorr.linear_response import LinearResponseConfig, measure_lr
from quditcorr.observables import (
    HermitianObservable,
    OperatorString,
    decompose,
    decompose_string,
    spin_matrix,
)
from quditcorr.register import LocalOperator
from quditcorr.rng import task_rng

MASTER_SEED = 20240521


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def sz_obs(site):
    return HermitianObservable(spin_matrix(1, "z").on(site))


def test_criterion_1_oracle_equivalence_exact_protocol():
    started = time.time()
    worst = 0.0
    rng = np.random.default_rng(MASTER_SEED)
    for n in (2, 3, 4):
        h = build_xxz(n, 1.0, 0.5)
        prop = make_propagator(h)
        psi0 = neel_superposition(n)
        hd = dense_xxz(n, 1.0, 0.5)
        a, b = site_op(n, 0, SZ1), site_op(n, 1, SZ1)
        for t2 in rng.uniform(np.nextafter(0.0, 1.0), 5.0, 20):
            plus, minus = measure_dynamical_correlator(
                sz_obs(0), sz_obs(1), 0.0, t2, psi0, prop
            )
            cp, cm = heisenberg_pair(hd, psi0.amplitudes, a, b, 0.0, t2)
            worst = max(worst, abs(plus.value - cp), abs(minus.value - cm))
    elapsed = time.time() - started
    report(
        1,
        worst <= 1e-8 and elapsed <= 30.0,
        f"N in (2,3,4) x 20 random t2: max |circuit - brute force| = {worst:.2e} "
        f"(tol 1e-8), runtime {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_2_variance_formula_matches_sampling():
    started = time.time()
    n_seeds, shots = 1000, 100
    h = build_xxz(4, 1.0, 0.5)
    prop = make_propagator(h)
    psi0 = neel_superposition(4)
    worst = 0.0
    for pi, t in enumerate(np.arange(0.5, 5.01, 0.5)):
        for ki, alpha in ((0, ALPHA_PLUS), (1, ALPHA_MINUS)):
            ps = circuit_probabilities(sz_obs(0), sz_obs(1), 0.0, t, psi0, prop, alpha)
            rngs = [task_rng(MASTER_SEED, 2, pi, ki, s) for s in range(n_seeds)]
            vals = estimate_from_probabilities([ps] * n_seeds, 1.0, 1.0, shots, rngs).value
            empirical = float(np.var(vals, ddof=1))
            model = variance_model(ps, 1.0, 1.0) / (4 * shots)
            worst = max(worst, abs(empirical - model) / model)
    elapsed = time.time() - started
    report(
        2,
        worst <= 0.15 and elapsed <= 120.0,
        f"10 points x both correlators, {n_seeds} seeds at {shots} shots/circuit: "
        f"max |empirical/model - 1| = {worst:.3f} (tol 0.15), runtime {elapsed:.1f}s "
        f"(limit 120s)",
    )


def test_criterion_3_decomposition_properties():
    started = time.time()
    rng = np.random.default_rng(MASTER_SEED + 3)
    worst_unitary = worst_recon = worst_comm = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 10))
        x = random_hermitian(rng, dim)
        dec = decompose(HermitianObservable(LocalOperator(x, (0,), hermitian=True)))
        w = dec.w.matrix
        worst_unitary = max(worst_unitary, np.max(np.abs(w.conj().T @ w - np.eye(dim))))
        worst_recon = max(worst_recon, np.max(np.abs(dec.norm / 2 * (w + w.conj().T) - x)))
        worst_comm = max(worst_comm, np.max(np.abs(w @ x - x @ w)))
    sz = spin_matrix(1, "z")
    string = OperatorString(((0, HermitianObservable(sz)), (1, HermitianObservable(sz))))
    dec = decompose_string(string)
    total = np.zeros((9, 9), dtype=complex)
    for coeff, ops in dec.terms:
        term = np.kron(ops[0].matrix, ops[1].matrix)
        total += coeff * (term + term.conj().T)
    string_err = np.max(np.abs(dec.norm / 2 * total - np.kron(SZ1, SZ1)))
    elapsed = time.time() - started
    ok = (
        worst_unitary <= 1e-10
        and worst_recon <= 1e-10
        and worst_comm <= 1e-10
        and string_err <= 1e-10
        and elapsed <= 10.0
    )
    report(
        3,
        ok,
        f"200 random Hermitians (dims 2-9): unitarity {worst_unitary:.2e}, "
        f"reconstruction {worst_recon:.2e}, commutation {worst_comm:.2e}; "
        f"2-site string reconstruction {string_err:.2e} (tol 1e-10); "
        f"runtime {elapsed:.1f}s (limit 10s)",
    )


LAMBDA_GRID = (0.05, 0.1, 0.2, 0.4)
PULSE_AREA = 1e-3


def _lr_reference_traces(n, grid):
    h = build_xxz(n, 1.0, 0.5)
    psi0 = neel_superposition(n)
    prop = make_propagator(h)
    ref_p, ref_m = [], []
    for t in grid:
        cp, cm = brute_force_correlators(h, psi0, 0, 1, 0.0, t)
        ref_p.append(cp)  # site magnetizations vanish: connected = raw
        ref_m.append(cm)
    return h, psi0, np.array(ref_p), np.array(ref_m)


def test_criterion_4_linear_response_bias_variance_tradeoff():
    started = time.time()
    grid = np.linspace(0.0, 5.0, 26)
    h, psi0, ref_p, ref_m = _lr_reference_traces(4, grid)
    budgets = {"plus": 1500, "minus": 12000}

    r_plus, r_minus, dc_plus, dc_minus = [], [], [], []
    for li, lam in enumerate(LAMBDA_GRID):
        traces = {"+": [], "-": []}
        stds = {"+": [], "-": []}
        for ti, t in enumerate(grid):
            t2 = max(t, PULSE_AREA)
            for kind, key, nominal in (
                ("non_hermitian", "+", budgets["plus"]),
                ("hermitian", "-", budgets["minus"]),
            ):
                cfg = LinearResponseConfig(lam, PULSE_AREA, 0, 1, kind)
                exact = measure_lr(cfg, 0.0, t2, psi0, h)
                samp = measure_lr(
                    cfg, 0.0, t2, psi0, h, nominal, task_rng(MASTER_SEED, 4, li, ti, ord(key))
                )
                traces[key].append(exact.value)
                stds[key].append(samp.std_error)
        r_plus.append(relative_error(traces["+"], ref_p, grid))
        r_minus.append(relative_error(traces["-"], ref_m, grid))
        dc_plus.append(time_averaged_std(stds["+"], grid))
        dc_minus.append(time_averaged_std(stds["-"], grid))

    inc_r = all(b > a for a, b in zip(r_plus, r_plus[1:])) and all(
        b > a for a, b in zip(r_minus, r_minus[1:])
    )
    dec_dc = all(b < a for a, b in zip(dc_plus, dc_plus[1:])) and all(
        b < a for a, b in zip(dc_minus, dc_minus[1:])
    )
    small_bias = r_minus[0] <= 1e-3
    elapsed = time.time() - started
    fmt = lambda xs: "[" + ", ".join(f"{x:.3e}" for x in xs) + "]"
    report(
        4,
        inc_r and dec_dc and small_bias and elapsed <= 300.0,
        f"lambda grid {LAMBDA_GRID}: R+ {fmt(r_plus)} and R- {fmt(r_minus)} "
        f"monotone increasing = {inc_r}; sampled dC+ {fmt(dc_plus)} and dC- "
        f"{fmt(dc_minus)} monotone decreasing = {dec_dc}; R-(0.05) = "
        f"{r_minus[0]:.2e} <= 1e-3 = {small_bias}; runtime {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_5_signal_to_noise_comparison():
    started = time.time()
    b = 250
    budgets = {
        "hadamard": {"plus": 6 * b, "minus": 6 * b},
        "lr": {"plus": 6 * b, "minus": 6 * b},  # 2 branches x 3b each
    }
    sums = {("hadamard", "+"): 0.0, ("hadamard", "-"): 0.0, ("lr", "+"): 0.0, ("lr", "-"): 0.0}
    n_seeds = 20
    for s in range(n_seeds):
        config = RunConfig(
            4, t_max=5.0, steps=11, shots=budgets, lambdas=(0.2,), pulse_area=PULSE_AREA,
            seed=MASTER_SEED + s, workers=None,
        )
        res = run_quench_study(config)
        for key, fom in res.figures.items():
            proto = "hadamard" if key == "hadamard" else "lr"
            sums[(proto, "+")] += fom.dc_plus / n_seeds
            sums[(proto, "-")] += fom.dc_minus / n_seeds
    ok = True
    lines = []
    for kind in ("+", "-"):
        h_dc, lr_dc = sums[("hadamard", kind)], sums[("lr", kind)]
        lines.append(f"C{kind}: mean dC hadamard {h_dc:.4f} vs lr {lr_dc:.4f}")
        if h_dc > lr_dc:
            if h_dc <= 1.1 * lr_dc:
                lines.append(f"C{kind}: within the 10% margin - tracked, not failed")
            else:
                ok = False
    elapsed = time.time() - started
    report(
        5,
        ok and elapsed <= 300.0,
        f"matched budgets ({6 * b}/point), 20 seeds, lambda=0.2: "
        + "; ".join(lines)
        + f"; runtime {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_6_equal_time_and_symmetry_invariants():
    h3 = build_xxz(3, 1.0, 0.5)
    prop3 = make_propagator(h3)
    psi3 = neel_superposition(3)
    _, minus_equal = measure_dynamical_correlator(sz_obs(0), sz_obs(2), 0.8, 0.8, psi3, prop3)

    h4 = build_xxz(4, 1.0, 0.5)
    prop4 = make_propagator(h4)
    psi4 = neel_superposition(4)
    raw_plus, _ = measure_dynamical_correlator(sz_obs(0), sz_obs(1), 0.0, 0.0, psi4, prop4)
    ea = CorrelatorEstimate(0.0, 0.0, 0, "exact")
    conn = connected_anticommutator(raw_plus, ea, ea)

    t1, t2 = 0.4, 1.3
    plus_ab, minus_ab = measure_dynamical_correlator(sz_obs(0), sz_obs(1), t1, t2, psi4, prop4)
    plus_ba, minus_ba = measure_dynamical_correlator(sz_obs(1), sz_obs(0), t2, t1, psi4, prop4)
    sym_err = max(abs(plus_ab.value - plus_ba.value), abs(minus_ab.value + minus_ba.value))

    ok = abs(minus_equal.value) <= 1e-10 and abs(conn.value + 2.0) <= 1e-10 and sym_err <= 1e-8
    report(
        6,
        ok,
        f"equal-time commutator on distinct sites {abs(minus_equal.value):.2e} (tol 1e-10); "
        f"connected equal-time anti-commutator {conn.value:+.12f} vs -2 "
        f"({abs(conn.value + 2):.2e}, tol 1e-10); time-swap symmetry error {sym_err:.2e} "
        f"(tol 1e-8)",
    )


@pytest.mark.preset
@pytest.mark.skipif(
    os.environ.get("QUDITCORR_RUN_PRESET") != "1",
    reason="workstation preset; enable with QUDITCORR_RUN_PRESET=1",
)
def test_criterion_7_full_chain_preset():
    started = time.time()
    config = RunConfig(
        10,
        t_max=5.0,
        steps=26,
        shots={"hadamard": {"plus": 1500, "minus": 8000}, "lr": {"plus": 1500, "minus": 12000}},
        lambdas=(0.2,),
        pulse_area=PULSE_AREA,
        seed=MASTER_SEED,
    )
    res = run_quench_study(config)
    worst = 0.0
    for row in res.rows:
        if row.sampled is None or row.std_error == 0.0:
            continue
        pulls = abs(row.sampled - row.exact) / row.std_error
        worst = max(worst, pulls)
    elapsed = time.time() - started
    report(
        7,
        worst <= 5.0 and elapsed <= 7200.0,
        f"N=10 preset: max |sampled - exact| / stderr = {worst:.2f} (limit 5); "
        f"runtime {elapsed / 60:.1f} min (limit 120 min)",
    )

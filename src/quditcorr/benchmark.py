"""Quench scenario and figure-of-merit machinery.

The benchmark initializes a spin-1 chain in the symmetric superposition
of the two Neel product states (the J_z/J_xy -> infinity ground-state
doublet), quenches to J_z/J_xy = 0.5, and tracks the connected
anti-commutator and the commutator of S^z on a pair of sites over a
time grid, measured both through the ancilla circuits and through the
pulsed-perturbation baseline.

Reported per protocol:

    R  = int |est(t) - ref(t)|^2 dt / int |ref(t)|^2 dt   (systematic)
    dC = (1/t) int std(0, t') dt'                          (statistical)

with trapezoidal quadrature on the study grid.  The reference trace is
the dense brute-force correlator whenever the dimension allows it, and
the exact circuit trace otherwise (the circuit protocol is exact up to
shot noise, so the two coincide to rounding).  The dense reference
diagonalizes H once per study and applies U(t) = V e^{-iEt} V^+ to
vectors only: with z = <U(t) A psi | B U(t) psi> = <A B(t)>, the
anti-commutator is 2 Re z and the commutator i<[A, B(t)]> is -2 Im z.
An R whose reference trace vanishes while the estimate does not is
undefined; it is reported as None with the reason alongside.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    NON_HERMITIAN,
    SparseHamiltonian,
    build_xxz,
    evolve,
    make_propagator,
    site_sz_diagonal,
)
from .hadamard import (
    ALPHA_MINUS,
    ALPHA_PLUS,
    EXACT,
    SAMPLED,
    CorrelatorEstimate,
    circuit_probabilities,
    estimate_from_probabilities,
)
from .linear_response import LinearResponseConfig, _sampled_mean, measure_lr
from .observables import HermitianObservable, spin_matrix
from .register import LocalOperator, QuditState, RegisterShape, expectation
from .rng import task_rng

HADAMARD = "hadamard"
LINEAR_RESPONSE = "lr"

# Per-point defaults mirror the published shot budgets: the
# anti-commutator needs six expectation values (four circuits plus the
# two disconnected-part means), the commutator four circuits; the
# baseline splits each point over its two branches.
DEFAULT_BUDGETS = {
    HADAMARD: {"plus": 1500, "minus": 8000},
    LINEAR_RESPONSE: {"plus": 1500, "minus": 12000},
}


@dataclass(frozen=True)
class QuenchScenario:
    """Chain size, couplings, site pair (1-based) and time grid (units 1/J_xy)."""

    n_sites: int
    time_grid: tuple[float, ...]
    j_z_over_j_xy: float = 0.5
    sites: tuple[int, int] = (1, 2)
    seed: int = 0

    def __post_init__(self):
        grid = tuple(float(t) for t in self.time_grid)
        object.__setattr__(self, "time_grid", grid)
        if self.n_sites < 2:
            raise ValueError("scenario needs at least 2 sites")
        if not grid or grid[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("time grid must be strictly increasing")
        i, j = self.sites
        if i == j:
            raise ValueError("correlator sites must be distinct")
        for s in self.sites:
            if not 1 <= s <= self.n_sites:
                raise ValueError(f"site {s} outside 1..{self.n_sites}")


@dataclass(frozen=True)
class FigureOfMerit:
    """R and dC of one protocol; an undefined R is None, with its reason."""

    r_plus: float | None
    r_minus: float | None
    dc_plus: float
    dc_minus: float
    r_plus_reason: str | None = None
    r_minus_reason: str | None = None

    def __post_init__(self):
        for name in ("r_plus", "r_minus", "dc_plus", "dc_minus"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        for name in ("r_plus", "r_minus"):
            if (getattr(self, name) is None) != (getattr(self, name + "_reason") is not None):
                raise ValueError(f"{name} needs a reason exactly when it is undefined")


@dataclass(frozen=True)
class StudyRow:
    """One (protocol, correlator kind, time, lambda) record."""

    protocol: str
    kind: str  # "+" | "-"
    t: float
    lam: float | None
    exact: float
    sampled: float | None
    std_error: float
    shots: int
    seed: int


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[StudyRow, ...]
    figures: dict[str, FigureOfMerit]


def neel_superposition(n_sites: int) -> QuditState:
    """(|+1,-1,+1,...> + |-1,+1,-1,...>)/sqrt(2) in the S^z product basis."""
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    shape = RegisterShape((3,) * n_sites)
    idx_a = idx_b = 0
    for k in range(n_sites):
        idx_a = idx_a * 3 + (0 if k % 2 == 0 else 2)
        idx_b = idx_b * 3 + (2 if k % 2 == 0 else 0)
    amp = np.zeros(shape.size, dtype=np.complex128)
    amp[idx_a] = amp[idx_b] = 1.0 / math.sqrt(2)
    return QuditState(shape, amp)


def connected_anticommutator(
    raw: CorrelatorEstimate, exp_a: CorrelatorEstimate, exp_b: CorrelatorEstimate
) -> CorrelatorEstimate:
    """raw - 2 <A(t1)><B(t2)>, errors propagated to first order."""
    value = raw.value - 2.0 * exp_a.value * exp_b.value
    var = (
        raw.std_error**2
        + 4.0 * (exp_b.value * exp_a.std_error) ** 2
        + 4.0 * (exp_a.value * exp_b.std_error) ** 2
    )
    shots = raw.shots + exp_a.shots + exp_b.shots
    mode = EXACT if all(e.mode == EXACT for e in (raw, exp_a, exp_b)) else SAMPLED
    return CorrelatorEstimate(value, math.sqrt(var), shots, mode)


def relative_error(trace_est, trace_ref, grid) -> float:
    """Quadratic relative deviation of a trace from its reference."""
    est = np.asarray(trace_est, dtype=float)
    ref = np.asarray(trace_ref, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if est.shape != ref.shape or est.shape != grid.shape:
        raise ValueError("traces and grid must share one time grid")
    if grid.size < 2:
        raise ValueError("need at least two grid points to integrate")
    denom = float(np.trapezoid(ref**2, grid))
    if denom == 0.0:
        raise ZeroDivisionError("reference trace is identically zero on the grid")
    num = float(np.trapezoid((est - ref) ** 2, grid))
    return num / denom


def time_averaged_std(std_trace, grid) -> float:
    """(1/t) int std dt' over the grid (trapezoidal)."""
    std = np.asarray(std_trace, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if std.shape != grid.shape:
        raise ValueError("trace and grid must share one time grid")
    if grid.size < 2:
        raise ValueError("need at least two grid points to average")
    span = grid[-1] - grid[0]
    return float(np.trapezoid(std, grid)) / span


def measure_site_expectation(
    prop, psi0: QuditState, site: int, t: float, shots: int | None = None, rng=None
) -> CorrelatorEstimate:
    """<S_site^z(t)>, exact or from a projective multinomial sample."""
    state = evolve(prop, psi0, t)
    sz = spin_matrix(1, "z").on(site)
    if shots is None:
        val = float(expectation(state, sz).real) / state.squared_norm
        return CorrelatorEstimate(val, 0.0, 0, EXACT)
    values = np.real(np.diag(sz.matrix))
    mean, var = _sampled_mean(state, site, values, shots, rng)
    return CorrelatorEstimate(mean, math.sqrt(var), shots, SAMPLED)


def brute_force_correlators(
    h: SparseHamiltonian, psi0: QuditState, site_a: int, site_b: int, t1: float, t2: float
) -> tuple[float, float]:
    """Dense Heisenberg-picture (anti-)commutator, for reference traces."""
    ((anti, comm, _, _),) = _dense_correlators(h, psi0, site_a, site_b, [(t1, t2)])
    return anti, comm


def reference_trace(
    h: SparseHamiltonian, psi0: QuditState, site_a: int, site_b: int, grid
) -> tuple[np.ndarray, np.ndarray]:
    """Connected C+(0, t) and C-(0, t) on a time grid, from one dense eigh."""
    points = _dense_correlators(h, psi0, site_a, site_b, [(0.0, float(t)) for t in grid])
    plus = np.array([cp - 2.0 * ea * eb for cp, _, ea, eb in points])
    minus = np.array([cm for _, cm, _, _ in points])
    return plus, minus


def _dense_correlators(h, psi0, site_a, site_b, time_pairs):
    """(<{A(t1), B(t2)}>, i<[A(t1), B(t2)]>, <A(t1)>, <B(t2)>) per (t1, t2).

    A = S^z_a and B = S^z_b.  H is diagonalized once and
    U(t) = V e^{-iEt} V^+ is applied to vectors only.  With
    z = <A(t1) B(t2)> = <U(t2 - t1) A U(t1) psi | B U(t2) psi>, the
    anti-commutator is 2 Re z and the commutator -2 Im z.
    """
    if h.dimension > 4096:
        raise ValueError("brute-force reference limited to dimension 4096")
    vals, vecs = np.linalg.eigh(h.matrix.toarray())
    a = site_sz_diagonal(h.n_sites, site_a)
    b = site_sz_diagonal(h.n_sites, site_b)
    psi = psi0.amplitudes

    def u(t, v):
        if t == 0.0:
            return v
        coeff = (vecs.T @ v.conj()).conj()  # V^+ v without copying V^+
        return vecs @ (np.exp(-1j * vals * t) * coeff)

    out = []
    for t1, t2 in time_pairs:
        phi1, phi2 = u(t1, psi), u(t2, psi)
        z = np.vdot(u(t2 - t1, a * phi1), b * phi2)
        mean_a = np.vdot(phi1, a * phi1).real
        mean_b = np.vdot(phi2, b * phi2).real
        out.append((2.0 * float(z.real), -2.0 * float(z.imag), float(mean_a), float(mean_b)))
    return out


def _hadamard_point(
    obs_a,
    obs_b,
    t,
    psi0,
    prop,
    budgets,
    sampled: bool,
    rng,
):
    """Both correlator estimates (exact and optionally sampled) at C(0, t)."""
    na, nb = obs_a.spectral_norm, obs_b.spectral_norm
    site_a, site_b = obs_a.support[0], obs_b.support[0]
    ps_plus = circuit_probabilities(obs_a, obs_b, 0.0, t, psi0, prop, ALPHA_PLUS)
    ps_minus = circuit_probabilities(obs_a, obs_b, 0.0, t, psi0, prop, ALPHA_MINUS)

    n_plus = max(1, budgets["plus"] // 6)  # 4 circuits + 2 disconnected means
    n_minus = max(1, budgets["minus"] // 4)

    exact_a = measure_site_expectation(prop, psi0, site_a, 0.0)
    exact_b = measure_site_expectation(prop, psi0, site_b, t)
    raw_plus = estimate_from_probabilities(ps_plus, na, nb, None, None, 4 * n_plus)
    exact_plus = connected_anticommutator(raw_plus, exact_a, exact_b)
    exact_minus = estimate_from_probabilities(ps_minus, na, nb, None, None, 4 * n_minus)

    if not sampled:
        return exact_plus, exact_minus, None, None

    raw_hat = estimate_from_probabilities(ps_plus, na, nb, n_plus, rng)
    exp_a_hat = measure_site_expectation(prop, psi0, site_a, 0.0, n_plus, rng)
    exp_b_hat = measure_site_expectation(prop, psi0, site_b, t, n_plus, rng)
    samp_plus = connected_anticommutator(raw_hat, exp_a_hat, exp_b_hat)
    samp_minus = estimate_from_probabilities(ps_minus, na, nb, n_minus, rng)
    return exact_plus, exact_minus, samp_plus, samp_minus


def _lr_point(config, t, psi0, h0, prop, budgets, sampled, rng):
    """LR estimates at C(0, t); the pulse window clamps t2 to >= dt."""
    dt = config.pulse_area / h0.j_xy
    t2 = max(t, dt)
    budget_key = "minus" if config.kind != NON_HERMITIAN else "plus"
    nominal = budgets[budget_key]

    def prop_factory(h):  # measure_lr asks only for the propagator of h0
        return prop

    exact = measure_lr(
        config, 0.0, t2, psi0, h0, None, None, prop_factory, nominal_budget=nominal
    )
    if not sampled:
        return exact, None
    samp = measure_lr(config, 0.0, t2, psi0, h0, nominal, rng, prop_factory)
    return exact, samp


def default_workers(n_tasks: int) -> int:
    """One worker per CPU this process may run on, but no more than tasks."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


def run_quench_study(
    scenario: QuenchScenario,
    protocols=(HADAMARD, LINEAR_RESPONSE),
    budgets=None,
    lambdas=(0.2,),
    pulse_area: float = 1e-3,
    sampled: bool = True,
    workers: int | None = None,
) -> StudyResult:
    """Full study: per (protocol, kind, lambda, t) records plus figures of merit.

    Deterministic for a fixed scenario seed under any worker count:
    every point draws from its own counter-based stream and the result
    table is assembled by a key-ordered reduction.  workers=None uses
    default_workers.  One propagator of H0 serves every point.
    """
    for p in protocols:
        if p not in (HADAMARD, LINEAR_RESPONSE):
            raise ValueError(f"unknown protocol {p!r}")
    budgets = dict(DEFAULT_BUDGETS if budgets is None else budgets)

    j_xy = 1.0
    h0 = build_xxz(scenario.n_sites, j_xy, scenario.j_z_over_j_xy * j_xy)
    psi0 = neel_superposition(scenario.n_sites)
    site_a, site_b = scenario.sites[0] - 1, scenario.sites[1] - 1
    obs_a = HermitianObservable(spin_matrix(1, "z").on(site_a))
    obs_b = HermitianObservable(spin_matrix(1, "z").on(site_b))
    prop = make_propagator(h0)

    grid = np.asarray(scenario.time_grid)
    tasks = []  # (sort_key, callable) -> rows come back keyed

    if HADAMARD in protocols:
        for ti, t in enumerate(grid):
            rng = task_rng(scenario.seed, 1, ti)
            tasks.append(
                (
                    (HADAMARD, None, ti),
                    lambda t=t, rng=rng: _hadamard_point(
                        obs_a, obs_b, t, psi0, prop, budgets[HADAMARD], sampled, rng
                    ),
                )
            )
    if LINEAR_RESPONSE in protocols:
        for li, lam in enumerate(lambdas):
            for ti, t in enumerate(grid):
                cfg_m = LinearResponseConfig(lam, pulse_area, site_a, site_b, "hermitian")
                cfg_p = LinearResponseConfig(lam, pulse_area, site_a, site_b, NON_HERMITIAN)
                rng_m = task_rng(scenario.seed, 2, li, ti, 1)
                rng_p = task_rng(scenario.seed, 2, li, ti, 2)
                tasks.append(
                    (
                        (LINEAR_RESPONSE, lam, ti),
                        lambda cfg_m=cfg_m, cfg_p=cfg_p, t=t, rng_m=rng_m, rng_p=rng_p: (
                            _lr_point(cfg_p, t, psi0, h0, prop, budgets[LINEAR_RESPONSE], sampled, rng_p),
                            _lr_point(cfg_m, t, psi0, h0, prop, budgets[LINEAR_RESPONSE], sampled, rng_m),
                        ),
                    )
                )

    results = {}
    if workers is None:
        workers = default_workers(len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(fn): key for key, fn in tasks}
            for fut, key in futures.items():
                results[key] = fut.result()
    else:
        for key, fn in tasks:
            results[key] = fn()

    rows: list[StudyRow] = []
    figures: dict[str, FigureOfMerit] = {}

    reference = None
    if h0.dimension <= 4096:
        reference = reference_trace(h0, psi0, site_a, site_b, grid)

    def fom(est_plus, est_minus, std_plus, std_minus, ref):
        if grid.size < 2:
            return FigureOfMerit(0.0, 0.0, float(std_plus[0]), float(std_minus[0]))
        if ref is None:
            r_p, why_p, r_m, why_m = 0.0, None, 0.0, None
        else:
            r_p, why_p = _safe_relative_error(est_plus, ref[0], grid, "C+")
            r_m, why_m = _safe_relative_error(est_minus, ref[1], grid, "C-")
        return FigureOfMerit(
            r_p,
            r_m,
            time_averaged_std(std_plus, grid),
            time_averaged_std(std_minus, grid),
            why_p,
            why_m,
        )

    if HADAMARD in protocols:
        pts = [results[(HADAMARD, None, ti)] for ti in range(grid.size)]
        for kind, slot in (("+", 0), ("-", 1)):
            for ti, t in enumerate(grid):
                exact = pts[ti][slot]
                samp = pts[ti][slot + 2]
                rows.append(
                    StudyRow(
                        HADAMARD,
                        kind,
                        float(t),
                        None,
                        exact.value,
                        None if samp is None else samp.value,
                        (exact if samp is None else samp).std_error,
                        (exact if samp is None else samp).shots,
                        scenario.seed,
                    )
                )
        figures[HADAMARD] = fom(
            np.array([p[0].value for p in pts]),
            np.array([p[1].value for p in pts]),
            np.array([(p[0] if p[2] is None else p[2]).std_error for p in pts]),
            np.array([(p[1] if p[3] is None else p[3]).std_error for p in pts]),
            reference,
        )
        if reference is None:
            # The exact circuit trace is itself the reference elsewhere.
            reference = (
                np.array([p[0].value for p in pts]),
                np.array([p[1].value for p in pts]),
            )

    if LINEAR_RESPONSE in protocols:
        for li, lam in enumerate(lambdas):
            pts = [results[(LINEAR_RESPONSE, lam, ti)] for ti in range(grid.size)]
            for kind, slot in (("+", 0), ("-", 1)):
                for ti, t in enumerate(grid):
                    exact, samp = pts[ti][slot]
                    rows.append(
                        StudyRow(
                            LINEAR_RESPONSE,
                            kind,
                            float(t),
                            float(lam),
                            exact.value,
                            None if samp is None else samp.value,
                            (exact if samp is None else samp).std_error,
                            (exact if samp is None else samp).shots,
                            scenario.seed,
                        )
                    )
            figures[f"{LINEAR_RESPONSE}:lambda={lam:g}"] = fom(
                np.array([p[0][0].value for p in pts]),
                np.array([p[1][0].value for p in pts]),
                np.array([(p[0][0] if p[0][1] is None else p[0][1]).std_error for p in pts]),
                np.array([(p[1][0] if p[1][1] is None else p[1][1]).std_error for p in pts]),
                reference,
            )

    return StudyResult(tuple(rows), figures)


def _safe_relative_error(est, ref, grid, label: str) -> tuple[float | None, str | None]:
    """(R, None), or (None, reason) when R is undefined."""
    # Odd chains have identically vanishing C-(0, t) for adjacent sites;
    # a sub-rounding reference makes the ratio meaningless, so report 0
    # when the estimate vanishes too and leave R undefined otherwise.
    if float(np.trapezoid(np.asarray(ref) ** 2, grid)) < 1e-24:
        if np.allclose(est, ref, atol=1e-10):
            return 0.0, None
        return None, f"reference {label} trace vanishes on the grid but the estimate does not"
    return relative_error(est, ref, grid), None

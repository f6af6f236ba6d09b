"""The quench study, described by one RunConfig, and its figures of merit.

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
the exact Hadamard trace, computed with the study's one propagator of
H0 (the circuit protocol is exact up to shot noise), so a study
factorizes the blocks of H once and the Hadamard R compares its exact
trace with itself.  Each trace is one task: every grid point of it comes
from a few streamed trajectories (dynamics.trajectory), not from a
simulation started at t = 0.  brute_force_correlators, the dense oracle
of `quditcorr validate`, diagonalizes H on its own.
An R whose reference trace vanishes while the estimate does not is
undefined; it is reported as None with the reason alongside.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    HERMITIAN,
    NON_HERMITIAN,
    SparseHamiltonian,
    build_xxz,
    make_propagator,
    site_sz_diagonal,
)
from .hadamard import (
    EXACT,
    SAMPLED,
    CorrelatorEstimate,
    estimate_from_probabilities,
    squared,
    trace_probabilities,
)
from .linear_response import (
    LinearResponseConfig,
    lr_trace,
    measure_site_expectation,  # noqa: F401 -- perfbench/tracing.py times it under this module
    site_expectations,
    unperturbed_readout,
)
from .observables import HermitianObservable, spin_matrix
from .register import QuditState, RegisterShape, site_marginal
from .rng import task_rng

log = logging.getLogger(__name__)

HADAMARD = "hadamard"
LINEAR_RESPONSE = "lr"
PROTOCOLS = (HADAMARD, LINEAR_RESPONSE)

# Memory bound of the dense oracle (H and its eigenvectors), not a speed choice.
ORACLE_DIM_LIMIT = 4096

# Per-point defaults mirror the published shot budgets: the
# anti-commutator needs six expectation values (four circuits plus the
# two disconnected-part means), the commutator four circuits; the
# baseline splits each point over its two branches.
DEFAULT_BUDGETS = {
    HADAMARD: {"plus": 1500, "minus": 8000},
    LINEAR_RESPONSE: {"plus": 1500, "minus": 12000},
}


class ConfigError(ValueError):
    pass


class _ReadOnlyDict(dict):
    """A dict that refuses changes and hashes by content: RunConfig's checked budgets."""

    def __hash__(self):
        return hash(tuple(sorted(self.items())))

    def __reduce__(self):
        return type(self), (dict(self),)

    def _read_only(self, *args, **kwargs):
        raise TypeError("the budgets of a RunConfig are read-only; use dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only


def _expect(cond: bool, field: str, message: str):
    if not cond:
        raise ConfigError(f"invalid config field '{field}': {message}")


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass in Python, but not one in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, field: str) -> float:
    _expect(_is_int(value) or isinstance(value, float), field, f"expected a number, got {value!r}")
    # NaN fails the comparison, and so do the infinities and an int too large for a float.
    _expect(abs(value) <= sys.float_info.max, field, f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value, field: str) -> int:
    _expect(_is_int(value), field, f"expected an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """One quench study, checked on construction; every bad value is a ConfigError naming its field.

    Chain length and anisotropy of H0, the time grid linspace(0, t_max,
    steps) in units of 1/J_xy, the correlator site pair (1-based), the
    per-point shot budgets (missing entries take DEFAULT_BUDGETS), the
    LR pulse strengths and area, the master seed and the pool size
    (None: default_workers).  Types are checked, not coerced, except
    that integers pass as numbers; lists pass as tuples and the budgets
    as read-only mappings, so a checked config is immutable and hashable.
    """

    n_sites: int = 4
    j_z_over_j_xy: float = 0.5
    t_max: float = 5.0
    steps: int = 26
    sites: tuple[int, int] = (1, 2)
    protocols: tuple[str, ...] = PROTOCOLS
    shots: dict = dataclasses.field(default_factory=dict)
    exact_only: bool = False
    lambdas: tuple[float, ...] = (0.2,)
    pulse_area: float = 1e-3
    seed: int = 1234
    workers: int | None = None

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        _expect(_integer(self.n_sites, "n_sites") >= 2, "n_sites", "need at least 2 sites")
        put("j_z_over_j_xy", _number(self.j_z_over_j_xy, "j_z_over_j_xy"))
        put("t_max", _number(self.t_max, "t_max"))
        _expect(self.t_max > 0, "t_max", "must be positive")
        _expect(_integer(self.steps, "steps") >= 1, "steps", "must be at least 1")
        sites = self.sites
        _expect(
            isinstance(sites, (list, tuple)) and len(sites) == 2 and all(map(_is_int, sites)),
            "sites",
            "expected a pair of 1-based site indices",
        )
        _expect(sites[0] != sites[1], "sites", f"correlator sites must be distinct, got {sites}")
        for s in sites:
            _expect(1 <= s <= self.n_sites, "sites", f"site {s} outside 1..{self.n_sites}")
        put("sites", tuple(sites))
        protocols = self.protocols
        _expect(isinstance(protocols, (list, tuple)) and protocols, "protocols", "nonempty list")
        for p in protocols:
            _expect(p in PROTOCOLS, "protocols", f"unknown protocol {p!r}")
        put("protocols", tuple(protocols))
        shots = {} if self.shots is None else self.shots
        _expect(isinstance(shots, dict), "shots", "expected a mapping")
        budgets = {p: dict(b) for p, b in DEFAULT_BUDGETS.items()}
        for proto, per in shots.items():
            _expect(proto in PROTOCOLS, "shots", f"unknown protocol {proto!r}")
            _expect(isinstance(per, dict), "shots", "per-protocol budgets must be a mapping")
            for kind, n in per.items():
                _expect(kind in ("plus", "minus"), "shots", f"unknown kind {kind!r}")
                _expect(_is_int(n) and n >= 2, "shots", "per-point budgets must be integers >= 2")
                budgets[proto][kind] = n
        put("shots", _ReadOnlyDict((p, _ReadOnlyDict(b)) for p, b in budgets.items()))
        _expect(isinstance(self.exact_only, bool), "exact_only", "expected true or false")
        lambdas = self.lambdas
        _expect(isinstance(lambdas, (list, tuple)) and lambdas, "lambdas", "nonempty list")
        for lam in lambdas:
            _expect(_number(lam, "lambdas") > 0, "lambdas", f"must be positive, got {lam!r}")
        put("lambdas", tuple(float(lam) for lam in lambdas))
        put("pulse_area", _number(self.pulse_area, "pulse_area"))
        _expect(self.pulse_area > 0, "pulse_area", "must be positive")
        _integer(self.seed, "seed")
        workers = self.workers
        valid = workers is None or _is_int(workers) and workers >= 1
        _expect(valid, "workers", "must be null or >= 1")


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


def quench_system(config: RunConfig):
    """(prop, psi0, obs_a, obs_b), the study's system; the one place that builds it.

    prop propagates H0 at J_xy = 1 and the config's anisotropy, psi0 is the
    Neel superposition, and the observables are S^z on the config's sites.
    """
    prop = make_propagator(build_xxz(config.n_sites, 1.0, config.j_z_over_j_xy))
    obs_a, obs_b = (HermitianObservable(spin_matrix(1, "z").on(s - 1)) for s in config.sites)
    return prop, neel_superposition(config.n_sites), obs_a, obs_b


def connected_anticommutator(
    raw: CorrelatorEstimate, exp_a: CorrelatorEstimate, exp_b: CorrelatorEstimate
) -> CorrelatorEstimate:
    """raw - 2 <A(t1)><B(t2)>, errors propagated to first order; scalars or arrays over T points."""
    value = raw.value - 2.0 * exp_a.value * exp_b.value
    var = (
        squared(raw.std_error)
        + 4.0 * squared(exp_b.value * exp_a.std_error)
        + 4.0 * squared(exp_a.value * exp_b.std_error)
    )
    shots = raw.shots + exp_a.shots + exp_b.shots
    mode = EXACT if all(e.mode == EXACT for e in (raw, exp_a, exp_b)) else SAMPLED
    return CorrelatorEstimate(value, np.sqrt(var), shots, mode)


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


def brute_force_correlators(
    h: SparseHamiltonian, psi0: QuditState, site_a: int, site_b: int, t1: float, t2: float
) -> tuple[float, float]:
    """Dense Heisenberg-picture <{A(t1), B(t2)}> and i<[A(t1), B(t2)]>, the oracle of validate.

    A = S^z_a and B = S^z_b.  H is diagonalized here, independently of
    any Propagator, and U(t) = V e^{-iEt} V^+ is applied to vectors
    only.  With z = <A(t1) B(t2)> = <U(t2 - t1) A U(t1) psi | B U(t2) psi>,
    the anti-commutator is 2 Re z and the commutator -2 Im z.
    """
    if h.dimension > ORACLE_DIM_LIMIT:
        raise ValueError(f"brute-force reference limited to dimension {ORACLE_DIM_LIMIT}")
    vals, vecs = np.linalg.eigh(h.matrix.toarray())
    a = site_sz_diagonal(h.n_sites, site_a)
    b = site_sz_diagonal(h.n_sites, site_b)

    def u(t, v):
        coeff = (vecs.T @ v.conj()).conj()  # V^+ v without copying V^+
        return vecs @ (np.exp(-1j * vals * t) * coeff)

    phi1 = u(t1, psi0.amplitudes)
    z = np.vdot(u(t2 - t1, a * phi1), b * u(t2, psi0.amplitudes))
    return 2.0 * float(z.real), -2.0 * float(z.imag)


def hadamard_trace(
    obs_a: HermitianObservable,
    obs_b: HermitianObservable,
    psi0: QuditState,
    prop,
    grid,
    budgets,
    sampled: bool,
    seed: int,
):
    """Hadamard estimates of C(0, t) on the grid, from one trace_probabilities pass.

    Returns the C+ (connected) and the C- trace, each a list of
    (exact, sampled or None) per time.  The circuit probabilities and
    the readout marginals of the whole grid go through the estimators at
    once.  The point at grid index ti draws from task_rng(seed, 1, ti):
    the four C+ circuits, then the two disconnected-part means, then the
    four C- circuits, each set in one sample_counts call.
    """
    na, nb = obs_a.spectral_norm, obs_b.spectral_norm
    site_a, site_b = obs_a.support[0], obs_b.support[0]
    n_plus = max(1, budgets["plus"] // 6)  # 4 circuits + 2 disconnected means
    n_minus = max(1, budgets["minus"] // 4)
    ps_plus, ps_minus, marginals = [], [], []
    marginal_a = site_marginal(psi0, site_a)
    for p_plus, p_minus, phi in trace_probabilities(obs_a, obs_b, psi0, prop, grid):
        ps_plus.append(p_plus)
        ps_minus.append(p_minus)
        marginals.append((marginal_a, site_marginal(phi, site_b)))  # <A> at t1 = 0, <B> at t
    exact_plus = connected_anticommutator(
        estimate_from_probabilities(ps_plus, na, nb, None, None, 4 * n_plus),
        *site_expectations(marginals),
    ).points()
    exact_minus = estimate_from_probabilities(ps_minus, na, nb, None, None, 4 * n_minus).points()
    samp_plus = samp_minus = [None] * len(exact_plus)
    if sampled:
        rngs = [task_rng(seed, 1, ti) for ti in range(len(exact_plus))]
        raw_hat = estimate_from_probabilities(ps_plus, na, nb, n_plus, rngs)
        samp_plus = connected_anticommutator(
            raw_hat, *site_expectations(marginals, n_plus, rngs)
        ).points()
        samp_minus = estimate_from_probabilities(ps_minus, na, nb, n_minus, rngs).points()
    return list(zip(exact_plus, samp_plus)), list(zip(exact_minus, samp_minus))


class StudyInterrupted(KeyboardInterrupt):
    """An interrupt during the traces; result holds the rows of the completed ones."""

    def __init__(self, result: StudyResult):
        super().__init__("study interrupted")
        self.result = result


def default_workers(n_tasks: int) -> int:
    """One worker per CPU this process may run on, but no more than tasks."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


def _run_tasks(tasks, workers: int, results: dict) -> None:
    """Store the result of every (key, fn) task in results under its key.

    On an interrupt, pending tasks are cancelled and running ones
    finish, so results holds whole traces when the interrupt propagates.
    Tasks run on pool threads at any worker count, and none starts before
    all are submitted, so the pool waits for every trace that started.
    """
    submitted = threading.Event()

    def run(key, fn):
        results[key] = fn()

    with ThreadPoolExecutor(max_workers=workers, initializer=submitted.wait) as pool:
        try:
            futures = [pool.submit(run, key, fn) for key, fn in tasks]
            submitted.set()
            for fut in futures:
                fut.result()
        except KeyboardInterrupt:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        finally:
            submitted.set()  # a worker still held at the gate could never be joined


def run_quench_study(config: RunConfig) -> StudyResult:
    """Full study: per (protocol, kind, lambda, t) records plus figures of merit.

    One task per trace: the Hadamard trace (run exactly, as the R
    reference, when only the baseline is requested) and one LR trace
    per lambda; the first LR task to run computes the unpulsed readout
    that all of them share.
    Deterministic for a fixed config seed under any worker count:
    every point draws from its own counter-based stream and the result
    table is assembled by a key-ordered reduction.  One propagator of
    H0 serves every trace.

    On KeyboardInterrupt, pending traces are cancelled and
    StudyInterrupted is raised; its result has the rows of the
    completed traces, in the usual order, and no figures.
    """
    protocols, lambdas, budgets = config.protocols, config.lambdas, config.shots
    pulse_area, seed, sampled = config.pulse_area, config.seed, not config.exact_only

    prop, psi0, obs_a, obs_b = quench_system(config)
    site_a, site_b = obs_a.support[0], obs_b.support[0]
    if log.isEnabledFor(logging.INFO):
        touched = ", ".join(f"{b.index.size} ({b.strategy})" for b in prop.blocks_touched(psi0))
        log.info("H0 has %d blocks; psi0 touches dimension %s", len(prop.blocks), touched)
    grid = np.linspace(0.0, config.t_max, config.steps)

    tasks = [
        (
            (HADAMARD, None),
            lambda: hadamard_trace(
                obs_a, obs_b, psi0, prop, grid, budgets[HADAMARD],
                sampled and HADAMARD in protocols, seed,
            ),
        )
    ]
    if LINEAR_RESPONSE in protocols:
        lr_budgets = budgets[LINEAR_RESPONSE]
        readout, lock = [], threading.Lock()  # the unpulsed readout all LR traces share

        def lr_task(li, lam):
            with lock:  # the first LR task to run computes it
                readout[:] = readout or [unperturbed_readout(prop, psi0, site_b, pulse_area, grid)]
            traces = []
            for stream, kind, key in ((2, NON_HERMITIAN, "plus"), (1, HERMITIAN, "minus")):
                cfg = LinearResponseConfig(lam, pulse_area, site_a, site_b, kind)
                rngs = None
                if sampled:
                    rngs = [task_rng(seed, 2, li, ti, stream) for ti in range(grid.size)]
                traces.append(lr_trace(cfg, psi0, prop, grid, readout[0], lr_budgets[key], rngs))
            return traces

        for li, lam in enumerate(lambdas):
            tasks.append(((LINEAR_RESPONSE, lam), lambda li=li, lam=lam: lr_task(li, lam)))

    # Every trace is (C+ points, C- points), each point (exact, sampled or None).
    reported = [(HADAMARD, None)] if HADAMARD in protocols else []
    if LINEAR_RESPONSE in protocols:
        reported += [(LINEAR_RESPONSE, lam) for lam in lambdas]
    workers = default_workers(len(tasks)) if config.workers is None else config.workers
    traces = {}
    try:
        _run_tasks(tasks, workers, traces)
    except KeyboardInterrupt:
        raise StudyInterrupted(StudyResult(_rows(traces, reported, grid, seed), {}))

    # The Hadamard protocol is exact up to shot noise: its exact trace,
    # from the study's one propagator, is the R reference.
    reference = [_exact_values(points) for points in traces[(HADAMARD, None)]]
    figures: dict[str, FigureOfMerit] = {}
    for key in reported:
        plus, minus = traces[key]
        if grid.size < 2:
            fom = FigureOfMerit(0.0, 0.0, _std_errors(plus)[0], _std_errors(minus)[0])
        else:
            r_p, why_p = _safe_relative_error(_exact_values(plus), reference[0], grid, "C+")
            r_m, why_m = _safe_relative_error(_exact_values(minus), reference[1], grid, "C-")
            dc_p = time_averaged_std(_std_errors(plus), grid)
            dc_m = time_averaged_std(_std_errors(minus), grid)
            fom = FigureOfMerit(r_p, r_m, dc_p, dc_m, why_p, why_m)
        figures[HADAMARD if key[1] is None else f"{LINEAR_RESPONSE}:lambda={key[1]:g}"] = fom
    return StudyResult(_rows(traces, reported, grid, seed), figures)


def _exact_values(points) -> np.ndarray:
    return np.array([exact.value for exact, _ in points])


def _std_errors(points) -> np.ndarray:
    """Error bar per time: the sampled estimate's, else the exact one's nominal."""
    return np.array([(exact if samp is None else samp).std_error for exact, samp in points])


def _rows(traces, reported, grid, seed) -> tuple[StudyRow, ...]:
    """StudyRows of the completed traces among reported, in that key order."""
    rows = []
    for protocol, lam in reported:
        if (protocol, lam) not in traces:
            continue
        for kind, points in zip(("+", "-"), traces[(protocol, lam)]):
            for t, (exact, samp) in zip(grid, points):
                shown = exact if samp is None else samp
                rows.append(
                    StudyRow(
                        protocol,
                        kind,
                        float(t),
                        None if lam is None else float(lam),
                        exact.value,
                        None if samp is None else samp.value,
                        shown.std_error,
                        shown.shots,
                        seed,
                    )
                )
    return tuple(rows)


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

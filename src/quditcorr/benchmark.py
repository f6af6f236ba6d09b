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
trace with itself.  Each trace is one task that only propagates, every
grid point from a few streamed trajectories (dynamics.trajectory); all
are estimated after the pool.  brute_force_correlators, the dense oracle
of `quditcorr validate`, diagonalizes H on its own.
An R whose reference trace vanishes while the estimate does not is
undefined; it is reported as None with the reason alongside.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import logging
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import SparseHamiltonian, build_xxz, make_propagator, site_sz_diagonal
from .hadamard import (
    EXACT,
    SAMPLED,
    CorrelatorEstimate,
    estimate_from_probabilities,
    require_site_sz,
    trace_probabilities,
)
from .linear_response import (
    HERMITIAN,
    NON_HERMITIAN,
    LinearResponseConfig,
    lr_estimate,
    lr_trace,
    measure_site_expectation,  # noqa: F401 -- perfbench/tracing.py times it under this module
    site_expectations,
    unperturbed_readout,
)
from .observables import HermitianObservable, require_hermitian, spin_matrix
from .register import QuditState, basis_state, site_marginal
from .rng import task_rng

log = logging.getLogger(__name__)

HADAMARD = "hadamard"
LINEAR_RESPONSE = "lr"
PROTOCOLS = (HADAMARD, LINEAR_RESPONSE)

# An LR trace's branches, C+ then C-: (pulse kind, task_rng stream, budget key).
LR_KINDS = ((NON_HERMITIAN, 2, "plus"), (HERMITIAN, 1, "minus"))

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
# The smallest budgets: one shot per expectation value a point splits over.
MIN_BUDGETS = {HADAMARD: {"plus": 6, "minus": 4}, LINEAR_RESPONSE: {"plus": 2, "minus": 2}}

# study_plan's cost model besides dynamics.trajectory_price (CHANGES.md): CPU seconds per
# point of a trace plus per amplitude at it, fitted on 13 studies at N = 4..12, one worker.
POINT_SECONDS, AMPLITUDE_SECONDS = 77e-6, 76e-9
# Peak bytes per entry that H may hold (16 B value and 4 B column, three
# times over: the peak was 2.67 times that at N = 12 and 2.35 at N = 13),
# and per grid point of a trace (quick_n4: 2.0 KB a step of its two traces).
BYTES_PER_H_ENTRY, BYTES_PER_POINT = 60, 1100


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
    LR pulse strengths (distinct) and area, the master seed and the pool size
    (None: default_workers).  Types are checked, not coerced, except
    that integers pass as numbers; lists pass as tuples and the budgets
    as read-only mappings, so a checked config is immutable and hashable.
    It is admitted by its study_plan, which it keeps as .plan, not a field.
    """

    n_sites: int = 4
    j_z_over_j_xy: float = 0.5
    t_max: float = 5.0
    steps: int = 26
    sites: tuple[int, int] = (1, 2)
    protocols: tuple[str, ...] = PROTOCOLS
    shots: dict = dataclasses.field(default_factory=dict)
    lambdas: tuple[float, ...] = (0.2,)
    pulse_area: float = 1e-3
    seed: int = 1234
    workers: int | None = None

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        _expect(_integer(self.n_sites, "n_sites") >= 2, "n_sites", "need at least 2 sites")
        try:  # before any check forms 3^N or a grid
            dynamics.check_dimension(self.n_sites)
        except ValueError as err:
            _expect(False, "n_sites", str(err))
        put("j_z_over_j_xy", _number(self.j_z_over_j_xy, "j_z_over_j_xy"))
        put("t_max", _number(self.t_max, "t_max"))
        _expect(self.t_max > 0, "t_max", "must be positive")
        _expect(_integer(self.steps, "steps") >= 1, "steps", "must be at least 1")
        _expect(self.steps < 2**63, "steps", "must be below 2^63: the time grid's count is int64")
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
                least = MIN_BUDGETS[proto][kind]
                why = (f"the {proto} {kind} budget must be an integer >= {least} and < 2^63 "
                       f"(shot counts and their sums are int64), got {n!r}")
                _expect(_is_int(n) and least <= n < 2**63, "shots", why)
                budgets[proto][kind] = n
        put("shots", _ReadOnlyDict((p, _ReadOnlyDict(b)) for p, b in budgets.items()))
        lambdas = self.lambdas
        _expect(isinstance(lambdas, (list, tuple)) and lambdas, "lambdas", "nonempty list")
        for lam in lambdas:
            _expect(_number(lam, "lambdas") > 0, "lambdas", f"must be positive, got {lam!r}")
        put("lambdas", tuple(float(lam) for lam in lambdas))
        distinct = len(set(self.lambdas)) == len(lambdas)
        _expect(distinct, "lambdas", f"values must be distinct, got {list(lambdas)}")
        put("pulse_area", _number(self.pulse_area, "pulse_area"))
        _expect(self.pulse_area > 0, "pulse_area", "must be positive")
        # A diagonal entry of H is at most (N - 1) |J_z| in size, and the
        # Taylor kernel sums a block's diagonal, of up to 3^N entries.
        most = 3**self.n_sites * (self.n_sites - 1) * abs(self.j_z_over_j_xy)
        why = "the sums of H's diagonal, up to 3^N (N - 1) |j_z_over_j_xy|, may overflow"
        why = f"{self.j_z_over_j_xy!r} at {self.n_sites} sites: {why}"
        _expect(most <= sys.float_info.max, "j_z_over_j_xy", why)
        put("plan", plan := study_plan(self))
        have, need = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), sum(plan.bytes)
        why = f"about {need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB of RAM"
        if plan.bytes[1] > plan.bytes[0]:  # the rows', not H's
            why_steps = f"{self.steps} steps of {len(plan.traces)} traces need {why}"
            _expect(need <= have, "steps", why_steps)
        _expect(need <= have, "n_sites", f"a study at {self.n_sites} sites needs {why}")
        why = (f"{self.steps} steps to t_max = {self.t_max!r}, {len(plan.traces)} traces, "
               f"pulse_area = {self.pulse_area!r} and j_z_over_j_xy = {self.j_z_over_j_xy!r} "
               f"at {self.n_sites} sites predict {'over' if plan.capped else 'about'} "
               f"{plan.cpu_seconds / 60:.3g} min of one-worker CPU, over the bound of "
               f"{dynamics.MAX_WORK / 60:g} min")
        _expect(plan.cpu_seconds <= dynamics.MAX_WORK, plan.dominant, why)
        repeats = np.diff(np.linspace(0.0, self.t_max, self.steps)) <= 0  # a subnormal t_max
        why = f"t_max = {self.t_max!r} over steps = {self.steps} gives a grid whose times repeat"
        _expect(not repeats.any(), "t_max", why)
        _integer(self.seed, "seed")
        workers = self.workers
        valid = workers is None or _is_int(workers) and workers >= 1
        _expect(valid, "workers", "must be null or >= 1")


@dataclass(frozen=True)
class StudyPlan:
    """A study counted from its RunConfig before H exists; see study_plan."""

    traces: tuple  # the pool's task keys, the Hadamard trace first
    lr_configs: dict  # the checked LinearResponseConfig of each (lambda, kind)
    cpu_seconds: float  # predicted at one worker
    dominant: str  # the field with the largest share of cpu_seconds
    capped: bool  # a trajectory counted at the Taylor cap: cpu_seconds is a lower bound
    bytes: tuple[int, int]  # the peaks predicted for H and for the rows


def study_plan(config: RunConfig) -> StudyPlan:
    """The StudyPlan of a config whose chain check_dimension admits, counted in closed form.

    Each trajectory through each sector psi0 touches is priced by dynamics.trajectory_price, on
    the kernel dynamics.kernel gives the block, with the step times the 1-norm bound
    (N - 1)(2 + |J_z/J_xy|) + 2 lambda; H's bytes are priced from every sector's entry bound.
    """
    n, steps, dt = config.n_sites, config.steps, config.pulse_area  # J_xy = 1: dt = pulse_area
    sites, lr_configs = [s - 1 for s in config.sites], {}
    for lam, (kind, _, _) in itertools.product(config.lambdas, LR_KINDS):
        try:  # every lambda, whatever the protocols
            lr_configs[lam, kind] = LinearResponseConfig(lam, dt, *sites, kind)
            lr_configs[lam, kind].check_strength(n, 1.0)
        except ValueError as err:
            _expect(False, "lambdas", str(err))
    lr = [(LINEAR_RESPONSE, lam) for lam in config.lambdas if LINEAR_RESPONSE in config.protocols]
    norm, tau = (n - 1) * (2 + abs(config.j_z_over_j_xy)), config.t_max / max(steps - 1, 1)
    past_dt = steps - 1 - min(steps - 1, dt * (steps - 1) // config.t_max)
    # (pulsed, nonzero times, a step's 1-norm bound) in each sector psi0 touches, digit sum N
    # (N -+ 1 at odd N): the Hadamard trace streams psi0's two Neel states, at odd N one in each
    # sector; the LR readout evolves psi0 to dt; an LR trace, per kind, pulses and streams psi0.
    runs = [(False, steps - 1, tau * norm)] * (2 - n % 2) + [(False, 1, dt * norm)] * bool(lr)
    for _, lam in lr:
        runs += [(True, 1, dt * (norm + 2 * lam)), (False, past_dt, tau * norm)] * 2
    shares = {"steps": steps * (1 + len(lr)) * (POINT_SECONDS + 3**n * AMPLITUDE_SECONDS)}
    capped, sectors = False, dynamics.sectors(n)  # capped: a count stopped at the Taylor cap
    for (pulsed, times, x), s in itertools.product(runs, sorted({n - n % 2, n + n % 2})):
        (dim, entries), kernel = sectors[s], dynamics.kernel(sectors[s][0], pulsed)
        _, cut, seconds = dynamics.trajectory_price(kernel, dim, entries, [x], times)
        field = "steps" if kernel == "dense-eig" else "pulse_area" if pulsed else "t_max"
        capped, shares[field] = capped or cut, shares.get(field, 0.0) + seconds
    h_bytes = BYTES_PER_H_ENTRY * sum(entries for _, entries in sectors)
    return StudyPlan(
        ((HADAMARD, None), *lr), lr_configs, sum(shares.values()), max(shares, key=shares.get),
        capped, (h_bytes, BYTES_PER_POINT * steps * (1 + len(lr))),
    )


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
    sampled: float
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
    up_first = [2 * (k % 2) for k in range(n_sites)]  # levels of m = +1, -1, +1, ...
    a, b = (basis_state((3,) * n_sites, levels) for levels in (up_first, [2 - l for l in up_first]))
    return QuditState(a.dims, (a.amplitudes + b.amplitudes) / math.sqrt(2))


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
        np.square(raw.std_error)
        + 4.0 * np.square(exp_b.value * exp_a.std_error)
        + 4.0 * np.square(exp_a.value * exp_b.std_error)
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
    """(1/t) int std dt' over the grid (trapezoidal).

    An error bar near the float limit (an LR trace at the smallest λ)
    times a long step overflows the area, though not the average, which
    is at most max(std): such a trace is integrated in units of its
    maximum.  A subnormal span (t_max) would round the area to a multiple
    of 5e-324: it is integrated in units of the span.
    """
    std = np.asarray(std_trace, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if std.shape != grid.shape:
        raise ValueError("trace and grid must share one time grid")
    if grid.size < 2:
        raise ValueError("need at least two grid points to average")
    span = grid[-1] - grid[0]
    if 0 < span < sys.float_info.min:
        grid, span = grid / span, 1.0
    with np.errstate(over="ignore"):
        mean = float(np.trapezoid(std, grid)) / span
    if math.isinf(mean):
        peak = np.max(std)
        mean = float(np.trapezoid(std / peak, grid)) / span * peak
    return mean


def brute_force_correlators(
    h: SparseHamiltonian, psi0: QuditState, site_a: int, site_b: int, t1: float, t2: float
) -> tuple[float, float]:
    """Dense Heisenberg-picture <{A(t1), B(t2)}> and i<[A(t1), B(t2)]>, the oracle of validate.

    A = S^z_a and B = S^z_b.  H is diagonalized here, independently of
    any Propagator, and U(t) = V e^{-iEt} V^+ is applied to vectors
    only.  With z = <A(t1) B(t2)> = <U(t2 - t1) A U(t1) psi | B U(t2) psi>,
    the anti-commutator is 2 Re z and the commutator -2 Im z.  eigh reads
    one triangle, so a non-Hermitian H is refused first.
    """
    if h.dimension > ORACLE_DIM_LIMIT:
        raise ValueError(f"brute-force reference limited to dimension {ORACLE_DIM_LIMIT}")
    dense = np.zeros((h.dimension,) * 2, dtype=np.complex128)
    dense[np.repeat(np.arange(h.dimension), np.diff(h.indptr)), h.indices] = h.data
    require_hermitian(dense, "the dense oracle needs a Hermitian H")
    vals, vecs = np.linalg.eigh(dense)
    a = site_sz_diagonal(h.n_sites, site_a)
    b = site_sz_diagonal(h.n_sites, site_b)

    def u(t, v):
        coeff = (vecs.T @ v.conj()).conj()  # V^+ v without copying V^+
        return vecs @ (np.exp(-1j * vals * t) * coeff)

    phi1 = u(t1, psi0.amplitudes)
    z = np.vdot(u(t2 - t1, a * phi1), b * u(t2, psi0.amplitudes))
    return 2.0 * float(z.real), -2.0 * float(z.imag)


def hadamard_estimate(obs_a, obs_b, psi0: QuditState, probabilities, budgets, rngs=None):
    """The Hadamard C+ (connected) and C- over a grid, from trace_probabilities' arrays.

    C+ splits its per-point budget over six expectation values (four
    circuits, <A> at t1 = 0 and <B> at t), C- its own over four circuits.
    Exact without rngs, with those budgets' error bars; with rngs, point
    ti draws from rngs[ti]: the four C+ circuits, the two means, then the
    four C- circuits.  The means are read from site marginals with the
    spin-1 S^z levels, so A and B must pass require_site_sz.
    """
    require_site_sz(obs_a, obs_b)
    ps_plus, ps_minus, marginals_b = probabilities
    norms = (obs_a.spectral_norm, obs_b.spectral_norm)
    n_plus, n_minus = (budgets[kind] // MIN_BUDGETS[HADAMARD][kind] for kind in ("plus", "minus"))
    marginals_a = np.broadcast_to(site_marginal(psi0, obs_a.support[0]), marginals_b.shape)
    raw = estimate_from_probabilities(ps_plus, *norms, n_plus, rngs)
    means = site_expectations(np.stack([marginals_a, marginals_b], axis=1), n_plus, rngs)
    plus = connected_anticommutator(raw, *means)
    return plus, estimate_from_probabilities(ps_minus, *norms, n_minus, rngs)


class StudyInterrupted(KeyboardInterrupt):
    """An interrupt during the traces or their estimation; result holds the completed ones' rows."""

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


def _run_tasks(keys, task, workers: int, results: dict) -> None:
    """Store task(key) in results under its key, for every key.

    On an interrupt or a failed task, pending tasks are cancelled, by the
    failed task's worker before it takes the next, and running ones
    finish, so results holds whole traces when the interrupt or the first
    failure in submission order propagates.  Tasks run on pool threads at
    any worker count, and none starts before all are submitted, so the
    pool waits for every trace that started.
    """
    submitted = threading.Event()

    with ThreadPoolExecutor(max_workers=workers, initializer=submitted.wait) as pool:

        def run(key):
            try:
                results[key] = task(key)
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                raise

        try:
            futures = [pool.submit(run, key) for key in keys]
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

    One task per trace of config.plan, which only propagates.
    After the pool, every trace is estimated, the LR ones against one
    unpulsed readout: the Hadamard trace's marginals of B's site, plus one
    evolve to dt.
    Deterministic for a fixed config seed under any worker count: every
    point draws from its own counter-based stream and the result table is
    assembled by a key-ordered reduction.  One propagator of H0 serves
    every trace.

    A failed trace cancels the pending ones and its error propagates.
    On KeyboardInterrupt, pending traces are cancelled too and
    StudyInterrupted is raised; its result has the rows of the
    completed traces, in the usual order, and no figures.
    """
    protocols, lambdas, budgets = config.protocols, config.lambdas, config.shots
    pulse_area, seed, plan = config.pulse_area, config.seed, config.plan

    prop, psi0, obs_a, obs_b = system = quench_system(config)
    if log.isEnabledFor(logging.INFO):
        touched = ", ".join(f"{b.index.size} ({b.strategy})" for b in prop.blocks_touched(psi0))
        log.info("H0 has %d blocks; psi0 touches dimension %s; predicted %.3g s of CPU at one "
                 "worker and %.3g MB", len(prop.blocks), touched, plan.cpu_seconds,
                 sum(plan.bytes) / 1e6)
    grid = np.linspace(0.0, config.t_max, config.steps)
    reported = [key for key in plan.traces if key[0] in protocols]
    points = range(grid.size)

    def estimate(outputs) -> dict:
        """The completed traces, each (C+, C-) as (exact, sampled) estimates."""
        if (HADAMARD, None) not in outputs:
            return {}
        args = (obs_a, obs_b, psi0, outputs[(HADAMARD, None)], budgets[HADAMARD])
        samp = (None, None)
        if HADAMARD in protocols:  # else the trace is only the exact R reference
            samp = hadamard_estimate(*args, [task_rng(seed, 1, ti) for ti in points])
        traces = {(HADAMARD, None): list(zip(hadamard_estimate(*args), samp))}
        done = [(li, lam) for li, lam in enumerate(lambdas) if (LINEAR_RESPONSE, lam) in outputs]
        if done:
            marginals = outputs[(HADAMARD, None)][2]
            readout = unperturbed_readout(prop, psi0, obs_b.support[0], pulse_area, grid, marginals)
        for li, lam in done:
            branches = []
            for kind, stream, key in LR_KINDS:
                pert, norms = outputs[(LINEAR_RESPONSE, lam)][kind]
                args = (plan.lr_configs[lam, kind], pert, norms, readout,
                        budgets[LINEAR_RESPONSE][key])
                samp = lr_estimate(*args, [task_rng(seed, 2, li, ti, stream) for ti in points])
                branches.append((lr_estimate(*args), samp))
            traces[(LINEAR_RESPONSE, lam)] = branches
        return traces

    workers = default_workers(len(plan.traces)) if config.workers is None else config.workers
    outputs = {}
    try:
        # The Hadamard task goes first: when an LR task has completed, so has it.
        task = functools.partial(_trace, lr_configs=plan.lr_configs, system=system, grid=grid)
        _run_tasks(plan.traces, task, workers, outputs)
        traces = estimate(outputs)
    except KeyboardInterrupt:
        raise StudyInterrupted(StudyResult(_rows(estimate(outputs), reported, grid, seed), {}))

    # The Hadamard protocol is exact up to shot noise: its exact trace,
    # from the study's one propagator, is the R reference.
    reference = [exact.value for exact, _ in traces[(HADAMARD, None)]]
    # On a one-point grid R and dC are their limits as the span shrinks:
    # the one point spread over a unit span.
    at, span = (slice(None), grid) if grid.size > 1 else ([0, 0], np.array([0.0, 1.0]))
    figures: dict[str, FigureOfMerit] = {}
    for key in reported:
        (plus, samp_p), (minus, samp_m) = traces[key]
        r_p, why_p = _safe_relative_error(plus.value[at], reference[0][at], span, "C+")
        r_m, why_m = _safe_relative_error(minus.value[at], reference[1][at], span, "C-")
        dc_p, dc_m = (time_averaged_std(s.std_error[at], span) for s in (samp_p, samp_m))
        fom = FigureOfMerit(r_p, r_m, dc_p, dc_m, why_p, why_m)
        figures[HADAMARD if key[1] is None else f"{LINEAR_RESPONSE}:lambda={key[1]!r}"] = fom
    return StudyResult(_rows(traces, reported, grid, seed), figures)


def _trace(key, lr_configs: dict, system, grid):
    """One pool task: the propagated output of a plan's trace key on the study's system."""
    prop, psi0, obs_a, obs_b = system
    if key[0] == HADAMARD:
        return trace_probabilities(obs_a, obs_b, psi0, prop, grid)
    return {kind: lr_trace(lr_configs[key[1], kind], psi0, prop, grid) for kind, *_ in LR_KINDS}


def _rows(traces, reported, grid, seed) -> tuple[StudyRow, ...]:
    """StudyRows of the completed traces among reported, in that key order."""
    rows = []
    for protocol, lam in reported:
        for kind, (exact, samp) in zip(("+", "-"), traces.get((protocol, lam), ())):
            columns = (grid, exact.value, samp.value, samp.std_error, samp.shots)
            for t, value, samp_value, err, shots in zip(*(c.tolist() for c in columns)):
                rows.append(StudyRow(protocol, kind, t, lam, value, samp_value, err, shots, seed))
    return tuple(rows)


def _safe_relative_error(est, ref, grid, label: str) -> tuple[float | None, str | None]:
    """(R, None), or (None, reason) when R is undefined."""
    # R is a ratio of two areas on one grid, so a grid whose areas overflow
    # (t_max near the float limit) is integrated in units of its span.
    with np.errstate(over="ignore"):
        grid = grid / grid[-1] if math.isinf(np.trapezoid(np.square(ref), grid)) else grid
    # Odd chains have identically vanishing C-(0, t) for adjacent sites;
    # a sub-rounding reference makes the ratio meaningless, so report 0
    # when the estimate vanishes too and leave R undefined otherwise.
    if float(np.trapezoid(np.asarray(ref) ** 2, grid)) < 1e-24:
        if np.allclose(est, ref, atol=1e-10):
            return 0.0, None
        return None, f"reference {label} trace vanishes on the grid but the estimate does not"
    # A tiny lambda * pulse_area puts LR values near the float range, where
    # the squared deviation overflows: R is then undefined, not infinite.
    with np.errstate(over="ignore", invalid="ignore"):
        r = relative_error(est, ref, grid)
    if not math.isfinite(r):
        return None, f"the squared deviation from the reference {label} trace overflows"
    return r, None

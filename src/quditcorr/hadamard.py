"""Ancilla-interferometric measurement of two-time spin correlators.

One circuit realization (ancilla = register site 0, system = the rest):

    prep (|0> + e^{i alpha}|1>)/sqrt(2)  x  |psi0>
    X on ancilla
    evolve system to t1
    controlled-V_A  (control = ancilla |1>)
    X on ancilla
    evolve system by t2 - t1
    controlled-V_B  (control = ancilla |1>)
    Hadamard on ancilla
    measure P = P(ancilla = |0>)

Working through the gate sequence state by state gives

    4 P - 2 = 2 Re( e^{i alpha} <V_A^+(t1) V_B(t2)> ),

with Heisenberg operators O(t) = U^+(t) O U(t).  Splitting the
observables A and B into unitary pairs (W, W^+) of norms ||A||, ||B||
and summing the circuit outputs over all four gate pairs yields the
correlator assembly used below; the gate in the first slot enters
daggered, but the sum over both choices makes the assembled value
independent of that bookkeeping.

Sign conventions, pinned against the dense brute-force oracle (N = 2, 3):

    alpha = 0     ->  C+ = <{A(t1), B(t2)}>          (anti-commutator)
    alpha = pi/2  ->  C- = i <[A(t1), B(t2)]>        (commutator)
    C+- = (||A|| ||B|| / 4) * sum_{V_A, V_B} (4 P - 2)

Shot noise on an estimate built from the four probabilities obeys

    Var[C+-] = 4 ||A||^2 ||B||^2 * sum P (1 - P)

per total shot when the budget splits evenly over the four circuits
(each circuit then receives shots/4).  Sampled |0> counts are drawn by
rng.sample_counts, from P snapped to a 2^-30 grid.  The estimators work
on arrays over a trace's time grid; a single point is a one-point batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Propagator, evolve, trajectory
from .observables import HermitianObservable, decompose
from .register import (
    LocalOperator,
    QuditState,
    RegisterShape,
    ancilla_zero_probability,
    apply_controlled,
    apply_local,
)
from .rng import as_generator, sample_counts

W = "w"
W_DAGGER = "w_dagger"
COMBOS = ((W, W), (W, W_DAGGER), (W_DAGGER, W), (W_DAGGER, W_DAGGER))

ALPHA_PLUS = 0.0  # anti-commutator phase
ALPHA_MINUS = math.pi / 2  # commutator phase

_X_GATE = LocalOperator(
    np.array([[0, 1], [1, 0]], dtype=np.complex128), (0,), hermitian=True, unitary=True
)
_H_GATE = LocalOperator(
    np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2),
    (0,),
    hermitian=True,
    unitary=True,
)

EXACT = "exact"
SAMPLED = "sampled"


@dataclass(frozen=True)
class HadamardTask:
    """One circuit realization: times, gate choices, ancilla phase.

    t1 > t2 is allowed (the middle segment then propagates backwards),
    which is what the time-swapped symmetry checks exercise.
    """

    t1: float
    t2: float
    va_choice: str
    vb_choice: str
    alpha: float
    observable_a: HermitianObservable
    observable_b: HermitianObservable

    def __post_init__(self):
        if not all(t >= 0 and math.isfinite(t) for t in (self.t1, self.t2)):  # NaN fails too
            raise ValueError(f"times must be finite and nonnegative, got ({self.t1}, {self.t2})")
        if self.va_choice not in (W, W_DAGGER) or self.vb_choice not in (W, W_DAGGER):
            raise ValueError(f"gate choices must be '{W}' or '{W_DAGGER}'")
        if not (
            math.isclose(self.alpha, ALPHA_PLUS, abs_tol=1e-12)
            or math.isclose(self.alpha, ALPHA_MINUS, abs_tol=1e-12)
        ):
            raise ValueError("alpha must be 0 or pi/2")


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Correlator value with its shot-noise error bar and provenance.

    An estimate of one point holds Python scalars; the array estimators
    return one over T points, whose value, std_error and shots are (T,)
    arrays (points() splits it).
    """

    value: float
    std_error: float
    shots: int
    mode: str  # "exact" | "sampled"

    def points(self) -> list["CorrelatorEstimate"]:
        """The per-point estimates of an estimate over T points."""
        cells = zip(self.value.tolist(), self.std_error.tolist(), self.shots.tolist())
        return [CorrelatorEstimate(v, s, n, self.mode) for v, s, n in cells]


def squared(x) -> np.ndarray:
    """x ** 2 elementwise, rounded as a Python float squares (libm pow).

    NumPy's x * x differs from it in the last bit on about 0.1 % of
    inputs; every error bar squares through here, so the array
    estimators give the same bytes as the scalar arithmetic they replace.
    """
    return np.array([v**2 for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _sum4(x) -> np.ndarray:
    """Sum over the last axis of length 4 in index order, as Python's sum adds."""
    return x[..., 0] + x[..., 1] + x[..., 2] + x[..., 3]


def attach_ancilla(psi0: QuditState, alpha: float) -> QuditState:
    """(|0> + e^{i alpha}|1>)/sqrt(2) (x) |psi0>, ancilla as site 0."""
    shape = RegisterShape((2,) + psi0.dims)
    amp = np.concatenate(
        [psi0.amplitudes, np.exp(1j * alpha) * psi0.amplitudes]
    ) / math.sqrt(2)
    return QuditState(shape, amp)


def _shift(op: LocalOperator) -> LocalOperator:
    """Re-anchor a system-site operator behind the ancilla."""
    return op.on(*(s + 1 for s in op.support))


def run_hadamard_circuit(task: HadamardTask, psi0: QuditState, prop: Propagator) -> float:
    """Execute one realization on the system state and return P(|0>).

    psi0 is the system-only state; the ancilla is prepared internally.
    The gates V_A and V_B come from the unitary splittings of the task's
    own observables (a small eigh each); this is the gate-level
    specification, which no study runs.
    """
    va = _shift(decompose(task.observable_a).pick(task.va_choice))
    vb = _shift(decompose(task.observable_b).pick(task.vb_choice))

    state = attach_ancilla(psi0, task.alpha)
    state = apply_local(state, _X_GATE)
    state = evolve(prop, state, task.t1)
    state = apply_controlled(state, 0, 1, va)
    state = apply_local(state, _X_GATE)
    state = evolve(prop, state, task.t2 - task.t1)
    state = apply_controlled(state, 0, 1, vb)
    state = apply_local(state, _H_GATE)
    return ancilla_zero_probability(state)


def variance_model(p_values, norm_a: float, norm_b: float):
    """Single-shot variance of the assembled correlator, per set of four P (last axis).

    ``shots`` here means the total budget split evenly over the four
    circuits, so the estimator at total budget n has variance
    variance_model / n.  All four probabilities at 1/2 saturate the
    a priori bound 4 ||A||^2 ||B||^2.
    """
    ps = np.asarray(p_values, dtype=float)
    if ps.shape[-1:] != (4,):
        raise ValueError("expected one probability per gate pair (4 values)")
    if np.any(ps < -1e-12) or np.any(ps > 1 + 1e-12):
        raise ValueError("probabilities must lie in [0, 1]")
    ps = np.clip(ps, 0.0, 1.0)
    return 4.0 * norm_a**2 * norm_b**2 * np.sum(ps * (1.0 - ps), axis=-1)


def circuit_probabilities(
    obs_a: HermitianObservable,
    obs_b: HermitianObservable,
    t1: float,
    t2: float,
    psi0: QuditState,
    prop: Propagator,
    alpha: float,
) -> np.ndarray:
    """Exact P(|0>) for the four gate pairs at one ancilla phase."""
    ps = np.empty(4)
    for k, (va, vb) in enumerate(COMBOS):
        ps[k] = run_hadamard_circuit(HadamardTask(t1, t2, va, vb, alpha, obs_a, obs_b), psi0, prop)
    return ps


def trace_probabilities(
    obs_a: HermitianObservable,
    obs_b: HermitianObservable,
    psi0: QuditState,
    prop: Propagator,
    times,
):
    """Exact P(|0>) of every circuit for C(0, t), streamed over a time grid.

    Yields (ps_plus, ps_minus, U(t)|psi0>) per time, with the four
    probabilities of each phase in COMBOS order.  At t1 = 0 the circuit
    gives P = 1/2 + 1/2 Re(e^{i alpha} <U(t) V_A psi | V_B U(t) psi>),
    so the whole grid needs only the three system-only trajectories of
    psi, W_A psi and W_A^+ psi, and one local V_B per gate choice and time.
    """
    decomp_a = decompose(obs_a)
    decomp_b = decompose(obs_b)
    branches = zip(
        trajectory(prop, psi0, times),
        trajectory(prop, apply_local(psi0, decomp_a.w), times),
        trajectory(prop, apply_local(psi0, decomp_a.w_dagger), times),
    )
    for phi, after_w, after_w_dagger in branches:
        left = {W: after_w, W_DAGGER: after_w_dagger}  # U(t) V_A psi
        right = {c: apply_local(phi, decomp_b.pick(c)) for c in (W, W_DAGGER)}  # V_B U(t) psi
        z = np.array([np.vdot(left[va].amplitudes, right[vb].amplitudes) for va, vb in COMBOS])
        z /= psi0.squared_norm
        yield 0.5 + 0.5 * z.real, 0.5 - 0.5 * z.imag, phi


def estimate_from_probabilities(
    ps,
    norm_a: float,
    norm_b: float,
    shots_per_circuit: int | None,
    rngs=None,
    nominal_total: int | None = None,
) -> CorrelatorEstimate:
    """Correlator estimates (||A|| ||B|| / 4) * sum (4q - 2) at T points.

    ps is (T, 4): the four P of each point in COMBOS order; the estimate
    holds (T,) arrays.  shots_per_circuit = None gives the exact values,
    q = P; an attached nominal total budget then supplies the error bars
    sqrt(variance_model / n).  Otherwise each q is the |0> fraction of an
    independent draw of shots_per_circuit shots, the four circuits of
    point t in one sample_counts call on rngs[t], and the error bar
    combines the empirical binomial variances.
    """
    ps = np.asarray(ps, dtype=float)
    model = variance_model(ps, norm_a, norm_b)  # checks for four P in [0, 1] per point
    pref = norm_a * norm_b / 4.0
    n = shots_per_circuit
    if n is None:
        qs, total = ps, nominal_total or 0
        std = np.sqrt(model / total) if total else np.zeros(len(ps))
    else:
        if n < 1:
            raise ValueError("shots must be >= 1")
        outcomes = np.stack([ps, 1.0 - ps], axis=-1)  # (T, 4, 2): P(|0>), P(|1>)
        zeros = [sample_counts(rows, n, rng)[:, 0] for rows, rng in zip(outcomes, rngs)]
        qs, total = np.array(zeros) / n, 4 * n
        std = np.sqrt(pref**2 * _sum4(squared(4.0 * np.sqrt(qs * (1.0 - qs) / n))))
    value = pref * _sum4(4.0 * qs - 2.0)
    return CorrelatorEstimate(value, std, np.full(len(ps), total), EXACT if n is None else SAMPLED)


def measure_dynamical_correlator(
    obs_a: HermitianObservable,
    obs_b: HermitianObservable,
    t1: float,
    t2: float,
    psi0: QuditState,
    prop: Propagator,
    budget: int | None = None,
    rng=None,
) -> tuple[CorrelatorEstimate, CorrelatorEstimate]:
    """Measure (C+, C-) via the eight circuit realizations.

    budget is the per-circuit shot count (None = exact expectation
    values).  The full correlator is recoverable as C = C+/2 - i C-/2.
    Draws consume the caller's generator in a fixed order (anti-
    commutator circuits first), keeping sweeps reproducible.
    """
    rngs = [as_generator(rng)]
    norms = (obs_a.spectral_norm, obs_b.spectral_norm)
    out = []
    for alpha in (ALPHA_PLUS, ALPHA_MINUS):
        ps = circuit_probabilities(obs_a, obs_b, t1, t2, psi0, prop, alpha)
        out.extend(estimate_from_probabilities([ps], *norms, budget, rngs).points())
    return out[0], out[1]

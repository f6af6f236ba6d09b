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
and summing the circuit outputs over the four gate pairs, the product
of the two splittings in the order (W_A, W_B), (W_A, W_B^+),
(W_A^+, W_B), (W_A^+, W_B^+), yields the correlator assembly used
below; the gate in the first slot enters daggered, but the sum over
both choices makes the assembled value independent of that bookkeeping.

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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Propagator, evolve, level_sums, trajectory
from .observables import HermitianObservable, decompose, spin_matrix
from .register import (
    LocalOperator, QuditState, ancilla_zero_probability, apply_controlled, apply_local,
)
from .rng import sample_counts

ALPHA_PLUS = 0.0  # anti-commutator phase
ALPHA_MINUS = math.pi / 2  # commutator phase

_X_GATE = LocalOperator(np.array([[0, 1], [1, 0]], dtype=np.complex128), (0,))
_H_GATE = LocalOperator(np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2), (0,))

EXACT = "exact"
SAMPLED = "sampled"


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


def _sum4(x) -> np.ndarray:
    """Sum over the last axis of length 4 in index order, as Python's sum adds."""
    return x[..., 0] + x[..., 1] + x[..., 2] + x[..., 3]


def run_hadamard_circuit(
    va: LocalOperator,
    vb: LocalOperator,
    t1: float,
    t2: float,
    psi0: QuditState,
    prop: Propagator,
    alpha: float,
) -> float:
    """Execute one realization on the system state and return P(|0>).

    va and vb are gates on psi0's sites, each W or W^+ of decompose(obs);
    psi0 is the system-only state, and the ancilla is prepared internally.
    t1 > t2 is allowed (the middle segment then propagates backwards), which
    the time-swapped symmetry checks exercise.  This is the gate-level
    specification, which no study runs.
    """
    if not all(t >= 0 and math.isfinite(t) for t in (t1, t2)):  # NaN fails too
        raise ValueError(f"times must be finite and nonnegative, got ({t1}, {t2})")
    if not (
        math.isclose(alpha, ALPHA_PLUS, abs_tol=1e-12)
        or math.isclose(alpha, ALPHA_MINUS, abs_tol=1e-12)
    ):
        raise ValueError("alpha must be 0 or pi/2")
    va, vb = (op.on(*(s + 1 for s in op.support)) for op in (va, vb))  # behind the ancilla
    amp = np.concatenate(
        [psi0.amplitudes, np.exp(1j * alpha) * psi0.amplitudes]
    ) / math.sqrt(2)  # (|0> + e^{i alpha}|1>)/sqrt(2) (x) |psi0>
    state = QuditState((2,) + psi0.dims, amp)
    state = apply_local(state, _X_GATE)
    state = evolve(prop, state, t1)
    state = apply_controlled(state, va)
    state = apply_local(state, _X_GATE)
    state = evolve(prop, state, t2 - t1)
    state = apply_controlled(state, vb)
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
    a, b = decompose(obs_a), decompose(obs_b)
    gates = itertools.product((a.w, a.w_dagger), (b.w, b.w_dagger))
    return np.array([run_hadamard_circuit(*pair, t1, t2, psi0, prop, alpha) for pair in gates])


def require_site_sz(*observables: HermitianObservable) -> None:
    """Refuse all but spin-1 S^z on one site: the only observables of a trace and its estimates."""
    for obs in observables:
        if len(obs.support) != 1 or not np.array_equal(obs.op.matrix, spin_matrix(1, "z").matrix):
            raise ValueError("the Hadamard trace needs A and B to be spin-1 S^z on one site each")


def trace_probabilities(
    obs_a: HermitianObservable,
    obs_b: HermitianObservable,
    psi0: QuditState,
    prop: Propagator,
    times,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact P(|0>) of every circuit for C(0, t) over a time grid, and B's site marginals.

    Returns ps_plus and ps_minus (T, 4), each point's four in gate-pair
    order, and the (T, 3) marginals of B's site in U(t)|psi0>, for A and B
    that pass require_site_sz.  At t1 = 0 the circuit gives
    P = 1/2 + 1/2 Re(e^{i alpha} <U(t) V_A psi | V_B U(t) psi>).  One
    trajectory per level of A's site that psi occupies (two on the Neel
    superposition) streams psi's part there; U(t) psi is their sum, and
    U(t) V_A psi too, weighted by diagonal V_A.  Each overlap, V_B being
    diagonal, and B's marginal are level_sums on B's site.
    """
    require_site_sz(obs_a, obs_b)
    w_a, w_b = (np.diag(decompose(obs).w.matrix) for obs in (obs_a, obs_b))
    by_level = psi0.amplitudes.reshape(3 ** obs_a.support[0], 3, -1)
    levels = [k for k in range(3) if by_level[:, k].any()]
    parts = (np.where(np.arange(3)[:, None] == k, by_level, 0).reshape(-1) for k in levels)
    indices, streams = zip(*(trajectory(prop, QuditState(psi0.dims, x), times) for x in parts))
    index = np.sort(np.concatenate([b.index for b in prop.blocks_touched(psi0)]))
    sums = level_sums(index, prop.hamiltonian.n_sites, obs_b.support[0])
    at = np.concatenate([k * index.size + np.searchsorted(index, i) for k, i in enumerate(indices)])
    chi = np.zeros((len(levels), index.size), dtype=np.complex128)  # U(t) of each part, on index
    v_a, v_b = np.array([w_a[levels], w_a[levels].conj()]), np.array([w_b, w_b.conj()]).T
    overlaps, marginals = [], []
    for points in zip(*streams):
        chi.flat[at] = np.concatenate([x[0] for x in points])
        phi = chi.sum(axis=0)
        overlaps.append(np.conj(v_a @ chi) * phi @ sums @ v_b)  # (V_A, V_B)
        marginals.append(np.abs(phi) ** 2 @ sums)
    z, p = np.reshape(overlaps, (-1, 4)) / psi0.squared_norm, np.array(marginals)
    return 0.5 + 0.5 * z.real, 0.5 - 0.5 * z.imag, p / p.sum(axis=1, keepdims=True)


def estimate_from_probabilities(
    ps, norm_a: float, norm_b: float, shots_per_circuit: int | None, rngs=None
) -> CorrelatorEstimate:
    """Correlator estimates (||A|| ||B|| / 4) * sum (4q - 2) at T points.

    ps is (T, 4): the four P of each point in gate-pair order; the estimate
    holds (T,) arrays.  Without rngs the values are exact, q = P, with the
    error bars sqrt(variance_model / n) and shots n of the total budget
    n = 4 * shots_per_circuit (none when it is None).  With rngs, each q
    is the |0> fraction of a draw of shots_per_circuit shots (the trace in
    one sample_counts call, point t's four circuits on rngs[t]), and the
    error bar combines the empirical binomial variances; rngs without a
    budget are refused.
    """
    ps = np.asarray(ps, dtype=float)
    model = variance_model(ps, norm_a, norm_b)  # checks for four P in [0, 1] per point
    pref = norm_a * norm_b / 4.0
    n = shots_per_circuit
    if n is not None and n < 1:
        raise ValueError("shots must be >= 1")
    if rngs is None:
        qs, std = ps, np.zeros(len(ps)) if n is None else np.sqrt(model / (4 * n))
    else:
        outcomes = np.stack([ps, 1.0 - ps], axis=-1)  # (T, 4, 2): P(|0>), P(|1>)
        qs = sample_counts(outcomes, n, rngs)[..., 0] / n
        std = np.sqrt(pref**2 * _sum4(np.square(4.0 * np.sqrt(qs * (1.0 - qs) / n))))
    value = pref * _sum4(4.0 * qs - 2.0)
    total = np.full(len(ps), 4 * (n or 0))
    return CorrelatorEstimate(value, std, total, EXACT if rngs is None else SAMPLED)


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

    budget is the per-circuit shot count.  Exact without rng, with that
    budget's error bars (none when it is None); sampled on rng, the anti-
    commutator circuits first.  The full correlator is C = C+/2 - i C-/2.
    """
    rngs = None if rng is None else [rng]
    norms = (obs_a.spectral_norm, obs_b.spectral_norm)
    out = []
    for alpha in (ALPHA_PLUS, ALPHA_MINUS):
        ps = circuit_probabilities(obs_a, obs_b, t1, t2, psi0, prop, alpha)
        out.extend(estimate_from_probabilities([ps], *norms, budget, rngs).points())
    return out[0], out[1]

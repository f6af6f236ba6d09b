"""Pulsed-perturbation (Kubo) baseline for the two-time correlators.

The register evolves freely to t1, then for a short window dt under the
perturbed Hamiltonian H - lambda*J_xy*S_p^z (Hermitian kind) or
H - i*lambda*J_xy*S_p^z (non-Hermitian kind), then freely again up to
t2, where <S_r^z> is read out.  Expanding to first order in the pulse
area (lambda * J_xy * dt) gives, for the target C(t1, t2) with its
first operator on the probed site p and its second on the readout
site r,

    hermitian:      (<S_r^z>_pert - <S_r^z>) / (lambda J_xy dt)
                        = -i <[S_p^z(t1), S_r^z(t2)]>  + O(lambda, dt)
    non-hermitian:  same quotient with <.>_pert normalized by the
                    surviving squared norm
                        = -( <{S_p^z(t1), S_r^z(t2)}>
                             - 2 <S_p^z(t1)><S_r^z(t2)> ) + O(lambda, dt)

Both orientations and overall signs were pinned against the dense
brute-force oracle: the pulse couples to the earlier-time operator,
and the estimator returns the *negated* difference quotient so that
the Hermitian kind estimates C- = i<[A(t1), B(t2)]> and the
non-Hermitian kind the (connected) anti-commutator C+.

Shot noise is simulated as projective S^z measurements (multinomial
over the readout site's levels).  The non-Hermitian perturbed branch
loses norm; its shot count shrinks proportionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import expm_multiply, norm

from .dynamics import HERMITIAN, NON_HERMITIAN, SparseHamiltonian, build_perturbed, evolve, make_propagator
from .hadamard import EXACT, SAMPLED, CorrelatorEstimate
from .observables import spin_matrix
from .register import LocalOperator, QuditState, expectation, site_marginal
from .rng import as_generator

# Squared norm below which the perturbed branch is considered collapsed.
NORM_COLLAPSE = 1e-6

# Largest 1-norm of -i*H*dt handed to one expm_multiply call.  Up to
# ~63 SciPy picks its Taylor degree from the exact 1-norm of the
# (trace-shifted, so at most twice as large) operator; beyond it, from
# onenormest, which draws from the global np.random and would make the
# pulsed state depend on that state.  Longer pulses are split into
# equal sub-steps below this norm.
MAX_STEP_NORM = 16.0


@dataclass(frozen=True)
class LinearResponseConfig:
    """Pulse strength/geometry for one linear-response measurement.

    probe_site carries the perturbation at t1 (the correlator's
    earlier-time operator); readout_site is measured at t2.  pulse_area
    is the dimensionless J_xy * dt.
    """

    lam: float
    pulse_area: float = 1e-3
    probe_site: int = 0
    readout_site: int = 1
    kind: str = HERMITIAN

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("perturbation strength lambda must be positive")
        if self.pulse_area <= 0:
            raise ValueError("pulse area must be positive")
        if self.kind not in (HERMITIAN, NON_HERMITIAN):
            raise ValueError(f"kind must be '{HERMITIAN}' or '{NON_HERMITIAN}'")


def normalized_expectation(state: QuditState, obs) -> float:
    """<psi|O|psi> / <psi|psi> for a possibly unnormalized state."""
    if state.squared_norm <= 0.0:
        raise ValueError("state has vanishing norm")
    op = obs.op if hasattr(obs, "op") else obs
    val = expectation(state, op)
    return float(val.real) / state.squared_norm


def effective_shots(nominal: int, squared_norm: float) -> int:
    """Shot count surviving the norm loss of a non-Hermitian branch.

    A squared norm slightly above 1 (second-order growth of the pulsed
    state) leaves the nominal count unchanged; anything beyond 1e-6
    excess is rejected as a bug.
    """
    if nominal < 1:
        raise ValueError("nominal shots must be >= 1")
    if not 0.0 < squared_norm <= 1.0 + 1e-6:
        raise ValueError(f"squared norm {squared_norm} outside (0, 1]")
    return max(1, round(nominal * min(squared_norm, 1.0)))


def apply_pulse(h: SparseHamiltonian, state: QuditState, duration: float) -> QuditState:
    """exp(-i H duration)|state> as the action of the exponential on one vector.

    A short pulse needs only a few sparse matvecs (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33(2), 2011), so no propagator is built for the
    perturbed Hamiltonian.  A non-Hermitian H returns the unnormalized
    state.  The result does not depend on the global np.random state.
    """
    gen = -1j * duration * h.matrix
    steps = max(1, math.ceil(norm(gen, 1) / MAX_STEP_NORM))
    amp = state.amplitudes
    for _ in range(steps):
        amp = expm_multiply(gen / steps, amp)
    return QuditState(state.shape, amp)


def _sampled_mean(state: QuditState, site: int, values: np.ndarray, shots: int, rng):
    """Projective estimate of <diag(values)> on one site: (mean, var of mean)."""
    p = site_marginal(state, site)
    counts = rng.multinomial(shots, p)
    mean = float(counts @ values) / shots
    second = float(counts @ values**2) / shots
    return mean, max(second - mean**2, 0.0) / shots


def measure_lr(
    config: LinearResponseConfig,
    t1: float,
    t2: float,
    psi0: QuditState,
    h0: SparseHamiltonian,
    budget: int | None = None,
    rng=None,
    prop_factory=make_propagator,
    nominal_budget: int | None = None,
) -> CorrelatorEstimate:
    """One linear-response estimate of C-(t1,t2) or C+(t1,t2).

    budget is the per-point total; half goes to each branch.  The
    perturbed and unperturbed branches share the same total duration so
    the difference quotient isolates the response.  In exact mode an
    attached nominal budget yields the error band the same budget would
    have, computed from the exact per-branch S^z variances.
    prop_factory is asked only for the propagator of h0; the pulse is
    applied with apply_pulse.
    """
    jxy = h0.j_xy
    dt = config.pulse_area / jxy
    if t2 < t1 + dt:
        raise ValueError(f"need t2 >= t1 + pulse duration ({t1 + dt:g}), got {t2:g}")

    h_pert = build_perturbed(h0, config.probe_site, config.lam, config.kind)
    prop0 = prop_factory(h0)

    pert = evolve(prop0, psi0, t1)
    pert = apply_pulse(h_pert, pert, dt)
    pert = evolve(prop0, pert, t2 - t1 - dt)
    if pert.squared_norm < NORM_COLLAPSE:
        raise ValueError(
            f"perturbed branch collapsed (squared norm {pert.squared_norm:.3e})"
        )
    unpert = evolve(prop0, psi0, t2)

    sz = spin_matrix(1, "z").on(config.readout_site)
    denom = config.lam * config.pulse_area

    if budget is None:
        sz_sq = LocalOperator(sz.matrix @ sz.matrix, sz.support, hermitian=True)
        e_p = normalized_expectation(pert, sz)
        e_u = normalized_expectation(unpert, sz)
        # Negated quotient: pinned against the brute-force oracle.
        value = (e_u - e_p) / denom
        std = 0.0
        shots = 0
        if nominal_budget:
            n_branch = max(1, nominal_budget // 2)
            n_pert = n_branch
            if config.kind == NON_HERMITIAN:
                n_pert = effective_shots(n_branch, min(pert.squared_norm, 1.0 + 1e-6))
            var_p = max(normalized_expectation(pert, sz_sq) - e_p**2, 0.0)
            var_u = max(normalized_expectation(unpert, sz_sq) - e_u**2, 0.0)
            std = math.sqrt(var_p / n_pert + var_u / n_branch) / denom
            shots = n_pert + n_branch
        return CorrelatorEstimate(value, std, shots, EXACT)

    if budget < 2:
        raise ValueError("sampled mode needs a per-point budget of at least 2")
    rng = as_generator(rng if rng is not None else 0)
    n_branch = budget // 2
    n_pert = n_branch
    if config.kind == NON_HERMITIAN:
        n_pert = effective_shots(n_branch, min(pert.squared_norm, 1.0 + 1e-6))
    values = np.real(np.diag(sz.matrix))  # m in {+1, 0, -1}
    # Sampling from the renormalized marginal realizes <.>/<1> directly.
    e_p, var_p = _sampled_mean(pert, config.readout_site, values, n_pert, rng)
    e_u, var_u = _sampled_mean(unpert, config.readout_site, values, n_branch, rng)
    value = (e_u - e_p) / denom
    std = math.sqrt(var_p + var_u) / denom
    return CorrelatorEstimate(value, std, n_pert + n_branch, SAMPLED)

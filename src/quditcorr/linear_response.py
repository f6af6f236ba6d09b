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

Shot noise is simulated as projective S^z measurements (rng.sample_counts
over the readout site's levels).  The non-Hermitian perturbed branch
loses norm; its shot count shrinks proportionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    HERMITIAN,
    NON_HERMITIAN,
    Propagator,
    SparseHamiltonian,
    evolve,
    make_propagator,
    perturbation,
    trajectory,
)
from .hadamard import EXACT, SAMPLED, CorrelatorEstimate
from .register import QuditState, site_marginal
from .rng import as_generator, sample_counts

# Squared norm below which the perturbed branch is considered collapsed.
NORM_COLLAPSE = 1e-6


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
        if not self.lam > 0:  # NaN fails too
            raise ValueError("perturbation strength lambda must be positive")
        if not self.pulse_area > 0:
            raise ValueError("pulse area must be positive")
        if self.kind not in (HERMITIAN, NON_HERMITIAN):
            raise ValueError(f"kind must be '{HERMITIAN}' or '{NON_HERMITIAN}'")


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


# Eigenvalues m of spin-1 S^z in basis order.
_SZ_LEVELS = np.array([1.0, 0.0, -1.0])


def _sz_moments(p, shots: int | None = None, rng=None) -> tuple[float, float]:
    """Mean and variance of S^z under the site marginal p, or under shots draws from it."""
    weights, total = (p, 1.0) if shots is None else (sample_counts(p, shots, rng), shots)
    mean = float(weights @ _SZ_LEVELS) / total
    return mean, max(float(weights @ _SZ_LEVELS**2) / total - mean**2, 0.0)


def measure_site_expectation(
    state: QuditState, site: int, shots: int | None = None, rng=None
) -> CorrelatorEstimate:
    """<S_site^z> of a state, exact or from a projective multinomial sample."""
    mean, var = _sz_moments(site_marginal(state, site), shots, rng)
    if shots is None:
        return CorrelatorEstimate(mean, 0.0, 0, EXACT)
    return CorrelatorEstimate(mean, math.sqrt(var / shots), shots, SAMPLED)


def lr_estimate(
    config: LinearResponseConfig,
    pert: np.ndarray,
    pert_norm: float,
    unpert: np.ndarray,
    budget: int | None = None,
    rng=None,
    nominal_budget: int | None = None,
) -> CorrelatorEstimate:
    """The LR estimator, from the readout-site S^z distributions of both branches.

    pert and unpert are the outcome distributions on the readout site at
    t2 of the pulsed and the unpulsed branch; pert_norm is the squared
    norm of the pulsed branch.  budget, rng and nominal_budget mean what
    they mean for measure_lr.
    """
    if pert_norm < NORM_COLLAPSE:
        raise ValueError(f"perturbed branch collapsed (squared norm {pert_norm:.3e})")
    if budget is not None and budget < 2:
        raise ValueError("sampled mode needs a per-point budget of at least 2")
    denom = config.lam * config.pulse_area
    total = nominal_budget if budget is None else budget
    n_branch = n_pert = 0
    if total:
        n_branch = n_pert = max(1, total // 2)
        if config.kind == NON_HERMITIAN:
            n_pert = effective_shots(n_branch, min(pert_norm, 1.0 + 1e-6))
    sampled = budget is not None
    rng = as_generator(rng) if sampled else None
    # Sampling from the renormalized marginal realizes <.>/<1> directly.
    e_p, var_p = _sz_moments(pert, n_pert if sampled else None, rng)
    e_u, var_u = _sz_moments(unpert, n_branch if sampled else None, rng)
    std = math.sqrt(var_p / n_pert + var_u / n_branch) / denom if total else 0.0
    mode = SAMPLED if sampled else EXACT
    # Negated quotient: pinned against the brute-force oracle.
    return CorrelatorEstimate((e_u - e_p) / denom, std, n_pert + n_branch, mode)


def measure_lr(
    config: LinearResponseConfig,
    t1: float,
    t2: float,
    psi0: QuditState,
    h0: SparseHamiltonian,
    budget: int | None = None,
    rng=None,
    nominal_budget: int | None = None,
) -> CorrelatorEstimate:
    """One linear-response estimate of C-(t1,t2) or C+(t1,t2).

    budget is the per-point total; half goes to each branch.  The
    perturbed and unperturbed branches share the same total duration so
    the difference quotient isolates the response.  In exact mode an
    attached nominal budget yields the error band the same budget would
    have, computed from the exact per-branch S^z variances.  h0
    propagates through make_propagator.  The pulse adds the
    perturbation's diagonal to that propagator's blocks and runs the
    Taylor kernel on the ones the state touches: a short pulse needs only
    a few products, and no block is diagonalized for it.
    """
    dt = config.pulse_area / h0.j_xy
    if t2 < t1 + dt:
        raise ValueError(f"need t2 >= t1 + pulse duration ({t1 + dt:g}), got {t2:g}")

    prop0 = make_propagator(h0)
    pert = evolve(prop0, psi0, t1)
    pert = evolve(prop0, pert, dt, perturbation(h0, config.probe_site, config.lam, config.kind))
    pert = evolve(prop0, pert, t2 - t1 - dt)
    unpert = evolve(prop0, psi0, t2)
    site = config.readout_site
    return lr_estimate(
        config,
        site_marginal(pert, site),
        pert.squared_norm,
        site_marginal(unpert, site),
        budget,
        rng,
        nominal_budget,
    )


def unperturbed_readout(
    prop: Propagator, psi0: QuditState, site: int, pulse_area: float, times
) -> list[np.ndarray]:
    """Readout-site marginals of the unpulsed branch at max(t, dt), one trajectory.

    dt = pulse_area / J_xy is the pulse duration, J_xy that of prop's
    Hamiltonian.  The result depends on no pulse strength or kind, so
    every LR trace of a study shares it.
    """
    states = trajectory(prop, psi0, np.maximum(times, pulse_area / prop.hamiltonian.j_xy))
    return [site_marginal(state, site) for state in states]


def lr_trace(
    config: LinearResponseConfig,
    psi0: QuditState,
    prop: Propagator,
    times,
    unperturbed,
    nominal_budget: int | None = None,
    rngs=None,
) -> list[tuple[CorrelatorEstimate, CorrelatorEstimate | None]]:
    """LR estimates of C(0, t) over a time grid, as measure_lr would give them.

    prop propagates H0, whose J_xy sets the pulse duration dt.  The
    pulse is applied once at t1 = 0, on prop's blocks as in measure_lr,
    and the pulsed state is streamed to max(t, dt) - dt by prop;
    unperturbed holds the matching unpulsed marginals
    (unperturbed_readout, with the same pulse area).  Each entry is
    (exact estimate with the nominal error bar, sampled estimate or
    None); the sampled one draws from rngs[k] at the k-th time.
    """
    h0 = prop.hamiltonian
    dt = config.pulse_area / h0.j_xy
    pulsed = evolve(prop, psi0, dt, perturbation(h0, config.probe_site, config.lam, config.kind))
    out = []
    for k, state in enumerate(trajectory(prop, pulsed, np.maximum(times, dt) - dt)):
        pert = site_marginal(state, config.readout_site)
        args = (config, pert, state.squared_norm, unperturbed[k])
        exact = lr_estimate(*args, nominal_budget=nominal_budget)
        samp = None if rngs is None else lr_estimate(*args, nominal_budget, rngs[k])
        out.append((exact, samp))
    return out

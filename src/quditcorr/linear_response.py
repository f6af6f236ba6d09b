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

LinearResponseConfig refuses a pulse that no estimate can use and makes
it, a site and a strength on H0's propagator, for measure_lr and lr_trace.

Shot noise is simulated as projective S^z measurements (rng.sample_counts
over the readout site's levels).  The non-Hermitian perturbed branch
loses norm; its shot count shrinks proportionally, by lr_estimate's rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import Propagator, evolve, level_sums, pulse_limit, trajectory
from .hadamard import EXACT, SAMPLED, CorrelatorEstimate
from .register import QuditState, site_marginal
from .rng import sample_counts

HERMITIAN = "hermitian"
NON_HERMITIAN = "non_hermitian"

# Squared norm below which the perturbed branch is considered collapsed.
NORM_COLLAPSE = 1e-6
# Relative growth of a squared norm left to rounding.  The streams after
# a pulse drifted by at most 7.1e-15 on chain10.json's grid at N = 8-11
# (lambda = 0.2, 1 and 5, both kinds).  The longest pulses the work bound
# admits (lambda = 1e-16; 5.2e5, 1.8e5 and 4.6e5 Taylor steps at N = 2, 3
# and 4) moved log |psi|^2 by -1.6e-9 to +8.8e-10: within the margin, by
# 2.7e-10 at N = 4.
NORM_DRIFT = 1e-9


@dataclass(frozen=True)
class LinearResponseConfig:
    """Pulse strength/geometry for one linear-response measurement, checked on construction.

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
        # The estimators divide by lambda * pulse_area, and a pulse grows a
        # squared norm by up to exp(2 lambda pulse_area).
        if self.lam * self.pulse_area < sys.float_info.min:
            raise ValueError(f"lambda * pulse_area underflows for {self.lam!r}")
        growth = 2 * self.lam * self.pulse_area
        if growth >= math.log(sys.float_info.max):
            why = f"2 * lambda * pulse_area = {growth:.6g} for {self.lam!r}"
            raise ValueError(f"{why}: exp of it overflows a float")

    def check_strength(self, n_sites: int, j_xy: float) -> None:
        """Refuse a lambda |J_xy| past dynamics.pulse_limit on a chain of n_sites."""
        strength = self.lam * abs(j_xy)
        if not strength <= pulse_limit(n_sites, self.lam * self.pulse_area):
            why = f"lambda |J_xy| = {strength:.6g} for {self.lam!r} at {n_sites} sites"
            raise ValueError(f"{why}: the Taylor kernel's products with the pulse may overflow")

    def pulse(self, prop: Propagator) -> Propagator:
        """prop, of H0, pulsed by -lambda*J_xy*S_p^z, times i for the non-Hermitian kind."""
        self.check_strength(prop.hamiltonian.n_sites, prop.hamiltonian.j_xy)
        strength = -(self.lam * prop.hamiltonian.j_xy)
        return prop.pulse(self.probe_site, strength if self.kind == HERMITIAN else 1j * strength)


# Eigenvalues m of spin-1 S^z in basis order.
_SZ_LEVELS = np.array([1.0, 0.0, -1.0])


def _sz_moments(p, shots=None, rngs=None) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of S^z under each site marginal of p, or under shots draws from it.

    p is (T, R, 3): R marginals at each of T points.  With rngs, one
    sample_counts call draws shots (one count, or one per row of a point)
    from the trace, the R rows of point t on rngs[t].  Both results are
    (T, R).
    """
    p = np.asarray(p, dtype=float)
    weights, total = (p, 1.0) if rngs is None else (sample_counts(p, shots, rngs), shots)
    mean = (weights @ _SZ_LEVELS) / total
    return mean, np.maximum((weights @ _SZ_LEVELS**2) / total - np.square(mean), 0.0)


def site_expectations(p, shots: int | None = None, rngs=None) -> list[CorrelatorEstimate]:
    """<S^z> at T points for each of the R site marginals of p (T, R, 3).

    One estimate over the T points per row.  Without rngs the values are
    exact, with the error bars and shot counts of shots projective draws
    per row (none when shots is None); with rngs they are drawn, the
    rows of point t together from rngs[t], and shots may not be None.
    """
    mean, var = _sz_moments(p, shots, rngs)
    std = np.zeros_like(mean) if shots is None else np.sqrt(var / shots)
    n, mode = np.full(mean.shape, shots or 0), EXACT if rngs is None else SAMPLED
    return [CorrelatorEstimate(*row, mode) for row in zip(mean.T, std.T, n.T)]


def measure_site_expectation(
    state: QuditState, site: int, shots: int | None = None, rng=None
) -> CorrelatorEstimate:
    """<S_site^z> of a state: site_expectations' one-point case, sampled only with rng."""
    rngs = None if rng is None else [rng]
    (est,) = site_expectations([[site_marginal(state, site)]], shots, rngs)
    return est.points()[0]


def lr_estimate(
    config: LinearResponseConfig,
    pert,
    pert_norm,
    unpert,
    budget: int | None = None,
    rngs=None,
) -> CorrelatorEstimate:
    """The LR estimator at T points, from the readout-site S^z distributions of both branches.

    pert and unpert are (T, 3): the outcome distributions on the readout
    site at t2 of the pulsed and the unpulsed branch; pert_norm (T,) holds
    the squared norms of the pulsed branch.  budget is the per-point
    total, half to each branch.  Without rngs the values are exact, with
    the error bars and shot counts of that budget (none when it is None),
    computed from the exact per-branch S^z variances; with rngs they are
    sampled, in one sample_counts call, both branches of point t on
    rngs[t].  The estimate holds (T,) arrays.
    """
    pert_norm = np.asarray(pert_norm, dtype=float)
    low = pert_norm[~(pert_norm >= NORM_COLLAPSE)]  # NaN fails too
    if low.size:
        raise ValueError(f"perturbed branch collapsed (squared norm {low.min():.3e})")
    denom = config.lam * config.pulse_area
    # A pulse grows a normalized state's squared norm at a rate of at most
    # 2 lambda J_xy, so to exp(2 denom); compared as logarithms.
    if np.any(np.log(pert_norm) > 2 * denom + NORM_DRIFT):
        bound = f"exp(2 lambda pulse_area) = exp({2 * denom:.6g})"
        raise ValueError(f"pulsed squared norm {pert_norm.max():.6g} exceeds its bound {bound}")
    if budget is not None and budget < 2 or budget is None and rngs is not None:
        raise ValueError("need a per-point budget of at least 2 shots, one per branch")
    n_branch = 0 if budget is None else budget // 2
    n_pert = np.full(pert_norm.shape, n_branch)
    if budget and config.kind == NON_HERMITIAN:
        # The branch keeps the share of shots that its squared norm keeps:
        # slight growth above 1 (second order in the pulse) keeps the
        # nominal count, and np.rint rounds half to even, as round() does.
        n_pert = np.maximum(1, np.rint(n_branch * np.minimum(pert_norm, 1.0))).astype(np.int64)
    # Sampling from the renormalized marginal realizes <.>/<1> directly.
    shots = np.stack([n_pert, np.full_like(n_pert, n_branch)], axis=-1)
    mean, var = _sz_moments(np.stack([pert, unpert], axis=1), shots, rngs)
    (e_p, e_u), (var_p, var_u) = mean.T, var.T
    std = np.sqrt(var_p / n_pert + var_u / n_branch) / denom if budget else np.zeros_like(e_p)
    mode = EXACT if rngs is None else SAMPLED
    # Negated quotient: pinned against the brute-force oracle.
    return CorrelatorEstimate((e_u - e_p) / denom, std, n_pert + n_branch, mode)


def measure_lr(
    config: LinearResponseConfig,
    t1: float,
    t2: float,
    psi0: QuditState,
    prop: Propagator,
    budget: int | None = None,
    rng=None,
) -> CorrelatorEstimate:
    """One linear-response estimate of C-(t1,t2) or C+(t1,t2): lr_estimate's one-point case.

    budget is the per-point total; half goes to each branch.  Exact
    without rng, with that budget's error bars (none when it is None);
    sampled on rng.  The perturbed and unperturbed branches share the
    same total duration so the difference quotient isolates the
    response.  prop propagates H0, whose J_xy sets the pulse duration.
    The pulse is config.pulse(prop): a short pulse needs only a few Taylor
    products, and no block is diagonalized for it.
    """
    dt = config.pulse_area / prop.hamiltonian.j_xy
    if t2 < t1 + dt:
        raise ValueError(f"need t2 >= t1 + pulse duration ({t1 + dt:g}), got {t2:g}")

    pert = evolve(prop, evolve(config.pulse(prop), evolve(prop, psi0, t1), dt), t2 - t1 - dt)
    unpert = evolve(prop, psi0, t2)
    site = config.readout_site
    args = ([site_marginal(pert, site)], [pert.squared_norm], [site_marginal(unpert, site)])
    return lr_estimate(config, *args, budget, None if rng is None else [rng]).points()[0]


def unperturbed_readout(
    prop: Propagator, start, site: int, pulse_area: float, times, marginals
) -> np.ndarray:
    """Readout-site marginals (T, 3) of the unpulsed branch at max(t, dt).

    marginals are the site's marginals of U(t)|psi0> at the times (the
    Hadamard trace's); the rows at t < dt, the pulse duration
    pulse_area / J_xy of prop's Hamiltonian, become the level_sums of one
    trajectory of psi0's start to dt.  No pulse strength or kind enters, so
    every LR trace of a study shares it.
    """
    dt = pulse_area / prop.hamiltonian.j_xy
    index, (x,) = trajectory(prop, start, [dt])  # as site_marginal: over |x|^2, then the sum
    p = np.abs(x[0]) ** 2 @ level_sums(index, prop.hamiltonian.n_sites, site) / np.vdot(x, x).real
    readout = np.array(marginals, dtype=float)
    readout[np.asarray(times) < dt] = p / p.sum()
    return readout


def lr_trace(
    config: LinearResponseConfig, start, prop: Propagator, times
) -> tuple[np.ndarray, np.ndarray]:
    """Readout marginals (T, 3) and squared norms (T,) of the pulsed branch of C(0, t).

    prop propagates H0, whose J_xy sets the pulse duration dt.  The
    pulse runs once at t1 = 0 from psi0's start, and its output starts the
    stream to max(t, dt) - dt, in block coordinates; both results are
    level_sums of |x|^2 on the readout site.  With unperturbed_readout's
    unpulsed marginals (same pulse area), lr_estimate gives measure_lr's.
    """
    dt = config.pulse_area / prop.hamiltonian.j_xy
    index, (pulsed,) = trajectory(config.pulse(prop), start, [dt])
    index, points = trajectory(prop, (index, pulsed), np.maximum(times, dt) - dt)
    sums = level_sums(index, prop.hamiltonian.n_sites, config.readout_site)
    p = np.array([np.abs(x[0]) ** 2 @ sums for x in points])
    return p / p.sum(axis=1, keepdims=True), p.sum(axis=1)

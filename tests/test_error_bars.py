"""Every estimator's reported error bar against the scatter it predicts.

At N = 4 on a six-point grid, at the default budgets, each estimator
of a study is sampled on SEEDS task_rng seeds per point, drawn as the
study draws them.  Per point, the RMS of the sampled std_error and the
exact-mode bar are compared with the empirical std over the seeds, and
|sampled - exact| <= 1.96 sigma is counted.  At 2000 seeds every bar is
within 5 % of the scatter and covers 94-96 % of seeds; the bounds below
widen that for SEEDS: the empirical std of 400 draws is itself off by
about 3.5 % (one sigma), and a coverage fraction by about 1.1 %.
"""

import numpy as np
import pytest

import quditcorr.hadamard as hadamard
from quditcorr.benchmark import (
    LR_KINDS,
    RunConfig,
    connected_anticommutator,
    hadamard_estimate,
    quench_system,
)
from quditcorr.hadamard import CorrelatorEstimate, estimate_from_probabilities, trace_probabilities
from quditcorr.linear_response import (
    LinearResponseConfig,
    lr_estimate,
    lr_trace,
    site_expectations,
    unperturbed_readout,
)
from quditcorr.rng import sample_counts, task_rng

SEEDS = 400
BAR_RATIO = (0.85, 1.15)  # reported bar / empirical std, per point
POINT_COVERAGE = (0.90, 0.99)
POOLED_COVERAGE = (0.93, 0.97)  # over the points of one estimator


def stacked(draws):
    """(values, std_errors), each (seeds, T), of one estimate per seed."""
    return np.array([d.value for d in draws]), np.array([d.std_error for d in draws])


@pytest.fixture(scope="module")
def draws():
    """name -> (exact estimate, sampled values, their std_errors) for each estimator of a study."""
    config = RunConfig(n_sites=4, lambdas=(0.2,))
    prop, psi0, obs_a, obs_b = quench_system(config)
    site_a, site_b = obs_a.support[0], obs_b.support[0]
    grid = np.linspace(0.0, 5.0, 6)
    points = range(grid.size)
    probabilities = trace_probabilities(obs_a, obs_b, psi0, prop, grid)
    args = (obs_a, obs_b, probabilities, config.shots["hadamard"])
    found = {}
    for i, name in enumerate(("hadamard-plus", "hadamard-minus")):
        draws = [hadamard_estimate(*args, [task_rng(s, 1, ti) for ti in points])[i]
                 for s in range(SEEDS)]
        found[name] = (hadamard_estimate(*args)[i], *stacked(draws))
    marginals_b = probabilities[2][:, 1]
    readout = unperturbed_readout(prop, psi0, site_b, config.pulse_area, grid, marginals_b)
    for kind, stream, key in LR_KINDS:
        lr = LinearResponseConfig(0.2, config.pulse_area, site_a, site_b, kind)
        lr_args = (lr, *lr_trace(lr, psi0, prop, grid), readout, config.shots["lr"][key])
        draws = [lr_estimate(*lr_args, [task_rng(s, 2, 0, ti, stream) for ti in points])
                 for s in range(SEEDS)]
        found[f"lr-{key}"] = (lr_estimate(*lr_args), *stacked(draws))
    return found


@pytest.mark.parametrize("name", ["hadamard-plus", "hadamard-minus", "lr-plus", "lr-minus"])
def test_error_bars_match_the_scatter_over_seeds(draws, name):
    exact, values, bars = draws[name]
    scatter = values.std(axis=0, ddof=1)
    points = slice(None)
    if name == "hadamard-plus":
        # At t = 0 the raw anti-commutator is certain and <A> = <B> = 0, so
        # the first-order bar is 0 exactly while 2 mean(A) mean(B) scatters:
        # the term connected_anticommutator drops (ROADMAP item 15).
        assert exact.std_error[0] == 0.0 and scatter[0] > 0
        points = slice(1, None)
    rms = np.sqrt(np.mean(bars**2, axis=0))
    for bar in (rms, exact.std_error):
        ratio = bar[points] / scatter[points]
        assert np.all((BAR_RATIO[0] <= ratio) & (ratio <= BAR_RATIO[1])), ratio
    coverage = (np.abs(values - exact.value) <= 1.96 * bars).mean(axis=0)[points]
    assert np.all((POINT_COVERAGE[0] <= coverage) & (coverage <= POINT_COVERAGE[1])), coverage
    assert POOLED_COVERAGE[0] <= coverage.mean() <= POOLED_COVERAGE[1], coverage.mean()


def test_error_bars_square_by_ieee_multiplication(monkeypatch):
    # Every square inside an error bar is np.square, correctly rounded on
    # every platform.  Python's x ** 2 calls libm's pow, which differs from
    # it in the last bit on some of these 10^5 inputs in each estimator.
    gen, t = np.random.default_rng(2024), 100_000
    raw, exp_a, exp_b = (
        CorrelatorEstimate(gen.normal(size=t), gen.random(t), np.ones(t, dtype=int), "exact")
        for _ in range(3)
    )
    var = (
        np.square(raw.std_error)
        + 4.0 * np.square(exp_b.value * exp_a.std_error)
        + 4.0 * np.square(exp_a.value * exp_b.std_error)
    )
    assert np.array_equal(connected_anticommutator(raw, exp_a, exp_b).std_error, np.sqrt(var))

    p, shots, levels = gen.dirichlet(np.ones(3), size=(t, 1)), 1500, np.array([1.0, 0.0, -1.0])
    mean = (p @ levels) / 1.0
    var = np.maximum((p @ levels**2) / 1.0 - np.square(mean), 0.0)
    (exact,) = site_expectations(p, shots)
    assert np.array_equal(exact.std_error, np.sqrt(var / shots)[:, 0])

    drawn = []

    def recording(*args):
        drawn.append(sample_counts(*args))
        return drawn[-1]

    monkeypatch.setattr(hadamard, "sample_counts", recording)
    ps, n = gen.random((t, 4)), 1500
    sampled = estimate_from_probabilities(ps, 2.0, 3.0, n, [task_rng(5)] * t)
    qs = drawn[0][..., 0] / n
    sq = np.square(4.0 * np.sqrt(qs * (1.0 - qs) / n))
    var = 1.5**2 * (sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3])  # (2 * 3 / 4)^2, summed in order
    assert np.array_equal(sampled.std_error, np.sqrt(var))

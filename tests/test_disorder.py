import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import erfc

from spinchaos.disorder import (DisorderModel, continuous_path, couple_symmetric,
                                discrete_path, levy_a_n, perturb_continuous,
                                perturb_discrete, rho)
from spinchaos.errors import ValidationError
from spinchaos.rng import substream


def test_model_validation():
    assert DisorderModel("identity").kind == "identity"
    with pytest.raises(ValidationError):
        DisorderModel("cauchy")
    with pytest.raises(ValidationError):
        DisorderModel("scaled-tanh", kappa=0.0)
    for kappa in (math.inf, math.nan):  # rho(0) would be inf * 0, nan
        with pytest.raises(ValidationError, match="finite kappa"):
            DisorderModel("scaled-tanh", kappa=kappa)
    with pytest.raises(ValidationError):
        DisorderModel("pareto-tail", alpha=2.0)
    with pytest.raises(ValidationError):
        DisorderModel("pareto-tail", alpha=1.0)


def test_rho_formulas():
    x = np.linspace(-4, 4, 41)
    assert np.array_equal(rho(DisorderModel("identity"), x), x)
    m = DisorderModel("scaled-tanh", kappa=0.7)
    assert np.array_equal(rho(m, x), np.tanh(0.7 * x))
    p = DisorderModel("pareto-tail", alpha=1.5)
    want = np.sign(x) * erfc(np.abs(x) / math.sqrt(2)) ** (-1 / 1.5)
    assert np.allclose(rho(p, x), want, rtol=1e-14)
    assert rho(p, np.array([0.0]))[0] == 0.0


def test_rho_scaled_tanh_saturates_without_overflow():
    # kappa x overflows to +-inf, whose tanh +-1 is the exact limit
    m = DisorderModel("scaled-tanh", kappa=1e308)
    assert np.array_equal(rho(m, np.array([0.5, -2.0, 0.0])), [1.0, -1.0, 0.0])


def test_rho_oddness_grid():
    x = np.linspace(-10, 10, 2001)
    for m in (DisorderModel("identity"), DisorderModel("scaled-tanh", kappa=2.0),
              DisorderModel("pareto-tail", alpha=1.2)):
        assert np.max(np.abs(rho(m, x) + rho(m, -x))) == 0.0


def test_pareto_tail_quantiles():
    # |rho(X)| has survival y^-alpha for y >= 1; invert deterministically:
    # erfc(x / sqrt(2)) = 2 norm.sf(x) = q maps to |rho| = q^(-1/alpha)
    alpha = 1.5
    m = DisorderModel("pareto-tail", alpha=alpha)
    for q in (0.5, 0.1, 0.01, 1e-4):
        x = float(stats.norm.isf(q / 2))
        y = abs(rho(m, np.array([x]))[0])
        assert y == pytest.approx(q ** (-1 / alpha), rel=1e-9)


def test_pareto_tail_empirical(rng):
    alpha = 1.3
    m = DisorderModel("pareto-tail", alpha=alpha)
    x = rng.standard_normal(200_000)
    y = np.abs(rho(m, x))
    assert np.all(y >= 1.0)
    for thresh in (1.0, 2.0, 5.0):
        p_hat = (y > thresh).mean()
        p = thresh ** -alpha
        se = math.sqrt(p * (1 - p) / len(y)) + 1e-12
        assert abs(p_hat - p) < 4 * se


# ---------------------------------------------------------------------------
# one-shot perturbations


def test_perturb_t0_is_identity(rng):
    x = rng.standard_normal(1000)
    g = substream(11, "t0")
    assert np.array_equal(perturb_continuous(x, 0.0, g), x)
    assert np.array_equal(perturb_discrete(x, 0.0, g), x)


def test_continuous_law_and_correlation():
    n = 1_000_000
    g = substream(5, "cont")
    x = g.standard_normal(n)
    t = 0.6
    y = perturb_continuous(x, t, g)
    assert stats.kstest(y, "norm").statistic < 0.002
    r = float(np.corrcoef(x, y)[0, 1])
    assert abs(r - math.exp(-t)) < 4 / math.sqrt(n)


def test_discrete_law_and_kept_fraction():
    n = 1_000_000
    g = substream(6, "disc")
    x = g.standard_normal(n)
    t = math.log(2.0)
    y = perturb_discrete(x, t, g)
    assert stats.kstest(y, "norm").statistic < 0.002
    kept = (y == x).mean()
    p = math.exp(-t)
    assert abs(kept - p) < 4 * math.sqrt(p * (1 - p) / n)
    changed = y[y != x]  # replacements are fresh draws, not rescaled copies
    assert stats.kstest(changed, "norm").statistic < 0.005


def test_rho_commutes_with_bernoulli_mixture(rng):
    # rho(B J + (1-B) J') = B rho(J) + (1-B) rho(J') exactly, B binary
    j = rng.standard_normal(4000)
    jp = rng.standard_normal(4000)
    b = rng.integers(0, 2, 4000).astype(float)
    mixed = b * j + (1 - b) * jp
    for m in (DisorderModel("scaled-tanh", kappa=1.3),
              DisorderModel("pareto-tail", alpha=1.5)):
        lhs = rho(m, mixed)
        rhs = b * rho(m, j) + (1 - b) * rho(m, jp)
        assert np.array_equal(lhs, rhs)


def test_couple_symmetric():
    n = 500_000
    g = substream(8, "sym")
    base = g.standard_normal(n)
    t = 0.9
    a, b = couple_symmetric(base, t, g)
    for side in (a, b):
        assert stats.kstest(side, "norm").statistic < 0.003
    r = float(np.corrcoef(a, b)[0, 1])
    assert abs(r - math.exp(-t)) < 5 / math.sqrt(n)
    a0, b0 = couple_symmetric(base, 0.0, g)
    assert np.array_equal(a0, base) and np.array_equal(b0, base)


# ---------------------------------------------------------------------------
# pathwise couplings along a grid


def test_continuous_path_covariances():
    grid = [0.0, 0.2, 0.5, 1.1]
    n = 400_000
    g = substream(9, "contpath")
    base = g.standard_normal(n)
    path = continuous_path(base, grid, g)
    assert path.shape == (len(grid), n)
    assert np.array_equal(path[0], base)
    for k, t in enumerate(grid):
        r = float(np.corrcoef(base, path[k])[0, 1])
        assert abs(r - math.exp(-t)) < 5 / math.sqrt(n)
    # Markov increment between consecutive grid points
    r23 = float(np.corrcoef(path[2], path[3])[0, 1])
    assert abs(r23 - math.exp(-(grid[3] - grid[2]))) < 5 / math.sqrt(n)
    for k in range(len(grid)):
        assert stats.kstest(path[k], "norm").statistic < 0.003


def test_discrete_path_single_refresh():
    grid = [0.0, 0.3, 0.8, 2.0]
    n = 200_000
    g = substream(10, "discpath")
    base = g.standard_normal(n)
    path = discrete_path(base, grid, g)
    assert np.array_equal(path[0], base)
    same = path == base[None, :]
    for k in range(1, len(grid)):
        # once refreshed, a coordinate never reverts
        assert not np.any(same[k] & ~same[k - 1])
    # every refreshed coordinate carries the same single fresh value
    early = ~same[1]
    assert np.array_equal(path[1][early], path[-1][early])
    for k, t in enumerate(grid):
        p = math.exp(-t)
        kept = same[k].mean()
        assert abs(kept - p) < 4 * math.sqrt(max(p * (1 - p), 1e-12) / n) + 1e-9


def test_path_grid_validation(rng):
    base = rng.standard_normal(10)
    g = substream(12, "bad")
    with pytest.raises(ValidationError):
        continuous_path(base, [], g)
    with pytest.raises(ValidationError):
        continuous_path(base, [0.0, 0.5, 0.5], g)
    with pytest.raises(ValidationError):
        discrete_path(base, [-0.1, 0.2], g)


def test_grid_need_not_start_at_zero():
    g = substream(13, "offset")
    base = g.standard_normal(50_000)
    path = continuous_path(base, [0.4, 1.0], g)
    r = float(np.corrcoef(base, path[0])[0, 1])
    assert abs(r - math.exp(-0.4)) < 0.02


def test_levy_a_n():
    assert levy_a_n(16, 1.6) == pytest.approx(16 ** (1 / 1.6))
    assert levy_a_n(81, 1.5) == pytest.approx(81 ** (2 / 3))
    for n in (0, True):  # a bool is no size
        with pytest.raises(ValidationError):
            levy_a_n(n, 1.5)
    with pytest.raises(ValidationError):
        levy_a_n(16, 2.5)

"""Disorder layer: base Gaussian couplings, pointwise maps rho, and the
two resampling semigroups.

All randomness enters through numpy Generators handed in by the caller;
nothing here owns a seed. Perturbations act on the base Gaussian layer,
rho is applied downstream by the model layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _integer

KINDS = ("identity", "scaled-tanh", "pareto-tail")
PERTURBATION_KINDS = ("continuous", "discrete")  # the two resampling semigroups


@dataclass(frozen=True)
class DisorderModel:
    kind: str
    kappa: float = 1.0
    alpha: float = 1.5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown disorder kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "scaled-tanh" and not 0 < self.kappa < math.inf:  # inf * 0 is nan
            raise ValidationError(f"scaled-tanh needs a finite kappa > 0, got {self.kappa}")
        if self.kind == "pareto-tail" and not 1.0 < self.alpha < 2.0:
            raise ValidationError(f"pareto-tail needs alpha in (1, 2), got {self.alpha}")


def rho(model: DisorderModel, x):
    """Apply the coupling map elementwise. Always odd in x.

    identity: x as a float64 array, not a copy, so a float64 array comes
    back itself; every caller only reads the result.
    pareto-tail: sign(x) * (2 (1 - Phi(|x|)))^(-1/alpha), so |rho(J)| of a
    standard Gaussian J is exactly Pareto(alpha) on [1, inf); rho(0) = 0.
    """
    x = np.asarray(x, dtype=float)
    if model.kind == "identity":
        return x
    if model.kind == "scaled-tanh":
        with np.errstate(over="ignore"):  # tanh(+-inf) = +-1 is the exact limit
            return np.tanh(model.kappa * x)
    from scipy.special import erfc  # here: scipy.special costs about 0.35 s to import
    tail = erfc(np.abs(x) / math.sqrt(2.0))  # = 2 (1 - Phi(|x|))
    return np.sign(x) * tail ** (-1.0 / model.alpha)


def _check_t(t: float) -> float:
    t = float(t)
    if not t >= 0 or math.isnan(t):
        raise ValidationError(f"perturbation time must be >= 0, got {t}")
    return t


def perturb_continuous(J, t: float, rng: np.random.Generator):
    """J(t) = e^-t J + sqrt(1 - e^-2t) J' with fresh J'."""
    t = _check_t(t)
    J = np.asarray(J, dtype=float)
    if t == 0.0:
        return J.copy()
    c = math.exp(-t)
    return c * J + math.sqrt(1.0 - c * c) * rng.standard_normal(J.shape)


def perturb_discrete(J, t: float, rng: np.random.Generator):
    """Resample each coordinate independently with probability 1 - e^-t."""
    t = _check_t(t)
    J = np.asarray(J, dtype=float)
    if t == 0.0:
        return J.copy()
    keep = rng.random(J.shape) < math.exp(-t)
    return np.where(keep, J, rng.standard_normal(J.shape))


def couple_symmetric(J, t: float, rng: np.random.Generator):
    """Exchangeable pair (J1(t), J2(t)) distributed as (J, J(t)).

    J^k(t) = e^(-t/2) J + sqrt(1 - e^-t) J^k with independent fresh J^k,
    so each marginal is standard Gaussian and the cross-covariance of
    matching coordinates is e^-t. Continuous (Gaussian) kind only.
    """
    t = _check_t(t)
    J = np.asarray(J, dtype=float)
    if t == 0.0:
        return J.copy(), J.copy()
    c = math.exp(-t / 2.0)
    s = math.sqrt(1.0 - c * c)
    return (c * J + s * rng.standard_normal(J.shape),
            c * J + s * rng.standard_normal(J.shape))


def continuous_path(J, t_grid, rng: np.random.Generator):
    """J(t) across a sorted grid, evolved sequentially so one replica's
    curve is sampled from a single coupled path. Returns (len(grid), *J.shape)."""
    J = np.asarray(J, dtype=float)
    grid = check_grid(t_grid)
    out = np.empty((len(grid),) + J.shape)
    cur, cur_t = J.copy(), 0.0
    for k, t in enumerate(grid):
        cur = perturb_continuous(cur, t - cur_t, rng)
        cur_t = t
        out[k] = cur
    return out


def discrete_path(J, t_grid, rng: np.random.Generator):
    """Discrete-kind path via per-coordinate exponential clocks: coordinate
    e is replaced by a fresh draw after time T_e ~ Exp(1), which makes each
    marginal J(t) = B J + (1-B) J' with B ~ Ber(e^-t)."""
    J = np.asarray(J, dtype=float)
    grid = check_grid(t_grid)
    clocks = rng.exponential(1.0, J.shape)
    fresh = rng.standard_normal(J.shape)
    out = np.empty((len(grid),) + J.shape)
    for k, t in enumerate(grid):
        out[k] = np.where(clocks > t, J, fresh)
    return out


def check_grid(t_grid) -> list[float]:
    """The rules of every t grid: nonempty, nonnegative, strictly increasing."""
    grid = [_check_t(t) for t in t_grid]
    if not grid:
        raise ValidationError("empty t grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"t grid must be strictly increasing, got {grid}")
    return grid


def levy_a_n(n: int, alpha: float) -> float:
    """Normalization a_N = N^(1/alpha) for the pure Pareto(alpha) tail."""
    if _integer(n, "N") < 1:
        raise ValidationError(f"N must be a positive int, got {n!r}")
    DisorderModel("pareto-tail", alpha=alpha)  # alpha in (1, 2)
    return float(n) ** (1.0 / alpha)

"""Hermite expansions of disorder functionals.

Works with functionals phi of the base Gaussian couplings, vectorized as
phi(rows) with rows of shape (B, n_edges). Coefficients are against the
orthonormal (probabilist) Hermite basis h_m, E[h_m(J) h_k(J)] = delta_mk
for J standard normal, built from the stable three-term recurrence.

Tensor quadrature grids are capped at 6 coordinates, order 24 per axis,
and 2^22 total nodes; coefficient degrees are capped at 10 per edge and
10 total. Everything past a cap raises CapacityError rather than
degrading silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from . import disorder as dis
from .errors import CapacityError, NumericalError, ValidationError, _integer
from .hypergraph import Hypergraph, MultiIndex, multi_index

MAX_AXES = 6
MAX_ORDER = 24
MAX_GRID = 1 << 22
MAX_TOTAL_DEGREE = 10
MAX_EDGE_DEGREE = 10


def check_order(order: int) -> None:
    """The cap of every Gauss-Hermite rule: order in [1, MAX_ORDER]."""
    if not 1 <= _integer(order, "quadrature order") <= MAX_ORDER:
        raise CapacityError(f"quadrature order must be in [1, {MAX_ORDER}], got {order}")


@lru_cache(maxsize=32)
def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the standard Gaussian probability measure."""
    check_order(order)
    x, w = hermegauss(order)
    return x, w / math.sqrt(2.0 * math.pi)


def hermite_values(max_degree: int, x) -> np.ndarray:
    """h_m(x) for m = 0..max_degree, shape (max_degree + 1, len(x)).

    Recurrence h_{m+1} = (x h_m - sqrt(m) h_{m-1}) / sqrt(m+1), h_0 = 1.
    """
    if _integer(max_degree, "max_degree") < 0:
        raise ValidationError(f"max_degree must be >= 0, got {max_degree}")
    x = np.asarray(x, dtype=float)
    out = np.empty((max_degree + 1,) + x.shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for m in range(1, max_degree):
        out[m + 1] = (x * out[m] - math.sqrt(m) * out[m - 1]) / math.sqrt(m + 1)
    return out


def _check_index(n: MultiIndex, n_edges: int):
    n.check_edges(n_edges)
    if n.total_degree > MAX_TOTAL_DEGREE:
        raise CapacityError(f"|n| = {n.total_degree} above cap {MAX_TOTAL_DEGREE}")
    for eid, d in n.degrees:
        if d > MAX_EDGE_DEGREE:
            raise CapacityError(f"n_{eid} = {d} above cap {MAX_EDGE_DEGREE}")


def _check_grid(n_edges: int, order: int):
    if _integer(n_edges, "n_edges") < 1:
        raise ValidationError("need at least one coordinate")
    if n_edges > MAX_AXES:
        raise CapacityError(f"tensor quadrature capped at {MAX_AXES} coordinates, got {n_edges}")
    check_order(order)
    if order ** n_edges > MAX_GRID:
        raise CapacityError(f"grid {order}^{n_edges} exceeds {MAX_GRID} nodes")


def check_sweep(n_edges: int, degree_cap: int, order: int):
    """The caps of coefficient_sweep: its tensor grid and degree cap."""
    _check_grid(n_edges, order)
    if not 0 <= _integer(degree_cap, "degree cap") <= MAX_TOTAL_DEGREE:
        raise CapacityError(f"degree cap must be in [0, {MAX_TOTAL_DEGREE}], got {degree_cap}")


def _grid_blocks(n_edges: int, order: int):
    """Yield (rows, log-free weight, per-axis digit array) over the full
    tensor grid in C order, 2^16 nodes at a time, so the grid never fully
    exists."""
    x, w = gauss_hermite(order)
    total = order ** n_edges
    powers = [order ** (n_edges - 1 - k) for k in range(n_edges)]
    for start in range(0, total, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), total), dtype=np.int64)
        digits = np.empty((len(idx), n_edges), dtype=np.int64)
        for k, p in enumerate(powers):
            digits[:, k] = (idx // p) % order
        rows = x[digits]
        weight = w[digits[:, 0]]
        for k in range(1, n_edges):  # left to right, as prod(axis=1), without a (B, n_edges) copy
            weight *= w[digits[:, k]]
        yield rows, weight, digits


def coeff_quadrature(phi, n_edges: int, n: MultiIndex, order: int) -> float:
    """phi_hat(n) = E[phi(J) h_n(J)] by tensor Gauss-Hermite quadrature."""
    _check_grid(n_edges, order)
    _check_index(n, n_edges)
    deg = n.as_dict()
    x, _ = gauss_hermite(order)
    hvals = hermite_values(max(deg.values(), default=0), x)
    acc = 0.0
    for rows, weight, digits in _grid_blocks(n_edges, order):
        f = weight * np.asarray(phi(rows), dtype=float)
        for eid, d in deg.items():
            f *= hvals[d][digits[:, eid]]
        acc += float(f.sum())
    return acc


def adaptive_gaussian_mean(f) -> float:
    """E[f(X)] for standard Gaussian X by adaptive 1-D quadrature.

    For one-dimensional factors this reaches tolerances the fixed
    tensor grid cannot; the caller is responsible for f being scalar
    on scalars (it is wrapped for the vectorized convention used by
    phi callables elsewhere)."""
    from scipy.integrate import quad  # here: scipy.integrate costs about 0.5 s to import
    dens = 1.0 / math.sqrt(2.0 * math.pi)

    def integrand(x: float) -> float:
        return float(f(x)) * dens * math.exp(-0.5 * x * x)

    val, err = quad(integrand, -np.inf, np.inf, epsabs=1e-12, limit=400)
    if not math.isfinite(val) or err > 1e-7:
        raise NumericalError(f"adaptive quadrature did not converge (err={err:g})")
    return val


@dataclass(frozen=True)
class CoefficientEntry:
    n: MultiIndex
    value: float


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients up to a total-degree cap, plus E[phi^2] on the same grid."""

    entries: tuple[CoefficientEntry, ...]
    e_phi_sq: float


def coefficient_sweep(phi, n_edges: int, degree_cap: int, order: int) -> CoefficientTable:
    """All coefficients with |n| <= degree_cap via one separated tensor
    transform: phi is evaluated once on the grid, then contracted axis by
    axis with the weighted Hermite matrix."""
    check_sweep(n_edges, degree_cap, order)
    x, w = gauss_hermite(order)
    hv = hermite_values(degree_cap, x)  # (cap+1, order)
    transform = hv * w[None, :]

    flat = np.empty(order ** n_edges)
    e2 = 0.0
    pos = 0
    for rows, weight, _ in _grid_blocks(n_edges, order):
        vals = np.asarray(phi(rows), dtype=float)
        flat[pos:pos + len(vals)] = vals
        e2 += float((weight * vals * vals).sum())
        pos += len(vals)
    tensor = flat.reshape((order,) * n_edges)
    for _ in range(n_edges):
        tensor = np.tensordot(tensor, transform, axes=([0], [1]))

    entries = []
    for degs in _indices_up_to(n_edges, degree_cap):
        val = float(tensor[degs])
        entries.append(CoefficientEntry(n=multi_index(enumerate(degs)), value=val))
    return CoefficientTable(entries=tuple(entries), e_phi_sq=e2)


def _indices_up_to(n_axes: int, cap: int):
    """All degree tuples with sum <= cap, lexicographic."""
    def rec(prefix, remaining, axes_left):
        if axes_left == 0:
            yield tuple(prefix)
            return
        for d in range(remaining + 1):
            yield from rec(prefix + [d], remaining - d, axes_left - 1)
    yield from rec([], cap, n_axes)


def semigroup_weight(n: MultiIndex, t: float, kind: str) -> float:
    """Decay of the mode n under the two resampling semigroups:
    exp(-|n| t) for continuous, exp(-|E(n)| t) for discrete."""
    t = dis._check_t(t)
    if kind not in dis.PERTURBATION_KINDS:
        raise ValidationError(f"perturbation kind must be one of {dis.PERTURBATION_KINDS}")
    return math.exp(-(n.total_degree if kind == "continuous" else len(n.support)) * t)


def weighted_coefficient_sum(table: CoefficientTable, t: float, kind: str) -> float:
    """sum_n w(n, t) phi_hat(n)^2 over the table's entries."""
    return sum(semigroup_weight(ent.n, t, kind) * ent.value ** 2 for ent in table.entries)


def parseval_tail(table: CoefficientTable) -> float:
    """E[phi^2] minus the captured sum of squares. Must be >= -1e-8 relative
    to max(1, E[phi^2]) (Bessel); returned clamped at 0 for use as an
    error budget."""
    captured = sum(ent.value ** 2 for ent in table.entries)
    raw = table.e_phi_sq - captured
    if raw < -1e-8 * max(1.0, abs(table.e_phi_sq)):
        raise NumericalError(f"captured coefficient mass exceeds E[phi^2] by {-raw}")
    return max(0.0, raw)


def sign_criterion(g: Hypergraph, n: MultiIndex, i: int, j: int) -> bool:
    """Whether symmetry forces phi_hat_ij(n) = 0.

    Gauge flip a in {+-1}^N multiplies h_n(J)<sigma_i sigma_j> inside the
    disorder average by I_n(a) = a_i a_j prod_e a_e^{n_e}; writing
    a_v = (-1)^{x_v} gives I_n(a) = (-1)^{<parity, x>}, where parity[v] is
    the GF(2) exponent of a_v. So a flip with I_n(a) = -1 exists iff the
    parity vector is nonzero, that is iff some vertex has odd parity
    (flipping that vertex alone is one such a).
    """
    i, j = g.check_vertex(i), g.check_vertex(j)
    n.check_edges(g.n_edges)
    odd = {i} ^ {j}  # the vertices of odd parity
    for eid in n.odd_support:
        odd ^= set(g.edges[eid])
    return bool(odd)


def conditional_mean_resampled(phi, n_edges: int, fixed: dict[int, float],
                               samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo E[phi(J) | J_S = fixed]: coordinates in `fixed` are
    pinned, the rest are resampled fresh each draw. Returns (mean, se).
    phi sees 2^14 draws at a time; only the running sum and sum of
    squares are kept."""
    n_edges, samples = _integer(n_edges, "n_edges"), _integer(samples, "samples")
    fixed = {_integer(eid, "fixed coordinate"): x for eid, x in fixed.items()}
    for eid in fixed:
        if not 0 <= eid < n_edges:
            raise ValidationError(f"fixed coordinate {eid} outside [0, {n_edges})")
    if samples < 2:
        raise ValidationError(f"need samples >= 2, got {samples}")
    cols = np.array(sorted(fixed), dtype=np.int64)
    vals = np.array([fixed[int(c)] for c in cols])
    total = total_sq = 0.0
    for done in range(0, samples, 1 << 14):
        rows = rng.standard_normal((min(1 << 14, samples - done), n_edges))
        if len(cols):
            rows[:, cols] = vals[None, :]
        f = np.asarray(phi(rows), dtype=float)
        total += float(f.sum())
        total_sq += float((f * f).sum())
    mean = total / samples
    var = max(0.0, (total_sq / samples - mean * mean)) * samples / (samples - 1)
    return mean, math.sqrt(var / samples)

"""Gibbs measures of finite spin systems.

The measure is G(sigma) = exp(+beta H(sigma)) / Z with
H(sigma) = levy_scale * sum_e c_e prod_{v in e} sigma_v, so ground states
are maximizers of H and beta = infinity (represented as beta=None, never
a float) means the uniform measure over ground states.

Exact routines enumerate all 2^N states in blocks with a streaming
log-sum-exp, so N is capped at 24. Larger systems go through the Glauber
sampler or the annealing heuristic, both clearly flagged as estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NumericalError, ValidationError
from .hypergraph import Hypergraph

EXACT_MAX_N = 24
BATCH_MAX_N = 20


@dataclass(frozen=True)
class SpinSystem:
    graph: Hypergraph
    couplings: tuple[float, ...]
    beta: float | None  # None is the distinguished infinite-beta mode
    levy_scale: float = 1.0

    def __post_init__(self):
        if len(self.couplings) != self.graph.n_edges:
            raise ValidationError(
                f"{len(self.couplings)} couplings for {self.graph.n_edges} edges")
        if not all(math.isfinite(c) for c in self.couplings):
            raise ValidationError("couplings must be finite")
        if self.beta is not None:
            b = float(self.beta)
            if not (math.isfinite(b) and b >= 0):
                raise ValidationError(
                    f"beta must be finite and >= 0 or None for infinity, got {self.beta!r}")
        if not (math.isfinite(self.levy_scale) and self.levy_scale > 0):
            raise ValidationError(f"levy_scale must be positive finite, got {self.levy_scale}")

    @property
    def n(self) -> int:
        return self.graph.n


def spin_system(graph: Hypergraph, couplings, beta, levy_scale=1.0) -> SpinSystem:
    """Validated constructor; beta may be a number, None, or 'infinity'."""
    if isinstance(beta, str):
        if beta != "infinity":
            raise ValidationError(f"beta string must be 'infinity', got {beta!r}")
        beta = None
    elif beta is not None:
        beta = float(beta)
        if math.isinf(beta):
            raise ValidationError("pass beta='infinity' or None, not a float inf")
    cs = tuple(float(c) for c in np.asarray(couplings, dtype=float).ravel())
    return SpinSystem(graph, cs, beta, float(levy_scale))


def hamiltonian(system: SpinSystem, sigma) -> float:
    """H(sigma) for one configuration of +-1 spins."""
    s = np.asarray(sigma)
    if s.shape != (system.n,):
        raise ValidationError(f"sigma must have shape ({system.n},), got {s.shape}")
    if not np.all(np.abs(s) == 1):
        raise ValidationError("sigma entries must be +-1")
    total = 0.0
    for c, e in zip(system.couplings, system.graph.edges):
        prod = 1
        for v in e:
            prod *= int(s[v])
        total += c * prod
    return system.levy_scale * total


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pair correlations <sigma_i sigma_j> with diagonal 1, single-spin
    means, and log Z. se is None for exact results, batch-means standard
    errors for sampled ones."""

    corr: np.ndarray
    means: np.ndarray
    log_z: float
    se: np.ndarray | None = None


def _block_states(start: int, stop: int, n: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
    return (2.0 * bits - 1.0)


def _edge_products(states: np.ndarray, edges) -> np.ndarray:
    out = np.empty((states.shape[0], len(edges)))
    for k, e in enumerate(edges):
        p = states[:, e[0]].copy()
        for v in e[1:]:
            p *= states[:, v]
        out[:, k] = p
    return out


def _require_finite_beta(system: SpinSystem) -> float:
    if system.beta is None:
        raise ValidationError("operation needs finite beta; route beta=infinity to ground_states")
    return float(system.beta)


def exact_correlations(system: SpinSystem, block: int = 1 << 20) -> CorrelationMatrix:
    """Exact enumeration over all 2^N states, N <= 24.

    States come in complement pairs (sigma, -sigma) with H(-sigma)
    obtained by flipping the sign of every odd-arity edge coupling, so
    only half the space is enumerated. Besides halving the work this
    makes the global flip symmetry exact in floating point: for even
    models the paired weights are bitwise equal and the means cancel to
    exactly zero. A running log-sum-exp shift keeps the weighted
    accumulators stable while the max energy is discovered online.
    """
    beta = _require_finite_beta(system)
    n = system.n
    if n > EXACT_MAX_N:
        raise CapacityError(f"exact enumeration capped at N={EXACT_MAX_N}, got {n}")
    c_eff = np.asarray(system.couplings) * system.levy_scale
    edges = system.graph.edges
    parity = np.array([(-1.0) ** len(e) for e in edges])

    shift = -math.inf  # current max of beta*H over both half-spaces
    z = 0.0            # sum of exp(beta*H - shift)
    acc_corr = np.zeros((n, n))
    acc_mean = np.zeros(n)
    half = 1 << (n - 1)
    for start in range(0, half, block):
        # states with the top spin pinned to -1; complements cover the rest
        states = _block_states(start, min(start + block, half), n)
        if edges:
            eprod = _edge_products(states, edges)
            be_pos = beta * (eprod @ c_eff)
            be_neg = beta * (eprod @ (parity * c_eff))
        else:
            be_pos = np.zeros(states.shape[0])
            be_neg = be_pos
        m = float(max(be_pos.max(), be_neg.max()))
        if m > shift:
            rescale = math.exp(shift - m) if shift > -math.inf else 0.0
            z *= rescale
            acc_corr *= rescale
            acc_mean *= rescale
            shift = m
        w_pos = np.exp(be_pos - shift)
        w_neg = np.exp(be_neg - shift)
        z += float(w_pos.sum() + w_neg.sum())
        both = w_pos + w_neg
        acc_corr += states.T @ (states * both[:, None])
        acc_mean += (w_pos - w_neg) @ states
    if not (z > 0 and math.isfinite(z)):
        raise NumericalError(f"degenerate partition accumulator z={z}")
    corr = acc_corr / z
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr=corr, means=acc_mean / z, log_z=shift + math.log(z))


@dataclass(frozen=True)
class GroundStates:
    """Maximizers of H. states is (K, N) of +-1; exhaustive marks whether
    every state was examined or a heuristic produced a single candidate."""

    energy: float
    states: np.ndarray
    exhaustive: bool

    @property
    def count(self) -> int:
        return self.states.shape[0]


def ground_states(system: SpinSystem, rel_tol: float = 1e-12, block: int = 1 << 20) -> GroundStates:
    """Exhaustive maximization over 2^N states, ties kept within rel_tol."""
    n = system.n
    if n > EXACT_MAX_N:
        raise CapacityError(f"exhaustive ground states capped at N={EXACT_MAX_N}, got {n}")
    c_eff = np.asarray(system.couplings) * system.levy_scale
    edges = system.graph.edges
    total = 1 << n

    best = -math.inf
    for start in range(0, total, block):
        states = _block_states(start, min(start + block, total), n)
        energies = _edge_products(states, edges) @ c_eff if edges else np.zeros(states.shape[0])
        m = float(energies.max())
        if m > best:
            best = m
    cut = best - rel_tol * max(1.0, abs(best))
    keep = []
    for start in range(0, total, block):
        states = _block_states(start, min(start + block, total), n)
        energies = _edge_products(states, edges) @ c_eff if edges else np.zeros(states.shape[0])
        mask = energies >= cut
        if mask.any():
            keep.append(states[mask])
    return GroundStates(energy=best, states=np.vstack(keep), exhaustive=True)


def ground_state_correlations(gs: GroundStates) -> CorrelationMatrix:
    """Uniform measure over the recorded ground states; log_z is nan
    because the zero-temperature measure has no partition value."""
    states = gs.states.astype(float)
    k = states.shape[0]
    corr = states.T @ states / k
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr=corr, means=states.mean(axis=0), log_z=math.nan)


def anneal_ground_state(system: SpinSystem, rng: np.random.Generator,
                        restarts: int = 8, sweeps: int = 400) -> GroundStates:
    """Simulated annealing heuristic for N beyond the exhaustive cap.

    Returns the single best configuration found, exhaustive=False. No
    optimality guarantee; callers must treat the energy as a lower bound.
    """
    n = system.n
    if n > 200:
        raise CapacityError(f"annealing heuristic capped at N=200, got {n}")
    c_eff = [c * system.levy_scale for c in system.couplings]
    scale = max((abs(c) for c in c_eff), default=1.0) or 1.0
    adj = _adjacency(system.graph, c_eff)
    best_e, best_s = -math.inf, None
    for _ in range(max(1, restarts)):
        sigma = (2 * rng.integers(0, 2, n) - 1).tolist()
        energy = _energy_of(c_eff, system.graph.edges, sigma)
        betas = np.geomspace(0.05 / scale, 8.0 / scale, max(2, sweeps))
        for b in betas:
            order = rng.integers(0, n, n)
            us = rng.random(n)
            for i, u in zip(order, us):
                delta = -2.0 * sigma[i] * _local_field(adj[i], sigma)
                if delta >= 0 or u < math.exp(b * delta):
                    sigma[i] = -sigma[i]
                    energy += delta
        if energy > best_e:
            best_e, best_s = energy, list(sigma)
    return GroundStates(energy=best_e, states=np.array([best_s]), exhaustive=False)


def _adjacency(graph: Hypergraph, c_eff):
    adj = [[] for _ in range(graph.n)]
    for c, e in zip(c_eff, graph.edges):
        for v in e:
            others = tuple(u for u in e if u != v)
            adj[v].append((c, others))
    return adj


def _local_field(entries, sigma):
    m = 0.0
    for c, others in entries:
        p = 1
        for u in others:
            p *= sigma[u]
        m += c * p
    return m


def _energy_of(c_eff, edges, sigma):
    total = 0.0
    for c, e in zip(c_eff, edges):
        p = 1
        for v in e:
            p *= sigma[v]
        total += c * p
    return total


def mcmc_correlations(system: SpinSystem, rng: np.random.Generator,
                      sweeps: int = 20000, burn_in: int = 2000,
                      batches: int = 32) -> CorrelationMatrix:
    """Random-scan Glauber (heat-bath) sampling of pair correlations.

    One correlation sample per sweep after burn-in; standard errors come
    from batch means over `batches` contiguous chunks.
    """
    beta = _require_finite_beta(system)
    if sweeps < batches or batches < 2:
        raise ValidationError(f"need sweeps >= batches >= 2, got {sweeps}, {batches}")
    n = system.n
    c_eff = [c * system.levy_scale for c in system.couplings]
    adj = _adjacency(system.graph, c_eff)
    sigma = (2 * rng.integers(0, 2, n) - 1).tolist()

    def sweep():
        order = rng.integers(0, n, n)
        us = rng.random(n)
        for i, u in zip(order, us):
            m = _local_field(adj[i], sigma)
            # heat bath: P(sigma_i = +1 | rest) = 1/(1 + exp(-2 beta m)),
            # written with tanh so that large |beta m| cannot overflow
            sigma[i] = 1 if u < 0.5 * (1.0 + math.tanh(beta * m)) else -1

    for _ in range(burn_in):
        sweep()
    per_batch = sweeps // batches
    batch_corr = np.zeros((batches, n, n))
    batch_mean = np.zeros((batches, n))
    for b in range(batches):
        acc = np.zeros((n, n))
        accm = np.zeros(n)
        for _ in range(per_batch):
            sweep()
            s = np.asarray(sigma, dtype=float)
            acc += np.outer(s, s)
            accm += s
        batch_corr[b] = acc / per_batch
        batch_mean[b] = accm / per_batch
    corr = batch_corr.mean(axis=0)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    se = batch_corr.std(axis=0, ddof=1) / math.sqrt(batches)
    se = 0.5 * (se + se.T)
    np.fill_diagonal(se, 0.0)
    return CorrelationMatrix(corr=corr, means=batch_mean.mean(axis=0),
                             log_z=math.nan, se=se)


def overlap_second_moment(a: CorrelationMatrix, b: CorrelationMatrix) -> float:
    """<R(sigma,tau)^2> for independent replicas from two fixed-disorder
    measures: (1/N^2) sum_ij <s_i s_j>_a <t_i t_j>_b."""
    if a.corr.shape != b.corr.shape:
        raise ValidationError(f"shape mismatch {a.corr.shape} vs {b.corr.shape}")
    n = a.corr.shape[0]
    return float((a.corr * b.corr).sum()) / (n * n)


@lru_cache(maxsize=6)
def _cached_enumeration(n: int, edges: tuple) -> tuple[np.ndarray, np.ndarray]:
    states = _block_states(0, 1 << n, n)
    return states, _edge_products(states, edges)


def batch_moments(graph: Hypergraph, couplings: np.ndarray, beta: float,
                  pairs, singles=(), levy_scale: float = 1.0,
                  block: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gibbs moments for many coupling vectors at once.

    couplings has shape (B, n_edges); returns (pair_vals, single_vals) of
    shapes (len(pairs), B) and (len(singles), B). This is the vectorized
    kernel behind quadrature grids and Monte Carlo over the disorder.
    """
    n = graph.n
    if n > BATCH_MAX_N:
        raise CapacityError(f"batch enumeration capped at N={BATCH_MAX_N}, got {n}")
    beta = float(beta)
    cs = np.atleast_2d(np.asarray(couplings, dtype=float)) * levy_scale
    if cs.shape[1] != graph.n_edges:
        raise ValidationError(f"couplings must be (B, {graph.n_edges}), got {cs.shape}")
    states, eprod = _cached_enumeration(n, graph.edges)
    pair_obs = [states[:, i] * states[:, j] for i, j in pairs]
    single_obs = [states[:, i] for i in singles]
    nb = cs.shape[0]
    pair_vals = np.empty((len(pair_obs), nb))
    single_vals = np.empty((len(single_obs), nb))
    for start in range(0, nb, block):
        c_blk = cs[start:start + block]
        be = beta * (eprod @ c_blk.T)  # (2^n, b)
        be -= be.max(axis=0, keepdims=True)
        w = np.exp(be)
        denom = w.sum(axis=0)
        for k, obs in enumerate(pair_obs):
            pair_vals[k, start:start + block] = (obs @ w) / denom
        for k, obs in enumerate(single_obs):
            single_vals[k, start:start + block] = (obs @ w) / denom
    return pair_vals, single_vals

"""Gibbs measures of finite spin systems.

The measure is G(sigma) = exp(+beta H(sigma)) / Z with
H(sigma) = levy_scale * sum_e c_e prod_{v in e} sigma_v, so ground states
are maximizers of H and beta = infinity (represented as beta=None, never
a float) means the uniform measure over ground states.

Every exact routine reads one table per graph: the +-1 states whose top
spin is -1 (the other half are their complements) and the products of
each edge's spins, in blocks of at most TABLE_BYTES. The last block built
stays cached, so a graph whose half table fits one block is enumerated
once and reused by every later call. Exact routines are capped at N = 24;
larger systems go through the Glauber sampler, flagged as an estimate.
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
# bytes of one block of the half table (states plus edge products); the
# 2^15-row half table of the complete graph on 16 vertices is one block
TABLE_BYTES = 64 << 20
MCMC_BATCHES = 32  # batch means behind mcmc_correlations' standard errors


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


def _states(idx: np.ndarray, n: int) -> np.ndarray:
    """+-1 rows of the enumeration indices idx: spin k is bit k."""
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


@lru_cache(maxsize=1)
def _table(n: int, edges: tuple, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    states = _states(np.arange(start, stop, dtype=np.int64), n)
    eprod = _edge_products(states, edges)
    states.flags.writeable = False  # shared by every caller of the cache
    eprod.flags.writeable = False
    return states, eprod


def _half_blocks(graph: Hypergraph):
    """(start, states, edge products) blocks over the 2^(N-1) states with
    the top spin at -1, in index order; the complement of index i is
    2^N - 1 - i."""
    n, edges = graph.n, graph.edges
    half = 1 << (n - 1)
    rows = max(1, TABLE_BYTES // (8 * (n + len(edges))))
    for start in range(0, half, rows):
        yield (start, *_table(n, edges, start, min(start + rows, half)))


def _parity(graph: Hypergraph) -> np.ndarray:
    """Sign of each edge's product under the global flip sigma -> -sigma."""
    return np.array([(-1.0) ** len(e) for e in graph.edges])


def _require_finite_beta(system: SpinSystem) -> float:
    if system.beta is None:
        raise ValidationError("operation needs finite beta; route beta=infinity to ground_states")
    return float(system.beta)


def exact_correlations(system: SpinSystem) -> CorrelationMatrix:
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
    c_neg = _parity(system.graph) * c_eff

    shift = -math.inf  # current max of beta*H over both half-spaces
    z = 0.0            # sum of exp(beta*H - shift)
    acc_corr = np.zeros((n, n))
    acc_mean = np.zeros(n)
    for _, states, eprod in _half_blocks(system.graph):
        # states with the top spin pinned to -1; complements cover the rest
        be_pos = beta * (eprod @ c_eff)
        be_neg = beta * (eprod @ c_neg)
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
    """Maximizers of H. states is (K, N) of +-1 in enumeration order;
    exhaustive marks that every state was examined."""

    energy: float
    states: np.ndarray
    exhaustive: bool

    @property
    def count(self) -> int:
        return self.states.shape[0]


def ground_states(system: SpinSystem, rel_tol: float = 1e-12) -> GroundStates:
    """Exhaustive maximization over 2^N states, ties kept within rel_tol.

    One pass over the half table scores each row and its complement.
    Candidates within rel_tol of the running maximum are kept and cut
    again at the final maximum; the states come out in enumeration order.
    """
    n = system.n
    if n > EXACT_MAX_N:
        raise CapacityError(f"exhaustive ground states capped at N={EXACT_MAX_N}, got {n}")
    c_eff = np.asarray(system.couplings) * system.levy_scale
    c_neg = _parity(system.graph) * c_eff
    top = (1 << n) - 1

    def cut():
        return best - rel_tol * max(1.0, abs(best))

    best = -math.inf
    idx, energies = [], []
    for start, _, eprod in _half_blocks(system.graph):
        rows = np.arange(start, start + eprod.shape[0], dtype=np.int64)
        for ids, e in ((rows, eprod @ c_eff), (top - rows, eprod @ c_neg)):
            best = max(best, float(e.max()))
            mask = e >= cut()
            idx.append(ids[mask])
            energies.append(e[mask])
    idx = np.concatenate(idx)[np.concatenate(energies) >= cut()]
    return GroundStates(energy=best, states=_states(np.sort(idx), n), exhaustive=True)


def ground_state_correlations(gs: GroundStates) -> CorrelationMatrix:
    """Uniform measure over the recorded ground states; log_z is nan
    because the zero-temperature measure has no partition value."""
    states = gs.states.astype(float)
    k = states.shape[0]
    corr = states.T @ states / k
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr=corr, means=states.mean(axis=0), log_z=math.nan)


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


def mcmc_correlations(system: SpinSystem, rng: np.random.Generator,
                      sweeps: int = 20000, burn_in: int = 2000,
                      batches: int = MCMC_BATCHES) -> CorrelationMatrix:
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
    # the half table plus its copy with the top spin at +1, whose edge
    # products flip sign on the edges through vertex N-1
    blocks = list(_half_blocks(graph))
    lo = np.vstack([states for _, states, _ in blocks])
    lo_eprod = np.vstack([eprod for _, _, eprod in blocks])
    hi = lo.copy()
    hi[:, n - 1] = 1.0
    flip = np.array([-1.0 if e[-1] == n - 1 else 1.0 for e in graph.edges])
    states = np.vstack((lo, hi))
    eprod = np.vstack((lo_eprod, lo_eprod * flip))
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

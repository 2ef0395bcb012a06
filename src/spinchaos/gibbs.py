"""Gibbs measures of finite spin systems.

The measure is G(sigma) = exp(+beta H(sigma)) / Z with
H(sigma) = levy_scale * sum_e c_e prod_{v in e} sigma_v, so ground states
are maximizers of H and beta = infinity (represented as beta=None, never
a float) means the uniform measure over ground states.

Every exact routine reads one cached table per graph: the 2^b lowest
+-1 states, with every spin at bit b and above at -1, and the products
of each edge's spins, where 2^b is the largest power of two of rows that
fits TABLE_BYTES (at most 2^(N-1)), built by row doubling (_table). Any
block of 2^b consecutive states is that table with some high spins
flipped to +1, so its rows are the table's times +-1 signs (_flip); the
kernels fold the signs into the couplings and accumulators instead of
rebuilding rows. Multiplying by +-1 is exact, so the doubling and the
folding cost no bits. Exact routines are capped at N = 24; larger systems
go through the Glauber sampler, flagged as an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NumericalError, ValidationError, _integer
from .hypergraph import Hypergraph
from .rng import mean_se

EXACT_MAX_N = 24
BATCH_MAX_N = 20
# bytes of the cached table (states plus edge products); the 2^15-row
# half table of the complete graph on 16 vertices fits in one block
TABLE_BYTES = 64 << 20
MCMC_BATCHES = 32  # batch means behind mcmc_correlations' standard errors
# batch_moments sizes its (2^N, columns) float64 work block near
# BATCH_BLOCK_BYTES within BATCH_COLUMNS: with several betas the block and
# its scratch copy then take about half of a 2 MiB L2 (at 1 MiB each, a
# two-beta call at N = 7 ran 1.7x slower)
BATCH_BLOCK_BYTES = 1 << 19
BATCH_COLUMNS = (64, 1024)


def _check_beta(beta) -> float:
    b = float(beta)
    if not (math.isfinite(b) and b >= 0):
        raise ValidationError(f"beta must be finite and >= 0, got {beta!r}")
    return b


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
            _check_beta(self.beta)
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
    cs = tuple(float(c) for c in np.asarray(couplings, dtype=float).ravel())
    return SpinSystem(graph, cs, beta, float(levy_scale))


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


def _flip(graph: Hypergraph, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(per-spin, per-edge) +-1 signs that turn the spins set in bits from
    -1 to +1: the flipped states are states * spin and their edge
    products eprod * sign. bits = 2^N - 1 is the global flip."""
    flipped = (bits >> np.arange(graph.n, dtype=np.int64)) & 1
    # an edge changes sign when it holds an odd number of flipped spins
    count = np.add.reduceat(flipped[graph.flat], graph.offsets[:-1])
    return 1.0 - 2.0 * flipped, 1.0 - 2.0 * (count & 1)


def _table(graph: Hypergraph, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(states, edge products) of the indices 0..rows - 1, rows a power of
    two, by doubling: row 0 has every spin at -1, and rows 2^v..2^(v+1) - 1
    are rows 0..2^v - 1 times the signs of _flip(graph, 2^v)."""
    states = np.empty((rows, graph.n))
    eprod = np.empty((rows, graph.n_edges))
    states[0], eprod[0] = _flip(graph, (1 << graph.n) - 1)
    for v in range(rows.bit_length() - 1):
        spin, sign = _flip(graph, 1 << v)
        np.multiply(states[:1 << v], spin, out=states[1 << v:2 << v])
        np.multiply(eprod[:1 << v], sign, out=eprod[1 << v:2 << v])
    return states, eprod


@lru_cache(maxsize=1)
def _low_table(graph: Hypergraph, rows: int) -> tuple[np.ndarray, np.ndarray]:
    states, eprod = _table(graph, rows)
    states.flags.writeable = False  # shared by every caller of the cache
    eprod.flags.writeable = False
    return states, eprod


def _half_blocks(graph: Hypergraph):
    """(start, states, edge products, spin signs, edge signs) blocks over
    the 2^(N-1) states with the top spin at -1, in index order. states
    and edge products are the cached low table; the block's own are them
    times the signs of _flip(graph, start). The complement of index i is
    2^N - 1 - i."""
    half = 1 << (graph.n - 1)
    fit = TABLE_BYTES // (8 * (graph.n + graph.n_edges))
    rows = min(half, 1 << max(fit.bit_length() - 1, 0))
    states, eprod = _low_table(graph, rows)
    for start in range(0, half, rows):
        yield (start, states, eprod, *_flip(graph, start))


def check_size(n: int, cap: int) -> None:
    """EXACT_MAX_N, or BATCH_MAX_N for batch_moments's full 2^N table."""
    if n > cap:
        raise CapacityError(f"enumeration capped at N={cap}, got {n}")


def _require_finite_beta(system: SpinSystem) -> float:
    if system.beta is None:
        raise ValidationError("operation needs finite beta; route beta=infinity to ground_states")
    return float(system.beta)


def _energies(system: SpinSystem):
    """Blocks (start, states, spin signs, H of the rows, H of their
    complements) over the half table, N <= 24. The complement -sigma
    flips the sign of every odd-arity edge product, so its energies use
    the couplings times the edge signs of the global flip."""
    n = system.n
    check_size(n, EXACT_MAX_N)
    c_eff = np.asarray(system.couplings) * system.levy_scale
    c_neg = _flip(system.graph, (1 << n) - 1)[1] * c_eff
    return ((start, states, spin, eprod @ (sign * c_eff), eprod @ (sign * c_neg))
            for start, states, eprod, spin, sign in _half_blocks(system.graph))


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
    blocks = _energies(system)
    n = system.n
    shift = -math.inf  # current max of beta*H over both half-spaces
    z = 0.0            # sum of exp(beta*H - shift)
    acc_corr = np.zeros((n, n))
    acc_mean = np.zeros(n)
    for _, states, spin, e_pos, e_neg in blocks:
        # states with the top spin pinned to -1; complements cover the rest
        be_pos = beta * e_pos
        be_neg = beta * e_neg
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
        acc_corr += np.outer(spin, spin) * (states.T @ (states * both[:, None]))
        acc_mean += spin * ((w_pos - w_neg) @ states)
    if not (z > 0 and math.isfinite(z)):
        raise NumericalError(f"degenerate partition accumulator z={z}")
    corr = acc_corr / z
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr=corr, means=acc_mean / z, log_z=shift + math.log(z))


@dataclass(frozen=True)
class GroundStates:
    """Maximizers of H. states is (K, N) of +-1 in enumeration order."""

    energy: float
    states: np.ndarray


def ground_states(system: SpinSystem) -> GroundStates:
    """Exhaustive maximization over 2^N states, ties kept within a
    relative 1e-12.

    One pass over the half table scores each row and its complement.
    Candidates within the tie tolerance of the running maximum are kept
    and cut again at the final maximum; the states come out in
    enumeration order.
    """
    blocks = _energies(system)
    top = (1 << system.n) - 1

    def cut():
        return best - 1e-12 * max(1.0, abs(best))

    best = -math.inf
    idx, energies = [], []
    for start, _, _, e_pos, e_neg in blocks:
        rows = np.arange(start, start + len(e_pos), dtype=np.int64)
        for ids, e in ((rows, e_pos), (top - rows, e_neg)):
            best = max(best, float(e.max()))
            mask = e >= cut()
            idx.append(ids[mask])
            energies.append(e[mask])
    idx = np.concatenate(idx)[np.concatenate(energies) >= cut()]
    return GroundStates(energy=best, states=_states(np.sort(idx), system.n))


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


def check_mcmc(n: int, sweeps: int) -> None:
    """A sweep per batch mean, and (MCMC_BATCHES, N, N) floats in TABLE_BYTES."""
    if _integer(sweeps, "sweeps") < MCMC_BATCHES:
        raise ValidationError(f"need sweeps >= {MCMC_BATCHES} (one per batch mean), got {sweeps}")
    if 8 * MCMC_BATCHES * n * n > TABLE_BYTES:
        raise CapacityError(f"mcmc batch means of N={n} exceed the "
                            f"{TABLE_BYTES >> 20} MiB budget")


def mcmc_correlations(system: SpinSystem, rng: np.random.Generator,
                      sweeps: int = 20000, burn_in: int = 2000) -> CorrelationMatrix:
    """Random-scan Glauber (heat-bath) sampling of pair correlations.

    One correlation sample per sweep after burn-in; standard errors come
    from batch means over MCMC_BATCHES contiguous chunks.
    """
    beta = _require_finite_beta(system)
    n = system.n
    check_mcmc(n, sweeps)
    burn_in = _integer(burn_in, "burn_in")
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
    batch_corr = np.zeros((MCMC_BATCHES, n, n))
    batch_mean = np.zeros((MCMC_BATCHES, n))
    for b in range(MCMC_BATCHES):
        # the first sweeps % MCMC_BATCHES batches take one sweep more
        per_batch = sweeps // MCMC_BATCHES + (b < sweeps % MCMC_BATCHES)
        acc = np.zeros((n, n))
        accm = np.zeros(n)
        for _ in range(per_batch):
            sweep()
            s = np.asarray(sigma, dtype=float)
            acc += np.outer(s, s)
            accm += s
        batch_corr[b] = acc / per_batch
        batch_mean[b] = accm / per_batch
    corr, se = mean_se(batch_corr)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
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


def _batch_columns(n: int) -> int:
    """Coupling vectors per GEMM in batch_moments: a (2^N, columns) block
    of BATCH_BLOCK_BYTES within BATCH_COLUMNS, lowered past that only by
    TABLE_BYTES, and never to one column, since a one-column product is
    not bitwise a column of a wider GEMM."""
    lo, hi = BATCH_COLUMNS
    cols = min(hi, max(lo, BATCH_BLOCK_BYTES // (8 << n)))
    return max(2, min(cols, TABLE_BYTES // (8 << n)))


def batch_moments(graph: Hypergraph, couplings: np.ndarray, beta,
                  pairs, singles=()) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gibbs moments for many coupling vectors at once.

    couplings has shape (B, n_edges); returns (pair_vals, single_vals) of
    shapes (len(pairs), B) and (len(singles), B). This is the vectorized
    kernel behind quadrature grids and Monte Carlo over the disorder.
    beta may also be a sequence of K inverse temperatures, which share
    each block's GEMM and column max; the results then gain a last axis
    of length K, bitwise equal to K one-beta calls. For beta >= 0 the
    column max of beta * H is beta times the column max of H, bitwise,
    since rounding is monotone. Every |beta H| is at most
    max(beta) n_edges max|c|, so a call where that product is not finite
    raises NumericalError instead of filling the results with NaN.
    """
    n = graph.n
    check_size(n, BATCH_MAX_N)
    betas = [_check_beta(b) for b in np.atleast_1d(beta)]
    cs = np.atleast_2d(np.asarray(couplings, dtype=float))
    if cs.shape[1] != graph.n_edges:
        raise ValidationError(f"couplings must be (B, {graph.n_edges}), got {cs.shape}")
    scale = max(betas, default=0.0) * graph.n_edges
    if cs.size and not all(math.isfinite(scale * float(c)) for c in (cs.max(), cs.min())):
        raise NumericalError(f"|beta H| may overflow: max(beta) * n_edges = {scale:g} "
                             f"with couplings in [{cs.min():g}, {cs.max():g}]")
    check = graph.check_vertex  # a negative id would index spins from the end
    pairs = [(check(i), check(j)) for i, j in pairs]
    singles = [check(i) for i in singles]
    # uncached, so it neither evicts the half table nor outlives the call
    states, eprod = _table(graph, 1 << n)
    pair_obs = [states[:, i] * states[:, j] for i, j in pairs]
    single_obs = [states[:, i] for i in singles]
    nb = cs.shape[0]
    pair_vals = np.empty((len(betas), len(pair_obs), nb))
    single_vals = np.empty((len(betas), len(single_obs), nb))
    cols = _batch_columns(n)
    for start in range(0, nb, cols):
        h = eprod @ cs[start:start + cols].T  # (2^n, b)
        h_max = h.max(axis=0)
        for k, b in enumerate(betas):
            w = h if k == len(betas) - 1 else np.empty_like(h)
            np.multiply(h, b, out=w)
            with np.errstate(over="ignore"):  # below -max float: weight exp(-inf) = 0
                w -= b * h_max
            np.exp(w, out=w)
            denom = w.sum(axis=0)
            for vals, obs_list in ((pair_vals, pair_obs), (single_vals, single_obs)):
                for m, obs in enumerate(obs_list):
                    vals[k, m, start:start + cols] = (obs @ w) / denom
    if np.ndim(beta) == 0:
        return pair_vals[0], single_vals[0]
    return np.moveaxis(pair_vals, 0, -1), np.moveaxis(single_vals, 0, -1)

"""Gibbs measures of finite spin systems.

The measure is G(sigma) = exp(+beta H(sigma)) / Z with
H(sigma) = levy_scale * sum_e c_e prod_{v in e} sigma_v, so ground states
are maximizers of H and beta = infinity (represented as beta=None, never
a float) means the uniform measure over ground states.

Every edge-product table is built by row doubling over rows of one sign
matrix (_signs). exact_correlations reads one cached table per graph
(_low_table): the 2^b lowest +-1 states, with every spin at bit b and
above at -1, where 2^b is the largest power of two of rows that fits
TABLE_BYTES (at most 2^(N-1)), and the products of each edge's spins of
only the lowest 2^k of them, a sub-table of at most BATCH_BLOCK_BYTES
(at least 64 rows), with the +-1 edge signs of the spins from bit k to
bit b. It cuts its own blocks: any block of 2^b consecutive states is
that table with some high spins flipped to +1, so its rows are the
table's times +-1 signs (_flip), which it folds into the couplings and
accumulators instead of rebuilding rows, and sub-block h of a block's
edge products is the sub-table times row h of the signs, folded into the
couplings of one GEMV per sub-block. Multiplying by +-1 is exact, so the
doubling and the folding cost no bits, and a GEMV row does not depend on
the other rows of a chunk of 4 or more. Exact routines are capped
at N = 24; larger systems go through the Glauber sampler, flagged as an
estimate. Before any arithmetic each exact kernel checks that the
bounds |H| <= n_edges max|c| and |beta H| <= beta n_edges max|c|
are finite (_check_scale).

batch_moments scores each gauge class once, the states with one row of
edge products (2^rank of them, rank the GF(2) rank of the edge-vertex
incidence), doubled over the rows of pivot spins, and gathers the
weights back to the 2^N states, bit for bit. A pair's observable comes
from the index bits; only single-spin moments build the (2^N, N) spin
table.

At beta = infinity the measure factorizes over connected components.
ground_states scores all the systems of a graph at once, one GEMM per
component over its split tables: the edge products P of the states of
its low half of spins and Q of its high half, whose rows multiply to
each state's, exactly. Ties are kept within a relative 1e-12 of each
system's maximum on the component; vertices in no edge stay free.
ground_state_correlations forms every moment as a ratio of exact
integers over the product states, rounded once.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NumericalError, ValidationError, _integer
from .hypergraph import Hypergraph, component

EXACT_MAX_N = 24
BATCH_MAX_N = 20
# sizes exact_correlations' blocks as if each row held its states and
# edge products, which pins their bits (the 2^15-row half table of the
# complete graph on 16 vertices is one block); the cached state table is
# one block, its edge products only a sub-table of BATCH_BLOCK_BYTES
TABLE_BYTES = 64 << 20
MCMC_SWEEPS, MCMC_BURN_IN = 20000, 2000  # the sampler's default chain
# batch_moments sizes its (2^N, columns) float64 work block near
# BATCH_BLOCK_BYTES within BATCH_COLUMNS, and exact_correlations its
# edge-product sub-table within it. The values stay because the
# column count fixes the bits: a GEMM's columns need not be bitwise those
# of a GEMM of another width, and the quadrature digests pin these widths
BATCH_BLOCK_BYTES = 1 << 19
BATCH_COLUMNS = (64, 1024)


def check_beta(beta) -> float:
    """A finite beta >= 0 as a float. Only a real number passes, not a
    bool or a string; infinity is beta None, routed by callers."""
    if (isinstance(beta, bool) or not isinstance(beta, numbers.Real)  # np.bool_ is no Real either
            or not 0 <= beta <= sys.float_info.max):
        raise ValidationError(f"beta must be a finite real number >= 0, got {beta!r}")
    return float(beta)


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
            check_beta(self.beta)
        if not (math.isfinite(self.levy_scale) and self.levy_scale > 0):
            raise ValidationError(f"levy_scale must be positive finite, got {self.levy_scale}")

    @property
    def n(self) -> int:
        return self.graph.n


def spin_system(graph: Hypergraph, couplings, beta, levy_scale=1.0) -> SpinSystem:
    """Validated constructor; beta is a number, or None at infinity."""
    beta = None if beta is None else check_beta(beta)
    cs = tuple(float(c) for c in np.asarray(couplings, dtype=float).ravel())
    return SpinSystem(graph, cs, beta, float(levy_scale))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pair correlations <sigma_i sigma_j> with diagonal 1, single-spin
    means, and log Z (nan where the measure gives none)."""

    corr: np.ndarray
    means: np.ndarray
    log_z: float


def _states(idx: np.ndarray, n: int) -> np.ndarray:
    """+-1 rows of the enumeration indices idx: spin k is bit k."""
    bits = (idx[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
    return (2.0 * bits - 1.0)


def _signs(graph: Hypergraph) -> np.ndarray:
    """(N, n_edges) +-1, row v -1 on the edges at spin v: the edge signs
    of flipping spin v alone. Flipping a set of spins negates the edges
    that hold an odd number of them, the product of their rows."""
    signs = np.ones((graph.n, graph.n_edges))
    signs[graph.flat, np.repeat(np.arange(graph.n_edges), graph.arity)] = -1.0
    return signs


def _flip(graph: Hypergraph, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(per-spin, per-edge) +-1 signs that turn the spins set in bits from
    -1 to +1: the flipped states are states * spin and their edge
    products eprod * sign, the product of those spins' rows of _signs.
    bits = 2^N - 1 is the global flip."""
    flipped = (bits >> np.arange(graph.n, dtype=np.int64)) & 1
    return 1.0 - 2.0 * flipped, _signs(graph)[flipped == 1].prod(axis=0)


def _doubled(first: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Products (of an edge's spins, or of one spin) over 2^len(sign) states:
    row 0 is first, rows 2^v..2^(v+1) - 1 rows 0..2^v - 1 times sign[v]."""
    rows = np.empty((1 << len(sign), len(first)))
    rows[0] = first
    for v in range(len(sign)):
        np.multiply(rows[:1 << v], sign[v], out=rows[1 << v:2 << v])
    return rows


@lru_cache(maxsize=1)
def _low_table(graph: Hypergraph, rows: int, sub: int):
    """(states, edge products, sub-block signs) by doubling: the states of
    the indices 0..rows - 1, the edge products of 0..sub - 1 only, and
    the (rows // sub, n_edges) +-1 edge signs of the spins from bit
    log2(sub) up, so the products of index h sub + r are those of r
    times row h of the signs, exactly. rows and sub are powers of two,
    sub <= rows. Spin v at +1 negates column v of the states, and the
    edge products by row v of _signs. Cached one graph at a time and
    read-only, so exact_correlations' blocks and its threads share them."""
    bits, k = rows.bit_length() - 1, sub.bit_length() - 1
    signs = _signs(graph)
    eprod = _doubled(1.0 - 2.0 * (graph.arity & 1), signs[:k])
    hi = _doubled(np.ones(graph.n_edges), signs[k:bits])
    states = _doubled(np.full(graph.n, -1.0), 1.0 - 2.0 * np.eye(bits, graph.n))
    states.flags.writeable = eprod.flags.writeable = hi.flags.writeable = False
    return states, eprod, hi


def check_size(n: int, cap: int) -> None:
    """EXACT_MAX_N, or BATCH_MAX_N for batch_moments's full 2^N table."""
    if n > cap:
        raise CapacityError(f"enumeration capped at N={cap}, got {n}")


def _require_finite_beta(system: SpinSystem) -> float:
    if system.beta is None:
        raise ValidationError("operation needs finite beta; route beta=infinity to ground_states")
    return float(system.beta)


def _check_scale(c_eff: np.ndarray, beta: float = 0.0) -> None:
    """Refuse, before any arithmetic, couplings c_eff (one vector or a
    (B, n_edges) batch) whose bound n_edges max|c| on |H|, or that bound
    times beta on |beta H|, is not finite."""
    h = c_eff.shape[-1] * max(float(c_eff.max(initial=0.0)), -float(c_eff.min(initial=0.0)))
    if not (math.isfinite(h) and math.isfinite(h * beta)):
        raise NumericalError(f"|H| or |beta H| may overflow: n_edges * max|c| = {h:g}, "
                             f"beta = {beta:g}")


def exact_correlations(system: SpinSystem) -> CorrelationMatrix:
    """Exact enumeration over all 2^N states, N <= 24.

    States come in complement pairs (sigma, -sigma) with H(-sigma)
    obtained by flipping the sign of every odd-arity edge coupling, so
    only half the space is enumerated. Besides halving the work this
    makes the global flip symmetry exact in floating point: for even
    models the paired weights are bitwise equal and the means cancel to
    exactly zero. A running log-sum-exp shift keeps the weighted
    accumulators stable while the max energy is discovered online. Even
    models skip the complements' GEMV and exp and the means' GEMV, which
    would return the same energies and weights and exactly zero.

    The 2^(N-1) states with the top spin at -1 go in blocks, in index
    order, of the cached table's rows: the largest power of two of rows
    that fits TABLE_BYTES as if each row held its edge products too, at
    most 2^(N-1). The block at start is the table times the signs of
    _flip(graph, start), which fold into the couplings of the GEMVs and
    the accumulators. Its energies come in sub-blocks of the cached
    edge-product sub-table's rows: the largest power of two whose
    products fit BATCH_BLOCK_BYTES, at least 64 and at most the block.
    Sub-block h is the sub-table times row h of the sub-block signs, so
    one GEMV of the sub-table against the couplings times that row and
    the block's signs writes its rows, with the bits of those rows of one
    GEMV over the whole block's products: a GEMV row does not depend on
    the others in a chunk of 4 or more rows (2-row chunks do differ). A
    block that fits in one chunk takes one GEMV. The sub-blocks stay
    separate GEMVs, since a GEMM column is not bitwise the GEMV.
    """
    beta = _require_finite_beta(system)
    graph, n = system.graph, system.n
    check_size(n, EXACT_MAX_N)
    c_eff = np.asarray(system.couplings) * system.levy_scale
    _check_scale(c_eff, beta)
    fit = TABLE_BYTES // (8 * (n + graph.n_edges))
    rows = min(1 << (n - 1), 1 << max(fit.bit_length() - 1, 0))
    fit = BATCH_BLOCK_BYTES // (8 * max(graph.n_edges, 1))  # the sub-table, >= 64 rows
    states, eprod, hi = _low_table(graph, rows, min(rows, 1 << max(fit.bit_length() - 1, 6)))
    odd = graph.arity & 1  # the global flip negates the odd edges' products
    c_neg, even = (1.0 - 2.0 * odd) * c_eff, not odd.any()
    shift = -math.inf  # current max of beta*H over both half-spaces
    z = 0.0            # sum of exp(beta*H - shift)
    acc_corr = np.zeros((n, n))
    acc_mean = np.zeros(n)
    be_pos = np.empty(rows)
    # even: every complement weighs what its row does
    be_neg = be_pos if even else np.empty(rows)
    for start in range(0, 1 << (n - 1), rows):
        spin, sign = _flip(graph, start)
        for be, c in ((be_pos, c_eff),) if even else ((be_pos, c_eff), (be_neg, c_neg)):
            c = sign * c
            for row, out in zip(hi, be.reshape(len(hi), -1)):
                np.matmul(eprod, row * c, out=out)
            be *= beta
        m = float(max(be_pos.max(), be_neg.max()))
        if m > shift:
            rescale = math.exp(shift - m) if shift > -math.inf else 0.0
            z *= rescale
            acc_corr *= rescale
            acc_mean *= rescale
            shift = m
        w_pos = np.exp(be_pos - shift)
        w_neg = w_pos if even else np.exp(be_neg - shift)
        z += float(w_pos.sum() + w_neg.sum())
        both = w_pos + w_neg
        acc_corr += np.outer(spin, spin) * (states.T @ (states * both[:, None]))
        if not even:  # w_pos - w_neg is +0.0, which leaves acc_mean at +0.0
            acc_mean += spin * ((w_pos - w_neg) @ states)
    if not (z > 0 and math.isfinite(z)):
        raise NumericalError(f"degenerate partition accumulator z={z}")
    corr = acc_corr / z
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr=corr, means=acc_mean / z, log_z=shift + math.log(z))


@dataclass(frozen=True)
class GroundStates:
    """Maximizers of H on n spins, factorized over connected components.

    The ground states are all products of one row of each factor with
    any values of the free spins. A factor is (vertex ids, (K_C, |C|) +-1
    tied states of those vertices, in the component's enumeration order)
    for a connected component C that holds an edge; free lists the
    vertices in no edge. energy is the sum of the component maxima."""

    n: int
    energy: float
    factors: tuple[tuple[np.ndarray, np.ndarray], ...]
    free: np.ndarray


@lru_cache(maxsize=1)
def _components(graph: Hypergraph):
    """(free vertices, parts) of graph, one graph at a time like
    _low_table. Each part is (vertex ids, edge ids, P, Q) of a connected
    component with an edge, its m vertices in rising order: P and Q hold
    the edge products of the states of its low a = m // 2 and of its high
    m - a spins, doubled over their rows of _signs restricted to the
    component's edges, so state lo + 2^a hi has P[lo] * Q[hi]."""
    label = np.full(graph.n, -1, np.int64)
    verts_of = []
    # the vertices in some edge, rising; np.unique would load numpy.ma on numpy 2
    for v in np.flatnonzero(np.bincount(graph.flat, minlength=graph.n)).tolist():
        if label[v] < 0:
            verts = np.array(sorted(component(graph, v)), np.int64)
            verts.flags.writeable = False
            label[verts] = len(verts_of)
            verts_of.append(verts)
    free = np.flatnonzero(label < 0)
    free.flags.writeable = False
    edge_label = label[graph.flat[graph.offsets[:-1]]]
    signs = _signs(graph)
    parts = []
    for c, verts in enumerate(verts_of):
        eids = np.flatnonzero(edge_label == c)
        sign = signs[np.ix_(verts, eids)]
        p, q = (_doubled(rows.prod(axis=0), rows) for rows in np.split(sign, [len(verts) // 2]))
        p.flags.writeable = q.flags.writeable = False
        parts.append((verts, eids, p, q))
    return free, tuple(parts)


def _maximizers(p: np.ndarray, q: np.ndarray, c: np.ndarray):
    """(max of H, sorted state indices within a relative 1e-12 of it) for
    each row c[k] of couplings on one component: with 2^a rows in P and
    2^b in Q, row k 2^b + hi of the GEMM (c[k] Q) P^T holds H_k of the
    states 2^a hi + lo in index order.
    The rows go in power-of-two chunks (whole systems, or a run of one
    system's) whose energies and scaled Q rows fit TABLE_BYTES beside P
    and Q; candidates within the tolerance of the running maxima are
    kept and cut again at the final ones."""
    (lo_n, edges), hi_n, a = p.shape, len(q), len(p).bit_length() - 1
    fit = (TABLE_BYTES - 8 * (p.size + q.size)) // (8 * (lo_n + edges))
    if fit < 2:
        raise CapacityError(f"a {a + hi_n.bit_length() - 1}-vertex component with "
                            f"{edges} edges exceeds the {TABLE_BYTES >> 20} MiB budget")
    width = 1 << (fit.bit_length() - 1)
    k_step, h_step = max(1, width // hi_n), min(hi_n, width)
    best = np.full(len(c), -math.inf)
    found = []  # (system, state index, energy) of the candidates, chunk by chunk
    for k0 in range(0, len(c), k_step):
        for h0 in range(0, hi_n, h_step):
            cq = c[k0:k0 + k_step, None, :] * q[None, h0:h0 + h_step]
            e = (cq.reshape(-1, edges) @ p.T).reshape(len(cq), -1)  # a row per system
            top = best[k0:k0 + k_step]
            np.maximum(top, e.max(axis=1), out=top)
            at = np.flatnonzero(e >= (top - 1e-12 * np.maximum(1.0, np.abs(top)))[:, None])
            k, idx = divmod(at, e.shape[1])
            found.append((k + k0, idx + (h0 << a), e.ravel()[at]))
    k, idx, e = (np.concatenate(parts) for parts in zip(*found))
    keep = e >= (best - 1e-12 * np.maximum(1.0, np.abs(best)))[k]
    bounds = np.searchsorted(k[keep], np.arange(len(c) + 1))
    return best, np.split(idx[keep], bounds[1:-1])


def ground_states(system: SpinSystem, *others: SpinSystem) -> tuple[GroundStates, ...]:
    """Exhaustive maximization over 2^N states, N <= 24, of system and of
    any others on its graph, factorized over connected components; one
    GroundStates per system, each with its couplings times its own
    levy_scale.

    H is a sum over the components that hold an edge, so its maximizers
    are the products of each component's own, with every free spin at
    either value. A component of m vertices is scored for every system
    by one GEMM of its split tables (_components), Q scaled by each
    system's couplings against P, 2^(m - m // 2) and 2^(m // 2) rows
    instead of a half table's 2^(m - 1), with ties within a relative
    1e-12 of each system's own maximum (_maximizers). A GEMM row does not
    depend on the other rows, so neither the other systems nor chunks of
    rows within TABLE_BYTES move a tie.
    """
    systems = (system, *others)
    if any(s.graph != system.graph for s in others):
        raise ValidationError("ground_states' systems must share one graph")
    check_size(system.n, EXACT_MAX_N)
    c_eff = (np.array([s.couplings for s in systems])
             * np.array([s.levy_scale for s in systems])[:, None])
    _check_scale(c_eff)
    free, parts = _components(system.graph)
    energy, factors = np.zeros(len(systems)), [[] for _ in systems]
    for verts, eids, p, q in parts:
        best, ties = _maximizers(p, q, c_eff[:, eids])
        energy += best
        for got, idx in zip(factors, ties):
            got.append((verts, _states(idx, len(verts))))
    return tuple(GroundStates(system.n, float(e), tuple(f), free)
                 for e, f in zip(energy, factors))


def ground_state_correlations(gs: GroundStates) -> CorrelationMatrix:
    """Uniform measure over the products of the factors' states with any
    values of the free spins; log_z is nan because the zero-temperature
    measure has no partition value.

    <s_i s_j> is the sum of s_i s_j over C's own K_C states over K_C
    when i and j lie in one component C, the product of the two
    components' sums over K_C K_D when they lie in C and D, and 0 at a
    free spin; <s_i> is its component's sum over K_C. Each is a ratio of
    exact integers, rounded once: the bits of states.T @ states / K and
    states.mean(axis=0) over the K materialized states. The sums stay
    int64, since a float 0 times a negative sum would give -0.0.
    """
    sums = np.zeros(gs.n, np.int64)     # sum of s_i over its factor's states
    sizes = np.full(gs.n, 2, np.int64)  # K_C of the factor of i, 2 at a free spin
    for verts, states in gs.factors:
        sums[verts] = states.sum(axis=0)
        sizes[verts] = len(states)
    corr = np.outer(sums, sums) / np.outer(sizes, sizes)
    for verts, states in gs.factors:
        corr[np.ix_(verts, verts)] = (states.T @ states).astype(np.int64) / len(states)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr=corr, means=sums / sizes, log_z=math.nan)


def check_mcmc(n: int, sweeps: int) -> None:
    """At least one sweep, and the (N, N) sum plus one sweep's outer
    product, 16 N^2 bytes, in TABLE_BYTES: N <= 2048."""
    if _integer(sweeps, "sweeps") < 1:
        raise ValidationError(f"need sweeps >= 1, got {sweeps}")
    if 16 * n * n > TABLE_BYTES:
        raise CapacityError(f"mcmc correlations of N={n} exceed the "
                            f"{TABLE_BYTES >> 20} MiB budget")


def check_burn_in(burn_in: int) -> None:
    """Burn-in sweeps are a count >= 0."""
    if _integer(burn_in, "burn_in") < 0:
        raise ValidationError(f"burn_in must be >= 0, got {burn_in}")


def mcmc_correlations(system: SpinSystem, rng: np.random.Generator,
                      sweeps: int, burn_in: int) -> CorrelationMatrix:
    """Random-scan Glauber (heat-bath) sampling of pair correlations.

    One sample per sweep after burn-in; the results are the sums of
    s s^T and s over the sweeps divided by sweeps. Those sums are exact
    integers, so only the division rounds: the diagonal is 1 and the
    matrix symmetric, bit for bit. A standard error comes from
    the spread of independent chains (rng.mean_se). Each edge keeps
    the product eprod[e] of its spins, negated when one of them flips. The
    field at i is sigma_i times the sum of c_e eprod[e] over the edges at i
    in ascending id: the bits of the sum over the other spins, since
    negating every term of a float sum negates the sum exactly.
    """
    beta = _require_finite_beta(system)
    n = system.n
    check_mcmc(n, sweeps)
    check_burn_in(burn_in)
    graph = system.graph
    c_eff = [c * system.levy_scale for c in system.couplings]
    ptr, ids = (a.tolist() for a in graph._incident)
    incident = [ids[a:b] for a, b in zip(ptr, ptr[1:])]
    spins = 2 * rng.integers(0, 2, n) - 1
    sigma = spins.tolist()
    eprod = np.multiply.reduceat(spins[graph.flat], graph.offsets[:-1]).tolist()

    def sweep():
        order = rng.integers(0, n, n)
        us = rng.random(n)
        for i, u in zip(order.tolist(), us.tolist()):
            edges, s = incident[i], sigma[i]
            m = 0.0
            for e in edges:
                m += c_eff[e] * eprod[e]
            m *= s
            # heat bath: P(sigma_i = +1 | rest) = 1/(1 + exp(-2 beta m)),
            # written with tanh so that large |beta m| cannot overflow;
            # the spin flips when the draw gives it the other sign
            if (u < 0.5 * (1.0 + math.tanh(beta * m))) != (s > 0):
                sigma[i] = -s
                for e in edges:
                    eprod[e] = -eprod[e]

    for _ in range(burn_in):
        sweep()
    corr, means = np.zeros((n, n)), np.zeros(n)
    for _ in range(sweeps):
        sweep()
        s = np.asarray(sigma, dtype=float)
        corr += np.outer(s, s)
        means += s
    return CorrelationMatrix(corr=corr / sweeps, means=means / sweeps, log_z=math.nan)


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


def _classes(graph: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """(key, pivots): the gauge class of each of the 2^N states, and the
    rising spins that name the classes. Spin v is a pivot when its edge
    set (row v of _signs) is independent over GF(2) of the earlier
    pivots'; every set is a sum of pivots', whose bits its flip toggles in
    the key, built by row doubling like _low_table. So equal keys mean equal
    edge products, all 2^rank keys occur, and class k is the state whose
    +1 spins are the pivots named by the bits of k."""
    lead, pivots = {}, []  # by leading bit: (reduced edge set, its pivot sum)
    key = np.zeros(1 << graph.n, np.int64)
    for v, at in enumerate(np.packbits(_signs(graph) < 0, axis=1, bitorder="little")):
        m, flip = int.from_bytes(at.tobytes(), "little"), 0  # bit e: edge e holds spin v
        while m and (top := m.bit_length()) in lead:
            m, flip = m ^ lead[top][0], flip ^ lead[top][1]
        if m:
            lead[top] = (m, flip ^ (1 << len(pivots)))
            flip = 1 << len(pivots)
            pivots.append(v)
        np.bitwise_xor(key[:1 << v], flip, out=key[1 << v:2 << v])
    return key, np.array(pivots, np.int64)


def batch_moments(graph: Hypergraph, couplings: np.ndarray, beta,
                  pairs, singles=()) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gibbs moments for many coupling vectors at once, at one
    finite beta (check_beta; a sequence is refused).

    couplings has shape (B, n_edges); returns (pair_vals, single_vals) of
    shapes (len(pairs), B) and (len(singles), B). This is the vectorized
    kernel behind quadrature grids and Monte Carlo over the disorder.
    For beta >= 0 the column max of beta * H is beta times the column max
    of H, bitwise, since rounding is monotone. A call whose |H| or
    |beta H| bound is not finite raises NumericalError (_check_scale)
    instead of filling the results with NaN.

    The GEMM, column max, scaling and exp run on one row per gauge class
    (_classes), doubled over the pivots' rows of _signs; a gather by class
    key restores the 2^N rows the sums read, bit for bit: a GEMM row
    depends on its own row of the left factor only, a max not on order
    (but for the sign of a zero, and x - 0.0 and x - -0.0 have one exp),
    and the rest acts on each entry alone. A pair's +-1 observable is
    1 - 2 times the xor of its two index bits, a contiguous array with the
    values of the product of two spin-table columns, so the same GEMV
    bits. Singles read strided columns of the (2^N, N) spin table, built
    only for them: a contiguous copy of a column gives other GEMV bits.
    """
    n = graph.n
    check_size(n, BATCH_MAX_N)
    beta = check_beta(beta)
    cs = np.atleast_2d(np.asarray(couplings, dtype=float))
    if cs.ndim != 2 or cs.shape[1] != graph.n_edges:
        raise ValidationError(f"couplings must be (B, {graph.n_edges}), got {cs.shape}")
    _check_scale(cs, beta)
    check = graph.check_vertex  # a negative id would index spins from the end
    pairs = [(check(i), check(j)) for i, j in pairs]
    singles = [check(i) for i in singles]
    idx = np.arange(1 << n)  # a pair's +-1 product is the xor of its bits
    pair_obs = [1.0 - 2.0 * (((idx >> i) ^ (idx >> j)) & 1) for i, j in pairs]
    del idx
    states = _doubled(np.full(n, -1.0), 1.0 - 2.0 * np.eye(n)) if singles else None
    single_obs = [states[:, i] for i in singles]
    key, pivots = _classes(graph)
    eprod = _doubled(1.0 - 2.0 * (graph.arity & 1), _signs(graph)[pivots])  # a row per class
    nb = cs.shape[0]
    pair_vals = np.empty((len(pair_obs), nb))
    single_vals = np.empty((len(single_obs), nb))
    cols = _batch_columns(n)
    buf = np.empty(min(nb, cols) << n)  # a block's weights, one row per state
    for start in range(0, nb, cols):
        h = eprod @ cs[start:start + cols].T  # (2^rank, b)
        h_max = h.max(axis=0)
        np.multiply(h, beta, out=h)
        with np.errstate(over="ignore"):  # below -max float: weight exp(-inf) = 0
            h -= beta * h_max
        np.exp(h, out=h)
        w = buf[:h.shape[1] << n].reshape(1 << n, -1)
        np.take(h, key, axis=0, out=w, mode="clip")  # clip: no buffered copy
        denom = w.sum(axis=0)
        for vals, obs_list in ((pair_vals, pair_obs), (single_vals, single_obs)):
            for m, obs in enumerate(obs_list):
                vals[m, start:start + cols] = (obs @ w) / denom
    return pair_vals, single_vals

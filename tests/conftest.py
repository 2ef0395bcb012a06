"""Shared brute-force oracles.

Everything here is written independently of the package internals and on
purpose uses different mechanics: dense itertools enumeration instead of
blocked bit tricks, recursive path search instead of union-find, and so
on. Slow is fine; these only run on small instances.
"""

import itertools
import math
from collections import deque

import numpy as np
import pytest
from scipy.special import logsumexp, stdtr

from spinchaos import gibbs
from spinchaos.chaos import disorder_functional
from spinchaos.disorder import DisorderModel
from spinchaos.errors import ValidationError
from spinchaos.hermite import coefficient_sweep, parseval_tail, weighted_coefficient_sum
from spinchaos.hypergraph import Hypergraph, hypergraph


def all_states(n: int) -> np.ndarray:
    """(2^n, n) array of +-1 rows, itertools order."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n)))


def bit_decoded_table(graph: Hypergraph, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(states, edge products) of the indices 0..rows - 1, decoded bit by
    bit (spin k of index i is +1 iff bit k of i is set), with each edge
    product an np.prod over the edge's spins."""
    states = np.array([[1.0 if (i >> k) & 1 else -1.0 for k in range(graph.n)]
                       for i in range(rows)])
    eprod = np.empty((rows, graph.n_edges))
    for k, e in enumerate(graph.edges):
        eprod[:, k] = np.prod(states[:, list(e)], axis=1)
    return states, eprod


def dense_energies(graph: Hypergraph, couplings, states: np.ndarray) -> np.ndarray:
    vals = np.zeros(len(states))
    for c, edge in zip(couplings, graph.edges):
        vals += c * np.prod(states[:, list(edge)], axis=1)
    return vals


def hamiltonian(system, sigma) -> float:
    """H(sigma) of one +-1 configuration, edge by edge in Python ints."""
    s = np.asarray(sigma)
    if s.shape != (system.n,):
        raise ValidationError(f"sigma must have shape ({system.n},), got {s.shape}")
    if not np.all(np.abs(s) == 1):
        raise ValidationError("sigma entries must be +-1")
    total = 0.0
    for c, e in zip(system.couplings, system.graph.edges):
        total += c * math.prod(int(s[v]) for v in e)
    return system.levy_scale * total


def dense_correlations(graph: Hypergraph, couplings, beta: float):
    """(corr, means, log_z) by direct enumeration and softmax weights."""
    states = all_states(graph.n)
    h = dense_energies(graph, couplings, states)
    logw = beta * h
    log_z = logsumexp(logw)
    w = np.exp(logw - log_z)
    means = w @ states
    corr = (states * w[:, None]).T @ states
    np.fill_diagonal(corr, 1.0)
    return corr, means, log_z


def reference_mcmc(system, rng, sweeps: int, burn_in: int):
    """(corr, means) of random-scan heat-bath sampling, each local field
    summed afresh from a tuple adjacency of graph.edges: vertex v lists
    (c_e, the other vertices of e) for its edges in edge order, and the
    field is the sum of c_e times their spins' product, from 0.0. Same
    draws from rng as the package sampler; the averages over all sweeps."""
    n = system.n
    beta = system.beta
    adj = [[] for _ in range(n)]
    for c, e in zip(system.couplings, system.graph.edges):
        for v in e:
            adj[v].append((c * system.levy_scale, tuple(u for u in e if u != v)))
    sigma = (2 * rng.integers(0, 2, n) - 1).tolist()

    def sweep():
        order = rng.integers(0, n, n)
        us = rng.random(n)
        for i, u in zip(order, us):
            m = 0.0
            for c, others in adj[i]:
                m += c * math.prod(sigma[v] for v in others)
            sigma[i] = 1 if u < 0.5 * (1.0 + math.tanh(beta * m)) else -1

    for _ in range(burn_in):
        sweep()
    corr, means = np.zeros((n, n)), np.zeros(n)
    for _ in range(sweeps):
        sweep()
        s = np.asarray(sigma, dtype=float)
        corr += np.outer(s, s)
        means += s
    return corr / sweeps, means / sweeps


def exact_correlations_both_halves(system):
    """gibbs.exact_correlations with its even-model shortcut off, on one
    block of the bit-decoded half table (N small enough that the half
    table fits gibbs.TABLE_BYTES): the complements' GEMV and exp and the
    means' GEMV always run. The kernel's one block makes the same
    operations on the same operands, times +1 signs, so the bytes must
    agree; on an even model the complements' energies equal the rows'
    and the means come out +0.0."""
    graph, n, beta = system.graph, system.n, system.beta
    assert 8 * (n + graph.n_edges) << (n - 1) <= gibbs.TABLE_BYTES  # one block
    states, eprod = bit_decoded_table(graph, 1 << (n - 1))  # the top spin at -1
    c = np.asarray(system.couplings) * system.levy_scale
    c_neg = np.array([(-1.0) ** len(e) for e in graph.edges]) * c  # H(-sigma)
    be_pos, be_neg = beta * (eprod @ c), beta * (eprod @ c_neg)
    shift = float(max(be_pos.max(), be_neg.max()))
    w_pos, w_neg = np.exp(be_pos - shift), np.exp(be_neg - shift)
    z = float(w_pos.sum() + w_neg.sum())
    corr = (np.zeros((n, n)) + states.T @ (states * (w_pos + w_neg)[:, None])) / z
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    means = (np.zeros(n) + (w_pos - w_neg) @ states) / z
    return corr, means, shift + math.log(z)


def batch_moments_full_table(graph: Hypergraph, couplings, beta, pairs, singles=()):
    """gibbs.batch_moments as it was before gauge classes: every block's
    GEMM, column max, scaling and exp run on all 2^N rows of the table.
    Same validation, column blocks and result shapes."""
    n = graph.n
    gibbs.check_size(n, gibbs.BATCH_MAX_N)
    betas = [gibbs.check_beta(b) for b in (beta if np.ndim(beta) else (beta,))]
    cs = np.atleast_2d(np.asarray(couplings, dtype=float))
    gibbs._check_scale(cs, betas)
    pairs = [(graph.check_vertex(i), graph.check_vertex(j)) for i, j in pairs]
    singles = [graph.check_vertex(i) for i in singles]
    states, eprod = bit_decoded_table(graph, 1 << n)
    pair_obs = [states[:, i] * states[:, j] for i, j in pairs]
    single_obs = [states[:, i] for i in singles]
    nb = cs.shape[0]
    pair_vals = np.empty((len(betas), len(pair_obs), nb))
    single_vals = np.empty((len(betas), len(single_obs), nb))
    cols = gibbs._batch_columns(n)
    for start in range(0, nb, cols):
        h = eprod @ cs[start:start + cols].T  # (2^n, b)
        h_max = h.max(axis=0)
        for k, b in enumerate(betas):
            w = h if k == len(betas) - 1 else np.empty_like(h)
            np.multiply(h, b, out=w)
            with np.errstate(over="ignore"):
                w -= b * h_max
            np.exp(w, out=w)
            denom = w.sum(axis=0)
            for vals, obs_list in ((pair_vals, pair_obs), (single_vals, single_obs)):
                for m, obs in enumerate(obs_list):
                    vals[k, m, start:start + cols] = (obs @ w) / denom
    if np.ndim(beta) == 0:
        return pair_vals[0], single_vals[0]
    return np.moveaxis(pair_vals, 0, -1), np.moveaxis(single_vals, 0, -1)


def dense_ground_states(graph: Hypergraph, couplings):
    """(max energy, list of maximizing state rows)."""
    states = all_states(graph.n)
    h = dense_energies(graph, couplings, states)
    best = h.max()
    keep = states[np.isclose(h, best, rtol=1e-12, atol=0.0)]
    return best, keep


def dense_ground_correlations(graph: Hypergraph, couplings):
    _, keep = dense_ground_states(graph, couplings)
    means = keep.mean(axis=0)
    corr = keep.T @ keep / len(keep)
    np.fill_diagonal(corr, 1.0)
    return corr, means


def gf2_rank(rows: np.ndarray) -> int:
    """Rank over GF(2) of a 0/1 matrix, by row reduction with column pivots."""
    m = np.array(rows, dtype=bool)
    rank = 0
    for col in range(m.shape[1]):
        hit = np.flatnonzero(m[rank:, col])
        if len(hit) == 0:
            continue
        m[[rank, rank + hit[0]]] = m[[rank + hit[0], rank]]
        below = np.flatnonzero(m[:, col])
        m[below[below != rank]] ^= m[rank]
        rank += 1
        if rank == len(m):
            break
    return rank


def planted_ground_states(graph: Hypergraph, tau) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, corr, means) of the uniform measure on the maximizers of a
    planted gauge ferromagnet, c_e = |g_e| prod_{v in e} tau_v with every
    |g_e| > 0, from GF(2) ranks alone. Writing sigma_v tau_v = (-1)^x_v,
    the maximizers are the x with sum_{v in e} x_v = 0 for every edge e:
    the null space of the edge-vertex incidence A, of size 2^(N - rank A).
    A linear form on it is constant (0) when it lies in the row space of
    A, and balanced otherwise, so <sigma_i sigma_j> is tau_i tau_j when
    x_i + x_j is in the row space and 0 otherwise, and <sigma_i> is tau_i
    when x_i is."""
    n = graph.n
    a = np.zeros((graph.n_edges, n), dtype=bool)
    for k, e in enumerate(graph.edges):
        a[k, list(e)] = True
    rank = gf2_rank(a)

    def in_rows(form):
        return gf2_rank(np.vstack([a, form])) == rank
    tau = np.asarray(tau, dtype=float)
    unit = np.eye(n, dtype=bool)
    means = np.array([tau[i] if in_rows(unit[i]) else 0.0 for i in range(n)])
    corr = np.eye(n)
    for i, j in itertools.combinations(range(n), 2):
        corr[i, j] = corr[j, i] = tau[i] * tau[j] if in_rows(unit[i] ^ unit[j]) else 0.0
    return 1 << (n - rank), corr, means


def product_states(gs) -> np.ndarray:
    """(K, N) +-1 rows of a factorized GroundStates, materialized: every
    combination of one tied row per factor and any values of the free
    spins, by itertools.product, sorted by enumeration index (spin k is
    bit k, set at +1)."""
    choices = [[(verts, row) for row in states] for verts, states in gs.factors]
    choices += [[([v], [s]) for s in (-1.0, 1.0)] for v in gs.free]
    rows = []
    for combo in itertools.product(*choices):
        row = np.zeros(gs.n)
        for verts, vals in combo:
            row[list(verts)] = vals
        rows.append(row)
    rows.sort(key=lambda r: sum(1 << k for k in range(gs.n) if r[k] > 0))
    return np.array(rows).reshape(len(rows), gs.n)


def materialized_ground_correlations(gs) -> tuple[np.ndarray, np.ndarray]:
    """(corr, means) of the uniform measure over product_states(gs) by
    the formula on the materialized (K, N) states: states.T @ states / K,
    symmetrized, with diagonal 1, and states.mean(axis=0)."""
    states = product_states(gs)
    corr = states.T @ states / states.shape[0]
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return corr, states.mean(axis=0)


def berge_paths_exist(graph: Hypergraph, u: int, v: int):
    """Shortest Berge path length by exhaustive search; None if none.

    A Berge path is v_0, e_1, v_1, ..., e_l, v_l with distinct vertices,
    distinct edges, and {v_{k-1}, v_k} a subset of e_k.
    """
    if u == v:
        return 0
    best = [None]

    def extend(cur: int, used_v: set, used_e: set, length: int):
        if best[0] is not None and length >= best[0]:
            return
        for eid, edge in enumerate(graph.edges):
            if eid in used_e or cur not in edge:
                continue
            for nxt in edge:
                if nxt == v:
                    if best[0] is None or length + 1 < best[0]:
                        best[0] = length + 1
                elif nxt not in used_v:
                    extend(nxt, used_v | {nxt}, used_e | {eid}, length + 1)

    extend(u, {u}, set(), 0)
    return best[0]


def bfs_distances(graph: Hypergraph, root: int, max_depth=None) -> dict[int, int]:
    """{vertex: Berge distance from root} for the vertices within
    max_depth (all of the component if None): plain BFS over a deque,
    each popped vertex scanning the edges that hold it, in id order, from
    a dict of the edge list built per call, every crossed edge marked in
    one global seen set. A shortest vertex walk through edges has
    distinct vertices and edges, so it is a Berge path."""
    holding = {}
    for eid, edge in enumerate(graph.edges):
        for u in edge:
            holding.setdefault(u, []).append(eid)
    dist = {root: 0}
    queue = deque([root])
    seen_edges = set()
    while queue:
        v = queue.popleft()
        if max_depth is not None and dist[v] >= max_depth:
            continue
        for eid in holding.get(v, ()):
            if eid in seen_edges:
                continue
            seen_edges.add(eid)
            for u in graph.edges[eid]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
    return dist


def brute_has_berge_cycle(graph: Hypergraph) -> bool:
    """Exhaustive Berge cycle search: v_1, e_1, ..., v_l, e_l, v_1 with
    l >= 2, distinct vertices, distinct edges."""
    edges = graph.edges

    def walk(start: int, cur: int, used_v: set, used_e: set) -> bool:
        for eid, edge in enumerate(edges):
            if eid in used_e or cur not in edge:
                continue
            for nxt in edge:
                if nxt == start and len(used_e) >= 1:
                    return True
                if nxt not in used_v:
                    if walk(start, nxt, used_v | {nxt}, used_e | {eid}):
                        return True
        return False

    for start in range(graph.n):
        if walk(start, start, {start}, set()):
            return True
    return False


def general_ball_bound(graph: Hypergraph, t: float) -> tuple[float, int]:
    """(min_r [ max_i |B_r(i)| / N + e^{-tr} ], its first argmin r) over
    r = 0..N, every ball grown afresh by the BFS oracle at its radius."""
    best = None
    for r in range(graph.n + 1):
        widest = max(len(bfs_distances(graph, v, r)) for v in range(graph.n))
        val = widest / graph.n + math.exp(-t * r)
        if best is None or val < best[0]:
            best = (val, r)
    return best


def spectral_curve(graph: Hypergraph, beta: float, kind: str, t_grid,
                   degree_cap: int, order: int) -> tuple[np.ndarray, float]:
    """E<R^2>_t of identity disorder by the spectral identity,
    (1/N^2) sum_ij sum_n w(n, t) phi_hat_ij(n)^2 with w = e^{-|n| t}
    (continuous) or e^{-|E(n)| t} (discrete), and its error budget, the
    Parseval tails of the truncated sums weighted alike. Diagonal terms
    are 1; each pair i < j counts twice and takes one coefficient_sweep."""
    model = DisorderModel("identity")
    curve = np.full(len(t_grid), float(graph.n))
    tail = 0.0
    for i, j in itertools.combinations(range(graph.n), 2):
        table = coefficient_sweep(disorder_functional(graph, model, beta, i, j),
                                  graph.n_edges, degree_cap, order)
        curve += 2.0 * np.array([weighted_coefficient_sum(table, t, kind) for t in t_grid])
        tail += 2.0 * parseval_tail(table)
    return curve / graph.n ** 2, tail / graph.n ** 2


def check_calibrated(z, dof: int) -> tuple[float, float]:
    """Assert that z-scores (estimate - exact) / s.e. of independent cases
    are calibrated, and return (share of |z| <= 2, mean of z^2). With an
    s.e. from dof + 1 independent normal replicas each z is Student t
    with dof degrees of freedom, so the share lies within 4 binomial sd of
    P(|t| <= 2) and the mean within 4 sd of E t^2 = dof / (dof - 2), the
    sd from Var t^2 = E t^4 - (E t^2)^2, E t^4 = 3 dof^2 / ((dof - 2)(dof - 4))."""
    z = np.asarray(z, dtype=float)
    p = 2.0 * stdtr(dof, 2.0) - 1.0
    share = float(np.mean(np.abs(z) <= 2.0))
    assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / len(z)), (share, p)
    m2 = dof / (dof - 2.0)
    var2 = 3.0 * dof ** 2 / ((dof - 2.0) * (dof - 4.0)) - m2 ** 2
    mean_sq = float(np.mean(z * z))
    assert abs(mean_sq - m2) <= 4.0 * math.sqrt(var2 / len(z)), (mean_sq, m2)
    return share, mean_sq


def random_hypergraph(rng, n_max: int = 7, e_max: int = 5,
                      arities=(2, 3)) -> Hypergraph:
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, e_max + 1))
    edges = []
    seen = set()
    for _ in range(m):
        p = int(rng.choice([a for a in arities if a <= n]))
        edge = tuple(sorted(rng.choice(n, size=p, replace=False).tolist()))
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    return hypergraph(n, edges)


def reference_sample_diluted(spec, rng) -> tuple[tuple[int, ...], ...]:
    """Edges of one diluted draw by the original row-by-row rejection
    loop: the same binomial counts and integer blocks as the sampler,
    each row checked and accepted one at a time."""
    n = spec.n
    edges = []
    seen = set()
    for p, a in spec.alphas:
        total = math.comb(n, p)
        m = int(rng.binomial(total, a * n / total))
        while m > 0:
            draw = rng.integers(0, n, size=(2 * m + 8, p))
            for row in draw:
                if len(set(row.tolist())) != p:
                    continue
                e = tuple(sorted(int(v) for v in row))
                if e in seen:
                    continue
                seen.add(e)
                edges.append(e)
                m -= 1
                if m == 0:
                    break
    return tuple(edges)


def first_positions(values) -> list[int]:
    """Positions of the first occurrence of each value, read left to right."""
    seen = set()
    out = []
    for i, v in enumerate(values):
        if v not in seen:
            seen.add(v)
            out.append(i)
    return out


def reference_validation_error(n: int, edges):
    """Message of the first failed edge check, edge by edge in id order
    (integer ids, arity, sorted distinct vertices, range, duplicate); None
    if valid."""
    seen = set()
    for eid, e in enumerate(edges):
        if not all(hasattr(type(v), "__index__") and not isinstance(v, (bool, np.bool_))
                   for v in e):
            return f"edge {eid} must have integer vertex ids, got {e}"
        if len(e) < 2:
            return f"edge {eid} has arity {len(e)} < 2"
        if list(e) != sorted(set(e)):
            return f"edge {eid} must be sorted distinct vertices, got {e}"
        if e[0] < 0 or e[-1] >= n:
            return f"edge {eid} has vertex outside [0, {n})"
        if e in seen:
            return f"duplicate edge {e}"
        seen.add(e)
    return None


def second_moment_quadrature(phi, n_edges: int, order: int) -> float:
    """E[phi(J)^2] on the full tensor Gauss-Hermite grid, its nodes listed
    by itertools.product in one batch."""
    x, w = np.polynomial.hermite_e.hermegauss(order)
    w = w / math.sqrt(2.0 * math.pi)
    rows = np.array(list(itertools.product(x, repeat=n_edges)))
    weights = np.array([math.prod(ws) for ws in itertools.product(w, repeat=n_edges)])
    vals = np.asarray(phi(rows), dtype=float)
    return float(weights @ (vals * vals))


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)

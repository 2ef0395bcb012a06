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
    eprod = np.array([[np.prod(row[list(e)]) for e in graph.edges] for row in states])
    return states, eprod.reshape(rows, graph.n_edges)


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
    each popped vertex scanning the whole edge list, every crossed edge
    marked in one global seen set. A shortest vertex walk through edges
    has distinct vertices and edges, so it is a Berge path."""
    dist = {root: 0}
    queue = deque([root])
    seen_edges = set()
    while queue:
        v = queue.popleft()
        if max_depth is not None and dist[v] >= max_depth:
            continue
        for eid, edge in enumerate(graph.edges):
            if eid in seen_edges or v not in edge:
                continue
            seen_edges.add(eid)
            for u in edge:
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
    s.e. from dof + 1 normal batch means each z is Student t with dof
    degrees of freedom, so the share lies within 4 binomial sd of
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


def reference_validation_error(n: int, edges):
    """Message of the first failed edge check, edge by edge in id order
    (arity, sorted distinct vertices, range, duplicate); None if valid."""
    seen = set()
    for eid, e in enumerate(edges):
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

"""Diluted random hypergraphs and the root exploration process.

A diluted spec puts each p-subset of [N] in the edge set independently
with probability alpha_p N / C(N, p), so the expected number of arity-p
edges is alpha_p N. The growth constants are
lambda = sum_p p(p-1) alpha_p and lambda' = sum_p p(p-1)(p-2) alpha_p.

The exploration reveals the component of a root in rounds: I_t are the
vertices first reached at round t, E_t the edges that pulled them in.
Cycle events are counted per round: an A event is a revealed edge meeting
the previous frontier twice, a D event is two revealed edges claiming a
common fresh vertex. The revealed edge sets form a hypertree exactly when
no round flags an event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .hypergraph import Hypergraph
from .rng import check_replicas, substream

MAX_N_LOW_ARITY = 100_000
MAX_N_HIGH_ARITY = 10_000


@dataclass(frozen=True)
class DilutedSpec:
    n: int
    alphas: tuple[tuple[int, float], ...]  # (p, alpha_p), sorted by p

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"need N >= 2, got {self.n}")
        prev = 1
        for p, a in self.alphas:
            if p <= prev:
                raise ValidationError("arities must be distinct, sorted, >= 2")
            if not (a > 0 and math.isfinite(a)):
                raise ValidationError(f"alpha_{p} must be positive finite, got {a}")
            if p > self.n:
                raise ValidationError(f"arity {p} exceeds N={self.n}")
            if a * self.n > math.comb(self.n, p):
                raise ValidationError(f"alpha_{p} N exceeds the number of {p}-subsets")
            prev = p
        max_p = max((p for p, _ in self.alphas), default=2)
        cap = MAX_N_LOW_ARITY if max_p <= 3 else MAX_N_HIGH_ARITY
        if self.n > cap:
            raise CapacityError(f"N={self.n} above cap {cap} for max arity {max_p}")

    @property
    def growth_rate(self) -> float:
        """lambda: mean number of children edges-slots per vertex."""
        return sum(p * (p - 1) * a for p, a in self.alphas)

    @property
    def growth_rate_prime(self) -> float:
        """lambda': the within-edge sibling correction in second moments."""
        return sum(p * (p - 1) * (p - 2) * a for p, a in self.alphas)


def diluted_spec(n: int, alphas) -> DilutedSpec:
    items = alphas.items() if hasattr(alphas, "items") else alphas
    return DilutedSpec(int(n), tuple(sorted((int(p), float(a)) for p, a in items)))


def sample_diluted(spec: DilutedSpec, rng: np.random.Generator) -> Hypergraph:
    """One draw of the diluted hypergraph.

    |E_p| is Binomial(C(N,p), alpha_p N / C(N,p)); the edges themselves
    are distinct uniform p-subsets, drawn by rejection (collisions are
    rare in the diluted regime).
    """
    n = spec.n
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for p, a in spec.alphas:
        total = math.comb(n, p)
        if total >= 2**63:
            raise CapacityError(f"C({n}, {p}) overflows the binomial sampler")
        q = a * n / total
        m = int(rng.binomial(total, q))
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
    return Hypergraph(n, tuple(edges))


@dataclass(frozen=True)
class ExplorationTrace:
    """Round-by-round record. i_sets[t] is I_t (i_sets[0] = {root});
    e_sets[t] holds the edge ids revealed entering round t (e_sets[0]
    is empty); a_counts/d_counts align with e_sets. first_cycle_round is
    the earliest flagged round, None if the revealed edges stay a
    hypertree."""

    root: int
    i_sets: tuple[frozenset[int], ...]
    e_sets: tuple[tuple[int, ...], ...]
    a_counts: tuple[int, ...]
    d_counts: tuple[int, ...]
    first_cycle_round: int | None

    @property
    def depth_reached(self) -> int:
        return len(self.i_sets) - 1

    def frontier_sizes(self, depth: int) -> list[int]:
        """|I_t| for t = 0..depth, zero after extinction."""
        out = []
        for t in range(depth + 1):
            out.append(len(self.i_sets[t]) if t < len(self.i_sets) else 0)
        return out

    def ball_size(self, t: int) -> int:
        return sum(len(s) for s in self.i_sets[: t + 1])

    def revealed_edges(self, depth: int | None = None) -> tuple[int, ...]:
        stop = len(self.e_sets) if depth is None else min(depth + 1, len(self.e_sets))
        out: list[int] = []
        for t in range(stop):
            out.extend(self.e_sets[t])
        return tuple(out)


def explore(g: Hypergraph, root: int, max_depth: int | None = None) -> ExplorationTrace:
    """Run the exploration from the root until extinction or max_depth."""
    if not 0 <= root < g.n:
        raise ValidationError(f"root {root} outside [0, {g.n})")
    in_r = bytearray(g.n)  # removed
    in_i = bytearray(g.n)  # current frontier
    in_i[root] = 1
    frontier = [root]

    i_sets = [frozenset([root])]
    e_sets: list[tuple[int, ...]] = [()]
    a_counts = [0]
    d_counts = [0]
    first_cycle = None

    t = 0
    while frontier and (max_depth is None or t < max_depth):
        t += 1
        revealed: list[int] = []
        seen_edges: set[int] = set()
        a_cnt = 0
        for v in frontier:
            for eid in g.incident(v):
                if eid in seen_edges:
                    continue
                seen_edges.add(eid)
                hits_r = False
                hits_i = 0
                for u in g.edges[eid]:
                    if in_r[u]:
                        hits_r = True
                        break
                    if in_i[u]:
                        hits_i += 1
                if hits_r:
                    continue
                revealed.append(eid)
                if hits_i >= 2:
                    a_cnt += 1
        # fresh vertices and D events: two revealed edges claiming one
        claims: dict[int, int] = {}
        for eid in revealed:
            for u in g.edges[eid]:
                if not in_r[u] and not in_i[u]:
                    claims[u] = claims.get(u, 0) + 1
        d_cnt = sum(c * (c - 1) // 2 for c in claims.values())

        for v in frontier:
            in_r[v] = 1
        new_frontier = sorted(claims)
        for u in new_frontier:
            in_i[u] = 1
        for v in frontier:
            in_i[v] = 0

        i_sets.append(frozenset(new_frontier))
        e_sets.append(tuple(sorted(revealed)))
        a_counts.append(a_cnt)
        d_counts.append(d_cnt)
        if first_cycle is None and (a_cnt or d_cnt):
            first_cycle = t
        frontier = new_frontier
    # drop the trailing empty frontier when the process died out
    if len(i_sets) > 1 and not i_sets[-1] and not e_sets[-1]:
        i_sets.pop(), e_sets.pop(), a_counts.pop(), d_counts.pop()
    return ExplorationTrace(root=root, i_sets=tuple(i_sets), e_sets=tuple(e_sets),
                            a_counts=tuple(a_counts), d_counts=tuple(d_counts),
                            first_cycle_round=first_cycle)


def frontier_mean_bound(spec: DilutedSpec, t: int) -> float:
    """E|I_t| <= lambda^t."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    return spec.growth_rate ** t


def frontier_second_moment_bound(spec: DilutedSpec, t: int) -> float:
    """E|I_t|^2 <= sum_{k=t}^{2t} lambda^k + lambda' sum_{k=t-1}^{2t-2} lambda^k."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    lam, lam_p = spec.growth_rate, spec.growth_rate_prime
    first = sum(lam ** k for k in range(t, 2 * t + 1))
    second = sum(lam ** k for k in range(t - 1, 2 * t - 1)) if t >= 1 else 0.0
    return first + lam_p * second


@dataclass(frozen=True)
class GrowthStats:
    spec: DilutedSpec
    depth: int
    replicas: int
    seed: int
    mean_i: np.ndarray
    se_i: np.ndarray
    mean_i2: np.ndarray
    se_i2: np.ndarray
    mean_b: np.ndarray
    bound_lambda_t: np.ndarray
    bound_second_moment: np.ndarray
    cycle_prob: float
    cycle_prob_se: float


def growth_stats(spec: DilutedSpec, depth: int, replicas: int, seed: int) -> GrowthStats:
    """Replicated exploration from vertex 0 of fresh diluted draws."""
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    check_replicas(replicas, depth + 1)
    sizes = np.zeros((replicas, depth + 1))
    cycles = np.zeros(replicas)
    for k in range(replicas):
        rng = substream(seed, "growth", k)
        g = sample_diluted(spec, rng)
        tr = explore(g, 0, max_depth=depth)
        sizes[k] = tr.frontier_sizes(depth)
        cycles[k] = 1.0 if (tr.first_cycle_round is not None
                            and tr.first_cycle_round <= depth) else 0.0
    sq = sizes ** 2
    balls = np.cumsum(sizes, axis=1)
    rt = math.sqrt(replicas)
    return GrowthStats(
        spec=spec, depth=depth, replicas=replicas, seed=seed,
        mean_i=sizes.mean(axis=0), se_i=sizes.std(axis=0, ddof=1) / rt,
        mean_i2=sq.mean(axis=0), se_i2=sq.std(axis=0, ddof=1) / rt,
        mean_b=balls.mean(axis=0),
        bound_lambda_t=np.array([frontier_mean_bound(spec, t) for t in range(depth + 1)]),
        bound_second_moment=np.array(
            [frontier_second_moment_bound(spec, t) for t in range(depth + 1)]),
        cycle_prob=float(cycles.mean()),
        cycle_prob_se=float(cycles.std(ddof=1) / rt),
    )


def growth_stats_rows(stats: GrowthStats) -> list[dict]:
    rows = []
    for t in range(stats.depth + 1):
        rows.append({
            "t": t,
            "mean_I": float(stats.mean_i[t]),
            "se_I": float(stats.se_i[t]),
            "mean_I2": float(stats.mean_i2[t]),
            "se_I2": float(stats.se_i2[t]),
            "mean_B": float(stats.mean_b[t]),
            "bound_lambda_t": float(stats.bound_lambda_t[t]),
            "bound_second_moment": float(stats.bound_second_moment[t]),
        })
    return rows


def probe_depth(spec: DilutedSpec, n: int, eps: float) -> int:
    """floor(delta ln N) with delta = (1 - eps) / (2 ln lambda)."""
    lam = spec.growth_rate
    if lam <= 1:
        raise ValidationError(f"probe depth needs lambda > 1, got {lam}")
    if not 0 < eps < 1:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    delta = (1.0 - eps) / (2.0 * math.log(lam))
    return int(math.floor(delta * math.log(n)))


def hypertree_trend(alphas, n_values, eps: float, replicas: int, seed: int) -> list[dict]:
    """P(cycle within the probe depth) across growing N; the probability
    should trend downward when the probe depth stays constant."""
    check_replicas(replicas, 1)
    rows = []
    for idx, n in enumerate(n_values):
        spec = diluted_spec(n, alphas)
        depth = probe_depth(spec, n, eps)
        if depth < 1:
            raise ValidationError(f"probe depth 0 at N={n}; pick larger N or smaller eps")
        flags = np.zeros(replicas)
        for k in range(replicas):
            rng = substream(seed, "trend", idx, k)
            g = sample_diluted(spec, rng)
            tr = explore(g, 0, max_depth=depth)
            flags[k] = 1.0 if (tr.first_cycle_round is not None
                               and tr.first_cycle_round <= depth) else 0.0
        rows.append({
            "n": int(n),
            "depth": depth,
            "cycle_prob": float(flags.mean()),
            "se": float(flags.std(ddof=1) / math.sqrt(replicas)),
        })
    return rows

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
no round flags an event. The rounds are hypergraph's one Berge traversal,
the same that measures ball sizes, distances and hypertree radii, so I_t
is the set of vertices at Berge distance t from the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, ValidationError, _integer
from .hypergraph import Hypergraph, _rounds
from .rng import check_replicas, mean_se, replicate

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
            total = math.comb(self.n, p)
            if a * self.n > total:
                raise ValidationError(f"alpha_{p} N exceeds the number of {p}-subsets")
            if total >= 2**63:
                raise CapacityError(f"C({self.n}, {p}) overflows the binomial sampler")
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
    """N and the arities as ints (numpy ints pass, floats are refused), alphas as floats."""
    items = alphas.items() if hasattr(alphas, "items") else alphas
    return DilutedSpec(_integer(n, "N"),
                       tuple(sorted((_integer(p, "arity"), float(a)) for p, a in items)))


def sample_diluted(spec: DilutedSpec, rng: np.random.Generator) -> Hypergraph:
    """One draw of the diluted hypergraph.

    |E_p| is Binomial(C(N,p), alpha_p N / C(N,p)); the edges themselves
    are distinct uniform p-subsets, drawn by rejection (collisions are
    rare in the diluted regime).

    Stream contract, which fixes the graph of every seed: for each arity
    in increasing order, one binomial count m, then blocks
    rng.integers(0, N, size=(2m + 8, p)) while m edges are still
    missing. Each block row is sorted; rows with a repeated vertex, and
    rows equal to an earlier row of this block or of an earlier block,
    are dropped; the first m survivors become edges in draw order. These
    are the draws, the accepted rows and the edge order of a row-by-row
    rejection loop over the same blocks.

    Rows are compared by their colex rank, sum_k C(v_k, k + 1) over the
    sorted row, which numbers the p-subsets 0..C(N, p) - 1 and so fits
    int64 (DilutedSpec refuses larger C(N, p)). The accepted rows go to
    Hypergraph as one int64 block per draw, never as tuples.
    """
    n = spec.n
    blocks = []
    for p, a in spec.alphas:
        total = math.comb(n, p)
        m = int(rng.binomial(total, a * n / total))
        held = []  # ranks of this arity's accepted rows, block by block
        while m > 0:
            rows = _sort_rows(rng.integers(0, n, size=(2 * m + 8, p)))
            distinct = rows[:, 1] > rows[:, 0]
            for k in range(2, p):
                distinct &= rows[:, k] > rows[:, k - 1]
            rows = rows[distinct]
            rank = _colex_rank(n, rows)
            first = _first_occurrences(rank)
            if held:  # drop the rows that earlier blocks hold
                first = first[~np.isin(rank[first], np.concatenate(held))]
            first = first[:m]
            blocks.append(rows[first])
            held.append(rank[first])
            m -= len(first)
    return Hypergraph(n, blocks)


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    """rows with each row sorted in place, by a compare-exchange network
    over whole columns (a bubble sort's p(p - 1) / 2 exchanges)."""
    for top in range(rows.shape[1] - 1, 0, -1):
        for k in range(top):
            lo, hi = rows[:, k], rows[:, k + 1]
            low = np.minimum(lo, hi)
            np.maximum(lo, hi, out=hi)
            lo[...] = low
    return rows


def _first_occurrences(x: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each value of x."""
    order = x.argsort()
    ordered = x[order]
    new = np.empty(len(x), bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    first = np.minimum.reduceat(order, new.nonzero()[0])
    first.sort()
    return first


def _colex_rank(n: int, rows: np.ndarray) -> np.ndarray:
    """Colex rank sum_k C(v_k, k + 1) of each row, a sorted p-subset of
    [n]: a bijection onto 0..C(n, p) - 1."""
    table = _colex_table(n, rows.shape[1])
    rank = table[0][rows[:, 0]]
    for k in range(1, len(table)):
        rank += table[k][rows[:, k]]
    return rank


@lru_cache(maxsize=16)
def _colex_table(n: int, p: int) -> tuple[np.ndarray, ...]:
    """Column k maps v to C(v, k + 1) for the v <= n - p + k that a sorted
    p-subset of [n] can hold there; every entry is at most C(n, p) - 1.
    Read-only, shared by every draw of (n, p)."""
    col = np.arange(n - p + 1, dtype=np.int64)
    table = [col]
    for _ in range(1, p):
        col = np.concatenate(([0], np.cumsum(col)))  # C(v, j + 1) = sum_{u < v} C(u, j)
        table.append(col)
    for col in table:
        col.flags.writeable = False
    return tuple(table)


@dataclass(frozen=True)
class ExplorationTrace:
    """Round-by-round record. i_sets[t] is I_t (i_sets[0] = {root});
    e_sets[t] holds the edge ids revealed entering round t (e_sets[0]
    is empty); a_counts/d_counts align with e_sets. first_cycle_round is
    the earliest flagged round, None if the revealed edges stay a
    hypertree."""

    i_sets: tuple[frozenset[int], ...]
    e_sets: tuple[tuple[int, ...], ...]
    a_counts: tuple[int, ...]
    d_counts: tuple[int, ...]
    first_cycle_round: int | None

    def frontier_sizes(self, depth: int) -> list[int]:
        """|I_t| for t = 0..depth, zero after extinction."""
        out = []
        for t in range(depth + 1):
            out.append(len(self.i_sets[t]) if t < len(self.i_sets) else 0)
        return out


def explore(g: Hypergraph, root: int, max_depth: int | None = None) -> ExplorationTrace:
    """Run the exploration from the root until extinction or max_depth."""
    rounds = list(_rounds(g, root, max_depth))
    # drop the trailing empty frontier when the process died out
    if len(rounds) > 1 and not rounds[-1][0] and not rounds[-1][1]:
        rounds.pop()
    i_sets, e_sets, a_counts, d_counts = zip(*rounds)
    flagged = (t for t, (a, d) in enumerate(zip(a_counts, d_counts)) if a or d)
    return ExplorationTrace(i_sets=tuple(map(frozenset, i_sets)),
                            e_sets=tuple(tuple(sorted(e)) for e in e_sets),
                            a_counts=a_counts, d_counts=d_counts,
                            first_cycle_round=next(flagged, None))


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


def _explorations(spec: DilutedSpec, depth: int, replicas: int, seed: int,
                  *path) -> np.ndarray:
    """(replicas, depth + 2) array: row k explores vertex 0 of the diluted
    draw from the substream (seed, *path, k) to the given depth and holds
    |I_0|..|I_depth| followed by 1.0 if a cycle event was flagged, else 0.0."""
    def one(rng) -> list[float]:
        tr = explore(sample_diluted(spec, rng), 0, max_depth=depth)
        cycle = tr.first_cycle_round is not None and tr.first_cycle_round <= depth
        return tr.frontier_sizes(depth) + [float(cycle)]
    return replicate(one, replicas, depth + 2, seed, *path)


def growth_stats(spec: DilutedSpec, depth: int, replicas: int,
                 seed: int) -> tuple[list[dict], float, float]:
    """Replicated exploration from vertex 0 of fresh diluted draws.

    Returns (rows, cycle_prob, cycle_prob_se): row t = 0..depth holds the
    mean and s.e. of |I_t| and |I_t|^2, the mean ball size
    |B_t| = |I_0| + ... + |I_t| and the two frontier bounds; cycle_prob is
    the share of replicas that flag a cycle event within the depth."""
    if _integer(depth, "depth") < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    per = _explorations(spec, depth, replicas, seed, "growth")
    sizes = per[:, :-1]
    mean_i, se_i = mean_se(sizes)
    mean_i2, se_i2 = mean_se(sizes ** 2)
    mean_b = np.cumsum(sizes, axis=1).mean(axis=0)
    rows = [{"t": t, "mean_I": float(mean_i[t]), "se_I": float(se_i[t]),
             "mean_I2": float(mean_i2[t]), "se_I2": float(se_i2[t]),
             "mean_B": float(mean_b[t]),
             "bound_lambda_t": float(frontier_mean_bound(spec, t)),
             "bound_second_moment": float(frontier_second_moment_bound(spec, t))}
            for t in range(depth + 1)]
    # the flag column alone: inside a 2-D reduction it would sum row by row
    # and round differently
    cycle_prob, cycle_prob_se = map(float, mean_se(per[:, -1]))
    return rows, cycle_prob, cycle_prob_se


def probe_depth(spec: DilutedSpec, n: int, eps: float) -> int:
    """floor(delta ln N) with delta = (1 - eps) / (2 ln lambda)."""
    lam = spec.growth_rate
    if lam <= 1:
        raise ValidationError(f"probe depth needs lambda > 1, got {lam}")
    if not 0 < eps < 1:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    delta = (1.0 - eps) / (2.0 * math.log(lam))
    return int(math.floor(delta * math.log(n)))


def trend_sizes(alphas, n_values, eps: float, replicas: int) -> list[tuple[DilutedSpec, int]]:
    """(spec, probe depth) of each trend size, all checked before any draw:
    strictly increasing N, depth >= 1 and a (replicas, depth + 2) array
    within the replica budget."""
    out = []
    for n in n_values:
        spec = diluted_spec(n, alphas)
        if out and spec.n <= out[-1][0].n:  # the trend reads growing N
            raise ValidationError(f"n_values must strictly increase, got {list(n_values)}")
        depth = probe_depth(spec, n, eps)
        if depth < 1:
            raise ValidationError(f"probe depth 0 at N={n}; pick larger N or smaller eps")
        check_replicas(replicas, depth + 2)
        out.append((spec, depth))
    return out


def hypertree_trend(alphas, n_values, eps: float, replicas: int, seed: int) -> list[dict]:
    """P(cycle within the probe depth) across growing N; the probability
    should trend downward when the probe depth stays constant."""
    rows = []
    for idx, (spec, depth) in enumerate(trend_sizes(alphas, n_values, eps, replicas)):
        flags = _explorations(spec, depth, replicas, seed, "trend", idx)[:, -1]
        cycle_prob, se = map(float, mean_se(flags))
        rows.append({"n": spec.n, "depth": depth, "cycle_prob": cycle_prob, "se": se})
    return rows

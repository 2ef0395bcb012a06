import math
from collections import Counter

import numpy as np
import pytest

from spinchaos import randgraph
from spinchaos.errors import CapacityError, ValidationError
from spinchaos.hypergraph import (INCIDENCE_BYTES, berge_distance, component, hypergraph,
                                  hypertree_radius)
from spinchaos.randgraph import (_colex_rank, _first_occurrences, diluted_spec, explore,
                                 frontier_mean_bound,
                                 frontier_second_moment_bound, growth_stats,
                                 hypertree_trend, probe_depth, sample_diluted)
from spinchaos.rng import substream

from conftest import (bfs_distances, brute_has_berge_cycle, first_positions,
                      random_hypergraph, reference_sample_diluted)


def revealed_edges(trace) -> tuple[int, ...]:
    """Edge ids of a trace in the order they were revealed."""
    return tuple(eid for es in trace.e_sets for eid in es)


def test_spec_validation():
    spec = diluted_spec(100, {2: 0.6, 3: 0.2})
    assert spec.alphas == ((2, 0.6), (3, 0.2))
    with pytest.raises(ValidationError):
        diluted_spec(1, {2: 0.5})
    with pytest.raises(ValidationError):
        diluted_spec(50, {1: 0.5})
    with pytest.raises(ValidationError):
        diluted_spec(50, {2: -0.1})
    with pytest.raises(ValidationError):
        diluted_spec(50, {60: 0.1})  # arity above N
    with pytest.raises(ValidationError):
        diluted_spec(4, {2: 2.0})  # alpha N above C(N, 2)
    with pytest.raises(CapacityError):
        diluted_spec(200_000, {2: 0.5})
    with pytest.raises(CapacityError):
        diluted_spec(50_000, {4: 0.1})
    # N and arities are integers: 50.7 read as 50, arity 2.9 as 2, and a
    # trend size 1.5 failed as "need N >= 2, got 1"
    for call in (lambda: diluted_spec(50.7, {2: 0.9}), lambda: diluted_spec(16, {2.9: 0.5}),
                 lambda: hypertree_trend({2: 0.9}, [1.5, 500], 0.2, 3, 1)):
        with pytest.raises(ValidationError, match="must be an integer"):
            call()
    assert diluted_spec(np.int64(16), {np.uint8(2): 0.5}).alphas == ((2, 0.5),)


def test_spec_refuses_a_dense_sampler_block():
    # sample_diluted's first block per arity holds 2m + 8 rows of p int64
    # at m about alpha_p N: 16 (2 alpha N + 8) bytes reach the budget
    # exactly at alpha N = 2^23 - 4 on N = 2^16
    n, at_cap, past = 1 << 16, ((1 << 23) - 4) / (1 << 16), ((1 << 23) - 3) / (1 << 16)
    assert 16 * (2 * at_cap * n + 8) == INCIDENCE_BYTES
    assert diluted_spec(n, {2: at_cap}).alphas == ((2, at_cap),)
    # one expected edge more, or any other arity, is past it; the last
    # expects 5e9 edges, so its first block would need 149 GiB
    for size, alphas in ((n, {2: past}),
                         (n, {2: at_cap, 3: 1e-3}), (100_000, {2: 49999.0})):
        with pytest.raises(CapacityError, match="sampler's expected blocks"):
            diluted_spec(size, alphas)


def test_growth_rates():
    spec = diluted_spec(1000, {2: 0.6, 3: 0.2})
    assert spec.growth_rate == pytest.approx(2.4, abs=1e-15)
    assert spec.growth_rate_prime == pytest.approx(1.2, abs=1e-15)
    pure2 = diluted_spec(1000, {2: 0.9})
    assert pure2.growth_rate_prime == 0.0


def test_sample_shapes_and_validity():
    spec = diluted_spec(60, {2: 0.5, 3: 0.1})
    g = sample_diluted(spec, substream(21, "sample"))
    assert g.n == 60
    seen = set()
    for e in g.edges:
        assert len(e) in (2, 3)
        assert list(e) == sorted(set(e))
        assert 0 <= e[0] and e[-1] < 60
        assert e not in seen
        seen.add(e)


def test_sample_determinism():
    spec = diluted_spec(80, {2: 0.7})
    a = sample_diluted(spec, substream(5, "det"))
    b = sample_diluted(spec, substream(5, "det"))
    assert a == b


def test_sample_edge_counts_binomial():
    n, alpha = 50, 0.8
    spec = diluted_spec(n, {2: alpha})
    reps = 400
    counts = [sample_diluted(spec, substream(33, "cnt", k)).n_edges
              for k in range(reps)]
    total = math.comb(n, 2)
    q = alpha * n / total
    mean, var = total * q, total * q * (1 - q)
    assert abs(np.mean(counts) - mean) < 4 * math.sqrt(var / reps)
    assert 0.7 * var < np.var(counts, ddof=1) < 1.4 * var


class CountingRng:
    """Generator proxy that records, per integer block drawn, its length
    followed by the length of each part of it the sampler reads."""

    def __init__(self, rng):
        self.rng = rng
        self.reads = []

    def binomial(self, *args, **kwargs):
        return self.rng.binomial(*args, **kwargs)

    def integers(self, *args, **kwargs):
        block = self.rng.integers(*args, **kwargs)
        self.reads.append([len(block)])
        return block

    def paths(self) -> list[str]:
        """How each block was read: "one pass" over the whole block,
        "prefix" alone, or the prefix and then the "rest"."""
        return ["rest" if len(r) == 3 else "one pass" if r[1] == r[0] else "prefix"
                for r in self.reads]


@pytest.fixture
def read_spy(monkeypatch):
    """Installs a spy on the sampler's survivor pass and returns a
    function that wraps a generator in a CountingRng the spy reports to."""
    survivors, current = randgraph._survivors, []

    def spy(n, rows, held):
        current[-1].reads[-1].append(len(rows))
        return survivors(n, rows, held)

    monkeypatch.setattr(randgraph, "_survivors", spy)

    def counting(rng):
        current.append(CountingRng(rng))
        return current[-1]
    return counting


@pytest.mark.parametrize("n, alphas, seeds, min_blocks", [
    (16, {2: 0.6, 3: 0.2}, 300, 0),
    (50, {2: 0.8, 3: 0.1}, 300, 0),
    (12, {2: 2.5, 3: 3.0, 4: 2.0}, 300, 0),
    (12, {2: 5.0, 3: 15.0, 4: 2.0}, 300, 1900),  # near-full arities: over 1000 retry blocks
    (10_000, {5: 0.3}, 4, 0),                     # wide arity: C(N, 5) ~ 8e17
])
def test_sampler_matches_rejection_loop(n, alphas, seeds, min_blocks, read_spy):
    spec = diluted_spec(n, alphas)
    paths = Counter()
    for k in range(seeds):
        counted = read_spy(substream(404, "oracle", k))
        got = sample_diluted(spec, counted).edges
        assert got == reference_sample_diluted(spec, substream(404, "oracle", k)), k
        paths.update(counted.paths())
    assert sum(paths.values()) >= min_blocks
    if n == 16:  # short blocks only
        assert set(paths) == {"one pass"}
    if n == 12:  # dense: some prefixes fall short and the rest of their block is read
        assert paths["rest"] > 0
    if n >= 50:  # sparse: every prefix holds its block's survivors
        assert paths["prefix"] > 0 and paths["rest"] == 0


def test_sampler_matches_rejection_loop_at_1e4(read_spy):
    spec = diluted_spec(10_000, {2: 0.6, 3: 0.2})
    counted = read_spy(substream(405, "oracle"))
    g = sample_diluted(spec, counted)
    assert g.edges == reference_sample_diluted(spec, substream(405, "oracle"))
    assert all(type(v) is int for e in g.edges[:50] for v in e)
    assert counted.paths() == ["prefix", "prefix"]


@pytest.mark.parametrize("x", [
    [], [7], [3, 0, 2, 9], [5, 5], [4, 1, 4, 1, 9, 4], [2, 2, 2, 2],
    [9, 8, 7, 1, 8, 9, 0],
])
def test_first_occurrences_matches_first_positions(x):
    got = _first_occurrences(np.array(x, np.int64))
    assert got.tolist() == first_positions(x)


def test_first_occurrences_at_random():
    """Unsorted int64 draws over wide and narrow ranges, so that both the
    no-repeat and the repeat path run at sizes from 1 to 5000."""
    rng = np.random.default_rng(19)
    repeated = 0
    for size in (1, 2, 3, 17, 64, 65, 500, 5000):
        for high in (2, size + 1, 2**62):
            x = rng.integers(0, high, size)
            got = _first_occurrences(x)
            assert got.tolist() == first_positions(x.tolist()), (size, high)
            repeated += len(got) < size
    assert repeated >= 10


def test_colex_rank_at_the_int64_limit():
    """At N = 4000, p = 6 the colex ranks reach C(N, p) - 1, about
    0.61 * 2^63: they equal the Python-int sums, and the sampler still
    draws the rejection loop's graphs."""
    n, p = 4000, 6
    assert 0.6 * 2**63 < math.comb(n, p) < 2**63
    rng = np.random.default_rng(6)
    rows = [list(range(n - p, n)), [n - 7, *range(n - 5, n)], [*range(p - 1), n - 1],
            list(range(p))] + [sorted(rng.choice(n, size=p, replace=False).tolist())
                               for _ in range(50)]
    got = _colex_rank(n, np.array(rows))
    want = [sum(math.comb(v, k + 1) for k, v in enumerate(row)) for row in rows]
    assert got.dtype == np.int64 and got.tolist() == want
    assert want[0] == math.comb(n, p) - 1 and want[3] == 0
    spec = diluted_spec(n, {p: 0.01})
    for k in range(4):
        got = sample_diluted(spec, substream(406, "oracle", k)).edges
        assert got == reference_sample_diluted(spec, substream(406, "oracle", k)), k


def test_sampler_capacity_guard():
    # C(N, p) past int64 is refused by the spec, before any draw
    with pytest.raises(CapacityError):
        diluted_spec(10_000, {7: 1e-17})


# ---------------------------------------------------------------------------
# exploration: exact layer characterization


def layers_oracle(g, root):
    dist = bfs_distances(g, root)
    max_d = max(dist.values())
    i_sets = [frozenset(v for v, d in dist.items() if d == t) for t in range(max_d + 1)]
    e_by_round = {t: set() for t in range(max_d + 2)}
    for eid, e in enumerate(g.edges):
        if e[0] in dist:  # an edge lies in the component with all its vertices or none
            e_by_round[min(dist[v] for v in e) + 1].add(eid)
    return i_sets, e_by_round


def test_explore_matches_bfs_layers(rng):
    for _ in range(200):
        g = random_hypergraph(rng, n_max=9, e_max=8)
        root = int(rng.integers(g.n))
        tr = explore(g, root)
        want_i, want_e = layers_oracle(g, root)
        assert list(tr.i_sets[:len(want_i)]) == want_i
        extra = list(tr.i_sets[len(want_i):])
        # a trailing empty frontier survives only to hold closing edges
        assert extra in ([], [frozenset()])
        if extra:
            assert tr.e_sets[len(want_i)]
        for t in range(len(tr.e_sets)):
            assert set(tr.e_sets[t]) == want_e.get(t, set())
        for t, es in want_e.items():
            if es:
                assert t < len(tr.e_sets)
        # every component edge is revealed exactly once, at the round
        # after its closest vertex enters the frontier
        revealed = revealed_edges(tr)
        assert len(revealed) == len(set(revealed))
        assert set(revealed) == set().union(*want_e.values()) if want_e else not revealed


def test_trace_partition_properties(rng):
    for _ in range(150):
        g = random_hypergraph(rng, n_max=9, e_max=8)
        root = int(rng.integers(g.n))
        tr = explore(g, root)
        removed = set()
        for t, i_t in enumerate(tr.i_sets):
            assert not (removed & i_t)  # R_t and I_t disjoint
            if t >= 1:
                for eid in tr.e_sets[t]:
                    e = set(g.edges[eid])
                    assert e & tr.i_sets[t - 1]  # touches the old frontier
                    assert not e & (removed - tr.i_sets[t - 1])
            removed |= i_t
        # B_t(root) = union of layers 0..t
        cum = set()
        for t, i_t in enumerate(tr.i_sets):
            cum |= i_t
            assert cum == set(bfs_distances(g, root, t))


def test_flags_iff_revealed_cycle(rng):
    flagged = clean = 0
    for _ in range(250):
        g = random_hypergraph(rng, n_max=9, e_max=7)
        root = int(rng.integers(g.n))
        tr = explore(g, root)
        has_flags = tr.first_cycle_round is not None
        sub = hypergraph(g.n, [g.edges[e] for e in revealed_edges(tr)])
        assert has_flags == brute_has_berge_cycle(sub)
        if has_flags:
            flagged += 1
            t = tr.first_cycle_round
            assert tr.a_counts[t] or tr.d_counts[t]
            assert all(a == 0 and d == 0 for a, d in
                       zip(tr.a_counts[:t], tr.d_counts[:t]))
            # the rounds before the first flag reveal a cycle-free set
            early = [g.edges[e] for s in range(t) for e in tr.e_sets[s]]
            assert not brute_has_berge_cycle(hypergraph(g.n, early))
        else:
            clean += 1
    assert flagged and clean


def test_explore_max_depth_truncates():
    n = 12
    path = hypergraph(n, [(k, k + 1) for k in range(n - 1)])
    tr = explore(path, 0, max_depth=4)
    assert len(tr.i_sets) - 1 == 4  # depth reached
    assert tr.frontier_sizes(6) == [1, 1, 1, 1, 1, 0, 0]
    assert len(set().union(*tr.i_sets[:5])) == 5  # ball of radius 4
    assert revealed_edges(tr) == (0, 1, 2, 3)
    full = explore(path, 0)
    assert len(full.i_sets) - 1 == n - 1
    assert full.first_cycle_round is None


def test_explore_isolated_root():
    g = hypergraph(5, [(1, 2)])
    tr = explore(g, 0)
    assert tr.i_sets == (frozenset({0}),)
    assert len(tr.i_sets) - 1 == 0
    assert tr.first_cycle_round is None


def test_explore_validation():
    g = hypergraph(3, [(0, 1)])
    with pytest.raises(ValidationError):
        explore(g, 3)
    with pytest.raises(ValidationError, match="max_depth must be >= 0"):
        explore(g, 0, max_depth=-1)
    assert explore(g, 0, max_depth=0).i_sets == (frozenset({0}),)


def test_traversal_rejects_non_integer_arguments():
    # floats were truncated or compared: a depth 1.5 grew the depth-2
    # ball, nan gave {0}, a target 1.5 sat at distance inf
    path = hypergraph(5, [(k, k + 1) for k in range(4)])
    calls = [lambda: explore(path, 0, max_depth=1.5), lambda: explore(path, 0, max_depth=math.nan),
             lambda: berge_distance(path, 0, 1.5), lambda: explore(path, 1.5),
             lambda: component(path, np.float64(0.0)), lambda: hypertree_radius(path, 0.0)]
    for call in calls:
        with pytest.raises(ValidationError, match="must be an integer"):
            call()
    # numpy ints are integers
    assert explore(path, np.int64(0), max_depth=np.int32(2)).i_sets[2] == frozenset({2})
    assert berge_distance(path, np.int64(4), np.uint8(0)) == 4


# ---------------------------------------------------------------------------
# bounds and replicated statistics


def test_bound_formulas():
    spec = diluted_spec(1000, {2: 0.6, 3: 0.2})
    lam, lam_p = 2.4, 1.2
    assert frontier_mean_bound(spec, 0) == 1.0
    assert frontier_mean_bound(spec, 3) == pytest.approx(lam ** 3)
    assert frontier_second_moment_bound(spec, 0) == 1.0
    t = 3
    first = sum(lam ** k for k in range(t, 2 * t + 1))
    second = sum(lam ** k for k in range(t - 1, 2 * t - 1))
    assert frontier_second_moment_bound(spec, t) == pytest.approx(first + lam_p * second)
    with pytest.raises(ValidationError):
        frontier_mean_bound(spec, -1)
    with pytest.raises(ValidationError):
        frontier_second_moment_bound(spec, -1)


def test_bounds_keep_their_bits_on_every_python():
    # the growth-1e4 spec, whose digests pin these floats: Python 3.12's
    # compensated sum() would give 381.04473600000034
    spec = diluted_spec(10_000, {2: 0.6, 3: 0.2})
    assert spec.growth_rate == 2.4000000000000004
    assert frontier_second_moment_bound(spec, 3) == 381.0447360000003


def test_growth_stats_within_bounds():
    spec = diluted_spec(3000, {2: 0.6, 3: 0.2})
    rows, cycle_prob, _ = growth_stats(spec, depth=4, replicas=400, seed=40)
    assert rows[0]["mean_I"] == 1.0 and rows[0]["se_I"] == 0.0
    for r in rows:
        assert r["mean_I"] <= r["bound_lambda_t"] + 3 * r["se_I"]
        assert r["mean_I2"] <= r["bound_second_moment"] + 3 * r["se_I2"]
    assert [r["t"] for r in rows] == [0, 1, 2, 3, 4]
    assert rows[2]["mean_B"] == pytest.approx(sum(r["mean_I"] for r in rows[:3]))
    assert 0.0 <= cycle_prob <= 1.0


def test_growth_stats_refuses_overflowing_bounds(monkeypatch):
    # lambda = 1.2: 1.2^10000 is past the float range, and the second-moment
    # bound raised a raw OverflowError after every replica had run
    monkeypatch.setattr(randgraph, "sample_diluted", None)  # no draw may start
    with pytest.raises(CapacityError, match="overflow a float"):
        growth_stats(diluted_spec(400, {2: 0.6}), 5000, 4, seed=1)
    # at lambda = 1 every term is 1.0
    randgraph.check_growth(diluted_spec(400, {2: 0.5}), 5000, 4)


def test_growth_stats_deterministic():
    spec = diluted_spec(500, {2: 0.7})
    assert growth_stats(spec, 3, 50, seed=7) == growth_stats(spec, 3, 50, seed=7)


def test_probe_depth():
    spec = diluted_spec(1000, {2: 0.6, 3: 0.2})  # lambda = 2.4
    delta = 0.5 / (2 * math.log(2.4))
    assert probe_depth(spec, 1000, 0.5) == math.floor(delta * math.log(1000))
    with pytest.raises(ValidationError):
        probe_depth(diluted_spec(1000, {2: 0.4}), 1000, 0.5)  # lambda < 1
    with pytest.raises(ValidationError):
        probe_depth(spec, 1000, 1.5)


def test_hypertree_trend_rows():
    rows = hypertree_trend({2: 0.9, 3: 0.2}, [300, 600], eps=0.5,
                           replicas=60, seed=11)
    assert [r["n"] for r in rows] == [300, 600]
    for r in rows:
        spec = diluted_spec(r["n"], {2: 0.9, 3: 0.2})
        assert r["depth"] == probe_depth(spec, r["n"], 0.5)
        assert 0.0 <= r["cycle_prob"] <= 1.0
        assert r["se"] >= 0.0
    again = hypertree_trend({2: 0.9, 3: 0.2}, [300, 600], eps=0.5,
                            replicas=60, seed=11)
    assert again == rows
    with pytest.raises(ValidationError):
        hypertree_trend({2: 0.9, 3: 0.2}, [300, 600], eps=0.5, replicas=1, seed=11)
    # a repeated N is no trend point, though its substream differs by position
    with pytest.raises(ValidationError, match="n_values must strictly increase"):
        hypertree_trend({2: 0.9}, [100, 100], eps=0.2, replicas=30, seed=1)

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spinchaos import fixtures, gibbs
from spinchaos.chaos import disorder_functional
from spinchaos.disorder import DisorderModel
from spinchaos.errors import CapacityError, NumericalError, ValidationError
from spinchaos.gibbs import (batch_moments, exact_correlations,
                             ground_state_correlations, ground_states,
                             mcmc_correlations, overlap_second_moment,
                             spin_system)
from spinchaos.hypergraph import hypergraph
from spinchaos.randgraph import diluted_spec, sample_diluted
from spinchaos.rng import mean_se, substream

from conftest import (batch_moments_full_table, bit_decoded_table,
                      dense_correlations, dense_ground_correlations, dense_ground_states,
                      exact_correlations_both_halves, full_table_correlations, hamiltonian,
                      materialized_ground_correlations, peak_memory_mb,
                      planted_ground_states, product_states, random_hypergraph,
                      reference_mcmc)


def ring(n):
    return hypergraph(n, [(k, (k + 1) % n) for k in range(n)])


def test_spin_system_validation():
    g = ring(4)
    with pytest.raises(ValidationError):
        spin_system(g, [1.0, 2.0], 1.0)  # wrong coupling count
    with pytest.raises(ValidationError, match=r"couplings must be \(B, 4\)"):
        batch_moments(g, np.ones((3, 2)), 1.0, [(0, 1)])  # and batch_moments' rows
    with pytest.raises(ValidationError, match=r"couplings must be \(B, 4\)"):
        batch_moments(g, np.ones((2, 4, 4)), 1.0, [(0, 1)])  # a third axis
    with pytest.raises(ValidationError, match="levy_scale"):
        spin_system(g, np.ones(4), 1.0, levy_scale=0.0)
    with pytest.raises(ValidationError):
        spin_system(g, [1.0, 2.0, 3.0, math.nan], 1.0)
    with pytest.raises(ValidationError):
        spin_system(g, np.ones(4), -0.5)
    # infinity is None; strings, bools and a float infinity are refused
    for beta in (math.inf, "beta=oo", "infinity", "0.5", "abc", True, np.bool_(False)):
        with pytest.raises(ValidationError, match="beta"):
            spin_system(g, np.ones(4), beta)
    assert spin_system(g, np.ones(4), None).beta is None
    assert spin_system(g, np.ones(4), np.float64(0.5)).beta == 0.5


def test_hamiltonian_manual():
    g = hypergraph(4, [(0, 1), (1, 2, 3)])
    sys = spin_system(g, [0.5, -2.0], 1.0)
    sigma = np.array([1, -1, -1, 1])
    want = 0.5 * (1 * -1) + (-2.0) * (-1 * -1 * 1)
    assert hamiltonian(sys, sigma) == want
    scaled = spin_system(g, [0.5, -2.0], 1.0, levy_scale=0.25)
    assert hamiltonian(scaled, sigma) == 0.25 * want
    with pytest.raises(ValidationError):
        hamiltonian(sys, np.array([1, -1, 2, 1]))


def test_exact_correlations_match_dense_oracle(rng):
    for _ in range(40):
        g = random_hypergraph(rng, n_max=8, e_max=6)
        cs = rng.standard_normal(g.n_edges)
        beta = float(rng.choice([0.0, 0.4, 1.1, 2.5]))
        got = exact_correlations(spin_system(g, cs, beta))
        corr, means, log_z = dense_correlations(g, cs, beta)
        assert np.allclose(got.corr, corr, atol=1e-12)
        assert np.allclose(got.means, means, atol=1e-12)
        assert got.log_z == pytest.approx(log_z, abs=1e-10)


def few_rows_per_block(monkeypatch, g, rows=3):
    monkeypatch.setattr(gibbs, "TABLE_BYTES", 8 * (g.n + g.n_edges) * rows)


def few_columns_per_chunk(monkeypatch, g, cols=2):
    """A TABLE_BYTES that holds the split tables of each component of g
    and, for the largest, energy chunks of cols columns (rounded down to a
    power of two), each column 2^a energies and a row of c * Q."""
    need = [p.size + q.size + cols * (len(p) + p.shape[1])
            for *_, p, q in gibbs._components(g)[1]]
    monkeypatch.setattr(gibbs, "TABLE_BYTES", 8 * max(need, default=0))


def kernel_table(g, rows, sub=None):
    """The cached low table of rows rows and its sub-table of sub rows
    (rows by default), asserted to be the one that exact_correlations
    reads on g under the current TABLE_BYTES and BATCH_BLOCK_BYTES."""
    exact_correlations(spin_system(g, np.ones(g.n_edges), 0.5))  # fills the cache
    hits = gibbs._low_table.cache_info().hits
    table = gibbs._low_table(g, rows, sub or rows)
    assert gibbs._low_table.cache_info().hits == hits + 1
    return table


def test_blocked_streaming_is_exact(rng, monkeypatch):
    # tiny blocks force the online renormalization across many partials
    g = random_hypergraph(rng, n_max=8, e_max=6)
    g = hypergraph(8, g.edges)  # 128 half rows: dozens of blocks
    cs = 3.0 * rng.standard_normal(g.n_edges)  # spread the energies
    a = exact_correlations(spin_system(g, cs, 2.0))
    ga = ground_states(spin_system(g, cs, None))[0]
    few_rows_per_block(monkeypatch, g)
    assert len(kernel_table(g, 2)[0]) < 1 << (g.n - 1)  # 3 rows fit, 2 per block
    b = exact_correlations(spin_system(g, cs, 2.0))
    few_columns_per_chunk(monkeypatch, g)
    gb = ground_states(spin_system(g, cs, None))[0]
    assert np.allclose(a.corr, b.corr, rtol=0, atol=1e-14)
    assert a.log_z == pytest.approx(b.log_z, abs=1e-12)
    assert ga.energy == gb.energy
    assert np.array_equal(product_states(ga), product_states(gb))


def test_small_blocks_match_dense_oracle(rng, monkeypatch):
    # odd arities give nonzero means, which only the spin signs can carry
    for _ in range(10):
        g = random_hypergraph(rng, n_max=8, e_max=6, arities=(2, 3))
        few_rows_per_block(monkeypatch, g, 2)
        cs = rng.standard_normal(g.n_edges)
        got = exact_correlations(spin_system(g, cs, 1.3))
        corr, means, log_z = dense_correlations(g, cs, 1.3)
        assert np.allclose(got.corr, corr, atol=1e-12)
        assert np.allclose(got.means, means, atol=1e-12)
        assert got.log_z == pytest.approx(log_z, abs=1e-10)


def enumeration_index(states):
    return ((states > 0).astype(np.int64) << np.arange(states.shape[1])).sum(axis=1)


@pytest.mark.parametrize("rows", [None, 3])
def test_ground_states_in_enumeration_order(rng, monkeypatch, rows):
    # odd arities put ground states in both halves; the free vertex 6 and
    # integer couplings make ties, so several chunks must be merged in order
    g = hypergraph(7, [(0, 1, 2), (2, 3), (1, 4, 5), (0, 5)])
    if rows:
        few_columns_per_chunk(monkeypatch, g, rows)
    for _ in range(10):
        cs = rng.integers(-2, 3, g.n_edges).astype(float)
        gs = ground_states(spin_system(g, cs, None))[0]
        assert gs.free.tolist() == [6]
        for _, states in gs.factors:  # each factor in its component's order
            assert np.all(np.diff(enumeration_index(states)) > 0)
        got = product_states(gs)
        assert got.shape[0] >= 2
        want_e, want_states = dense_ground_states(g, cs)
        assert gs.energy == pytest.approx(want_e, rel=1e-12)
        assert {tuple(r) for r in got} == {tuple(r) for r in want_states}


def test_cached_table_is_read_only(monkeypatch):
    # 256 half rows in two blocks of 128, each two sub-blocks of the
    # 64-row sub-table, the floor that a tiny BATCH_BLOCK_BYTES leaves
    g = hypergraph(9, [(0, 1, 2), (3, 4), (5, 6, 7, 8)])
    few_rows_per_block(monkeypatch, g, 128)
    monkeypatch.setattr(gibbs, "BATCH_BLOCK_BYTES", 8)
    states, eprod, hi = kernel_table(g, 128, 64)
    assert states.shape == (128, 9) and eprod.shape == (64, 3) and hi.shape == (2, 3)
    assert (1 << (g.n - 1)) // len(states) == 2
    for table in (states, eprod, hi):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


@pytest.mark.parametrize("subs", [1, 2, 4])
def test_blocks_are_the_table_times_flip_signs(rng, monkeypatch, subs):
    # block k holds enumeration indices k*rows ... (k+1)*rows - 1, rows =
    # 64 subs, and its sub-block h the edge products of the 64-row
    # sub-table times row h of the sub-block signs: the dense ones of those
    # states. Each sub-block's GEMV gives the bits of those rows of one
    # GEMV over the whole block's products
    g = random_hypergraph(rng, n_max=7, e_max=6, arities=(2, 3, 4))
    g = hypergraph(9, g.edges)  # 256 half rows
    few_rows_per_block(monkeypatch, g, 64 * subs)
    monkeypatch.setattr(gibbs, "BATCH_BLOCK_BYTES", 8)
    half = 1 << (g.n - 1)
    cs = rng.standard_normal(g.n_edges)
    states, eprod, hi = kernel_table(g, 64 * subs, 64)
    assert len(hi) == subs
    for start in range(0, half, len(states)):
        spin, sign = gibbs._flip(g, start)
        block = states * spin
        assert np.array_equal(enumeration_index(block), np.arange(start, start + len(block)))
        want = np.array([[np.prod(row[list(e)]) for e in g.edges] for row in block])
        want = want.reshape(len(block), g.n_edges)
        energies = want @ (sign * cs)
        for h, signs in enumerate(hi):
            at = slice(64 * h, 64 * (h + 1))
            assert np.array_equal(eprod * signs * sign, want[at])
            assert np.matmul(eprod, signs * (sign * cs)).tobytes() == energies[at].tobytes()
    spin, sign = gibbs._flip(g, (1 << g.n) - 1)  # the global flip
    assert np.all(spin == -1.0)
    assert np.array_equal(sign, [(-1.0) ** len(e) for e in g.edges])


def flip_by_edge_loop(graph, bits):
    """The signs of gibbs._flip, one Python pass over each edge's vertices."""
    flipped = [(bits >> v) & 1 for v in range(graph.n)]
    spin = np.array([(-1.0) ** f for f in flipped])
    sign = np.array([(-1.0) ** sum(flipped[v] for v in e) for e in graph.edges])
    return spin, sign


def test_flip_matches_the_edge_loop(rng):
    graphs = [random_hypergraph(rng, n_max=12, e_max=10, arities=(2, 3, 4)) for _ in range(40)]
    graphs += [hypergraph(5, []), hypergraph(1, [])]
    for g in graphs:
        for bits in rng.integers(0, 1 << g.n, size=6).tolist() + [0, (1 << g.n) - 1]:
            for got, want in zip(gibbs._flip(g, bits), flip_by_edge_loop(g, bits)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (g, bits)


@pytest.mark.parametrize("graph", [
    hypergraph(7, [(0, 1), (1, 2, 3), (0, 2, 4, 6), (3, 5), (2, 5, 6)]),
    hypergraph(6, [(0, 1, 2, 3), (2, 3, 4, 5), (1, 4, 5)]),
    hypergraph(5, []),
    hypergraph(1, []),
    "random"], ids=["arity-2-4", "arity-3-4", "no-edges", "one-spin", "random"])
def test_table_matches_bit_decoded_oracle(rng, graph):
    # every row count from one row to the full 2^N, each with sub-tables
    # from one row to all of them, on arities 2-4 and on graphs with no
    # edges: the same values as decoding the index bits, the sub-table's
    # rows times each sub-block's signs giving the products of that
    # sub-block
    g = random_hypergraph(rng, n_max=8, e_max=7, arities=(2, 3, 4)) if graph == "random" else graph
    for rows in sorted({1, 2, 1 << (g.n // 2), 1 << (g.n - 1), 1 << g.n}):
        for sub in sorted({s for s in (1, 2, 1 << (rows.bit_length() // 2), rows) if s <= rows}):
            states, eprod, hi = gibbs._low_table(g, rows, sub)
            want_states, want_eprod = bit_decoded_table(g, rows)
            subs = (eprod[None] * hi[:, None]).reshape(rows, g.n_edges)
            for got, want in ((states, want_states), (eprod, want_eprod[:sub]),
                              (subs, want_eprod), (hi, want_eprod[::sub] * want_eprod[0])):
                assert got.dtype == np.float64 and got.flags.c_contiguous
                assert got.shape == want.shape and np.array_equal(got, want)


def test_table_cache_shared_by_threads(rng):
    # threads on different graphs evict each other's cached block; each
    # result must still equal the one computed alone
    systems = []
    for _ in range(4):
        g = random_hypergraph(rng, n_max=9, e_max=8)
        systems.append(spin_system(g, rng.standard_normal(g.n_edges), 0.8))
    want = [exact_correlations(s).corr for s in systems]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(lambda k: exact_correlations(systems[k % 4]).corr,
                                range(64), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for k, corr in enumerate(got):
        assert np.array_equal(corr, want[k % 4])


def diluted_draw(n, alphas):
    return sample_diluted(diluted_spec(n, alphas), substream(37, "draw", n, len(alphas)))


EXACT_GRAPHS = {  # name: (graph, levy_scale)
    **{name: (fixtures.get_fixture(name), 1.0) for name in fixtures.FIXTURES},
    "levy-k16": (fixtures.complete_graph(16), 16 ** -0.5),  # 64 sub-blocks of 512 rows
    **{f"diluted-{kind}-{n}": (diluted_draw(n, alphas), 1.0)
       for n in (12, 17, 22) for kind, alphas in (("odd", {2: 0.6, 3: 0.2}),
                                                  ("even", {2: 0.6, 4: 0.2}))},
}
# "sub-blocks": 64-row sub-tables; "few-rows": 2-row blocks, one chunk
# each; "few-sub-blocks": 256-row blocks of four 64-row sub-blocks. The
# forced budgets run where the blocks stay few
EXACT_CASES = [(name, budget) for name, (g, _) in EXACT_GRAPHS.items()
               for budget in ("default", "sub-blocks", "few-rows", "few-sub-blocks")
               if budget == "default" or g.n <= {"few-rows": 12}.get(budget, 17)]


@pytest.mark.parametrize("name, budget", EXACT_CASES, ids=[f"{n}-{b}" for n, b in EXACT_CASES])
def test_exact_correlations_match_full_table_bitwise(monkeypatch, name, budget):
    # a GEMV per sub-block of the sub-table gives the bits of one GEMV over
    # the block's full edge-product table, for every row count of 4 or
    # more, so corr, means and log Z are the full-table kernel's bytes:
    # on every fixture, the Levy K16, and odd and even diluted draws up
    # to N = 22 (16 blocks of 2^17 rows), at betas 0 to 10
    g, levy_scale = EXACT_GRAPHS[name]
    if budget in ("sub-blocks", "few-sub-blocks"):
        monkeypatch.setattr(gibbs, "BATCH_BLOCK_BYTES", 8)
    if budget != "default":
        few_rows_per_block(monkeypatch, g, 3 if budget == "few-rows" else 256)
    cs = substream(37, "couplings", name).standard_normal(g.n_edges)
    for beta in (0.0, 0.7, 2.5, 10.0):
        system = spin_system(g, cs, beta, levy_scale)
        got, want = exact_correlations(system), full_table_correlations(system)
        for u, v in ((got.corr, want.corr), (got.means, want.means),
                     (np.float64(got.log_z), np.float64(want.log_z))):
            assert u.shape == v.shape and u.tobytes() == v.tobytes(), (name, beta)


def test_single_edge_tanh():
    g = hypergraph(2, [(0, 1)])
    for beta, c in ((0.5, 0.9), (1.7, -1.3)):
        cm = exact_correlations(spin_system(g, [c], beta))
        assert cm.corr[0, 1] == pytest.approx(math.tanh(beta * c), abs=1e-15)


def test_path_correlation_factorizes(rng):
    # on a 2-spin tree the pair correlation telescopes through tanh
    g = hypergraph(3, [(0, 1), (1, 2)])
    for _ in range(25):
        a, b = rng.standard_normal(2)
        beta = 0.8
        cm = exact_correlations(spin_system(g, [a, b], beta))
        want = math.tanh(beta * a) * math.tanh(beta * b)
        assert cm.corr[0, 2] == pytest.approx(want, abs=1e-14)


def test_gauge_covariance(rng):
    for _ in range(25):
        g = random_hypergraph(rng, n_max=7, e_max=6)
        cs = rng.standard_normal(g.n_edges)
        beta = 1.2
        eps = rng.choice([-1.0, 1.0], size=g.n)
        flip = np.array([np.prod(eps[list(e)]) for e in g.edges])
        base = exact_correlations(spin_system(g, cs, beta))
        moved = exact_correlations(spin_system(g, flip * cs, beta))
        assert np.allclose(moved.corr, np.outer(eps, eps) * base.corr, atol=1e-13)
        assert np.allclose(moved.means, eps * base.means, atol=1e-13)


def test_even_model_flip_symmetry(rng):
    g = ring(6)
    cs = rng.standard_normal(6)
    cm = exact_correlations(spin_system(g, cs, 1.5))
    assert np.all(cm.means == 0.0)
    neg = exact_correlations(spin_system(g, cs.copy(), 1.5))
    assert np.array_equal(cm.corr, neg.corr)


def test_log_z_convex_in_beta(rng):
    g = random_hypergraph(rng, n_max=6, e_max=5)
    cs = rng.standard_normal(g.n_edges)
    betas = np.linspace(0.0, 3.0, 13)
    vals = [exact_correlations(spin_system(g, cs, b)).log_z for b in betas]
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-9)


def test_beta_zero_uniform():
    g = ring(5)
    cm = exact_correlations(spin_system(g, np.ones(5), 0.0))
    off = cm.corr - np.eye(5)
    assert np.all(off == 0.0)
    assert cm.log_z == pytest.approx(5 * math.log(2), abs=1e-12)


def test_infinite_beta_routes_to_ground_states():
    g = ring(4)
    sys = spin_system(g, np.ones(4), None)
    with pytest.raises(ValidationError):
        exact_correlations(sys)
    gs = ground_states(sys)[0]
    assert product_states(gs).shape == (2, 4)  # all up and all down


def test_ground_states_match_dense(rng):
    for _ in range(25):
        g = random_hypergraph(rng, n_max=7, e_max=6)
        cs = rng.standard_normal(g.n_edges)
        sys = spin_system(g, cs, None)
        gs = ground_states(sys)[0]
        want_e, want_states = dense_ground_states(g, cs)
        assert gs.energy == pytest.approx(want_e, rel=1e-12)
        got = {tuple(row) for row in product_states(gs).astype(int)}
        want = {tuple(row) for row in want_states.astype(int)}
        assert got == want


def test_even_model_ground_degeneracy(rng):
    g = ring(6)
    cs = rng.standard_normal(6)
    gs = ground_states(spin_system(g, cs, None))[0]
    assert product_states(gs).shape[0] % 2 == 0  # sigma and -sigma tie exactly
    cm = ground_state_correlations(gs)
    assert np.all(cm.means == 0.0)
    assert math.isnan(cm.log_z)


def test_ground_state_correlations_match_dense(rng):
    for _ in range(10):
        g = random_hypergraph(rng, n_max=6, e_max=5)
        cs = rng.standard_normal(g.n_edges)
        cm = ground_state_correlations(ground_states(spin_system(g, cs, None))[0])
        corr, means = dense_ground_correlations(g, cs)
        assert np.allclose(cm.corr, corr, atol=1e-12)
        assert np.allclose(cm.means, means, atol=1e-12)


def disconnected_hypergraph(rng, n_max: int = 14):
    """Random components on disjoint vertex sets, each even (arities 2
    and 4) or odd (arity 3 beside 2), plus isolated vertices; the edges
    come shuffled, so equal arities do not come in one run."""
    n = int(rng.integers(2, n_max + 1))
    rest = rng.permutation(n).tolist()
    edges = set()
    while rest:
        size = int(rng.integers(1, 6))
        part, rest = rest[:size], rest[size:]
        arities = [a for a in ((2, 4), (2, 3))[int(rng.integers(2))] if a <= len(part)]
        for _ in range(int(rng.integers(1, 2 * len(part))) if arities else 0):
            p = int(rng.choice(arities))
            edges.add(tuple(sorted(rng.choice(part, size=p, replace=False).tolist())))
    edges = sorted(edges)
    return hypergraph(n, [edges[k] for k in rng.permutation(len(edges))])


@pytest.mark.parametrize("rows", [None, 2])
def test_factorized_ground_correlations_match_materialized_bitwise(rng, monkeypatch, rows):
    # integer couplings tie within and across components; the counts over
    # the factors must give the bits of the formula on the materialized
    # product states, which must be the dense oracle's maximizers
    for _ in range(25):
        g = disconnected_hypergraph(rng)
        if rows:
            few_columns_per_chunk(monkeypatch, g, rows)
        cs = rng.integers(-2, 3, g.n_edges).astype(float)
        gs = ground_states(spin_system(g, cs, None))[0]
        cm = ground_state_correlations(gs)
        corr, means = materialized_ground_correlations(gs)
        assert cm.corr.tobytes() == corr.tobytes()
        assert cm.means.tobytes() == means.tobytes()
        want_e, want_states = dense_ground_states(g, cs)
        assert gs.energy == pytest.approx(want_e, rel=1e-12, abs=1e-12)
        assert {tuple(r) for r in product_states(gs)} == {tuple(r) for r in want_states}
        covered = np.concatenate([gs.free, *(verts for verts, _ in gs.factors)])
        assert sorted(covered.tolist()) == list(range(g.n))


@pytest.mark.parametrize("graph, even", [
    (ring(6), True),
    (fixtures.get_fixture("ea-torus-4x4"), True),
    (hypergraph(7, [(0, 1, 2, 3), (2, 4), (0, 4, 5, 6)]), True),
    (hypergraph(5, []), True),
    (hypergraph(7, [(0, 1, 2), (2, 3), (1, 4, 5), (0, 5)]), False),
], ids=["ring", "torus", "arity-2-4", "no-edges", "odd"])
def test_even_models_share_the_complement_energies(rng, graph, even):
    # with no odd edge the kernel reuses the rows' energies and weights for
    # the complements and skips the means; the reference always runs them,
    # and every byte of corr, means and log_z must agree
    system = spin_system(graph, rng.standard_normal(graph.n_edges), 0.9)
    got = exact_correlations(system)
    corr, means, log_z = exact_correlations_both_halves(system)
    assert got.corr.tobytes() == corr.tobytes()
    assert got.means.tobytes() == means.tobytes()
    assert np.float64(got.log_z).tobytes() == np.float64(log_z).tobytes()
    assert (not got.means.any()) == even


@pytest.mark.parametrize("n", [8, 16, 24])
def test_planted_ground_states_match_gf2_oracle(rng, n):
    # c_e = |g_e| prod_{v in e} tau_v: the maximizers are an affine GF(2)
    # space whose size and moments follow from ranks (conftest), so the
    # oracle reaches N = 24, where the 24-ring is one component of 2^24
    # states; magnitudes from 0.5 keep every other state out of the ties
    graphs = [ring(n)] + [sample_diluted(diluted_spec(n, alphas), rng)
                          for alphas in ({2: 0.6, 3: 0.2}, {2: 0.3, 3: 0.4, 4: 0.1})]
    for g in graphs:
        tau = rng.choice([-1.0, 1.0], n)
        gauge = np.array([np.prod(tau[list(e)]) for e in g.edges])
        cs = (0.5 + np.abs(rng.standard_normal(g.n_edges))) * gauge
        gs = ground_states(spin_system(g, cs, None))[0]
        count, corr, means = planted_ground_states(g, tau)
        assert math.prod(len(states) for _, states in gs.factors) << len(gs.free) == count
        cm = ground_state_correlations(gs)
        assert np.array_equal(cm.corr, corr)
        assert np.array_equal(cm.means, means)


@pytest.mark.parametrize("cols", [None, 2, 16], ids=["one-gemm", "chunks-in-system",
                                                     "chunks-of-systems"])
def test_batched_ground_states_equal_single_calls(rng, monkeypatch, cols):
    # integer couplings tie; three systems in one call, with their own
    # levy_scale, must give each single call's factors bit for bit, also
    # when the budget splits the GEMM into chunks within or across systems
    for _ in range(15):
        g = disconnected_hypergraph(rng)
        systems = [spin_system(g, rng.integers(-2, 3, g.n_edges), None, levy_scale=s)
                   for s in (1.0, 0.5, 3.0)]
        systems[1] = spin_system(g, rng.standard_normal(g.n_edges), None, levy_scale=0.5)
        want = [ground_states(s)[0] for s in systems]
        if cols:
            few_columns_per_chunk(monkeypatch, g, cols)
        got = ground_states(*systems)
        monkeypatch.undo()
        assert len(got) == 3
        for a, b in zip(got, want):
            assert a.energy == b.energy
            assert np.array_equal(a.free, b.free) and len(a.factors) == len(b.factors)
            for (verts_a, states_a), (verts_b, states_b) in zip(a.factors, b.factors):
                assert np.array_equal(verts_a, verts_b)
                assert np.array_equal(states_a, states_b)


def test_ground_states_need_one_graph_and_the_budget(monkeypatch):
    g = ring(12)
    with pytest.raises(ValidationError, match="share one graph"):
        ground_states(spin_system(g, np.ones(12), None), spin_system(ring(5), np.ones(5), None))
    assert len(ground_states(spin_system(ring(12), np.ones(12), None),
                             spin_system(g, -np.ones(12), None))) == 2  # equal, not identical
    few_columns_per_chunk(monkeypatch, g, 2)  # the split tables and two energy rows
    ground_states(spin_system(g, np.ones(12), None))
    few_columns_per_chunk(monkeypatch, g, 1)  # one row short
    with pytest.raises(CapacityError, match="12-vertex component with 12 edges"):
        ground_states(spin_system(g, np.ones(12), None))


def test_ground_states_cache_shared_by_threads(rng):
    # threads on different disconnected graphs evict each other's cached
    # components and tables; each result must still equal the one computed alone
    systems = []
    for _ in range(4):
        g = disconnected_hypergraph(rng)
        systems.append(spin_system(g, rng.integers(-2, 3, g.n_edges).astype(float), None))

    def ground(k):
        cm = ground_state_correlations(ground_states(systems[k % 4])[0])
        return cm.corr, cm.means
    want = [ground(k) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(ground, range(64), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for k, pair in enumerate(got):
        for a, b in zip(pair, want[k % 4]):
            assert a.tobytes() == b.tobytes()


def test_mcmc_agrees_with_exact():
    # 32 independent chains on their own substreams; the s.e. is their spread
    g = ring(8)
    cs = substream(17, "mcmc-instance").standard_normal(8)
    sys = spin_system(g, cs, 0.9)
    exact = exact_correlations(sys)
    chains = [mcmc_correlations(sys, substream(17, "mcmc-chain", k), sweeps=1250, burn_in=125)
              for k in range(32)]
    corr, se = mean_se(np.array([c.corr for c in chains]))
    assert np.all(np.abs(corr - exact.corr) <= 4.0 * se + 1e-3)
    assert np.all(np.diag(corr) == 1.0)
    assert all(math.isnan(c.log_z) for c in chains)


def test_mcmc_large_beta_does_not_overflow():
    # beta m = 1000 used to overflow exp(-2 beta m) in the heat-bath step
    for sign in (1.0, -1.0):
        cs = sign * 50.0 * np.ones(8)
        samp = mcmc_correlations(spin_system(ring(8), cs, 10.0), substream(5, "cold-chain"),
                                 sweeps=640, burn_in=200)
        ground = ground_state_correlations(ground_states(spin_system(ring(8), cs, None))[0])
        assert np.array_equal(samp.corr, ground.corr)


class CountingGenerator:
    """A generator that counts the sweeps drawn from it: each sweep makes
    one rng.random(n) draw."""

    def __init__(self, rng):
        self.rng, self.sweeps = rng, 0

    def integers(self, *args):
        return self.rng.integers(*args)

    def random(self, size):
        self.sweeps += 1
        return self.rng.random(size)


@pytest.mark.parametrize("sweeps", [1, 31, 32, 33, 63, 64, 95])
def test_mcmc_runs_every_requested_sweep(sweeps):
    # every requested sweep runs, whether or not 32 divides the count
    rng = CountingGenerator(substream(9, "count-sweeps"))
    samp = mcmc_correlations(spin_system(ring(4), np.ones(4), 0.5), rng,
                             sweeps=sweeps, burn_in=3)
    assert rng.sweeps == 3 + sweeps
    assert np.all(np.isfinite(samp.corr)) and np.all(np.abs(samp.means) <= 1.0)


def gaussian_system(graph, levy_scale=1.0):
    return graph, np.random.default_rng(graph.n).standard_normal(graph.n_edges), levy_scale


@pytest.mark.parametrize("graph, couplings, levy_scale", [
    *(gaussian_system(g) for g, _ in fixtures.catalog().values()),
    gaussian_system(sample_diluted(diluted_spec(200, {2: 0.8}), substream(3, "oracle-graph"))),
    gaussian_system(sample_diluted(diluted_spec(60, {3: 0.5, 2: 0.3}),
                                   substream(4, "oracle-graph"))),
    gaussian_system(fixtures.complete_graph(10), 0.3),
    # spins 1 and 2 lock antiparallel, so the 1e16 terms at vertex 0 cancel
    # exactly in edge order and leave c_03; another order rounds it away
    (hypergraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), [1e16, 1e16, 1.0, -4e16], 1.0),
], ids=[*fixtures.catalog(), "diluted-200", "arity-3", "K10-levy-scale", "cancelling"])
def test_mcmc_matches_tuple_adjacency_oracle_bitwise(graph, couplings, levy_scale):
    # the edge products kept across flips give every local field the bits
    # of a sum over the other spins, so each heat-bath decision and draw
    # is the oracle's
    for beta in (0.0, 0.7, 2.5):
        system = spin_system(graph, couplings, beta, levy_scale)
        samp = mcmc_correlations(system, substream(7, "oracle"), sweeps=64, burn_in=8)
        want = reference_mcmc(system, substream(7, "oracle"), 64, 8)
        for got, ref in zip((samp.corr, samp.means), want):
            assert got.tobytes() == ref.tobytes()


def test_mcmc_validation():
    sys = spin_system(ring(4), np.ones(4), 1.0)
    with pytest.raises(ValidationError):
        mcmc_correlations(sys, substream(1, "x"), sweeps=0, burn_in=0)
    assert mcmc_correlations(sys, substream(1, "x"), sweeps=10, burn_in=0).corr.shape == (4, 4)
    with pytest.raises(ValidationError):
        mcmc_correlations(spin_system(ring(4), np.ones(4), None), substream(1, "y"),
                          sweeps=10, burn_in=0)
    # the (N, N) sum and one sweep's outer product fit TABLE_BYTES up to
    # N = 2048; the cap fires before the chain draws or allocates anything,
    # so no generator
    gibbs.check_mcmc(2048, 1)
    with pytest.raises(CapacityError, match="N=2049"):
        mcmc_correlations(spin_system(hypergraph(2049, [(0, 1)]), [1.0], 1.0), None,
                          sweeps=1, burn_in=0)


def test_overlap_second_moment_two_spins():
    g = hypergraph(2, [(0, 1)])
    beta = 1.1
    for a, b in ((0.4, 1.2), (-0.8, 0.3)):
        ca = exact_correlations(spin_system(g, [a], beta))
        cb = exact_correlations(spin_system(g, [b], beta))
        got = overlap_second_moment(ca, cb)
        want = (1.0 + math.tanh(beta * a) * math.tanh(beta * b)) / 2.0
        assert got == pytest.approx(want, abs=1e-14)


def test_overlap_beta_zero_is_one_over_n(rng):
    for n in (3, 6, 9):
        g = ring(n)
        ca = exact_correlations(spin_system(g, rng.standard_normal(n), 0.0))
        cb = exact_correlations(spin_system(g, rng.standard_normal(n), 0.0))
        assert overlap_second_moment(ca, cb) == 1.0 / n


def test_overlap_shape_mismatch():
    a = exact_correlations(spin_system(ring(4), np.ones(4), 0.5))
    b = exact_correlations(spin_system(ring(5), np.ones(5), 0.5))
    with pytest.raises(ValidationError):
        overlap_second_moment(a, b)


def test_batch_moments_match_loop(rng, monkeypatch):
    g = random_hypergraph(rng, n_max=7, e_max=5)
    beta = 0.9
    cs = rng.standard_normal((37, g.n_edges))
    pairs = [(0, 1), (0, g.n - 1)]
    singles = [0, g.n - 1]
    monkeypatch.setattr(gibbs, "BATCH_COLUMNS", (8, 8))  # 37 columns span several blocks
    pv, sv = batch_moments(g, cs, beta, pairs, singles)
    for b in range(cs.shape[0]):
        cm = exact_correlations(spin_system(g, cs[b], beta))
        for k, (i, j) in enumerate(pairs):
            assert pv[k, b] == pytest.approx(cm.corr[i, j], abs=1e-12)
        for k, i in enumerate(singles):
            assert sv[k, b] == pytest.approx(cm.means[i], abs=1e-12)
    # with one-row half-table blocks every moment is the same bits, since
    # batch_moments builds its own full table; a budget that small also
    # leaves the floor of two coupling columns per product
    monkeypatch.setattr(gibbs, "BATCH_COLUMNS", (2, 2))
    pv, sv = batch_moments(g, cs, beta, pairs, singles)
    few_rows_per_block(monkeypatch, g, 1)
    assert len(kernel_table(g, 1)[0]) == 1 < 1 << (g.n - 1)
    pv_blocked, sv_blocked = batch_moments(g, cs, beta, pairs, singles)
    assert np.array_equal(pv_blocked, pv)
    assert np.array_equal(sv_blocked, sv)
    # and it leaves the cached half table where it was
    cached = gibbs._low_table.cache_info()
    batch_moments(g, cs, beta, pairs, singles)
    assert gibbs._low_table.cache_info() == cached


def test_batch_columns_follow_the_byte_budget(monkeypatch):
    # the (2^N, columns) work block stays near BATCH_BLOCK_BYTES within
    # BATCH_COLUMNS; TABLE_BYTES // (8 << N) lowers it only past that, and
    # nothing lowers it to one column
    assert [gibbs._batch_columns(n) for n in (4, 7, 8, 9, 10, 16, 18, 20)] == [
        1024, 512, 256, 128, 64, 64, 32, 8]
    g = hypergraph(16, [(k, k + 1) for k in range(15)] + [(0, 5, 9)])
    cs = substream(3, "columns").standard_normal((300, g.n_edges))
    args = (g, cs, 0.8, [(0, 8), (3, 4)], [0, 9])
    wide = batch_moments(*args)
    monkeypatch.setattr(gibbs, "TABLE_BYTES", gibbs.TABLE_BYTES // 4)
    assert gibbs._batch_columns(16) == 32
    # 32 columns per product against 64 over the same one-block table; the
    # tail blocks differ (12 and 44 columns), so the match is not bitwise
    for a, b in zip(wide, batch_moments(*args)):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-14)
    monkeypatch.setattr(gibbs, "TABLE_BYTES", 8)
    assert gibbs._batch_columns(3) == 2


CLASS_GRAPHS = {  # name: (graph, 2^rank gauge classes)
    "figure1-hypergraph": (fixtures.get_fixture("figure1-hypergraph"), 32),  # two-lobe, k = 0
    **{f"two-lobe-{k}": (fixtures.two_lobe_graph(k)[0], c)
       for k, c in ((1, 32), (2, 64), (3, 128))},
    "remark": (fixtures.remark_graph(), 8),
    "ea-ring": (fixtures.get_fixture("ea-ring"), 128),  # even: the global flip is a class
    "full-rank-odd": (hypergraph(3, [(0, 1, 2), (0, 1), (1, 2)]), 8),
    "no-edges": (hypergraph(3, []), 1),
}


@pytest.mark.parametrize("graph, classes", CLASS_GRAPHS.values(), ids=CLASS_GRAPHS)
def test_gauge_classes_are_the_distinct_edge_product_rows(graph, classes):
    # class k is the state whose +1 spins are the pivots named by the bits
    # of k: the pivot rows doubled are those states' edge products, and
    # gathered by key they are every state's. There are as many classes as
    # distinct rows in the bit-decoded table: 2^rank, the GF(2) rank of the
    # edge-vertex incidence
    key, pivots = gibbs._classes(graph)
    _, eprod = bit_decoded_table(graph, 1 << graph.n)
    rows = gibbs._doubled(1.0 - 2.0 * (graph.arity & 1), gibbs._signs(graph)[pivots])
    named = [sum(1 << int(p) for j, p in enumerate(pivots) if k >> j & 1) for k in range(len(rows))]
    assert np.array_equal(rows, eprod[named])
    assert np.array_equal(rows[key], eprod)
    assert len({row.tobytes() for row in eprod}) == len(rows) == 1 << len(pivots) == classes
    assert np.all(np.diff(pivots) > 0)
    if classes == 1 << graph.n:  # full rank (full-rank-odd): every spin a pivot
        assert np.array_equal(key, np.arange(classes))


@pytest.mark.parametrize("graph", [g for g, _ in CLASS_GRAPHS.values()], ids=CLASS_GRAPHS)
@pytest.mark.parametrize("beta", [0.7, [0.0, 0.5, 1.0, 10.0]], ids=["one-beta", "four-betas"])
@pytest.mark.parametrize("tail", [37, 1])
def test_batch_moments_matches_full_table_bitwise(graph, beta, tail):
    # the distinct rows give every bit of the full table's kernel, over
    # two whole column blocks and a partial one (of one column, a GEMV);
    # four-betas makes one call per beta, from all weights 1 at beta 0 to
    # weights that underflow at beta 10
    rows = 2 * gibbs._batch_columns(graph.n) + tail
    cs = substream(9, "classes", graph.n, tail).standard_normal((rows, graph.n_edges))
    pairs, singles = [(0, 1), (1, graph.n - 1)], [0, graph.n - 1]
    for b in np.atleast_1d(beta):
        got = batch_moments(graph, cs, b, pairs, singles)
        want = batch_moments_full_table(graph, cs, b, pairs, singles)
        assert got[0].shape == (2, rows) and got[1].shape == (2, rows)
        for u, v in zip(got, want):
            assert u.shape == v.shape and np.array_equal(u, v)


@pytest.mark.parametrize("beta", [-0.5, math.inf, math.nan, (0.5, -1.0), "abc", "0.5", True,
                                  (0.5, True), None, (0.5, 1.0)])
def test_batch_moments_rejects_bad_beta(beta):
    # one finite beta per call: a sequence of betas, even of good ones, is
    # refused
    g = ring(4)
    with pytest.raises(ValidationError):
        batch_moments(g, np.ones((3, 4)), beta, [(0, 1)])


@pytest.mark.parametrize("call", [
    lambda: exact_correlations(spin_system(fixtures.get_fixture("ea-ring"), np.ones(8), 1e308)),
    lambda: ground_state_correlations(ground_states(
        spin_system(hypergraph(3, [(0, 1), (1, 2)]), [1e308, 1e308], None))[0]),
    lambda: batch_moments(ring(4), np.full((2, 4), 1e308), 1e-300, [(0, 1)]),
], ids=["exact-beta-1e308", "ground-couplings-1e308", "batch-couplings-1e308"])
def test_exact_kernels_refuse_overflowing_energies(call):
    # every |beta H| is at most max(beta) n_edges max|c|: these calls ended
    # in z = nan, a ZeroDivisionError of an empty tie set, and an inf from
    # the GEMM after batch_moments' own check of beta times the couplings
    with pytest.raises(NumericalError, match="overflow"):
        call()


@pytest.mark.parametrize("pairs, singles", [([(0, -1)], []), ([(0, 9)], []), ([(0.0, 1)], []),
                                            ([(0, 1)], [-2])])
def test_batch_moments_rejects_bad_vertices(pairs, singles):
    # (0, -1) read spin 3, so disorder_functional(g, model, 1.0, 0, -1) was
    # <s_0 s_3>; (0, 9) and (0.0, 1) died with an IndexError
    g = fixtures.remark_graph()
    with pytest.raises(ValidationError, match="outside|must be an integer"):
        batch_moments(g, np.ones((2, 3)), 1.0, pairs, singles)
    if not singles:
        with pytest.raises(ValidationError):
            disorder_functional(g, DisorderModel("identity"), 1.0, *pairs[0])(np.ones((2, 3)))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_batch_moments_peak_memory():
    # a fresh interpreter, one N = 18 call on 256 coupling vectors: with
    # 256 columns per product its 2^N x 256 work arrays peaked at 1.2 GB.
    # VmHWM is the peak of this process image alone; ru_maxrss would also
    # count the pytest process it was spawned from
    code = (
        "import numpy as np\n"
        "from spinchaos.gibbs import batch_moments\n"
        "from spinchaos.hypergraph import hypergraph\n"
        "g = hypergraph(18, [(0, 1), (1, 2, 3), (4, 17)])\n"
        "batch_moments(g, np.ones((256, 3)), 0.7, [(0, 17)])\n"
        "print(next(ln.split()[1] for ln in open('/proc/self/status') if ln[:6] == 'VmHWM:'))\n")
    assert peak_memory_mb(code) < 400.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_batch_moments_full_table_peak_memory():
    # a fresh interpreter, one N = 20 call on 4 coupling vectors: the full
    # 2^N table of the 20-edge ring is 320 MB; stacked from per-block
    # copies it peaked at 638 MB, built in place by doubling at 398 MB
    code = (
        "import numpy as np\n"
        "from spinchaos.gibbs import batch_moments\n"
        "from spinchaos.hypergraph import hypergraph\n"
        "g = hypergraph(20, [(k, k + 1) for k in range(19)] + [(0, 19)])\n"
        "batch_moments(g, np.ones((4, 20)), 0.7, [(0, 10)], [3])\n"
        "print(next(ln.split()[1] for ln in open('/proc/self/status') if ln[:6] == 'VmHWM:'))\n")
    assert peak_memory_mb(code) < 520.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_batch_moments_pairs_only_peak_memory():
    # the same call with pairs only: each pair's observable comes from the
    # index bits, and no (2^N, N) spin table is built. On a 2-core Xeon
    # with numpy 2.4 this read 342 MB with the table and 183 MB without
    code = (
        "import numpy as np\n"
        "from spinchaos.gibbs import batch_moments\n"
        "from spinchaos.hypergraph import hypergraph\n"
        "g = hypergraph(20, [(k, k + 1) for k in range(19)] + [(0, 19)])\n"
        "batch_moments(g, np.ones((4, 20)), 0.7, [(0, 10), (3, 17)])\n"
        "print(next(ln.split()[1] for ln in open('/proc/self/status') if ln[:6] == 'VmHWM:'))\n")
    assert peak_memory_mb(code) < 260.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("graph, bound", [
    # growth of VmHWM over the call, one BLAS thread, 2-core Xeon, numpy
    # 2.4.6: with a 2^15-row edge-product table cached, 39.7 MB on K16 (120
    # edges) and 17.8 MB on the torus (32 edges); with the sub-table of at
    # most BATCH_BLOCK_BYTES, 9.6 and 9.7 MB, most of it the 2^15-row
    # state table, its weighted copy and the block's weights
    ("complete_graph(16)", 20.0),
    ("torus_4x4()", 13.5),
], ids=["levy-k16", "ea-torus-4x4"])
def test_exact_correlations_peak_memory(graph, bound):
    # a fresh interpreter, one call; the reading is VmHWM after the call
    # minus VmHWM after the imports and the couplings
    code = (
        "import numpy as np\n"
        "from spinchaos.fixtures import complete_graph, torus_4x4\n"
        "from spinchaos.gibbs import exact_correlations, spin_system\n"
        "def hwm():\n"
        "    return int(next(ln.split()[1] for ln in open('/proc/self/status')"
        " if ln[:6] == 'VmHWM:'))\n"
        f"g = {graph}\n"
        "s = spin_system(g, np.random.default_rng(0).standard_normal(g.n_edges), 0.9, 0.3)\n"
        "before = hwm()\n"
        "exact_correlations(s)\n"
        "print(hwm() - before)\n")
    assert peak_memory_mb(code) < bound


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_ground_states_peak_memory():
    # a fresh interpreter, four systems on the 24-ring in one call: one
    # component of 2^24 states, whose energies (512 MB for four systems)
    # go in chunks within TABLE_BYTES (64 MiB). On a 2-core Xeon with
    # numpy 2.4 this read 106 MB, 27 MB of them the interpreter and numpy;
    # four single calls over the former per-component half table, in
    # blocks of 2^17 rows, read 67 MB
    code = (
        "import numpy as np\n"
        "from spinchaos.gibbs import ground_states, spin_system\n"
        "from spinchaos.hypergraph import hypergraph\n"
        "g = hypergraph(24, [(k, k + 1) for k in range(23)] + [(0, 23)])\n"
        "cs = np.random.default_rng(0).standard_normal((4, 24))\n"
        "ground_states(*(spin_system(g, c, None) for c in cs))\n"
        "print(next(ln.split()[1] for ln in open('/proc/self/status') if ln[:6] == 'VmHWM:'))\n")
    assert peak_memory_mb(code) < 140.0


def test_identity_functional_vectorizes(rng):
    g = ring(5)
    phi = disorder_functional(g, DisorderModel("identity"), 1.3, 0, 2)
    cs = rng.standard_normal((11, 5))
    vals = phi(cs)
    assert vals.shape == (11,)
    cm = exact_correlations(spin_system(g, cs[3], 1.3))
    assert vals[3] == pytest.approx(cm.corr[0, 2], abs=1e-12)


def test_levy_scale_equivalent_to_scaled_couplings(rng):
    g = ring(6)
    cs = rng.standard_normal(6)
    a = exact_correlations(spin_system(g, cs, 0.7, levy_scale=0.2))
    b = exact_correlations(spin_system(g, 0.2 * cs, 0.7))
    assert np.allclose(a.corr, b.corr, atol=1e-14)
    assert a.log_z == pytest.approx(b.log_z, abs=1e-12)


def test_capacity_limits():
    big = hypergraph(25, [(0, 1)])
    with pytest.raises(CapacityError):
        exact_correlations(spin_system(big, [1.0], 1.0))
    wide = hypergraph(21, [(0, 1)])
    with pytest.raises(CapacityError):
        batch_moments(wide, np.ones((2, 1)), 1.0, [(0, 1)])
    with pytest.raises(CapacityError):
        ground_states(spin_system(big, [1.0], None))

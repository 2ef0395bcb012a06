import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from spinchaos import chaos, fixtures, gibbs
from spinchaos.chaos import disorder_functional
from spinchaos.disorder import DisorderModel
from spinchaos.errors import CapacityError, ValidationError
from spinchaos.gibbs import (batch_moments, exact_correlations,
                             ground_state_correlations, ground_states,
                             mcmc_correlations, overlap_second_moment,
                             spin_system)
from spinchaos.hypergraph import hypergraph
from spinchaos.rng import substream

from conftest import (bit_decoded_table, check_calibrated, dense_correlations,
                      dense_ground_correlations, dense_ground_states, hamiltonian,
                      random_hypergraph)


def ring(n):
    return hypergraph(n, [(k, (k + 1) % n) for k in range(n)])


def test_spin_system_validation():
    g = ring(4)
    with pytest.raises(ValidationError):
        spin_system(g, [1.0, 2.0], 1.0)  # wrong coupling count
    with pytest.raises(ValidationError):
        spin_system(g, [1.0, 2.0, 3.0, math.nan], 1.0)
    with pytest.raises(ValidationError):
        spin_system(g, np.ones(4), -0.5)
    with pytest.raises(ValidationError):
        spin_system(g, np.ones(4), math.inf)  # spell it 'infinity'
    with pytest.raises(ValidationError):
        spin_system(g, np.ones(4), "beta=oo")
    assert spin_system(g, np.ones(4), "infinity").beta is None
    assert spin_system(g, np.ones(4), None).beta is None


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
        assert got.se is None


def few_rows_per_block(monkeypatch, g, rows=3):
    monkeypatch.setattr(gibbs, "TABLE_BYTES", 8 * (g.n + g.n_edges) * rows)


def test_blocked_streaming_is_exact(rng, monkeypatch):
    # tiny blocks force the online renormalization across many partials
    g = random_hypergraph(rng, n_max=8, e_max=6)
    g = hypergraph(8, g.edges)  # 128 half rows: dozens of blocks
    cs = 3.0 * rng.standard_normal(g.n_edges)  # spread the energies
    a = exact_correlations(spin_system(g, cs, 2.0))
    ga = ground_states(spin_system(g, cs, None))
    few_rows_per_block(monkeypatch, g)
    assert len(list(gibbs._half_blocks(g))) > 1
    b = exact_correlations(spin_system(g, cs, 2.0))
    gb = ground_states(spin_system(g, cs, None))
    assert np.allclose(a.corr, b.corr, rtol=0, atol=1e-14)
    assert a.log_z == pytest.approx(b.log_z, abs=1e-12)
    assert ga.energy == gb.energy
    assert np.array_equal(ga.states, gb.states)


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
    # integer couplings make ties, so several rows must be merged in order
    g = hypergraph(7, [(0, 1, 2), (2, 3), (1, 4, 5), (0, 5)])
    if rows:
        few_rows_per_block(monkeypatch, g, rows)
    for _ in range(10):
        cs = rng.integers(-2, 3, g.n_edges).astype(float)
        gs = ground_states(spin_system(g, cs, None))
        assert gs.states.shape[0] >= 2
        assert np.all(np.diff(enumeration_index(gs.states)) > 0)
        want_e, want_states = dense_ground_states(g, cs)
        assert gs.energy == pytest.approx(want_e, rel=1e-12)
        assert {tuple(r) for r in gs.states} == {tuple(r) for r in want_states}


def test_cached_table_is_read_only(monkeypatch):
    g = hypergraph(5, [(0, 1, 2), (3, 4)])
    few_rows_per_block(monkeypatch, g)
    exact_correlations(spin_system(g, [1.0, -0.5], 0.7))  # fills the cache
    blocks = list(gibbs._half_blocks(g))
    assert len(blocks) == 8  # 16 half rows, 2 per block
    for _, states, eprod, _, _ in blocks:
        assert states is blocks[0][1] and eprod is blocks[0][2]  # one table for all
        for table in (states, eprod):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_blocks_are_the_table_times_flip_signs(rng, monkeypatch, rows):
    # block k holds enumeration indices k*rows ... (k+1)*rows - 1, and its
    # edge products are the dense ones of those states
    g = random_hypergraph(rng, n_max=7, e_max=6, arities=(2, 3, 4))
    few_rows_per_block(monkeypatch, g, rows)
    half = 1 << (g.n - 1)
    blocks = list(gibbs._half_blocks(g))
    assert [start for start, *_ in blocks] == list(range(0, half, min(rows, half)))
    for start, states, eprod, spin, sign in blocks:
        block = states * spin
        assert np.array_equal(enumeration_index(block), np.arange(start, start + len(block)))
        want = np.array([[np.prod(row[list(e)]) for e in g.edges] for row in block])
        assert np.array_equal(eprod * sign, want.reshape(eprod.shape))
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
    # every row count from one row to the full 2^N, on arities 2-4 and on
    # graphs with no edges: the same values as decoding the index bits
    g = random_hypergraph(rng, n_max=8, e_max=7, arities=(2, 3, 4)) if graph == "random" else graph
    for rows in sorted({1, 2, 1 << (g.n // 2), 1 << (g.n - 1), 1 << g.n}):
        states, eprod = gibbs._table(g, rows)
        want_states, want_eprod = bit_decoded_table(g, rows)
        for got, want in ((states, want_states), (eprod, want_eprod)):
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
    sys = spin_system(g, np.ones(4), "infinity")
    with pytest.raises(ValidationError):
        exact_correlations(sys)
    gs = ground_states(sys)
    assert gs.states.shape == (2, 4)  # all up and all down


def test_ground_states_match_dense(rng):
    for _ in range(25):
        g = random_hypergraph(rng, n_max=7, e_max=6)
        cs = rng.standard_normal(g.n_edges)
        sys = spin_system(g, cs, None)
        gs = ground_states(sys)
        want_e, want_states = dense_ground_states(g, cs)
        assert gs.energy == pytest.approx(want_e, rel=1e-12)
        got = {tuple(row) for row in gs.states.astype(int)}
        want = {tuple(row) for row in want_states.astype(int)}
        assert got == want


def test_even_model_ground_degeneracy(rng):
    g = ring(6)
    cs = rng.standard_normal(6)
    gs = ground_states(spin_system(g, cs, None))
    assert gs.states.shape[0] % 2 == 0  # sigma and -sigma tie exactly
    cm = ground_state_correlations(gs)
    assert np.all(cm.means == 0.0)
    assert math.isnan(cm.log_z)


def test_ground_state_correlations_match_dense(rng):
    for _ in range(10):
        g = random_hypergraph(rng, n_max=6, e_max=5)
        cs = rng.standard_normal(g.n_edges)
        cm = ground_state_correlations(ground_states(spin_system(g, cs, None)))
        corr, means = dense_ground_correlations(g, cs)
        assert np.allclose(cm.corr, corr, atol=1e-12)
        assert np.allclose(cm.means, means, atol=1e-12)


def test_mcmc_agrees_with_exact():
    g = ring(8)
    cs = substream(17, "mcmc-instance").standard_normal(8)
    sys = spin_system(g, cs, 0.9)
    exact = exact_correlations(sys)
    samp = mcmc_correlations(sys, substream(17, "mcmc-chain"),
                             sweeps=40_000, burn_in=4_000)
    err = np.abs(samp.corr - exact.corr)
    assert np.all(err <= 4.0 * samp.se + 1e-3)
    assert np.all(np.diag(samp.se) == 0.0)
    assert math.isnan(samp.log_z)


def test_mcmc_standard_errors_are_calibrated():
    # 60 disorder seeds per fixture, one random pair each: the batch-means
    # s.e. must make (sampled - exact) / s.e. a t variable with
    # MCMC_BATCHES - 1 degrees of freedom, which "within k s.e." gates assume
    z = []
    for name in ("ea-ring", "diluted-demo", "figure1-hypergraph"):
        g = fixtures.get_fixture(name)
        for seed in range(60):
            rng = substream(seed, "calibrate", name)
            i, j = (int(v) for v in rng.choice(g.n, size=2, replace=False))
            system = spin_system(g, rng.standard_normal(g.n_edges), 0.7)
            samp = mcmc_correlations(system, rng, sweeps=640, burn_in=64)
            exact = exact_correlations(system).corr[i, j]
            z.append((samp.corr[i, j] - exact) / samp.se[i, j])
    share, mean_sq = check_calibrated(z, gibbs.MCMC_BATCHES - 1)
    print(f"{len(z)} cases: share |z| <= 2 {share:.3f}, mean z^2 {mean_sq:.3f}")


def test_mcmc_large_beta_does_not_overflow():
    # beta m = 1000 used to overflow exp(-2 beta m) in the heat-bath step
    for sign in (1.0, -1.0):
        cs = sign * 50.0 * np.ones(8)
        samp = mcmc_correlations(spin_system(ring(8), cs, 10.0), substream(5, "cold-chain"),
                                 sweeps=640, burn_in=200)
        ground = ground_state_correlations(ground_states(spin_system(ring(8), cs, None)))
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


@pytest.mark.parametrize("sweeps", [32, 33, 63, 64, 95])
def test_mcmc_runs_every_requested_sweep(sweeps):
    # 63 sweeps used to run 32: sweeps % MCMC_BATCHES were dropped
    rng = CountingGenerator(substream(9, "count-sweeps"))
    samp = mcmc_correlations(spin_system(ring(4), np.ones(4), 0.5), rng,
                             sweeps=sweeps, burn_in=3)
    assert rng.sweeps == 3 + sweeps
    assert np.all(np.isfinite(samp.corr)) and np.all(np.abs(samp.means) <= 1.0)


def test_mcmc_validation():
    sys = spin_system(ring(4), np.ones(4), 1.0)
    with pytest.raises(ValidationError):
        mcmc_correlations(sys, substream(1, "x"), sweeps=10)
    with pytest.raises(ValidationError):
        mcmc_correlations(spin_system(ring(4), np.ones(4), None), substream(1, "y"))
    # the (MCMC_BATCHES, N, N) batch means fit TABLE_BYTES up to N = 512; the
    # cap fires before the chain draws or allocates anything, so no generator
    gibbs.check_mcmc(512, gibbs.MCMC_BATCHES)
    with pytest.raises(CapacityError, match="N=513"):
        mcmc_correlations(spin_system(hypergraph(513, [(0, 1)]), [1.0], 1.0), None)


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
    assert len(list(gibbs._half_blocks(g))) > 1
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


@pytest.mark.parametrize("n", [7, 11, 16])
def test_batch_moments_share_betas_bitwise(n):
    # several betas share each block's GEMM and column max; each beta's
    # moments are the bits of its own one-beta call, over three or more
    # column blocks and on graphs with odd (arity-3) edges
    g = {7: chaos.two_lobe_graph(0)[0], 11: chaos.two_lobe_graph(3)[0],
         16: hypergraph(16, [(k, k + 1) for k in range(15)] + [(0, 5, 9)])}[n]
    rows = 2 * gibbs._batch_columns(n) + 37
    cs = substream(5, "betas", n).standard_normal((rows, g.n_edges))
    betas = (0.0, 0.5, 1.0, 2.5)
    pairs, singles = [(0, 1), (2, n - 1)], [0, n - 1]
    pv, sv = batch_moments(g, cs, betas, pairs, singles)
    assert pv.shape == (2, rows, 4) and sv.shape == (2, rows, 4)
    for k, beta in enumerate(betas):
        p1, s1 = batch_moments(g, cs, beta, pairs, singles)
        assert p1.shape == (2, rows)
        assert np.array_equal(pv[..., k], p1) and np.array_equal(sv[..., k], s1)


@pytest.mark.parametrize("beta", [-0.5, math.inf, math.nan, (0.5, -1.0)])
def test_batch_moments_rejects_bad_beta(beta):
    g = ring(4)
    with pytest.raises(ValidationError):
        batch_moments(g, np.ones((3, 4)), beta, [(0, 1)])


@pytest.mark.parametrize("pairs, singles", [([(0, -1)], []), ([(0, 9)], []), ([(0.0, 1)], []),
                                            ([(0, 1)], [-2])])
def test_batch_moments_rejects_bad_vertices(pairs, singles):
    # (0, -1) read spin 3, so disorder_functional(g, model, 1.0, 0, -1) was
    # <s_0 s_3>; (0, 9) and (0.0, 1) died with an IndexError
    g = chaos.remark_graph()
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


def peak_memory_mb(code: str) -> float:
    """VmHWM in MB of a fresh single-threaded interpreter running code,
    which must end by printing its own VmHWM in kB."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    return int(out.stdout) / 1024


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

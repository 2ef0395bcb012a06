import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spinchaos import gibbs
from spinchaos.chaos import disorder_functional
from spinchaos.disorder import DisorderModel
from spinchaos.errors import CapacityError, ValidationError
from spinchaos.gibbs import (CorrelationMatrix, batch_moments, exact_correlations,
                             ground_state_correlations, ground_states,
                             hamiltonian, mcmc_correlations,
                             overlap_second_moment, spin_system)
from spinchaos.hypergraph import hypergraph
from spinchaos.rng import substream

from conftest import (all_states, dense_correlations, dense_energies,
                      dense_ground_correlations, dense_ground_states,
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
        assert gs.count >= 2
        assert np.all(np.diff(enumeration_index(gs.states)) > 0)
        want_e, want_states = dense_ground_states(g, cs)
        assert gs.energy == pytest.approx(want_e, rel=1e-12)
        assert {tuple(r) for r in gs.states} == {tuple(r) for r in want_states}


def test_cached_table_is_read_only():
    g = hypergraph(5, [(0, 1, 2), (3, 4)])
    exact_correlations(spin_system(g, [1.0, -0.5], 0.7))  # fills the cache
    for _, states, eprod in gibbs._half_blocks(g):
        for table in (states, eprod):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0


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
    assert gs.exhaustive


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
    assert gs.count % 2 == 0  # sigma and -sigma tie exactly
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


def test_mcmc_large_beta_does_not_overflow():
    # beta m = 1000 used to overflow exp(-2 beta m) in the heat-bath step
    for sign in (1.0, -1.0):
        cs = sign * 50.0 * np.ones(8)
        samp = mcmc_correlations(spin_system(ring(8), cs, 10.0), substream(5, "cold-chain"),
                                 sweeps=640, burn_in=200)
        ground = ground_state_correlations(ground_states(spin_system(ring(8), cs, None)))
        assert np.array_equal(samp.corr, ground.corr)


def test_mcmc_validation():
    sys = spin_system(ring(4), np.ones(4), 1.0)
    with pytest.raises(ValidationError):
        mcmc_correlations(sys, substream(1, "x"), sweeps=10, batches=32)
    with pytest.raises(ValidationError):
        mcmc_correlations(spin_system(ring(4), np.ones(4), None), substream(1, "y"))


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


def test_batch_moments_match_loop(rng):
    g = random_hypergraph(rng, n_max=7, e_max=5)
    beta = 0.9
    cs = rng.standard_normal((37, g.n_edges))
    pairs = [(0, 1), (0, g.n - 1)]
    singles = [0, g.n - 1]
    pv, sv = batch_moments(g, cs, beta, pairs, singles, block=8)
    for b in range(cs.shape[0]):
        cm = exact_correlations(spin_system(g, cs[b], beta))
        for k, (i, j) in enumerate(pairs):
            assert pv[k, b] == pytest.approx(cm.corr[i, j], abs=1e-12)
        for k, i in enumerate(singles):
            assert sv[k, b] == pytest.approx(cm.means[i], abs=1e-12)


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

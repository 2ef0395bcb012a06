"""Experiment-layer tests: chaos curves, bound checks, audits, counterexamples.

Oracles: 2-D Gauss-Hermite quadrature for the single-edge closed form,
a Stein-identity integral for the bridge coefficient, and hand-evaluated
bound formulas. Gibbs-level machinery is trusted here because
test_gibbs.py pins it against dense enumeration.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from spinchaos import chaos, fixtures, gibbs, hermite, randgraph
from spinchaos import disorder as dis
from spinchaos.errors import CapacityError, ValidationError
from spinchaos.hypergraph import ball_sizes, berge_distance, hypergraph
from spinchaos.randgraph import (diluted_spec, growth_stats, hypertree_trend,
                                 sample_diluted)
from spinchaos.rng import replicate, substream

from conftest import general_ball_bound, spectral_curve

IDENT = dis.DisorderModel("identity")


def make_curve(per_replica, t_grid, kind="continuous", meta_extra=None):
    per = np.asarray(per_replica, dtype=float)
    meta = {"kind": kind, "beta": 1.0, "replicas": per.shape[0], "seed": 1,
            "mode": "exact", "graph": {"type": "fixed", "n": 8, "n_edges": 8}}
    meta.update(meta_extra or {})
    return chaos.ChaosCurve(t_grid=tuple(t_grid), estimates=per.mean(axis=0),
                            ses=per.std(axis=0, ddof=1) / math.sqrt(per.shape[0]),
                            per_replica=per, meta=meta)


# --------------------------------------------------------------------------
# chaos_curve


def test_chaos_curve_validation():
    g = fixtures.ring(4)
    with pytest.raises(ValidationError):
        chaos.chaos_curve(g, IDENT, 1.0, "gaussian", [0.0, 1.0], 4, 1)
    with pytest.raises(ValidationError):
        chaos.chaos_curve(g, IDENT, 1.0, "continuous", [0.0, 1.0], 1, 1)
    with pytest.raises(ValidationError):
        chaos.chaos_curve([(0, 1)], IDENT, 1.0, "continuous", [0.0, 1.0], 4, 1)
    with pytest.raises(ValidationError):
        chaos.chaos_curve(g, IDENT, 1.0, "continuous", [0.0, 1.0], 4, 1, mode="guess")
    # grid validation is inherited from the path constructors
    with pytest.raises(ValidationError):
        chaos.chaos_curve(g, IDENT, 1.0, "continuous", [0.5, 0.5], 4, 1)


def test_t_zero_matches_self_overlap_bitwise():
    """At t = 0 each replica must reproduce the unperturbed second moment
    through the same code path, with no tolerance at all."""
    g = fixtures.ring(6)
    beta, seed = 0.8, 314
    curve = chaos.chaos_curve(g, IDENT, beta, "continuous", [0.0, 0.4], 5, seed)
    for k in range(5):
        rng = substream(seed, "replica", k)
        base = rng.standard_normal(g.n_edges)
        cm = gibbs.exact_correlations(gibbs.spin_system(g, base, beta))
        self_overlap = gibbs.overlap_second_moment(cm, cm)
        assert curve.per_replica[k, 0] == self_overlap
    assert curve.estimates[0] == curve.per_replica[:, 0].mean()


@pytest.mark.parametrize("source,beta,kind,mode,kernel,saved", [
    (fixtures.ring(6), 0.8, "continuous", "exact", "exact_correlations", 1),
    (diluted_spec(9, {2: 0.8}), "infinity", "discrete", "mcmc", "ground_states", 1),
    (fixtures.ring(4), 0.8, "discrete", "mcmc", "mcmc_correlations", 0),
], ids=["exact", "ground", "mcmc"])
def test_t_zero_reuses_unperturbed_correlations(monkeypatch, source, beta, kind, mode,
                                                 kernel, saved):
    """Exact and ground-state replicas take the t = 0 column from the
    unperturbed system instead of enumerating it again; the sampler keeps
    its stream. Every row equals a recomputation that calls the kernel
    at every grid point."""
    grid, replicas, seed = [0.0, 0.5, 1.5], 4, 23
    calls = []
    real = getattr(gibbs, kernel)
    monkeypatch.setattr(gibbs, kernel, lambda system, *a, **kw: calls.append(1) or
                        real(system, *a, **kw))
    curve = chaos.chaos_curve(source, IDENT, beta, kind, grid, replicas, seed, mode=mode,
                              mcmc_sweeps=64, mcmc_burn_in=8)
    assert len(calls) == replicas * (1 + len(grid) - saved)
    monkeypatch.undo()
    for k in range(replicas):
        rng = substream(seed, "replica", k)
        g = chaos._resolve_graph(source, rng)
        base = rng.standard_normal(g.n_edges)
        path = (dis.continuous_path if kind == "continuous" else dis.discrete_path)(
            base, grid, rng)

        def corr(j):
            return chaos._correlations(gibbs.spin_system(g, dis.rho(IDENT, j), beta),
                                       mode, rng, 64, 8)
        a = corr(base)
        row = [gibbs.overlap_second_moment(a, corr(j)) for j in path]
        assert np.array_equal(curve.per_replica[k], row)


@pytest.mark.parametrize("kind", dis.PERTURBATION_KINDS)
def test_beta_zero_curve_is_one_over_n(kind):
    g = fixtures.ring(5)
    curve = chaos.chaos_curve(g, IDENT, 0.0, kind, [0.0, 0.3, 2.0], 3, 7)
    assert np.all(curve.per_replica == 1.0 / 5.0)
    assert np.all(curve.estimates == 1.0 / 5.0)
    assert np.all(curve.ses == 0.0)


def pair_quadrature(f, t, order=64):
    # E f(J, J(t)) for the OU-coupled standard Gaussian pair, tensor G-H
    x, w = np.polynomial.hermite.hermgauss(order)
    decay = math.exp(-t)
    fresh = math.sqrt(1.0 - decay ** 2)
    xa = math.sqrt(2.0) * x
    total = 0.0
    for i in range(order):
        yb = decay * xa[i] + fresh * xa
        total += w[i] * np.dot(w, f(xa[i], yb))
    return total / math.pi


def test_single_edge_closed_form():
    """N=2 Gaussian EA at beta=1: the curve matches
    E[(1 + tanh(b J) tanh(b J(t))) / 2] from 2-D quadrature within 3 s.e."""
    g = hypergraph(2, [(0, 1)])
    beta = 1.0
    grid = [0.0, 0.3, 1.0]
    curve = chaos.chaos_curve(g, IDENT, beta, "continuous", grid, 400, 2024)
    for ti, t in enumerate(grid):
        target = pair_quadrature(
            lambda a, b: (1.0 + math.tanh(beta * a) * np.tanh(beta * b)) / 2.0, t)
        se = max(curve.ses[ti], 1e-12)
        assert abs(curve.estimates[ti] - target) <= 3.0 * se


@pytest.mark.parametrize("kind", dis.PERTURBATION_KINDS)
@pytest.mark.parametrize("name, degree_cap, order", [("remark-path-graph", 10, 16),
                                                      ("figure1-hypergraph", 8, 10)])
def test_curve_matches_spectral_identity(name, degree_cap, order, kind):
    """The curve machinery (coupled paths, replica loop, overlap and the
    t = 0 reuse) against E<R^2>_t = (1/N^2) sum_ij sum_n w(n, t)
    phi_hat_ij(n)^2 from the coefficients, within 3 s.e. plus the tail."""
    g = fixtures.get_fixture(name)
    grid = [0.0, 0.5, 1.0, 2.0]
    spectral, tail = spectral_curve(g, 0.8, kind, grid, degree_cap, order)
    curve = chaos.chaos_curve(g, IDENT, 0.8, kind, grid, 400, 31)
    assert tail < 1e-3
    assert np.all(np.abs(curve.estimates - spectral) <= 3.0 * curve.ses + tail)


def test_curve_meta_and_se():
    g = fixtures.ring(5)
    curve = chaos.chaos_curve(g, IDENT, 1.2, "discrete", [0.0, 0.5], 6, 99)
    assert curve.per_replica.shape == (6, 2)
    assert curve.meta["kind"] == "discrete"
    assert curve.meta["beta"] == 1.2
    assert curve.meta["replicas"] == 6
    assert curve.meta["seed"] == 99
    assert curve.meta["graph"] == {"type": "fixed", "n": 5, "n_edges": 5}
    np.testing.assert_allclose(
        curve.ses, curve.per_replica.std(axis=0, ddof=1) / math.sqrt(6), rtol=1e-12)
    assert np.all(curve.estimates >= 0.0) and np.all(curve.estimates <= 1.0)


@pytest.mark.parametrize("run,summary", [
    (lambda: chaos.chaos_curve(fixtures.ring(5), IDENT, 0.9, "continuous", [0.0, 0.5], 4, 11),
     lambda c: [c.estimates, c.ses]),
    (lambda: chaos.levy_chaos([4, 5], 1.5, 0.3, 1.0, 5, 11),
     lambda res: [[p.estimate, p.se] for p in res["points"]] + [res["slope"]]),
    (lambda: growth_stats(diluted_spec(300, {2: 0.6, 3: 0.2}), 3, 9, 11),
     lambda st: [[list(r.values()) for r in st[0]], st[1], st[2]]),
    (lambda: hypertree_trend({2: 0.9}, [60, 120], 0.5, 9, 11),
     lambda rows: [[r["cycle_prob"], r["se"]] for r in rows]),
], ids=["curve", "levy", "growth", "trend"])
def test_threads_do_not_change_output(monkeypatch, run, summary):
    # every per-replica array comes out of rng.replicate: record them all
    per, sums = {}, {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches inside each replica
    try:
        for threads in ("1", "3"):
            monkeypatch.setenv("SPINCHAOS_THREADS", threads)
            per[threads] = []

            def spy(*args, _out=per[threads]):
                _out.append(replicate(*args))
                return _out[-1]
            for module in (chaos, randgraph):
                monkeypatch.setattr(module, "replicate", spy)
            sums[threads] = summary(run())
    finally:
        sys.setswitchinterval(interval)
    assert per["1"] and len(per["1"]) == len(per["3"])
    assert all(np.array_equal(a, b) for a, b in zip(per["1"], per["3"]))
    assert all(np.array_equal(a, b) for a, b in zip(sums["1"], sums["3"]))


def test_ground_state_mode():
    g = fixtures.ring(4)
    curve = chaos.chaos_curve(g, IDENT, "infinity", "continuous", [0.0, 1.0], 4, 5)
    assert curve.meta["beta"] == "infinity"
    assert np.all(curve.estimates >= 1.0 / 4.0 - 1e-12)
    assert np.all(curve.estimates <= 1.0 + 1e-12)
    same = chaos.chaos_curve(g, IDENT, None, "continuous", [0.0, 1.0], 4, 5)
    assert np.array_equal(curve.per_replica, same.per_replica)


def test_diluted_source_draws_per_replica():
    spec = diluted_spec(10, {2: 0.5, 3: 0.1})
    curve = chaos.chaos_curve(spec, IDENT, 0.7, "continuous", [0.0], 4, 21)
    assert curve.meta["graph"] == {"type": "diluted", "n": 10,
                                   "alphas": {"2": 0.5, "3": 0.1}}
    # replica k reuses the stream that also samples its graph
    rng = substream(21, "replica", 0)
    g = sample_diluted(spec, rng)
    base = rng.standard_normal(g.n_edges)
    cm = gibbs.exact_correlations(gibbs.spin_system(g, base, 0.7))
    assert curve.per_replica[0, 0] == gibbs.overlap_second_moment(cm, cm)


# --------------------------------------------------------------------------
# monotonicity


def test_monotonicity_check_synthetic():
    rng = np.random.default_rng(0)
    flat = 0.4 + 1e-6 * rng.standard_normal((40, 3))
    rows = chaos.monotonicity_check(make_curve(flat, (0.0, 0.5, 1.0)))
    assert len(rows) == 2 and all(r["ok"] for r in rows)
    # inject a jump far beyond paired noise
    bad = flat.copy()
    bad[:, 2] += 0.05
    rows = chaos.monotonicity_check(make_curve(bad, (0.0, 0.5, 1.0)))
    assert rows[0]["ok"] and not rows[1]["ok"]
    assert rows[1]["t_lo"] == 0.5 and rows[1]["t_hi"] == 1.0
    assert rows[1]["diff"] > 3.0 * rows[1]["se"]


def test_emitted_curve_is_monotone():
    g = fixtures.ring(6)
    for kind in dis.PERTURBATION_KINDS:
        curve = chaos.chaos_curve(g, IDENT, 0.7, kind, [0.0, 0.2, 0.6, 1.2], 100, 17)
        assert all(r["ok"] for r in chaos.monotonicity_check(curve))


def test_gauge_invariance_even_model():
    """Even model: flipping the disorder by an edge-sign pattern induced
    from vertex signs (J -> a o J, same a for base and refresh noise)
    leaves every replica's overlap unchanged. chaos_curve draws disorder
    internally, so the pairing is exercised on its estimator pipeline."""
    g = fixtures.ring(6)
    rng = np.random.default_rng(404)
    beta, t = 0.9, 0.5
    for _ in range(5):
        a = rng.choice([-1.0, 1.0], size=g.n)
        a[0], a[1] = 1.0, -1.0  # keep the gauge nontrivial
        gvec = np.array([np.prod(a[list(e)]) for e in g.edges])
        base = rng.standard_normal(g.n_edges)
        fresh = rng.standard_normal(g.n_edges)
        decay = math.exp(-t)
        pert = decay * base + math.sqrt(1.0 - decay ** 2) * fresh
        plain = gibbs.overlap_second_moment(
            gibbs.exact_correlations(gibbs.spin_system(g, base, beta)),
            gibbs.exact_correlations(gibbs.spin_system(g, pert, beta)))
        flipped = gibbs.overlap_second_moment(
            gibbs.exact_correlations(gibbs.spin_system(g, gvec * base, beta)),
            gibbs.exact_correlations(gibbs.spin_system(g, gvec * pert, beta)))
        assert abs(plain - flipped) < 1e-12


# --------------------------------------------------------------------------
# bounds


def brute_ball_sizes(g, v):
    # one hop per step: edges are tested against the frozen previous layer
    reach = {v}
    sizes = [1]
    for _ in range(g.n):
        grown = set(reach)
        for e in g.edges:
            if reach.intersection(e):
                grown.update(e)
        reach = grown
        sizes.append(len(reach))
    return sizes


def test_general_ball_bound_brute():
    rng = np.random.default_rng(3)
    graphs = [fixtures.ring(7), fixtures.torus_4x4(),
              hypergraph(6, [(0, 1, 2), (2, 3), (3, 4, 5)])]
    for g in graphs:
        for t in (0.2, 1.0, 3.0):
            sizes = [brute_ball_sizes(g, v) for v in range(g.n)]
            best = min(max(s[r] for s in sizes) / g.n + math.exp(-t * r)
                       for r in range(g.n + 1))
            val, r_star = general_ball_bound(g, t)
            assert abs(val - best) < 1e-12
            at_r = max(s[r_star] for s in sizes) / g.n + math.exp(-t * r_star)
            assert abs(val - at_r) < 1e-12
    # torus at t=1: the r=1 evaluation already dominates the beta=0 level
    torus = fixtures.torus_4x4()
    val, _ = general_ball_bound(torus, 1.0)
    assert 1.0 / 16.0 < val <= 5.0 / 16.0 + math.exp(-1.0) + 1e-12


def test_theorem_bound_check_formulas():
    g = fixtures.ring(8)
    curve = chaos.chaos_curve(g, IDENT, 0.7, "continuous", [0.0, 0.5, 1.0], 50, 23)
    params = {"C": 2.0, "theta": 1.0, "gamma": 3.0, "lambda": 2.4,
              "K": 1.0, "c": 1.0, "eps": 0.1, "alpha": 1.5}
    tags = ("general-ball", "poly-growth", "exp-growth", "diluted", "levy")
    checks = chaos.theorem_bound_check(curve, g, tags=tags, params=params)
    assert len(checks) == len(tags) * 3
    by_tag = {tag: [c for c in checks if c.tag == tag] for tag in tags}
    for ti, t in enumerate(curve.t_grid):
        est = float(curve.estimates[ti])
        gb = by_tag["general-ball"][ti]
        assert gb.bound == general_ball_bound(g, t)[0]
        assert gb.extra["r_star"] == general_ball_bound(g, t)[1]
        assert gb.margin == gb.bound - est and gb.ok == (gb.margin > 0)
        pg = by_tag["poly-growth"][ti]
        want = math.inf if t == 0 else 1.0 / 8.0 + 2.0 / (8.0 * t)
        assert pg.bound == want
        eg = by_tag["exp-growth"][ti]
        assert abs(eg.bound - 2.0 * 8.0 ** (-t / (t + math.log(3.0)))) < 1e-15
        dl = by_tag["diluted"][ti]
        assert abs(dl.bound - 2.0 * 8.0 ** (-t / (t + 2.0 * math.log(2.4)))) < 1e-15
        lv = by_tag["levy"][ti]
        expo = (2.0 / 1.5 - 1.0 - 0.1) * min(1.0, t)
        assert abs(lv.bound - 8.0 ** (-expo)) < 1e-15
    # the constant-free bound holds comfortably on this instance
    assert all(c.ok for c in by_tag["general-ball"])
    with pytest.raises(ValidationError):
        chaos.theorem_bound_check(curve, g, tags=("no-such-bound",))
    with pytest.raises(ValidationError):
        chaos.theorem_bound_check(curve, g, tags=("poly-growth",), params={"C": 1.0})
    # constants that give a bound no value are bad input, caught before any work
    for tag, bad in (("exp-growth", {"gamma": 0.0}), ("poly-growth", {"theta": 2000.0}),
                     ("levy", {"alpha": 0.0})):
        with pytest.raises(ValidationError):
            chaos.theorem_bound_check(curve, g, tags=(tag,), params=dict(params, **bad))


def test_theorem_bound_check_diluted_average():
    spec = diluted_spec(10, {2: 0.5})
    curve = chaos.chaos_curve(spec, IDENT, 0.6, "continuous", [0.0, 1.0], 5, 77)
    checks = chaos.theorem_bound_check(curve, spec, tags=("general-ball",))
    for ti, t in enumerate(curve.t_grid):
        vals = []
        for k in range(5):
            g = sample_diluted(spec, substream(77, "replica", k))
            vals.append(general_ball_bound(g, t)[0])
        assert checks[ti].bound == float(np.mean(vals))


def test_bound_check_draws_each_graph_once(monkeypatch):
    spec = diluted_spec(14, {2: 0.6, 3: 0.2})
    grid = [0.0, 0.3, 1.0, 2.5]
    curve = chaos.chaos_curve(spec, IDENT, None, "discrete", grid, 5, 88)
    draws, balls = [], []

    def counting_sample(spec, rng):
        draws.append(1)
        return sample_diluted(spec, rng)

    def counting_balls(graph, v):
        balls.append(v)
        return ball_sizes(graph, v)

    monkeypatch.setattr(chaos, "sample_diluted", counting_sample)
    monkeypatch.setattr(chaos, "ball_sizes", counting_balls)
    checks = chaos.theorem_bound_check(curve, spec, tags=("general-ball",))
    assert len(draws) == 5 and len(balls) == 5 * 14  # once per replica, not per t
    graphs = [sample_diluted(spec, substream(88, "replica", k)) for k in range(5)]
    for chk, t in zip(checks, grid):
        assert chk.bound == float(np.mean([general_ball_bound(g, t)[0] for g in graphs]))
    # a fixed graph: one ball profile for the whole grid, same bound and r*
    g = fixtures.torus_4x4()
    balls.clear()
    fixed = chaos.chaos_curve(g, IDENT, 0.5, "continuous", grid, 3, 89)
    checks = chaos.theorem_bound_check(fixed, g, tags=("general-ball",))
    assert len(balls) == g.n
    for chk, t in zip(checks, grid):
        assert (chk.bound, chk.extra["r_star"]) == general_ball_bound(g, t)


def test_lower_bound_discrete():
    g = fixtures.ring(8)
    curve = chaos.chaos_curve(g, IDENT, 1.0, "discrete", [0.0, 0.125, 0.5], 60, 311)
    chk = chaos.lower_bound_discrete(curve, g.n_edges)
    assert chk.tag == "lower-discrete" and chk.t == 0.125
    assert chk.extra["t_max"] == 1.0 / 8.0
    assert chk.bound == math.exp(-1.0) * float(curve.estimates[0])
    diff = curve.per_replica[:, 1] - math.exp(-1.0) * curve.per_replica[:, 0]
    assert abs(chk.margin - diff.mean()) < 1e-15
    assert chk.ok == (chk.margin >= -3.0 * chk.se)
    cont = chaos.chaos_curve(g, IDENT, 1.0, "continuous", [0.0, 0.125], 4, 1)
    with pytest.raises(ValidationError):
        chaos.lower_bound_discrete(cont, g.n_edges)
    no_zero = chaos.chaos_curve(g, IDENT, 1.0, "discrete", [0.125, 0.5], 4, 1)
    with pytest.raises(ValidationError):
        chaos.lower_bound_discrete(no_zero, g.n_edges)
    coarse = chaos.chaos_curve(g, IDENT, 1.0, "discrete", [0.0, 0.5], 4, 1)
    with pytest.raises(ValidationError):
        chaos.lower_bound_discrete(coarse, g.n_edges)


def test_lower_bound_gaussian():
    g = fixtures.ring(8)
    curve = chaos.chaos_curve(g, IDENT, 0.5, "continuous", [0.0, 1e-4, 0.5], 40, 13)
    checks = chaos.lower_bound_gaussian(curve, 0.5, g.n_edges)
    assert [c.t for c in checks] == [1e-4, 0.5]
    for chk in checks:
        slack = 6.0 * math.sqrt(chk.t) * math.sqrt(0.5) * 8.0 ** 0.75
        assert abs(chk.extra["slack"] - slack) < 1e-12
        assert chk.bound == float(curve.estimates[0]) - chk.extra["slack"]
        assert chk.extra["vacuous"] == (chk.bound <= 0.0)
        assert chk.ok  # slack dwarfs any paired fluctuation here
    # the tiny-t slack reproduces the hand value 6e-2 sqrt(.5) 8^{3/4}
    assert abs(checks[0].extra["slack"] - 0.2018) < 5e-4
    disc = chaos.chaos_curve(g, IDENT, 0.5, "discrete", [0.0, 0.5], 4, 1)
    with pytest.raises(ValidationError):
        chaos.lower_bound_gaussian(disc, 0.5, g.n_edges)
    no_zero = chaos.chaos_curve(g, IDENT, 0.5, "continuous", [0.1, 0.5], 4, 1)
    with pytest.raises(ValidationError):
        chaos.lower_bound_gaussian(no_zero, 0.5, g.n_edges)
    # through theorem_bound_check: after the upper tags, at the curve's beta
    both = chaos.theorem_bound_check(curve, g, tags=("lower-gaussian", "general-ball"))
    assert [c.tag for c in both] == ["general-ball"] * 3 + ["lower-gaussian"] * 2
    assert both[3:] == checks
    ground = chaos.chaos_curve(g, IDENT, None, "continuous", [0.0, 0.5], 4, 1)
    with pytest.raises(ValidationError):
        chaos.theorem_bound_check(ground, g, tags=("lower-gaussian",))


# --------------------------------------------------------------------------
# coefficient audits


def test_disorder_functional_matches_exact():
    g = fixtures.ring(5)
    model = dis.DisorderModel("scaled-tanh", kappa=1.3)
    phi = chaos.disorder_functional(g, model, 0.9, 0, 2)
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((4, g.n_edges))
    got = phi(rows)
    for r in range(4):
        cm = gibbs.exact_correlations(gibbs.spin_system(g, dis.rho(model, rows[r]), 0.9))
        assert abs(got[r] - cm.corr[0, 2]) < 1e-12


def test_audit_path_graph():
    """Even 2-spin path 0-1-2: every coefficient with mass contains both
    edges, so it connects i and j; the ball around 0 stays a hypertree."""
    g = hypergraph(3, [(0, 1), (1, 2)])
    rep = chaos.coefficient_audit(g, IDENT, 0.8, 0, 2, degree_cap=8, order=14)
    assert rep.sign_violations == () and rep.path_violations == ()
    assert rep.hypertree_violations == ()
    assert rep.hypertree_radius == 3 and berge_distance(g, 0, 2) == 2
    massive = [r for r in rep.rows if abs(r.value) > 1e-6]
    assert massive, "the expansion cannot be empty"
    for r in massive:
        assert r.support_size == 2 and r.path_ij and r.in_support
    # total mass approaches the second moment of the observable
    assert rep.e_phi_sq > sum(r.value ** 2 for r in rep.rows) > 0.9 * rep.e_phi_sq


def test_audit_pair_must_be_vertices():
    # a library call with j past the last vertex stops in check_audit, not
    # with an IndexError inside batch_moments
    g = chaos.remark_graph()
    for i, j in ((0, 9), (-1, 1), (0, g.n)):
        with pytest.raises(ValidationError):
            chaos.coefficient_audit(g, IDENT, 1.0, i, j, 2, 4)
    chaos.check_audit(g, 1.0, 0, g.n - 1, 2, 4)


def test_audit_remark_graph_unforced_zero():
    g = chaos.remark_graph()
    rep = chaos.coefficient_audit(g, IDENT, 1.0, 0, 1, degree_cap=5, order=14)
    assert rep.sign_violations == () and rep.path_violations == ()
    assert rep.hypertree_violations == ()
    target = {((0, 1), (1, 2)): None}
    hits = [r for r in rep.rows if r.n.degrees in target]
    assert len(hits) == 1
    # quadrature says zero, the parity criterion does not
    assert not hits[0].forced_zero
    assert abs(hits[0].value) < 1e-8
    # mass lives only on pure powers of the (0,1) edge
    for r in rep.rows:
        if abs(r.value) > 1e-6:
            assert set(r.n.support) == {0}


def test_audit_ring_hypertree_radius():
    g = fixtures.ring(5)
    rep = chaos.coefficient_audit(g, IDENT, 0.8, 0, 2, degree_cap=4, order=10)
    assert rep.hypertree_radius == 1
    assert rep.sign_violations == ()
    assert rep.path_violations == ()
    assert rep.hypertree_violations == ()


# --------------------------------------------------------------------------
# worked counterexamples


def test_two_lobe_structure():
    g, lab = chaos.two_lobe_graph(0)
    assert g.n == 7 and g.n_edges == 5
    assert lab["i"] == 1 and lab["j"] == 4
    assert berge_distance(g, lab["i"], lab["j"]) == 3
    for k in (1, 2, 3):
        gk, lk = chaos.two_lobe_graph(k)
        assert gk.n == 6 + 2 * k - 1
        assert gk.n_edges == 4 + k
        assert len(lk["bridge"]) == k
        assert berge_distance(gk, lk["i"], lk["j"]) == k + 2
        # bridge edges all have arity 3, lobes keep the 3+2 pattern
        for eid in lk["bridge"]:
            assert len(gk.edges[eid]) == 3
    with pytest.raises(Exception):
        chaos.two_lobe_graph(-1)


def test_decoupling_identities_small():
    for k in (0, 1):
        for beta in (0.5, 1.0):
            assert chaos.decoupling_error(k, beta, 20, 91) < 1e-12
            assert chaos.tanh_product_error(k, beta, 20, 91) < 1e-12


def test_factorized_coefficient_against_stein():
    # E[J tanh(bJ)] = b E[sech^2(bJ)] by Gaussian integration by parts
    dens = 1.0 / math.sqrt(2.0 * math.pi)

    def sech2(y):
        return 0.0 if abs(y) > 300.0 else 1.0 / math.cosh(y) ** 2

    for beta in (0.5, 0.7, 1.0):
        stein, _ = quad(lambda x: beta * sech2(beta * x)
                        * dens * math.exp(-0.5 * x * x), -np.inf, np.inf)
        assert abs(chaos.factorized_bridge_coefficient(beta) - stein ** 4) < 1e-10


def test_bridged_coefficient_routes():
    for k, reduced in ((0, False), (1, False), (2, True), (3, True)):
        (out,) = chaos.bridged_coefficients(k, (0.5,), 16)
        assert out["reduced"] == reduced
        assert not out["support_connects"]
        assert out["distance"] == (3 if k == 0 else k + 2)
        assert out["quadrature_gap"] == abs(out["value"] - out["factorized"])
        # beta=0.5 converges fully at this order; beta=1 carries the
        # documented tensor truncation, checked in acceptance
        assert out["quadrature_gap"] < 1e-6
        assert out["value"] > 0.01


def test_bridged_betas_share_the_kernel_bitwise():
    # the suite's betas share every batch_moments call, one grid pass per
    # beta; each value is the bits of its own one-beta evaluation
    for k in (0, 2):
        shared = chaos.bridged_coefficients(k, (0.5, 1.0), 8)
        assert shared == [chaos.bridged_coefficients(k, (beta,), 8)[0] for beta in (0.5, 1.0)]


def test_counterexample_suite_structure():
    out = chaos.counterexample_suite(55, draws=10, order=8)
    rem = out["remark"]
    assert rem["tanh_identity_max_err"] < 1e-12
    assert rem["unforced_index_forced_zero"] is False
    assert abs(rem["unforced_index_coeff"]) < 1e-8
    assert [row["k"] for row in out["two_lobe"]] == [0, 1, 2, 3]
    for row in out["two_lobe"]:
        assert row["decoupling_max_err"] < 1e-12
        assert row["tanh_product_max_err"] < 1e-12
        for beta in (0.5, 1.0):
            coeff = row[f"coeff_beta_{beta}"]
            assert coeff["beta"] == beta and coeff["k"] == row["k"]
            assert coeff["value"] > 0.01


# --------------------------------------------------------------------------
# Levy model


def test_levy_chaos_basics():
    res = chaos.levy_chaos([4, 6], 1.5, 0.5, 1.0, 30, 12)
    assert [p.n for p in res["points"]] == [4, 6]
    for p in res["points"]:
        assert p.per_replica.shape == (30,)
        assert 0.0 <= p.estimate <= 1.0
        assert abs(p.se - p.per_replica.std(ddof=1) / math.sqrt(30)) < 1e-15
    assert math.isfinite(res["slope"])
    assert res["slope_reference"] == -(2.0 / 1.5 - 1.0)
    again = chaos.levy_chaos([4, 6], 1.5, 0.5, 1.0, 30, 12)
    assert np.array_equal(res["points"][0].per_replica, again["points"][0].per_replica)


def test_levy_default_t_and_errors():
    res = chaos.levy_chaos([4], 1.5, 0.3, None, 5, 3)
    assert abs(res["t"] - (-math.log(0.5) + 0.1)) < 1e-15
    with pytest.raises(ValidationError):
        chaos.levy_chaos([4], 1.5, 0.3, 0.0, 5, 3)
    with pytest.raises(ValidationError):
        chaos.levy_chaos([4], 2.5, 0.3, 1.0, 5, 3)
    with pytest.raises(ValidationError):  # alpha is checked before log(alpha - 1)
        chaos.levy_chaos([4], 0.5, 0.3, None, 5, 3)
    with pytest.raises(ValidationError):
        chaos.levy_chaos([4], 1.5, 0.3, 1.0, 1, 3)
    with pytest.raises(ValidationError):
        chaos.levy_chaos([4.7], 1.5, 0.3, 1.0, 5, 3)
    with pytest.raises(ValidationError, match="distinct"):  # one substream per N
        chaos.levy_chaos([4, 6, 4], 1.5, 0.3, 1.0, 5, 3)
    with pytest.raises(CapacityError):  # before the complete graph is built
        chaos.levy_chaos([4, 10 ** 6], 1.5, 0.3, 1.0, 5, 3)


def test_levy_zero_estimate_gives_nan_slope_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = chaos.levy_chaos([2, 3], 1.5, 50.0, None, 2, 1)
    assert res["points"][0].estimate == 0.0 < res["points"][1].estimate
    assert math.isnan(res["slope"])


@pytest.mark.parametrize("run", [
    lambda r: chaos.chaos_curve(fixtures.ring(4), IDENT, 0.5, "continuous", [0.0], r, 1),
    lambda r: chaos.levy_chaos([4], 1.5, 0.3, 1.0, r, 1),
    lambda r: growth_stats(diluted_spec(50, {2: 0.6}), 3, r, 1),
    lambda r: hypertree_trend({2: 0.9}, [60, 120], 0.5, r, 1),
], ids=["curve", "levy", "growth", "trend"])
def test_replica_loops_reject_unholdable_counts(run):
    # the result array is checked before it is allocated (numpy would
    # raise a raw ValueError) and before any replica runs
    with pytest.raises(CapacityError):
        run(10 ** 20)


def first_coordinate(rows):
    return rows[:, 0]


@pytest.mark.parametrize("call", [
    lambda: replicate(lambda rng: [0.0], 2.5, 1, 1),
    lambda: chaos.chaos_curve(fixtures.ring(4), IDENT, 0.5, "continuous", [0.0], 4.0, 1),
    lambda: growth_stats(diluted_spec(50, {2: 0.6}), 2.0, 3, 1),
    lambda: gibbs.mcmc_correlations(gibbs.spin_system(fixtures.ring(4), np.ones(4), 0.5),
                                    substream(1, "chain"), sweeps=40.5),
    lambda: gibbs.mcmc_correlations(gibbs.spin_system(fixtures.ring(4), np.ones(4), 0.5),
                                    substream(1, "chain"), sweeps=64, burn_in=2.5),
    lambda: hermite.coefficient_sweep(first_coordinate, 3, 2.0, 4),
    lambda: hermite.coefficient_sweep(first_coordinate, 3.0, 2, 4),
    lambda: hermite.hermite_values(2.0, [0.5]),
    lambda: chaos.counterexample_suite(1, draws=1, order=4.0),
    lambda: chaos.counterexample_suite(1, draws=1.5, order=4),
    lambda: chaos.decoupling_error(1, 1.0, 2.5, 1),
    lambda: chaos.tanh_product_error(1, 1.0, 2.5, 1),
    lambda: chaos.two_lobe_graph(1.5),
    lambda: hermite.conditional_mean_resampled(first_coordinate, 3, {}, 2.5, substream(1, "x")),
    lambda: hermite.conditional_mean_resampled(first_coordinate, 3.0, {}, 4, substream(1, "x")),
    lambda: substream(-1),
], ids=["replicas", "curve-replicas", "growth-depth", "mcmc-sweeps", "mcmc-burn-in",
        "sweep-degree-cap", "sweep-n-edges", "max-degree", "suite-order", "suite-draws",
        "decoupling-draws", "tanh-draws", "bridge-length", "resampled-samples",
        "resampled-n-edges", "negative-seed"])
def test_library_counts_must_be_integers(call):
    # each call died with a raw TypeError from range, numpy or a shape,
    # and substream(-1) with numpy's ValueError
    with pytest.raises(ValidationError):
        call()


def test_levy_beta_zero_is_one_over_n():
    res = chaos.levy_chaos([4, 6], 1.5, 0.0, 0.5, 4, 2)
    assert res["points"][0].estimate == 1.0 / 4.0
    assert res["points"][1].estimate == 1.0 / 6.0


# --------------------------------------------------------------------------
# sampler cross-check


def test_exact_vs_mcmc_agreement():
    g = fixtures.ring(6)
    grid = [0.0, 0.7]
    exact = chaos.chaos_curve(g, IDENT, 0.8, "continuous", grid, 12, 61, mode="exact")
    sampled = chaos.chaos_curve(g, IDENT, 0.8, "continuous", grid, 12, 61,
                                mode="mcmc", mcmc_sweeps=4000, mcmc_burn_in=500)
    for ti in range(len(grid)):
        gap = abs(exact.estimates[ti] - sampled.estimates[ti])
        se = math.hypot(exact.ses[ti], sampled.ses[ti])
        assert gap <= 3.0 * se

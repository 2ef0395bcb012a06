"""Acceptance criteria. One test per criterion; `pytest -v` prints one
pass/fail line for each. Docstrings state the tolerance and the runtime
budget, bodies enforce both. Each test prints its measured numbers so a
failing run carries the evidence.

Criterion 5 note: the rank-one Figure-1 coefficient is checked at 1e-6
through the factorized route (the product-of-tanh closed form is first
certified by exact enumeration at 1e-12, then its scalar factor is
integrated adaptively and compared against an independent
integration-by-parts oracle). The tensor-grid route is cross-checked at
its documented truncation level (1e-6 at beta=0.5, 2e-4 at beta=1 with
order 16), since the grid cap keeps the full tensor below the order
needed for 1e-6 at beta=1.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad

from spinchaos import chaos, cli, fixtures, gibbs, hermite, randgraph
from spinchaos import disorder as dis
from spinchaos.hypergraph import component, hypergraph, multi_index
from spinchaos.randgraph import diluted_spec, explore, sample_diluted
from spinchaos.rng import substream

from conftest import all_states, random_hypergraph

SEED = 20260815
IDENT = dis.DisorderModel("identity")


def hop_ball(g, v, radius):
    reach = {v}
    for _ in range(radius):
        grown = set(reach)
        for e in g.edges:
            if reach.intersection(e):
                grown.update(e)
        reach = grown
    return frozenset(reach)


def test_criterion_01_hermite_orthonormality():
    """Gram matrix for degrees m, k <= 12 equals identity to 1e-10; < 1 s."""
    t0 = time.monotonic()
    x, w = hermite.gauss_hermite(16)
    hv = hermite.hermite_values(12, x)
    gram = (hv * w[None, :]) @ hv.T
    err = float(np.abs(gram - np.eye(13)).max())
    elapsed = time.monotonic() - t0
    print(f"criterion 1: gram error {err:.3e} (tol 1e-10), {elapsed:.2f}s (< 1s)")
    assert err < 1e-10
    assert elapsed < 1.0


def test_criterion_02_semigroup_identities():
    """3-edge system, beta=0.7: MC E[phi(J) phi(J(t))] over 1e6 samples
    matches the weighted coefficient sum (cutoff |n| <= 8) within
    3 s.e. + Parseval tail, both kinds, t in {0.1, 0.5, 1}; < 2 min."""
    t0 = time.monotonic()
    g = hypergraph(4, [(0, 1), (1, 2), (2, 3)])
    phi = chaos.disorder_functional(g, IDENT, 0.7, 0, 3)
    table = hermite.coefficient_sweep(phi, 3, degree_cap=8, order=16)
    tail = hermite.parseval_tail(table)
    draws = 1_000_000
    worst = 0.0
    for kind in ("continuous", "discrete"):
        for t in (0.1, 0.5, 1.0):
            rng = substream(SEED, "accept2", kind, str(t))
            base = rng.standard_normal((draws, 3))
            if kind == "continuous":
                pert = dis.perturb_continuous(base, t, rng)
            else:
                pert = dis.perturb_discrete(base, t, rng)
            prods = np.asarray(phi(base)) * np.asarray(phi(pert))
            mc = float(prods.mean())
            se = float(prods.std(ddof=1) / math.sqrt(draws))
            rhs = hermite.weighted_coefficient_sum(table, t, kind)
            gap = abs(mc - rhs)
            worst = max(worst, gap - 3.0 * se - tail)
            assert gap <= 3.0 * se + tail, (kind, t, gap, se, tail)
    elapsed = time.monotonic() - t0
    print(f"criterion 2: worst slack {worst:.3e} (<= 0), tail {tail:.2e}, "
          f"{elapsed:.1f}s (< 120s)")
    assert elapsed < 120.0


def pair_path_instance(g, rng):
    """(n, i, j) with degree 1 along a pair-edge path, even parity off
    the endpoints; None when the draw has no arity-2 edge."""
    pair_ids = [eid for eid, e in enumerate(g.edges) if len(e) == 2]
    if not pair_ids:
        return None
    start = g.edges[int(rng.choice(pair_ids))][0]
    prev = {start: None}
    queue = [start]
    while queue:
        front = []
        for v in queue:
            for eid in pair_ids:
                e = g.edges[eid]
                if v in e:
                    w = e[0] if e[1] == v else e[1]
                    if w not in prev:
                        prev[w] = (v, eid)
                        front.append(w)
        queue = front
    comp = list(prev)
    j = comp[int(rng.integers(len(comp)))]
    degs = {}
    v = j
    while prev[v] is not None:
        v, eid = prev[v]
        degs[eid] = degs.get(eid, 0) + 1
    return multi_index(degs), start, j


def test_criterion_03_parity_criterion_vs_brute():
    """Parity criterion agrees with 2^N brute force on 500 random
    (graph, n, i, j) instances, N <= 12; every forced index checked by
    quadrature has |phi_hat| < 1e-8 (>= 25 instances, <= 5 edges); < 5 min."""
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    forced_seen = unforced_seen = 0
    quad_pool = []
    for rep in range(500):
        g = random_hypergraph(rng, n_max=12, e_max=7, arities=(2, 3, 4))
        made = pair_path_instance(g, rng) if rep % 2 else None
        if made is not None:
            n, i, j = made
        else:
            i, j = rng.choice(g.n, size=2, replace=False)
            picks = rng.integers(0, 2, size=g.n_edges) * rng.integers(1, 4, size=g.n_edges)
            n = multi_index({eid: int(d) for eid, d in enumerate(picks) if d})
        forced = hermite.sign_criterion(g, n, int(i), int(j))
        states = all_states(g.n)
        tot = states[:, i] * states[:, j]
        for eid, deg in n.degrees:
            if deg % 2:
                tot = tot * np.prod(states[:, list(g.edges[eid])], axis=1)
        brute_forced = bool((tot == -1).any())
        assert forced == brute_forced
        if brute_forced:
            forced_seen += 1
            if g.n <= 8 and g.n_edges <= 5:
                quad_pool.append((g, n, int(i), int(j)))
        else:
            unforced_seen += 1
    assert forced_seen > 50 and unforced_seen > 50
    checked = 0
    worst = 0.0
    for g, n, i, j in quad_pool[:40]:
        phi = chaos.disorder_functional(g, IDENT, 0.9, i, j)
        val = hermite.coeff_quadrature(phi, g.n_edges, n, order=10)
        worst = max(worst, abs(val))
        assert abs(val) < 1e-8
        checked += 1
    assert checked >= 25
    elapsed = time.monotonic() - t0
    print(f"criterion 3: 500 parity instances ({forced_seen} forced), "
          f"{checked} quadrature checks, worst |coeff| {worst:.2e} (tol 1e-8), "
          f"{elapsed:.1f}s (< 300s)")
    assert elapsed < 300.0


def test_criterion_04_first_remark():
    """4-vertex graph: <s0 s1> = tanh(beta c_01) to 1e-12 over 100 draws
    at beta in {0.3, 1, 3}; phi_hat((1,2,0)) = 0 to 1e-8 while the sign
    criterion does not force it; < 30 s."""
    t0 = time.monotonic()
    g = fixtures.remark_graph()
    rng = substream(SEED, "accept4")
    worst = 0.0
    for beta in (0.3, 1.0, 3.0):
        for _ in range(100):
            cs = rng.standard_normal(3)
            cm = gibbs.exact_correlations(gibbs.spin_system(g, cs, beta))
            worst = max(worst, abs(cm.corr[0, 1] - math.tanh(beta * cs[0])))
    assert worst < 1e-12
    n_ex = multi_index({0: 1, 1: 2})
    assert not hermite.sign_criterion(g, n_ex, 0, 1)
    phi = chaos.disorder_functional(g, IDENT, 1.0, 0, 1)
    coeff = hermite.coeff_quadrature(phi, 3, n_ex, order=16)
    assert abs(coeff) < 1e-8
    elapsed = time.monotonic() - t0
    print(f"criterion 4: tanh identity err {worst:.2e} (tol 1e-12), "
          f"unforced coeff {coeff:.2e} (tol 1e-8), {elapsed:.1f}s (< 30s)")
    assert elapsed < 30.0


def test_criterion_05_figure_one():
    """Decoupling and product-of-tanh identities to 1e-12 (100 draws);
    phi_hat(n) = (E[J tanh(beta J)])^4 to 1e-6 against an independent
    adaptive 1-D integral at beta in {0.5, 1}; tensor cross-check at the
    documented truncation (1e-6 / 2e-4); k in {0,1,2,3}; < 1 min."""
    t0 = time.monotonic()
    dens = 1.0 / math.sqrt(2.0 * math.pi)

    def stein_factor(beta):
        # E[J tanh(bJ)] = b E[sech^2(bJ)]; different integrand from the package
        def f(x):
            y = beta * x
            s = 0.0 if abs(y) > 300.0 else 1.0 / math.cosh(y) ** 2
            return beta * s * dens * math.exp(-0.5 * x * x)
        return quad(f, -np.inf, np.inf, epsabs=1e-13)[0]

    worst_dec = worst_gap = worst_coeff = 0.0
    for k in (0, 1, 2, 3):
        coeffs = chaos.bridged_coefficients(k, (0.5, 1.0), order=16)
        for beta, out in zip((0.5, 1.0), coeffs):
            dec = chaos.decoupling_error(k, beta, 100, SEED)
            tp = chaos.tanh_product_error(k, beta, 100, SEED)
            assert dec < 1e-12 and tp < 1e-12, (k, beta, dec, tp)
            worst_dec = max(worst_dec, dec, tp)
            oracle = stein_factor(beta) ** 4
            coeff_err = abs(out["factorized"] - oracle)
            assert coeff_err < 1e-6, (k, beta, coeff_err)
            worst_coeff = max(worst_coeff, coeff_err)
            gap_tol = 1e-6 if beta == 0.5 else 2e-4
            assert out["quadrature_gap"] < gap_tol, (k, beta, out["quadrature_gap"])
            if beta == 1.0:
                worst_gap = max(worst_gap, out["quadrature_gap"])
            assert out["value"] > 0.0 and not out["support_connects"]
    elapsed = time.monotonic() - t0
    print(f"criterion 5: identities {worst_dec:.2e} (tol 1e-12), coeff vs "
          f"1-D integral {worst_coeff:.2e} (tol 1e-6), tensor gap at beta=1 "
          f"{worst_gap:.2e} (tol 2e-4), {elapsed:.1f}s (< 60s)")
    assert elapsed < 60.0


def torus_sub_five_edges():
    # a plaquette plus a tail, taken verbatim from the 4x4 torus fixture
    torus = fixtures.torus_4x4()
    chosen = [(0, 1), (0, 4), (1, 5), (4, 5), (1, 2)]
    for e in chosen:
        assert e in torus.edges
    verts = sorted({v for e in chosen for v in e})
    relabel = {v: k for k, v in enumerate(verts)}
    sub = hypergraph(len(verts), [tuple(sorted(relabel[v] for v in e)) for e in chosen])
    return sub, relabel[0], relabel[5]


def test_criterion_06_path_audit():
    """Even 2-spin path/ring/torus-subinstance audits: no coefficient
    above 1e-6 whose support lacks an i-j path, |n| <= 8, <= 5 edges
    per instance; < 10 min."""
    t0 = time.monotonic()
    torus_sub, ti, tj = torus_sub_five_edges()
    cases = [
        ("path", hypergraph(3, [(0, 1), (1, 2)]), 0, 2),
        ("ring", fixtures.ring(5), 0, 2),
        ("torus-sub", torus_sub, ti, tj),
    ]
    for name, g, i, j in cases:
        assert g.n_edges <= 5
        rep = chaos.coefficient_audit(g, IDENT, 0.8, i, j, degree_cap=8, order=12)
        assert rep.path_violations == (), name
        assert rep.sign_violations == (), name
        assert rep.hypertree_violations == (), name
        massive = [r for r in rep.rows if abs(r.value) > 1e-6]
        assert massive, name
        assert all(r.path_ij for r in massive), name
    elapsed = time.monotonic() - t0
    print(f"criterion 6: 3 audits clean at tol 1e-6, cap |n|<=8, "
          f"{elapsed:.1f}s (< 600s)")
    assert elapsed < 600.0


def test_criterion_07_conditional_mean():
    """ea-ring, S = all edges except one from each 0-4 arc (so G(S)
    separates i from j): conditional MC mean of <s_0 s_4> is 0 within
    3 s.e. at 1e5 outer samples; < 2 min."""
    t0 = time.monotonic()
    g = fixtures.get_fixture("ea-ring")
    free = [g.edges.index((0, 1)), g.edges.index((4, 5))]
    rng = substream(SEED, "accept7")
    fixed = {eid: float(rng.standard_normal())
             for eid in range(g.n_edges) if eid not in free}
    phi = chaos.disorder_functional(g, IDENT, 1.0, 0, 4)
    mean, se = hermite.conditional_mean_resampled(phi, g.n_edges, fixed,
                                                  100_000, rng)
    elapsed = time.monotonic() - t0
    print(f"criterion 7: conditional mean {mean:+.2e} +/- {se:.2e} "
          f"(|mean| <= 3 s.e.), {elapsed:.1f}s (< 120s)")
    assert abs(mean) <= 3.0 * se
    assert elapsed < 120.0


def check_trace_properties(g, root, tr):
    n_rounds = len(tr.i_sets)
    seen = set()
    for t in range(n_rounds):
        layer = tr.i_sets[t]
        assert not (layer & seen)  # layers disjoint, so R is the union of earlier layers
        if t >= 1:
            removed = seen - tr.i_sets[t - 1]
            for eid in tr.e_sets[t]:
                verts = set(g.edges[eid])
                assert verts & tr.i_sets[t - 1]  # revealed from the frontier
                assert not (verts & removed)     # never into removed territory
        seen |= layer
        # the Berge ball of radius t is exactly R_{t+1}
        assert hop_ball(g, root, t) == frozenset(seen)
    # revealed edge sets pairwise disjoint, union = component edges
    all_revealed = []
    for es in tr.e_sets:
        all_revealed.extend(es)
    assert len(all_revealed) == len(set(all_revealed))
    comp = component(g, root)
    comp_edges = {eid for eid, e in enumerate(g.edges) if comp.intersection(e)}
    assert set(all_revealed) == comp_edges
    # R, I, S partition [N]
    assert seen <= set(range(g.n))


def test_criterion_08_exploration_process():
    """Exploration-trace invariants (disjoint layers, frontier
    recursion, edge partition, ball identity) clean on 1e4 traces;
    E|I_t| <= lambda^t + 3 s.e. and E|I_t|^2 <= the second-moment bound
    + 3 s.e. for t <= 5 at N = 1e4, (alpha2, alpha3) = (0.6, 0.2); < 3 min."""
    t0 = time.monotonic()
    small = diluted_spec(50, {2: 0.8, 3: 0.1})
    for rep in range(10_000):
        rng = substream(SEED, "accept8", rep)
        g = sample_diluted(small, rng)
        tr = explore(g, rep % 50)
        check_trace_properties(g, rep % 50, tr)
    mid = time.monotonic() - t0
    spec = diluted_spec(10_000, {2: 0.6, 3: 0.2})
    rows, _, _ = randgraph.growth_stats(spec, depth=5, replicas=500, seed=SEED + 8)
    assert [r["t"] for r in rows] == list(range(6))
    for r in rows:
        assert r["mean_I"] <= r["bound_lambda_t"] + 3.0 * r["se_I"], r
        assert r["mean_I2"] <= r["bound_second_moment"] + 3.0 * r["se_I2"], r
    elapsed = time.monotonic() - t0
    print(f"criterion 8: 1e4 traces clean ({mid:.1f}s), growth bounds hold "
          f"to t=5 (mean_I5 {rows[5]['mean_I']:.1f} <= {rows[5]['bound_lambda_t']:.1f}), "
          f"{elapsed:.1f}s (< 180s)")
    assert elapsed < 180.0


def test_criterion_09_hypertree_trend():
    """Cycle-within-probe-depth probability decreases across
    N in {250, 500, 1000, 2000} at eps = 0.5, 2000 replicas each
    (alpha2=0.9, alpha3=0.2 so the probe depth stays flat); < 5 min."""
    t0 = time.monotonic()
    rows = randgraph.hypertree_trend({2: 0.9, 3: 0.2}, [250, 500, 1000, 2000],
                                     0.5, 2000, SEED)
    probs = [r["cycle_prob"] for r in rows]
    assert all(b <= a for a, b in zip(probs, probs[1:])), probs
    assert probs[-1] < probs[0]
    elapsed = time.monotonic() - t0
    print(f"criterion 9: cycle probs {[round(p, 4) for p in probs]} "
          f"decreasing, {elapsed:.1f}s (< 300s)")
    assert elapsed < 300.0


def test_criterion_10_chaos_curves():
    """On every fixture: beta=0 curve equals 1/N exactly; t=0 equals the
    unperturbed second moment bitwise; pathwise monotonicity within
    3 s.e.; the constant-free ball bound never violated beyond
    3 s.e. (exact mode, 200 replicas, N <= 16); < 15 min."""
    t0 = time.monotonic()
    grid = [0.0, 0.25, 0.5, 1.0, 2.0]
    for name in sorted(fixtures.FIXTURES):
        g = fixtures.get_fixture(name)
        flat = chaos.chaos_curve(g, IDENT, 0.0, "continuous", grid, 8, SEED)
        assert np.all(flat.per_replica == 1.0 / g.n), name
        assert np.all(flat.estimates == 1.0 / g.n), name
        self_overlap = np.empty(200)
        for k in range(200):
            rng = substream(SEED, "replica", k)
            base = rng.standard_normal(g.n_edges)
            cm = gibbs.exact_correlations(gibbs.spin_system(g, base, 0.9))
            self_overlap[k] = gibbs.overlap_second_moment(cm, cm)
        for kind in dis.PERTURBATION_KINDS:
            curve = chaos.chaos_curve(g, IDENT, 0.9, kind, grid, 200, SEED)
            assert np.array_equal(curve.per_replica[:, 0], self_overlap), name
            assert np.all(curve.estimates >= 0.0) and np.all(curve.estimates <= 1.0)
            assert all(r["ok"] for r in chaos.monotonicity_check(curve)), (name, kind)
            for chk in chaos.theorem_bound_check(curve, tags=("general-ball",)):
                assert chk.margin > -3.0 * chk.se, (name, kind, chk)
    elapsed = time.monotonic() - t0
    print(f"criterion 10: 5 fixtures x 2 kinds pass (beta=0 exact, t=0 "
          f"bitwise, monotone, ball bound), {elapsed:.1f}s (< 900s)")
    assert elapsed < 900.0


def test_criterion_11_discrete_lower_bound():
    """ea-ring, discrete kind, beta=1, 500 replicas: estimate(1/|E|)
    >= e^{-1} estimate(0) - 3 s.e. of the paired difference; < 3 min."""
    t0 = time.monotonic()
    g = fixtures.get_fixture("ea-ring")
    curve = chaos.chaos_curve(g, IDENT, 1.0, "discrete", [0.0, 1.0 / 8.0], 500, SEED)
    chk = chaos.lower_bound_discrete(curve)
    elapsed = time.monotonic() - t0
    print(f"criterion 11: margin {chk.margin:+.4f} vs -3 s.e. "
          f"{-3.0 * chk.se:+.4f} at t=1/8, {elapsed:.1f}s (< 180s)")
    assert chk.t == 1.0 / 8.0
    assert chk.ok
    assert elapsed < 180.0


def test_criterion_12_levy_trend():
    """Levy model, alpha=1.5, beta=0.5, exact mode, N in {8,12,16},
    t=2, 400 replicas: estimates non-increasing within 3 s.e. and the
    fitted log-log slope is negative (exponent not asserted); < 10 min."""
    t0 = time.monotonic()
    res = chaos.levy_chaos([8, 12, 16], 1.5, 0.5, 2.0, 400, SEED)
    pts = res["points"]
    for a, b in zip(pts, pts[1:]):
        assert b.estimate <= a.estimate + 3.0 * math.hypot(a.se, b.se), (a, b)
    assert res["slope"] < 0.0
    elapsed = time.monotonic() - t0
    print(f"criterion 12: estimates {[round(p.estimate, 4) for p in pts]}, "
          f"slope {res['slope']:.3f} < 0, {elapsed:.1f}s (< 600s)")
    assert elapsed < 600.0


def test_criterion_13_determinism(tmp_path):
    """Identical config + seed produces byte-identical result CSVs
    (checked for a curve experiment with bounds and a growth run)."""
    t0 = time.monotonic()
    configs = [
        {"experiment": "chaos-curve", "seed": 90210, "output": None,
         "model": {"graph": {"fixture": "ea-ring"},
                   "disorder": {"kind": "identity"}, "beta": 0.8,
                   "perturbation": "continuous"},
         "curve": {"t_grid": [0.0, 0.5, 1.0], "replicas": 6,
                   "bounds": ["general-ball", "lower-gaussian"]}},
        {"experiment": "growth-stats", "seed": 90210, "output": None,
         "growth": {"n": 300, "alphas": {"2": 0.6, "3": 0.2},
                    "depth": 3, "replicas": 50}},
    ]
    for idx, cfg in enumerate(configs):
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"{idx}-{run}"
            cfg["output"] = str(out)
            path = tmp_path / f"cfg-{idx}-{run}.json"
            path.write_text(json.dumps(cfg))
            assert cli.main(["run", str(path)]) == 0
            blobs.append(((out / "results.csv").read_bytes(),
                          (out / "results.json").read_bytes()))
        assert blobs[0][0] == blobs[1][0]
        # JSON embeds the config; normalize the differing output path
        ja, jb = (json.loads(b[1]) for b in blobs)
        ja["config"]["output"] = jb["config"]["output"] = ""
        assert ja == jb
    elapsed = time.monotonic() - t0
    print(f"criterion 13: both experiments byte-identical across reruns, "
          f"{elapsed:.1f}s")

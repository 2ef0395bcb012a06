"""Disorder chaos experiments.

The central estimand is E <R(sigma, tau)^2>_t where sigma samples the
Gibbs measure of couplings rho(J) and tau the one of rho(J(t)). For a
fixed disorder pair the replica average factorizes through the two
correlation matrices, (1/N^2) sum_ij <s_i s_j> <t_i t_j>, so each replica
costs two matrix computations per grid point. Within a replica the whole
t-grid is driven by one coupled disorder path, which keeps curves
comparable across t and makes the t = 0 column bitwise equal to the
unperturbed value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import disorder as dis
from . import gibbs, hermite
from .errors import ValidationError, _integer
from .fixtures import complete_graph, remark_graph, two_lobe_graph
from .hypergraph import (Hypergraph, MultiIndex, berge_distance,
                         connected_in, hypertree_radius, multi_index, vertex_support)
from .randgraph import DilutedSpec, sample_diluted
from .rng import check_replicas, mean_se, replicate, substream

# caller constants of the growth-rate bound families
BOUND_CONSTANTS = {"poly-growth": ("C", "theta"), "exp-growth": ("C", "gamma"),
                   "diluted": ("C", "lambda"), "levy": ("K", "c", "eps", "alpha")}
UPPER_TAGS = ("general-ball", *BOUND_CONSTANTS)
LOWER_TAGS = ("lower-discrete", "lower-gaussian")


@dataclass(frozen=True)
class ChaosCurve:
    """A curve and the inputs it was drawn from, which its bound checks
    read, with the max-ball profile of each diluted replica's graph. A
    fixed graph's rows are empty: its bound check takes its profile."""
    t_grid: tuple[float, ...]
    estimates: np.ndarray
    ses: np.ndarray
    per_replica: np.ndarray  # (replicas, len(t_grid))
    ball_profiles: np.ndarray  # (replicas, N + 1 or 0 if fixed) _max_ball_profile counts
    source: Hypergraph | DilutedSpec
    model: dis.DisorderModel
    beta: float | None  # None at infinity
    kind: str
    seed: int
    mode: str

    @property
    def meta(self) -> dict:
        """The run's description as results.json records it."""
        src = self.source
        graph = ({"type": "fixed", "n": src.n, "n_edges": src.n_edges}
                 if isinstance(src, Hypergraph) else
                 {"type": "diluted", "n": src.n, "alphas": {str(p): a for p, a in src.alphas}})
        return {"kind": self.kind, "beta": "infinity" if self.beta is None else self.beta,
                "replicas": len(self.per_replica), "seed": self.seed, "mode": self.mode,
                "graph": graph}


def _correlations(systems: list, mode: str, rng, mcmc_sweeps: int,
                  mcmc_burn_in: int) -> list[gibbs.CorrelationMatrix]:
    """One correlation matrix per system, in order: all of a beta =
    infinity list from one ground_states call, else one kernel call each."""
    if systems[0].beta is None:
        return [gibbs.ground_state_correlations(gs) for gs in gibbs.ground_states(*systems)]
    if mode == "exact":
        return [gibbs.exact_correlations(s) for s in systems]
    return [gibbs.mcmc_correlations(s, rng, sweeps=mcmc_sweeps, burn_in=mcmc_burn_in)
            for s in systems]


def check_curve(graph_source, beta, kind: str, t_grid, replicas: int, mode: str,
                mcmc_sweeps: int, mcmc_burn_in: int) -> None:
    """The rules chaos_curve applies before any draw, down to the size cap
    of the kernel that runs: enumeration (also at beta None) or sampler,
    and the replica budget of its rows, which for a diluted source hold
    each draw's N + 1 ball profile after its len(t_grid) values."""
    if not isinstance(graph_source, (Hypergraph, DilutedSpec)):
        raise ValidationError("graph source must be a Hypergraph or DilutedSpec")
    if kind not in dis.PERTURBATION_KINDS:
        raise ValidationError(f"perturbation kind must be one of {dis.PERTURBATION_KINDS}")
    if mode not in ("exact", "mcmc"):
        raise ValidationError(f"mode must be exact or mcmc, got {mode!r}")
    if beta is not None:
        gibbs.check_beta(beta)
    check_replicas(replicas, len(dis.check_grid(t_grid)) + _profile_width(graph_source))
    gibbs.check_burn_in(mcmc_burn_in)
    if mode == "exact" or beta is None:
        gibbs.check_size(graph_source.n, gibbs.EXACT_MAX_N)
    else:
        gibbs.check_mcmc(graph_source.n, mcmc_sweeps)


def chaos_curve(graph_source, model: dis.DisorderModel, beta, kind: str, t_grid,
                replicas: int, seed: int, mode: str = "exact",
                mcmc_sweeps: int = gibbs.MCMC_SWEEPS,
                mcmc_burn_in: int = gibbs.MCMC_BURN_IN) -> ChaosCurve:
    """Monte Carlo estimate of E <R^2>_t on a grid of perturbation times.

    Replica k draws everything from the substream (seed, 'replica', k):
    the graph when the source is diluted, the base couplings, one coupled
    path across the grid, and any sampler randomness (rng.replicate).
    Each drawn graph's ball profile is taken in its replica's task and
    kept, so the bound checks redraw nothing; a fixed graph keeps none.
    """
    check_curve(graph_source, beta, kind, t_grid, replicas, mode, mcmc_sweeps, mcmc_burn_in)
    beta_v = None if beta is None else float(beta)
    grid = tuple(float(t) for t in t_grid)
    # exact and ground-state kernels draw nothing, so skipping a repeated
    # call leaves the replica's stream as it was; the sampler must rerun
    deterministic = mode == "exact" or beta_v is None
    width = _profile_width(graph_source)

    def one(rng) -> np.ndarray:
        g = sample_diluted(graph_source, rng) if width else graph_source
        base = rng.standard_normal(g.n_edges)
        if kind == "continuous":
            path = dis.continuous_path(base, grid, rng)
        else:
            path = dis.discrete_path(base, grid, rng)
        # t = 0 leaves the couplings, so the system, unmoved: reuse its result
        reuse = deterministic and np.array_equal(path[0], base)
        systems = [gibbs.spin_system(g, dis.rho(model, j), beta_v)
                   for j in (base, *path[int(reuse):])]
        corr_a, *corr_b = _correlations(systems, mode, rng, mcmc_sweeps, mcmc_burn_in)
        if reuse:
            corr_b.insert(0, corr_a)
        r2 = [gibbs.overlap_second_moment(corr_a, b) for b in corr_b]
        return np.array(r2 + _max_ball_profile(g) if width else r2)

    rows = replicate(one, replicas, len(grid) + width, seed, "replica")
    per = rows[:, :len(grid)]
    # mean centered at replica 0: exact when all replicas agree (beta = 0)
    dev_mean, ses = mean_se(per - per[0])
    return ChaosCurve(t_grid=grid, estimates=per[0] + dev_mean, ses=ses, per_replica=per,
                      ball_profiles=rows[:, len(grid):], source=graph_source, model=model,
                      beta=beta_v, kind=kind, seed=seed, mode=mode)


def _profile_width(graph_source) -> int:
    """N + 1 ball-profile values a diluted source adds to each replica row, else 0."""
    return graph_source.n + 1 if isinstance(graph_source, DilutedSpec) else 0


def monotonicity_check(curve: ChaosCurve) -> list[dict]:
    """Adjacent-pair check that estimates do not increase in t beyond
    paired Monte Carlo noise (3 s.e. of the per-replica differences)."""
    rows = []
    for k in range(len(curve.t_grid) - 1):
        d, se = map(float, mean_se(curve.per_replica[:, k + 1] - curve.per_replica[:, k]))
        rows.append({
            "t_lo": curve.t_grid[k], "t_hi": curve.t_grid[k + 1],
            "diff": d, "se": se, "ok": d <= 3.0 * se,
        })
    return rows


@dataclass(frozen=True)
class BoundCheck:
    tag: str
    t: float
    estimate: float
    se: float
    bound: float
    margin: float  # bound - estimate for upper bounds, estimate - bound for lower
    ok: bool
    extra: dict = field(default_factory=dict)


def _max_ball_profile(graph: Hypergraph) -> list[int]:
    """max_i |B_r(i)| for r = 0..N, all N balls grown at once as int bitmasks.

    B_{r+1}(v) is B_r(v) OR'd with B_r(u) for every u that shares an edge
    with v, so a round ORs the balls of each edge's vertices together and
    into each of them; round 1 builds every closed primal neighbourhood.
    Once a round changes no ball, each ball is its component, and the
    profile keeps its last value up to r = N."""
    balls, grown, widest = None, [1 << v for v in range(graph.n)], []
    while grown != balls:
        balls, grown = grown, grown[:]
        widest.append(max(map(int.bit_count, balls)))
        for edge in graph.edges:
            mask = 0
            for u in edge:
                mask |= balls[u]
            for u in edge:
                grown[u] |= mask
    return widest + widest[-1:] * (graph.n + 1 - len(widest))


def _ball_bound(max_ball: list[float], t: float) -> tuple[float, int]:
    """min_r [ max_ball[r] / N + e^{-tr} ] and its argmin r; N = len - 1."""
    n = len(max_ball) - 1
    best, best_r = math.inf, 0
    for r in range(n + 1):
        val = max_ball[r] / n + math.exp(-t * r)
        if val < best:
            best, best_r = val, r
    return best, best_r


def theorem_bound_check(curve: ChaosCurve, tags=("general-ball",),
                        params: dict | None = None) -> list[BoundCheck]:
    """Evaluate decay bounds against the curve, on its own graph source.

    general-ball is the constant-free min_r [ max_i |B_r(i)| / N + e^{-tr} ],
    with its argmin r as extra r_star on a fixed graph. The growth-rate
    families need caller constants: poly {C, theta}, exp {C, gamma},
    diluted {C, lambda}, levy {K, c, eps, alpha}. general-ball averages the
    per-graph bounds over the ball profiles the curve kept, so a diluted
    source gets the mean over its own draws and nothing is redrawn; a
    fixed graph's one profile is taken here, once. Lower tags come last.
    """
    params = params or {}
    source = curve.source
    check_bounds(tags, params, source, curve.model, curve.beta, curve.kind, curve.t_grid)
    profiles = curve.ball_profiles.tolist()
    if "general-ball" in tags and isinstance(source, Hypergraph):
        profiles = [_max_ball_profile(source)]
    out = []
    for tag in [tag for tag in tags if tag in UPPER_TAGS]:
        for ti, t in enumerate(curve.t_grid):
            est = float(curve.estimates[ti])
            se = float(curve.ses[ti])
            extra = {}
            if tag == "general-ball":
                bounds, r_stars = zip(*(_ball_bound(p, t) for p in profiles))
                bound = float(np.mean(bounds))
                if isinstance(source, Hypergraph):
                    extra["r_star"] = r_stars[0]
            else:
                bound = _family_bound(tag, params, source.n, t)
            margin = bound - est
            out.append(BoundCheck(tag=tag, t=t, estimate=est, se=se, bound=bound,
                                  margin=margin, ok=margin > 0, extra=extra))
    if "lower-discrete" in tags:
        out.append(lower_bound_discrete(curve))
    if "lower-gaussian" in tags:
        out.extend(lower_bound_gaussian(curve))
    return out


def check_bounds(tags, params: dict, graph_source, model: dis.DisorderModel, beta,
                 kind: str, t_grid) -> None:
    """Every rule of the bound checks: known and distinct tags, a value of
    each family's bound at every grid point, and what each lower tag
    needs of the curve (a fixed graph, the kind, a grid from 0; for
    lower-gaussian finite beta and identity disorder)."""
    for tag in tags:  # before set(tags): a tag from a config may be unhashable
        if tag not in UPPER_TAGS + LOWER_TAGS:
            raise ValidationError(f"unknown bound tag {tag!r}")
    if len(set(tags)) != len(tags):  # a repeated tag repeats its checks and rows
        raise ValidationError(f"bound tags must be distinct, got {list(tags)}")
    for tag in tags:
        missing = sorted(set(BOUND_CONSTANTS.get(tag, ())) - set(params))
        if missing:
            raise ValidationError(f"bound {tag!r} needs constants {missing}")
        for t in t_grid if tag in BOUND_CONSTANTS else ():
            try:
                _family_bound(tag, params, graph_source.n, t)
            except (ArithmeticError, ValueError) as exc:  # e.g. log(gamma), gamma <= 0
                raise ValidationError(f"bound {tag!r} has no value at t={t}: {exc}") from exc
        if tag not in LOWER_TAGS:
            continue
        if not isinstance(graph_source, Hypergraph):
            raise ValidationError(f"{tag} needs a fixed graph")
        if tag == "lower-gaussian" and beta is None:
            raise ValidationError("lower-gaussian needs finite beta")
        if tag == "lower-gaussian" and model.kind != "identity":
            raise ValidationError("lower-gaussian needs identity disorder")
        needs = "discrete" if tag == "lower-discrete" else "continuous"
        if kind != needs or t_grid[0] != 0.0:
            raise ValidationError(f"{tag} needs a {needs}-kind curve with a t_grid from 0")
        if tag == "lower-discrete" and not _short_times(t_grid, graph_source.n_edges):
            raise ValidationError(f"{tag} needs an edge and a positive grid point t <= 1/|E|")


def _family_bound(tag: str, p: dict, n: int, t: float) -> float:
    """A growth-rate family's bound at time t on n vertices."""
    if tag == "poly-growth":
        return 1.0 / n + p["C"] / (n * t ** p["theta"]) if t > 0 else math.inf
    if tag == "exp-growth":
        return p["C"] * n ** (-t / (t + math.log(p["gamma"])))
    if tag == "diluted":
        return p["C"] * n ** (-t / (t + 2.0 * math.log(p["lambda"])))
    expo = (2.0 / p["alpha"] - 1.0 - p["eps"]) * min(1.0, p["c"] * t)
    return p["K"] * n ** (-expo)


def _short_times(t_grid, n_edges: int) -> list[int]:
    """Indices of the positive grid points t <= 1/|E|; none without an edge."""
    return [k for k, t in enumerate(t_grid) if n_edges and 0 < t <= 1.0 / n_edges + 1e-12]


def lower_bound_discrete(curve: ChaosCurve) -> BoundCheck:
    """Short-time lower bound for the discrete kind: at the last grid
    point t <= 1/|E| the perturbed second moment keeps at least e^{-1} of
    the t = 0 value."""
    check_bounds(("lower-discrete",), {}, curve.source, curve.model, curve.beta, curve.kind,
                 curve.t_grid)
    n_edges = curve.source.n_edges
    ti = _short_times(curve.t_grid, n_edges)[-1]
    margin, se = map(float, mean_se(
        curve.per_replica[:, ti] - math.exp(-1.0) * curve.per_replica[:, 0]))
    bound = math.exp(-1.0) * float(curve.estimates[0])
    return BoundCheck(tag="lower-discrete", t=curve.t_grid[ti],
                      estimate=float(curve.estimates[ti]), se=se, bound=bound,
                      margin=margin, ok=margin >= -3.0 * se, extra={"t_max": 1.0 / n_edges})


def lower_bound_gaussian(curve: ChaosCurve) -> list[BoundCheck]:
    """Gaussian identity-coupling lower bound: estimate(t) cannot fall
    more than 6 sqrt(t) sqrt(beta) |E|^{3/4} below estimate(0). Vacuous
    whenever the slack exceeds the unperturbed value."""
    check_bounds(("lower-gaussian",), {}, curve.source, curve.model, curve.beta, curve.kind,
                 curve.t_grid)
    out = []
    base = float(curve.estimates[0])
    for ti, t in enumerate(curve.t_grid[1:], start=1):
        slack = 6.0 * math.sqrt(t) * math.sqrt(curve.beta) * curve.source.n_edges ** 0.75
        bound = base - slack
        margin, se = map(float, mean_se(
            curve.per_replica[:, ti] - (curve.per_replica[:, 0] - slack)))
        out.append(BoundCheck(tag="lower-gaussian", t=t, estimate=float(curve.estimates[ti]),
                              se=se, bound=bound, margin=margin, ok=margin >= -3.0 * se,
                              extra={"slack": slack, "vacuous": bound <= 0.0}))
    return out


def disorder_functional(graph: Hypergraph, model: dis.DisorderModel, beta: float,
                        i: int, j: int):
    """phi(base rows) = <sigma_i sigma_j> of the system with couplings
    rho(base), vectorized over rows."""
    def phi(rows):
        vals, _ = gibbs.batch_moments(graph, dis.rho(model, np.asarray(rows)), beta, [(i, j)])
        return vals[0]
    return phi


@dataclass(frozen=True)
class AuditRow:
    n: MultiIndex
    value: float
    forced_zero: bool
    in_support: bool       # both i and j in V(n)
    path_ij: bool          # i-j Berge path inside G(n)
    support_size: int      # |E(n)|


@dataclass(frozen=True)
class AuditReport:
    i: int
    j: int
    beta: float
    degree_cap: int
    order: int
    rows: tuple[AuditRow, ...]
    sign_violations: tuple[int, ...]       # row indices
    path_violations: tuple[int, ...]       # even models: mass without a path
    hypertree_violations: tuple[int, ...]  # |E(n)| < min(r, d(i,j)) with mass
    hypertree_radius: int
    e_phi_sq: float


def check_audit(graph, beta, i: int, j: int, degree_cap: int, order: int,
                tol: float, sign_tol: float) -> None:
    """The rules coefficient_audit applies before any work."""
    if not isinstance(graph, Hypergraph) or beta is None:
        raise ValidationError("coefficient-audit needs a fixed graph and finite beta")
    gibbs.check_beta(beta)
    if not (tol >= 0 and sign_tol >= 0):  # a negative tolerance flags every row
        raise ValidationError(f"tol and sign_tol must be >= 0, got {tol} and {sign_tol}")
    for v in (i, j):
        graph.check_vertex(v)
    gibbs.check_size(graph.n, gibbs.BATCH_MAX_N)
    hermite.check_sweep(graph.n_edges, degree_cap, order)


def coefficient_audit(graph: Hypergraph, model: dis.DisorderModel, beta: float,
                      i: int, j: int, degree_cap: int, order: int,
                      tol: float = 1e-6, sign_tol: float = 1e-8) -> AuditReport:
    """Sweep all coefficients up to the cap and check them against the
    structural predictions: sign-forced zeros vanish; for even models
    mass requires an i-j path in the support; when the ball around i is
    a hypertree to radius r, mass requires |E(n)| >= min(r, d(i, j))."""
    check_audit(graph, beta, i, j, degree_cap, order, tol, sign_tol)
    phi = disorder_functional(graph, model, beta, i, j)
    table = hermite.coefficient_sweep(phi, graph.n_edges, degree_cap, order)
    d_ij = berge_distance(graph, i, j)
    even_model = all(len(e) % 2 == 0 for e in graph.edges)
    r_ht = hypertree_radius(graph, i)

    rows = []
    sign_bad, path_bad, tree_bad = [], [], []
    for ent in table.entries:
        n = ent.n
        forced = hermite.sign_criterion(graph, n, i, j)
        vs = vertex_support(graph, n)
        in_sup = i in vs and j in vs
        path = connected_in(graph, i, j, n) if in_sup else False
        rows.append(AuditRow(n=n, value=ent.value, forced_zero=forced,
                             in_support=in_sup, path_ij=path, support_size=len(n.support)))
        idx = len(rows) - 1
        if forced and abs(ent.value) > sign_tol:
            sign_bad.append(idx)
        if abs(ent.value) > tol:
            if even_model and not path:
                path_bad.append(idx)
            if r_ht >= 1 and (not in_sup or len(n.support) < min(r_ht, d_ij)):
                tree_bad.append(idx)
    return AuditReport(i=i, j=j, beta=beta, degree_cap=degree_cap, order=order,
                       rows=tuple(rows), sign_violations=tuple(sign_bad),
                       path_violations=tuple(path_bad),
                       hypertree_violations=tuple(tree_bad),
                       hypertree_radius=r_ht, e_phi_sq=table.e_phi_sq)


# ---------------------------------------------------------------------------
# worked counterexamples: the 4-vertex graph whose criterion does not force
# a vanishing coefficient, and the two-lobe hypergraph whose observable
# decouples across a bridge


def _max_error(g: Hypergraph, i: int, j: int, beta: float, draws: int, rng, closed) -> float:
    """max |<s_i s_j> - closed(cs)| over `draws` standard Gaussian coupling
    vectors cs from rng, <s_i s_j> by exact enumeration."""
    if _integer(draws, "draws") < 1:  # no draw would report an error of 0
        raise ValidationError(f"need draws >= 1, got {draws}")
    worst = 0.0
    for _ in range(draws):
        cs = rng.standard_normal(g.n_edges)
        cm = gibbs.exact_correlations(gibbs.spin_system(g, cs, beta))
        worst = max(worst, abs(cm.corr[i, j] - closed(cs)))
    return worst


def decoupling_error(k: int, beta: float, draws: int, seed: int) -> float:
    """max |<s_i s_j> - <s_i>_A <s_j>_B| over random Gaussian draws, where
    the lobe means are computed on the sub-systems with only that lobe's
    edges. Exact enumeration on both sides."""
    g, lab = two_lobe_graph(k)
    i, j = lab["i"], lab["j"]

    def lobe_means(cs) -> float:
        rhs = 1.0
        for lobe, v in ((lab["lobe_a"], i), (lab["lobe_b"], j)):
            keep = np.zeros(g.n_edges)
            keep[list(lobe)] = cs[list(lobe)]
            rhs *= gibbs.exact_correlations(gibbs.spin_system(g, keep, beta)).means[v]
        return rhs

    return _max_error(g, i, j, beta, draws, substream(seed, "decouple", k), lobe_means)


def tanh_product_error(k: int, beta: float, draws: int, seed: int) -> float:
    """max |<s_i s_j> - prod_e tanh(beta c_e)| over random draws, product
    over the four lobe edges. Stronger than decoupling_error: it pins the
    closed form of the observable, not just its factorization."""
    g, lab = two_lobe_graph(k)
    lobe_edges = lab["lobe_a"] + lab["lobe_b"]
    return _max_error(g, lab["i"], lab["j"], beta, draws, substream(seed, "tanhprod", k),
                      lambda cs: math.prod(math.tanh(beta * cs[eid]) for eid in lobe_edges))


def factorized_bridge_coefficient(beta: float) -> float:
    """phi_hat(n) through the verified closed form: the observable equals
    the product of four independent tanh factors, so the coefficient is
    E[J tanh(beta J)]^4 with the scalar mean done adaptively. Valid only
    after tanh_product_error has certified the closed form."""
    f = hermite.adaptive_gaussian_mean(lambda x: x * math.tanh(beta * x))
    return f ** 4


def _embedded(phi, cols: list[int], width: int):
    """phi on rows whose columns cols hold the grid's coordinates and
    every other column is zero. One zeroed (block, width) buffer serves a
    whole grid pass: each block overwrites only cols, and a shorter last
    block reads a leading slice of it."""
    full = np.zeros((0, width))

    def call(rows):
        nonlocal full
        if len(full) < len(rows):
            full = np.zeros((len(rows), width))
        block = full[:len(rows)]
        block[:, cols] = rows
        return phi(block)
    return call


def bridged_coefficients(k: int, betas, order: int) -> list[dict]:
    """phi_hat(n) for n = 1 on the four lobe edges, 0 on the bridge, at
    each beta.

    The tensor route: for k <= 1 the system has 5 edges and the full
    grid applies; larger k exceeds the grid cap, so the bridge
    coordinates are pinned to zero, exact because the observable
    provably does not depend on them (decoupling_error at 1e-12).
    The factorized route evaluates the certified closed form with an
    adaptive scalar integral; the gap between the two is the tensor
    truncation error, reported as quadrature_gap. Each beta gets its own
    grid pass over its own disorder_functional, so no state passes from
    one beta to the next."""
    g, lab = two_lobe_graph(k)
    i, j = lab["i"], lab["j"]
    lobe_edges = list(lab["lobe_a"] + lab["lobe_b"])
    n = multi_index({eid: 1 for eid in lobe_edges})
    reduced = g.n_edges > hermite.MAX_AXES or order ** g.n_edges > hermite.MAX_GRID
    if not reduced:
        axes, n_grid = g.n_edges, n
    else:
        axes, n_grid = 4, multi_index({col: 1 for col in range(4)})
    support_path = connected_in(g, i, j, n)
    distance = berge_distance(g, i, j)
    out = []
    for beta in betas:
        phi = disorder_functional(g, dis.DisorderModel("identity"), beta, i, j)
        if reduced:
            phi = _embedded(phi, lobe_edges, g.n_edges)
        value = hermite.coeff_quadrature(phi, axes, n_grid, order)
        factorized = factorized_bridge_coefficient(beta)
        out.append({"k": k, "beta": beta, "value": value, "factorized": factorized,
                    "quadrature_gap": abs(value - factorized), "order": order,
                    "reduced": reduced, "support_connects": support_path,
                    "distance": distance})
    return out


def counterexample_suite(seed: int, draws: int = 100, order: int = 16) -> tuple[list, dict]:
    """The two worked counterexamples, end to end; returns (rows, result)
    with one (item, metric, value) row per reported number.

    First: on the 4-vertex graph the pair (0,1) has <s_0 s_1> =
    tanh(beta c_01) exactly, and the index with degrees (1, 2, 0) has a
    vanishing coefficient that the sign criterion does not force.
    Second: the two-lobe graph decouples across the bridge, its rank-one
    coefficient is positive although the support contains no i-j path,
    and the extended-bridge variants behave identically.
    """
    hermite.check_order(order)
    g = remark_graph()
    rng = substream(seed, "remark")
    worst = max(_max_error(g, 0, 1, beta, draws, rng, lambda cs: math.tanh(beta * cs[0]))
                for beta in (0.3, 1.0, 3.0))
    n_ex = multi_index({0: 1, 1: 2})
    forced = hermite.sign_criterion(g, n_ex, 0, 1)
    phi = disorder_functional(g, dis.DisorderModel("identity"), 1.0, 0, 1)
    coeff = hermite.coeff_quadrature(phi, 3, n_ex, order)
    out = {"remark": {"tanh_identity_max_err": worst,
                      "unforced_index_forced_zero": forced,
                      "unforced_index_coeff": coeff},
           "two_lobe": []}
    rows = [{"item": "remark", "metric": "tanh_identity_max_err", "value": worst},
            {"item": "remark", "metric": "unforced_index_coeff", "value": coeff}]
    for k in (0, 1, 2, 3):
        row = {"k": k,
               "decoupling_max_err": max(
                   decoupling_error(k, b, draws, seed) for b in (0.5, 1.0)),
               "tanh_product_max_err": max(
                   tanh_product_error(k, b, draws, seed) for b in (0.5, 1.0))}
        metrics = [(key, row[key]) for key in ("decoupling_max_err", "tanh_product_max_err")]
        for coeff in bridged_coefficients(k, (0.5, 1.0), order):
            row[f"coeff_beta_{coeff['beta']}"] = coeff
            metrics += [(f"coeff_beta_{coeff['beta']}", coeff["value"]),
                        (f"coeff_factorized_beta_{coeff['beta']}", coeff["factorized"])]
        out["two_lobe"].append(row)
        rows += [{"item": f"two_lobe_k{k}", "metric": m, "value": v} for m, v in metrics]
    return rows, out


# ---------------------------------------------------------------------------
# heavy-tailed fully connected model


@dataclass(frozen=True)
class LevyPoint:
    n: int
    estimate: float
    se: float
    per_replica: np.ndarray


def check_levy(n_values, alpha: float, beta: float, t: float | None, replicas: int) -> None:
    """The rules levy_chaos applies before complete_graph builds N^2 / 2 edges."""
    gibbs.check_beta(beta)
    if t is not None and not t > 0:
        raise ValidationError(f"need t > 0, got {t}")
    check_replicas(replicas, 1)
    if len(n_values) == 0:  # no point and a nan slope
        raise ValidationError("n_values must not be empty")
    if len(set(n_values)) != len(n_values):
        # one substream per N: a repeated N repeats its point exactly
        raise ValidationError(f"n_values must be distinct, got {list(n_values)}")
    for n in n_values:
        dis.levy_a_n(n, alpha)  # N a positive integer, alpha in (1, 2)
        gibbs.check_size(n, gibbs.EXACT_MAX_N)


def levy_chaos(n_values, alpha: float, beta: float, t: float | None,
               replicas: int, seed: int) -> dict:
    """Chaos at one time t for the fully connected heavy-tailed model.

    The base layer holds one standard Gaussian per ordered pair (i, j),
    i != j; rho maps it to a Pareto(alpha) tail and the two orientations
    fold into one undirected coupling, scaled by 1/a_N. Both replicas
    are perturbed symmetrically so the pair is distributed as (J, J(t)).
    Replica k at size N draws from the substream (seed, 'levy', N, k).
    Estimates decay in N; the fitted log-log slope is reported.
    """
    check_levy(n_values, alpha, beta, t, replicas)
    model = dis.DisorderModel("pareto-tail", alpha=alpha)  # before log(alpha - 1)
    t = -math.log(alpha - 1.0) + 0.1 if t is None else float(t)
    points = []
    for n in n_values:
        n = int(n)
        g = complete_graph(n)
        scale = 1.0 / dis.levy_a_n(n, alpha)

        def one(rng) -> float:
            base = rng.standard_normal((2, g.n_edges))
            j1, j2 = dis.couple_symmetric(base, t, rng)
            cm1, cm2 = (gibbs.exact_correlations(gibbs.spin_system(
                g, dis.rho(model, j).sum(axis=0), beta, levy_scale=scale)) for j in (j1, j2))
            return gibbs.overlap_second_moment(cm1, cm2)

        vals = replicate(one, replicas, 1, seed, "levy", n)[:, 0]
        dev_mean, se = mean_se(vals - vals[0])
        points.append(LevyPoint(n=n, estimate=float(vals[0] + dev_mean), se=float(se),
                                per_replica=vals))
    estimates = [p.estimate for p in points]
    # a zero estimate has no logarithm, so the slope is undefined
    slope = (float(np.polyfit(np.log([p.n for p in points]), np.log(estimates), 1)[0])
             if len(points) >= 2 and min(estimates) > 0 else math.nan)
    return {"alpha": alpha, "beta": beta, "t": t, "replicas": replicas, "seed": seed,
            "points": points, "slope": slope,
            "slope_reference": -(2.0 / alpha - 1.0)}

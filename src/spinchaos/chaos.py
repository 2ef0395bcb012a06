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
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import disorder as dis
from . import gibbs, hermite
from .errors import ValidationError, _integer
from .hypergraph import (Hypergraph, MultiIndex, ball_sizes, berge_distance,
                         connected_in, hypergraph, hypertree_radius, multi_index,
                         vertex_support)
from .randgraph import DilutedSpec, sample_diluted
from .rng import check_replicas, mean_se, replicate, substream

# caller constants of the growth-rate bound families
BOUND_CONSTANTS = {"poly-growth": ("C", "theta"), "exp-growth": ("C", "gamma"),
                   "diluted": ("C", "lambda"), "levy": ("K", "c", "eps", "alpha")}
UPPER_TAGS = ("general-ball", *BOUND_CONSTANTS)
LOWER_TAGS = ("lower-discrete", "lower-gaussian")


@dataclass(frozen=True)
class ChaosCurve:
    t_grid: tuple[float, ...]
    estimates: np.ndarray
    ses: np.ndarray
    per_replica: np.ndarray  # (replicas, len(t_grid))
    meta: dict = field(default_factory=dict)


def _resolve_graph(graph_source, rng) -> Hypergraph:
    if isinstance(graph_source, Hypergraph):
        return graph_source
    return sample_diluted(graph_source, rng)


def _correlations(system: gibbs.SpinSystem, mode: str, rng,
                  mcmc_sweeps: int, mcmc_burn_in: int) -> gibbs.CorrelationMatrix:
    if system.beta is None:
        return gibbs.ground_state_correlations(gibbs.ground_states(system))
    if mode == "exact":
        return gibbs.exact_correlations(system)
    return gibbs.mcmc_correlations(system, rng, sweeps=mcmc_sweeps, burn_in=mcmc_burn_in)


def check_curve(graph_source, beta, kind: str, t_grid, replicas: int, mode: str,
                mcmc_sweeps: int) -> None:
    """The rules chaos_curve applies before any draw, down to the size cap
    of the kernel that runs: enumeration (also at beta None) or sampler."""
    if not isinstance(graph_source, (Hypergraph, DilutedSpec)):
        raise ValidationError("graph source must be a Hypergraph or DilutedSpec")
    if kind not in dis.PERTURBATION_KINDS:
        raise ValidationError(f"perturbation kind must be one of {dis.PERTURBATION_KINDS}")
    if mode not in ("exact", "mcmc"):
        raise ValidationError(f"mode must be exact or mcmc, got {mode!r}")
    check_replicas(replicas, len(dis.check_grid(t_grid)))
    if mode == "exact" or beta is None:
        gibbs.check_size(graph_source.n, gibbs.EXACT_MAX_N)
    else:
        gibbs.check_mcmc(graph_source.n, mcmc_sweeps)


def chaos_curve(graph_source, model: dis.DisorderModel, beta, kind: str, t_grid,
                replicas: int, seed: int, mode: str = "exact",
                mcmc_sweeps: int = 20000, mcmc_burn_in: int = 2000) -> ChaosCurve:
    """Monte Carlo estimate of E <R^2>_t on a grid of perturbation times.

    Replica k draws everything from the substream (seed, 'replica', k):
    the graph when the source is diluted, the base couplings, one coupled
    path across the grid, and any sampler randomness (rng.replicate).
    """
    beta_v = None if beta is None or beta == "infinity" else float(beta)
    check_curve(graph_source, beta_v, kind, t_grid, replicas, mode, mcmc_sweeps)
    grid = tuple(float(t) for t in t_grid)
    # exact and ground-state kernels draw nothing, so skipping a repeated
    # call leaves the replica's stream as it was; the sampler must rerun
    deterministic = mode == "exact" or beta_v is None

    def one(rng) -> np.ndarray:
        g = _resolve_graph(graph_source, rng)
        base = rng.standard_normal(g.n_edges)
        if kind == "continuous":
            path = dis.continuous_path(base, grid, rng)
        else:
            path = dis.discrete_path(base, grid, rng)
        sys_a = gibbs.spin_system(g, dis.rho(model, base), beta_v)
        corr_a = _correlations(sys_a, mode, rng, mcmc_sweeps, mcmc_burn_in)
        out = np.empty(len(grid))
        for ti in range(len(grid)):
            if ti == 0 and deterministic and np.array_equal(path[0], base):
                corr_b = corr_a  # t = 0 leaves the couplings, so the system, unmoved
            else:
                sys_b = gibbs.spin_system(g, dis.rho(model, path[ti]), beta_v)
                corr_b = _correlations(sys_b, mode, rng, mcmc_sweeps, mcmc_burn_in)
            out[ti] = gibbs.overlap_second_moment(corr_a, corr_b)
        return out

    per = replicate(one, replicas, len(grid), seed, "replica")
    meta = {
        "kind": kind, "beta": "infinity" if beta_v is None else beta_v,
        "replicas": replicas, "seed": seed, "mode": mode,
        "graph": _describe_graph(graph_source),
    }
    # mean centered at replica 0: exact when all replicas agree (beta = 0)
    dev_mean, ses = mean_se(per - per[0])
    return ChaosCurve(t_grid=grid, estimates=per[0] + dev_mean, ses=ses,
                      per_replica=per, meta=meta)


def _describe_graph(graph_source) -> dict:
    if isinstance(graph_source, Hypergraph):
        return {"type": "fixed", "n": graph_source.n, "n_edges": graph_source.n_edges}
    return {"type": "diluted", "n": graph_source.n,
            "alphas": {str(p): a for p, a in graph_source.alphas}}


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
    """max_i |B_r(i)| for r = 0..N; ball sizes saturate at the component
    size past each vertex's eccentricity."""
    sizes = [ball_sizes(graph, v) for v in range(graph.n)]
    return [max(s[r] if r < len(s) else s[-1] for s in sizes) for r in range(graph.n + 1)]


def _ball_bound(max_ball: list[int], t: float) -> tuple[float, int]:
    """min_r [ max_ball[r] / N + e^{-tr} ] and its argmin r; N = len - 1."""
    n = len(max_ball) - 1
    best, best_r = math.inf, 0
    for r in range(n + 1):
        val = max_ball[r] / n + math.exp(-t * r)
        if val < best:
            best, best_r = val, r
    return best, best_r


def theorem_bound_check(curve: ChaosCurve, graph_source,
                        tags=("general-ball",), params: dict | None = None) -> list[BoundCheck]:
    """Evaluate decay bounds against the curve.

    general-ball is the constant-free min_r [ max_i |B_r(i)| / N + e^{-tr} ],
    with its argmin r as extra r_star on a fixed graph. The growth-rate
    families need caller constants: poly {C, theta}, exp {C, gamma},
    diluted {C, lambda}, levy {K, c, eps, alpha}. For a diluted source the
    general-ball value is the replica average of per-draw bounds,
    resampled from the curve's own substreams. Lower tags come last.
    """
    params = params or {}
    out = []
    n = curve.meta["graph"]["n"]
    beta = None if curve.meta["beta"] == "infinity" else curve.meta["beta"]
    _check_bounds(tags, params, graph_source, beta, curve.meta["kind"], curve.t_grid)
    if "general-ball" in tags:  # one max-ball profile per graph, shared by every t
        if isinstance(graph_source, Hypergraph):
            profiles = [_max_ball_profile(graph_source)]
        else:  # the curve's own graphs, redrawn from its substreams
            profiles = replicate(lambda rng: _max_ball_profile(_resolve_graph(graph_source, rng)),
                                 curve.meta["replicas"], n + 1, curve.meta["seed"], "replica")
    for tag in [tag for tag in tags if tag in UPPER_TAGS]:
        for ti, t in enumerate(curve.t_grid):
            est = float(curve.estimates[ti])
            se = float(curve.ses[ti])
            extra = {}
            if tag == "general-ball":
                if isinstance(graph_source, Hypergraph):
                    bound, extra["r_star"] = _ball_bound(profiles[0], t)
                else:
                    bound = float(np.mean([_ball_bound(prof, t)[0] for prof in profiles]))
            else:
                bound = _family_bound(tag, params, n, t)
            margin = bound - est
            out.append(BoundCheck(tag=tag, t=t, estimate=est, se=se, bound=bound,
                                  margin=margin, ok=margin > 0, extra=extra))
    if "lower-discrete" in tags:
        out.append(lower_bound_discrete(curve, graph_source.n_edges))
    if "lower-gaussian" in tags:
        out.extend(lower_bound_gaussian(curve, beta, graph_source.n_edges))
    return out


def _check_bounds(tags, params: dict, graph_source, beta, kind: str, t_grid) -> None:
    """The rules of theorem_bound_check, down to a value of each family's
    bound at every grid point and what each lower tag needs."""
    for tag in tags:
        if tag not in UPPER_TAGS + LOWER_TAGS:
            raise ValidationError(f"unknown bound tag {tag!r}")
        missing = sorted(set(BOUND_CONSTANTS.get(tag, ())) - set(params))
        if missing:
            raise ValidationError(f"bound {tag!r} needs constants {missing}")
        for t in t_grid if tag in BOUND_CONSTANTS else ():
            try:
                _family_bound(tag, params, graph_source.n, t)
            except (ArithmeticError, ValueError) as exc:  # e.g. log(gamma), gamma <= 0
                raise ValidationError(f"bound {tag!r} has no value at t={t}: {exc}") from exc
        if tag in LOWER_TAGS and not isinstance(graph_source, Hypergraph):
            raise ValidationError(f"{tag} needs a fixed graph")
        if tag == "lower-gaussian" and beta is None:
            raise ValidationError("lower-gaussian needs finite beta")
        if tag in LOWER_TAGS:
            _check_lower(tag, kind, t_grid, graph_source.n_edges)


def check_bounds(tags, params: dict, graph_source, model: dis.DisorderModel, beta,
                 kind: str, t_grid) -> None:
    """The rules of theorem_bound_check on a curve config, plus one that
    only the config shows: lower-gaussian needs identity disorder."""
    if "lower-gaussian" in tags and model.kind != "identity":
        raise ValidationError("lower-gaussian needs identity disorder")
    _check_bounds(tags, params, graph_source, beta, kind, t_grid)


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


def _check_lower(tag: str, kind: str, t_grid, n_edges: int) -> int:
    """The rules of the lower bounds; for lower-discrete, returns the index
    of the last positive grid point t <= 1/|E|."""
    needs = "discrete" if tag == "lower-discrete" else "continuous"
    if kind != needs or t_grid[0] != 0.0:
        raise ValidationError(f"{tag} needs a {needs}-kind curve with a t_grid from 0")
    if tag == "lower-gaussian":
        return 0
    hits = [k for k, t in enumerate(t_grid) if n_edges and 0 < t <= 1.0 / n_edges + 1e-12]
    if not hits:
        raise ValidationError(f"{tag} needs an edge and a positive grid point t <= 1/|E|")
    return hits[-1]


def lower_bound_discrete(curve: ChaosCurve, n_edges: int) -> BoundCheck:
    """Short-time lower bound for the discrete kind: at t <= 1/|E| the
    perturbed second moment keeps at least e^{-1} of the t = 0 value."""
    ti = _check_lower("lower-discrete", curve.meta["kind"], curve.t_grid, n_edges)
    t = curve.t_grid[ti]
    margin, se = map(float, mean_se(
        curve.per_replica[:, ti] - math.exp(-1.0) * curve.per_replica[:, 0]))
    est = float(curve.estimates[ti])
    bound = math.exp(-1.0) * float(curve.estimates[0])
    return BoundCheck(tag="lower-discrete", t=t, estimate=est, se=se, bound=bound,
                      margin=margin, ok=margin >= -3.0 * se,
                      extra={"t_max": 1.0 / n_edges})


def lower_bound_gaussian(curve: ChaosCurve, beta: float, n_edges: int) -> list[BoundCheck]:
    """Gaussian identity-coupling lower bound: estimate(t) cannot fall
    more than 6 sqrt(t) sqrt(beta) |E|^{3/4} below estimate(0). Vacuous
    whenever the slack exceeds the unperturbed value."""
    _check_lower("lower-gaussian", curve.meta["kind"], curve.t_grid, n_edges)
    out = []
    base = float(curve.estimates[0])
    for ti, t in enumerate(curve.t_grid[1:], start=1):
        slack = 6.0 * math.sqrt(t) * math.sqrt(beta) * n_edges ** 0.75
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


def check_audit(graph, beta, i: int, j: int, degree_cap: int, order: int) -> None:
    """The rules coefficient_audit applies before any work."""
    if not isinstance(graph, Hypergraph) or beta is None:
        raise ValidationError("coefficient-audit needs a fixed graph and finite beta")
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
    check_audit(graph, beta, i, j, degree_cap, order)
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
        path = connected_in(graph, i, j, n.support) if in_sup else False
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


def remark_graph() -> Hypergraph:
    return hypergraph(4, [(0, 1), (0, 2), (1, 3)])


def two_lobe_graph(k: int = 0) -> tuple[Hypergraph, dict]:
    """The decoupling hypergraph. k = 0 is the canonical 7-vertex form
    with hub vertex 0; k >= 1 replaces the bridge with a path of k
    arity-3 edges. Returns (graph, labels) with the observable vertices
    and edge groups."""
    if _integer(k, "bridge length") == 0:
        g = hypergraph(7, [(1, 2, 3), (2, 3), (4, 5, 6), (5, 6), (0, 3, 6)])
        return g, {"i": 1, "j": 4, "lobe_a": (0, 1), "lobe_b": (2, 3), "bridge": (4,)}
    a, b = 2, 5  # 3' and 3'' in the relabeled variant
    edges = [(0, 1, 2), (1, 2), (3, 4, 5), (4, 5)]
    extra = list(range(6, 6 + 2 * k - 1))
    chain = [a] + extra + [b]
    bridge_ids = []
    for s in range(k):
        trip = (chain[2 * s], chain[2 * s + 1], chain[2 * s + 2])
        bridge_ids.append(len(edges))
        edges.append(trip)
    g = hypergraph(6 + 2 * k - 1, edges)
    return g, {"i": 0, "j": 3, "lobe_a": (0, 1), "lobe_b": (2, 3),
               "bridge": tuple(bridge_ids)}


def _max_error(g: Hypergraph, i: int, j: int, beta: float, draws: int, rng, closed) -> float:
    """max |<s_i s_j> - closed(cs)| over `draws` standard Gaussian coupling
    vectors cs from rng, <s_i s_j> by exact enumeration."""
    worst = 0.0
    for _ in range(_integer(draws, "draws")):
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


@lru_cache(maxsize=8)
def factorized_bridge_coefficient(beta: float) -> float:
    """phi_hat(n) through the verified closed form: the observable equals
    the product of four independent tanh factors, so the coefficient is
    E[J tanh(beta J)]^4 with the scalar mean done adaptively. Valid only
    after tanh_product_error has certified the closed form. Cached: it
    depends on beta alone, not on the bridge length."""
    f = hermite.adaptive_gaussian_mean(lambda x: x * math.tanh(beta * x))
    return f ** 4


def _beta_functionals(graph: Hypergraph, betas, i: int, j: int, embed) -> list:
    """phi_b(rows) = <sigma_i sigma_j> at couplings embed(rows), one per
    beta b, for grid passes made one after another over the same rows.
    The first pass's call at each block evaluates every beta in one
    batch_moments call, so they share its GEMM and column max, and queues
    the other betas' values for the later passes to read in order (copies,
    so a queued block does not keep every beta's values alive)."""
    queues = [deque() for _ in betas]

    def make(k: int):
        def phi(rows):
            if not queues[k]:
                vals = gibbs.batch_moments(graph, embed(rows), betas, [(i, j)])[0][0]
                for queue, col in zip(queues, vals.T):
                    queue.append(col.copy())
            return queues[k].popleft()
        return phi

    return [make(k) for k in range(len(betas))]


def bridged_coefficients(k: int, betas, order: int) -> list[dict]:
    """phi_hat(n) for n = 1 on the four lobe edges, 0 on the bridge, at
    each beta.

    The tensor route: for k <= 1 the system has 5 edges and the full
    grid applies; larger k exceeds the grid cap, so the bridge
    coordinates are pinned to zero, exact because the observable
    provably does not depend on them (decoupling_error at 1e-12).
    The factorized route evaluates the certified closed form with an
    adaptive scalar integral; the gap between the two is the tensor
    truncation error, reported as quadrature_gap. The betas share every
    batch_moments call (_beta_functionals), one grid pass per beta, and
    each value has the bits of a call with that beta alone."""
    g, lab = two_lobe_graph(k)
    i, j = lab["i"], lab["j"]
    lobe_edges = list(lab["lobe_a"] + lab["lobe_b"])
    n = multi_index({eid: 1 for eid in lobe_edges})
    reduced = g.n_edges > hermite.MAX_AXES or order ** g.n_edges > hermite.MAX_GRID
    if not reduced:
        axes, n_grid = g.n_edges, n

        def embed(rows):
            return rows
    else:
        axes, n_grid = 4, multi_index({col: 1 for col in range(4)})

        def embed(rows):
            full = np.zeros((rows.shape[0], g.n_edges))
            full[:, lobe_edges] = rows
            return full
    values = [hermite.coeff_quadrature(phi, axes, n_grid, order)
              for phi in _beta_functionals(g, betas, i, j, embed)]
    support_path = connected_in(g, i, j, n.support)
    distance = berge_distance(g, i, j)
    out = []
    for beta, value in zip(betas, values):
        factorized = factorized_bridge_coefficient(beta)
        out.append({"k": k, "beta": beta, "value": value, "factorized": factorized,
                    "quadrature_gap": abs(value - factorized), "order": order,
                    "reduced": reduced, "support_connects": support_path,
                    "distance": distance})
    return out


def counterexample_suite(seed: int, draws: int = 100, order: int = 16) -> dict:
    """The two worked counterexamples, end to end.

    First: on the 4-vertex graph the pair (0,1) has <s_0 s_1> =
    tanh(beta c_01) exactly, and the index with degrees (1, 2, 0) has a
    vanishing coefficient that the sign criterion does not force.
    Second: the two-lobe graph decouples across the bridge, its rank-one
    coefficient is positive although the support contains no i-j path,
    and the extended-bridge variants behave identically.
    """
    hermite.check_order(order)
    out = {"remark": {}, "two_lobe": []}
    g = remark_graph()
    rng = substream(seed, "remark")
    worst = max(_max_error(g, 0, 1, beta, draws, rng, lambda cs: math.tanh(beta * cs[0]))
                for beta in (0.3, 1.0, 3.0))
    n_ex = multi_index({0: 1, 1: 2})
    forced = hermite.sign_criterion(g, n_ex, 0, 1)
    phi = disorder_functional(g, dis.DisorderModel("identity"), 1.0, 0, 1)
    coeff = hermite.coeff_quadrature(phi, 3, n_ex, order)
    out["remark"] = {"tanh_identity_max_err": worst,
                     "unforced_index_forced_zero": forced,
                     "unforced_index_coeff": coeff}
    for k in (0, 1, 2, 3):
        row = {"k": k,
               "decoupling_max_err": max(
                   decoupling_error(k, b, draws, seed) for b in (0.5, 1.0)),
               "tanh_product_max_err": max(
                   tanh_product_error(k, b, draws, seed) for b in (0.5, 1.0))}
        for coeff in bridged_coefficients(k, (0.5, 1.0), order):
            row[f"coeff_beta_{coeff['beta']}"] = coeff
        out["two_lobe"].append(row)
    return out


# ---------------------------------------------------------------------------
# heavy-tailed fully connected model


def complete_graph(n: int) -> Hypergraph:
    return hypergraph(n, list(combinations(range(n), 2)))


@dataclass(frozen=True)
class LevyPoint:
    n: int
    estimate: float
    se: float
    per_replica: np.ndarray


def check_levy(n_values, alpha: float, t: float | None, replicas: int) -> None:
    """The rules levy_chaos applies before complete_graph builds N^2 / 2 edges."""
    if t is not None and not t > 0:
        raise ValidationError(f"need t > 0, got {t}")
    check_replicas(replicas, 1)
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
    check_levy(n_values, alpha, t, replicas)
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

"""The benchmark's workloads: spinchaos configs generated from a seed.

Each workload is a list of `spinchaos run` configs executed in order by
one fresh interpreter, plus the count of work units that run performs.
Sizes were chosen so every layer named in README.md dominates exactly
one workload; BENCHMARK.json and README.md give the reasons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DILUTED_ALPHAS = {"2": 0.6, "3": 0.2}


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                            # what units_per_s counts
    configs: Callable[[int], list[dict]]  # config seed -> configs, "output" unset
    units: Callable[[list[dict]], int]    # work units in one run of the configs
    named_layers: tuple[str, ...]        # per-layer metrics that should cover wall_s
    cycle: int = 3                       # config seeds per run; runs end on whole cycles


RECORDED = 60  # digests.json records config seeds 1..RECORDED


def config_seed(bench_seed: int, sample: int, cycle: int) -> int:
    """The spinchaos seed of a run's sample-th sample.

    A run cycles through `cycle` consecutive config seeds, so every
    sample's inputs are fixed by the benchmark seed alone, however fast
    the code runs, and each has a recorded digest. spinchaos seeds are
    positive. Benchmark seeds 0..RECORDED/cycle - 1 use disjoint sets of
    config seeds; larger ones reuse them.
    """
    return 1 + (bench_seed * cycle + sample % cycle) % RECORDED


def _curve_torus(seed: int) -> list[dict]:
    return [{
        "experiment": "chaos-curve", "seed": seed,
        "model": {"graph": {"fixture": "ea-torus-4x4"},
                  "disorder": {"kind": "identity"}, "beta": 0.9,
                  "perturbation": "continuous"},
        "curve": {"t_grid": [0, 0.25, 0.5, 1, 2], "replicas": 8,
                  "bounds": ["general-ball", "lower-gaussian"]},
    }]


def _curve_diluted_ground(seed: int) -> list[dict]:
    return [{
        "experiment": "bound-check", "seed": seed,
        "model": {"graph": {"diluted": {"n": 16, "alphas": DILUTED_ALPHAS}},
                  "disorder": {"kind": "identity"}, "beta": "infinity",
                  "perturbation": "discrete"},
        "curve": {"t_grid": [0, 0.5, 1, 2], "replicas": 8,
                  "bounds": ["general-ball"]},
    }]


def _growth(seed: int) -> list[dict]:
    return [{
        "experiment": "growth-stats", "seed": seed,
        "growth": {"n": 10_000, "alphas": DILUTED_ALPHAS, "depth": 5,
                   "replicas": 50},
    }]


FIGURE1_EDGES = 5  # edges of the figure1-hypergraph fixture


def _quadrature(seed: int) -> list[dict]:
    return [
        {"experiment": "counterexamples", "seed": seed,
         "suite": {"draws": 20, "order": 16}},
        {"experiment": "coefficient-audit", "seed": seed,
         "model": {"graph": {"fixture": "figure1-hypergraph"},
                   "disorder": {"kind": "identity"}, "beta": 1.0},
         "audit": {"i": 1, "j": 4, "degree_cap": 10, "order": 16}},
    ]


def _replicas(configs: list[dict]) -> int:
    cfg = configs[0]
    return cfg["growth" if cfg["experiment"] == "growth-stats" else "curve"]["replicas"]


def counterexample_nodes(order: int) -> int:
    """Gauss-Hermite nodes the counterexample suite evaluates.

    One 3-edge grid for the remark graph; then, for each bridge length
    k = 0..3 and each of two betas, a grid over all edges of the two-lobe
    graph (5 edges for k = 0, 4 + k otherwise), or over the 4 lobe edges
    when the full grid exceeds the caps (chaos.bridged_coefficient).
    """
    # imported here: spinchaos is importable once the caller has put the
    # checkout's src/ on sys.path
    from spinchaos.hermite import MAX_AXES, MAX_GRID
    nodes = order ** 3
    for k in range(4):
        edges = 5 if k == 0 else 4 + k
        full = edges <= MAX_AXES and order ** edges <= MAX_GRID
        nodes += 2 * order ** (edges if full else 4)
    return nodes


def _quadrature_nodes(configs: list[dict]) -> int:
    suite, audit = configs
    return (counterexample_nodes(suite["suite"]["order"])
            + audit["audit"]["order"] ** FIGURE1_EDGES)


WORKLOADS = {w.name: w for w in (
    Workload("curve-torus", "replicas", _curve_torus, _replicas,
             ("gibbs.exact_correlations.s",)),
    # its cost follows the edge counts of the graphs it draws: six seeds
    # (48 graphs) per run rather than three
    Workload("curve-diluted-ground", "replicas", _curve_diluted_ground, _replicas,
             ("gibbs.ground_states.s",), cycle=6),
    Workload("growth-1e4", "replicas", _growth, _replicas,
             ("randgraph.sample_diluted.s", "randgraph.explore.s")),
    Workload("quadrature", "nodes", _quadrature, _quadrature_nodes,
             ("gibbs.batch_moments.s", "hermite.coeff_quadrature.self_s",
              "hermite.coefficient_sweep.self_s", "hermite.adaptive_gaussian_mean.s")),
)}

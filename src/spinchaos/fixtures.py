"""Built-in hypergraphs used by experiments and tests.

Every named graph of the package is built here: the remark's path graph,
the Figure 1 two-lobe hypergraph and its longer bridges, the complete
graph of the Levy model, and the EA ring and torus. FIXTURES names the
ones a config can pick, each with its builder and description, in one
table. Every fixture is deterministic (the diluted demo is a frozen draw
from a fixed stream) and can be written to the text format, so external
tools can reproduce runs without this package.
"""

from __future__ import annotations

from itertools import combinations

from .errors import ValidationError, _integer
from .hypergraph import Hypergraph, hypergraph
from .randgraph import diluted_spec, sample_diluted
from .rng import substream

_DEMO_SEED = 715


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


def complete_graph(n: int) -> Hypergraph:
    return hypergraph(n, list(combinations(range(n), 2)))


def ring(n: int) -> Hypergraph:
    return hypergraph(n, [tuple(sorted((v, (v + 1) % n))) for v in range(n)])


def torus_4x4() -> Hypergraph:
    def vid(r, c):
        return 4 * (r % 4) + (c % 4)
    edges = []
    for r in range(4):
        for c in range(4):
            edges.append(tuple(sorted((vid(r, c), vid(r, c + 1)))))
            edges.append(tuple(sorted((vid(r, c), vid(r + 1, c)))))
    return hypergraph(16, edges)


FIXTURES = {  # name: (builder, description)
    "remark-path-graph": (remark_graph, "4 vertices, edges {0,1},{0,2},{1,3}; the pair (0,1) "
                                        "has <s0 s1> = tanh(beta c_01) exactly"),
    "figure1-hypergraph": (lambda: two_lobe_graph(0)[0],
                           "7 vertices, 5 hyperedges; two 3-spin lobes joined by "
                           "a bridge through hub 0; <s1 s4> decouples"),
    "ea-ring": (lambda: ring(8), "8-vertex 2-spin ring, 8 edges"),
    "ea-torus-4x4": (torus_4x4, "4x4 periodic square lattice, 16 vertices, 32 2-spin edges"),
    "diluted-demo": (lambda: sample_diluted(diluted_spec(16, {2: 0.6, 3: 0.2}),
                                            substream(_DEMO_SEED, "fixture", "diluted-demo")),
                     "frozen diluted draw, N=16, alpha_2=0.6, alpha_3=0.2 (growth rate 2.4)"),
}


def get_fixture(name: str) -> Hypergraph:
    if not isinstance(name, str) or name not in FIXTURES:  # `in` raises TypeError on a list
        raise ValidationError(f"unknown fixture {name!r}; know {sorted(FIXTURES)}")
    return FIXTURES[name][0]()


def catalog() -> dict[str, tuple[Hypergraph, str]]:
    return {name: (build(), desc) for name, (build, desc) in sorted(FIXTURES.items())}

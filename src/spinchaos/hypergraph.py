"""Finite hypergraphs and Berge geometry.

Vertices are 0-based ints [0, N). Edges are sorted tuples of distinct
vertices with arity >= 2; edge ids are positions in the edge list.
Instances are immutable; all operations are pure.

Berge conventions: a path of length L alternates L+1 distinct vertices
and L distinct edges with consecutive vertex pairs contained in the
connecting edge; distance is the minimum path length (0 for a vertex to
itself, inf across components); a cycle is the closed variant with
length >= 2, so two edges sharing two vertices already form one.

One traversal serves all of Berge geometry: `_rounds` walks the CSR
incidence from a root in the rounds of the diluted model's exploration
(randgraph.explore), and round t reveals exactly the vertices at Berge
distance t. Balls, ball sizes, distances, components and connectivity
inside an edge subset all read its vertex layers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError(f"vertex count must be a positive int, got {self.n!r}")
        arity = np.fromiter(map(len, self.edges), np.intp, len(self.edges))
        try:  # operator.index: ints and numpy ints pass, floats are not truncated
            flat = np.fromiter(map(operator.index, chain.from_iterable(self.edges)), np.int64)
        except TypeError:
            eid = next(eid for eid, e in enumerate(self.edges)
                       if not all(hasattr(type(v), "__index__") for v in e))
            raise ValidationError(f"edge {eid} must have integer vertex ids, "
                                  f"got {self.edges[eid]}") from None
        except OverflowError:  # a vertex beyond int64 is out of range; Python ints name it
            self._raise_first_bad(arity, np.fromiter(chain.from_iterable(self.edges), object))
        ok = arity.min(initial=2) >= 2
        if ok:
            # every step inside an edge must rise; steps across edge ends are free
            rises = flat[1:] > flat[:-1]
            rises[arity.cumsum()[:-1] - 1] = True
            ok = (rises.all() and flat.min(initial=0) >= 0 and flat.max(initial=0) < self.n
                  and len(set(self.edges)) == len(self.edges))
        if not ok:
            self._raise_first_bad(arity, flat)
        object.__setattr__(self, "_flat", (arity, flat))  # reused by the incidence build

    def _raise_first_bad(self, arity: np.ndarray, flat: np.ndarray):
        """Name the lowest offending edge id and its first failed check,
        in the order arity, sorted distinct vertices, range, duplicate."""
        owner = np.repeat(np.arange(len(arity)), arity)
        unsorted = owner[1:][(owner[1:] == owner[:-1]) & (flat[1:] <= flat[:-1])]
        outside = owner[(flat < 0) | (flat >= self.n)]
        first_id: dict = {}
        duplicates = [eid for eid, e in enumerate(self.edges)
                      if first_id.setdefault(e, eid) != eid]
        eid = min(np.flatnonzero(arity < 2)[:1].tolist() + unsorted[:1].tolist()
                  + outside[:1].tolist() + duplicates[:1])
        e = self.edges[eid]
        if len(e) < 2:
            raise ValidationError(f"edge {eid} has arity {len(e)} < 2")
        if eid in unsorted:
            raise ValidationError(f"edge {eid} must be sorted distinct vertices, got {e}")
        if eid in outside:
            raise ValidationError(f"edge {eid} has vertex outside [0, {self.n})")
        raise ValidationError(f"duplicate edge {e}")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def max_arity(self) -> int:
        return max((len(e) for e in self.edges), default=0)

    @cached_property
    def _incident(self) -> tuple[list[int], tuple[int, ...]]:
        """CSR incidence: vertex v lies in edges ids[ptr[v]:ptr[v + 1]]."""
        arity, flat = self._flat
        ptr = np.zeros(self.n + 1, np.int64)
        np.cumsum(np.bincount(flat, minlength=self.n), out=ptr[1:])
        # stable, so each vertex lists its edges in ascending id; in the
        # narrowest unsigned type of the vertex ids numpy can radix-sort
        order = np.argsort(flat.astype(np.min_scalar_type(self.n - 1)), kind="stable")
        ids = np.repeat(np.arange(len(arity)), arity)[order]
        return ptr.tolist(), tuple(ids.tolist())

    def check_vertex(self, v) -> int:
        """v as an int in [0, N); numpy ints pass, floats and other non-integers are refused."""
        v = _integer(v, "vertex")
        if not 0 <= v < self.n:
            raise ValidationError(f"vertex {v} outside [0, {self.n})")
        return v


def _integer(x, what: str) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {x!r}") from None


def hypergraph(n: int, edges) -> Hypergraph:
    """Build a validated hypergraph; edges may be any iterables of ints.

    Vertex order within an edge is free, repeats are not: an edge is a
    set, and silently deduplicating would change the arity."""
    edges = [tuple(e) for e in edges]  # read once: edges may be a generator
    try:  # operator.index, as in Hypergraph: numpy ints pass, floats are not truncated
        canon = tuple(tuple(sorted(map(operator.index, e))) for e in edges)
    except TypeError:
        canon = tuple(edges)  # Hypergraph names the first bad edge
    # likewise for the vertex count; Hypergraph rejects what is not an int
    return Hypergraph(operator.index(n) if hasattr(type(n), "__index__") else n, canon)


@dataclass(frozen=True)
class MultiIndex:
    """Sparse multi-index over edge ids: degrees maps edge id -> n_e >= 1."""

    degrees: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = -1
        for eid, d in self.degrees:
            if eid <= prev:
                raise ValidationError("multi-index entries must be sorted by edge id")
            if d < 1:
                raise ValidationError(f"multi-index degree for edge {eid} must be >= 1, got {d}")
            prev = eid

    @property
    def total_degree(self) -> int:
        return sum(d for _, d in self.degrees)

    @property
    def support(self) -> tuple[int, ...]:
        """E(n): edge ids with n_e > 0."""
        return tuple(eid for eid, _ in self.degrees)

    @property
    def odd_support(self) -> tuple[int, ...]:
        return tuple(eid for eid, d in self.degrees if d % 2 == 1)

    def as_dict(self) -> dict[int, int]:
        return dict(self.degrees)

    def check_edges(self, n_edges: int):
        """Every edge id in [0, n_edges); the ids are sorted and >= 0."""
        if self.degrees and self.degrees[-1][0] >= n_edges:
            raise ValidationError(
                f"multi-index edge id {self.degrees[-1][0]} outside [0, {n_edges})")


def multi_index(degrees) -> MultiIndex:
    """Build from a mapping or iterable of (edge_id, degree); zeros dropped."""
    items = degrees.items() if hasattr(degrees, "items") else degrees
    kept = sorted((int(e), int(d)) for e, d in items if int(d) != 0)
    return MultiIndex(tuple(kept))


def _resolve_edges(g: Hypergraph, edge_ids) -> list[int]:
    if edge_ids is None:
        return list(range(g.n_edges))
    out = []
    for eid in edge_ids:
        eid = int(eid)
        if not (0 <= eid < g.n_edges):
            raise ValidationError(f"edge id {eid} outside [0, {g.n_edges})")
        out.append(eid)
    if len(set(out)) != len(out):
        raise ValidationError("edge id subset contains duplicates")
    return out


def _rounds(g: Hypergraph, root: int, max_depth: int | None = None, allowed=None):
    """The exploration from root through the edge ids in `allowed` (all
    edges if None), one round at a time, until extinction or max_depth.

    Round t yields (I_t, E_t, A_t, D_t): the fresh vertices, sorted; the
    edge ids revealed entering round t, in discovery order; the A events,
    revealed edges that meet the previous frontier twice; and the D
    events, pairs of revealed edges that claim one fresh vertex. Round 0
    is ([root], [], 0, 0). An edge is revealed in the round after its
    first vertex enters the frontier, so I_t is exactly the set of
    vertices at Berge distance t: a shortest walk through edges already
    has distinct vertices and edges. The last round may have no fresh
    vertex, only edges that close cycles. Callers read the yielded lists
    and never change them.
    """
    root = g.check_vertex(root)
    depth = math.inf if max_depth is None else _integer(max_depth, "max_depth")
    if depth < 0:
        raise ValidationError(f"max_depth must be >= 0, got {depth}")
    ptr, ids = g._incident
    edges = g.edges
    # an edge first met in round t holds no vertex of an earlier frontier,
    # whose edges were all met before: each of its vertices is either in
    # the last frontier or fresh
    found = {root}
    seen_edges: set[int] = set()
    frontier = [root]
    yield frontier, [], 0, 0
    t = 0
    while frontier and t < depth:
        t += 1
        revealed: list[int] = []
        claims: dict[int, int] = {}  # fresh vertex -> revealed edges holding it
        a_cnt = d_cnt = 0
        for v in frontier:
            for eid in ids[ptr[v]:ptr[v + 1]]:
                if eid in seen_edges or (allowed is not None and eid not in allowed):
                    continue
                seen_edges.add(eid)
                revealed.append(eid)
                hits_i = 0
                for u in edges[eid]:
                    if u in found:
                        hits_i += 1
                    else:
                        c = claims.get(u, 0)
                        d_cnt += c  # a pair with each earlier claim
                        claims[u] = c + 1
                if hits_i >= 2:
                    a_cnt += 1
        frontier = sorted(claims)
        found.update(frontier)
        yield frontier, revealed, a_cnt, d_cnt


def berge_distance(g: Hypergraph, u: int, v: int) -> float:
    """Minimum Berge path length; 0 if u == v, inf if disconnected."""
    v = g.check_vertex(v)
    return next((t for t, (fresh, _, _, _) in enumerate(_rounds(g, u)) if v in fresh), math.inf)


def ball(g: Hypergraph, v: int, r: int) -> frozenset[int]:
    """B_r(v): vertices within Berge distance r."""
    return frozenset(chain.from_iterable(fresh for fresh, _, _, _ in _rounds(g, v, r)))


def ball_sizes(g: Hypergraph, v: int) -> list[int]:
    """|B_r(v)| for r = 0, 1, ... up to the eccentricity of v."""
    return list(accumulate(len(fresh) for fresh, _, _, _ in _rounds(g, v) if fresh))


def has_berge_cycle(g: Hypergraph, edge_ids=None) -> bool:
    """Union-find on the vertex-edge incidence graph; cycle iff a union
    joins two already-connected nodes."""
    ids = _resolve_edges(g, edge_ids)
    parent = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for eid in ids:
        enode = ("e", eid)
        for v in g.edges[eid]:
            rv, re = find(("v", v)), find(enode)
            if rv == re:
                return True
            parent[rv] = re
    return False


def interior_edges(g: Hypergraph, vertices) -> tuple[int, ...]:
    """Edges with all vertices inside the given set."""
    vs = set(vertices)
    return tuple(eid for eid, e in enumerate(g.edges) if vs.issuperset(e))


def ball_is_hypertree(g: Hypergraph, v: int, r: int) -> bool:
    """Whether the depth-r ball around v, with its interior edges, is a
    hypertree. Connectivity holds by construction, so this reduces to
    the absence of a Berge cycle among interior edges."""
    b = ball(g, v, r)
    return not has_berge_cycle(g, interior_edges(g, b))


def vertex_support(g: Hypergraph, n: MultiIndex) -> frozenset[int]:
    """V(n): vertices covered by edges in the support of n."""
    n.check_edges(g.n_edges)
    return frozenset(chain.from_iterable(g.edges[eid] for eid in n.support))


def component(g: Hypergraph, v: int) -> frozenset[int]:
    """C(v): vertex set of the connected component of v; {v} if v is in
    no edge."""
    return frozenset(chain.from_iterable(fresh for fresh, _, _, _ in _rounds(g, v)))


def connected_in(g: Hypergraph, u: int, v: int, edge_ids) -> bool:
    """Whether a Berge path inside the given edge ids joins u and v."""
    v = g.check_vertex(v)
    allowed = set(_resolve_edges(g, edge_ids))
    return any(v in fresh for fresh, _, _, _ in _rounds(g, u, allowed=allowed))


def to_text(g: Hypergraph) -> str:
    """Text format: first line 'N max_arity', one line of sorted vertex
    ids per edge. Round-trips exactly."""
    lines = [f"{g.n} {g.max_arity}"]
    for e in g.edges:
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Hypergraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty hypergraph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValidationError(f"header must be 'N max_arity', got {lines[0]!r}")
    try:
        n, delta = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValidationError(f"non-integer header {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        try:
            e = tuple(int(tok) for tok in ln.split())
        except ValueError as exc:
            raise ValidationError(f"non-integer vertex id in line {ln!r}") from exc
        edges.append(e)
    g = Hypergraph(n, tuple(edges))
    if g.max_arity != delta:
        raise ValidationError(f"header arity {delta} but edges have max arity {g.max_arity}")
    return g


def save(g: Hypergraph, path) -> None:
    Path(path).write_text(to_text(g))


def load(path) -> Hypergraph:
    return from_text(Path(path).read_text())

"""Finite hypergraphs and Berge geometry.

Vertices are 0-based ints [0, N). Edges are sets of at least two
distinct vertices, stored as rising ids; edge ids are positions in the
edge list. A graph is held as int64 arrays, the arity of each edge and
all edges' vertex ids end to end, from the diluted sampler through to
the traversal. Instances are immutable; all operations are pure.

Berge conventions: a path of length L alternates L+1 distinct vertices
and L distinct edges with consecutive vertex pairs contained in the
connecting edge; distance is the minimum path length (0 for a vertex to
itself, inf across components); a cycle is the closed variant with
length >= 2, so two edges sharing two vertices already form one.

One traversal serves all of Berge geometry: `_rounds` walks the CSR
incidence from a root in the rounds of the diluted model's exploration
(randgraph.explore), and round t reveals exactly the vertices at Berge
distance t. Ball sizes, distances, components and connectivity inside
an edge subset read its vertex layers; the hypertree radius of a ball
reads its A and D events.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .errors import ValidationError, _integer


# offset and multiplier of the edge mix, from splitmix64
_MIX = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9))


class Hypergraph:
    """A validated hypergraph on the vertices [0, n).

    The primary form is two read-only int64 arrays: arity[k] is the size
    of edge k, and flat lists the vertex ids of edges 0, 1, ... end to
    end, so edge k is flat[offsets[k]:offsets[k + 1]] (offsets is the
    read-only running sum of arity, from 0). `edges`, the same edges as
    tuples of ints, is built on first use for the callers that iterate
    edges: the Glauber sampler, the audit's geometry and to_text.

    The constructor takes edges either as sequences of integer vertex ids,
    one per edge, or as a list of 2-D integer arrays whose rows are edges,
    one array per block of equal arity (the diluted sampler's form). Both
    are flattened, then validated in one array pass. Graphs are equal, and
    hash equal, when they have the same n and the same edges in the same
    order, whichever form built them. Instances are immutable.
    """

    def __init__(self, n: int, edges):
        if not hasattr(type(n), "__index__") or n < 1:  # numpy ints pass, floats do not
            raise ValidationError(f"vertex count must be a positive int, got {n!r}")
        n = operator.index(n)
        arity, flat = _flatten(edges)
        offsets = np.zeros(len(arity) + 1, np.int64)
        np.cumsum(arity, out=offsets[1:])
        if bad := _first_bad(n, arity, flat, offsets):
            raise ValidationError(bad)
        for a in (arity, flat, offsets):
            a.setflags(write=False)
        vars(self).update(n=n, arity=arity, flat=flat, offsets=offsets)

    def __setattr__(self, name, value):
        raise AttributeError(f"Hypergraph is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Hypergraph is immutable: cannot delete {name!r}")

    @cached_property
    def _key(self) -> tuple[int, bytes, bytes]:
        return self.n, self.arity.tobytes(), self.flat.tobytes()

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Hypergraph(n={self.n!r}, edges={self.edges!r})"

    @property
    def n_edges(self) -> int:
        return len(self.arity)

    @property
    def max_arity(self) -> int:
        return int(self.arity.max(initial=0))

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edges as sorted tuples of ints, in id order."""
        offsets, flat = self.offsets.tolist(), self.flat.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(offsets, offsets[1:]))

    @cached_property
    def _incident(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR incidence: vertex v lies in edges ids[ptr[v]:ptr[v + 1]]."""
        ptr = np.zeros(self.n + 1, np.int64)
        np.cumsum(np.bincount(self.flat, minlength=self.n), out=ptr[1:])
        # stable, so each vertex lists its edges in ascending id; in the
        # narrowest unsigned type of the vertex ids numpy can radix-sort
        order = np.argsort(self.flat.astype(np.min_scalar_type(self.n - 1)), kind="stable")
        ids = np.repeat(np.arange(self.n_edges), self.arity)[order]
        return ptr, ids

    def check_vertex(self, v) -> int:
        """v as an int in [0, N); numpy ints pass, floats and other non-integers are refused."""
        v = _integer(v, "vertex")
        if not 0 <= v < self.n:
            raise ValidationError(f"vertex {v} outside [0, {self.n})")
        return v


def _flatten(edges) -> tuple[np.ndarray, np.ndarray]:
    """(arity, flat) of the constructor's edges, both int64; flat holds
    Python ints instead when an id lies beyond int64, and so out of range."""
    if len(edges) and all(isinstance(b, np.ndarray) and b.ndim == 2 for b in edges):
        first = 0
        for b in edges:
            if b.dtype.kind not in "iu" and len(b):
                raise ValidationError(f"edge {first} must have integer vertex ids, "
                                      f"got {tuple(b[0].tolist())}")
            first += len(b)
        arity = np.array([b.shape[1] for b in edges], np.int64).repeat([len(b) for b in edges])
        return arity, np.concatenate([b.reshape(-1) for b in edges]).astype(np.int64, copy=False)
    arity = np.fromiter(map(len, edges), np.int64, len(edges))
    try:  # operator.index: ints and numpy ints pass, floats are not truncated
        flat = np.fromiter(map(operator.index, chain.from_iterable(edges)), np.int64)
    except TypeError:
        eid = next(eid for eid, e in enumerate(edges)
                   if not all(hasattr(type(v), "__index__") for v in e))
        raise ValidationError(f"edge {eid} must have integer vertex ids, "
                              f"got {edges[eid]}") from None
    except OverflowError:
        flat = np.fromiter(chain.from_iterable(edges), object)
    return arity, flat


def _edge_mix(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """uint64 hash of each edge of arity >= 1: the wrapped sum of its mixed ids."""
    x = flat.astype(np.uint64)
    x += _MIX[0]
    x *= _MIX[1]
    x ^= x >> np.uint64(29)
    return np.add.reduceat(x, offsets[:-1])


def _duplicates(flat: np.ndarray, offsets: np.ndarray) -> list[int]:
    """Ids of the edges equal to an earlier edge, ascending. Edges of equal
    mix are compared row by row, every pair of them, so a collision of the
    mix costs time, never a wrong answer."""
    mix = _edge_mix(flat, offsets)
    ordered = mix.copy()
    ordered.sort()
    if not (ordered[1:] == ordered[:-1]).any():
        return []
    order = np.argsort(mix, kind="stable")  # runs of equal mix in ascending id
    cuts = np.flatnonzero(mix[order[1:]] != mix[order[:-1]]) + 1
    off, ids = offsets.tolist(), flat.tolist()
    out = []
    for run in np.split(order, cuts):
        run = run.tolist()
        rows = [ids[off[k]:off[k + 1]] for k in run]
        out += [k for j, k in enumerate(run) if rows[j] in rows[:j]]
    return sorted(out)


def _first_bad(n: int, arity: np.ndarray, flat: np.ndarray, offsets: np.ndarray) -> str | None:
    """The message naming the lowest bad edge and its first failed check,
    in the order arity, sorted distinct vertices, range, duplicate; None
    if every edge passes. flat may hold Python ints beyond int64."""
    bound = len(arity)  # every edge before it has arity >= 2, rising ids in range
    if np.minimum.reduce(arity, initial=2) < 2:
        bound = int(np.argmax(arity < 2))
    ids = flat[:offsets[bound]]
    # every step inside an edge must rise; steps across edge ends are free
    rises = ids[1:] > ids[:-1]
    rises[offsets[1:bound] - 1] = True
    if not rises.all():
        bound = int(np.searchsorted(offsets, np.argmin(rises), "right")) - 1
    if np.minimum.reduce(ids, initial=0) < 0 or np.maximum.reduce(ids, initial=0) >= n:
        outside = int(np.argmax((ids < 0) | (ids >= n)))
        bound = min(bound, int(np.searchsorted(offsets, outside, "right")) - 1)
    # a repeat of a bad edge comes after it: only repeats before the bound count
    repeats = _duplicates(flat[:offsets[bound]].astype(np.int64, copy=False), offsets[:bound + 1])
    eid = repeats[0] if repeats else bound
    if eid == len(arity):
        return None
    e = tuple(flat[offsets[eid]:offsets[eid + 1]].tolist())
    if repeats:
        return f"duplicate edge {e}"
    if len(e) < 2:
        return f"edge {eid} has arity {len(e)} < 2"
    if any(a >= b for a, b in zip(e, e[1:])):
        return f"edge {eid} must be sorted distinct vertices, got {e}"
    return f"edge {eid} has vertex outside [0, {n})"


def hypergraph(n: int, edges) -> Hypergraph:
    """Build a validated hypergraph; edges may be any iterables of ints.

    Vertex order within an edge is free, repeats are not: an edge is a
    set, and silently deduplicating would change the arity."""
    edges = [tuple(e) for e in edges]  # read once: edges may be a generator
    try:  # operator.index, as in Hypergraph: numpy ints pass, floats are not truncated
        canon = tuple(tuple(sorted(map(operator.index, e))) for e in edges)
    except TypeError:
        canon = tuple(edges)  # Hypergraph names the first bad edge
    return Hypergraph(n, canon)


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
    pairs = ((_integer(e, "edge id"), _integer(d, "degree")) for e, d in items)
    return MultiIndex(tuple(sorted((e, d) for e, d in pairs if d != 0)))


def _resolve_edges(g: Hypergraph, edge_ids) -> list[int]:
    out = []
    for eid in edge_ids:
        eid = _integer(eid, "edge id")
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
    offsets, flat = g.offsets, g.flat
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
            for eid in ids[ptr[v]:ptr[v + 1]].tolist():
                if eid in seen_edges or (allowed is not None and eid not in allowed):
                    continue
                seen_edges.add(eid)
                revealed.append(eid)
                hits_i = 0
                for u in flat[offsets[eid]:offsets[eid + 1]].tolist():
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


def ball_sizes(g: Hypergraph, v: int) -> list[int]:
    """|B_r(v)| for r = 0, 1, ... up to the eccentricity of v."""
    return list(accumulate(len(fresh) for fresh, _, _, _ in _rounds(g, v) if fresh))


def hypertree_radius(g: Hypergraph, v: int) -> int:
    """The largest r <= N for which the ball B_r(v), with its interior
    edges, is a hypertree. Those edges are the ones revealed in rounds
    1..r of the exploration from v plus the round-(r + 1) edges that lie
    inside I_r, each an A event; the rounds before the first A or D event
    reveal a hypertree, and an interior edge closes a cycle with it."""
    last = []
    for t, (fresh, revealed, a_cnt, d_cnt) in enumerate(_rounds(g, v)):
        if a_cnt or d_cnt:
            inside = set(last).issuperset
            return t - 1 - any(inside(g.flat[g.offsets[eid]:g.offsets[eid + 1]].tolist())
                               for eid in revealed)
        last = fresh
    return g.n


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

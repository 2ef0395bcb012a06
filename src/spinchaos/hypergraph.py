"""Finite hypergraphs and Berge geometry.

Vertices are 0-based ints [0, N). Edges are sets of at least two
distinct vertices, stored as rising ids; edge ids are positions in the
edge list. A graph is held as int64 arrays, the arity of each edge and
all edges' vertex ids end to end, from the diluted sampler through to
the traversal. Instances are immutable; all operations are pure.

Validation has two parts. A whole-array test of the flattened edges
only accepts. Every rejection is named by one loop over the edges as
given, in id order: the lowest bad edge and its first failed rule.

Berge conventions: a path of length L alternates L+1 distinct vertices
and L distinct edges with consecutive vertex pairs contained in the
connecting edge; distance is the minimum path length (0 for a vertex to
itself, inf across components); a cycle is the closed variant with
length >= 2, so two edges sharing two vertices already form one.

One traversal serves all of Berge geometry: `_rounds` walks the CSR
incidence from a root in the rounds of the diluted model's exploration
(randgraph.explore), and round t reveals exactly the vertices at Berge
distance t. Distances, components and connectivity inside the support
of a multi-index read its vertex layers; the hypertree radius of a ball
reads its A and D events. The bound checks' ball profile
(chaos._max_ball_profile) grows every vertex's ball at once over
bitmasks instead of running one traversal per vertex.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import CapacityError, ValidationError, _integer


# the incidence's pointer and vertex counts (16 bytes a vertex), and the
# diluted sampler's expected integer blocks (randgraph.DilutedSpec)
INCIDENCE_BYTES = 1 << 28
# offset and multiplier of the edge mix, from splitmix64
_MIX = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9))
_INT = re.compile(r"-?[0-9]+")  # a vertex id or count in the text format
_INT64_MAX = int(np.iinfo(np.int64).max)
_BOOLS = frozenset((bool, np.bool_))  # ints to operator.index, not vertex ids


class Hypergraph:
    """A validated hypergraph on the vertices [0, n).

    The primary form is two read-only int64 arrays: arity[k] is the size
    of edge k, and flat lists the vertex ids of edges 0, 1, ... end to
    end, so edge k is flat[offsets[k]:offsets[k + 1]] (offsets is the
    read-only running sum of arity, from 0). `edges`, the same edges as
    tuples of ints, is built on first use for the callers that iterate
    edges: the audit's geometry and to_text (the sampler reads _incident).

    The constructor takes edges either as sequences of integer vertex ids,
    one per edge, or as a list of 2-D integer arrays whose rows are edges,
    one array per block of equal arity (the diluted sampler's form). Both
    are flattened and tested whole (_accepts); any failure, or two equal
    edge mixes, sends the edges to one loop that names the lowest bad edge
    (_first_bad). Graphs are equal, and hash equal, when they have the same
    n and the same edges in the same order, whichever form built them.
    Instances are immutable.
    """

    def __init__(self, n: int, edges):
        n = _integer(n, "vertex count")
        if not 1 <= n <= _INT64_MAX:  # so every id in [0, n) fits the int64 arrays
            raise ValidationError(f"vertex count must be in [1, 2**63 - 1], got {n}")
        arrays = _flatten(edges)
        if (arrays is None or not _accepts(n, *arrays)) and (bad := _first_bad(n, edges)):
            raise ValidationError(bad)
        arity, flat, offsets = arrays
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
        if 16 * self.n > INCIDENCE_BYTES:
            raise CapacityError(f"the incidence of {self.n} vertices exceeds the "
                                f"{INCIDENCE_BYTES >> 20} MiB budget")
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


def _blocks(edges) -> bool:
    """Whether edges come in the row-block form: 2-D arrays, at least one."""
    return bool(len(edges)) and all(isinstance(b, np.ndarray) and b.ndim == 2 for b in edges)


def _flatten(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(arity, flat, offsets) of the constructor's edges, all int64; None
    when an id is not an integer (a bool is none) or lies beyond int64."""
    if _blocks(edges):
        # block by block: concatenating bool and int blocks gives int64
        if any(b.dtype.kind not in "iu" and len(b) for b in edges):
            return None
        arity = np.array([b.shape[1] for b in edges], np.int64).repeat([len(b) for b in edges])
        # uint64 ids past int64 wrap to negative ids, which the range test refuses
        flat = np.concatenate([b.reshape(-1) for b in edges], dtype=np.int64, casting="unsafe")
    else:
        arity = np.fromiter(map(len, edges), np.int64, len(edges))
        if not _BOOLS.isdisjoint(map(type, chain.from_iterable(edges))):
            return None
        try:  # operator.index: ints and numpy ints pass, floats are not truncated
            flat = np.fromiter(map(operator.index, chain.from_iterable(edges)), np.int64)
        except (TypeError, OverflowError):
            return None
    offsets = np.zeros(len(arity) + 1, np.int64)
    np.cumsum(arity, out=offsets[1:])
    return arity, flat, offsets


def _edge_mix(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """uint64 hash of each edge of arity >= 1: the wrapped sum of its mixed ids."""
    x = flat.astype(np.uint64)
    x += _MIX[0]
    x *= _MIX[1]
    x ^= x >> np.uint64(29)
    return np.add.reduceat(x, offsets[:-1])


def _accepts(n: int, arity: np.ndarray, flat: np.ndarray, offsets: np.ndarray) -> bool:
    """True when every edge has arity >= 2 and rising ids in [0, n), and
    no two edges share a mix; False only sends the edges to _first_bad."""
    if arity.min(initial=2) < 2 or flat.min(initial=0) < 0 or flat.max(initial=0) >= n:
        return False
    # every step inside an edge must rise; steps across edge ends are free
    rises = flat[1:] > flat[:-1]
    rises[offsets[1:-1] - 1] = True
    if not rises.all():
        return False
    mix = _edge_mix(flat, offsets)
    mix.sort()
    return not (mix[1:] == mix[:-1]).any()


def _first_bad(n: int, edges) -> str | None:
    """The message naming the lowest bad edge and its first failed check,
    in the order integer ids, arity, sorted distinct vertices, range,
    duplicate; None if every edge passes, when equal mixes came from
    distinct edges. A block's rows are read as Python ints, so uint64 ids
    are named unwrapped; a block of another dtype fails at its first row."""
    rows = (((tuple(row), b.dtype.kind in "iu") for b in edges for row in b.tolist())
            if _blocks(edges) else ((e, True) for e in edges))
    seen = set()
    for eid, (e, integer) in enumerate(rows):
        ids = _ids(e) if integer else None
        if ids is None:
            return f"edge {eid} must have integer vertex ids, got {e}"
        if len(ids) < 2:
            return f"edge {eid} has arity {len(ids)} < 2"
        if any(a >= b for a, b in zip(ids, ids[1:])):
            return f"edge {eid} must be sorted distinct vertices, got {ids}"
        if ids[0] < 0 or ids[-1] >= n:
            return f"edge {eid} has vertex outside [0, {n})"
        if ids in seen:
            return f"duplicate edge {ids}"
        seen.add(ids)
    return None


def _ids(e) -> tuple[int, ...] | None:
    """e's ids as ints, or None: as in _flatten, numpy ints pass, and
    floats and bools are refused rather than truncated or read as 0, 1."""
    if not _BOOLS.isdisjoint(map(type, e)):
        return None
    try:
        return tuple(map(operator.index, e))
    except TypeError:
        return None


def hypergraph(n: int, edges) -> Hypergraph:
    """Build a validated hypergraph; edges may be any iterables of ints.

    Vertex order within an edge is free, repeats are not: an edge is a
    set, and silently deduplicating would change the arity. An edge with
    a non-integer id is passed on as it is, for Hypergraph to name."""
    edges = [tuple(e) for e in edges]  # read once: edges may be a generator
    return Hypergraph(n, tuple(e if ids is None else tuple(sorted(ids))
                               for e, ids in zip(edges, map(_ids, edges))))


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


def connected_in(g: Hypergraph, u: int, v: int, n: MultiIndex) -> bool:
    """Whether a Berge path inside E(n), the support of n, joins u and v."""
    v = g.check_vertex(v)
    n.check_edges(g.n_edges)
    return any(v in fresh for fresh, _, _, _ in _rounds(g, u, allowed=set(n.support)))


def to_text(g: Hypergraph) -> str:
    """Text format: first line 'N max_arity', one line of sorted vertex
    ids per edge. Round-trips exactly."""
    lines = [f"{g.n} {g.max_arity}"]
    for e in g.edges:
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def _ints(line: str, what: str) -> list[int]:
    """A text-format line as ints, each token an optional '-' and ASCII
    digits: int() alone also reads "1_0" as 10, "+1" and non-ASCII digits."""
    tokens = line.split()
    if all(map(_INT.fullmatch, tokens)):
        with suppress(ValueError):  # past int()'s digit limit
            return [int(tok) for tok in tokens]
    raise ValidationError(f"non-integer {what} {line!r}")


def from_text(text: str) -> Hypergraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty hypergraph text")
    if len(lines[0].split()) != 2:
        raise ValidationError(f"header must be 'N max_arity', got {lines[0]!r}")
    n, delta = _ints(lines[0], "header")
    g = Hypergraph(n, tuple(tuple(_ints(ln, "vertex id in line")) for ln in lines[1:]))
    if g.max_arity != delta:
        raise ValidationError(f"header arity {delta} but edges have max arity {g.max_arity}")
    return g


def save(g: Hypergraph, path) -> None:
    Path(path).write_text(to_text(g))


def load(path) -> Hypergraph:
    return from_text(Path(path).read_text())

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinchaos.hypergraph as hypergraph_module
from spinchaos import gibbs
from spinchaos.chaos import _max_ball_profile
from spinchaos.errors import CapacityError, ValidationError
from spinchaos.fixtures import catalog, two_lobe_graph
from spinchaos.hypergraph import (INCIDENCE_BYTES, Hypergraph, berge_distance,
                                  component, connected_in, from_text,
                                  hypergraph, hypertree_radius, multi_index,
                                  to_text, vertex_support)
from spinchaos.randgraph import MAX_N_LOW_ARITY, diluted_spec, explore, sample_diluted

from conftest import (berge_paths_exist, bfs_distances, brute_has_berge_cycle,
                      random_hypergraph, reference_validation_error)


def incident(g, v):
    """Edge ids containing v, read off the CSR incidence."""
    ptr, ids = g._incident
    return tuple(ids[ptr[v]:ptr[v + 1]].tolist())


def figure1():
    # two 3-vertex lobes joined by a hub triple
    return hypergraph(7, [(1, 2, 3), (2, 3), (4, 5, 6), (5, 6), (0, 3, 6)])


def explore_finds_cycle(g) -> bool:
    """Whether the exploration from some root flags an A or D event: the
    rounds of each component reveal all of its edges."""
    return any(explore(g, v).first_cycle_round is not None for v in range(g.n))


# ---------------------------------------------------------------------------
# construction


def test_constructor_canonicalizes_and_validates():
    g = hypergraph(4, [(2, 0), (3, 1)])
    assert g.edges == ((0, 2), (1, 3))
    with pytest.raises(ValidationError, match=r"edge 0 has arity 1 < 2"):
        hypergraph(3, [(0,)])
    with pytest.raises(ValidationError, match=r"edge 0 has vertex outside \[0, 3\)"):
        hypergraph(3, [(0, 3)])
    with pytest.raises(ValidationError, match=r"edge 0 must be sorted distinct vertices, got \(0, 0, 1\)"):
        hypergraph(3, [(0, 0, 1)])
    with pytest.raises(ValidationError, match=r"duplicate edge \(0, 1\)"):
        hypergraph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError, match="vertex count"):
        hypergraph(0, [])
    # the vertex count is not truncated either, nor a bool read as 1; numpy
    # ints pass as ints
    for n in (3.7, np.float64(4.2), 3.0, "3", True, np.True_):
        with pytest.raises(ValidationError, match="vertex count must be an integer"):
            hypergraph(n, [(0, 1), (1, 2)])
    # ids in [0, n) must fit int64: 2**63 ended in a raw TypeError
    with pytest.raises(ValidationError, match=r"vertex count must be in \[1, 2\*\*63 - 1\]"):
        Hypergraph(2 ** 64, [(0, 2 ** 63)])
    assert Hypergraph(2 ** 63 - 1, [(0, 2 ** 63 - 2)]).edges == ((0, 2 ** 63 - 2),)
    assert type(hypergraph(np.int64(4), [(0, 3)]).n) is int
    assert type(Hypergraph(np.int64(4), [(0, 3)]).n) is int
    with pytest.raises(ValidationError, match=r"edge 1 must have integer vertex ids, got \(0, 1.5\)"):
        hypergraph(3, [(1, 2), (0, 1.5)])  # not truncated to (0, 1)
    with pytest.raises(ValidationError, match=r"edge 1 must have integer vertex ids"):
        hypergraph(3, (e for e in [(1, 2), (0, 1.5), (0, 2)]))
    # hypergraph() sorts every edge it can: an unsorted edge before a
    # non-integer one is not named
    with pytest.raises(ValidationError, match=r"edge 1 must have integer vertex ids, got \(0, 1.5\)"):
        hypergraph(3, [(1, 0), (0, 1.5)])
    with pytest.raises(ValidationError, match=r"edge 2 must have integer vertex ids, got \(2, None\)"):
        hypergraph(3, [(2, 0), (2, 1), (2, None), (0, 1, 2)])
    assert hypergraph(3, [np.array([2, 0])]).edges == ((0, 2),)
    assert type(hypergraph(3, [np.array([2, 0])]).edges[0][0]) is int
    # several bad edges: the lowest edge id is named, with its first failed check
    with pytest.raises(ValidationError, match=r"edge 1 must be sorted distinct vertices, got \(2, 1\)"):
        Hypergraph(5, ((0, 1), (2, 1), (0,), (0, 9)))
    with pytest.raises(ValidationError, match=r"edge 1 has arity 1 < 2"):
        Hypergraph(5, ((0, 1), (3,), (2, 1), (0, 1)))
    with pytest.raises(ValidationError, match=r"edge 2 has vertex outside \[0, 5\)"):
        Hypergraph(5, ((0, 1), (1, 2), (-1, 4), (1, 2), (3,)))
    with pytest.raises(ValidationError, match=r"duplicate edge \(1, 2\)"):
        Hypergraph(5, ((0, 1), (1, 2), (1, 2), (3, 9), (4,)))
    with pytest.raises(ValidationError, match=r"edge 0 must be sorted distinct vertices, got \(9, 1\)"):
        Hypergraph(5, ((9, 1),))  # unsorted is checked before range
    with pytest.raises(ValidationError, match=r"edge 0 has arity 0 < 2"):
        Hypergraph(5, ((), (0,)))
    with pytest.raises(ValidationError, match=r"edge 1 has vertex outside \[0, 3\)"):
        hypergraph(3, [(0, 1), (0, 2**70)])  # beyond int64
    with pytest.raises(ValidationError, match=r"edge 0 must be sorted distinct vertices"):
        Hypergraph(3, ((1, 0), (0, -2**70)))
    # the empty edge set, and numpy ints that come in through hypergraph()
    assert hypergraph(3, []).edges == () and incident(hypergraph(3, []), 2) == ()
    g = hypergraph(4, [np.array([2, 0]), (np.int64(3), np.int32(1))])
    assert g.edges == ((0, 2), (1, 3))
    assert all(type(v) is int for e in g.edges for v in e)
    with pytest.raises(ValidationError, match=r"edge 1 has vertex outside \[0, 4\)"):
        hypergraph(4, [np.array([2, 0]), np.array([1, 4])])
    with pytest.raises(ValidationError, match=r"duplicate edge \(0, 2\)"):
        hypergraph(4, [np.array([2, 0]), (np.int64(0), 2)])
    # non-integer ids are named, not truncated (1.5 -> 1) or misread as unsorted;
    # like every other rule they name the lowest bad edge, not an earlier one
    with pytest.raises(ValidationError, match=r"edge 0 must be sorted distinct vertices, got \(1, 0\)"):
        Hypergraph(3, ((1, 0), (0, 1.5)))
    with pytest.raises(ValidationError, match=r"edge 0 must have integer vertex ids, got \(0, 1.5\)"):
        Hypergraph(3, ((0, 1.5),))
    with pytest.raises(ValidationError, match=r"edge 0 must have integer vertex ids, got \(0, 0.5\)"):
        Hypergraph(3, ((0, 0.5),))
    with pytest.raises(ValidationError, match=r"edge 1 must have integer vertex ids"):
        Hypergraph(3, ((0, 1), (1, np.float64(2.0))))
    g = Hypergraph(3, ((np.int64(0), np.int32(2)), (1, np.uint8(2))))
    assert incident(g, 2) == (0, 1) and incident(g, 1) == (1,)
    # bools are not read as vertices 1 and 0, as in the block form
    with pytest.raises(ValidationError, match=r"edge 0 must have integer vertex ids, got \(True, 2\)"):
        hypergraph(3, [(True, 2)])  # was the edge (1, 2)
    with pytest.raises(ValidationError, match=r"edge 1 must have integer vertex ids"):
        Hypergraph(3, ((0, 1), (0, np.True_)))


def test_validation_matches_edge_by_edge_loop():
    """Random edge lists, many of them invalid, raise the message of the
    edge-by-edge reference (or nothing when it finds nothing)."""
    rng = np.random.default_rng(11)
    for _ in range(400):
        n = int(rng.integers(1, 6))
        # ids outside [0, N), beyond int64, and not integers
        pool = [-1, *range(n + 1), 2**70, 2.5, None, True]
        edges = tuple(tuple(pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, 4)))
                      for _ in range(rng.integers(0, 6)))
        want = reference_validation_error(n, edges)
        forms = [edges]
        if all(type(v) is int and abs(v) < 2**63 for e in edges for v in e):
            forms.append(as_blocks(edges))
        for form in forms:
            if want is None:
                assert Hypergraph(n, form).edges == edges
            else:
                with pytest.raises(ValidationError) as exc:
                    Hypergraph(n, form)
                assert str(exc.value) == want


def as_blocks(edges):
    """The sampler's input form: one 2-D array per run of equal arity."""
    runs = [(p, list(run)) for p, run in itertools.groupby(edges, len)]
    return [np.array(run, np.int64).reshape(len(run), p) for p, run in runs]


def test_validation_at_scale_names_a_late_bad_edge():
    """An N = 1e4 draw with one bad edge inserted late, in both input
    forms, raises the message of the edge-by-edge reference."""
    n = 10_000
    g = sample_diluted(diluted_spec(n, {2: 0.9, 3: 0.2}), np.random.default_rng(5))
    edges = g.edges
    assert Hypergraph(n, as_blocks(edges)) == g and reference_validation_error(n, edges) is None
    late = len(edges) - 3
    for bad in (edges[0], (7, 3), (0, n), (5,)):
        broken = edges[:late] + (bad,) + edges[late:]
        want = reference_validation_error(n, broken)
        assert want is not None
        for form in (broken, as_blocks(broken)):
            with pytest.raises(ValidationError) as exc:
                Hypergraph(n, form)
            assert str(exc.value) == want


def test_duplicate_check_compares_every_colliding_pair(monkeypatch):
    """With an edge mix that sends every edge to one value, every pair of
    edges is compared exactly: distinct edges pass, repeats are named."""
    monkeypatch.setattr(hypergraph_module, "_edge_mix",
                        lambda flat, offsets: np.zeros(len(offsets) - 1, np.uint64))
    edges = tuple((i, j) for i in range(6) for j in range(i + 1, 6)) + ((0, 1, 2), (1, 2, 5))
    assert Hypergraph(6, edges).edges == edges
    assert Hypergraph(6, [np.array(edges[:15]), np.array(edges[15:])]).edges == edges
    with pytest.raises(ValidationError, match=r"duplicate edge \(1, 2, 5\)"):
        Hypergraph(6, edges + ((3, 4, 5), (1, 2, 5)))
    with pytest.raises(ValidationError, match=r"duplicate edge \(0, 3\)"):
        Hypergraph(6, [np.array(edges[:15]), np.array([[0, 3]])])
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        edges = tuple(tuple(sorted(rng.choice(n, size=rng.integers(2, n + 1), replace=False).tolist()))
                      for _ in range(rng.integers(0, 6)))
        want = reference_validation_error(n, edges)
        if want is None:
            assert Hypergraph(n, edges).edges == edges
        else:
            with pytest.raises(ValidationError, match=re.escape(want)):
                Hypergraph(n, edges)


def test_array_and_tuple_forms_are_one_graph():
    pairs, triples = np.array([[0, 1], [1, 2]]), np.array([[0, 2, 3]], np.int32)
    arrays = Hypergraph(4, [pairs, triples])
    tuples = hypergraph(4, [(1, 0), (2, 1), (3, 0, 2)])
    assert arrays == tuples and hash(arrays) == hash(tuples)
    assert arrays.edges == tuples.edges == ((0, 1), (1, 2), (0, 2, 3))
    assert repr(arrays) == "Hypergraph(n=4, edges=((0, 1), (1, 2), (0, 2, 3)))"
    assert arrays.n_edges == 3 and arrays.max_arity == 3
    assert arrays.arity.tolist() == [2, 2, 3] and arrays.offsets.tolist() == [0, 2, 4, 7]
    assert arrays != Hypergraph(4, [triples, pairs])  # same edges, other order
    assert arrays != Hypergraph(5, [pairs, triples]) and arrays != tuples.edges
    assert Hypergraph(4, [pairs]) == hypergraph(4, [(0, 1), (1, 2)])
    # one table serves both
    gibbs._low_table.cache_clear()
    gibbs._low_table(arrays, 8, 8)
    gibbs._low_table(tuples, 8, 8)
    assert gibbs._low_table.cache_info()[:2] == (1, 1)
    # the graph owns its arrays: they are read-only, and changing the
    # caller's block afterwards changes nothing
    pairs[0, 0] = 3
    assert arrays.edges[0] == (0, 1)
    for a in (arrays.arity, arrays.flat, arrays.offsets):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    for name in ("n", "flat", "edges", "extra"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(arrays, name, 1)
    with pytest.raises(AttributeError, match="immutable"):
        del arrays.n
    # blocks are validated like tuples
    with pytest.raises(ValidationError, match=r"edge 1 must be sorted distinct vertices, got \(2, 1\)"):
        Hypergraph(4, [np.array([[0, 1], [2, 1]])])
    with pytest.raises(ValidationError, match=r"edge 2 has vertex outside \[0, 4\)"):
        Hypergraph(4, [np.array([[0, 1]]), np.array([[0, 1, 2], [1, 2, 4]])])
    with pytest.raises(ValidationError, match=r"edge 1 has arity 1 < 2"):
        Hypergraph(4, [np.array([[0, 1]]), np.array([[2]])])
    with pytest.raises(ValidationError, match=r"edge 1 must have integer vertex ids, got \(1.0, 2.0\)"):
        Hypergraph(4, [np.array([[0, 1]]), np.array([[1.0, 2.0]])])


def test_edge_ids_and_degrees_are_not_truncated():
    g = hypergraph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValidationError, match="edge id must be an integer, got 0.9"):
        multi_index({0.9: 1})
    with pytest.raises(ValidationError, match="edge id must be an integer, got 1.9"):
        multi_index({1.9: 2.6})
    with pytest.raises(ValidationError, match="degree must be an integer, got 2.6"):
        multi_index({1: 2.6})
    # numpy ints still pass
    assert connected_in(g, 0, 2, multi_index({np.int64(0): 1, np.int32(1): 1}))
    assert connected_in(g, 0, 3, multi_index(dict.fromkeys(np.arange(3), 1)))
    assert multi_index({np.int64(1): np.uint8(2), 0: np.int64(0)}).degrees == ((1, 2),)


def test_incident():
    g = figure1()
    assert incident(g, 3) == (0, 1, 4)
    assert incident(g, 0) == (4,)
    assert g.check_vertex(np.int64(6)) == 6
    for v in (-1, 7, 100):
        with pytest.raises(ValidationError, match=r"outside \[0, 7\)"):
            g.check_vertex(v)
    for v in (True, np.False_):  # not read as vertex 1 or 0
        with pytest.raises(ValidationError, match="vertex must be an integer"):
            g.check_vertex(v)
    # a legal but huge vertex count is refused before the (n + 1) pointer
    # is allocated: numpy's ValueError at 2**63 - 1, a MemoryError at 2**40
    for n in (2**63 - 1, 2**40):
        with pytest.raises(CapacityError, match="incidence of"):
            component(Hypergraph(n, [(0, 1)]), 0)
    assert 16 * MAX_N_LOW_ARITY < INCIDENCE_BYTES >> 7  # the diluted sampler's cap


def test_incident_matches_brute_force(rng):
    graphs = [random_hypergraph(rng, n_max=9, e_max=8, arities=(2, 3, 4)) for _ in range(200)]
    # dense enough that vertices sit in dozens of edges: an unstable sort would show
    graphs.append(hypergraph(40, {tuple(sorted(rng.choice(40, size=k, replace=False).tolist()))
                                  for k in rng.integers(2, 5, size=600)}))
    for g in graphs:
        for v in range(g.n):
            assert incident(g, v) == tuple(eid for eid, e in enumerate(g.edges) if v in e)


def test_multi_index_basics():
    n = multi_index({2: 1, 0: 3, 1: 0})
    assert n.degrees == ((0, 3), (2, 1))
    assert n.total_degree == 4
    assert n.support == (0, 2)
    with pytest.raises(ValidationError):
        multi_index({0: -1})
    with pytest.raises(ValidationError, match="sorted by edge id"):
        hypergraph_module.MultiIndex(((2, 1), (0, 3)))


def test_multi_index_odd_support():
    n = multi_index({0: 2, 1: 3, 4: 1})
    assert n.odd_support == (1, 4)


# ---------------------------------------------------------------------------
# Berge distance against exhaustive path search


def test_distance_matches_brute_force(rng):
    for _ in range(150):
        g = random_hypergraph(rng, n_max=6, e_max=5)
        for u in range(g.n):
            for v in range(g.n):
                want = berge_paths_exist(g, u, v)
                got = berge_distance(g, u, v)
                if want is None:
                    assert got == math.inf
                else:
                    assert got == want


def test_figure1_distances():
    g = figure1()
    # the observable pair sits three Berge steps apart via the hub
    assert berge_distance(g, 1, 4) == 3
    assert berge_distance(g, 2, 3) == 1
    assert berge_distance(g, 0, 1) == 2


def test_triangle_inequality(rng):
    for _ in range(60):
        g = random_hypergraph(rng, n_max=8, e_max=6)
        d = [[berge_distance(g, u, v) for v in range(g.n)] for u in range(g.n)]
        for u in range(g.n):
            for v in range(g.n):
                for w in range(g.n):
                    assert d[u][w] <= d[u][v] + d[v][w]


def test_ball_growth_and_stabilization(rng):
    # the widest ball grows from one vertex and stops at the largest component
    for _ in range(80):
        g = random_hypergraph(rng)
        comps = [component(g, v) for v in range(g.n)]
        assert comps == [frozenset(bfs_distances(g, v)) for v in range(g.n)]
        profile = _max_ball_profile(g)
        assert len(profile) == g.n + 1 and profile[0] == 1
        assert all(a <= b for a, b in zip(profile, profile[1:]))
        assert profile[-1] == max(map(len, comps))


# ---------------------------------------------------------------------------
# cycles


def test_cycle_detector_matches_brute_force(rng):
    hits = 0
    for _ in range(300):
        g = random_hypergraph(rng, n_max=7, e_max=5)
        want = brute_has_berge_cycle(g)
        hits += want
        assert explore_finds_cycle(g) == want
    assert 0 < hits < 300  # both outcomes exercised


def test_two_overlapping_edges_form_cycle():
    assert explore_finds_cycle(hypergraph(3, [(0, 1, 2), (0, 1)]))
    assert not explore_finds_cycle(hypergraph(3, [(0, 1, 2)]))


def test_figure1_cycles():
    g = figure1()

    def keep(ids):
        return hypergraph(g.n, [g.edges[eid] for eid in ids])

    assert explore_finds_cycle(g)
    # each lobe alone is already cyclic: its triple and pair share two vertices
    assert explore_finds_cycle(keep([0, 1]))
    # the two lobes without the hub edge stay cyclic
    assert explore_finds_cycle(keep([0, 1, 2, 3]))
    # one edge of each lobe plus the hub is a hypertree
    assert not explore_finds_cycle(keep([0, 2, 4]))


# ---------------------------------------------------------------------------
# local hypertree radius


def ball_radius_oracle(g, v) -> int:
    """The largest r <= N whose ball B_r(v), with every edge lying inside
    it, holds no Berge cycle: balls by BFS, cycles by exhaustive search.
    Balls only grow with r, so the first cyclic ball ends the search."""
    dist = bfs_distances(g, v)
    for r in range(1, g.n + 1):
        inner = [e for e in g.edges if all(dist.get(u, r + 1) <= r for u in e)]
        if inner and brute_has_berge_cycle(hypergraph(g.n, inner)):
            return r - 1
    return g.n


def test_ball_is_hypertree_on_ring():
    n = 9
    ring = hypergraph(n, [(k, (k + 1) % n) for k in range(n)])
    # the radius-3 ball is a path of 6 edges; at radius 4 it covers the
    # whole ring and its interior edges close the loop
    assert hypertree_radius(ring, 0) == 3
    path = hypergraph(n, [(k, k + 1) for k in range(n - 1)])
    assert [hypertree_radius(path, v) for v in range(n)] == [n] * n


def test_hypertree_radius_matches_ball_oracle(rng):
    graphs = [random_hypergraph(rng, n_max=9, e_max=8, arities=(2, 3, 4)) for _ in range(3000)]
    graphs += [g for g, _ in catalog().values()]
    graphs += [two_lobe_graph(k)[0] for k in range(4)]
    radii = set()
    for g in graphs:
        for v in range(g.n):
            r = hypertree_radius(g, v)
            assert r == ball_radius_oracle(g, v), (g, v)
            radii.add(r if r < g.n else "N")
    # a cycle at the first round, inside a later ball, and none at all
    assert {0, 1, 2, 3, "N"} <= radii


# ---------------------------------------------------------------------------
# pieces


def test_vertex_support_and_connected_in():
    g = figure1()
    assert vertex_support(g, multi_index({0: 1, 1: 2})) == frozenset({1, 2, 3})
    assert connected_in(g, 1, 4, multi_index(dict.fromkeys((0, 1, 2, 3), 1))) is False
    assert connected_in(g, 1, 4, multi_index({0: 1, 2: 3, 4: 2})) is True
    with pytest.raises(ValidationError, match=r"edge id 5 outside \[0, 5\)"):
        connected_in(g, 1, 4, multi_index({0: 1, 5: 1}))
    with pytest.raises(ValidationError, match="sorted by edge id"):  # a repeated id
        multi_index([(0, 1), (2, 1), (0, 1)])


def test_component():
    g = hypergraph(5, [(0, 1), (1, 2)])
    assert component(g, 0) == frozenset({0, 1, 2})
    assert component(g, 4) == frozenset({4})


def test_traversals_leave_the_graph_as_they_found_it():
    """Traversals keep no state on the graph, which replica threads share:
    its instance dict gains only the cached incidence, edges and key."""
    for g in (figure1(), sample_diluted(diluted_spec(50, {2: 0.9, 3: 0.3}),
                                        np.random.default_rng(8))):
        before = set(vars(g))
        _max_ball_profile(g)
        for v in range(g.n):
            component(g, v)
            hypertree_radius(g, v)
        explore(g, 0)
        connected_in(g, 0, g.n - 1, multi_index(dict.fromkeys(range(0, g.n_edges, 2), 1)))
        hash(g)
        assert set(vars(g)) - before <= {"_incident", "edges", "_key"}


# ---------------------------------------------------------------------------
# text format


def test_text_round_trip(rng):
    for _ in range(25):
        g = random_hypergraph(rng)
        assert from_text(to_text(g)) == g


def test_from_text_rejects_garbage():
    with pytest.raises(ValidationError):
        from_text("")
    with pytest.raises(ValidationError):
        from_text("3\n0 1\n")  # header missing arity
    with pytest.raises(ValidationError):
        from_text("3 2\n0 1\n1 2 0\n")  # arity above header
    with pytest.raises(ValidationError, match="header arity 3 but edges have max arity 2"):
        from_text("3 3\n0 1\n")
    with pytest.raises(ValidationError):
        from_text("3 2\n0 x\n")
    # a minus sign is part of a token: the graph names the negative id
    with pytest.raises(ValidationError, match=r"edge 0 has vertex outside \[0, 3\)"):
        from_text("3 2\n-1 1\n")


@pytest.mark.parametrize("text", [
    "3 2\n0 1_0\n",  # int() reads "1_0" as vertex 10
    "3 2\n+0 1\n",
    "3 2\n0 \u0661\n",  # an Arabic-Indic digit one
    "3_0 2\n0 1\n",
    "+3 2\n0 1\n",
    "3 \u0662\n0 1\n",
    "3 2\n0 " + "1" * 5000 + "\n",  # past int()'s digit limit
])
def test_from_text_reads_only_ascii_decimal_tokens(text):
    with pytest.raises(ValidationError, match="non-integer"):
        from_text(text)


# ---------------------------------------------------------------------------
# generated instances (hypothesis)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    n_edges = draw(st.integers(min_value=1, max_value=5))
    edges = []
    for _ in range(n_edges):
        p = draw(st.sampled_from([2, 2, 3])) if n >= 3 else 2
        edge = tuple(sorted(draw(
            st.lists(st.integers(0, n - 1), min_size=p, max_size=p,
                     unique=True))))
        if edge not in edges:
            edges.append(edge)
    return hypergraph(n, edges)


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_distance_symmetry_and_cycle_oracle(g):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert berge_distance(g, u, v) == berge_distance(g, v, u)
    assert explore_finds_cycle(g) == brute_has_berge_cycle(g)

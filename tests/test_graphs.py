import json
import math
import random
import time
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagspec import graphs
from flagspec.errors import TooManyVertices
from flagspec.graphs import (
    _G6_MAX_N,
    DENSE_VERTEX_LIMIT,
    Graph,
    _gram,
    complete_graph,
    connected_components,
    cycle_graph,
    degree_profile,
    girth,
    graph_from_graph6,
    graph_from_json,
    graph_to_graph6,
    graph_to_json,
    line_graph,
)


def _random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def test_graph_construction_rules():
    g = Graph(4, [(1, 0), (2, 3), (0, 1)])  # duplicates and order collapse
    assert g.edges == ((0, 1), (2, 3))
    assert g.edge_count == 2
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def _peak_while_refused(build) -> int:
    """tracemalloc peak, in bytes, of build() raising the graph-file limit."""
    tracemalloc.start()
    try:
        with pytest.raises(TooManyVertices, match="graph-file limit"):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_refuses_more_vertices_than_graph6_holds():
    # refused before a neighbor list is built: 258,048 of them take ~16 MB
    assert _peak_while_refused(lambda: Graph(_G6_MAX_N + 1, [])) < 2**20
    assert Graph(_G6_MAX_N, []).n == _G6_MAX_N


def test_every_builder_meets_the_graph_gate(monkeypatch):
    from flagspec.catalog import get_design
    from flagspec.flag_graphs import gamma1, gamma2

    g = cycle_graph(30)
    fano, d1 = get_design("fano-7-3-1"), get_design("biplane-16-6-2-D1")
    monkeypatch.setattr(graphs, "_G6_MAX_N", 20)
    for build in (lambda: g.relabel(list(range(30))),
                  lambda: g.subgraph(range(21)),
                  lambda: gamma1(fano),  # 14 incidence vertices, 21 flags
                  lambda: gamma2(d1)):   # 96 flags
        with pytest.raises(TooManyVertices, match="graph-file limit"):
            build()
    assert g.subgraph(range(20)).n == 20


def test_line_graph_is_refused_before_its_pairs_are_made(monkeypatch):
    # K1,1000 has 499,500 line-graph pairs, tens of MB as a list; at
    # K1,3000 (4.5 M pairs) the list peaked at 824 MB
    star = Graph(1001, [(0, i) for i in range(1, 1001)])
    monkeypatch.setattr(graphs, "_G6_MAX_N", 999)
    assert _peak_while_refused(lambda: line_graph(star)) < 2 * 2**20


def test_edge_array_matches_the_edges_for_every_builder():
    from flagspec.catalog import get_design
    from flagspec.designs import incidence_graph
    from flagspec.flag_graphs import gamma1, gamma2

    g = _random_graph(12, 0.3, random.Random(12))
    built = [
        Graph(0, []), Graph(5, []), g, cycle_graph(7), complete_graph(6),
        line_graph(g), line_graph(Graph(3, [])), g.relabel(list(range(12))[::-1]),
        g.subgraph(range(0, 12, 2)), g.subgraph([]),
        incidence_graph(get_design("fano-7-3-1")),
        gamma1(get_design("fano-7-3-1")).graph,
        gamma2(get_design("biplane-16-6-2-D1")).graph,
        graph_from_json(graph_to_json(g)), graph_from_json({"n": 4, "edges": []}),
        graph_from_graph6(graph_to_graph6(g)), graph_from_graph6("C?"),
    ]
    for h in built:
        assert h._ends.dtype == np.int64 and h._ends.shape == (h.edge_count, 2)
        assert np.array_equal(h._ends, np.array(h.edges).reshape(-1, 2))
        assert not h._ends.flags.writeable


def test_graph_endpoints_become_ints():
    # numpy integers from a permutation array, and bools, used to stay as
    # given: json.dumps raised on the first, and the reader refused the
    # second's true as a bad edge entry
    for g, edges in ((Graph(3, [(0, 1)]).relabel(np.array([2, 0, 1])), [[0, 2]]),
                     (Graph(3, [(True, 2)]), [[1, 2]]),
                     (Graph(3, [(np.int32(2), np.uint8(0))]), [[0, 2]])):
        assert all(type(x) is int for e in g.edges for x in e)
        text = json.dumps(graph_to_json(g))
        assert json.loads(text)["edges"] == edges
        assert graph_from_json(text) == g
        assert graph_from_graph6(graph_to_graph6(g)) == g
    with pytest.raises(TypeError):
        Graph(3, [(0, 1.0)])


def test_graph_order_becomes_an_int():
    # a numpy integer n used to stay as given, and json.dumps raised on it
    g = Graph(np.int64(3), [(0, 1)])
    assert type(g.n) is int
    text = json.dumps(graph_to_json(g))
    assert json.loads(text)["n"] == 3
    assert graph_from_json(text) == g
    assert graph_from_graph6(graph_to_graph6(g)) == g
    with pytest.raises(TypeError):
        Graph(3.0, [])


def test_neighbors_and_degrees():
    g = cycle_graph(5)
    assert g.neighbors(0) == (1, 4)
    assert g.degree(0) == 2
    assert g.has_edge(4, 0) and not g.has_edge(0, 2)
    assert degree_profile(complete_graph(4)) == {3}


def test_adjacency_matrix_and_exact_gram():
    g = cycle_graph(4)
    a = g.adjacency()
    assert a.dtype == np.uint8
    assert a.tolist() == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    assert Graph(0, []).adjacency().shape == (0, 0)
    assert not Graph(3, []).adjacency().any()
    assert _gram(a).tolist() == (a.astype(np.int64) @ a.T).tolist()
    # float32 counts exactly up to 2**24 - 1 columns; 2**24 is refused
    wide = np.ones((1, (1 << 24) - 1), dtype=np.uint8)
    assert _gram(wide).tolist() == [[(1 << 24) - 1]]
    with pytest.raises(ValueError, match="2\\*\\*24"):
        _gram(np.ones((1, 1 << 24), dtype=np.uint8))


def test_dense_kernels_refuse_more_vertices_than_the_limit():
    from flagspec.designs import Design, validate_design
    from flagspec.spectra import char_poly

    big = Graph(DENSE_VERTEX_LIMIT + 1, [])
    # each check runs before its n x n allocation
    with pytest.raises(TooManyVertices) as info:
        big.adjacency()
    assert (info.value.n, info.value.limit) == (DENSE_VERTEX_LIMIT + 1, DENSE_VERTEX_LIMIT)
    with pytest.raises(TooManyVertices):
        char_poly(big)
    with pytest.raises(TooManyVertices):
        _gram(np.ones((DENSE_VERTEX_LIMIT + 1, 1), dtype=np.uint8))
    # concurrences of a design covering more points than the limit
    v = DENSE_VERTEX_LIMIT + 2
    with pytest.raises(TooManyVertices):
        validate_design(Design(v, [[p, (p + 1) % v] for p in range(v)]))


def test_relabel_and_subgraph():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h = g.relabel([3, 2, 1, 0])
    assert h.edges == ((0, 1), (1, 2), (2, 3))
    s = g.subgraph([1, 3, 2])  # vertex i of the result is sorted(vertices)[i]
    assert s.n == 3 and s.edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        g.relabel([0, 1, 2])


def _subgraph_by_edge_scan(g: Graph, vertices) -> Graph:
    pos = {v: i for i, v in enumerate(sorted(vertices))}
    return Graph(len(pos), [(pos[i], pos[j]) for i, j in g.edges
                            if i in pos and j in pos])


@pytest.mark.parametrize("seed", range(60))
def test_subgraph_matches_an_edge_scan(seed):
    rng = random.Random(seed)
    g = _random_graph(rng.randint(0, 25), rng.random(), rng)
    for _ in range(5):
        vertices = rng.sample(range(g.n), rng.randint(0, g.n))
        assert g.subgraph(vertices) == _subgraph_by_edge_scan(g, vertices)


@pytest.mark.parametrize("vertices", [[0, 99], [-1, 0], [2, 2, 1]],
                         ids=["beyond-n", "negative", "repeated"])
def test_subgraph_refuses_foreign_and_repeated_vertices(vertices):
    # the walk indexes the neighbor lists with these, so they are refused,
    # not dropped or merged
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 2)]).subgraph(vertices)


def test_subgraphs_of_many_components_finish_quickly():
    # a scan of all m edges per subgraph is O(c * m) for c components: 19 s
    # end to end for this graph's components on a 2-core VM
    k = 12_000
    g = Graph(3 * k, [(3 * t + a, 3 * t + b) for t in range(k)
                      for a, b in ((0, 1), (1, 2), (0, 2))])
    start = time.perf_counter()
    subs = [g.subgraph(part) for part in connected_components(g)]
    assert time.perf_counter() - start < 3.0
    assert len(subs) == k and all(s == complete_graph(3) for s in subs)


def test_line_graph_small_cases():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert line_graph(complete_graph(3)) == complete_graph(3)
    assert line_graph(star) == complete_graph(3)
    assert line_graph(path).edges == ((0, 1), (1, 2))
    # vertex i is g.edges[i]: i ~ j exactly when the edges share an endpoint
    rng = random.Random(5)
    for g in (complete_graph(3), star, path, complete_graph(5), cycle_graph(6),
              _random_graph(9, 0.4, rng)):
        lg = line_graph(g)
        assert lg.n == g.edge_count
        for i in range(lg.n):
            for j in range(i + 1, lg.n):
                assert lg.has_edge(i, j) == bool(set(g.edges[i]) & set(g.edges[j]))


def test_only_gamma1_records_its_root():
    from flagspec.catalog import get_design
    from flagspec.designs import incidence_graph
    from flagspec.flag_graphs import gamma1

    d = get_design("fano-7-3-1")
    assert line_graph(incidence_graph(d))._derived == {}
    g = gamma1(d).graph
    root, points, blocks = g._derived["line_root"]
    assert root == incidence_graph(d)
    assert (points, blocks) == (range(7), range(7, 14))
    for copy in (g.relabel(range(g.n)), g.subgraph(range(g.n)),
                 graph_from_graph6(graph_to_graph6(g)),
                 graph_from_json(graph_to_json(g))):
        assert copy == g
        assert "line_root" not in copy._derived


def test_connected_components_ordering():
    g = Graph(7, [(3, 4), (0, 6), (4, 5)])
    parts = connected_components(g)
    assert parts == [[0, 6], [1], [2], [3, 4, 5]]


def _components_by_min_unseen(g: Graph) -> list[list[int]]:
    """The former partition: one min() over the unseen set per component."""
    unseen = set(range(g.n))
    parts = []
    while unseen:
        comp, frontier = {min(unseen)}, [min(unseen)]
        while frontier:
            v = frontier.pop()
            for w in g.neighbors(v):
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        unseen -= comp
        parts.append(sorted(comp))
    return parts


@pytest.mark.parametrize("seed", range(6))
def test_connected_components_match_the_min_unseen_partition(seed):
    # many small components, isolated vertices and long paths, labels shuffled
    rng = random.Random(seed)
    n = 300
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[i], perm[i + 1]) for i in range(n - 1) if rng.random() < 0.8]
    edges += [(perm[rng.randrange(n)], perm[rng.randrange(n)]) for _ in range(20)]
    g = Graph(n, [(u, v) for u, v in edges if u != v])
    assert connected_components(g) == _components_by_min_unseen(g)


def test_connected_components_of_a_large_edgeless_graph():
    # one min() over the unseen set per component took 5.4 s here
    g = Graph(20_000, [])
    start = time.perf_counter()
    parts = connected_components(g)
    assert time.perf_counter() - start < 1.0
    assert parts == [[v] for v in range(20_000)]


def test_girth_values():
    assert girth(complete_graph(4)) == 3
    assert girth(cycle_graph(9)) == 9
    assert girth(Graph(4, [(0, 1), (1, 2), (2, 3)])) == math.inf
    assert girth(Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])) == 3


def test_json_round_trip():
    g = _random_graph(9, 0.4, random.Random(1))
    assert graph_from_json(graph_to_json(g)) == g
    with pytest.raises(ValueError):
        graph_from_json({"n": 2})


@pytest.mark.parametrize("n,p", [(0, 0.0), (1, 0.0), (5, 0.5), (62, 0.2),
                                 (63, 0.2), (100, 0.1)])
def test_graph6_against_networkx(n, p):
    g = _random_graph(n, p, random.Random(n))
    ours = graph_to_graph6(g)

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(n))
    nx_graph.add_edges_from(g.edges)
    theirs = nx.to_graph6_bytes(nx_graph, header=False).decode("ascii").strip()
    assert ours == theirs

    # decoding our encoding and networkx's gives the same graph back
    assert graph_from_graph6(ours) == g
    back = nx.from_graph6_bytes(ours.encode("ascii"))
    assert Graph(back.number_of_nodes(), list(back.edges())) == g


def test_graph6_accepts_prefix_and_rejects_junk():
    g = cycle_graph(5)
    s = graph_to_graph6(g)
    assert graph_from_graph6(">>graph6<<" + s) == g
    with pytest.raises(ValueError):
        graph_from_graph6("")
    with pytest.raises(ValueError):
        graph_from_graph6("D" + chr(200))
    with pytest.raises(ValueError):
        graph_from_graph6("D?")  # truncated bit section


def test_graph6_extended_header_round_trip():
    g = _random_graph(96, 0.15, random.Random(96))
    s = graph_to_graph6(g)
    assert s.startswith("~")
    assert graph_from_graph6(s) == g


def test_graph6_reader_memory_follows_the_file():
    # the path on 8,000 vertices is a 5.3 MB file; a bit per vertex pair
    # held as a byte, with its pair indices, peaked at 624 MB
    n = 8000
    path = Graph(n, [(i, i + 1) for i in range(n - 1)])
    s = graph_to_graph6(path)
    tracemalloc.start()
    try:
        back = graph_from_graph6(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert back.edges[-1] == (n - 2, n - 1)
    assert back == path


def test_json_rejects_non_integer_endpoints():
    # int() would truncate 1.9 to the edge (0, 1)
    with pytest.raises(ValueError, match="bad edge entry"):
        graph_from_json({"n": 3, "edges": [[0, 1.9]]})
    with pytest.raises(ValueError, match="bad edge entry"):
        graph_from_json({"n": 3, "edges": [[0, "1"]]})


def test_graph6_rejects_out_of_range_bytes_and_padding():
    with pytest.raises(ValueError, match="out of range"):
        graph_from_graph6("D?" + chr(62))
    # n = 2 uses one of the six body bits; the other five must be zero
    assert graph_from_graph6("A_") == complete_graph(2)
    with pytest.raises(ValueError, match="padding"):
        graph_from_graph6("A" + chr(63 + 0b100001))
    # a one-byte header is 63..125 (n = 0..62); 126 starts the long form,
    # and 127..255 would otherwise read as n = 64..192
    assert graph_from_graph6(chr(125) + "?" * 316).n == 62
    for header in (127, 200, 255):
        with pytest.raises(ValueError, match="header byte"):
            graph_from_graph6(bytes([header]) + b"?" * 336)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 130), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_graph6_round_trip_property(n, p, seed):
    g = _random_graph(n, p, random.Random(seed))
    s = graph_to_graph6(g)
    assert graph_from_graph6(s) == g
    back = nx.from_graph6_bytes(s.encode("ascii"))
    assert Graph(back.number_of_nodes(), list(back.edges())) == g

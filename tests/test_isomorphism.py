import random
import sys
import time
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagspec import isomorphism
from flagspec.catalog import clebsch_graph
from flagspec.designs import Design
from flagspec.errors import TooManyVertices
from flagspec.graphs import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    graph_to_graph6,
    line_graph,
)
from flagspec.isomorphism import (
    CANONICAL_VERTEX_LIMIT,
    _color_weights,
    _Node,
    canonical_form,
    design_isomorphic,
    is_isomorphic,
)

from oracles import brute_isomorphic


def random_graph(n, p, rng):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p])


def shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_certificate_is_graph6_of_canonical_relabeling(gamma1_graphs, gamma2_graphs):
    # the cycle and D1's gamma1 are connected and take their certificate
    # from a search leaf; D1's gamma2 has 6 components, reassembled
    cases = [
        (cycle_graph(6), 1),
        (gamma1_graphs["biplane-16-6-2-D1"].graph, 1),
        (gamma2_graphs["biplane-16-6-2-D1"].graph, 6),
    ]
    for g, parts in cases:
        assert len(connected_components(g)) == parts
        cf = canonical_form(g)
        relabeled = g.relabel(list(cf.permutation))
        assert cf.certificate == graph_to_graph6(relabeled).encode("ascii")


def test_decision_matches_brute_force():
    rng = random.Random(2)
    for n in (3, 4, 5, 6):
        for _ in range(8):
            g = random_graph(n, rng.choice([0.3, 0.5, 0.8]), rng)
            h = shuffled(g, rng) if rng.random() < 0.5 else random_graph(
                n, rng.choice([0.3, 0.5, 0.8]), rng
            )
            assert is_isomorphic(g, h) == brute_isomorphic(g, h), (
                g.edges, h.edges,
            )


def test_small_decisions():
    assert not is_isomorphic(cycle_graph(4), complete_graph(3))
    k3_line = line_graph(complete_graph(3))
    star_line = line_graph(Graph(4, [(0, 1), (0, 2), (0, 3)]))
    # the classical line-graph collision: K3 and the 3-star
    assert is_isomorphic(k3_line, star_line)
    assert canonical_form(k3_line).certificate == canonical_form(star_line).certificate


def test_isomorphic_after_relabeling():
    rng = random.Random(7)
    for seed in range(5):
        g = random_graph(9, 0.4, random.Random(seed))
        assert is_isomorphic(g, shuffled(g, rng))


def test_non_isomorphic_same_degree_sequence():
    # C6 and two triangles share the degree sequence
    g = cycle_graph(6)
    h = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_isomorphic(g, h)


def test_disconnected_graphs():
    rng = random.Random(4)
    g = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    assert is_isomorphic(g, shuffled(g, rng))
    h = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7)])
    assert not is_isomorphic(g, h)


def test_empty_and_trivial_graphs():
    assert canonical_form(Graph(0, [])).certificate == b"?"
    assert is_isomorphic(Graph(3, []), Graph(3, []))
    assert not is_isomorphic(Graph(3, []), Graph(4, []))


def test_colored_certificates_respect_classes():
    g = cycle_graph(4)
    plain = canonical_form(g).certificate
    colored = canonical_form(g, [0, 1, 0, 1]).certificate
    assert colored != plain
    assert colored.startswith(b"2,2:")
    # classes are ordinal: renaming colors preserves the certificate
    assert colored == canonical_form(g, [5, 9, 5, 9]).certificate
    # a coloring that breaks the symmetry differently must differ
    other = canonical_form(g, [0, 0, 1, 1]).certificate
    assert colored != other
    with pytest.raises(ValueError):
        canonical_form(g, [0, 1])


def test_colored_isomorphism_blocks_cross_class_maps():
    # path 0-1-2: ends colored alike in one, differently in the other
    g = Graph(3, [(0, 1), (1, 2)])
    a = canonical_form(g, [0, 1, 0]).certificate
    b = canonical_form(g, [0, 1, 1]).certificate
    assert a != b


def test_design_isomorphism_points_to_points(catalog_designs):
    fano = catalog_designs["fano-7-3-1"]
    # develop the complementary difference set: an isomorphic fano plane
    other = Design(7, [[(x + g) % 7 for x in (0, 1, 3)] for g in range(7)])
    assert design_isomorphic(fano, other)
    assert not design_isomorphic(fano, catalog_designs["biplane-7-4-2"])


def test_design_isomorphism_detects_block_structure():
    # same parameters (7,7,3,3,1), one block swapped to break the plane
    fano = Design(7, [[0, 1, 3], [1, 2, 4], [2, 3, 5], [3, 4, 6],
                      [0, 4, 5], [1, 5, 6], [0, 2, 6]])
    import flagspec.errors as errors

    broken_blocks = [[0, 1, 3], [1, 2, 4], [2, 3, 5], [3, 4, 6],
                     [0, 4, 5], [1, 5, 6], [0, 2, 5]]
    with pytest.raises(errors.PairCountMismatch):
        design_isomorphic(fano, Design(7, broken_blocks))


def test_design_isomorphism_survives_relabeling(catalog_designs):
    # refinement leaves every point of a biplane in one cell, a coclique,
    # yet the points of the (16,6,2) biplanes D2 and D3 are not one orbit:
    # only a search that branches on each of them finds the same form
    rng = random.Random(1729)
    for d in catalog_designs.values():
        for _ in range(3):
            perm = list(range(d.v))
            rng.shuffle(perm)
            blocks = [[perm[p] for p in block] for block in d.blocks]
            rng.shuffle(blocks)
            assert design_isomorphic(d, Design(d.v, blocks))


@pytest.mark.parametrize("key", ["gamma1:biplane-16-6-2-D3", "gamma2:biplane-16-6-2-D3"])
def test_catalog_decisions_stay_inside_time_budget(
    key, gamma1_graphs, gamma2_graphs
):
    family, did = key.split(":")
    g = (gamma1_graphs if family == "gamma1" else gamma2_graphs)[did].graph
    # a copy, since an earlier test may have stored the fixture's form
    g = Graph(g.n, g.edges)
    start = time.perf_counter()
    canonical_form(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{key} took {elapsed:.1f}s"


def test_uncolored_form_is_searched_once_per_instance(monkeypatch):
    from flagspec import isomorphism

    searches = []
    real = isomorphism._search
    monkeypatch.setattr(
        isomorphism, "_search", lambda g, base: searches.append(g.n) or real(g, base)
    )
    g = shuffled(clebsch_graph(), random.Random(1729))
    form = canonical_form(g)
    assert len(searches) == 1
    assert canonical_form(g) is form
    assert is_isomorphic(g, g)
    assert len(searches) == 1
    # a new Graph with equal content searches again, to the same form
    assert canonical_form(Graph(g.n, g.edges)) == form
    assert len(searches) == 2
    # a disconnected graph stores its reassembled form, one search per part
    two = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    assert canonical_form(two) is canonical_form(two)
    assert len(searches) == 4


def test_colored_forms_are_stored_per_coloring(monkeypatch):
    searches = []
    real = isomorphism._search
    monkeypatch.setattr(
        isomorphism, "_search", lambda g, base: searches.append(g.n) or real(g, base)
    )
    g = cycle_graph(6)
    plain = canonical_form(g)
    colored = canonical_form(g, [0] * 6)
    # one color class: same ordering, but the certificate carries a prefix
    assert colored.certificate == b"6:" + plain.certificate
    assert len(searches) == 2
    # a repeat colored call returns the stored form; equal class ranks are
    # one coloring
    assert canonical_form(g, [0] * 6) is colored
    assert canonical_form(g, [7] * 6) is colored
    assert canonical_form(g) is plain
    assert len(searches) == 2
    two = canonical_form(g, [0, 1] * 3)
    assert canonical_form(g, [3, 5] * 3) is two
    assert canonical_form(g, [1, 0] * 3) is not two
    assert len(searches) == 4
    # neither kind serves the other, the one-class coloring included
    h = cycle_graph(6)
    assert canonical_form(h, [0] * 6) == colored
    assert canonical_form(h) == plain
    k = cycle_graph(6)
    assert canonical_form(k) == plain
    assert canonical_form(k, [0] * 6) == colored
    one = Graph(1, [])
    assert canonical_form(one, [0]).certificate == b"1:@"
    assert canonical_form(one).certificate == b"@"


def test_design_isomorphism_searches_each_design_once(catalog_designs, monkeypatch):
    searches = []
    real = isomorphism._search
    monkeypatch.setattr(
        isomorphism, "_search", lambda g, base: searches.append(g.n) or real(g, base)
    )
    d = Design(7, catalog_designs["fano-7-3-1"].blocks)
    assert design_isomorphic(d, d)
    assert searches == [14]
    other = Design(7, [[(x + g) % 7 for x in (0, 1, 3)] for g in range(7)])
    assert design_isomorphic(d, other) and design_isomorphic(other, d)
    assert searches == [14, 14]


def test_permutation_field_is_inverse_free(gamma2_graphs):
    g = gamma2_graphs["biplane-7-4-2"].graph
    cf = canonical_form(g)
    assert sorted(cf.permutation) == list(range(g.n))
    assert cf.certificate == graph_to_graph6(
        g.relabel(list(cf.permutation))
    ).encode("ascii")


def _nx(g, colors=None):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    if colors is not None:
        nx.set_node_attributes(out, dict(enumerate(colors)), "color")
    return out


@st.composite
def small_graphs(draw, n=None):
    """Graphs on at most 9 vertices, or on exactly n."""
    if n is None:
        n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, bit in zip(pairs, bits) if bit])


@st.composite
def colored_relabelings(draw):
    """(g, colors, perm): a graph, a 3-coloring and a relabeling."""
    g = draw(small_graphs())
    colors = draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    perm = list(draw(st.permutations(range(g.n))))
    return g, colors, perm


@settings(derandomize=True, deadline=None, max_examples=150)
@given(colored_relabelings())
def test_certificate_invariant_under_relabeling(case):
    g, colors, perm = case
    h = g.relabel(perm)
    moved = [0] * g.n
    for v, p in enumerate(perm):
        moved[p] = colors[v]
    assert canonical_form(g).certificate == canonical_form(h).certificate
    assert (canonical_form(g, colors).certificate
            == canonical_form(h, moved).certificate)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(colored_relabelings())
def test_certificate_is_graph6_of_its_permutation(case):
    g, colors, _ = case
    cf = canonical_form(g)
    assert cf.certificate == graph_to_graph6(g.relabel(list(cf.permutation))).encode()
    cf = canonical_form(g, colors)
    body = graph_to_graph6(g.relabel(list(cf.permutation))).encode()
    assert cf.certificate.endswith(b":" + body)
    # color classes fill the canonical positions in color order
    assert sorted(range(g.n), key=lambda v: cf.permutation[v]) == sorted(
        range(g.n), key=lambda v: (colors[v], cf.permutation[v])
    )


def _switches(g):
    """Edge pairs ab, cd whose switch to ac, bd keeps every degree."""
    edges = set(g.edges)
    return [
        ((a, b), (c, d))
        for (a, b), (c, d) in combinations(sorted(edges), 2)
        if len({a, b, c, d}) == 4
        and (min(a, c), max(a, c)) not in edges
        and (min(b, d), max(b, d)) not in edges
    ]


def _switched(g, switch):
    (a, b), (c, d) = switch
    edges = set(g.edges) - {(a, b), (c, d)}
    edges |= {(min(a, c), max(a, c)), (min(b, d), max(b, d))}
    return Graph(g.n, edges)


@st.composite
def decision_pairs(draw):
    """Two graphs on the same vertices: a relabeling, a degree-preserving
    edge switch of a relabeling, or an independent draw."""
    g = draw(small_graphs())
    perm = list(draw(st.permutations(range(g.n))))
    h = g.relabel(perm)
    kind = draw(st.sampled_from(["relabel", "switch", "other"]))
    if kind == "switch":
        switches = _switches(h)
        if switches:
            h = _switched(h, draw(st.sampled_from(switches)))
    elif kind == "other":
        h = draw(small_graphs(g.n))
    colors = draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n))
    other_colors = [colors[v] for v in sorted(range(g.n), key=perm.__getitem__)]
    return g, h, colors, other_colors


@settings(derandomize=True, deadline=None, max_examples=150)
@given(decision_pairs())
def test_decisions_match_networkx_and_brute_force(case):
    g, h, colors, other_colors = case
    expected = nx.is_isomorphic(_nx(g), _nx(h))
    assert is_isomorphic(g, h) == expected
    # the brute-force oracle tries all n! bijections; n <= 7 keeps it fast
    if g.n <= 7:
        assert brute_isomorphic(g, h) == expected
    same_colored = (canonical_form(g, colors).certificate
                    == canonical_form(h, other_colors).certificate)
    assert same_colored == nx.is_isomorphic(
        _nx(g, colors), _nx(h, other_colors),
        node_match=lambda x, y: x["color"] == y["color"],
    )


@st.composite
def medium_graphs(draw, n=None):
    """Graphs on 10 to 40 vertices, or on exactly n: G(n, p) draws, which
    refinement mostly splits, and 4-regular ones, which it cannot split
    without branching."""
    if n is None:
        n = draw(st.integers(10, 40))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        return random_graph(n, draw(st.sampled_from([0.1, 0.3, 0.5, 0.8])), rng)
    regular = nx.random_regular_graph(4, n, seed=rng.randrange(2**32))
    return Graph(n, [tuple(sorted(e)) for e in regular.edges])


@st.composite
def medium_relabelings(draw):
    """(g, colors, perm) with g from medium_graphs and a 3-coloring."""
    g = draw(medium_graphs())
    rng = draw(st.randoms(use_true_random=False))
    colors = [rng.randrange(3) for _ in range(g.n)]
    return g, colors, list(draw(st.permutations(range(g.n))))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(medium_relabelings())
def test_certificate_invariant_under_relabeling_at_larger_n(case):
    g, colors, perm = case
    h = g.relabel(perm)
    moved = [0] * g.n
    for v, p in enumerate(perm):
        moved[p] = colors[v]
    assert canonical_form(g).certificate == canonical_form(h).certificate
    assert (canonical_form(g, colors).certificate
            == canonical_form(h, moved).certificate)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(medium_relabelings())
def test_certificate_is_graph6_of_its_permutation_at_larger_n(case):
    g, colors, perm = case
    for h in (g, g.relabel(perm)):
        cf = canonical_form(h)
        assert cf.certificate == graph_to_graph6(h.relabel(list(cf.permutation))).encode()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(medium_graphs(), st.sampled_from(["relabel", "switch", "other"]), st.data())
def test_decisions_match_networkx_at_larger_n(g, kind, data):
    h = g.relabel(list(data.draw(st.permutations(range(g.n)))))
    if kind == "switch":
        # one degree-preserving switch: the screens pass, the search decides
        rng = data.draw(st.randoms(use_true_random=False))
        switches = _switches(h)
        if switches:
            h = _switched(h, rng.choice(switches))
    elif kind == "other":
        h = data.draw(medium_graphs(g.n))
    assert is_isomorphic(g, h) == nx.is_isomorphic(_nx(g), _nx(h))


def _shrikhande_graph():
    # Cayley graph of Z4 x Z4 with connection set +-(0,1), +-(1,0), +-(1,1)
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return Graph(16, [
        (i, j) for i, j in combinations(range(16), 2)
        if ((j // 4 - i // 4) % 4, (j % 4 - i % 4) % 4) in steps
    ])


def _paley_graph(q):
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [
        (i, j) for i, j in combinations(range(q), 2) if (j - i) % q in squares
    ])


def test_strongly_regular_graphs():
    # refinement never splits a cell of a strongly regular graph, so only
    # the search tells these apart; both are SRG(16, 6, 2, 2)
    shrikhande, rook = _shrikhande_graph(), _rook_graph(4)
    assert not nx.is_isomorphic(_nx(shrikhande), _nx(rook))
    assert not is_isomorphic(shrikhande, rook)
    rng = random.Random(1729)
    for g in (shrikhande, rook, _paley_graph(29), _paley_graph(37)):
        h = shuffled(g, rng)
        assert is_isomorphic(g, h)
        cf = canonical_form(h)
        assert cf.certificate == graph_to_graph6(h.relabel(list(cf.permutation))).encode()


def test_canonical_form_refuses_graphs_above_its_vertex_limit(monkeypatch):
    def searched(*args):
        raise AssertionError("search started above the vertex limit")

    monkeypatch.setattr(isomorphism, "connected_components", searched)
    monkeypatch.setattr(isomorphism, "_search", searched)
    big = Graph(CANONICAL_VERTEX_LIMIT + 1, [])
    for colors in (None, [0] * big.n, [v % 2 for v in range(big.n)]):
        with pytest.raises(TooManyVertices, match="CANONICAL_VERTEX_LIMIT"):
            canonical_form(big, colors)
    assert big._derived == {}


def test_color_weight_sums_are_exact_at_high_degree():
    # the center of the star K1,10000 with every leaf in its own cell sums
    # 10000 distinct weights; each lies below 2**(53 - 14), so the float64
    # sum is exact in any order of addition
    degree = 10_000
    weight = _color_weights(degree + 1, degree)
    bound = 2 ** (53 - degree.bit_length())
    assert (weight == np.floor(weight)).all()
    assert weight.max() < bound
    # the bound is tight: the weights use its top bit
    assert weight.max() >= bound // 2
    exact = sum(int(w) for w in weight[1:])
    assert exact < 2**53
    hub = np.zeros(degree, dtype=np.int64)
    rng = np.random.default_rng(1729)
    for leaves in (weight[1:], weight[:0:-1], rng.permutation(weight[1:])):
        assert np.bincount(hub, weights=leaves)[0] == exact
    assert _color_weights(3, 0).max() < 2**53


def _random_permutation(n, rng):
    """A permutation of range(n) made of cycles of mixed lengths on a
    random subset of the points."""
    perm = list(range(n))
    points = rng.sample(range(n), rng.randint(0, n))
    i = 0
    while i < len(points):
        cycle = points[i:i + rng.choice((1, 2, 2, 3, 4, 5, 7))]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
        i += len(cycle)
    return np.array(perm, dtype=np.int64)


def _least_in_orbit(n, gens):
    """The least vertex of each orbit of the group the permutations
    generate, by a search over the orbit closure."""
    label = [-1] * n
    for v in range(n):
        if label[v] < 0:
            label[v], todo = v, [v]
            while todo:
                u = todo.pop()
                for p in gens:
                    if label[p[u]] < 0:
                        label[p[u]] = v
                        todo.append(int(p[u]))
    return label


def test_node_merge_keeps_the_least_vertex_of_each_orbit():
    # one cell and no edges: the node's one candidate stays unpicked, so
    # every merge folds its generator in.  A merge that propagates minima
    # along the new generator only, losing the links between the earlier
    # orbits, fails here
    rng = random.Random(1729)
    empty = np.zeros(0, dtype=np.int64)
    for _ in range(300):
        n = rng.randint(1, 40)
        gens = [_random_permutation(n, rng) for _ in range(rng.randint(1, 8))]
        node = _Node(np.zeros(n, dtype=np.int64), 1, empty, empty)
        for i, gen in enumerate(gens):
            node.merge(gen)
            assert node.orbit.tolist() == _least_in_orbit(n, gens[: i + 1])


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # each level of the one-colored perfect matching on 120 vertices
    # individualizes one vertex and, by refinement, its partner, so the
    # search goes 60 levels deep; refinement never splits a cell of K60 or
    # of the edgeless graph, which each take one level
    g, e = complete_graph(60), Graph(60, [])
    matching = Graph(120, [(2 * i, 2 * i + 1) for i in range(60)])
    limit = sys.getrecursionlimit()
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    sys.setrecursionlimit(depth + 40)
    try:
        cg = canonical_form(g)
        ce = canonical_form(e, [0] * 60)
        cm = canonical_form(matching, [0] * 120)
    finally:
        sys.setrecursionlimit(limit)
    assert cg.certificate == graph_to_graph6(g).encode()
    assert ce.certificate == b"60:" + graph_to_graph6(e).encode()
    assert cm.certificate == b"120:" + graph_to_graph6(
        matching.relabel(list(cm.permutation))).encode()


def _rook_graph(k):
    cells = [(a, b) for a in range(k) for b in range(k)]
    return Graph(k * k, [
        (i, j) for i, j in combinations(range(k * k), 2)
        if cells[i][0] == cells[j][0] or cells[i][1] == cells[j][1]
    ])


def _copies(g, k):
    return Graph(k * g.n, [
        (c * g.n + i, c * g.n + j) for c in range(k) for i, j in g.edges
    ])


SYMMETRIC_GRAPHS = {
    "rook-8x8": _rook_graph(8),
    "K12,12": Graph(24, [(i, 12 + j) for i in range(12) for j in range(12)]),
    "cocktail-party-32": Graph(32, [
        (i, j) for i, j in combinations(range(32), 2) if j != i + 16
    ]),
    "K30": complete_graph(30),
    "K200": complete_graph(200),
    # one color class keeps the search on the whole graph instead of 300
    # one-vertex components
    "edgeless-300-one-color": Graph(300, []),
    "K1,10000": Graph(10001, [(0, i) for i in range(1, 10001)]),
    # six Clebsch graphs searched as one: leaves that part deep in the
    # stack hand their automorphisms to several levels at once
    "6xclebsch-one-color": _copies(clebsch_graph(), 6),
}


@pytest.mark.parametrize("name", list(SYMMETRIC_GRAPHS))
def test_symmetric_graphs_stay_inside_time_budget(name):
    graph = SYMMETRIC_GRAPHS[name]
    colors = [0] * graph.n if name.endswith("one-color") else None
    # large automorphism groups: a search without jump-back takes seconds
    # to minutes on these, one that branches on every vertex of a cell
    # that refinement cannot split takes seconds on K200 and on the
    # edgeless graph, and one that individualizes such a cell one vertex
    # per level takes seconds on the star
    h = shuffled(graph, random.Random(1729))
    start = time.perf_counter()
    cf = canonical_form(h, colors)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{name} took {elapsed:.2f}s"
    prefix = f"{graph.n}:".encode() if colors else b""
    body = graph_to_graph6(h.relabel(list(cf.permutation))).encode()
    assert cf.certificate == prefix + body
    assert cf.certificate == canonical_form(graph, colors).certificate

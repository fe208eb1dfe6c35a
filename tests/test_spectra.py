import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from flagspec import polynomials, spectra
from flagspec.designs import DesignParams
from flagspec.errors import NonIntegralClaim, SelfCheckFailed
from flagspec.graphs import Graph, complete_graph, cycle_graph, line_graph
from flagspec.polynomials import IntPolynomial
from flagspec.spectra import (
    AlgebraicEigenvalue,
    SpectrumClaim,
    char_poly,
    claim_from_json,
    claim_to_json,
    claim_to_polynomial,
    claim_to_text,
    cospectral,
    formula_spectrum_gamma1,
    formula_spectrum_incidence,
    numeric_spectrum,
    verify_spectrum,
)

from oracles import (
    berkowitz_charpoly,
    berkowitz_matrix_charpoly,
    fraction_claim_polynomial,
    hessenberg_det_mod,
    hessenberg_mod_reference,
    schoolbook_product,
)


def ev(a, b=0, d=0):
    return AlgebraicEigenvalue(Fraction(a), Fraction(b), d)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p])


# ---------------------------------------------------------------------------
# algebraic eigenvalues and claims
# ---------------------------------------------------------------------------

def test_eigenvalue_normalization():
    assert ev(0, 1, 8) == ev(0, 2, 2)        # sqrt(8) = 2 sqrt(2)
    assert ev(3, 1, 9) == ev(6)              # sqrt(9) folds into the rational
    assert ev(1, 0, 5) == ev(1)              # b = 0 clears d
    assert ev(2, 1, 1) == ev(3)
    e = ev(Fraction(9, 2), Fraction(1, 2), 73)
    assert (e.a, e.b, e.d) == (Fraction(9, 2), Fraction(1, 2), 73)
    with pytest.raises(ValueError):
        AlgebraicEigenvalue(Fraction(0), Fraction(1), -2)


def test_eigenvalue_helpers():
    e = ev(2, -1, 2)
    assert not e.is_rational
    assert e.conjugate() == ev(2, 1, 2)
    assert abs(e.approx() - (2 - math.sqrt(2))) < 1e-12
    assert ev(5).is_rational
    assert ev(Fraction(9, 2), Fraction(1, 2), 73).render() == "9/2+1/2√73"
    assert ev(0, -1, 6).render() == "-√6"


def test_python_api_rejects_non_integers():
    with pytest.raises(TypeError):
        SpectrumClaim([(ev(1), 2.5)])
    with pytest.raises(TypeError):
        SpectrumClaim([(ev(1), Fraction(2))])
    with pytest.raises(TypeError):
        AlgebraicEigenvalue(Fraction(0), Fraction(1), 2.9)
    assert AlgebraicEigenvalue(Fraction(0), Fraction(1), np.int64(8)) == ev(0, 2, 2)
    assert SpectrumClaim([(ev(1), np.int64(2))]).entries == ((ev(1), 2),)


def test_claim_merging_and_order():
    c = SpectrumClaim([(ev(1), 2), (ev(1), 3), (ev(4), 1), (ev(0), 0)])
    assert c.entries == ((ev(4), 1), (ev(1), 5))
    assert c.total_multiplicity == 6


def test_claim_requires_conjugate_pairs():
    with pytest.raises(ValueError):
        SpectrumClaim([(ev(0, 1, 2), 3)])
    with pytest.raises(ValueError):
        SpectrumClaim([(ev(0, 1, 2), 3), (ev(0, -1, 2), 2)])
    SpectrumClaim([(ev(0, 1, 2), 3), (ev(0, -1, 2), 3)])


@pytest.mark.parametrize("m", [1, 2, 3, 37, 260])
def test_claim_expansion_by_squaring_equals_the_repeated_product(m):
    claim = SpectrumClaim([(ev(-2), m), (ev(3, 1, 2), m), (ev(3, -1, 2), m),
                           (ev(5), 1)])
    expected = IntPolynomial([1])
    for factor in (IntPolynomial([2, 1]), IntPolynomial([7, -6, 1])):
        for _ in range(m):
            expected = expected * factor
    assert claim_to_polynomial(claim) == expected * IntPolynomial([-5, 1])


def test_claim_to_polynomial():
    c = SpectrumClaim([(ev(1, 1, 2), 1), (ev(1, -1, 2), 1)])
    assert claim_to_polynomial(c) == IntPolynomial([-1, -2, 1])
    with pytest.raises(NonIntegralClaim):
        claim_to_polynomial(SpectrumClaim([(ev(Fraction(1, 2)), 1)]))


def test_claim_text_and_json_round_trip():
    c = SpectrumClaim([
        (ev(10), 1), (ev(6), 15), (ev(2), 15), (ev(-2), 65),
    ])
    assert claim_to_text(c) == "10, 6^15, 2^15, (-2)^65"
    assert claim_from_json(claim_to_json(c)) == c
    c = SpectrumClaim([(ev(2, 1, 2), 6), (ev(2, -1, 2), 6)])
    assert claim_to_text(c) == "(2+√2)^6, (2-√2)^6"
    assert claim_from_json(claim_to_json(c)) == c


# ---------------------------------------------------------------------------
# characteristic polynomial: modular route vs division-free oracle
# ---------------------------------------------------------------------------

def test_char_poly_known_small():
    assert char_poly(complete_graph(2)).coeffs == (-1, 0, 1)
    assert char_poly(cycle_graph(4)).coeffs == (0, 0, -4, 0, 1)
    assert char_poly(Graph(3, [])).coeffs == (0, 0, 0, 1)


@pytest.mark.parametrize("seed", range(8))
def test_char_poly_matches_berkowitz_random(seed):
    n = 4 + seed
    g = random_graph(n, 0.45, seed)
    assert list(char_poly(g).coeffs) == berkowitz_charpoly(g)


def test_char_poly_matches_berkowitz_catalog(gamma1_graphs):
    # gamma1 takes the line-graph route; a plain copy of it the adjacency one
    g = gamma1_graphs["fano-7-3-1"].graph
    oracle = berkowitz_charpoly(g)
    assert list(char_poly(g).coeffs) == oracle
    assert list(char_poly(Graph(g.n, g.edges)).coeffs) == oracle


def test_char_poly_matches_sympy_once():
    g = random_graph(7, 0.5, 99)
    rows = [[0] * 7 for _ in range(7)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = 1
    x = sympy.Symbol("x")
    theirs = sympy.Matrix(rows).charpoly(x).all_coeffs()
    assert list(char_poly(g).coeffs) == list(reversed(theirs))


def test_char_poly_empty_and_single():
    assert char_poly(Graph(1, [])).coeffs == (0, 1)


def test_char_poly_is_computed_once_per_instance(monkeypatch):
    computed = []
    real = spectra._adjacency_charpoly
    monkeypatch.setattr(spectra, "_adjacency_charpoly",
                        lambda a: computed.append(a.shape[0]) or real(a))
    g = complete_graph(6)
    poly = char_poly(g)
    assert computed == [6]
    # every exact path asks the same instance again and gets the stored object
    assert char_poly(g) is poly
    assert verify_spectrum(g, SpectrumClaim([(ev(5), 1), (ev(-1), 5)]))
    assert numeric_spectrum(g, 1e-6)[0][1] == 1
    assert cospectral(g, g)
    assert computed == [6]
    # a new Graph with equal content computes again
    fresh = Graph(g.n, g.edges)
    assert fresh == g
    assert char_poly(fresh) == poly
    assert computed == [6, 6]


def test_report_pass_computes_char_poly_once_per_graph(monkeypatch):
    from flagspec import catalog, reporting

    calls, computed = [], []
    real_char_poly = spectra.char_poly

    def counting_char_poly(g):
        calls.append(g)
        return real_char_poly(g)

    def counting(route):
        # one route call per polynomial actually computed
        real = getattr(spectra, route)
        monkeypatch.setattr(spectra, route,
                            lambda *args: computed.append(route) or real(*args))

    monkeypatch.setattr(spectra, "char_poly", counting_char_poly)
    monkeypatch.setattr(reporting, "char_poly", counting_char_poly)
    counting("_adjacency_charpoly")
    counting("_line_charpoly")
    # freshly loaded catalog designs, as in a new process
    catalog._load_entry.cache_clear()
    reporting.run_reproduction(relabel_rounds=1, seed=1729)
    # the corpus, verify_spectrum and numeric_spectrum ask 30 graphs 48 times
    assert len({id(g) for g in calls}) == 30
    assert (len(calls), len(computed)) == (48, 30)
    # a catalog design keeps its incidence graph, and that graph its
    # polynomial, so a second pass computes the other 22
    del calls[:], computed[:]
    reporting.run_reproduction(relabel_rounds=1, seed=1729)
    assert (len(calls), len(computed)) == (48, 22)


# ---------------------------------------------------------------------------
# line graphs: chi_L from the root's signless Laplacian
# ---------------------------------------------------------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    """The matrix of every _charpoly_matrix call, the order of every matrix
    _hessenberg_mod reduces, and the order of every matrix the adjacency
    route takes."""
    calls, orders, adjacency = [], [], []
    real_kernel, real_hessenberg = spectra._charpoly_matrix, spectra._hessenberg_mod
    real_adjacency = spectra._adjacency_charpoly

    def kernel(mat):
        calls.append(mat.copy())
        return real_kernel(mat)

    def hessenberg(mat, p):
        orders.append(mat.shape[0])
        return real_hessenberg(mat, p)

    def adjacency_route(mat):
        adjacency.append(mat.shape[0])
        return real_adjacency(mat)

    monkeypatch.setattr(spectra, "_charpoly_matrix", kernel)
    monkeypatch.setattr(spectra, "_hessenberg_mod", hessenberg)
    monkeypatch.setattr(spectra, "_adjacency_charpoly", adjacency_route)
    return calls, orders, adjacency


def _difference_set_designs():
    from flagspec.designs import design_from_difference_set

    return [design_from_difference_set(v, base) for v, base in (
        (13, [0, 1, 3, 9]), (11, [1, 3, 4, 5, 9]), (21, [3, 6, 7, 12, 14]),
        (15, [0, 1, 2, 4, 5, 8, 10]),
    )]


def test_gamma1_route_equals_the_adjacency_route(catalog_designs, kernel_calls):
    from flagspec.designs import design_from_difference_set
    from flagspec.flag_graphs import gamma1

    calls, orders, adjacency = kernel_calls
    # the (19,9,4), (23,11,5) and (37,9,2) designs take the adjacency route
    # at 171, 253 and 333 vertices, only here
    designs = list(catalog_designs.values()) + _difference_set_designs() + [
        design_from_difference_set(v, base) for v, base in (
            (19, [1, 4, 5, 6, 7, 9, 11, 16, 17]),
            (23, [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]),
            (37, [1, 7, 9, 10, 12, 16, 26, 33, 34]))]
    for d in designs:
        g = gamma1(d).graph
        del orders[:], adjacency[:]
        route = char_poly(g)
        assert set(orders) == {min(d.v, d.b)} and not adjacency
        assert char_poly(Graph(g.n, g.edges)) == route
        assert adjacency == [g.n]
    # every plain copy is certified, so the kernel ran for the line route only
    assert len(calls) == len(designs)


def _shifted_signless_laplacian(root: Graph) -> list[list[int]]:
    """Q - 2I, with Q = D + A the signless Laplacian of root."""
    rows = [[0] * root.n for _ in range(root.n)]
    for u, v in root.edges:
        rows[u][v] = rows[v][u] = 1
    for u in range(root.n):
        rows[u][u] = root.degree(u) - 2
    return rows


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _line_graph_roots():
    rng = random.Random(7)
    star = Graph(6, [(0, v) for v in range(1, 6)])
    two_parts = Graph(11, list(cycle_graph(5).edges)
                      + [(u + 5, v + 5) for u, v in complete_graph(4).edges])
    roots = {
        "star": star,                      # m < N: adjacency route
        "cycle": cycle_graph(9),           # m = N
        "path": Graph(6, [(i, i + 1) for i in range(5)]),  # m = N - 1
        "isolated": Graph(8, list(complete_graph(5).edges)),  # 3 isolated
        "two-components": two_parts,
        "K5": complete_graph(5),
    }
    for i, (n, p) in enumerate([(7, 0.5), (8, 0.4), (9, 0.6), (10, 0.35),
                                (12, 0.3), (6, 0.9)]):
        roots[f"random-{i}"] = _shuffled(random_graph(n, p, 40 + i), rng)
    return roots


LINE_GRAPH_ROOTS = _line_graph_roots()


@pytest.mark.parametrize("name", LINE_GRAPH_ROOTS)
def test_line_graph_route_matches_berkowitz(name, kernel_calls):
    # no root here is bipartite with one degree on each side, so every
    # line graph takes the adjacency route
    _, _, adjacency = kernel_calls
    lg = line_graph(LINE_GRAPH_ROOTS[name])
    assert list(char_poly(lg).coeffs) == berkowitz_charpoly(lg)
    assert adjacency == [lg.n]


def _complete_bipartite(a: int, c: int) -> Graph:
    return Graph(a + c, [(i, a + j) for i in range(a) for j in range(c)])


def _reduction_roots():
    """name -> (root, order of the smaller colour class)."""
    from flagspec.catalog import get_design
    from flagspec.designs import incidence_graph

    cube = Graph(8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit])
    torus = Graph(24, [(6 * i + j, 6 * ((i + di) % 4) + (j + dj) % 6)
                       for i in range(4) for j in range(6) for di, dj in ((1, 0), (0, 1))])
    roots = {f"K{a},{c}": (_complete_bipartite(a, c), min(a, c))
             for a, c in ((2, 2), (2, 3), (3, 5), (4, 6), (5, 3))}
    # C8, C10, the cube and the torus have equal side degrees
    roots.update({"C8": (cycle_graph(8), 4), "C10": (cycle_graph(10), 5),
                  "cube": (cube, 4), "C4xC6": (torus, 12)})
    for d in [get_design("complete-6-20-10-3-4")] + _difference_set_designs():
        roots[f"incidence({d.v},{d.b})"] = (incidence_graph(d), min(d.v, d.b))
    return roots


REDUCTION_ROOTS = _reduction_roots()

# bipartite roots: C6 + chord has a side that mixes degrees 2 and 3, and
# K2,3 + K3,2 has one degree per side only when the sides of its two
# components are chosen to match
FALLBACK_ROOTS = {
    "C6+chord": Graph(6, list(cycle_graph(6).edges) + [(0, 3)]),
    "K2,3+K3,2": Graph(10, list(_complete_bipartite(2, 3).edges)
                       + [(u + 5, v + 5) for u, v in _complete_bipartite(3, 2).edges]),
}


def _line_oracle(root: Graph) -> list[int]:
    """(x + 2)^(m - N) det(xI - (Q - 2I)) by Berkowitz and term-by-term
    products: chi of the line graph of root."""
    poly = berkowitz_matrix_charpoly(_shifted_signless_laplacian(root))
    for _ in range(root.edge_count - root.n):
        poly = schoolbook_product(poly, [2, 1])
    return poly


@pytest.mark.parametrize("name", REDUCTION_ROOTS)
def test_biregular_reduction_matches_berkowitz(name, kernel_calls):
    _, orders, _ = kernel_calls
    root, order = REDUCTION_ROOTS[name]
    sides = nx.bipartite.sets(nx.Graph(root.edges))
    u, w = sorted((sorted(side) for side in sides), key=len)
    assert list(spectra._line_charpoly(root, u, w).coeffs) == _line_oracle(root)
    assert set(orders) == {order}


@pytest.mark.parametrize("name", REDUCTION_ROOTS)
def test_line_graph_alone_takes_the_adjacency_route(name, kernel_calls):
    # line_graph records no root, so only gamma1 takes the line route
    _, _, adjacency = kernel_calls
    root, _ = REDUCTION_ROOTS[name]
    lg = line_graph(root)
    assert list(char_poly(lg).coeffs) == _line_oracle(root)
    assert adjacency == [lg.n]


@pytest.mark.parametrize("name", FALLBACK_ROOTS)
def test_bipartite_roots_that_are_not_biregular_take_the_adjacency_route(
        name, kernel_calls):
    _, _, adjacency = kernel_calls
    root = FALLBACK_ROOTS[name]
    lg = line_graph(root)
    assert list(char_poly(lg).coeffs) == _line_oracle(root)
    assert adjacency == [lg.n]


def test_dominant_row_takes_hadamards_bound(monkeypatch):
    # the star K1,119: Hadamard's bound is 120 * 2^119, one factor for the
    # centre's row; AM-GM spreads its 119 ones over all 120 rows
    counts = []
    real_primes = spectra._modular_primes
    monkeypatch.setattr(spectra, "_modular_primes",
                        lambda beyond: counts.append(len(real_primes(beyond)))
                        or real_primes(beyond))
    star = Graph(120, [(0, v) for v in range(1, 120)])
    # chi = x^118 (x^2 - 119)
    assert spectra._charpoly_matrix(star.adjacency()) == IntPolynomial(
        [0] * 118 + [-119, 0, 1])
    assert counts == [3]
    square = -(-((star.n + 2 * star.edge_count) ** star.n) // star.n**star.n)
    am_gm = math.isqrt(square - 1) + 1
    assert len(real_primes(2 * am_gm)) == 4


def test_relabeled_line_graph_takes_the_adjacency_route(catalog_designs, kernel_calls):
    from flagspec.flag_graphs import gamma1

    _, orders, adjacency = kernel_calls
    d = catalog_designs["complete-6-20-10-3-4"]
    g = gamma1(d).graph
    copy = _shuffled(g, random.Random(3))
    copy_poly = char_poly(copy)
    assert adjacency == [g.n]
    del orders[:]
    assert char_poly(g) == copy_poly
    assert set(orders) == {min(d.v, d.b)} and adjacency == [g.n]


def test_line_graph_route_keeps_the_dense_vertex_limit(catalog_designs, monkeypatch):
    from flagspec import graphs
    from flagspec.errors import TooManyVertices
    from flagspec.flag_graphs import gamma1

    # the root of gamma1 of the Fano plane has 14 vertices, gamma1 itself 21
    monkeypatch.setattr(graphs, "DENSE_VERTEX_LIMIT", 20)
    g = gamma1(catalog_designs["fano-7-3-1"]).graph
    with pytest.raises(TooManyVertices):
        char_poly(g)


# ---------------------------------------------------------------------------
# adjacency route: a float64 guess, certified exactly
# ---------------------------------------------------------------------------

def _family_designs():
    """The benchmark's difference-set families, from perfbench/families.py,
    which builds each base block from first principles."""
    import importlib.util
    from pathlib import Path

    from flagspec.designs import design_from_difference_set

    path = Path(__file__).resolve().parents[1] / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("families", path)
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    return {name: design_from_difference_set(*families.family_base_block(name))
            for name in families.FAMILY_PARAMS}


def _certified_graphs() -> dict:
    """Incidence graphs, relabeled gamma1 and gamma2 of the catalog and the
    family designs, gamma1 only up to 333 vertices: 37 graphs."""
    from flagspec.catalog import BIPLANE_IDS, CATALOG_IDS, get_design
    from flagspec.designs import incidence_graph, validate_design
    from flagspec.flag_graphs import gamma1, gamma2

    designs = {i: get_design(i) for i in CATALOG_IDS}
    designs.update(_family_designs())
    rng = random.Random(31)
    out = {}
    for name, d in designs.items():
        p = validate_design(d)
        out[f"incidence:{name}"] = incidence_graph(d)
        if p.v * p.r <= 333:
            out[f"gamma1:{name}"] = _shuffled(gamma1(d).graph, rng)
        if name in BIPLANE_IDS or name == "quartic-37":
            out[f"gamma2:{name}"] = gamma2(d).graph
    return out


CERTIFIED_GRAPHS = _certified_graphs()


@pytest.mark.parametrize("name", CERTIFIED_GRAPHS)
def test_certificate_equals_the_hessenberg_kernel(name):
    a = CERTIFIED_GRAPHS[name].adjacency()
    certified = spectra._guess_and_certify(a)
    if name == "gamma2:quartic-37":
        # s = 21 and largest degree 8: 8^21 is past 2^53, so it falls back
        assert certified is None
    else:
        assert certified == spectra._charpoly_matrix(a)


@st.composite
def route_graphs(draw):
    """Random graphs at several densities, and unions of complete graphs
    and cycles, whose few distinct eigenvalues the guess can find."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return random_graph(draw(st.integers(1, 30)),
                            draw(st.sampled_from([0.1, 0.3, 0.5, 0.9])), seed)
    edges, n = [], 0
    for kind, size in draw(st.lists(st.tuples(st.booleans(), st.integers(1, 7)),
                                    min_size=1, max_size=5)):
        part = complete_graph(size) if kind or size < 3 else cycle_graph(size)
        edges += [(u + n, v + n) for u, v in part.edges]
        n += size
    return _shuffled(Graph(n, edges), random.Random(seed))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(route_graphs())
def test_adjacency_route_equals_the_hessenberg_kernel(g):
    a = g.adjacency()
    exact = spectra._charpoly_matrix(a)
    assert char_poly(g) == exact
    live = np.flatnonzero(a.any(axis=0))
    if len(live):
        certified = spectra._guess_and_certify(a[np.ix_(live, live)])
        assert certified is None or certified * IntPolynomial(
            [0] * (g.n - len(live)) + [1]) == exact


# gamma2 of the (16,6,2) biplane D3: (x + 3)^26 (x^2 - 2x - 7)^6 (x^2 - 2x - 3)^4
# (x - 1)^48 (x - 5)^2
D3_GAMMA2_FACTORS = [
    (IntPolynomial([3, 1]), 26), (IntPolynomial([-7, -2, 1]), 6),
    (IntPolynomial([-3, -2, 1]), 4), (IntPolynomial([-1, 1]), 48),
    (IntPolynomial([-5, 1]), 2),
]


def test_certificate_refutes_a_moved_multiplicity_and_a_shifted_eigenvalue(
        gamma2_graphs):
    a = gamma2_graphs["biplane-16-6-2-D3"].graph.adjacency().astype(np.float64)
    guess = spectra._guess_factors(np.linalg.eigvalsh(a))
    assert sorted(guess, key=lambda t: t[1]) == sorted(D3_GAMMA2_FACTORS,
                                                       key=lambda t: t[1])
    chi = spectra._charpoly_matrix(a.astype(np.uint8))
    assert spectra._certify(a, D3_GAMMA2_FACTORS) == chi
    # one copy of 1 becomes a copy of -3: mu(A) = 0 still holds
    moved = [(f, m + 1) if m == 26 else (f, m - 1) if m == 48 else (f, m)
             for f, m in D3_GAMMA2_FACTORS]
    assert spectra._certify(a, moved) is None
    # 5 becomes 6, with its multiplicity
    shifted = [(IntPolynomial([-6, 1]), m) if m == 2 else (f, m)
               for f, m in D3_GAMMA2_FACTORS]
    assert spectra._certify(a, shifted) is None
    # x^2 - 2 has the power sums 2, 0 of K2's spectrum 1, -1 below s = 2:
    # only mu(A) = 0 refutes it
    k2 = complete_graph(2).adjacency().astype(np.float64)
    assert spectra._certify(k2, [(IntPolynomial([-2, 0, 1]), 1)]) is None
    assert spectra._certify(k2, [(IntPolynomial([-1, 0, 1]), 1)]) == char_poly(
        complete_graph(2))


def test_a_guess_that_fails_its_certificate_takes_the_kernel(monkeypatch):
    from flagspec.catalog import clebsch_graph

    # Clebsch: 5, 1^10, (-3)^5, guessed with one copy of -3 moved to 1
    wrong = [(IntPolynomial([-5, 1]), 1), (IntPolynomial([-1, 1]), 11),
             (IntPolynomial([3, 1]), 4)]
    kernel = []
    real = spectra._charpoly_matrix
    monkeypatch.setattr(spectra, "_guess_factors", lambda values: wrong)
    monkeypatch.setattr(spectra, "_charpoly_matrix",
                        lambda mat: kernel.append(mat.shape[0]) or real(mat))
    g = clebsch_graph()
    assert list(char_poly(g).coeffs) == berkowitz_charpoly(g)
    assert kernel == [16]


def test_certificate_falls_back_just_past_the_float64_bound(monkeypatch):
    from flagspec.catalog import clebsch_graph

    # mu = (x - 5)(x - 1)(x + 3) = x^3 - 3x^2 - 13x + 15 and the largest
    # degree is 5: the Horner bound is 15 + 13*5 + 3*5^2 + 5^3 = 280
    a = clebsch_graph().adjacency()
    chi = spectra._charpoly_matrix(a)
    monkeypatch.setattr(spectra, "_FLOAT_EXACT", 281)
    assert spectra._guess_and_certify(a) == chi
    monkeypatch.setattr(spectra, "_FLOAT_EXACT", 280)
    assert spectra._guess_and_certify(a) is None
    assert char_poly(clebsch_graph()) == chi


def test_isolated_vertices_leave_before_the_guess(monkeypatch):
    from flagspec.catalog import clebsch_graph

    orders = []
    real = spectra._guess_and_certify
    monkeypatch.setattr(spectra, "_guess_and_certify",
                        lambda mat: orders.append(mat.shape[0]) or real(mat))
    clebsch = clebsch_graph()
    # Clebsch plus five isolated vertices, shuffled among its own
    g = _shuffled(Graph(21, clebsch.edges), random.Random(5))
    assert list(char_poly(g).coeffs) == berkowitz_charpoly(g)
    assert char_poly(g) == IntPolynomial([0] * 5 + [1]) * char_poly(clebsch)
    assert orders == [16, 16]
    # an edgeless graph is x^n, with neither the guess nor the kernel
    monkeypatch.setattr(spectra, "_charpoly_matrix", None)
    assert char_poly(Graph(50, [])) == IntPolynomial([0] * 50 + [1])
    assert orders == [16, 16]


def test_one_edge_among_3000_vertices_is_quick():
    # without the split the guess takes O(n^3) on a 3,000-square matrix,
    # seconds; with it a 2 x 2 matrix
    g = Graph(3000, [(17, 2500)])
    start = time.perf_counter()
    poly = char_poly(g)
    assert time.perf_counter() - start < 1.0
    assert poly == IntPolynomial([0] * 2998 + [-1, 0, 1])


# ---------------------------------------------------------------------------
# spectrum verification and formulas
# ---------------------------------------------------------------------------

def test_verify_spectrum_decides():
    c4_true = SpectrumClaim([(ev(2), 1), (ev(0), 2), (ev(-2), 1)])
    c4_false = SpectrumClaim([(ev(2), 2), (ev(-2), 2)])
    assert verify_spectrum(cycle_graph(4), c4_true)
    assert not verify_spectrum(cycle_graph(4), c4_false)


def test_verify_spectrum_refutes_a_wrong_degree_unexpanded(monkeypatch):
    def refuse(_):
        raise AssertionError("a claim of the wrong degree was expanded")

    monkeypatch.setattr(spectra, "claim_to_polynomial", refuse)
    monkeypatch.setattr(spectra, "char_poly", refuse)
    huge = SpectrumClaim([(ev(0), 10**9)])
    assert not verify_spectrum(cycle_graph(4), huge)
    # the integrality check still comes first
    with pytest.raises(NonIntegralClaim):
        verify_spectrum(cycle_graph(4), SpectrumClaim([(ev(Fraction(1, 2)), 10**9)]))


def test_verify_spectrum_refuses_a_graph_above_the_dense_limit_unexpanded(monkeypatch):
    from flagspec.errors import TooManyVertices
    from flagspec.graphs import DENSE_VERTEX_LIMIT

    def refuse(_):
        raise AssertionError("a claim on a graph above the dense limit was expanded")

    monkeypatch.setattr(spectra, "claim_to_polynomial", refuse)
    n = DENSE_VERTEX_LIMIT + 1
    with pytest.raises(TooManyVertices):
        verify_spectrum(Graph(n, []), SpectrumClaim([(ev(1), n)]))
    with pytest.raises(NonIntegralClaim):
        verify_spectrum(Graph(n, []), SpectrumClaim([(ev(Fraction(1, 2)), n)]))


def test_cospectral_smallest_pair():
    # the classical pair: C4 plus an isolated vertex, and the 4-star
    a = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
    b = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert cospectral(a, b)
    assert not cospectral(a, cycle_graph(5))


def test_incidence_formula_fano():
    p = DesignParams(7, 7, 3, 3, 1)
    claim = formula_spectrum_incidence(p)
    assert claim_to_text(claim) == "3, (√2)^6, (-√2)^6, -3"
    assert claim.total_multiplicity == 14


def test_gamma1_formula_collapses_for_symmetric_designs():
    p = DesignParams(16, 16, 6, 6, 2)
    claim = formula_spectrum_gamma1(p)
    assert claim_to_text(claim) == "10, 6^15, 2^15, (-2)^65"


def test_formulas_agree_with_char_poly(catalog_designs, gamma1_graphs):
    from flagspec.designs import incidence_graph, validate_design

    for did in ("fano-7-3-1", "biplane-7-4-2", "complete-6-20-10-3-4"):
        d = catalog_designs[did]
        p = validate_design(d)
        assert verify_spectrum(incidence_graph(d), formula_spectrum_incidence(p))
        assert verify_spectrum(gamma1_graphs[did].graph, formula_spectrum_gamma1(p))


# ---------------------------------------------------------------------------
# numeric clustering
# ---------------------------------------------------------------------------

def test_numeric_spectrum_known():
    out = numeric_spectrum(complete_graph(4), 1e-9)
    assert len(out) == 2
    (v1, m1), (v2, m2) = out
    assert m1 == 1 and abs(v1 - 3) < 1e-9
    assert m2 == 3 and abs(v2 + 1) < 1e-9


def test_numeric_spectrum_separates_close_values(gamma1_graphs):
    g = gamma1_graphs["biplane-7-4-2"].graph
    out = numeric_spectrum(g, 1e-9)
    expected = [
        (6.0, 1),
        (2 + math.sqrt(2), 6),
        (2 - math.sqrt(2), 6),
        (-2.0, 15),
    ]
    assert [m for _, m in out] == [m for _, m in expected]
    assert all(abs(a - b) < 1e-9 for (a, _), (b, _) in zip(out, expected))


def test_numeric_spectrum_builds_one_sturm_chain(monkeypatch):
    calls = []
    real = polynomials.sturm_chain

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(polynomials, "sturm_chain", counting)
    monkeypatch.setattr(spectra, "sturm_chain", counting, raising=False)
    clusters = numeric_spectrum(random_graph(16, 0.5, 3), 1e-9)
    assert len(clusters) > 10
    assert len(calls) == 1


def test_numeric_spectrum_refuses_a_tolerance_below_the_float64_floor(gamma1_graphs):
    # at 1e-15 eigvalsh splits gamma1(4,3,2)'s four distinct eigenvalues
    # into six clusters, [1, 2, 1, 2, 1, 5], which were all certified
    g = gamma1_graphs["biplane-4-3-2"].graph
    with pytest.raises(ValueError, match="below 2.13e-14"):
        numeric_spectrum(g, 1e-15)
    assert [m for _, m in numeric_spectrum(g, 1e-9)] == [1, 3, 3, 5]


def test_numeric_spectrum_two_clusters_cannot_share_an_eigenvalue(monkeypatch):
    # both clusters lie within tolerance of -1, the only eigenvalue near
    # them; above the floor that is a failed self-check
    split = np.array([-1 - 6e-10, -1 + 6e-10, -1 + 6e-10, 3.0])
    monkeypatch.setattr(spectra.np.linalg, "eigvalsh", lambda a: split)
    with pytest.raises(SelfCheckFailed, match="of its own"):
        numeric_spectrum(complete_graph(4), 1e-9)


def test_numeric_spectrum_certifies_coarse_clusters_that_merge_eigenvalues(
        gamma1_graphs, gamma2_graphs):
    # one cluster spans every distinct eigenvalue; its centre, near 0, is
    # certified by the root within tolerance of it
    for g, tolerance in ((gamma1_graphs["biplane-7-4-2"].graph, 3.0),
                         (gamma2_graphs["biplane-16-6-2-D3"].graph, 2.5)):
        [(centre, m)] = numeric_spectrum(g, tolerance)
        assert m == g.n and abs(centre) < tolerance


def test_numeric_spectrum_certifies_a_centre_near_the_tolerance(monkeypatch):
    # -1 + 9e-10 lies 0.9 tolerance from -1, K4's eigenvalue of multiplicity 3
    values = np.array([-1 + 9e-10] * 3 + [3.0])
    monkeypatch.setattr(spectra.np.linalg, "eigvalsh", lambda a: values)
    assert numeric_spectrum(complete_graph(4), 1e-9) == [(3.0, 1), (-0.9999999991, 3)]


def test_numeric_spectrum_of_edgeless_and_single_vertex_graphs():
    # chi = x^7 has the chain [x^7, 7x^6], and chi = x the chain [x, 1]
    assert numeric_spectrum(Graph(7, []), 1e-9) == [(0.0, 7)]
    assert numeric_spectrum(Graph(1, []), 1e-9) == [(0.0, 1)]


def test_numeric_spectrum_rejects_bad_tolerance():
    for tolerance in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="positive finite"):
            numeric_spectrum(cycle_graph(4), tolerance)


# ---------------------------------------------------------------------------
# self-checks raise, so python -O keeps them
# ---------------------------------------------------------------------------

def refuse_guesses(monkeypatch):
    """Send every adjacency-route graph to the Hessenberg kernel."""
    monkeypatch.setattr(spectra, "_guess_factors", lambda values: None)


def test_char_poly_edge_count_check_catches_a_short_modulus(monkeypatch):
    # one prime below the coefficient bound: CRT returns -8 mod 7 as -1
    refuse_guesses(monkeypatch)
    monkeypatch.setattr(spectra, "_modular_primes", lambda beyond: [7])
    with pytest.raises(SelfCheckFailed, match="coefficient is not -8"):
        char_poly(cycle_graph(8))


@pytest.mark.parametrize("offset, message", [
    (0, "not monic"),
    (1, "trace"),
    (2, "coefficient is not -5"),
])
def test_char_poly_self_checks_raise(monkeypatch, offset, message):
    real = spectra._charpoly_mod

    def tampered(h, p):
        row = real(h, p)
        row[len(row) - 1 - offset] += 1
        return row

    refuse_guesses(monkeypatch)
    monkeypatch.setattr(spectra, "_charpoly_mod", tampered)
    with pytest.raises(SelfCheckFailed, match=message):
        char_poly(cycle_graph(5))


def test_numeric_spectrum_certification_raises(monkeypatch):
    real = np.linalg.eigvalsh
    monkeypatch.setattr(spectra.np.linalg, "eigvalsh", lambda a: real(a) + 0.5)
    with pytest.raises(SelfCheckFailed, match="matches no exact eigenvalue"):
        numeric_spectrum(complete_graph(4), 1e-9)


# ---------------------------------------------------------------------------
# int64 limits of the modular arithmetic
# ---------------------------------------------------------------------------

P27 = (1 << 27) - 39  # a 27-bit prime: residue products come near 2^54


def _unit_subdiagonal(rng):
    # unit subdiagonal, random diagonal, and last columns filled with
    # residues just below p: the last steps of the recurrence subtract
    # about n products near p^2 / 2 each, past the int64 range at n > 1024
    n = 1100
    h = np.zeros((n, n), dtype=np.int64)
    h[np.arange(n), np.arange(n)] = rng.integers(0, P27, size=n)
    h[:, -8:] = np.triu(rng.integers(P27 - (1 << 20), P27, size=(n, 8)), 8 - n)
    h[np.arange(1, n), np.arange(n - 1)] = 1
    return h


def _zero_subdiagonal(rng):
    # a dense upper triangle of residues just below p over an all-zero
    # subdiagonal: the recurrence's table keeps two rows, and reuses them at
    # every step
    n = 300
    return np.triu(rng.integers(P27 - (1 << 20), P27, size=(n, n)))


def _broken_subdiagonal(rng):
    # a dense upper triangle of residues just below p over a subdiagonal
    # whose zeros cut it into short runs and one of 300 rows, longer than
    # the recurrence's chunk of 256
    n = 600
    h = np.triu(rng.integers(P27 - (1 << 20), P27, size=(n, n)))
    h[np.arange(1, n), np.arange(n - 1)] = rng.integers(1, P27, size=n - 1)
    for row in (1, 5, 6, 20, 37, 100, 400, 403, 450, 451, 520, 599):
        h[row, row - 1] = 0
    return h


@pytest.mark.parametrize(
    "build", [_unit_subdiagonal, _broken_subdiagonal, _zero_subdiagonal],
    ids=["unit-subdiagonal", "broken-subdiagonal", "zero-subdiagonal"])
def test_charpoly_recurrence_survives_adversarial_residues(build):
    assert spectra._CHUNK < 300  # the long run spans two chunks
    h = build(np.random.default_rng(1))
    coeffs = spectra._charpoly_mod(h, P27)
    rows = h.tolist()
    for x0 in (2, 12345, P27 - 7):
        value = 0
        for c in reversed(coeffs):
            value = (value * x0 + c) % P27
        assert value == hessenberg_det_mod(rows, x0, P27)


def test_edgeless_char_poly_stays_below_200_mb():
    # in a child process, so that max RSS is this computation's own: the
    # Hessenberg copy of 4,000 isolated vertices is 128 MB of int64, and
    # neither a second copy nor an (n + 1)^2 recurrence table may join it.
    # Linux carries the peak RSS of the address space that exec replaces
    # into ru_maxrss, and a spawned child replaces its parent's, so a small
    # launcher spawns the measured process and reports its os.wait4 rusage.
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    launcher = ("import os, sys\n"
                "pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ)\n"
                "_, status, usage = os.wait4(pid, 0)\n"
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    code = ("from flagspec.graphs import Graph\n"
            "from flagspec.spectra import char_poly\n"
            "raise SystemExit(char_poly(Graph(4000, [])).coeffs != (0,) * 4000 + (1,))")
    out = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True).stdout
    exit_code, max_rss = map(int, out.split())
    assert exit_code == 0
    assert max_rss < 200 * 1024  # kilobytes on Linux


def test_hessenberg_kernel_on_4000_zero_rows_stays_below_200_mb():
    # the twin of the test above on the kernel itself, which an edgeless
    # graph no longer reaches: the same launcher, and the 4,000-square zero
    # matrix straight into _charpoly_matrix
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    launcher = ("import os, sys\n"
                "pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ)\n"
                "_, status, usage = os.wait4(pid, 0)\n"
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    code = ("import numpy as np\n"
            "from flagspec.spectra import _charpoly_matrix\n"
            "chi = _charpoly_matrix(np.zeros((4000, 4000), dtype=np.uint8))\n"
            "raise SystemExit(chi.coeffs != (0,) * 4000 + (1,))")
    out = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True).stdout
    exit_code, max_rss = map(int, out.split())
    assert exit_code == 0
    assert max_rss < 200 * 1024  # kilobytes on Linux


def test_hessenberg_reduction_survives_adversarial_residues():
    # the first column operation sums n - 2 products (p-1)^2 per row
    n = 600
    m = np.full((n, n), P27 - 1, dtype=np.int64)
    m[1] = 0
    m[1, 0] = 1
    h = spectra._hessenberg_mod(m, P27)
    assert not np.tril(h, -2).any()

    def trace_of_square(a):
        a = a.astype(object)
        return int((a * a.T).sum()) % P27

    # similarity keeps tr(A) and tr(A^2)
    assert np.trace(h) % P27 == np.trace(m) % P27
    assert trace_of_square(h) == trace_of_square(m)


# ---------------------------------------------------------------------------
# integer path: several CRT primes, coefficient bound, claim expansion
# ---------------------------------------------------------------------------

MULTI_PRIME_GRAPHS = {f"K{n}": complete_graph(n) for n in range(20, 41)}
MULTI_PRIME_GRAPHS.update(
    (f"random-{n}-{p}", random_graph(n, p, 1000 + n)) for n, p in
    ((30, 0.9), (32, 0.75), (34, 0.8), (36, 0.6), (38, 0.85), (40, 0.7))
)


@pytest.mark.parametrize("name", MULTI_PRIME_GRAPHS)
def test_char_poly_matches_berkowitz_over_several_primes(name):
    g = MULTI_PRIME_GRAPHS[name]
    oracle = berkowitz_charpoly(g)
    assert list(char_poly(g).coeffs) == oracle
    bound = spectra._coeff_bound(g.adjacency())
    assert bound >= max(abs(c) for c in oracle)
    assert len(spectra._modular_primes(2 * bound)) >= 2


def _circulant(n: int, degree: int) -> np.ndarray:
    """Adjacency matrix of the degree-regular circulant graph on Z_n."""
    a = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        for step in range(1, degree // 2 + 1):
            a[i, (i + step) % n] = a[(i + step) % n, i] = 1
    return a


@pytest.mark.parametrize("n, m, primes", [(96, 480, 7), (333, 2664, 26)])
def test_coeff_bound_prime_counts(n, m, primes):
    # the bound of an adjacency matrix reads only n and m, so these
    # circulants take the primes of the adjacency route for gamma1 of the
    # (16,6,2) and (37,9,2) biplanes: 10- and 16-regular
    bound = spectra._coeff_bound(_circulant(n, 2 * m // n))
    assert len(spectra._modular_primes(2 * bound)) == primes


# primes the line route takes for gamma1 of each design
LINE_ROUTE_PRIMES = {
    "biplane-4-3-2": 1, "biplane-7-4-2": 1, "biplane-11-5-2": 2,
    "biplane-16-6-2-D1": 3, "biplane-16-6-2-D2": 3, "biplane-16-6-2-D3": 3,
    "fano-7-3-1": 1, "complete-6-20-10-3-4": 1,
    "(13,4,1)": 2, "(11,5,2)": 2, "(21,5,1)": 3, "(15,7,3)": 3,
}


def test_line_route_prime_counts(catalog_designs, monkeypatch):
    from flagspec.flag_graphs import gamma1

    counts = []
    real_primes = spectra._modular_primes

    def counting_primes(beyond):
        counts.append(len(real_primes(beyond)))
        return real_primes(beyond)

    monkeypatch.setattr(spectra, "_modular_primes", counting_primes)
    designs = dict(catalog_designs)
    designs.update(zip(["(13,4,1)", "(11,5,2)", "(21,5,1)", "(15,7,3)"],
                       _difference_set_designs()))
    got = {}
    for name, d in designs.items():
        del counts[:]
        char_poly(gamma1(d).graph)
        (got[name],) = counts
    assert got == LINE_ROUTE_PRIMES


@st.composite
def bound_graphs(draw, max_n=40):
    """Sparse, dense, disconnected, edgeless and complete graphs, n <= max_n."""
    kind = draw(st.sampled_from(
        ["sparse", "dense", "disconnected", "edgeless", "complete"]))
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "edgeless":
        return Graph(n, [])
    if kind == "complete":
        return complete_graph(n)
    if kind == "disconnected":
        half = n // 2
        left, right = random_graph(half, 0.7, seed), random_graph(n - half, 0.3, seed + 1)
        return Graph(n, list(left.edges) + [(u + half, v + half) for u, v in right.edges])
    return random_graph(n, 0.1 if kind == "sparse" else 0.9, seed)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(bound_graphs())
def test_coeff_bound_covers_the_coefficient_norm(g):
    # the Parseval bound caps the sum of squares, not only each coefficient
    bound = spectra._coeff_bound(g.adjacency())
    assert bound * bound >= sum(c * c for c in berkowitz_charpoly(g))
    # tr A = 0 and tr A^2 = 2m: the AM-GM bound reads nothing else of A,
    # and Hadamard's bound, prod (1 + deg v), meets it on regular graphs
    square = -(-((g.n + 2 * g.edge_count) ** g.n) // g.n**g.n)
    am_gm = math.isqrt(square - 1) + 1
    if len({g.degree(v) for v in range(g.n)}) == 1:
        assert bound == am_gm
    else:
        assert bound <= am_gm


@settings(derandomize=True, deadline=None, max_examples=60)
@given(bound_graphs(max_n=12), st.sampled_from([1e-9, 1e-3, 0.5, 2.5]))
def test_numeric_spectrum_matches_sympy_roots(g, tolerance):
    # sympy's exact real roots of chi, one distinct root per cluster within
    # [c - t, c + t] (endpoints as float64 computes them, the certificate's
    # own).  Clusters and roots both ascend and the intervals share one
    # width, so taking the least unused root that fits finds a matching
    # whenever one exists.
    clusters = numeric_spectrum(g, tolerance)
    assert sum(m for _, m in clusters) == g.n
    chi = sympy.Poly(list(reversed(char_poly(g).coeffs)), sympy.Symbol("x"))
    roots = sorted({r.evalf(50) for r in chi.real_roots()})
    assert len(roots) >= len(clusters)
    i = 0
    for centre, _ in reversed(clusters):
        lo, hi = sympy.Rational(centre - tolerance), sympy.Rational(centre + tolerance)
        while i < len(roots) and roots[i] < lo:
            i += 1
        assert i < len(roots) and roots[i] <= hi, (centre, roots)
        i += 1


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices, n <= 12.  One in four is -aI:
    chi = (x + a)^n has sum c_k^2 = sum C(n, k)^2 a^(2k) > (1 + a^2)^n for
    n >= 2, so the bound is wrong there without its |M_ii| terms.  One in
    four is the Gram matrix C C^T of a 0/1 matrix C, the matrix the line
    route reduces.  The rest have a nonzero trace and at least one negative
    diagonal entry."""
    n = draw(st.integers(1, 12))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        a = draw(st.integers(1, 9))
        return [[-a if i == j else 0 for j in range(n)] for i in range(n)]
    if kind == 1:
        bits = st.integers(0, 1)
        width = draw(st.integers(1, 12))
        c = [[draw(bits) for _ in range(width)] for _ in range(n)]
        return [[sum(x * y for x, y in zip(r, s)) for s in c] for r in c]
    entries = st.integers(-9, 9)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entries)
    rows[0][0] = draw(st.integers(-9, -1))
    if sum(rows[i][i] for i in range(n)) == 0:
        rows[-1][-1] += 1
    return rows


@settings(derandomize=True, deadline=None, max_examples=150)
@given(symmetric_matrices())
def test_coeff_bound_covers_symmetric_integer_matrices(rows):
    bound = spectra._coeff_bound(np.array(rows, dtype=np.int64))
    assert bound * bound >= sum(c * c for c in berkowitz_matrix_charpoly(rows))
    n, diagonal = len(rows), [rows[i][i] for i in range(len(rows))]
    if min(diagonal) >= 0 or max(diagonal) <= 0:
        # with a one-signed diagonal, Hadamard's bound is within AM-GM's
        total = n + 2 * abs(sum(diagonal)) + sum(x * x for r in rows for x in r)
        square = -(-(total**n) // n**n)
        assert bound <= math.isqrt(square - 1) + 1


@pytest.mark.parametrize("beyond", [1, 2**27, 2**200, 10**300, 2**681],
                         ids=lambda b: f"{b.bit_length()}-bit")
def test_modular_primes_are_the_shortest_descending_prefix(beyond):
    primes = spectra._modular_primes(beyond)
    spectra._modular_primes(2**2000)
    assert spectra._modular_primes(beyond) == primes
    # every prime below 2**27 down to the last one, in descending order
    assert primes == [q for q in range(2**27 - 1, primes[-1] - 1, -1)
                      if sympy.isprime(q)]
    assert math.prod(primes) > beyond >= math.prod(primes[:-1])


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("p", [7, P27])
def test_hessenberg_reduction_matches_the_reference(seed, p):
    # most entries are multiples of p, so many columns need a pivot swap or
    # have nothing to clear
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 31))
    mat = rng.integers(-(2**40), 2**40, size=(n, n))
    zero = rng.random((n, n)) < rng.uniform(0.3, 0.95)
    mat[zero] = p * rng.integers(-3, 4, size=int(zero.sum()))
    h = spectra._hessenberg_mod(mat, p)
    assert h.tolist() == hessenberg_mod_reference(mat.tolist(), p)


@st.composite
def claims(draw):
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        a = Fraction(draw(st.integers(-9, 9)),
                     draw(st.sampled_from([1, 1, 1, 2, 3])))
        m = draw(st.integers(1, 4))
        if draw(st.booleans()):
            entries.append((ev(a), m))
        else:
            b = Fraction(draw(st.integers(1, 5)),
                         draw(st.sampled_from([1, 1, 2, 3])))
            d = draw(st.sampled_from([2, 3, 4, 5, 8, 12, 13, 17]))
            entries += [(ev(a, b, d), m), (ev(a, -b, d), m)]
    return SpectrumClaim(entries)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(claims())
def test_claim_to_polynomial_matches_fraction_expansion(c):
    expected = fraction_claim_polynomial(c)
    if all(x.denominator == 1 for x in expected):
        ints = [int(x) for x in expected]
        assert claim_to_polynomial(c) == IntPolynomial(ints)
    else:
        with pytest.raises(NonIntegralClaim):
            claim_to_polynomial(c)


def test_claim_from_json_rejects_non_integers():
    entry = {"a": "2", "b": "1", "d": 2, "multiplicity": 3}
    with pytest.raises(ValueError, match="must be integers"):
        claim_from_json({"entries": [{**entry, "multiplicity": 2.5}]})
    with pytest.raises(ValueError, match="must be integers"):
        claim_from_json({"entries": [{**entry, "d": 2.9}]})
    with pytest.raises(ValueError, match="must be integers"):
        claim_from_json({"entries": [{"a": "1", "multiplicity": "2"}]})
    # json.loads gives bool for true, which Python counts as the int 1
    for key in ("multiplicity", "d"):
        with pytest.raises(ValueError, match="must be integers"):
            claim_from_json({"entries": [{**entry, key: True}]})


def _sympy_square_free_factor(m):
    s = d = 1
    for p, e in sympy.factorint(m).items():
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    return (1, 0) if m == 0 else (s, d)


@st.composite
def radicands(draw):
    """Integers up to 2**64: uniform draws, and a*a*b or p*q built from
    factors near the cube-root cut-off of trial division; and smooth
    multiples of those uniform draws, far above 2**64."""
    kind = draw(st.sampled_from(
        ["uniform", "square-times", "two-large", "smooth-times"]))
    if kind == "uniform":
        return draw(st.integers(0, 2**64))
    if kind == "smooth-times":
        return draw(st.integers(0, 2**64)) * 6 ** draw(st.integers(1, 80))
    if kind == "square-times":
        a = draw(st.integers(1, 2**32))
        return a * a * draw(st.integers(1, 2**64 // (a * a)))
    p = sympy.prevprime(draw(st.integers(2**10, 2**32)))
    return p * sympy.prevprime(draw(st.integers(3, 2**64 // p)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(radicands())
def test_square_free_factor_matches_sympy(m):
    assert spectra._square_free_factor(m) == _sympy_square_free_factor(m)


def test_square_free_factor_edge_cases():
    p = 2**61 - 1  # a Mersenne prime
    q = 4_294_967_291  # the largest prime below 2**32
    r = 2**31 - 1  # a Mersenne prime
    assert spectra._square_free_factor(q * q) == (q, 1)
    assert spectra._square_free_factor(3 * r * r) == (r, 3)
    assert spectra._square_free_factor(r * q) == (1, r * q)
    assert spectra._square_free_factor(p) == (1, p)
    assert spectra._square_free_factor(2**64) == (2**32, 1)
    for m, expected in [(0, (1, 0)), (1, (1, 1)), (8, (2, 2)), (72, (6, 2))]:
        assert spectra._square_free_factor(m) == expected
    # above 2**64, trial division still strips small factors quickly
    assert spectra._square_free_factor(2**64 + 1) == (1, 2**64 + 1)
    assert spectra._square_free_factor(2**70) == (2**35, 1)
    assert spectra._square_free_factor(3 * 2**201) == (2**100, 6)
    assert AlgebraicEigenvalue(0, 1, 2**70) == AlgebraicEigenvalue(2**35)
    # what is left after no prime factor up to 2**22 must be below 2**66
    with pytest.raises(ValueError, match="too large to factor"):
        spectra._square_free_factor(2**89 - 1)  # a Mersenne prime
    with pytest.raises(ValueError, match="too large to factor"):
        AlgebraicEigenvalue(0, 1, (10**12 + 39) ** 2)

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from flagspec import polynomials, spectra
from flagspec.designs import DesignParams
from flagspec.errors import NonIntegralClaim, SelfCheckFailed
from flagspec.graphs import Graph, complete_graph, cycle_graph
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
    fraction_claim_polynomial,
    hessenberg_det_mod,
    hessenberg_mod_reference,
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
    g = gamma1_graphs["fano-7-3-1"].graph
    assert list(char_poly(g).coeffs) == berkowitz_charpoly(g)


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
    primes = []
    real = spectra._hessenberg_mod
    monkeypatch.setattr(
        spectra, "_hessenberg_mod", lambda mat, p: primes.append(p) or real(mat, p)
    )
    g = complete_graph(6)
    poly = char_poly(g)
    per_poly = len(primes)
    assert per_poly > 0
    # every exact path asks the same instance again and gets the stored object
    assert char_poly(g) is poly
    assert verify_spectrum(g, SpectrumClaim([(ev(5), 1), (ev(-1), 5)]))
    assert numeric_spectrum(g, 1e-6)[0][1] == 1
    assert cospectral(g, g)
    assert len(primes) == per_poly
    # a new Graph with equal content computes again
    fresh = Graph(g.n, g.edges)
    assert fresh == g
    assert char_poly(fresh) == poly
    assert len(primes) == 2 * per_poly


def test_report_pass_computes_char_poly_once_per_graph(monkeypatch):
    from flagspec import reporting

    calls, computed = [], []
    real_char_poly, real_primes = spectra.char_poly, spectra._modular_primes

    def counting_char_poly(g):
        calls.append(g)
        return real_char_poly(g)

    def counting_primes(beyond):
        # one prime selection per polynomial actually computed
        computed.append(beyond)
        return real_primes(beyond)

    monkeypatch.setattr(spectra, "char_poly", counting_char_poly)
    monkeypatch.setattr(reporting, "char_poly", counting_char_poly)
    monkeypatch.setattr(spectra, "_modular_primes", counting_primes)
    reporting.run_reproduction(relabel_rounds=1, seed=1729)
    # the corpus, verify_spectrum and numeric_spectrum ask 30 graphs 48 times
    assert len({id(g) for g in calls}) == 30
    assert (len(calls), len(computed)) == (48, 30)


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


def test_numeric_spectrum_rejects_bad_tolerance():
    for tolerance in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="positive finite"):
            numeric_spectrum(cycle_graph(4), tolerance)


# ---------------------------------------------------------------------------
# self-checks raise, so python -O keeps them
# ---------------------------------------------------------------------------

def test_char_poly_edge_count_check_catches_a_short_modulus(monkeypatch):
    # one prime below the coefficient bound: CRT returns -8 mod 7 as -1
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


@pytest.mark.parametrize("build", [_unit_subdiagonal, _broken_subdiagonal],
                         ids=["unit-subdiagonal", "broken-subdiagonal"])
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
    bound = spectra._coeff_bound(g.n, g.edge_count)
    assert bound >= max(abs(c) for c in oracle)
    assert len(spectra._modular_primes(2 * bound)) >= 2


@pytest.mark.parametrize("n, m, primes", [(96, 480, 7), (333, 2664, 26)])
def test_coeff_bound_prime_counts(n, m, primes):
    # gamma1 of the (16,6,2) and (37,9,2) biplanes: 10- and 16-regular
    bound = spectra._coeff_bound(n, m)
    assert len(spectra._modular_primes(2 * bound)) == primes


@st.composite
def bound_graphs(draw):
    """Sparse, dense, disconnected, edgeless and complete graphs, n <= 40."""
    kind = draw(st.sampled_from(
        ["sparse", "dense", "disconnected", "edgeless", "complete"]))
    n = draw(st.integers(1, 40))
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
    bound = spectra._coeff_bound(g.n, g.edge_count)
    assert bound * bound >= sum(c * c for c in berkowitz_charpoly(g))


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

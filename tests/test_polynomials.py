import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from flagspec.polynomials import (
    IntPolynomial,
    _compose,
    _divmod,
    _sign_variations,
    exact_div,
    poly_gcd,
    square_free_part,
    sturm_chain,
)

from oracles import schoolbook_product

X = sympy.Symbol("x")


def to_sympy(p: IntPolynomial):
    return sympy.Poly(list(reversed(p.coeffs)), X)


def rand_poly(rng: random.Random, degree: int) -> IntPolynomial:
    coeffs = [rng.randint(-6, 6) for _ in range(degree)]
    coeffs.append(rng.choice([1, 2, -3]))
    return IntPolynomial(coeffs)


def count_roots(p: IntPolynomial, lo, hi) -> int:
    """Distinct real roots of p in (lo, hi], counted on one Sturm chain by
    sign variations, as numeric_spectrum counts them."""
    chain = sturm_chain(p)
    return _sign_variations(chain, Fraction(lo)) - _sign_variations(chain, Fraction(hi))


def test_construction_normalizes():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    z = IntPolynomial([0, 0])
    assert z.is_zero and z.degree == -1
    assert IntPolynomial([5]).degree == 0


def test_arithmetic_and_evaluation():
    p = IntPolynomial([1, 0, 1])  # 1 + x^2
    q = IntPolynomial([-1, 1])    # x - 1
    assert (p + q).coeffs == (0, 1, 1)
    assert (p - q).coeffs == (2, -1, 1)
    assert (p * q).coeffs == (-1, 1, -1, 1)
    assert (p * 3).coeffs == (3, 0, 3)
    assert p.evaluate(2) == 5
    assert p.evaluate(Fraction(1, 2)) == Fraction(5, 4)
    assert IntPolynomial([1, 0, 1]).evaluate(-3) == 10
    assert (IntPolynomial([1, 1]) * IntPolynomial([1, 1])).coeffs == (1, 2, 1)


def test_derivative_content_primitive():
    p = IntPolynomial([4, 0, 8])
    assert p.derivative().coeffs == (0, 16)
    assert p.content() == 4
    assert p.primitive().coeffs == (1, 0, 2)


def test_monic_and_coefficient_access():
    p = IntPolynomial([-3, 0, 0, 1])
    assert p.is_monic and p.leading == 1
    assert p.coefficient(0) == -3
    assert p.coefficient(2) == 0
    assert p.coefficient(7) == 0


def test_exact_division():
    num = IntPolynomial([-1, 0, 1])       # (x-1)(x+1)
    assert exact_div(num, IntPolynomial([-1, 1])).coeffs == (1, 1)
    with pytest.raises(ValueError):
        exact_div(num, IntPolynomial([3, 1]))  # remainder
    with pytest.raises(ValueError):
        exact_div(IntPolynomial([1, 1]), IntPolynomial([2]))  # non-integral


def test_gcd_matches_sympy():
    rng = random.Random(5)
    for _ in range(25):
        a = rand_poly(rng, rng.randint(0, 5))
        b = rand_poly(rng, rng.randint(0, 5))
        common = rand_poly(rng, rng.randint(0, 3))
        ours = poly_gcd(a * common, b * common)
        theirs = sympy.gcd(to_sympy(a * common), to_sympy(b * common))
        # both primitive with positive leading coefficient
        assert to_sympy(ours) == sympy.Poly(theirs.as_expr(), X).primitive()[1]


def test_square_free_part():
    factor = IntPolynomial([-1, 1])  # x - 1
    p = factor * factor * IntPolynomial([2, 1])
    sf = square_free_part(p)
    assert sf == factor * IntPolynomial([2, 1])
    rng = random.Random(11)
    for _ in range(15):
        q = rand_poly(rng, rng.randint(1, 4))
        squared = q * q
        out = to_sympy(square_free_part(squared)).as_expr()
        # the result divides the input and carries no repeated roots
        assert sympy.div(to_sympy(squared).as_expr(), out, X)[1] == 0
        assert sympy.degree(sympy.gcd(out, sympy.diff(out, X)), X) <= 0


def test_sturm_root_counts():
    p = IntPolynomial([-2, 0, 1])  # x^2 - 2
    assert count_roots(p, Fraction(1), Fraction(2)) == 1
    assert count_roots(p, Fraction(-2), Fraction(0)) == 1
    assert count_roots(p, Fraction(0), Fraction(1)) == 0
    # half-open (lo, hi]: a root exactly at hi counts, at lo it does not
    q = IntPolynomial([-4, 0, 1])  # roots at +-2
    assert count_roots(q, Fraction(0), Fraction(2)) == 1
    assert count_roots(q, Fraction(2), Fraction(3)) == 0
    # x^4 + x: the chain divides by -x with a degree gap of two, so the
    # pseudo-division scale |lead|^3 must stay positive
    assert count_roots(IntPolynomial([0, 1, 0, 0, 1]), -5, 5) == 2


def test_sturm_counts_match_sympy():
    rng = random.Random(23)
    for _ in range(20):
        p = rand_poly(rng, rng.randint(1, 6))
        if p.is_zero:
            continue
        sp = to_sympy(p)
        bounds = sorted(rng.sample(range(-8, 9), 2))
        lo, hi = Fraction(bounds[0]), Fraction(bounds[1])
        # choose endpoints that are not roots so open/closed agrees
        if sp.eval(bounds[0]) == 0 or sp.eval(bounds[1]) == 0:
            continue
        ours = count_roots(p, lo, hi)
        theirs = sp.count_roots(inf=bounds[0], sup=bounds[1])
        assert ours == theirs


def test_sturm_chain_shape():
    p = IntPolynomial([-2, 0, 1])
    chain = sturm_chain(p)
    assert chain[0] == p
    assert chain[1] == p.derivative()
    assert chain[-1].degree == 0


def test_construction_rejects_non_integers():
    # int() would truncate these to the zero polynomial and x + 2
    with pytest.raises(TypeError):
        IntPolynomial([Fraction(1, 2)])
    with pytest.raises(TypeError):
        IntPolynomial([2.7, 1])
    p = IntPolynomial([np.int64(3), True])
    assert p.coeffs == (3, 1)
    assert all(type(c) is int for c in p.coeffs)


# ---------------------------------------------------------------------------
# property tests against sympy, negative leading coefficients included
# ---------------------------------------------------------------------------

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def polys(draw, min_degree=0, max_degree=5):
    degree = draw(st.integers(min_degree, max_degree))
    low = draw(st.lists(st.integers(-6, 6), min_size=degree, max_size=degree))
    lead = draw(st.integers(-4, 4).filter(bool))
    return IntPolynomial(low + [lead])


def normalized(p):
    """Primitive part with positive leading coefficient, as a sympy Poly."""
    prim = p.primitive()[1]
    return -prim if prim.LC() < 0 else prim


@PROPERTY
@given(polys(), polys(), polys(max_degree=3))
def test_gcd_property(a, b, common):
    ours = poly_gcd(a * common, b * common)
    theirs = sympy.gcd(to_sympy(a * common), to_sympy(b * common))
    assert to_sympy(ours) == normalized(theirs)
    assert ours.leading > 0 and ours.content() == 1


@PROPERTY
@given(polys(min_degree=1), polys(max_degree=2))
def test_square_free_part_property(p, q):
    p = p * q * q
    ours = square_free_part(p)
    assert to_sympy(ours) == normalized(sympy.sqf_part(to_sympy(p)))


@PROPERTY
@given(polys(), polys())
def test_pseudo_division_property(a, b):
    quot, rem, scale = _divmod(a, b)
    assert scale == abs(b.leading) ** max(0, a.degree - b.degree + 1)
    assert IntPolynomial(quot) * b + IntPolynomial(rem) == a * scale
    _, rational_rem = sympy.div(to_sympy(a), to_sympy(b), domain=sympy.QQ)
    ours = sympy.Poly(list(reversed(rem)) or [0], X, domain=sympy.QQ)
    assert ours == rational_rem * scale


@PROPERTY
@given(polys(), polys())
def test_exact_div_property(a, b):
    assert exact_div(a * b, b) == a
    if any(c % 2 for c in a.coeffs):
        with pytest.raises(ValueError, match="not an integer polynomial"):
            exact_div(a * b, b * 2)
    else:
        half = IntPolynomial([c // 2 for c in a.coeffs])
        assert exact_div(a * b, b * 2) == half
    rational_quot, rational_rem = sympy.div(to_sympy(a), to_sympy(b),
                                            domain=sympy.QQ)
    if not rational_rem.is_zero:
        with pytest.raises(ValueError, match="not exact"):
            exact_div(a, b)
    elif any(c.q != 1 for c in rational_quot.all_coeffs()):
        with pytest.raises(ValueError, match="not an integer polynomial"):
            exact_div(a, b)
    else:
        quot = exact_div(a, b)
        assert list(reversed(quot.coeffs)) == rational_quot.all_coeffs()


@PROPERTY
@given(polys(min_degree=1, max_degree=6), st.integers(-9, 8),
       st.integers(1, 9))
def test_sturm_counts_property(p, lo, width):
    sp = to_sympy(p)
    hi = lo + width
    reduced = square_free_part(p)
    chain = sturm_chain(reduced)
    assert chain[0] == reduced and chain[1] == reduced.derivative()
    # endpoints that are roots count on the (lo, hi] side
    theirs = len({r for r in sympy.real_roots(sp) if lo < r <= hi})
    ours = _sign_variations(chain, Fraction(lo)) - _sign_variations(chain, Fraction(hi))
    assert ours == theirs


# ---------------------------------------------------------------------------
# packed products, Miller powers and composition against term-by-term
# references
# ---------------------------------------------------------------------------

@st.composite
def wide_polys(draw):
    """The zero polynomial, constants, and lengths up to 40 with
    mixed-sign coefficients up to 2**300 in magnitude, zeros included."""
    bits = draw(st.sampled_from([1, 4, 30, 64, 300]))
    size = draw(st.integers(0, 40))
    entry = st.one_of(st.just(0), st.integers(-(2**bits), 2**bits))
    return IntPolynomial(draw(st.lists(entry, min_size=size, max_size=size)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(wide_polys(), wide_polys())
def test_product_matches_the_schoolbook_product(a, b):
    assert (a * b).coeffs == IntPolynomial(schoolbook_product(a.coeffs, b.coeffs)).coeffs
    assert (a * b) == (b * a)


def test_product_slots_hold_their_extreme_coefficients():
    # |coefficient| equal to the l1 bound itself, at slot-width boundaries
    for bits in (7, 8, 15, 16, 63, 64, 300):
        big = IntPolynomial([2**bits - 1])
        for a, b in ((big, big), (-big, big), (IntPolynomial([1, 1]) * big, -big)):
            assert (a * b).coeffs == tuple(schoolbook_product(a.coeffs, b.coeffs))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(polys(max_degree=4), st.integers(0, 4), st.integers(0, 12))
def test_power_matches_repeated_products(p, shift, m):
    # x**shift * p, so the power shifts as well as expands
    p = IntPolynomial([0] * shift + list(p.coeffs))
    expected = IntPolynomial([1])
    for _ in range(m):
        expected = IntPolynomial(schoolbook_product(expected.coeffs, p.coeffs))
    assert p**m == expected


def test_power_edge_cases():
    zero, x = IntPolynomial([]), IntPolynomial([0, 1])
    assert zero**0 == IntPolynomial([1]) and (zero**5).is_zero
    assert IntPolynomial([-3]) ** 5 == IntPolynomial([-243])
    assert x**7 == IntPolynomial([0] * 7 + [1])
    assert IntPolynomial([5, 7]) ** np.int64(2) == IntPolynomial([25, 70, 49])
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(TypeError):
        x ** 2.0


def test_power_of_x_minus_one_is_binomial():
    m = 2000
    expected = [math.comb(m, k) * (-1) ** (m - k) for k in range(m + 1)]
    assert (IntPolynomial([-1, 1]) ** m).coeffs == tuple(expected)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(wide_polys(), polys(max_degree=3))
def test_composition_matches_the_expanded_sum(p, q):
    expected, power = IntPolynomial([]), IntPolynomial([1])
    for c in p.coeffs:
        expected = expected + IntPolynomial(schoolbook_product(power.coeffs, [c]))
        power = IntPolynomial(schoolbook_product(power.coeffs, q.coeffs))
    assert _compose(p, q) == expected

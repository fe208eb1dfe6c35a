"""Exact integer-coefficient polynomials.

Coefficients are stored in ascending degree order.  Everything here is
integer or Fraction arithmetic; no floating point.  The module also
provides primitive-PRS gcd, square-free parts, and Sturm chains, which the
spectra module uses to certify numeric eigenvalue clusters against exact
characteristic polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction


def poly_add(a, b):
    """Coefficient-list sum (works for int or Fraction entries)."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return out


def poly_mul(a, b):
    """Coefficient-list product (works for int or Fraction entries)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def poly_pow(a, e: int):
    out = [1]
    for _ in range(e):
        out = poly_mul(out, a)
    return out


def poly_eval(coeffs, x):
    """Horner evaluation; exact when coeffs and x are int or Fraction."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class IntPolynomial:
    """Polynomial with exact integer coefficients, ascending order.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("coefficients must be integers")
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, power: int) -> int:
        """Coefficient of x^power (0 beyond the stored degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(poly_add(self.coeffs, other.coeffs))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        return IntPolynomial(poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def evaluate(self, x):
        """Exact value at x (int or Fraction in, same kind out)."""
        return poly_eval(self.coeffs, x)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        """Divide out the content; sign follows the leading coefficient."""
        if self.is_zero:
            return self
        g = self.content()
        return IntPolynomial([c // g for c in self.coeffs])

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                x = "x" if power == 1 else f"x^{power}"
                body = x if mag == 1 else f"{mag}{x}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


def _divmod(
    a: IntPolynomial, b: IntPolynomial
) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by b over the rationals, as Fraction
    lists in ascending order; the remainder has no trailing zeros."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in a.coeffs]
    db, lead = b.degree, b.leading
    quot = [Fraction(0)] * max(0, len(rem) - db)
    while rem and len(rem) - 1 >= db:
        q = rem[-1] / lead
        shift = len(rem) - 1 - db
        quot[shift] = q
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= q * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def _primitive_from_fractions(fr: list[Fraction]) -> IntPolynomial:
    """Scale by a positive rational to a primitive integer polynomial."""
    if not fr:
        return IntPolynomial([])
    den = math.lcm(*(f.denominator for f in fr))
    ints = [int(f * den) for f in fr]
    g = math.gcd(*ints)
    return IntPolynomial([c // g for c in ints])


def exact_div(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """Quotient num/den, required to be exact over the integers."""
    quot, rem = _divmod(num, den)
    if rem:
        raise ValueError("division is not exact")
    if any(q.denominator != 1 for q in quot):
        raise ValueError("quotient is not an integer polynomial")
    return IntPolynomial([int(q) for q in quot])


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient.

    Primitive PRS: take the primitive part after every remainder step to
    keep coefficients bounded.
    """
    p, q = a.primitive(), b.primitive()
    while not q.is_zero:
        rem = _primitive_from_fractions(_divmod(p, q)[1])
        p, q = q, rem
    if p.is_zero:
        return p
    return p if p.leading > 0 else -p


def square_free_part(p: IntPolynomial) -> IntPolynomial:
    """p divided by gcd(p, p'): same roots, all simple."""
    if p.degree < 1:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree < 1:
        return p.primitive() if p.leading > 0 else -p.primitive()
    return exact_div(p.primitive() if p.leading > 0 else -p.primitive(), g)


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """Sturm sequence of a square-free polynomial.

    Each remainder is negated and rescaled to a primitive integer
    polynomial; positive rescaling preserves the sign-variation counts the
    root-counting theorem needs.
    """
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        rem = _primitive_from_fractions(_divmod(chain[-2], chain[-1])[1])
        if rem.is_zero:
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero]


def _sign_variations(values) -> int:
    signs = [(-1 if x < 0 else 1) for x in values if x != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots_in(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of square-free p in the interval (lo, hi]."""
    if lo >= hi:
        return 0
    chain = sturm_chain(p)
    at_lo = _sign_variations(q.evaluate(lo) for q in chain)
    at_hi = _sign_variations(q.evaluate(hi) for q in chain)
    return at_lo - at_hi

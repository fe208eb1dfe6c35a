"""Exact integer-coefficient polynomials.

Coefficients are stored in ascending degree order.  Arithmetic, division,
gcd, square-free parts and Sturm chains are integer-only (division is
pseudo-division); only Sturm sign counts evaluate at rational endpoints.
No floating point.  The spectra module uses the Sturm chains to certify
numeric eigenvalue clusters against exact characteristic polynomials.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import zip_longest


class IntPolynomial:
    """Polynomial with exact integer coefficients, ascending order.

    The zero polynomial has an empty coefficient tuple and degree -1.
    A product is one big-integer product (Kronecker substitution): each
    operand is packed as its value at 2**(8w), one coefficient per w-byte
    slot, with w taken from an l1 bound of the result so that no slot
    overflows, and the slots of the product are read back.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        try:
            # operator.index admits int and numpy integers, never a float
            # or Fraction that int() would truncate
            cs = [operator.index(c) for c in coeffs]
        except TypeError:
            raise TypeError("coefficients must be integers") from None
        while cs and cs[-1] == 0:
            cs.pop()
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
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return IntPolynomial([x + y for x, y in pairs])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial([])
        # every coefficient of ab is at most ||ab||_1 <= ||a||_1 ||b||_1
        width = _slot_bytes(_norm1(a) * _norm1(b))
        product = _pack(a, width) * _pack(b, width)
        return IntPolynomial(_unpack(product, width, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "IntPolynomial":
        """self**m for an integer m >= 0, with 0**0 = 1.

        A factor x**s of self becomes x**(s*m).  For the rest, f with
        f_0 != 0 and degree d, the coefficients a_k of f**m satisfy
        k f_0 a_k = sum over i = 1..min(k, d) of ((m + 1) i - k) f_i a_(k-i)
        (J.C.P. Miller), a_0 = f_0**m: each a_k is an integer, so the
        division is exact, and the whole power takes O(m d**2) products.
        """
        m = operator.index(m)
        if m < 0:
            raise ValueError("exponent must be non-negative")
        cs = self.coeffs
        if not cs:
            return IntPolynomial([] if m else [1])
        shift = next(i for i, c in enumerate(cs) if c)
        f = cs[shift:]
        d, f0 = len(f) - 1, f[0]
        out = [f0**m]
        for k in range(1, m * d + 1):
            total = sum(((m + 1) * i - k) * f[i] * out[k - i]
                        for i in range(1, min(k, d) + 1))
            out.append(total // (k * f0))
        return IntPolynomial([0] * (shift * m) + out)

    def evaluate(self, x):
        """Exact value at x by Horner (int or Fraction in, same kind out)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


def _norm1(coeffs) -> int:
    return sum(map(abs, coeffs))


def _slot_bytes(bound: int) -> int:
    """Slot width w in bytes for coefficients |c| <= bound < 2**(8w - 1)."""
    return bound.bit_length() // 8 + 1


def _pack(coeffs, width: int) -> int:
    """Value at 2**(8 * width) of the polynomial with these coefficients,
    each smaller than 2**(8 * width - 1) in magnitude."""
    zero = bytes(width)
    pos = b"".join(c.to_bytes(width, "little") if c > 0 else zero for c in coeffs)
    neg = b"".join((-c).to_bytes(width, "little") if c < 0 else zero for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(value: int, width: int, count: int) -> list[int]:
    """The count coefficients c_k of value = sum c_k 2**(8 * width * k),
    each below half a slot in magnitude: adding half a slot to every slot
    leaves digits c_k + half in [0, 2**(8 * width)), read without borrows."""
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    data = (value + offset).to_bytes(width * count, "little")
    return [int.from_bytes(data[i : i + width], "little") - half
            for i in range(0, width * count, width)]


def _compose(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p(q(x)), evaluated at the packed point q(2**(8w)) and unpacked once.

    Every coefficient of p(q) is at most ||p(q)||_1 <= sum |p_i| ||q||_1**i.
    """
    if p.is_zero or q.degree < 1:
        return IntPolynomial([p.evaluate(q.coefficient(0))])
    norm = _norm1(q.coeffs)
    width = _slot_bytes(IntPolynomial(map(abs, p.coeffs)).evaluate(norm))
    value = p.evaluate(_pack(q.coeffs, width))
    return IntPolynomial(_unpack(value, width, p.degree * q.degree + 1))


def _divmod(
    a: IntPolynomial, b: IntPolynomial
) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division: (q, r, s) with s*a = q*b + r, deg r < deg b.

    s = |lead(b)|^(deg a - deg b + 1), or 1 when deg a < deg b.  With the
    absolute value, r is a *positive* multiple of the remainder of a by b
    over the rationals, so it has that remainder's signs everywhere, which
    the Sturm sign-variation counts depend on.  q and r are ascending int
    lists; r has no trailing zeros.
    """
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    low = b.coeffs[:-1]
    scale, sign = abs(b.leading), (1 if b.leading > 0 else -1)
    steps = max(0, len(rem) - b.degree)
    quot = [0] * steps
    for shift in range(steps - 1, -1, -1):
        # scale by |lead(b)|, then cancel the top term with sign*c*x^shift*b
        c = rem.pop()
        if scale != 1:
            rem = [scale * x for x in rem]
            quot = [scale * x for x in quot]
        if c:
            quot[shift] = sign * c
            for i, bc in enumerate(low):
                rem[shift + i] -= sign * c * bc
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem, scale**steps


def exact_div(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """Quotient num/den, required to be exact over the integers."""
    quot, rem, scale = _divmod(num, den)
    if rem:
        raise ValueError("division is not exact")
    if any(q % scale for q in quot):
        raise ValueError("quotient is not an integer polynomial")
    return IntPolynomial([q // scale for q in quot])


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient.

    Primitive PRS: take the primitive part after every remainder step to
    keep coefficients bounded.
    """
    p, q = a.primitive(), b.primitive()
    while not q.is_zero:
        p, q = q, IntPolynomial(_divmod(p, q)[1]).primitive()
    if p.is_zero:
        return p
    return p if p.leading > 0 else -p


def square_free_part(p: IntPolynomial) -> IntPolynomial:
    """p divided by gcd(p, p'): same roots, all simple."""
    if p.degree < 1:
        return p
    prim = p.primitive() if p.leading > 0 else -p.primitive()
    g = poly_gcd(p, p.derivative())
    return prim if g.degree < 1 else exact_div(prim, g)


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """Sturm sequence of a square-free polynomial.

    Each pseudo-remainder is negated and reduced to its primitive part;
    both scalings are positive, so the sign-variation counts the
    root-counting theorem needs are those of the rational chain.
    """
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        rem = IntPolynomial(_divmod(chain[-2], chain[-1])[1]).primitive()
        if rem.is_zero:
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero]


def _sign_variations(chain: list[IntPolynomial], x: Fraction) -> int:
    """Sign changes along a Sturm chain evaluated at x, zeros skipped."""
    signs = [(-1 if y < 0 else 1) for y in (q.evaluate(x) for q in chain) if y != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

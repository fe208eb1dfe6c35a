"""Exact adjacency spectra.

char_poly computes the exact integer characteristic polynomial of the
adjacency matrix: the matrix is reduced to Hessenberg form modulo several
27-bit primes, the Hessenberg determinant recurrence produces the
polynomial mod each prime, and the integer coefficients are reconstructed
by the Chinese remainder theorem.  The primes are the fewest whose product
exceeds twice a rigorous coefficient bound, which Parseval's identity and
AM-GM give from the vertex and edge counts alone: every coefficient is at
most (1 + 2m/n)^(n/2) in absolute value (see _coeff_bound).  The cost is
the number of primes times the cost per prime (Dumas, Pernet & Wan 2005),
and the bound sets the first factor.  No floating point touches any
verification verdict; spectrum claims carry eigenvalues of the form
a + b*sqrt(d) and are checked by exact polynomial identity in Z[x].

The polynomial is kept on the Graph instance, so char_poly,
verify_spectrum, numeric_spectrum and cospectral compute it once per
instance; a new Graph with equal content computes it again.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .designs import DesignParams
from .errors import NonIntegralClaim, SelfCheckFailed
from .graphs import Graph, _json_int
from .polynomials import IntPolynomial, _sign_variations, square_free_part, sturm_chain


# trial division gives up at this f: every m whose part without prime
# factors up to 2**22 is below 2**66 factors (so every m up to 2**64, and
# every smooth m), after at most about 2.1 million odd candidates (0.5 s on
# one 2.1 GHz Xeon core)
_TRIAL_DIVISION_LIMIT = 2**22


def _square_free_factor(m: int) -> tuple[int, int]:
    """m = s**2 * d with d square-free; returns (s, d).

    Trial division stops once f**3 exceeds what is left, which then has at
    most two prime factors, all at least f: it is a square exactly when it
    is p**2, and square-free otherwise.  If f passes _TRIAL_DIVISION_LIMIT
    while f**3 <= rest, ValueError is raised.
    """
    if m < 0:
        raise ValueError("need a non-negative integer")
    s, d, rest = 1, 1, m
    f = 2
    while f * f * f <= rest:
        if f > _TRIAL_DIVISION_LIMIT:
            raise ValueError(
                f"square root argument {m} is too large to factor: {rest} "
                "has no prime factor up to 2**22 and is not below 2**66"
            )
        if rest % f == 0:
            e = 0
            while rest % f == 0:
                rest //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    root = math.isqrt(rest)
    if rest > 1 and root * root == rest:
        return s * root, d
    return s, d * rest


@dataclass(frozen=True)
class AlgebraicEigenvalue:
    """The real number a + b*sqrt(d), a and b rational, d square-free.

    Construction normalizes: a perfect-square part of d is folded into b,
    and rationals always carry b = 0, d = 0.
    """

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 0

    def __post_init__(self):
        a, b, d = Fraction(self.a), Fraction(self.b), operator.index(self.d)
        if d < 0:
            raise ValueError("d must be non-negative")
        if b != 0 and d >= 2:
            s, d = _square_free_factor(d)
            b *= s
        if d <= 1:
            a += b * d
            b, d = Fraction(0), 0
        if b == 0:
            d = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def conjugate(self) -> "AlgebraicEigenvalue":
        return AlgebraicEigenvalue(self.a, -self.b, self.d)

    def approx(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def render(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"√{self.d}" if abs(self.b) == 1 else f"{abs(self.b)}√{self.d}"
        if self.a == 0:
            return root if self.b > 0 else f"-{root}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{root}"

    def __str__(self) -> str:
        return self.render()


class SpectrumClaim:
    """Multiset of algebraic eigenvalues with multiplicities.

    Entries with equal values are merged, zero multiplicities dropped, and
    the list is sorted by decreasing value.  Every irrational entry must
    come with its conjugate at the same multiplicity, otherwise the claim
    could not expand to a rational polynomial.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        merged: dict[AlgebraicEigenvalue, int] = {}
        for ev, m in entries:
            m = operator.index(m)
            if m < 0:
                raise ValueError("multiplicity must be non-negative")
            if m == 0:
                continue
            merged[ev] = merged.get(ev, 0) + m
        for ev, m in merged.items():
            if ev.b != 0 and merged.get(ev.conjugate()) != m:
                raise ValueError(
                    f"conjugate of {ev} missing or at a different multiplicity"
                )
        self.entries = tuple(
            sorted(
                merged.items(),
                key=lambda t: (-t[0].approx(), t[0].a, t[0].b, t[0].d),
            )
        )

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SpectrumClaim) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"SpectrumClaim({claim_to_text(self)!r})"


def _claim_factors(c: SpectrumClaim) -> list[tuple[IntPolynomial, int]]:
    """The claim's monic irreducible factors over Q with multiplicities;
    raises NonIntegralClaim when one of them is not in Z[x]."""
    factors = []
    for ev, m in c.entries:
        if ev.b < 0:
            continue  # expanded together with its conjugate
        if ev.b == 0:
            coeffs = [-ev.a, 1]
        else:
            coeffs = [ev.a * ev.a - ev.b * ev.b * ev.d, -2 * ev.a, 1]
        if any(x.denominator != 1 for x in coeffs[:-1]):
            raise NonIntegralClaim(
                "claim expands to non-integer polynomial coefficients"
            )
        factors.append((IntPolynomial([int(x) for x in coeffs]), m))
    return factors


def claim_to_polynomial(c: SpectrumClaim) -> IntPolynomial:
    """Expand the claim to its monic polynomial over the integers.

    Rational entries contribute (x - a)^m, conjugate pairs contribute
    (x^2 - 2a x + (a^2 - b^2 d))^m.  These factors are irreducible over Q,
    and by Gauss's lemma a monic product lies in Z[x] exactly when each of
    its monic irreducible factors does, so a factor with a non-integer
    coefficient raises NonIntegralClaim before anything is expanded.
    """
    poly = IntPolynomial([1])
    for factor, m in _claim_factors(c):
        for _ in range(m):
            poly = poly * factor
    return poly


# ---------------------------------------------------------------------------
# exact characteristic polynomial
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _small_primes(limit: int) -> tuple[int, ...]:
    """All primes below limit, by sieve."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(limit) if sieve[i])


def _coeff_bound(n: int, m: int) -> int:
    """Bound B >= |c| for every char-poly coefficient c of a graph with n
    vertices and m edges: B = ceil(sqrt((1 + 2m/n)^n)).

    By Parseval on the unit circle, the sum of c_k^2 over all coefficients
    of chi(x) = prod_j (x - lambda_j) is the mean over t of |chi(e^it)|^2 =
    prod_j (1 - 2 lambda_j cos t + lambda_j^2).  That is a product of n
    non-negative reals whose mean is 1 + 2m/n at every t, because tr A = 0
    and tr A^2 = 2m, so by AM-GM it is at most (1 + 2m/n)^n.  Every |c_k|
    is therefore at most the square root of that, computed here in
    integers as ceil(sqrt(ceil((n + 2m)^n / n^n))).
    """
    square = -(-((n + 2 * m) ** n) // n**n)
    root = math.isqrt(square)
    return root if root * root == square else root + 1


# descending 27-bit primes found so far; _modular_primes extends it, and
# every call returns a prefix of it
_PRIMES: list[int] = []


def _modular_primes(beyond: int) -> list[int]:
    """The fewest descending 27-bit primes whose product exceeds `beyond`."""
    count, product = 0, 1
    while product <= beyond:
        if count == len(_PRIMES):
            small = _small_primes(11587)  # covers divisors up to sqrt(2^27)
            cand = _PRIMES[-1] - 2 if _PRIMES else (1 << 27) - 1
            while not all(cand % q for q in small if q * q <= cand):
                cand -= 2
            _PRIMES.append(cand)
        product *= _PRIMES[count]
        count += 1
    return _PRIMES[:count]


# A product of two residues mod a 27-bit prime is below 2^54, so an int64
# sum holds 512 of them; sums of such products are reduced mod p after at
# most _CHUNK terms.
_CHUNK = 256


def _hessenberg_mod(mat: np.ndarray, p: int) -> np.ndarray:
    """Similarity-reduce to upper Hessenberg form over GF(p), p < 2**27.

    The trailing rows are updated in place through one n x n scratch
    buffer and reduced as x - (x // p) * p: numpy divides int64 by a scalar
    through libdivide in floor_divide but not in remainder, several times
    faster.
    """
    h = np.mod(mat.astype(np.int64), p)
    n = h.shape[0]
    scratch = np.empty(n * n, dtype=np.int64)
    for col in range(n - 2):
        below = np.nonzero(h[col + 1 :, col])[0]
        if below.size == 0:
            continue
        piv = col + 1 + int(below[0])
        if piv != col + 1:
            h[[col + 1, piv]] = h[[piv, col + 1]]
            h[:, [col + 1, piv]] = h[:, [piv, col + 1]]
        inv = pow(int(h[col + 1, col]), p - 2, p)
        factors = (h[col + 2 :, col] * inv) % p
        # row operations, then the inverse column operations (similarity).
        # Rows col + 1 and below are already zero left of column col, and
        # the row operations clear column col below row col + 1, so only
        # columns col + 1 on need the update.
        rows = h[col + 2 :, col + 1 :]
        tmp = scratch[: rows.size].reshape(rows.shape)
        np.multiply(factors[:, None], h[col + 1, col + 1 :], out=tmp)
        rows -= tmp  # residues minus products of two: |x| < p**2 < 2**54
        np.floor_divide(rows, p, out=tmp)
        tmp *= p  # |x // p * p| <= |x| + p: exact, and x - it is in [0, p)
        rows -= tmp
        h[col + 2 :, col] = 0
        acc = h[:, col + 1]
        for off in range(0, n - col - 2, _CHUNK):
            block = h[:, col + 2 + off : col + 2 + off + _CHUNK]
            acc = (acc + block @ factors[off : off + _CHUNK]) % p
        h[:, col + 1] = acc
    return h


def _charpoly_mod(h: np.ndarray, p: int) -> list[int]:
    """Ascending coefficients of det(xI - h) over GF(p), for h upper
    Hessenberg with entries in 0..p-1.

    Uses the leading-principal-minor recurrence: the minor of order j is
    x * chi_{j-1} minus the sum over rows m < j of h[m, j-1] times the
    product of the subdiagonal entries h[m+1, m] .. h[j-1, j-2] times
    chi_m; the diagonal term is m = j - 1, with the empty product.  Those
    products are kept in `suffix`, and rows before the last zero
    subdiagonal entry, whose products are zero, are skipped.  The sum is
    one vector-matrix product per _CHUNK rows, each term a product of two
    residues, so every partial sum stays below 2**62 at any n.
    """
    n = h.shape[0]
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    subdiagonal = [0] + np.diagonal(h, -1).tolist()  # [k] is h[k, k-1]
    suffix = np.zeros(n, dtype=np.int64)
    lo = 0
    for j in range(1, n + 1):
        if subdiagonal[j - 1]:
            suffix[lo : j - 1] *= subdiagonal[j - 1]
            suffix[lo : j - 1] %= p
        else:
            lo = j - 1
        suffix[j - 1] = 1
        terms = h[lo:j, j - 1] * suffix[lo:j] % p
        row = polys[j]
        row[1 : j + 1] = polys[j - 1, :j]
        for start in range(lo, j, _CHUNK):
            stop = min(start + _CHUNK, j)
            row[:j] -= terms[start - lo : stop - lo] @ polys[start:stop, :j]
            row[:j] %= p
    return polys[n].tolist()


def char_poly(g: Graph) -> IntPolynomial:
    """Exact characteristic polynomial of the adjacency matrix of g.

    Above graphs.DENSE_VERTEX_LIMIT vertices, adjacency() raises
    TooManyVertices before anything is allocated.  The result is kept on g,
    so a repeat call on the same instance returns it without computing.
    """
    poly = g._derived.get("char_poly")
    if poly is not None:
        return poly
    n = g.n
    if n == 0:
        return IntPolynomial([1])
    adj = g.adjacency()
    primes = _modular_primes(2 * _coeff_bound(n, g.edge_count))
    rows = [_charpoly_mod(_hessenberg_mod(adj, p), p) for p in primes]
    # Chinese remainder: the weight of each prime is 1 mod it and 0 mod the
    # others; each coefficient is taken in (-q/2, q/2]
    q = math.prod(primes)
    weights = [q // p * pow(q // p, -1, p) for p in primes]
    coeffs = []
    for column in zip(*rows):
        c = sum(r * w for r, w in zip(column, weights)) % q
        coeffs.append(c - q if c > q // 2 else c)
    poly = IntPolynomial(coeffs)
    # free self-checks: monic, trace zero, x^(n-2) coefficient counts edges
    if poly.degree != n or not poly.is_monic:
        raise SelfCheckFailed(f"char poly of order {n} is not monic of degree {n}")
    if poly.coefficient(n - 1) != 0:
        raise SelfCheckFailed("char poly has a nonzero trace coefficient")
    if n >= 2 and poly.coefficient(n - 2) != -g.edge_count:
        raise SelfCheckFailed(f"char poly x^(n-2) coefficient is not -{g.edge_count}")
    g._derived["char_poly"] = poly
    return poly


def verify_spectrum(g: Graph, c: SpectrumClaim) -> bool:
    """Exact test: does the claim expand to char_poly(g)?

    A claim whose multiplicities do not add up to g.n has the wrong degree
    and is refuted without expanding it, after the integrality check.
    """
    if c.total_multiplicity != g.n:
        _claim_factors(c)
        return False
    return claim_to_polynomial(c) == char_poly(g)


def cospectral(g: Graph, h: Graph) -> bool:
    return g.n == h.n and char_poly(g) == char_poly(h)


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------

def formula_spectrum_incidence(p: DesignParams) -> SpectrumClaim:
    """sqrt(rk), (sqrt(r-lambda))^(v-1), 0^(b-v), mirrored negatives.

    For symmetric designs rk = k^2 and b = v, so the claim collapses to
    k, (+-sqrt(k-lambda))^(v-1), -k on its own.
    """
    zero = Fraction(0)
    return SpectrumClaim(
        [
            (AlgebraicEigenvalue(zero, Fraction(1), p.r * p.k), 1),
            (AlgebraicEigenvalue(zero, Fraction(1), p.r - p.lam), p.v - 1),
            (AlgebraicEigenvalue(zero), p.b - p.v),
            (AlgebraicEigenvalue(zero, Fraction(-1), p.r - p.lam), p.v - 1),
            (AlgebraicEigenvalue(zero, Fraction(-1), p.r * p.k), 1),
        ]
    )


def formula_spectrum_gamma1(p: DesignParams) -> SpectrumClaim:
    """r+k-2, ((r+k-4 +- sqrt(disc))/2)^(v-1), (k-2)^(b-v), (-2)^(bk-b-v+1).

    disc = (k-r)^2 + 4(r-lambda).  For symmetric designs this simplifies to
    2k-2, (k-2 +- sqrt(k-lambda))^(v-1), (-2)^(vk-2v+1).
    """
    disc = (p.k - p.r) ** 2 + 4 * (p.r - p.lam)
    half = Fraction(p.r + p.k - 4, 2)
    return SpectrumClaim(
        [
            (AlgebraicEigenvalue(Fraction(p.r + p.k - 2)), 1),
            (AlgebraicEigenvalue(half, Fraction(1, 2), disc), p.v - 1),
            (AlgebraicEigenvalue(half, -Fraction(1, 2), disc), p.v - 1),
            (AlgebraicEigenvalue(Fraction(p.k - 2)), p.b - p.v),
            (AlgebraicEigenvalue(Fraction(-2)), p.b * p.k - p.b - p.v + 1),
        ]
    )


# ---------------------------------------------------------------------------
# numeric view
# ---------------------------------------------------------------------------

def numeric_spectrum(g: Graph, tolerance: float) -> list[tuple[float, int]]:
    """Floating-point eigenvalues clustered within tolerance, descending.

    Every cluster center is certified to lie within tolerance of an exact
    root of char_poly(g) by a Sturm count on the square-free part; the
    exact path stays authoritative.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError("tolerance must be a positive finite number")
    if g.n == 0:
        return []
    values = np.linalg.eigvalsh(g.adjacency())
    clusters: list[list[float]] = [[float(values[0])]]
    for x in values[1:]:
        x = float(x)
        if x - clusters[-1][-1] <= tolerance:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    chain = sturm_chain(square_free_part(char_poly(g)))
    out = []
    for cl in reversed(clusters):
        center = sum(cl) / len(cl)
        lo, hi = Fraction(center - tolerance), Fraction(center + tolerance)
        at_lo = _sign_variations(chain, lo)
        if chain[0].evaluate(lo) != 0 and at_lo == _sign_variations(chain, hi):
            raise SelfCheckFailed(f"cluster at {center} matches no exact eigenvalue")
        out.append((center, len(cl)))
    return out


# ---------------------------------------------------------------------------
# interchange and rendering
# ---------------------------------------------------------------------------

def claim_to_json(c: SpectrumClaim) -> dict:
    return {
        "entries": [
            {"a": str(ev.a), "b": str(ev.b), "d": ev.d, "multiplicity": m}
            for ev, m in c.entries
        ]
    }


def claim_from_json(obj) -> SpectrumClaim:
    """Parse a claim object; a and b accept integers or strings like "9/2"."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("claim JSON must be an object with 'entries'")
    entries = []
    for item in obj["entries"]:
        if not isinstance(item, dict) or "multiplicity" not in item:
            raise ValueError(f"bad claim entry {item!r}")
        d, mult = item.get("d", 0), item["multiplicity"]
        if not (_json_int(d) and _json_int(mult)):
            raise ValueError(
                f"'d' and 'multiplicity' must be integers in {item!r}"
            )
        try:
            ev = AlgebraicEigenvalue(
                Fraction(str(item.get("a", 0))),
                Fraction(str(item.get("b", 0))),
                d,
            )
            ev.approx()  # SpectrumClaim orders entries by this float
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in claim entry {item!r}") from None
        except OverflowError:
            raise ValueError(
                f"value beyond float range in claim entry {item!r}"
            ) from None
        entries.append((ev, mult))
    return SpectrumClaim(entries)


def claim_to_text(c: SpectrumClaim) -> str:
    """Render like "10, 6^15, 2^15, (-2)^65"."""
    parts = []
    for ev, m in c.entries:
        value = ev.render()
        if m == 1:
            parts.append(value)
        elif ev.is_rational and ev.a >= 0 and ev.a.denominator == 1:
            parts.append(f"{value}^{m}")
        else:
            parts.append(f"({value})^{m}")
    return ", ".join(parts)

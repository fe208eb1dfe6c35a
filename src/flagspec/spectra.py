"""Exact adjacency spectra.

char_poly computes the exact integer characteristic polynomial of the
adjacency matrix.  gamma1, the line graph of a design's incidence graph,
records that root (N vertices, m >= N edges) and its two sides, with one
degree on each.  There chi_L(x) = (x + 2)^(m - N) chi_Q(x + 2), Q the
root's signless Laplacian, and a Schur complement takes chi_Q(x + 2) from
C C^T, C the root's biadjacency matrix, of the order of the smaller side
(_line_charpoly).  So gamma1's order-n problem becomes one of order
min(v, b), the matrix N N^T of the design, which the Hessenberg kernel
below reduces.

Every other graph takes the adjacency route (_adjacency_charpoly).
Isolated vertices leave first, as a factor x^i.  Then float64 eigenvalues
give a guess, factors f with multiplicities m, and an exact certificate
decides it: mu = prod f annihilates A, and s = deg mu power sums of the
roots match the traces tr(A^j), all in float64 arithmetic that stays below
2**53 and so is exact (_certify).  The graphs of the paper have few
distinct eigenvalues, so s is small and the certificate costs s products
of n x n matrices.  A random graph has n distinct eigenvalues: its guess
is refused or fails, as do graphs whose bound passes 2**53, and those fall
back to the one exact kernel.

That kernel, _charpoly_matrix, reduces an integer matrix to Hessenberg
form modulo several 27-bit primes; the Hessenberg determinant recurrence
produces the polynomial mod each prime, and the integer coefficients are
reconstructed by the Chinese remainder theorem.  The primes are the fewest
whose product exceeds twice one coefficient bound, which the kernel reads
off the matrix it reduces (_coeff_bound).  The cost is the number of
primes times the cost per prime (Dumas, Pernet & Wan 2005), and the bound
sets the first factor.  Every route ends in the same self-checks.

No floating point touches any verification verdict: the float64 guess is
proved or dropped, and spectrum claims carry eigenvalues of the form
a + b*sqrt(d) and are checked by exact polynomial identity in Z[x].

The polynomial is kept on the Graph instance, so char_poly,
verify_spectrum, numeric_spectrum and cospectral compute it once per
instance; a new Graph with equal content computes it again.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .designs import DesignParams
from .errors import NonIntegralClaim, SelfCheckFailed
from .graphs import Graph, _check_dense, _gram, _json_int
from .polynomials import (IntPolynomial, _compose, _sign_variations,
                          square_free_part, sturm_chain)


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
    Each factor is raised to its multiplicity by IntPolynomial.__pow__,
    and the powers are multiplied together.
    """
    poly = IntPolynomial([1])
    for factor, m in _claim_factors(c):
        poly = poly * factor**m
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


def _coeff_bound(mat: np.ndarray) -> int:
    """Bound B >= |c| for every coefficient c of det(xI - M), for a
    symmetric integer N x N matrix M: B = ceil(sqrt(S)), with Hadamard's
    bound S = prod_i (1 + 2|M_ii| + sum_j M_ij^2) on the sum of the squared
    coefficients.

    By Parseval on the unit circle, that sum is the mean over t of
    |chi(e^it)|^2 = det((e^it I - M)(e^-it I - M)), the determinant of a
    positive semidefinite matrix, so at most the product of its diagonal
    entries 1 - 2 cos t M_ii + sum_j M_ij^2.  By AM-GM, S is at most
    (1 + (2 sum_i |M_ii| + tr M^2)/N)^N, equal on regular graphs; one
    dominant row costs S one factor, not all N.

    The squares are summed in int64 without an int64 copy of M: at most
    2**26 entries, each below 2**13 in magnitude (a degree is below
    graphs.DENSE_VERTEX_LIMIT), so every sum stays below 2**52.
    """
    row_squares = np.einsum("ij,ij->i", mat, mat, dtype=np.int64)
    diagonal = np.abs(np.diagonal(mat).astype(np.int64))
    square = math.prod((1 + 2 * diagonal + row_squares).tolist())
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
    h = mat.astype(np.int64)
    h %= p  # in place: one n x n int64 array, not two
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
    subdiagonal entry lo, whose products are zero, are skipped; the table
    holds chi_(lo+i) in row i, so its rows are the longest run of nonzero
    subdiagonal entries plus two.  The sum is one vector-matrix product
    per _CHUNK rows, each term a product of two residues, so every partial
    sum stays below 2**62 at any n.
    """
    n = h.shape[0]
    subdiagonal = [0] + np.diagonal(h, -1).tolist()  # [k] is h[k, k-1]
    zeros = [k for k, s in enumerate(subdiagonal) if not s] + [n]
    depth = max(b - a for a, b in zip(zeros, zeros[1:]))
    polys = np.zeros((depth + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    suffix = np.zeros(n, dtype=np.int64)
    lo = 0
    for j in range(1, n + 1):
        if subdiagonal[j - 1]:
            suffix[lo : j - 1] *= subdiagonal[j - 1]
            suffix[lo : j - 1] %= p
        else:
            polys[0, :j] = polys[j - 1 - lo, :j]
            lo = j - 1
        suffix[j - 1] = 1
        terms = h[lo:j, j - 1] * suffix[lo:j] % p
        # a reused row is zero beyond column j, but not at column 0
        row = polys[j - lo]
        row[0] = 0
        row[1 : j + 1] = polys[j - 1 - lo, :j]
        for start in range(0, j - lo, _CHUNK):
            stop = min(start + _CHUNK, j - lo)
            row[:j] -= terms[start:stop] @ polys[start:stop, :j]
            row[:j] %= p
    return polys[n - lo].tolist()


def _charpoly_matrix(mat: np.ndarray) -> IntPolynomial:
    """det(xI - mat) for a symmetric integer matrix, over the primes that
    _coeff_bound(mat) calls for."""
    primes = _modular_primes(2 * _coeff_bound(mat))
    rows = [_charpoly_mod(_hessenberg_mod(mat, p), p) for p in primes]
    # Chinese remainder: the weight of each prime is 1 mod it and 0 mod the
    # others; each coefficient is taken in (-q/2, q/2]
    q = math.prod(primes)
    weights = [q // p * pow(q // p, -1, p) for p in primes]
    coeffs = []
    for column in zip(*rows):
        c = sum(r * w for r, w in zip(column, weights)) % q
        coeffs.append(c - q if c > q // 2 else c)
    return IntPolynomial(coeffs)


# The guess takes sorted eigenvalues closer than _CLUSTER_GAP times the
# spectral radius (at least 1) for one, and is refused when a coefficient
# lies more than _GUESS_MARGIN from an integer or is _GUESS_LIMIT or more in
# magnitude.  float64 holds every integer below _FLOAT_EXACT.
_CLUSTER_GAP = 1e-6
_GUESS_MARGIN = 1e-4
_GUESS_LIMIT = 2.0**40
_FLOAT_EXACT = 2**53


def _guess_factors(values: np.ndarray) -> list[tuple[IntPolynomial, int]] | None:
    """Monic factors f with multiplicities m, from ascending float64
    eigenvalues: the clusters of each size m are the roots of one f.

    The eigenvalues of multiplicity m are closed under conjugation, so
    when the clusters are right each f is in Z[x] and prod f^m is the
    characteristic polynomial.  A guess is only a guess: None when it is
    refused, and _certify decides the rest.
    """
    gap = _CLUSTER_GAP * max(1.0, float(np.abs(values).max()))
    groups: dict[int, list[float]] = {}
    for cluster in np.split(values, np.flatnonzero(np.diff(values) > gap) + 1):
        groups.setdefault(len(cluster), []).append(float(cluster.mean()))
    factors = []
    for m, centres in groups.items():
        coeffs = np.poly(centres)[::-1]
        rounded = np.rint(coeffs)
        # written so that a NaN refuses the guess too
        if not ((np.abs(rounded) < _GUESS_LIMIT)
                & (np.abs(coeffs - rounded) <= _GUESS_MARGIN)).all():
            return None
        factors.append((IntPolynomial(rounded.astype(np.int64).tolist()), m))
    return factors


def _power_sums(f: IntPolynomial, count: int) -> list[int]:
    """p_0 .. p_(count-1), p_j the sum of the j-th powers of the roots of the
    monic f = x^d + a_(d-1) x^(d-1) + ... + a_0, by Newton's identities:
    p_j = -(j a_(d-j) + sum over i = 1..min(j-1, d) of a_(d-i) p_(j-i)),
    the first term only for j <= d."""
    a, d = f.coeffs, f.degree
    sums = [d]
    for j in range(1, count):
        total = j * a[d - j] if j <= d else 0
        total += sum(a[d - i] * sums[j - i] for i in range(1, min(j - 1, d) + 1))
        sums.append(-total)
    return sums


def _certify(a: np.ndarray, factors) -> IntPolynomial | None:
    """prod f^m when that is det(xI - a), else None; a is a symmetric 0/1
    float64 matrix with no zero row, and f, m are _guess_factors' output.

    Let mu = prod f = x^s + c_(s-1) x^(s-1) + ... + c_0.  mu(a) = 0 puts
    every eigenvalue of a among the roots of mu, at most s of them, and
    tr(a^j) = sum m p_j(f) for j < s (j = 0 is the degree count) is a
    Vandermonde system over those roots, so each root's multiplicity in
    chi is its multiplicity in prod f^m.  Nothing else needs checking:
    a wrong or complex root fails the traces.

    Horner gives both: P_1 = a + c_(s-1) I and P_(k+1) = P_k a + c_(s-k-1) I
    end in P_s = mu(a), and tr(P_k) = sum over i <= k of c_(s-k+i) tr(a^i),
    a triangular system with unit diagonal, so comparing it with the same
    sum over the claimed traces for every k < s checks tr(a^j) for j < s.
    With D the largest degree, |P_k| <= B_k = sum over i <= k of
    |c_(s-k+i)| D^i, every partial sum of P_k a is at most D B_k, and B
    grows with k, so while B_s < _FLOAT_EXACT every float64 value is an
    exact integer, whatever order BLAS adds in.  Beyond it, None.
    """
    n = a.shape[0]
    if sum(f.degree * m for f, m in factors) != n:
        return None
    mu = IntPolynomial([1])
    for f, _ in factors:
        mu = mu * f
    c, s = mu.coeffs, mu.degree
    top = int(a.sum(axis=1).max())
    if sum(abs(x) * top**i for i, x in enumerate(c)) >= _FLOAT_EXACT:
        return None
    sums = [(_power_sums(f, s), m) for f, m in factors]
    traces = [sum(m * p[j] for p, m in sums) for j in range(s)]
    diagonal = np.arange(n), np.arange(n)
    p, spare = a.copy(), np.empty_like(a)
    p[diagonal] += c[s - 1]
    for k in range(1, s):
        if sum(map(int, p[diagonal].tolist())) != sum(
                c[s - k + i] * traces[i] for i in range(k + 1)):
            return None
        np.matmul(p, a, out=spare)
        p, spare = spare, p
        p[diagonal] += c[s - k - 1]
    if p.any():
        return None
    poly = IntPolynomial([1])
    for f, m in factors:
        poly = poly * f**m
    return poly


def _guess_and_certify(a: np.ndarray) -> IntPolynomial | None:
    """det(xI - a) by a float64 guess that _certify proves, or None."""
    a = a.astype(np.float64)
    factors = _guess_factors(np.linalg.eigvalsh(a))
    return None if factors is None else _certify(a, factors)


def _adjacency_charpoly(a: np.ndarray) -> IntPolynomial:
    """det(xI - a) for a symmetric 0/1 matrix a.

    The i zero rows and columns leave first, chi(a) = x^i chi(a'): the
    guess costs O(n^3) whatever the sparsity, while the Hessenberg kernel
    skips zero columns.  Then the guess is certified, and when it is
    refused or fails, _charpoly_matrix decides: a failed certificate is
    not an error, since the guess is a heuristic.
    """
    live = np.flatnonzero(a.any(axis=0))
    isolated = IntPolynomial([0] * (a.shape[0] - len(live)) + [1])
    if not len(live):
        return isolated
    if len(live) < a.shape[0]:
        a = a[np.ix_(live, live)]
    poly = _guess_and_certify(a)
    return isolated * (_charpoly_matrix(a) if poly is None else poly)


def _line_charpoly(root: Graph, u: Sequence[int], w: Sequence[int]) -> IntPolynomial:
    """Characteristic polynomial of the line graph of root (N vertices,
    m >= N edges), bipartite on the sides U and W recorded by gamma1, with
    degrees d_U and d_W, |U| <= |W|.

    With B the N x m vertex-edge incidence matrix, B^T B = 2I + A(L) and
    B B^T = Q = D + A share their nonzero eigenvalues, so chi_L(x) =
    (x + 2)^(m - N) det(xI - (Q - 2I)) (Cvetkovic, Rowlinson & Simic 2010,
    section 1.4).  Q - 2I = [[aI, C], [C^T, bI]], with a = d_U - 2,
    b = d_W - 2 and C the U x W biadjacency, so by a Schur complement
    det(xI - (Q - 2I)) = (x - b)^(|W| - |U|) chi_{CC^T}((x - a)(x - b)),
    and the kernel reduces CC^T, of order |U|.
    """
    a, b = root.degree(u[0]) - 2, root.degree(w[0]) - 2
    gram = _gram(root.adjacency()[np.ix_(u, w)])
    quadratic = IntPolynomial([a * b, -a - b, 1])
    shifted = (IntPolynomial([-b, 1]) ** (len(w) - len(u))
               * _compose(_charpoly_matrix(gram), quadratic))
    return IntPolynomial([2, 1]) ** (root.edge_count - root.n) * shifted


def char_poly(g: Graph) -> IntPolynomial:
    """Exact characteristic polynomial of the adjacency matrix of g.

    gamma1, which records its root and the root's sides, takes the line
    route (_line_charpoly); every other graph takes the adjacency route
    (_adjacency_charpoly), a certified float64 guess or the Hessenberg
    kernel.
    Above graphs.DENSE_VERTEX_LIMIT vertices either route raises
    TooManyVertices before anything is allocated.  The result is kept on
    g, so a repeat call on the same instance returns it without computing.
    """
    poly = g._derived.get("char_poly")
    if poly is not None:
        return poly
    n = g.n
    _check_dense(n)
    if n == 0:
        return IntPolynomial([1])
    line = g._derived.get("line_root")
    if line is None:
        poly = _adjacency_charpoly(g.adjacency())
    else:
        poly = _line_charpoly(*line)
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
    and is refuted without expanding it, after the integrality check.  A
    graph above graphs.DENSE_VERTEX_LIMIT vertices raises TooManyVertices
    after that check too, before the claim is expanded.
    """
    _claim_factors(c)
    if c.total_multiplicity != g.n:
        return False
    _check_dense(g.n)
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

    Every cluster center is certified to lie within tolerance of its own
    exact root of char_poly(g), distinct from those of the other clusters,
    by a Sturm count on the square-free part; the exact path stays
    authoritative.  A tolerance too fine for float64 to resolve is refused
    with ValueError, a failed certification above that with SelfCheckFailed.
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
    above = None  # the low end of the interval of the cluster above
    for cl in reversed(clusters):
        center = sum(cl) / len(cl)
        lo, hi = Fraction(center - tolerance), Fraction(center + tolerance)
        # count roots only where the cluster above does not reach, so that
        # no two clusters lean on one exact eigenvalue
        shared = above is not None and above <= hi
        if shared:
            hi = above
        found = (
            _sign_variations(chain, lo) - _sign_variations(chain, hi)
            + (chain[0].evaluate(lo) == 0) - (shared and chain[0].evaluate(hi) == 0)
        )
        if not found:
            # eigvalsh errs by up to about n * eps * ||A||_2 per eigenvalue
            # (LAPACK Users' Guide, section 4.7), eps = 2**-52, and ||A||_2 is
            # at most the largest degree: two copies of one eigenvalue can
            # lie twice that apart, so below this floor clusters may split them
            floor = 2 * g.n * max(map(g.degree, range(g.n))) * 2.0**-52
            message = f"cluster at {center} matches no exact eigenvalue of its own"
            if tolerance < floor:
                raise ValueError(f"tolerance {tolerance} is below {floor:.3g}, the "
                                 f"float64 eigenvalue error floor: {message}")
            raise SelfCheckFailed(message)
        out.append((center, len(cl)))
        above = lo
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


# Fraction expands a decimal exponent into an exact power of ten, so a few
# bytes such as "1e1000000000" would build a 415 MB integer; claim values
# with an exponent beyond this magnitude are refused before parsing.  An
# eigenvalue a + b*sqrt(d) of a graph is an algebraic integer, so a and b
# are integers or halves within float range (below 10**309), and none
# needs an exponent near the bound; 10**1000 is a 3,322-bit integer.
_MAX_DECIMAL_EXPONENT = 1000


def _claim_value(item: dict, key: str) -> Fraction:
    text = str(item.get(key, 0))
    _, marker, exponent = text.lower().partition("e")
    if marker:
        try:
            too_large = abs(int(exponent)) > _MAX_DECIMAL_EXPONENT
        except ValueError:
            too_large = False  # no exponent: Fraction reports the format
        if too_large:
            raise ValueError(
                f"decimal exponent of {key!r} beyond {_MAX_DECIMAL_EXPONENT} "
                f"in claim entry {item!r}"
            )
    return Fraction(text)


def claim_from_json(obj) -> SpectrumClaim:
    """Parse a claim object; a and b accept integers or strings like "9/2"
    (decimal exponents up to _MAX_DECIMAL_EXPONENT in magnitude)."""
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
                _claim_value(item, "a"),
                _claim_value(item, "b"),
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

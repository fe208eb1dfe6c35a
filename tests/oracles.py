"""Independent reference implementations used only by the tests.

These deliberately share no code with the package: the characteristic
polynomial comes from the Berkowitz recurrence on plain integers, canonical
certificates from minimizing over all vertex permutations, and concurrence
and common-neighbor counts from literal pair enumeration.  Slow is fine here; agreeing with the
fast paths is the point.
"""

from fractions import Fraction
from itertools import combinations, permutations

from flagspec.errors import PairCountMismatch, SelfCheckFailed
from flagspec.graphs import Graph


def schoolbook_product(a, b) -> list[int]:
    """Ascending coefficients of the product of two ascending coefficient
    lists, term by term (empty for a zero factor; trailing zeros kept)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def berkowitz_charpoly(g: Graph) -> list[int]:
    """Division-free characteristic polynomial of the adjacency matrix.

    Returns ascending coefficients of det(xI - A).
    """
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = 1
    return berkowitz_matrix_charpoly(rows)


def berkowitz_matrix_charpoly(rows) -> list[int]:
    """Ascending coefficients of det(xI - M) for a square integer matrix
    given as a list of rows, by the Berkowitz recurrence."""
    n = len(rows)
    vec = [1]  # descending coefficients, leading 1, for the empty matrix
    for k in range(n):
        a = rows[k][k]
        r = rows[k][:k]
        c = [rows[j][k] for j in range(k)]
        m = [row[:k] for row in rows[:k]]
        col = [1, -a]
        w = c[:]
        for _ in range(k):
            col.append(-sum(x * y for x, y in zip(r, w)))
            w = [sum(m[i][j] * w[j] for j in range(k)) for i in range(k)]
        new = []
        for i in range(k + 2):
            total = 0
            for j in range(min(i, k) + 1):
                if i - j < len(col):
                    total += col[i - j] * vec[j]
            new.append(total)
        vec = new
    return list(reversed(vec))


def hessenberg_det_mod(h, x0, p):
    """det(x0*I - h) mod p for upper Hessenberg h, by elimination on Python
    ints; one subdiagonal entry per column keeps it O(n^2)."""
    n = len(h)
    m = [[-v % p for v in row] for row in h]
    for i in range(n):
        m[i][i] = (m[i][i] + x0) % p
    det = 1
    for k in range(n):
        if k + 1 < n and m[k + 1][k]:
            if m[k][k] == 0:
                m[k], m[k + 1] = m[k + 1], m[k]
                det = -det
            f = m[k + 1][k] * pow(m[k][k], -1, p) % p
            m[k + 1][k:] = [(a - f * b) % p for a, b in zip(m[k + 1][k:], m[k][k:])]
        det = det * m[k][k] % p
    return det % p


def hessenberg_mod_reference(rows, p):
    """Upper Hessenberg form over GF(p) by elementary similarities on
    Python ints, reduced with %: for each column, the first row below the
    subdiagonal with a nonzero entry is swapped into place (row and
    column), then each entry below it is cleared by a row operation that is
    undone at once by the inverse column operation."""
    h = [[x % p for x in row] for row in rows]
    n = len(h)
    for col in range(n - 2):
        piv = next((i for i in range(col + 1, n) if h[i][col]), None)
        if piv is None:
            continue
        h[col + 1], h[piv] = h[piv], h[col + 1]
        for row in h:
            row[col + 1], row[piv] = row[piv], row[col + 1]
        inv = pow(h[col + 1][col], -1, p)
        for i in range(col + 2, n):
            f = h[i][col] * inv % p
            h[i] = [(a - f * b) % p for a, b in zip(h[i], h[col + 1])]
            for row in h:
                row[col + 1] = (row[col + 1] + f * row[i]) % p
    return h


def fraction_claim_polynomial(claim) -> list[Fraction]:
    """Ascending rational coefficients of a spectrum claim's polynomial.

    Expands (x - a)^m for rational entries and (x^2 - 2a x + a^2 - b^2 d)^m
    once per conjugate pair, term by term over the rationals.
    """
    poly = [Fraction(1)]
    for ev, m in claim.entries:
        if ev.b == 0:
            factor = [-ev.a, Fraction(1)]
        elif ev.b > 0:
            factor = [ev.a * ev.a - ev.b * ev.b * ev.d, -2 * ev.a, Fraction(1)]
        else:
            continue
        for _ in range(m):
            out = [Fraction(0)] * (len(poly) + len(factor) - 1)
            for i, x in enumerate(poly):
                for j, y in enumerate(factor):
                    out[i + j] += x * y
            poly = out
    return poly


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Try every vertex bijection; exponential, n <= 8."""
    assert g.n <= 8
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return any(g.relabel(list(perm)) == h for perm in permutations(range(g.n)))


def pair_concurrences(v: int, blocks) -> dict[tuple[int, int], int]:
    """How many blocks contain each point pair, by direct enumeration."""
    counts = {pair: 0 for pair in combinations(range(v), 2)}
    for block in blocks:
        for pair in combinations(sorted(set(block)), 2):
            counts[pair] += 1
    return counts


def pair_audit_classify(g: Graph):
    """(n, degrees, eta_set, mu_set, classification) by intersecting the
    neighbor sets of every vertex pair, labelled by the same rules as
    regularity.classify."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    degrees = frozenset(len(s) for s in nbrs)
    eta, mu = set(), set()
    for u, v in combinations(range(g.n), 2):
        (eta if v in nbrs[u] else mu).add(len(nbrs[u] & nbrs[v]))
    m = len(g.edges)
    if m == 0:
        label = "Edgeless"
    elif 2 * m == g.n * (g.n - 1):
        label = "Complete"
    elif len(degrees) != 1:
        label = "NotRegular"
    elif len(eta) <= 1 and len(mu) <= 1:
        label = "SRG"
    elif len(eta) <= 1:
        label = "QSRG"
    else:
        label = "AQSRG"
    return g.n, degrees, frozenset(eta), frozenset(mu), label


def counted_concurrence_params(v: int, blocks):
    """(v, b, r, k, lambda) of a uniform, non-trivial block system whose
    pairs are balanced, by counting pairs in a dict; the pair check raises
    what designs.validate_design raises, for the first pair in
    lexicographic order whose count differs from that of (0, 1).  Loops
    over every point pair, so v must stay small."""
    counts = {}
    for block in blocks:
        for pair in combinations(sorted(block), 2):
            counts[pair] = counts.get(pair, 0) + 1
    lam = counts.get((0, 1), 0)
    for pair in combinations(range(v), 2):
        if counts.get(pair, 0) != lam:
            raise PairCountMismatch(pair, counts.get(pair, 0), lam)
    reps = [0] * v
    for block in blocks:
        for p in block:
            reps[p] += 1
    if len(set(reps)) != 1:
        raise SelfCheckFailed(f"pair-balanced design with replications {set(reps)}")
    return v, len(blocks), reps[0], len(blocks[0]), lam

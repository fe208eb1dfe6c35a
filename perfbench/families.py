"""Design families beyond the catalog, built on design_from_difference_set.

Every family is a cyclic difference set developed through Z_v by the
library's public design_from_difference_set.  The base blocks are computed
here from first principles (finite-field traces, power residues), and the
resulting designs are checked against literal (v, b, r, k, lambda) tuples,
so a bug in the library's validator cannot confirm its own output.
"""

from __future__ import annotations

from itertools import product


class _Field:
    """GF(p^m) as polynomials over GF(p) modulo a primitive polynomial.

    Elements are coefficient tuples of length m, lowest degree first.  The
    modulus is the first monic degree-m polynomial (in lexicographic order
    of its lower coefficients) under which x has multiplicative order
    p^m - 1, so x itself is a primitive element.
    """

    def __init__(self, p: int, m: int):
        self.p, self.m = p, m
        self.order = p**m
        for low in product(range(p), repeat=m):
            self.modulus = low  # x^m = -(low[0] + low[1] x + ...)
            if low[0] and self._order_of_x() == self.order - 1:
                return
        raise ValueError(f"no primitive polynomial of degree {m} over GF({p})")

    def _times_x(self, a: tuple[int, ...]) -> tuple[int, ...]:
        top = a[-1]
        shifted = (0,) + a[:-1]
        return tuple((s - top * c) % self.p for s, c in zip(shifted, self.modulus))

    def _order_of_x(self) -> int:
        one = (1,) + (0,) * (self.m - 1)
        y = self._times_x(one)
        k = 1
        while y != one:
            y = self._times_x(y)
            k += 1
            if k > self.order:
                return 0
        return k

    def powers_of_x(self) -> list[tuple[int, ...]]:
        """x^0, x^1, ..., x^(p^m - 2): every nonzero element once."""
        out = [(1,) + (0,) * (self.m - 1)]
        for _ in range(self.order - 2):
            out.append(self._times_x(out[-1]))
        return out


def singer_difference_set(p: int, e: int, m: int) -> tuple[int, list[int]]:
    """Singer difference set of the hyperplanes of PG(m-1, q), q = p^e.

    With alpha primitive in GF(q^m) and v = (q^m - 1)/(q - 1), the set
    {i mod v : Tr_{q^m/q}(alpha^i) = 0} is a cyclic
    (v, (q^(m-1) - 1)/(q - 1), (q^(m-2) - 1)/(q - 1)) difference set.
    Returns (v, base block).
    """
    q = p**e
    field = _Field(p, e * m)
    powers = field.powers_of_x()
    size = len(powers)
    v = (q**m - 1) // (q - 1)
    base = []
    for i in range(v):
        # Tr(y) = y + y^q + ... + y^(q^(m-1)); y = alpha^i, so y^(q^j) is a
        # power of alpha and the sum is taken coefficient-wise over GF(p)
        total = [0] * field.m
        for j in range(m):
            for t, c in enumerate(powers[(i * q**j) % size]):
                total[t] = (total[t] + c) % p
        if not any(total):
            base.append(i)
    return v, base


def power_residues(q: int, power: int) -> list[int]:
    """Nonzero power-th powers modulo the prime q."""
    return sorted({pow(x, power, q) for x in range(1, q)})


# name -> (constructor arguments, literal expected (v, b, r, k, lambda))
FAMILY_PARAMS = {
    "singer-pg2-3": (13, 13, 4, 4, 1),
    "singer-pg2-4": (21, 21, 5, 5, 1),
    "singer-pg2-5": (31, 31, 6, 6, 1),
    "paley-qr-19": (19, 19, 9, 9, 4),
    "paley-qr-23": (23, 23, 11, 11, 5),
    "paley-qr-31": (31, 31, 15, 15, 7),
    "quartic-37": (37, 37, 9, 9, 2),
    "singer-gf32-trace0": (31, 31, 15, 15, 7),
}


def family_base_block(name: str) -> tuple[int, list[int]]:
    """(group order, base block) of a named family member."""
    if name.startswith("singer-pg2-"):
        q = int(name.rsplit("-", 1)[1])
        p, e = {3: (3, 1), 4: (2, 2), 5: (5, 1)}[q]
        return singer_difference_set(p, e, 3)
    if name == "singer-gf32-trace0":
        return singer_difference_set(2, 1, 5)
    if name.startswith("paley-qr-"):
        q = int(name.rsplit("-", 1)[1])
        return q, power_residues(q, 2)
    if name == "quartic-37":
        return 37, power_residues(37, 4)
    raise KeyError(name)


def build_family_design(fs, name: str):
    """Develop the named difference set with the library and check its
    parameters against the literal table; raises on any disagreement."""
    v, base = family_base_block(name)
    d = fs.design_from_difference_set(v, base)
    got = fs.validate_design(d).as_tuple()
    if got != FAMILY_PARAMS[name]:
        raise AssertionError(f"{name}: parameters {got} != {FAMILY_PARAMS[name]}")
    return d

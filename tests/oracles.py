"""Z[e] by exhaustion and by scans, the tests' oracles.

It imports nothing from symbalg and shares no code with it: elements are
int pairs (a, b) for a + b*e, pi | z is read off z*conj(pi) exactly, the
image of e is found by trying every residue, cubes and powers are
enumerated by repeated multiplication, associates by trying all six
units, and the canonical pi above a split p by a scan of the window.
"""

import itertools
import math

# +-1, +-e, +-e^2, with e^2 = -1 - e
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1))


def pair_mul(x, y):
    """(a + b*e)(c + d*e) with e^2 = -1 - e."""
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c - b * d


def power(z, k):
    """z^k for a pair z and k >= 0, by k multiplications."""
    value = (1, 0)
    for _ in range(k):
        value = pair_mul(value, z)
    return value


def conjugate(z):
    """a + b*e^2 = (a - b) - b*e."""
    a, b = z
    return a - b, -b


def norm(z):
    a, b = z
    return a * a - a * b + b * b


def is_associate(x, y):
    """x = y * u for one of the six units u."""
    return any(pair_mul(y, u) == x for u in UNITS)


def in_window(z):
    """a > 0 and 0 <= b < a, which holds for exactly one associate of z != 0."""
    a, b = z
    return a > 0 and 0 <= b < a


def canonical_associate(z):
    """The associate of z in the window, found among all six."""
    if z == (0, 0):
        raise ValueError("zero has no canonical associate")
    (t,) = [t for t in (pair_mul(z, u) for u in UNITS) if in_window(t)]
    return t


def window_pi(p):
    """The canonical pi above a split p by an O(sqrt p) scan.  Each of the
    two primes above p has exactly one associate in the window; pi is the
    smaller one, found as the first a whose discriminant 4p - 3a^2 gives
    an integer root b in the window."""
    for a in range(1, math.isqrt(4 * p // 3) + 1):
        disc = 4 * p - 3 * a * a
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        window = [b for b in ((a - r) // 2, (a + r) // 2) if (a + r) % 2 == 0 and 0 <= b < a]
        if window:
            return a, min(window)
    raise AssertionError(f"no element of norm {p}")


def divides(pi, z):
    """pi | z: N(pi) divides both coordinates of z*conj(pi)."""
    n = norm(pi)
    return all(c % n == 0 for c in pair_mul(z, conjugate(pi)))


def strip(pi, z):
    """(v, z / pi^v) for the largest v with pi^v | z, for z != 0, dividing
    exactly as z*conj(pi) / N(pi)."""
    if z == (0, 0):
        raise ValueError("zero has no valuation")
    n, v = norm(pi), 0
    while True:
        t = pair_mul(z, conjugate(pi))
        if t[0] % n or t[1] % n:
            return v, z
        z, v = (t[0] // n, t[1] // n), v + 1


class Residues:
    """Z[e]/pi for a prime pi above p.  When pi | e - r for some r in
    0..p-1, the field is F_p and e maps to r; otherwise it is F_p[e], held
    as pairs mod p."""

    def __init__(self, pi, p):
        self.pi, self.p = pi, p
        # two images r, r' would give pi | r - r', so p | r - r', which 0 < |r - r'| < p rules out
        self.r = next((r for r in range(p) if divides(pi, (-r, 1))), None)
        self.zero = self.reduce((0, 0))
        self.one = self.reduce((1, 0))

    def reduce(self, z):
        a, b = z
        if self.r is None:
            return a % self.p, b % self.p
        return (a + b * self.r) % self.p

    def elements(self):
        if self.r is None:
            return itertools.product(range(self.p), repeat=2)
        return range(self.p)

    def mul(self, x, y):
        if self.r is None:
            return self.reduce(pair_mul(x, y))
        return x * y % self.p

    def cubes(self):
        return {self.mul(self.mul(x, x), x) for x in self.elements()}

    def symbol(self, z):
        """k with z^((N - 1)/3) = e^k in Z[e]/pi, or None when pi | z."""
        x = self.reduce(z)
        if x == self.zero:
            return None
        size = self.p if self.r is not None else self.p * self.p
        value = self.one
        for _ in range((size - 1) // 3):
            value = self.mul(value, x)
        return [self.reduce(e) for e in ((1, 0), (0, 1), (-1, -1))].index(value)

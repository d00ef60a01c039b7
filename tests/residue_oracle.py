"""Z[e]/pi by exhaustion, for the tests' cube and residue oracles.

It shares no code with symbalg: elements are int pairs (a, b) for a + b*e,
pi | z is read off z*conj(pi) exactly, the image of e is found by trying
every residue, and cubes and powers are enumerated by repeated
multiplication.
"""

import itertools


def pair_mul(x, y):
    """(a + b*e)(c + d*e) with e^2 = -1 - e."""
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c - b * d


def is_associate(x, y):
    """x = y * u for one of the six units u of Z[e], for x and y given as
    anything with the coordinates .a and .b of a + b*e."""
    units = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1))
    return any(pair_mul((y.a, y.b), u) == (x.a, x.b) for u in units)


def divides(pi, z):
    """pi | z: N(pi) divides both coordinates of z*conj(pi)."""
    a, b = pi
    n = a * a - a * b + b * b
    return all(c % n == 0 for c in pair_mul(z, (a - b, -b)))


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

    @classmethod
    def of(cls, prime):
        return cls((prime.pi.a, prime.pi.b), prime.p)

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

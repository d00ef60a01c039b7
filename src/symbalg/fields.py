"""Exact arithmetic over Q and quadratic extensions Q[t]/(t^2 + u*t + w).

Elements are pairs of reduced rationals attached to a shared descriptor.
The cube-root-of-unity field uses minimal polynomial coefficients
(u, w) = (1, 1); square-root fields Q(sqrt d) use (0, -d).  The text
grammar prints the quadratic generator as ``w``, e.g. ``3+1*w``.

Coefficient pairs (a0, a1) = a0 + a1*t multiply by ``base.pair_mul``, the
one product of pairs, which the field, the algebras, ``linalg`` and Z[e]
share.  ``symbol_product`` is the one product of the algebras built on the
field: the symbol algebra of degree n, of which the quaternion algebra is
the case n = 2, zeta = -1.  It twists each left coefficient by powers of
zeta, with no product when zeta is -1 or a root of unity of Q(e), and
multiplies by alpha and beta once per output bin, on the
``symbol_constants`` each algebra builds once.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .base import ParseError, Record, format_pair, pair_add, pair_conj_norm, pair_mul, read_element, read_rational


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (only integer numerator/denominator forms)."""
    return Fraction(*read_rational(text))


def _squarefree(n: int) -> bool:
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
        d += 1
    return True


def _exact(c) -> Fraction:
    if isinstance(c, int):  # and nothing else: a float is never a coefficient
        return Fraction(c)
    raise TypeError(f"a coefficient must be an int or a Fraction, not {type(c).__name__}")


class FieldDescriptor(Record):
    """Q (degree 1) or the quadratic field Q[t]/(t^2 + u*t + w) (degree 2), for
    ints u and w, as every quadratic field has such a t; it keeps one shared zero and one."""

    __slots__ = ("degree", "u", "w", "_zero", "_one")

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValueError("only Q and quadratic extensions are supported")
        if type(self.u) is not int or type(self.w) is not int:
            raise ValueError("u and w must be ints")
        disc = self.u * self.u - 4 * self.w
        if self.degree == 2 and disc >= 0 and math.isqrt(disc) ** 2 == disc:
            raise ValueError("t^2 + u*t + w must be irreducible over Q")
        object.__setattr__(self, "_zero", FieldElement(self, 0))
        object.__setattr__(self, "_one", FieldElement(self, 1))

    def element(self, c0, c1=0) -> "FieldElement":
        return FieldElement(self, c0, c1)

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def lift(self, q) -> "FieldElement":
        """Canonical embedding of a rational; the only cross-field coercion."""
        return FieldElement(self, q)

    def gen(self) -> "FieldElement":
        if self.degree == 1:
            raise ValueError("Q has no quadratic generator")
        return self.element(0, 1)


class FieldElement(Record):
    """c0 + c1*t over the descriptor's field; immutable, exact, from int or Fraction c0 and c1."""

    __slots__ = ("desc", "c0", "c1")

    def __init__(self, desc: FieldDescriptor, c0, c1=Fraction(0)):
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "c0", c0 if isinstance(c0, Fraction) else _exact(c0))
        object.__setattr__(self, "c1", c1 if isinstance(c1, Fraction) else _exact(c1))
        if desc.degree == 1 and self.c1 != 0:
            raise ValueError("rational field element cannot carry a generator part")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.desc != self.desc:
                raise ValueError("elements belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.desc.lift(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.desc, self.c0 + o.c0, self.c1 + o.c1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.desc, self.c0 - o.c0, self.c1 - o.c1)

    def __neg__(self):
        return FieldElement(self.desc, -self.c0, -self.c1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.desc, *pair_mul((self.c0, self.c1), (o.c0, o.c1), self.desc.u, self.desc.w))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def inv(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # norm is nonzero for nonzero elements because the minimal polynomial
        # is irreducible over Q; in Q (u = w = 0) it is c0^2, and the conjugate c0
        (c0, c1), n = pair_conj_norm((self.c0, self.c1), self.desc.u, self.desc.w)
        return FieldElement(self.desc, c0 / n, c1 / n)

    def __str__(self):
        return format_pair(self.c0, self.c1)


QQ = FieldDescriptor(1, 0, 0)
QEPS = FieldDescriptor(2, 1, 1)
# largest |d| sqrt_field accepts; its squarefree test divides up to sqrt|d|
MAX_SQRT_FIELD_D = 10**12


def sqrt_field(d: int) -> FieldDescriptor:
    """Q(sqrt d) for squarefree d != 0, 1 with |d| <= MAX_SQRT_FIELD_D."""
    if abs(d) > MAX_SQRT_FIELD_D:
        raise ValueError(f"|d| must be at most {MAX_SQRT_FIELD_D}")
    if d in (0, 1) or not _squarefree(d):
        raise ValueError("d must be squarefree and different from 0 and 1")
    return FieldDescriptor(2, 0, -d)


QSQRT3 = sqrt_field(3)


def parse_element(desc: FieldDescriptor, text: str) -> FieldElement:
    """Parse "c0+c1*w" / "c0" with rational coefficients into desc's field."""
    c0, c1 = read_element(text)
    if c1[0] and desc.degree == 1:
        raise ParseError("generator 'w' is not available in Q")
    return FieldElement(desc, Fraction(*c0), Fraction(*c1))


def symbol_constants(n: int, zeta: FieldElement, alpha: FieldElement, beta: FieldElement):
    """What every product in the symbol algebra of degree n reads, built once
    per algebra: u and w; the twists p -> p*zeta^e at index e < n (None at 0),
    without a product when zeta is -1 or t or t^2 in Q(e); and the scales
    beta, alpha, alpha*beta at index a*2 + b for a, b in {0, 1} (None at 0)."""
    u, w = zeta.desc.u, zeta.desc.w
    z = (zeta.c0, zeta.c1)
    if z == (-1, 0):
        twists = (None, lambda p: (-p[0], -p[1] if p[1] else p[1]))
    elif (u, w) == (1, 1):  # zeta is t or t^2 = -1 - t: additions, none of a zero part
        times_t = lambda p: (-p[1], p[0] - p[1] if p[0] else -p[1]) if p[1] else (p[1], p[0])
        times_t2 = lambda p: (p[1] - p[0] if p[1] else -p[0], -p[0]) if p[0] else (p[1], p[0])
        twists = (None, times_t, times_t2) if z == (0, 1) else (None, times_t2, times_t)
    else:  # a cube root of unity on another generator, as (-1 + t)/2 in Q(sqrt -3)
        z2 = pair_mul(z, z, u, w)
        twists = (None, lambda p: pair_mul(p, z, u, w), lambda p: pair_mul(p, z2, u, w))
    a, b = (alpha.c0, alpha.c1), (beta.c0, beta.c1)
    return u, w, twists, (None, b, a, pair_mul(a, b, u, w))


def symbol_product(constants, left, right):
    """The product in the symbol algebra of degree n with x^n = alpha,
    y^n = beta, y*x = zeta*x*y, on its ``symbol_constants``, of lists of the
    n*n coefficients of x^i y^j in (i, j)-lexicographic order.  Row i holds
    P_i in u = sum_i x^i P_i(y), and P(y) x^k = x^k P(zeta^k y), so each
    nonzero left coefficient is twisted by zeta^(j*k) once per k; the term
    products are summed into unreduced bins [i+k][j+l], and each bin of
    y-degree n or more is folded n lower by one product with beta, then each
    of x-degree n or more by one with alpha."""
    u, w, twists, scales = constants
    n = len(twists)
    m = 2 * n - 1
    # the nonzero (l, coefficient) of each Q_k
    rights = [[(l, (y.c0, y.c1)) for l, y in enumerate(right[k * n:k * n + n]) if y.c0 or y.c1]
              for k in range(n)]
    bins = [None] * (m * m)  # bin [I][J] at I*m + J
    for index, x in enumerate(left):
        if not (x.c0 or x.c1):
            continue
        i, j = divmod(index, n)
        for k, row in enumerate(rights):
            p = twists[j * k % n]((x.c0, x.c1)) if j * k % n and row else (x.c0, x.c1)
            for l, y in row:
                r = (i + k) * m + j + l
                bins[r] = pair_add(bins[r], pair_mul(p, y, u, w))
    # top down, each bin has all its terms before it is folded
    for r in range(m * m - 1, n - 1, -1):
        big_i, big_j = divmod(r, m)
        if bins[r] is not None and (big_i >= n or big_j >= n):
            to, scale = (r - n, scales[1]) if big_j >= n else (r - n * m, scales[2])
            bins[to] = pair_add(bins[to], pair_mul(bins[r], scale, u, w))
    desc = left[0].desc
    out = [bins[i * m + j] for i in range(n) for j in range(n)]
    return [desc.zero() if pair is None else FieldElement(desc, *pair) for pair in out]

"""Exact arithmetic over Q and quadratic extensions Q[t]/(t^2 + u*t + w).

Elements are pairs of reduced rationals attached to a shared descriptor.
The cube-root-of-unity field uses minimal polynomial coefficients
(u, w) = (1, 1); square-root fields Q(sqrt d) use (0, -d).  The text
grammar prints the quadratic generator as ``w``, e.g. ``3+1*w``.

``pair_mul`` is the one product of coefficient pairs (a0, a1) = a0 + a1*t,
over the rationals or over the integers of ``linalg``.  ``symbol_product``
is the one product of the algebras built on the field: the symbol algebra
of degree n, of which the quaternion algebra is the case n = 2, zeta = -1.
They do no ``Fraction`` work on a zero known in advance: ``pair_mul``
multiplies by no zero t-part, and the running sums ``pair_add`` and
``pair_sub`` take a first term as it is and add no zero t-part.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .base import ParseError, Record, read_element, read_rational


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


class FieldDescriptor(Record):
    """Q (degree 1) or the quadratic field Q[t]/(t^2 + u*t + w) (degree 2),
    for ints u and w: every quadratic field has such a generator t."""

    __slots__ = ("degree", "u", "w")

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValueError("only Q and quadratic extensions are supported")
        if type(self.u) is not int or type(self.w) is not int:
            raise ValueError("u and w must be ints")
        disc = self.u * self.u - 4 * self.w
        if self.degree == 2 and disc >= 0 and math.isqrt(disc) ** 2 == disc:
            raise ValueError("t^2 + u*t + w must be irreducible over Q")

    def element(self, c0, c1=0) -> "FieldElement":
        return FieldElement(self, Fraction(c0), Fraction(c1))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def lift(self, q) -> "FieldElement":
        """Canonical embedding of a rational; the only cross-field coercion."""
        return self.element(Fraction(q))

    def gen(self) -> "FieldElement":
        if self.degree == 1:
            raise ValueError("Q has no quadratic generator")
        return self.element(0, 1)


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


def pair_mul(x, y, u, w):
    """(x0 + x1*t)(y0 + y1*t) as a pair, where t^2 = -u*t - w, over Q or the
    integers of ``linalg``.  Nothing is multiplied by a zero t-part: two
    factors without one cost one product.  u = 0 (Q(sqrt d)), u = 1 and
    w = 1 (Q(e)) cost no product."""
    x0, x1 = x
    y0, y1 = y
    if not x1:
        return (x0 * y0, x0 * y1) if y1 else (x0 * y0, x1)
    if not y1:
        return x0 * y0, x1 * y0
    h = x1 * y1
    c1 = x0 * y1 + x1 * y0
    return x0 * y0 - (h if w == 1 else h * w), (c1 - (h if u == 1 else h * u)) if u else c1


def pair_add(acc, term):
    """acc + term for a running sum of pairs, where None is the empty sum:
    the first term is taken as it is, and a zero t-part is never added."""
    if acc is None:
        return term
    a1, t1 = acc[1], term[1]
    return acc[0] + term[0], (a1 + t1 if a1 else t1) if t1 else a1


def pair_sub(acc, term):
    """acc - term for a running sum of pairs, as ``pair_add``."""
    t0, t1 = term
    if acc is None:
        return -t0, -t1 if t1 else t1
    a1 = acc[1]
    return acc[0] - t0, (a1 - t1 if a1 else -t1) if t1 else a1


def pair_conj_norm(y, u, w):
    """The conjugate of the pair y under t -> -u - t, and its norm y*conj(y)."""
    y0, y1 = y
    return (y0 - u * y1, -y1), y0 * y0 - u * y0 * y1 + w * y1 * y1


class FieldElement(Record):
    """c0 + c1*t over the descriptor's field; immutable, exact."""

    __slots__ = ("desc", "c0", "c1")

    def __init__(self, desc: FieldDescriptor, c0, c1=Fraction(0)):
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "c0", c0 if isinstance(c0, Fraction) else Fraction(c0))
        object.__setattr__(self, "c1", c1 if isinstance(c1, Fraction) else Fraction(c1))
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
        if self.c0 == 0 and self.c1 == 0:
            return self
        if o.c0 == 0 and o.c1 == 0:
            return o
        return FieldElement(self.desc, *pair_mul((self.c0, self.c1), (o.c0, o.c1), self.desc.u, self.desc.w))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def inv(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.desc.degree == 1:
            return FieldElement(self.desc, 1 / self.c0)
        # norm is nonzero for nonzero elements because the minimal polynomial
        # is irreducible over Q
        (c0, c1), n = pair_conj_norm((self.c0, self.c1), self.desc.u, self.desc.w)
        return FieldElement(self.desc, c0 / n, c1 / n)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        result = self.desc.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __str__(self):
        return format_element(self)


def format_element(e: FieldElement) -> str:
    try:
        if e.c1 == 0:
            return str(e.c0)
        sign = "+" if e.c1 > 0 else "-"
        return f"{e.c0}{sign}{abs(e.c1)}*w"
    except ValueError as exc:  # the interpreter's int-to-text limit, worded per version
        raise ValueError("a coefficient has too many digits to write") from exc


def parse_element(desc: FieldDescriptor, text: str) -> FieldElement:
    """Parse "c0+c1*w" / "c0" with rational coefficients into desc's field."""
    c0, c1 = read_element(text)
    if c1[0] and desc.degree == 1:
        raise ParseError("generator 'w' is not available in Q")
    return FieldElement(desc, Fraction(*c0), Fraction(*c1))


def _symbol_shape(n: int):
    """Entry [p][q] for the basis monomials p = i*n + j and q = k*n + l is
    (r, s): x^i y^j * x^k y^l is the monomial r = ((i+k) mod n)*n + (j+l) mod n
    times zeta^e alpha^a beta^b, which is entry s = (e*2 + a)*2 + b of
    ``symbol_scales``, with e = j*k mod n, a = (i+k) div n, b = (j+l) div n."""
    return tuple(
        tuple(
            ((i + k) % n * n + (j + l) % n, (j * k % n * 2 + (i + k) // n) * 2 + (j + l) // n)
            for k in range(n)
            for l in range(n)
        )
        for i in range(n)
        for j in range(n)
    )


# the shape of the product depends on the degree alone
SYMBOL_SHAPES = {n: _symbol_shape(n) for n in (2, 3)}


def symbol_scales(n: int, zeta: FieldElement, alpha: FieldElement, beta: FieldElement):
    """The pairs zeta^e alpha^a beta^b, at index (e*2 + a)*2 + b for e < n
    and a, b in {0, 1}: each run of four is the one before times zeta."""
    u, w = zeta.desc.u, zeta.desc.w
    a, b = (alpha.c0, alpha.c1), (beta.c0, beta.c1)
    z = (zeta.c0, zeta.c1)
    scales = [(Fraction(1), Fraction(0)), b, a, pair_mul(a, b, u, w)]
    for _ in range(n - 1):
        scales += [pair_mul(z, c, u, w) for c in scales[-4:]]
    return scales


def symbol_product(n: int, zeta: FieldElement, alpha: FieldElement, beta: FieldElement, left, right):
    """The product in the symbol algebra of degree n generated by x, y with
    x^n = alpha, y^n = beta, y*x = zeta*x*y:

        (x^i y^j)(x^k y^l) = zeta^(j*k) * alpha^((i+k) div n)
                             * beta^((j+l) div n) * x^((i+k) mod n) y^((j+l) mod n)

    extended bilinearly.  Both factors and the result are lists of n*n
    field elements over the monomials x^i y^j in (i, j)-lexicographic order.
    """
    desc = zeta.desc
    u, w = desc.u, desc.w
    scales = symbol_scales(n, zeta, alpha, beta)
    ys = [(y.c0, y.c1) if y.c0 or y.c1 else None for y in right]
    acc = [None] * (n * n)
    for x, row in zip(left, SYMBOL_SHAPES[n]):
        if not (x.c0 or x.c1):
            continue
        xp = (x.c0, x.c1)
        for (r, s), y in zip(row, ys):
            if y is None:
                continue
            term = pair_mul(xp, y, u, w)
            if s:
                term = pair_mul(term, scales[s], u, w)
            acc[r] = pair_add(acc[r], term)
    zero = desc.zero()
    return [zero if pair is None else FieldElement(desc, *pair) for pair in acc]

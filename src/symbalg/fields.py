"""Exact arithmetic over Q and quadratic extensions Q[t]/(t^2 + u*t + w).

Elements are pairs of reduced rationals attached to a shared descriptor.
The cube-root-of-unity field uses minimal polynomial coefficients
(u, w) = (1, 1); square-root fields Q(sqrt d) use (0, -d).  The text
grammar prints the quadratic generator as ``w``, e.g. ``3+1*w``.

Coefficient pairs (a0, a1) = a0 + a1*t multiply by ``base.pair_mul``, the
one product of pairs, which the field, the algebras, ``linalg`` and Z[e]
share.  The product of the algebras built on the field lives in ``symbol``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .base import ParseError, Record, format_pair, pair_conj_norm, pair_mul, read_element, read_rational
from .intmath import _prime_divisors


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (only integer numerator/denominator forms)."""
    return Fraction(*read_rational(text))


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
# largest |d| sqrt_field accepts; its squarefree test factors |d| by trial division up to sqrt|d|
MAX_SQRT_FIELD_D = 10**12


def sqrt_field(d: int) -> FieldDescriptor:
    """Q(sqrt d) for squarefree d != 0, 1 with |d| <= MAX_SQRT_FIELD_D."""
    if abs(d) > MAX_SQRT_FIELD_D:
        raise ValueError(f"|d| must be at most {MAX_SQRT_FIELD_D}")
    if d in (0, 1) or math.prod(_prime_divisors(abs(d))) != abs(d):
        raise ValueError("d must be squarefree and different from 0 and 1")
    return FieldDescriptor(2, 0, -d)


QSQRT3 = sqrt_field(3)


def parse_element(desc: FieldDescriptor, text: str) -> FieldElement:
    """Parse "c0+c1*w" / "c0" with rational coefficients into desc's field."""
    c0, c1 = read_element(text)
    if c1[0] and desc.degree == 1:
        raise ParseError("generator 'w' is not available in Q")
    return FieldElement(desc, Fraction(*c0), Fraction(*c1))

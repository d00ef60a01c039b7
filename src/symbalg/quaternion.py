"""Generalized quaternion algebras H_K(alpha, beta).

The basis is {1, e1, e2, e3} with e1^2 = alpha, e2^2 = beta, e1*e2 = e3,
e2*e1 = -e3.  The product is the symbol product of degree 2 with
zeta = -1 (``fields.symbol_product``) under 1, e1, e2, e3 <-> 1, x, y, xy.
Split/division decisions come with exact witnesses: a point on the
associated conic alpha*x^2 + beta*y^2 = z^2 for split algebras, an
exhaustive isotropic-vector search for division consistency.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import (
    QQ, QSQRT3, FieldElement, Record, pair_add, pair_mul, pair_sub, symbol_constants, symbol_product
)
from .intmath import check_search_bound, cornacchia, is_prime, isotropic_vector


class QuaternionAlgebra(Record):
    __slots__ = ("desc", "alpha", "beta", "_constants")

    def __post_init__(self):
        if self.alpha.desc != self.desc or self.beta.desc != self.desc:
            raise ValueError("alpha and beta must live in the base field")
        if self.alpha.is_zero() or self.beta.is_zero():
            raise ValueError("alpha and beta must be nonzero")
        object.__setattr__(self, "_constants", symbol_constants(2, self.desc.lift(-1), self.alpha, self.beta))

    def element(self, x0, x1, x2, x3) -> "Quaternion":
        lift = lambda v: v if isinstance(v, FieldElement) else self.desc.lift(v)
        return Quaternion(self, lift(x0), lift(x1), lift(x2), lift(x3))

    def one(self) -> "Quaternion":
        return self.element(1, 0, 0, 0)


class Quaternion(Record):
    __slots__ = ("algebra", "x0", "x1", "x2", "x3")

    @property
    def coords(self) -> tuple[FieldElement, FieldElement, FieldElement, FieldElement]:
        return (self.x0, self.x1, self.x2, self.x3)

    def _check(self, other: "Quaternion"):
        if self.algebra != other.algebra:
            raise ValueError("quaternions belong to different algebras")

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        # over the monomials 1, y, x, xy of the symbol algebra the coordinates
        # run x0, x2, x1, x3
        self._check(other)
        alg = self.algebra
        x0, x2, x1, x3 = symbol_product(
            alg._constants, [self.x0, self.x2, self.x1, self.x3], [other.x0, other.x2, other.x1, other.x3]
        )
        return Quaternion(alg, x0, x1, x2, x3)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.algebra, self.x0, -self.x1, -self.x2, -self.x3)

    def trace(self) -> FieldElement:
        return self.x0 + self.x0

    def norm(self) -> FieldElement:
        """x0^2 - alpha*x1^2 - beta*x2^2 + alpha*beta*x3^2, summed over the
        nonzero coordinates; no known zero is multiplied or added."""
        alg = self.algebra
        u, w, _, (_, beta, alpha, alpha_beta) = alg._constants
        total = None
        for x, scale, add in zip(
            self.coords, (None, alpha, beta, alpha_beta), (pair_add, pair_sub, pair_sub, pair_add)
        ):
            if x.c0 or x.c1:
                term = pair_mul((x.c0, x.c1), (x.c0, x.c1), u, w)
                total = add(total, pair_mul(term, scale, u, w) if scale else term)
        return alg.desc.zero() if total is None else FieldElement(alg.desc, *total)


class ConicPoint(Record):
    __slots__ = ("x", "y", "z")

    def is_nonzero(self) -> bool:
        return not (self.x.is_zero() and self.y.is_zero() and self.z.is_zero())


def on_conic(alpha: FieldElement, beta: FieldElement, point: ConicPoint) -> bool:
    if not point.is_nonzero():
        return False
    return alpha * point.x * point.x + beta * point.y * point.y == point.z * point.z


class SplitVerdict(Record):
    """"split" always carries a verified conic point; "division" none."""

    __slots__ = ("kind", "point")  # kind: "split" | "division"

    def __post_init__(self):
        if self.kind not in ("split", "division"):
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if self.kind == "split" and self.point is None:
            raise ValueError("split verdict needs a conic point")


def gauss_representation(p: int) -> tuple[int, int]:
    """Positive integers (a, b) with 4p = a^2 + 27 b^2, for p = 1 mod 3."""
    if not is_prime(p) or p % 3 != 1:
        raise ValueError("p must be a prime congruent to 1 mod 3")
    # x^2 + 3y^2 = p makes 4p = A^2 + 3B^2 for each (A, B) below, and
    # exactly one B is divisible by 3 because 3 divides neither x nor p
    x, y = cornacchia(3, p)
    pairs = ((2 * x, 2 * y), (x + 3 * y, x - y), (x - 3 * y, x + y))
    big_a, big_b = next(pair for pair in pairs if pair[1] % 3 == 0)
    a, b = abs(big_a), abs(big_b) // 3
    if a * a + 27 * b * b != 4 * p:
        raise ArithmeticError(f"no representation 4*{p} = a^2 + 27*b^2")
    return a, b


def conic_point_sqrt3(p: int) -> ConicPoint:
    """The Q(sqrt 3) point (3b*sqrt(3)/2, 1, a/2) on -x^2 + p*y^2 = z^2."""
    a, b = gauss_representation(p)
    point = ConicPoint(
        QSQRT3.element(0, Fraction(3 * b, 2)),
        QSQRT3.one(),
        QSQRT3.element(Fraction(a, 2)),
    )
    if not on_conic(QSQRT3.lift(-1), QSQRT3.lift(p), point):
        raise ArithmeticError(f"conic point for p = {p} is not on the conic")
    return point


def two_square_decomposition(p: int) -> tuple[int, int]:
    """(x, z) with x^2 + z^2 = p and 0 < x <= z, for a prime p = 1 mod 4."""
    if not is_prime(p) or p % 4 != 1:
        raise ValueError("p must be a prime congruent to 1 mod 4")
    x, z = sorted(cornacchia(1, p))
    if x * x + z * z != p:
        raise ArithmeticError(f"{p} is not a sum of two squares")
    return x, z


def classify_minus1_p(p: int) -> SplitVerdict:
    """Verdict for H_Q(-1, p) at an odd prime p: division when p = 3 mod 4,
    split with the conic point (x, 1, z) from x^2 + z^2 = p otherwise."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if p % 4 == 3:
        return SplitVerdict("division", None)
    x, z = two_square_decomposition(p)
    point = ConicPoint(QQ.lift(x), QQ.one(), QQ.lift(z))
    if not on_conic(QQ.lift(-1), QQ.lift(p), point):
        raise ArithmeticError(f"conic point for p = {p} is not on the conic")
    return SplitVerdict("split", point)


def norm_form_zero_search(alg: QuaternionAlgebra, bound: int) -> Quaternion | None:
    """First primitive integer vector (lexicographic order, coordinates in
    [-bound, bound]) with vanishing norm form, or None if there is none:
    ``intmath.isotropic_vector`` on the integers alpha and beta."""
    check_search_bound(bound)
    if alg.desc != QQ:
        raise ValueError("zero search is defined over Q")
    a, b = alg.alpha.c0, alg.beta.c0
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError("search needs integer alpha and beta")
    witness = isotropic_vector(int(a), int(b), bound)
    return None if witness is None else alg.element(*witness)

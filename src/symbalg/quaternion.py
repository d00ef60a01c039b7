"""Generalized quaternion algebras H_K(alpha, beta).

The basis is {1, e1, e2, e3} with e1^2 = alpha, e2^2 = beta, e1*e2 = e3,
e2*e1 = -e3: the symbol algebra of degree 2 with zeta = -1 under
1, e1, e2, e3 <-> 1, x, y, xy, whose product, sum and scaling a quaternion
inherits.  Split/division decisions come with exact witnesses: a point on
the associated conic alpha*x^2 + beta*y^2 = z^2 for split algebras, an
exhaustive isotropic-vector search for division consistency.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ, QSQRT3, FieldElement, Record, pair_add, pair_mul, pair_sub
from .intmath import check_search_bound, cornacchia, is_prime, isotropic_vector
from .symbol import SymbolAlgebra, SymbolElement


class QuaternionAlgebra(SymbolAlgebra):
    """The symbol algebra (alpha, beta / K, zeta = -1) of degree 2."""

    __slots__ = ()

    def __init__(self, desc, alpha, beta):
        super().__init__(desc, 2, desc.lift(-1), alpha, beta)

    def element(self, x0, x1, x2, x3) -> "Quaternion":
        return Quaternion(self, self._lifted(((x0, x2), (x1, x3))))

    def monomial(self, i: int, j: int) -> "Quaternion":
        coords = [0, 0, 0, 0]
        coords[i + 2 * j] = 1
        return self.element(*coords)


class Quaternion(SymbolElement):
    """x0 + x1*e1 + x2*e2 + x3*e3, stored as the grid ((x0, x2), (x1, x3)) of
    the coefficients of ((1, y), (x, xy))."""

    __slots__ = ()

    @property
    def coords(self) -> tuple[FieldElement, FieldElement, FieldElement, FieldElement]:
        (x0, x2), (x1, x3) = self.coeffs
        return x0, x1, x2, x3

    def conjugate(self) -> "Quaternion":
        x0, x1, x2, x3 = self.coords
        return self.algebra.element(x0, -x1, -x2, -x3)

    def trace(self) -> FieldElement:
        return self.coeffs[0][0] + self.coeffs[0][0]

    def norm(self) -> FieldElement:
        """x0^2 - alpha*x1^2 - beta*x2^2 + alpha*beta*x3^2: each nonzero c of
        x^a y^b adds (-1)^(a+b) c^2 times the scale alpha^a beta^b at flat
        index a*2 + b; no known zero is multiplied or added."""
        alg = self.algebra
        u, w, _, scales = alg._constants
        total = None
        for x, scale, add in zip(self.flat(), scales, (pair_add, pair_sub, pair_sub, pair_add)):
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

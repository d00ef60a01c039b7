"""Generalized quaternion algebras H_K(alpha, beta).

The basis is {1, e1, e2, e3} with e1^2 = alpha, e2^2 = beta, e1*e2 = e3,
e2*e1 = -e3: the symbol algebra of degree 2 with zeta = -1 under
1, e1, e2, e3 <-> 1, x, y, xy, whose product, sum and scaling a quaternion
inherits.  A quaternion adds its coordinates, conjugate, trace and norm;
norm_form_zero_search returns the first isotropic vector of a box as a
quaternion.  The split witnesses of H_Q(-1, p) and the conic points over
Q(sqrt 3) are integer identities, and live in intmath.
"""

from __future__ import annotations

from .base import pair_add, pair_mul, pair_sub
from .fields import QQ, FieldElement
from .intmath import check_search_bound, isotropic_vector
from .symbol import SymbolAlgebra, SymbolElement


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
        x^a y^b adds (-1)^(a+b) c^2 times the scale alpha^a beta^b at index
        a*2 + b; no known zero is multiplied or added."""
        alg = self.algebra
        u, w, _, scales = alg._constants
        total = None
        for a, row in enumerate(self.coeffs):
            for b, x in enumerate(row):
                if x.c0 or x.c1:
                    term = pair_mul((x.c0, x.c1), (x.c0, x.c1), u, w)
                    scale = scales[a * 2 + b]
                    total = (pair_sub if a != b else pair_add)(total, pair_mul(term, scale, u, w) if scale else term)
        return alg.desc.zero() if total is None else FieldElement(alg.desc, *total)


class QuaternionAlgebra(SymbolAlgebra):
    """The symbol algebra (alpha, beta / K, zeta = -1) of degree 2."""

    __slots__ = ()
    element_type = Quaternion

    def __init__(self, desc, alpha, beta):
        super().__init__(desc, 2, desc.lift(-1), alpha, beta)

    def element(self, x0, x1, x2, x3) -> "Quaternion":
        return Quaternion(self, self._lifted(((x0, x2), (x1, x3))))


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

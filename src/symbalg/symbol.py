"""Degree-n symbol algebras (alpha, beta / K, zeta).

Generated by x, y with x^n = alpha, y^n = beta and y*x = zeta*x*y, for a
primitive n-th root of unity zeta in the base field.  Elements are n x n
coefficient grids over the basis x^i y^j; multiplication is
``fields.symbol_product``, which extends

    (x^i y^j)(x^k y^l) = zeta^(j*k) * alpha^((i+k) div n)
                         * beta^((j+l) div n) * x^((i+k) mod n) y^((j+l) mod n)

bilinearly, the unique rule consistent with the three relations.  Degree 3
over the cube-root field carries an explicit 3 x 3 matrix model, computed on
monomial matrices, that turns non-division claims into concrete zero divisors.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import (
    SYMBOL_SHAPES,
    FieldElement,
    ParseError,
    Record,
    format_element,
    pair_mul,
    parse_element,
    symbol_product,
    symbol_scales,
)


class SymbolAlgebra(Record):
    __slots__ = ("desc", "n", "zeta", "alpha", "beta")

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("degree must be at least 2")
        if self.n > 3:
            raise ValueError("degrees above 3 are not supported")
        for name, value in (("zeta", self.zeta), ("alpha", self.alpha), ("beta", self.beta)):
            if value.desc != self.desc:
                raise ValueError(f"{name} must live in the base field")
        if self.alpha.is_zero() or self.beta.is_zero():
            raise ValueError("alpha and beta must be nonzero")
        one = self.desc.one()
        if self.zeta ** self.n != one or any(self.zeta ** k == one for k in range(1, self.n)):
            raise ValueError("zeta must be a primitive n-th root of unity")

    def element(self, grid) -> "SymbolElement":
        rows = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                v = grid[i][j]
                row.append(v if isinstance(v, FieldElement) else self.desc.lift(v))
            rows.append(tuple(row))
        return SymbolElement(self, tuple(rows))

    def one(self) -> "SymbolElement":
        return self.monomial(0, 0)

    def monomial(self, i: int, j: int, coeff=1) -> "SymbolElement":
        grid = [[0] * self.n for _ in range(self.n)]
        grid[i][j] = coeff
        return self.element(grid)

    def x(self) -> "SymbolElement":
        return self.monomial(1, 0)

    def y(self) -> "SymbolElement":
        return self.monomial(0, 1)


class SymbolElement(Record):
    __slots__ = ("algebra", "coeffs")  # n x n grid, coeffs[i][j] multiplies x^i y^j

    def _check(self, other: "SymbolElement"):
        if self.algebra != other.algebra:
            raise ValueError("elements belong to different symbol algebras")

    def __add__(self, other: "SymbolElement") -> "SymbolElement":
        self._check(other)
        return self.algebra.element(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "SymbolElement") -> "SymbolElement":
        self._check(other)
        return self.algebra.element(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.coeffs, other.coeffs)]
        )

    def scale(self, c) -> "SymbolElement":
        return self.algebra.element([[a * c for a in row] for row in self.coeffs])

    def __mul__(self, other: "SymbolElement") -> "SymbolElement":
        self._check(other)
        alg = self.algebra
        n = alg.n
        flat = symbol_product(n, alg.zeta, alg.alpha, alg.beta, self.flat(), other.flat())
        return SymbolElement(alg, tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n)))

    def flat(self) -> list[FieldElement]:
        """The coefficients in (i, j)-lexicographic order of x^i y^j."""
        return [c for row in self.coeffs for c in row]

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.coeffs for c in row)


def verify_relations(alg: SymbolAlgebra) -> bool:
    """Check x^n = alpha, y^n = beta and y*x = zeta*x*y inside the algebra."""
    xp = alg.one()
    yp = alg.one()
    for _ in range(alg.n):
        xp = xp * alg.x()
        yp = yp * alg.y()
    commuted = alg.y() * alg.x() - (alg.x() * alg.y()).scale(alg.zeta)
    return (
        xp == alg.one().scale(alg.alpha)
        and yp == alg.one().scale(alg.beta)
        and commuted.is_zero()
    )


def _sign_unit(value: FieldElement):
    """The rational cube root of alpha when alpha is 1 or -1."""
    if value == value.desc.one():
        return 1
    if value == -value.desc.one():
        return -1
    raise ValueError("only alpha, beta in {-1, 1} admit the diagonal matrix model")


class MatrixRep(Record):
    """3 x 3 matrix model: x -> X = c*diag(1, zeta, zeta^2), y -> c'*P for
    the cyclic permutation P, extended linearly over the basis x^i y^j."""

    __slots__ = ("algebra", "X", "Y", "images")  # images[i][j] = X^i Y^j as a tuple matrix

    def apply(self, element: SymbolElement):
        if element.algebra != self.algebra:
            raise ValueError("element belongs to a different algebra")
        n = self.algebra.n
        out = [[self.algebra.desc.zero()] * n for _ in range(n)]
        for coeff_row, image_row in zip(element.coeffs, self.images):
            for c, image in zip(coeff_row, image_row):
                if c.is_zero():
                    continue
                # X^i Y^j is monomial: one nonzero entry in each row
                for r, img_row in enumerate(image):
                    for s, e in enumerate(img_row):
                        if not e.is_zero():
                            out[r][s] = out[r][s] + e * c
        return out


def _monomial_mul(a, b):
    """Product of 3 x 3 monomial matrices (j, d), where (j, d) has the entry
    d[r] in row r, column (r + j) mod 3 and zeros elsewhere: 3 field products."""
    ja, da = a
    jb, db = b
    return (ja + jb) % 3, tuple(da[r] * db[(r + ja) % 3] for r in range(3))


def _dense(monomial, zero) -> tuple:
    j, d = monomial
    return tuple(tuple(d[r] if s == (r + j) % 3 else zero for s in range(3)) for r in range(3))


def matrix_generators(alg: SymbolAlgebra) -> MatrixRep:
    if alg.n != 3:
        raise ValueError("the matrix model is built for degree 3")
    desc, z, one, zero = alg.desc, alg.zeta, alg.desc.one(), alg.desc.zero()
    c, c2 = desc.lift(_sign_unit(alg.alpha)), desc.lift(_sign_unit(alg.beta))
    x_mat = (0, (c, z * c, z * z * c))
    y_mat = (1, (c2, c2, c2))  # c' times the cyclic P
    ident = (0, (one, one, one))
    x_pows = [ident, x_mat, _monomial_mul(x_mat, x_mat)]
    y_pows = [ident, y_mat, _monomial_mul(y_mat, y_mat)]
    if not (
        _monomial_mul(x_pows[2], x_mat) == (0, (alg.alpha,) * 3)
        and _monomial_mul(y_pows[2], y_mat) == (0, (alg.beta,) * 3)
        and _monomial_mul(y_mat, x_mat) == _monomial_mul((0, (z, z, z)), _monomial_mul(x_mat, y_mat))
    ):
        raise ArithmeticError("matrix model violates the defining relations")
    images = tuple(tuple(_dense(_monomial_mul(xi, yj), zero) for yj in y_pows) for xi in x_pows)
    return MatrixRep(alg, _dense(x_mat, zero), _dense(y_mat, zero), images)


def find_zero_divisor(alg: SymbolAlgebra) -> tuple[SymbolElement, SymbolElement]:
    """The preimages of the matrix units E11 and E22 under the matrix model;
    they multiply to zero without being zero.

    With c = alpha, (c^-1 X)^i = diag(1, zeta^i, zeta^2i), so
    u = (1 + c*x + x^2)/3 maps to E11 and v = (1 + zeta^2*c*x + zeta*x^2)/3
    to E22; the model is bijective, so these are the unique preimages.
    """
    if alg.n != 3:
        raise ValueError("the matrix model is built for degree 3")
    c = _sign_unit(alg.alpha)
    _sign_unit(alg.beta)  # the model needs it, though u and v have no y
    third = alg.desc.lift(Fraction(1, 3))
    z = alg.zeta
    u = alg.element([[third, 0, 0], [third * c, 0, 0], [third, 0, 0]])
    v = alg.element([[third, 0, 0], [third * z * z * c, 0, 0], [third * z, 0, 0]])
    if u.is_zero() or v.is_zero() or not (u * v).is_zero():
        raise ArithmeticError("pulled-back matrix units are not a zero-divisor pair")
    return u, v


def left_regular_matrix(u: SymbolElement):
    """Matrix of v -> u*v in the (i, j)-lexicographic basis; singular
    exactly when u is zero or a left zero divisor.  Column q is u times the
    q-th monomial: each coefficient of u moved to the index of its product
    with that monomial and multiplied by its structure constant."""
    alg = u.algebra
    n, desc = alg.n, alg.desc
    scales = symbol_scales(n, alg.zeta, alg.alpha, alg.beta)
    matrix = [[desc.zero()] * (n * n) for _ in range(n * n)]
    for c, row in zip(u.flat(), SYMBOL_SHAPES[n]):
        if c.is_zero():
            continue
        for q, (r, s) in enumerate(row):
            matrix[r][q] = FieldElement(desc, *pair_mul((c.c0, c.c1), scales[s], desc.u, desc.w)) if s else c
    return matrix


def quaternion_crosscheck(alg: SymbolAlgebra) -> bool:
    """For n = 2, compare all 16 products of the monomials 1, x, y, xy
    against the defining quaternion table under 1, x, y, xy <-> 1, e1, e2, e3."""
    if alg.n != 2:
        raise ValueError("the crosscheck is defined for degree 2")
    one, a, b = alg.desc.one(), alg.alpha, alg.beta
    # e_r * e_c = coefficient * e_index, rows the left factor 1, e1, e2, e3
    table = (
        ((0, one), (1, one), (2, one), (3, one)),
        ((1, one), (0, a), (3, one), (2, a)),
        ((2, one), (3, -one), (0, b), (1, -b)),
        ((3, one), (2, -a), (1, b), (0, -a * b)),
    )
    basis = [alg.monomial(0, 0), alg.monomial(1, 0), alg.monomial(0, 1), alg.monomial(1, 1)]
    return all(
        basis[r] * basis[c] == basis[index].scale(coeff)
        for r, row in enumerate(table)
        for c, (index, coeff) in enumerate(row)
    )


def element_to_json(element: SymbolElement) -> dict:
    return {
        "n": element.algebra.n,
        "coeffs": [[format_element(c) for c in row] for row in element.coeffs],
    }


def element_from_json(alg: SymbolAlgebra, data) -> SymbolElement:
    """Element from {"n": n, "coeffs": n x n grid of element strings}; a
    value of the wrong JSON type or shape raises ParseError."""
    if not isinstance(data, dict):
        raise ParseError("element must be a JSON object")
    if data.get("n") != alg.n:
        raise ValueError("grid size does not match the algebra degree")
    coeffs = data.get("coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != alg.n or any(
        not isinstance(row, list) or len(row) != alg.n for row in coeffs
    ):
        raise ParseError("coeffs must be an n x n grid")
    if not all(isinstance(c, str) for row in coeffs for c in row):
        raise ParseError("coefficients must be strings in the element grammar")
    return alg.element([[parse_element(alg.desc, c) for c in row] for row in coeffs])

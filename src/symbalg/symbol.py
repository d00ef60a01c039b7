"""Degree-n symbol algebras (alpha, beta / K, zeta).

Generated by x, y with x^n = alpha, y^n = beta and y*x = zeta*x*y, for a
primitive n-th root of unity zeta in the base field.  Elements are n x n
coefficient grids over the basis x^i y^j; multiplication extends

    (x^i y^j)(x^k y^l) = zeta^(j*k) * alpha^((i+k) div n)
                         * beta^((j+l) div n) * x^((i+k) mod n) y^((j+l) mod n)

bilinearly, the unique rule consistent with the three relations.  Degree 3
over the cube-root field carries an explicit 3 x 3 matrix model that turns
non-division claims into concrete zero divisors.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .fields import FieldElement, ParseError, Record, format_element, parse_element
from .quaternion import QuaternionAlgebra


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

    def zero(self) -> "SymbolElement":
        return self.element([[0] * self.n for _ in range(self.n)])

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

    def basis(self):
        """Monomials x^i y^j in (i, j)-lexicographic order."""
        return [self.monomial(i, j) for i in range(self.n) for j in range(self.n)]


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

    def __neg__(self) -> "SymbolElement":
        return self.algebra.element([[-a for a in row] for row in self.coeffs])

    def scale(self, c) -> "SymbolElement":
        return self.algebra.element([[a * c for a in row] for row in self.coeffs])

    def __mul__(self, other: "SymbolElement") -> "SymbolElement":
        # the hot path of every sweep: coefficient arithmetic runs on raw
        # (c0, c1) fraction pairs and element objects are built once at
        # the end
        self._check(other)
        alg = self.algebra
        n = alg.n
        desc = alg.desc
        u_, w_ = desc.u, desc.w

        def pmul(x, y):
            a0, a1 = x
            b0, b1 = y
            return (a0 * b0 - w_ * a1 * b1, a0 * b1 + a1 * b0 - u_ * a1 * b1)

        zeta_pair = (alg.zeta.c0, alg.zeta.c1)
        zeta_powers = [(desc.one().c0, desc.one().c1)]
        for _ in range(n - 1):
            zeta_powers.append(pmul(zeta_powers[-1], zeta_pair))
        alpha_pair = (alg.alpha.c0, alg.alpha.c1)
        beta_pair = (alg.beta.c0, alg.beta.c1)

        acc = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                c = self.coeffs[i][j]
                if c.c0 == 0 and c.c1 == 0:
                    continue
                cp = (c.c0, c.c1)
                for k in range(n):
                    for l in range(n):
                        d = other.coeffs[k][l]
                        if d.c0 == 0 and d.c1 == 0:
                            continue
                        term = pmul(cp, (d.c0, d.c1))
                        e = j * k % n
                        if e:
                            term = pmul(term, zeta_powers[e])
                        xq, xr = divmod(i + k, n)
                        yq, yr = divmod(j + l, n)
                        if xq:
                            term = pmul(term, alpha_pair)
                        if yq:
                            term = pmul(term, beta_pair)
                        before = acc[xr][yr]
                        acc[xr][yr] = term if before is None else (
                            before[0] + term[0], before[1] + term[1]
                        )
        zero = desc.zero()
        grid = tuple(
            tuple(
                zero if acc[i][j] is None else FieldElement(desc, acc[i][j][0], acc[i][j][1])
                for j in range(n)
            )
            for i in range(n)
        )
        return SymbolElement(alg, grid)

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


def _freeze(matrix) -> tuple:
    return tuple(tuple(row) for row in matrix)


def matrix_generators(alg: SymbolAlgebra) -> MatrixRep:
    if alg.n != 3:
        raise ValueError("the matrix model is built for degree 3")
    desc, z, zero = alg.desc, alg.zeta, alg.desc.zero()
    c, c2 = desc.lift(_sign_unit(alg.alpha)), desc.lift(_sign_unit(alg.beta))
    x_mat = [[c, zero, zero], [zero, z * c, zero], [zero, zero, z * z * c]]
    y_mat = [[zero, c2, zero], [zero, zero, c2], [c2, zero, zero]]  # c' times the cyclic P
    ident = linalg.identity(desc, 3)
    x_pows = [ident, x_mat, linalg.mat_mul(x_mat, x_mat)]
    y_pows = [ident, y_mat, linalg.mat_mul(y_mat, y_mat)]
    if not (
        linalg.mat_mul(x_pows[2], x_mat) == linalg.mat_scale(ident, alg.alpha)
        and linalg.mat_mul(y_pows[2], y_mat) == linalg.mat_scale(ident, alg.beta)
        and linalg.mat_mul(y_mat, x_mat) == linalg.mat_scale(linalg.mat_mul(x_mat, y_mat), z)
    ):
        raise ArithmeticError("matrix model violates the defining relations")
    images = tuple(tuple(_freeze(linalg.mat_mul(xi, yj)) for yj in y_pows) for xi in x_pows)
    return MatrixRep(alg, _freeze(x_mat), _freeze(y_mat), images)


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
    exactly when u is zero or a left zero divisor."""
    alg = u.algebra
    n = alg.n
    columns = []
    for k in range(n):
        for l in range(n):
            w = u * alg.monomial(k, l)
            columns.append([w.coeffs[i][j] for i in range(n) for j in range(n)])
    return [[columns[c][r] for c in range(n * n)] for r in range(n * n)]


def quaternion_crosscheck(alg: SymbolAlgebra) -> bool:
    """For n = 2, compare all 16 basis products against the quaternion
    table under 1 -> 1, x -> e1, y -> e2, xy -> e3."""
    if alg.n != 2:
        raise ValueError("the crosscheck is defined for degree 2")
    quat = QuaternionAlgebra(alg.desc, alg.alpha, alg.beta)
    basis_index = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    quat_basis = quat.basis()

    def to_quaternion(element: SymbolElement):
        coords = [None] * 4
        for (i, j), pos in basis_index.items():
            coords[pos] = element.coeffs[i][j]
        return quat.element(*coords)

    for i1 in range(2):
        for j1 in range(2):
            for i2 in range(2):
                for j2 in range(2):
                    product = alg.monomial(i1, j1) * alg.monomial(i2, j2)
                    expected = quat_basis[basis_index[(i1, j1)]] * quat_basis[basis_index[(i2, j2)]]
                    if to_quaternion(product) != expected:
                        return False
    return True


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

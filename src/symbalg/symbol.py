"""Degree-n symbol algebras (alpha, beta / K, zeta).

Generated by x, y with x^n = alpha, y^n = beta and y*x = zeta*x*y, for a
primitive n-th root of unity zeta in the base field.  Elements are n x n
coefficient grids over the basis x^i y^j, row i the coefficients of P_i in
sum_i x^i P_i(y).  The relations give P(y) x^k = x^k P(zeta^k y), and so
the product ``symbol_product``, which takes and returns these grids, on the
``symbol_constants`` each algebra builds once.  It is the one product of
the algebras built on a field; the quaternion algebra is the case n = 2,
zeta = -1.  Degree 3 over the cube-root field carries an explicit
3 x 3 matrix model, monomial matrices read off the same twists, that turns
non-division claims into concrete zero divisors.
"""

from __future__ import annotations

from fractions import Fraction

from .base import ParseError, Record, pair_add, pair_mul
from .fields import FieldElement, parse_element


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
    y^n = beta, y*x = zeta*x*y, on its ``symbol_constants``, of n x n grids
    whose row i holds P_i in u = sum_i x^i P_i(y).  P(y) x^k = x^k P(zeta^k y),
    so each nonzero left coefficient of x^i y^j is twisted by zeta^(j*k) once
    per k; the term products are summed into unreduced bins [i+k][j+l], and
    each bin of y-degree n or more is folded n lower by one product with
    beta, then each of x-degree n or more by one with alpha.  The grid it
    returns holds the field's shared zero where no term landed."""
    u, w, twists, scales = constants
    n = len(twists)
    m = 2 * n - 1
    # the nonzero (l, coefficient) of each Q_k
    rights = [[(l, (y.c0, y.c1)) for l, y in enumerate(row) if y.c0 or y.c1] for row in right]
    bins = [None] * (m * m)  # bin [I][J] at I*m + J
    for i, row in enumerate(left):
        for j, x in enumerate(row):
            if not (x.c0 or x.c1):
                continue
            for k, terms in enumerate(rights):
                p = twists[j * k % n]((x.c0, x.c1)) if j * k % n and terms else (x.c0, x.c1)
                at = (i + k) * m + j
                for l, y in terms:
                    bins[at + l] = pair_add(bins[at + l], pair_mul(p, y, u, w))
    # top down, each bin has all its terms before it is folded
    for r in range(m * m - 1, n - 1, -1):
        big_i, big_j = divmod(r, m)
        if bins[r] is not None and (big_i >= n or big_j >= n):
            to, scale = (r - n, scales[1]) if big_j >= n else (r - n * m, scales[2])
            bins[to] = pair_add(bins[to], pair_mul(bins[r], scale, u, w))
    desc = left[0][0].desc
    zero = desc.zero()
    return tuple(tuple(zero if pair is None else FieldElement(desc, *pair) for pair in bins[i * m:i * m + n])
                 for i in range(n))


class SymbolElement(Record):
    __slots__ = ("algebra", "coeffs")  # n x n grid, coeffs[i][j] multiplies x^i y^j

    def _check(self, other: "SymbolElement"):
        if self.algebra != other.algebra:
            raise ValueError("elements belong to different symbol algebras")

    def __add__(self, other: "SymbolElement") -> "SymbolElement":
        self._check(other)
        return type(self)(
            self.algebra, tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "SymbolElement") -> "SymbolElement":
        self._check(other)
        return type(self)(
            self.algebra, tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.coeffs, other.coeffs))
        )

    def scale(self, c) -> "SymbolElement":
        return type(self)(self.algebra, tuple(tuple(a * c for a in row) for row in self.coeffs))

    def __mul__(self, other: "SymbolElement") -> "SymbolElement":
        self._check(other)
        return type(self)(self.algebra, symbol_product(self.algebra._constants, self.coeffs, other.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.coeffs for c in row)


class SymbolAlgebra(Record):
    __slots__ = ("desc", "n", "zeta", "alpha", "beta", "_constants")
    element_type = SymbolElement  # what element and monomial build

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
        # zeta is a root of the n-th cyclotomic polynomial: z = -1, or z^2 + z + 1 = 0
        z0, z1 = self.zeta.c0, self.zeta.c1
        if self.n == 2:
            primitive = z0 == -1 and z1 == 0
        else:
            s0, s1 = pair_mul((z0, z1), (z0, z1), self.desc.u, self.desc.w)
            primitive = s0 + z0 + 1 == 0 and s1 + z1 == 0
        if not primitive:
            raise ValueError("zeta must be a primitive n-th root of unity")
        object.__setattr__(self, "_constants", symbol_constants(self.n, self.zeta, self.alpha, self.beta))

    def element(self, grid) -> "SymbolElement":
        return self.element_type(self, self._lifted(grid))

    def _lifted(self, grid):
        """The n x n grid as rows of base-field elements, ints and Fractions lifted."""
        n, desc = self.n, self.desc
        if len(grid) != n or any(len(row) != n for row in grid):
            raise ValueError(f"the grid must be {n} x {n}")
        rows = tuple(tuple(v if isinstance(v, FieldElement) else desc.lift(v) for v in row) for row in grid)
        if any(v.desc != desc for row in rows for v in row):
            raise ValueError("coefficients must live in the base field")
        return rows

    def one(self) -> "SymbolElement":
        return self.monomial(0, 0)

    def monomial(self, i: int, j: int) -> "SymbolElement":
        """x^i y^j for 0 <= i, j < n, on the field's shared zero and one."""
        n, zero, one = self.n, self.desc.zero(), self.desc.one()
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"monomial exponents must lie in 0..{n - 1}")
        grid = tuple(tuple(one if (r, s) == (i, j) else zero for s in range(n)) for r in range(n))
        return self.element_type(self, grid)

    def x(self) -> "SymbolElement":
        return self.monomial(1, 0)

    def y(self) -> "SymbolElement":
        return self.monomial(0, 1)


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


def _sign_unit(value: FieldElement) -> int:
    """The int cube root of alpha when alpha is 1 or -1."""
    if value.c1 == 0 and abs(value.c0) == 1:
        return int(value.c0)
    raise ValueError("only alpha, beta in {-1, 1} admit the diagonal matrix model")


class MatrixRep(Record):
    """3 x 3 matrix model: x -> X = c*diag(1, zeta, zeta^2), y -> c'*P for
    the cyclic permutation P, extended linearly over the basis x^i y^j."""

    # images[i][j] = X^i Y^j as the monomial matrix (shift, diagonal of pairs) of _monomial_mul
    __slots__ = ("algebra", "images")

    def apply(self, element: SymbolElement):
        if element.algebra != self.algebra:
            raise ValueError("element belongs to a different algebra")
        desc = self.algebra.desc
        twists = self.algebra._constants[2]
        out = [[None] * 3 for _ in range(3)]
        for i, (coeff_row, image_row) in enumerate(zip(element.coeffs, self.images)):
            for c, (j, diag) in zip(coeff_row, image_row):
                if c.is_zero():
                    continue
                # row r of X^i Y^j is the sign c^i*c'^j, its diag[0], twisted by zeta^(r*i)
                cp = (c.c0, c.c1) if diag[0][0] == 1 else (-c.c0, -c.c1)
                for r in range(3):
                    e, s = r * i % 3, (r + j) % 3
                    out[r][s] = pair_add(out[r][s], twists[e](cp) if e else cp)
        return [[desc.zero() if entry is None else FieldElement(desc, *entry) for entry in row] for row in out]


def _monomial_mul(a, b, u, w):
    """Product of 3 x 3 monomial matrices (j, d) over Q[t]/(t^2 + u*t + w),
    where (j, d) has the pair d[r] in row r, column (r + j) mod 3 and zeros
    elsewhere: 3 pair products."""
    ja, da = a
    jb, db = b
    return (ja + jb) % 3, tuple(pair_mul(da[r], db[(r + ja) % 3], u, w) for r in range(3))


def matrix_generators(alg: SymbolAlgebra) -> MatrixRep:
    """X^i Y^j is the monomial matrix of shift j with c^i*c'^j*zeta^(r*i) in
    row r: the algebra's twist by zeta^(r*i) of the int pair (c^i*c'^j, 0)."""
    if alg.n != 3:
        raise ValueError("the matrix model is built for degree 3")
    u, w, twists, _ = alg._constants
    c, c2 = _sign_unit(alg.alpha), _sign_unit(alg.beta)
    twist = lambda e, p: twists[e](p) if e else p
    images = tuple(tuple((j, tuple(twist(r * i % 3, (c**i * c2**j, 0)) for r in range(3))) for j in range(3))
                   for i in range(3))
    x_mat, y_mat, z = images[1][0], images[0][1], twist(1, (1, 0))
    if not (
        z == (alg.zeta.c0, alg.zeta.c1)
        and _monomial_mul(images[2][0], x_mat, u, w) == (0, ((alg.alpha.c0, alg.alpha.c1),) * 3)
        and _monomial_mul(images[0][2], y_mat, u, w) == (0, ((alg.beta.c0, alg.beta.c1),) * 3)
        and _monomial_mul(y_mat, x_mat, u, w) == _monomial_mul((0, (z, z, z)), images[1][1], u, w)
    ):
        raise ArithmeticError("matrix model violates the defining relations")
    return MatrixRep(alg, images)


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
    third, zero = alg.desc.lift(Fraction(1, 3)), alg.desc.zero()
    z = alg.zeta
    u = alg.element([[third, zero, zero], [third * c, zero, zero], [third, zero, zero]])
    v = alg.element([[third, zero, zero], [third * z * z * c, zero, zero], [third * z, zero, zero]])
    if u.is_zero() or v.is_zero() or not (u * v).is_zero():
        raise ArithmeticError("pulled-back matrix units are not a zero-divisor pair")
    return u, v


def left_regular_matrix(u: SymbolElement):
    """Matrix of v -> u*v in the (i, j)-lexicographic basis; singular
    exactly when u is zero or a left zero divisor.  Column k*n + l is u times
    x^k y^l: the coefficient of x^i y^j, twisted by zeta^(j*k), moves to
    x^((i+k) mod n) y^((j+l) mod n), times alpha when i + k >= n and beta
    when j + l >= n."""
    alg = u.algebra
    n, desc = alg.n, alg.desc
    pu, pw, twists, scales = alg._constants
    matrix = [[desc.zero()] * (n * n) for _ in range(n * n)]
    for i, row in enumerate(u.coeffs):
        for j, c in enumerate(row):
            if c.is_zero():
                continue
            for k in range(n):
                p = twists[j * k % n]((c.c0, c.c1)) if j * k % n else (c.c0, c.c1)
                for l in range(n):
                    s = scales[(i + k >= n) * 2 + (j + l >= n)]
                    entry = pair_mul(p, s, pu, pw) if s else p
                    matrix[(i + k) % n * n + (j + l) % n][k * n + l] = FieldElement(desc, *entry)
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
        "coeffs": [[str(c) for c in row] for row in element.coeffs],
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

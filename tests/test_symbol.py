import random
import re
from fractions import Fraction

import pytest

from symbalg import fields, linalg, quaternion, symbol
from symbalg.base import pair_mul
from symbalg.fields import QEPS, QQ, QSQRT3, ParseError, sqrt_field
from symbalg.quaternion import QuaternionAlgebra
from symbalg.symbol import (
    SymbolAlgebra,
    element_from_json,
    element_to_json,
    find_zero_divisor,
    left_regular_matrix,
    matrix_generators,
    quaternion_crosscheck,
    verify_relations,
)


def cubic(alpha=-1, beta=1):
    lift = lambda v: v if not isinstance(v, (int, Fraction)) else QEPS.lift(v)
    return SymbolAlgebra(QEPS, 3, QEPS.gen(), lift(alpha), lift(beta))


def quadratic(alpha, beta, desc=QQ):
    return SymbolAlgebra(desc, 2, desc.lift(-1), desc.lift(alpha), desc.lift(beta))


def identity(desc, n):
    return [[desc.one() if i == j else desc.zero() for j in range(n)] for i in range(n)]


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _rand_element(rng, alg):
    n = alg.n
    grid = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    return alg.element(grid)


# ----------------------------------------------------------- multiplication


def test_basis_rule_examples():
    alg = cubic()
    zeta = alg.zeta
    assert alg.y() * alg.x() == (alg.x() * alg.y()).scale(zeta)
    assert alg.monomial(2, 0) * alg.x() == alg.one().scale(alg.alpha)
    xy = alg.monomial(1, 1)
    assert xy * xy == alg.monomial(2, 2).scale(zeta)


def test_relations_hold():
    assert verify_relations(cubic(-1, 1))
    assert verify_relations(quadratic(-1, 7))
    for alpha in (-1, 1):
        for beta in (-1, 1):
            assert verify_relations(cubic(alpha, beta))
    assert verify_relations(cubic(QEPS.element(2, 1), QEPS.element(0, 3)))


def test_construction_guards():
    with pytest.raises(ValueError):
        SymbolAlgebra(QEPS, 4, QEPS.gen(), QEPS.one(), QEPS.one())
    with pytest.raises(ValueError):
        SymbolAlgebra(QEPS, 3, QEPS.one(), QEPS.one(), QEPS.one())  # zeta = 1
    with pytest.raises(ValueError):
        SymbolAlgebra(QQ, 3, QQ.lift(-1), QQ.one(), QQ.one())  # -1 has order 2
    with pytest.raises(ValueError):
        SymbolAlgebra(QQ, 2, QQ.lift(-1), QQ.zero(), QQ.one())
    with pytest.raises(ValueError):
        quadratic(1, 1).one() * cubic().one()


def test_associativity_random():
    rng = random.Random(3)
    for alg in (cubic(-1, 1), quadratic(2, 3)):
        for _ in range(50):
            u, v, w = (_rand_element(rng, alg) for _ in range(3))
            assert (u * v) * w == u * (v * w)


def test_distributivity_random():
    rng = random.Random(5)
    alg = cubic(-1, -1)
    for _ in range(40):
        u, v, w = (_rand_element(rng, alg) for _ in range(3))
        assert u * (v + w) == u * v + u * w


@pytest.mark.parametrize(
    "kind, products",
    [("symbol n=3 over Q(e)", 97), ("quaternion over Q(e)", 21)],
)
def test_pair_products_of_one_dense_product(monkeypatch, kind, products):
    """One product of two elements with every coefficient c0 + c1*w nonzero
    in both parts: a term product per pair of coefficients, and one product
    by alpha or beta per folded bin (n = 3: 81 + 16; n = 2: 16 + 5); the
    twists by zeta in Q(e) and by -1 take none."""
    rng = random.Random(17)
    coefficient = lambda: QEPS.element(Fraction(rng.randint(1, 9), rng.randint(1, 4)), rng.randint(1, 9))
    if kind.startswith("symbol"):
        alg = cubic(QEPS.element(2, 1), QEPS.element(-1, 3))
        u, v = (alg.element([[coefficient() for _ in range(3)] for _ in range(3)]) for _ in range(2))
    else:
        alg = QuaternionAlgebra(QEPS, QEPS.element(2, 1), QEPS.element(-1, 3))
        u, v = (alg.element(*(coefficient() for _ in range(4))) for _ in range(2))
    calls = []

    def counted(*args):
        calls.append(args)
        return pair_mul(*args)

    for module in (fields, symbol, quaternion):
        monkeypatch.setattr(module, "pair_mul", counted)
    u * v
    assert len(calls) == products


# ------------------------------------------------------------- matrix model


def test_matrix_generators_minus1_1():
    alg = cubic(-1, 1)
    rep = matrix_generators(alg)
    eps = QEPS.gen()
    zero, one = QEPS.zero(), QEPS.one()
    assert rep.apply(alg.x()) == [
        [-one, zero, zero],
        [zero, -eps, zero],
        [zero, zero, -(eps * eps)],
    ]
    assert rep.apply(alg.y()) == [
        [zero, one, zero],
        [zero, zero, one],
        [one, zero, zero],
    ]


@pytest.mark.parametrize("alpha,beta", [(-1, 1), (1, 1), (-1, -1), (1, -1)])
def test_matrix_relations(alpha, beta):
    alg = cubic(alpha, beta)
    rep = matrix_generators(alg)
    x = rep.apply(alg.x())
    y = rep.apply(alg.y())
    ident = identity(QEPS, 3)
    assert mat_mul(x, mat_mul(x, x)) == mat_scale(ident, alg.alpha)
    assert mat_mul(y, mat_mul(y, y)) == mat_scale(ident, alg.beta)
    assert mat_mul(y, x) == mat_scale(mat_mul(x, y), alg.zeta)


QSQRT_M3 = sqrt_field(-3)


def _is_primitive_root(zeta, n):
    """zeta^n = 1 and zeta^k != 1 for 0 < k < n, by repeated products."""
    one, power, orders = zeta.desc.one(), zeta, []
    for k in range(1, n + 1):
        if power == one:
            orders.append(k)
        power = power * zeta
    return orders == [n]


# (field, n, zeta as (c0, c1), accepted); the labels are checked by products
ROOTS = [
    (QQ, 2, (-1, 0), True),
    (QEPS, 2, (-1, 0), True),
    (QSQRT_M3, 2, (-1, 0), True),
    (QQ, 2, (1, 0), False),
    (QQ, 2, (2, 0), False),
    (QEPS, 2, (1, 0), False),
    (QEPS, 2, (0, 1), False),  # t is a cube root of unity, not a square root
    (QSQRT_M3, 2, (1, 0), False),
    (QSQRT_M3, 2, (0, 1), False),
    (QSQRT_M3, 2, (-1, 1), False),
    (QEPS, 3, (0, 1), True),  # t and t^2 = -1 - t
    (QEPS, 3, (-1, -1), True),
    (QSQRT_M3, 3, (Fraction(-1, 2), Fraction(1, 2)), True),  # (-1 +- t)/2
    (QSQRT_M3, 3, (Fraction(-1, 2), Fraction(-1, 2)), True),
    (QEPS, 3, (1, 0), False),
    (QEPS, 3, (-1, 0), False),
    (QEPS, 3, (0, -1), False),  # -t is a primitive sixth root
    (QEPS, 3, (1, 1), False),
    (QSQRT_M3, 3, (1, 0), False),
    (QSQRT_M3, 3, (Fraction(1, 2), Fraction(1, 2)), False),  # a sixth root, cube -1
    (QSQRT_M3, 3, (Fraction(-1, 2), Fraction(3, 2)), False),
    # Q holds no primitive cube root of unity
    *((QQ, 3, (c, 0), False) for c in (1, -1, 0, 2, Fraction(-1, 2), Fraction(1, 3))),
]


@pytest.mark.parametrize("desc,n,zeta,accepted", ROOTS)
def test_root_test_accepts_exactly_the_primitive_roots(desc, n, zeta, accepted):
    zeta = desc.element(*zeta)
    assert _is_primitive_root(zeta, n) is accepted
    make = lambda: SymbolAlgebra(desc, n, zeta, desc.lift(2), desc.lift(7))
    if accepted:
        assert make().zeta == zeta
    else:
        with pytest.raises(ValueError, match="^zeta must be a primitive n-th root of unity$"):
            make()


def test_root_test_comes_after_the_other_checks():
    with pytest.raises(ValueError, match="alpha and beta must be nonzero"):
        SymbolAlgebra(QQ, 3, QQ.one(), QQ.zero(), QQ.one())
    with pytest.raises(ValueError, match="degrees above 3"):
        SymbolAlgebra(QQ, 4, QQ.one(), QQ.one(), QQ.one())
    with pytest.raises(ValueError, match="zeta must live in the base field"):
        SymbolAlgebra(QQ, 3, QEPS.one(), QQ.one(), QQ.one())


@pytest.mark.parametrize(
    "grid",
    [
        [[1, 2, 9], [3, 4, 9], [9, 9, 9]],  # oversize
        [[1, 2], [3, 4], [9, 9]],  # a row too many
        [[1, 2, 9], [3, 4]],  # a row too long
        [[1], [3, 4]],  # a row too short
        [[1, 2]],  # a row too few
    ],
)
def test_element_refuses_a_grid_of_another_shape(grid):
    with pytest.raises(ValueError, match="^the grid must be 2 x 2$"):
        quadratic(2, 3).element(grid)


def test_element_refuses_a_coefficient_of_another_field():
    # sqrt 3 is no element of Q(e): taken as-is it read as e in products
    alg = cubic()
    grid = [[QSQRT3.gen(), 0, 0], [0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError, match="^coefficients must live in the base field$"):
        alg.element(grid)
    with pytest.raises(ValueError, match="^coefficients must live in the base field$"):
        quadratic(2, 3).element([[1, QEPS.lift(2)], [0, 0]])
    # rationals are lifted, and the base field's own elements kept
    assert alg.element([[QEPS.gen(), Fraction(1, 2), 3], [0] * 3, [0] * 3]).coeffs[0] == (
        QEPS.gen(), QEPS.lift(Fraction(1, 2)), QEPS.lift(3)
    )


def test_element_refuses_a_float_coefficient():
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        quadratic(2, 3).element([[0.5, 0], [0, 0]])
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        QuaternionAlgebra(QQ, QQ.lift(2), QQ.lift(3)).element(1, 0, 0.25, 0)


# (field, n, zeta as (c0, c1)): n = 3 needs a cube root of unity, which Q lacks
MONOMIAL_ALGEBRAS = [
    (QQ, 2, (-1, 0)),
    (QEPS, 2, (-1, 0)),
    (QSQRT_M3, 2, (-1, 0)),
    (QEPS, 3, (0, 1)),
    (QSQRT_M3, 3, (Fraction(-1, 2), Fraction(1, 2))),
]


@pytest.mark.parametrize("desc,n,zeta", MONOMIAL_ALGEBRAS, ids=["q-2", "qeps-2", "qsqrt-3-2", "qeps-3", "qsqrt-3-3"])
def test_monomials_are_the_lifted_unit_grids(desc, n, zeta):
    alg = SymbolAlgebra(desc, n, desc.element(*zeta), desc.lift(2), desc.lift(7))
    zero, one = desc.zero(), desc.one()
    for i in range(n):
        for j in range(n):
            monomial = alg.monomial(i, j)
            assert monomial == alg.element([[int((r, s) == (i, j)) for s in range(n)] for r in range(n)])
            # built from the field's own zero and one, not from new ones
            assert all(c is (one if (r, s) == (i, j) else zero)
                       for r, row in enumerate(monomial.coeffs) for s, c in enumerate(row))
    assert alg.one() == alg.monomial(0, 0) and alg.one().coeffs[0][0] is one
    assert all(c is zero for c in alg.one().flat()[1:])


@pytest.mark.parametrize("n", [2, 3])
def test_monomial_refuses_exponents_outside_the_degree(n):
    alg = quadratic(2, 3) if n == 2 else cubic()
    for i, j in ((0, 0), (n - 1, 0), (0, n - 1), (n - 1, n - 1)):
        assert alg.monomial(i, j).coeffs[i][j] == alg.desc.one()
    for i, j in ((-1, 0), (0, -1), (n, 0), (0, n), (-1, n), (n, n)):
        with pytest.raises(ValueError, match=f"^monomial exponents must lie in 0..{n - 1}$"):
            alg.monomial(i, j)


def test_zero_outputs_are_the_shared_zero():
    alg, zero = cubic(-1, 1), QEPS.zero()
    assert all(c is zero for c in (alg.x() * alg.y()).flat() if c != QEPS.one())
    assert all(c is zero for row in matrix_generators(alg).apply(alg.x()) for c in row if c.is_zero())
    assert all(c is zero for row in find_zero_divisor(alg)[0].coeffs for c in row[1:])
    quat = QuaternionAlgebra(QQ, QQ.lift(2), QQ.lift(3))
    assert quat.element(0, 0, 0, 0).norm() is QQ.zero()


def _dense_model(alg):
    """The images X^i Y^j of the model as dense 3 x 3 products of
    X = c*diag(1, zeta, zeta^2) and Y = c'*P."""
    zero, z = QEPS.zero(), alg.zeta
    c, c2 = alg.alpha, alg.beta  # each is its own cube root when it is 1 or -1
    x = [[c, zero, zero], [zero, z * c, zero], [zero, zero, z * z * c]]
    y = [[zero, c2, zero], [zero, zero, c2], [c2, zero, zero]]
    ident = identity(QEPS, 3)
    x_pows = [ident, x, mat_mul(x, x)]
    y_pows = [ident, y, mat_mul(y, y)]
    return [[mat_mul(xi, yj) for yj in y_pows] for xi in x_pows]


@pytest.mark.parametrize("zeta", [QEPS.gen(), QEPS.gen() * QEPS.gen()], ids=["w", "w^2"])
@pytest.mark.parametrize("alpha,beta", [(-1, 1), (1, 1), (-1, -1), (1, -1)])
def test_matrix_generators_equal_dense_construction(alpha, beta, zeta):
    alg = SymbolAlgebra(QEPS, 3, zeta, QEPS.lift(alpha), QEPS.lift(beta))
    rep = matrix_generators(alg)
    assert [[rep.apply(alg.monomial(i, j)) for j in range(3)] for i in range(3)] == _dense_model(alg)


@pytest.mark.parametrize("zeta", [QEPS.gen(), QEPS.gen() * QEPS.gen()], ids=["w", "w^2"])
@pytest.mark.parametrize("alpha,beta", [(-1, 1), (1, 1), (-1, -1), (1, -1)])
def test_matrix_model_images_are_int_pairs_over_qeps(alpha, beta, zeta):
    # every entry of X^i Y^j is a unit of Z[e], so no Fraction is needed
    rep = matrix_generators(SymbolAlgebra(QEPS, 3, zeta, QEPS.lift(alpha), QEPS.lift(beta)))
    entries = [pair for row in rep.images for _, diag in row for pair in diag]
    assert len(entries) == 27
    assert all(type(a) is int and type(b) is int for a, b in entries), entries


def test_matrix_model_relation_check_raises(monkeypatch):
    exact = symbol._monomial_mul

    def one_wrong_entry(a, b, u, w):
        shift, ((d0, d1), *rest) = exact(a, b, u, w)
        return shift, ((d0 + 1, d1), *rest)

    monkeypatch.setattr(symbol, "_monomial_mul", one_wrong_entry)
    with pytest.raises(ArithmeticError):
        matrix_generators(cubic(-1, 1))


def test_matrix_generators_need_sign_units():
    with pytest.raises(ValueError):
        matrix_generators(cubic(QEPS.lift(2), QEPS.one()))
    with pytest.raises(ValueError):
        matrix_generators(quadratic(-1, 1))


def test_rep_identity_and_homomorphism():
    alg = cubic(-1, 1)
    rep = matrix_generators(alg)
    assert rep.apply(alg.one()) == identity(QEPS, 3)
    x_img = rep.apply(alg.x())
    y_img = rep.apply(alg.y())
    assert rep.apply(alg.x() * alg.y()) == mat_mul(x_img, y_img)
    rng = random.Random(9)
    for _ in range(25):
        u = _rand_element(rng, alg)
        v = _rand_element(rng, alg)
        assert rep.apply(u * v) == mat_mul(rep.apply(u), rep.apply(v))


def _basis_image_matrix(rep):
    """9 x 9 matrix whose columns are the flattened images of the basis."""
    basis = [rep.algebra.monomial(i, j) for i in range(3) for j in range(3)]
    columns = [[entry for row in rep.apply(b) for entry in row] for b in basis]
    return [list(row) for row in zip(*columns)]


def rep_is_bijective(rep):
    return not linalg.determinant(_basis_image_matrix(rep)).is_zero()


@pytest.mark.parametrize("alpha,beta", [(-1, 1), (1, 1), (-1, -1), (1, -1)])
def test_rep_is_bijective_all_sign_pairs(alpha, beta):
    assert rep_is_bijective(matrix_generators(cubic(alpha, beta)))


def test_rep_of_y_minus_one_is_singular():
    alg = cubic(-1, 1)
    rep = matrix_generators(alg)
    image = rep.apply(alg.y() - alg.one())
    # P fixes (1,1,1), so P - I is singular
    assert linalg.determinant(image).is_zero()


# ------------------------------------------------------------ zero divisors


def _pulled_back_matrix_units(alg):
    """Preimages of E11 and E22 by solving the 9 x 9 system of the matrix
    model's basis images."""
    rep = matrix_generators(alg)
    m = _basis_image_matrix(rep)
    units = []
    for index in (0, 4):
        rhs = [QEPS.one() if r == index else QEPS.zero() for r in range(9)]
        coeffs = linalg.solve(m, rhs)
        units.append(alg.element([[coeffs[3 * i + j] for j in range(3)] for i in range(3)]))
    return rep, units


def _matrix_unit(r):
    return [[QEPS.one() if i == j == r else QEPS.zero() for j in range(3)] for i in range(3)]


def _check_zero_divisor_against_pullback(alg):
    u, v = find_zero_divisor(alg)
    assert not u.is_zero() and not v.is_zero()
    assert (u * v).is_zero()
    rep, (e11, e22) = _pulled_back_matrix_units(alg)
    assert (u, v) == (e11, e22)
    assert rep.apply(u) == _matrix_unit(0)
    assert rep.apply(v) == _matrix_unit(1)


@pytest.mark.parametrize("alpha,beta", [(-1, 1), (1, 1), (-1, -1), (1, -1)])
def test_find_zero_divisor(alpha, beta):
    _check_zero_divisor_against_pullback(cubic(alpha, beta))


@pytest.mark.parametrize("alpha,beta", [(-1, 1), (1, -1)])
def test_find_zero_divisor_with_zeta_squared(alpha, beta):
    eps = QEPS.gen()
    _check_zero_divisor_against_pullback(SymbolAlgebra(QEPS, 3, eps * eps, QEPS.lift(alpha), QEPS.lift(beta)))


def test_find_zero_divisor_needs_the_matrix_model():
    message = re.escape("only alpha, beta in {-1, 1} admit the diagonal matrix model")
    for alpha, beta in ((2, 1), (1, 2)):
        with pytest.raises(ValueError, match=message):
            matrix_generators(cubic(alpha, beta))
        with pytest.raises(ValueError, match=message):
            find_zero_divisor(cubic(alpha, beta))
    with pytest.raises(ValueError, match="degree 3"):
        find_zero_divisor(quadratic(-1, 1))


def test_telescoping_witness_when_beta_is_one():
    alg = cubic(-1, 1)
    u = alg.y() - alg.one()
    v = alg.monomial(0, 2) + alg.y() + alg.one()
    assert (u * v).is_zero()
    assert not u.is_zero() and not v.is_zero()


# ------------------------------------------------------ left regular matrix


def test_left_regular_identity():
    alg = cubic(-1, 1)
    m = left_regular_matrix(alg.one())
    assert m == identity(QEPS, 9)


def test_left_regular_zero_divisor_is_singular():
    alg = cubic(-1, 1)
    assert linalg.determinant(left_regular_matrix(alg.y() - alg.one())).is_zero()


def test_left_regular_determinant_of_x():
    alg = cubic(-1, 1)
    det = linalg.determinant(left_regular_matrix(alg.x()))
    cube = alg.alpha * alg.alpha * alg.alpha
    assert det in (cube, -cube)
    assert not det.is_zero()


def test_left_regular_detects_invertible_monomials():
    alg = cubic(QEPS.element(2, 1), QEPS.element(1, 1))
    for i in range(3):
        for j in range(3):
            u = alg.monomial(i, j)
            # explicit inverse: the complementary monomial rescaled so the
            # product is exactly 1
            partner = alg.monomial((3 - i) % 3, (3 - j) % 3)
            product = u * partner
            scalar = product.coeffs[0][0]
            inverse = partner.scale(scalar.inv())
            assert u * inverse == alg.one()
            assert inverse * u == alg.one()
            assert not linalg.determinant(left_regular_matrix(u)).is_zero()


# --------------------------------------------------------------- crosscheck


def test_crosscheck_examples():
    assert quaternion_crosscheck(quadratic(-1, 7))
    assert quaternion_crosscheck(quadratic(2, 3))
    alg = quadratic(-1, 7)
    # y*x corresponds to e2*e1 = -e3
    product = alg.y() * alg.x()
    assert product == alg.monomial(1, 1).scale(QQ.lift(-1))
    assert alg.x() * alg.x() == alg.one().scale(alg.alpha)


def test_crosscheck_random_pairs():
    rng = random.Random(13)
    for _ in range(10):
        alpha = 0
        while alpha == 0:
            alpha = rng.randint(-9, 9)
        beta = 0
        while beta == 0:
            beta = rng.randint(-9, 9)
        assert quaternion_crosscheck(quadratic(alpha, beta))


def test_crosscheck_needs_degree_two():
    with pytest.raises(ValueError):
        quaternion_crosscheck(cubic())


# -------------------------------------------------------------- serialization


def test_json_round_trip():
    alg = cubic(-1, 1)
    rng = random.Random(21)
    for _ in range(10):
        element = _rand_element(rng, alg)
        data = element_to_json(element)
        assert element_from_json(alg, data) == element


def test_json_rejects_bad_shapes():
    alg = cubic(-1, 1)
    with pytest.raises(ValueError):
        element_from_json(alg, {"n": 2, "coeffs": [["1", "0"], ["0", "0"]]})
    with pytest.raises(ValueError):
        element_from_json(alg, {"n": 3, "coeffs": [["1"]]})
    for data in (None, [1], "x", {"n": 3, "coeffs": None}, {"n": 3, "coeffs": [[1, 2, 3]] * 3}):
        with pytest.raises(ParseError):
            element_from_json(alg, data)

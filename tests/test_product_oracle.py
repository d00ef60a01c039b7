"""Differential test of the algebra products against a structure-constant
product written out here.

The oracle keeps an element as a dict {(i, j): (c0, c1)} of Fraction pairs
c0 + c1*t over Q[t]/(t^2 + u*t + w), and applies

    (x^i y^j)(x^k y^l) = zeta^(j*k) * alpha^((i+k) div n)
                         * beta^((j+l) div n) * x^((i+k) mod n) y^((j+l) mod n)

term by term, one factor of zeta, alpha or beta at a time.  It calls no
product code of symbalg and reads only the u and w of the descriptors; the
matrix model's generators X and Y are read as the images of x and y.

Zero t-parts and rational or +-1 alpha and beta are drawn often, because
the kernel skips the arithmetic on a zero it knows of.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from symbalg.fields import QEPS, QQ, FieldDescriptor, sqrt_field
from symbalg.quaternion import QuaternionAlgebra
from symbalg.symbol import SymbolAlgebra, left_regular_matrix, matrix_generators

ZERO = (Fraction(0), Fraction(0))
# Q(t) for t^2 + 3t + 1 is Q(sqrt 5) on a generator with u outside {0, 1},
# which takes pair_mul's products by u and w
FIELDS = {
    "Q": QQ,
    "Q(sqrt 3)": sqrt_field(3),
    "Q(sqrt -5)": sqrt_field(-5),
    "Q(e)": QEPS,
    "Q(t), t^2 + 3t + 1": FieldDescriptor(2, 3, 1),
}
# 1, e1, e2, e3 of H(alpha, beta) are 1, x, y, xy of the symbol algebra of degree 2
QUATERNION_MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1))


def o_mul(desc, x, y):
    u, w = desc.u, desc.w
    return (x[0] * y[0] - w * x[1] * y[1], x[0] * y[1] + x[1] * y[0] - u * x[1] * y[1])


def o_product(desc, n, zeta, alpha, beta, a, b):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            term = o_mul(desc, x, y)
            for _ in range(j * k % n):
                term = o_mul(desc, term, zeta)
            if i + k >= n:
                term = o_mul(desc, term, alpha)
            if j + l >= n:
                term = o_mul(desc, term, beta)
            key = ((i + k) % n, (j + l) % n)
            before = out.get(key, ZERO)
            out[key] = (before[0] + term[0], before[1] + term[1])
    return {key: c for key, c in out.items() if c != ZERO}


def pair(e):
    return (e.c0, e.c1)


def sparse(cells):
    return {key: c for key, c in cells.items() if c != ZERO}


def grid_dict(element):
    n = element.algebra.n
    return sparse({(i, j): pair(element.coeffs[i][j]) for i in range(n) for j in range(n)})


def quaternion_dict(q):
    return sparse({key: pair(c) for key, c in zip(QUATERNION_MONOMIALS, q.coords)})


RATIONAL = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))
# each part of a coefficient c0 + c1*t is zero about half of the time
PART = st.one_of(st.just(Fraction(0)), RATIONAL)


@st.composite
def coefficient(draw, desc, nonzero=False):
    c = (draw(PART), draw(PART) if desc.degree == 2 else Fraction(0))
    if nonzero and c == ZERO:
        c = (Fraction(draw(st.sampled_from([-3, -1, 1, 2]))), c[1])
    return c


@st.composite
def invariant(draw, desc):
    """alpha or beta: +-1, another rational, or any nonzero coefficient."""
    kind = draw(st.sampled_from(["unit", "rational", "any"]))
    if kind == "unit":
        return (Fraction(draw(st.sampled_from([-1, 1]))), Fraction(0))
    if kind == "rational":
        return (draw(coefficient(QQ, nonzero=True))[0], Fraction(0))
    return draw(coefficient(desc, nonzero=True))


@st.composite
def sparse_cells(draw, desc, count):
    """count coefficients, each zero about half of the time."""
    return [draw(st.one_of(st.just(ZERO), coefficient(desc))) for _ in range(count)]


# the primitive cube roots of unity of the fields of degree-3 cases: t and
# t^2 = -1 - t in Q(e), which the kernel applies by additions, and
# (-1 +- t)/2 in Q(sqrt -3), which it applies by products
CUBE_ROOTS = {
    "Q(e), n = 3": (QEPS, [(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(-1))]),
    "Q(sqrt -3), n = 3": (sqrt_field(-3), [(Fraction(-1, 2), Fraction(1, 2)), (Fraction(-1, 2), Fraction(-1, 2))]),
}


@st.composite
def symbol_case(draw):
    """(desc, n, zeta, alpha, beta, algebra): degree 2 over the five fields
    and degree 3 over Q(e) and Q(sqrt -3), with either primitive cube root
    as zeta."""
    name = draw(st.sampled_from([*FIELDS, *CUBE_ROOTS]))
    if name in CUBE_ROOTS:
        (desc, roots), n = CUBE_ROOTS[name], 3
        zeta = draw(st.sampled_from(roots))
    else:
        desc, n, zeta = FIELDS[name], 2, (Fraction(-1), Fraction(0))
    alpha, beta = draw(invariant(desc)), draw(invariant(desc))
    alg = SymbolAlgebra(desc, n, desc.element(*zeta), desc.element(*alpha), desc.element(*beta))
    return desc, n, zeta, alpha, beta, alg


def symbol_element(alg, cells):
    n = alg.n
    return alg.element([[alg.desc.element(*cells[i * n + j]) for j in range(n)] for i in range(n)])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_symbol_product_matches_oracle(data):
    desc, n, zeta, alpha, beta, alg = data.draw(symbol_case())
    a = data.draw(sparse_cells(desc, n * n))
    b = data.draw(sparse_cells(desc, n * n))
    u, v = symbol_element(alg, a), symbol_element(alg, b)
    assert grid_dict(u * v) == o_product(desc, n, zeta, alpha, beta, grid_dict(u), grid_dict(v))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_quaternion_product_and_norm_match_oracle(data):
    desc = FIELDS[data.draw(st.sampled_from(list(FIELDS)))]
    alpha, beta = data.draw(invariant(desc)), data.draw(invariant(desc))
    alg = QuaternionAlgebra(desc, desc.element(*alpha), desc.element(*beta))
    p, q = (alg.element(*(desc.element(*c) for c in data.draw(sparse_cells(desc, 4)))) for _ in range(2))
    expected = o_product(desc, 2, (Fraction(-1), Fraction(0)), alpha, beta, quaternion_dict(p), quaternion_dict(q))
    assert quaternion_dict(p * q) == expected
    assert [pair(x.norm()) for x in (p, q)] == [o_norm(desc, alpha, beta, x) for x in (p, q)]


def o_norm(desc, alpha, beta, q):
    """N(q) from q * conj(q) = N(q) * 1."""
    conj = {key: c if key == (0, 0) else (-c[0], -c[1]) for key, c in quaternion_dict(q).items()}
    norm = o_product(desc, 2, (Fraction(-1), Fraction(0)), alpha, beta, quaternion_dict(q), conj)
    assert set(norm) <= {(0, 0)}
    return norm.get((0, 0), ZERO)


def test_norm_matches_oracle_on_every_zero_pattern():
    """Each coordinate zero, rational, a multiple of t or neither, over
    rational, unit and irrational alpha and beta."""
    parts = [ZERO, (Fraction(2), Fraction(0)), (Fraction(0), Fraction(-3, 2)), (Fraction(1, 3), Fraction(5))]
    invariants = [
        ((Fraction(-1), Fraction(0)), (Fraction(7, 2), Fraction(0))),
        ((Fraction(2), Fraction(1)), (Fraction(-3), Fraction(0))),
        ((Fraction(1), Fraction(-1)), (Fraction(1, 2), Fraction(2))),
    ]
    for desc in FIELDS.values():
        for alpha, beta in invariants if desc.degree == 2 else invariants[:1]:
            alg = QuaternionAlgebra(desc, desc.element(*alpha), desc.element(*beta))
            for coords in itertools.product(parts if desc.degree == 2 else parts[:2], repeat=4):
                q = alg.element(*(desc.element(*c) for c in coords))
                assert pair(q.norm()) == o_norm(desc, alpha, beta, q), coords


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_left_regular_columns_match_oracle(data):
    desc, n, zeta, alpha, beta, alg = data.draw(symbol_case())
    u = symbol_element(alg, data.draw(sparse_cells(desc, n * n)))
    matrix = left_regular_matrix(u)
    for k in range(n):
        for l in range(n):
            column = {(r // n, r % n): pair(matrix[r][k * n + l]) for r in range(n * n)}
            expected = o_product(desc, n, zeta, alpha, beta, grid_dict(u), {(k, l): (Fraction(1), Fraction(0))})
            assert sparse(column) == expected


def o_matmul(desc, a, b):
    return [
        [
            (sum(o_mul(desc, a[r][k], b[k][s])[0] for k in range(len(b))),
             sum(o_mul(desc, a[r][k], b[k][s])[1] for k in range(len(b))))
            for s in range(len(b[0]))
        ]
        for r in range(len(a))
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matrix_model_matches_oracle(data):
    """apply(u) is the sum of u's coefficients times X^i Y^j, and the image
    of the oracle's product u*v is the product of the images."""
    zeta = data.draw(st.sampled_from([(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(-1))]))
    alpha, beta = (data.draw(st.sampled_from([(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))])) for _ in range(2))
    alg = SymbolAlgebra(QEPS, 3, QEPS.element(*zeta), QEPS.element(*alpha), QEPS.element(*beta))
    rep = matrix_generators(alg)
    gens = [[[pair(e) for e in row] for row in rep.apply(g)] for g in (alg.x(), alg.y())]
    identity = [[(Fraction(int(r == s)), Fraction(0)) for s in range(3)] for r in range(3)]
    powers = [[identity], [identity]]
    for m, pows in zip(gens, powers):
        for _ in range(2):
            pows.append(o_matmul(QEPS, pows[-1], m))

    def image(cells):
        out = [[ZERO] * 3 for _ in range(3)]
        for (i, j), c in cells.items():
            monomial = o_matmul(QEPS, powers[0][i], powers[1][j])
            for r in range(3):
                for s in range(3):
                    t = o_mul(QEPS, c, monomial[r][s])
                    out[r][s] = (out[r][s][0] + t[0], out[r][s][1] + t[1])
        return out

    u, v = (symbol_element(alg, data.draw(sparse_cells(QEPS, 9))) for _ in range(2))
    applied = [[[pair(e) for e in row] for row in rep.apply(x)] for x in (u, v)]
    assert applied == [image(grid_dict(u)), image(grid_dict(v))]
    product = o_product(QEPS, 3, zeta, alpha, beta, grid_dict(u), grid_dict(v))
    assert o_matmul(QEPS, *applied) == image(product)

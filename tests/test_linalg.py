"""Bareiss determinant and solve against Gauss-Jordan elimination on field
elements, written out here as the reference."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbalg import linalg
from symbalg.fields import QEPS, QQ, QSQRT3, FieldDescriptor, pair_conj_norm, sqrt_field
from symbalg.symbol import SymbolAlgebra, left_regular_matrix

# the last field, t^2 + 3t + 1, has u outside {0, 1}: pair_mul multiplies by u and w
FIELDS = [QQ, QEPS, QSQRT3, sqrt_field(-5), FieldDescriptor(2, 3, 1)]


def reference_solve(a, rhs):
    """Gauss-Jordan elimination with a field inversion per pivot."""
    n = len(a)
    m = [row[:] + [rhs[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if pivot is None:
            raise ValueError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col].inv()
        m[col] = [entry * inv for entry in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                factor = m[r][col]
                m[r] = [er - factor * ec for er, ec in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def reference_determinant(a):
    """Gaussian elimination: the product of the pivots, negated per row swap."""
    n = len(a)
    desc = a[0][0].desc
    m = [row[:] for row in a]
    det = desc.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if pivot is None:
            return desc.zero()
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inv()
        for r in range(col + 1, n):
            if not m[r][col].is_zero():
                factor = m[r][col] * inv
                m[r] = [er - factor * ec for er, ec in zip(m[r], m[col])]
    return det


@st.composite
def systems(draw):
    """(a, b) over one of FIELDS with n in 1..9 and entries of 40/20 digits
    (numerator/denominator) or of 3/2; a is made singular (a repeated row, a
    zero column) or given a pivot that needs a row swap."""
    desc = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 9))
    num_digits, den_digits = draw(st.sampled_from([(40, 20), (3, 2)]))
    coeff = st.builds(Fraction, st.integers(-(10**num_digits), 10**num_digits), st.integers(1, 10**den_digits))
    entry = st.builds(desc.element, coeff, coeff if desc.degree == 2 else st.just(0))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    b = draw(st.lists(entry, min_size=n, max_size=n))
    shape = draw(st.sampled_from(["random", "repeated row", "zero column", "first swap", "later swap"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if shape == "repeated row" and i != j:
        a[j] = list(a[i])
    elif shape == "zero column":
        for row in a:
            row[j] = desc.zero()
    elif shape == "first swap":
        a[0][0] = desc.zero()
    elif shape == "later swap" and n > 2:
        # the leading 2 x 2 block is singular, so column 1 has no pivot in row 1
        a[1][:2] = [x * desc.lift(i + 2) for x in a[0][:2]]
    return a, b


@given(systems())
@settings(max_examples=150, deadline=None)
def test_matches_gauss_jordan(system):
    a, b = system
    before = [row[:] for row in a]
    assert linalg.determinant(a) == reference_determinant(a)
    try:
        expected = reference_solve(a, b)
    except ValueError:
        with pytest.raises(ValueError, match="^singular matrix$"):
            linalg.solve(a, b)
    else:
        assert linalg.solve(a, b) == expected
    assert a == before


@pytest.mark.parametrize("desc", FIELDS)
def test_pivot_swaps_and_singular_inputs(desc):
    g = desc.element(Fraction(2, 3), Fraction(-5, 7) if desc.degree == 2 else 0)
    one, zero = desc.one(), desc.zero()
    swapped = [[zero, one, g], [g, zero, one], [one, g, g * g]]
    assert linalg.determinant(swapped) == reference_determinant(swapped) != zero
    rhs = [one, g, zero]
    x = linalg.solve(swapped, rhs)
    assert x == reference_solve(swapped, rhs)
    assert [sum((c * xi for c, xi in zip(row, x)), zero) for row in swapped] == rhs
    for singular in ([swapped[0], swapped[1], swapped[0]], [[row[0], zero, row[2]] for row in swapped]):
        assert linalg.determinant(singular) == zero
        with pytest.raises(ValueError, match="^singular matrix$"):
            linalg.solve(singular, rhs)


def test_left_regular_inverses_as_in_the_elimination_workload():
    # the benchmark's inverse operation: a 9 x 9 left-regular matrix over
    # Q(e) of a random element of the division algebra (2, 7), and e1
    alg = SymbolAlgebra(QEPS, 3, QEPS.gen(), QEPS.lift(2), QEPS.lift(7))
    e1 = [QEPS.one()] + [QEPS.zero()] * 8
    rng = random.Random(11)
    for _ in range(4):
        coeffs = [[QEPS.element(*(Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(2)))
                   for _ in range(3)] for _ in range(3)]
        u = alg.element(coeffs)
        m = left_regular_matrix(u)
        assert linalg.determinant(m) == reference_determinant(m)
        x = linalg.solve(m, e1)
        assert x == reference_solve(m, e1)
        assert u * alg.element([x[3 * i:3 * i + 3] for i in range(3)]) == alg.one()


def test_inexact_division_raises():
    # in Z[e] (u = w = 1): 3 = (1 - e)(2 + e), but 1/2 and 1/(1 - e) are not integral
    conj, norm = pair_conj_norm((1, -1), 1, 1)
    assert linalg._exact_quotient((3, 0), conj, norm, 1, 1) == (2, 1)
    with pytest.raises(ArithmeticError):
        linalg._exact_quotient((1, 0), conj, norm, 1, 1)
    conj, norm = pair_conj_norm((2, 0), 1, 1)
    with pytest.raises(ArithmeticError):
        linalg._exact_quotient((1, 1), conj, norm, 1, 1)


def test_mixed_fields_are_refused():
    with pytest.raises(ValueError, match="different fields"):
        linalg.determinant([[QEPS.one(), QEPS.zero()], [QSQRT3.zero(), QSQRT3.one()]])

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbalg.base import pair_conj_norm
from symbalg.fields import (
    MAX_SQRT_FIELD_D,
    QEPS,
    QQ,
    QSQRT3,
    FieldDescriptor,
    ParseError,
    parse_element,
    parse_rational,
    sqrt_field,
)

# the last field, t^2 + 3t + 1, has u outside {0, 1}: pair_mul multiplies by u and w
DESCRIPTORS = [QQ, QEPS, QSQRT3, sqrt_field(-1), sqrt_field(5), FieldDescriptor(2, 3, 1)]

small_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def elements(desc):
    if desc.degree == 1:
        return st.builds(lambda c0: desc.element(c0), small_fractions)
    return st.builds(lambda c0, c1: desc.element(c0, c1), small_fractions, small_fractions)


def test_add_componentwise():
    one_plus_theta = QEPS.element(1) + QEPS.gen()
    assert one_plus_theta == QEPS.element(1, 1)
    a = QEPS.element(Fraction(2, 3), Fraction(-1, 5))
    assert a + QEPS.zero() == a
    assert QEPS.element(1, 1) + QEPS.element(-1, -1) == QEPS.zero()


def test_mul_reduces_by_min_poly():
    eps = QEPS.gen()
    assert eps * eps == QEPS.element(-1, -1)
    r3 = QSQRT3.gen()
    assert r3 * r3 == QSQRT3.element(3)
    assert QEPS.element(1, 1) * QEPS.element(1, 1) == QEPS.element(0, 1)


def _solve_inverse_2x2(a):
    """Independent oracle: solve a * (x + y*t) = 1 as a rational 2x2 system."""
    u, w = a.desc.u, a.desc.w
    # columns are a*1 and a*t expressed on the basis {1, t}
    m00, m10 = a.c0, a.c1
    m01, m11 = -w * a.c1, a.c0 - u * a.c1
    det = m00 * m11 - m01 * m10
    return a.desc.element((m11 * 1 - m01 * 0) / det, (m00 * 0 - m10 * 1) / det)


def test_inv_examples():
    eps = QEPS.gen()
    assert eps.inv() == QEPS.element(-1, -1)
    assert QQ.element(2).inv() == QQ.element(Fraction(1, 2))
    # 40-digit numerator and denominator: Q inverts by the conjugate and norm of Q(t) at u = w = 0
    big = Fraction(1234567890123456789012345678901234567891, -9876543210987654321098765432109876543211)
    assert QQ.element(big).inv() == QQ.element(1 / big)
    one_minus_eps = QEPS.element(1, -1)
    expected = _solve_inverse_2x2(one_minus_eps)
    assert expected == QEPS.element(Fraction(2, 3), Fraction(1, 3))
    assert one_minus_eps.inv() == expected
    assert one_minus_eps * one_minus_eps.inv() == QEPS.one()


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QEPS.zero().inv()


def test_norm_formulas():
    a, b = Fraction(5, 2), Fraction(-3, 7)
    assert pair_conj_norm((a, b), QSQRT3.u, QSQRT3.w)[1] == a * a - 3 * b * b
    assert pair_conj_norm((a, b), QEPS.u, QEPS.w)[1] == a * a - a * b + b * b
    assert pair_conj_norm((0, 0), QEPS.u, QEPS.w)[1] == 0


def test_descriptor_mismatch_is_an_error():
    with pytest.raises(ValueError):
        QEPS.one() + QSQRT3.one()
    with pytest.raises(ValueError):
        QEPS.one() * QQ.one()


def test_lift_is_the_explicit_embedding():
    assert QEPS.lift(Fraction(3, 4)) == QEPS.element(Fraction(3, 4), 0)
    assert QEPS.one() * 2 == QEPS.element(2)


def test_reducible_min_poly_rejected():
    # t^2 - 4, t^2 + 3t + 2 and t^2 + 2t + 1 have the square discriminants 16, 1 and 0
    for u, w in ((0, -4), (3, 2), (2, 1)):
        with pytest.raises(ValueError, match="irreducible"):
            FieldDescriptor(2, u, w)
    with pytest.raises(ValueError):
        sqrt_field(1)
    with pytest.raises(ValueError):
        sqrt_field(12)


def test_descriptor_constants_are_ints():
    for desc in (QQ, QEPS, QSQRT3, sqrt_field(-1), sqrt_field(-5)):
        assert type(desc.u) is int and type(desc.w) is int
    refused = [(Fraction(1), 1), (1, Fraction(1)), (Fraction(1, 2), Fraction(3, 4)), (1.0, 1), (0, -3.0), (True, 1)]
    for u, w in refused:
        with pytest.raises(ValueError, match="must be ints"):
            FieldDescriptor(2, u, w)
    with pytest.raises(ValueError, match="must be ints"):
        FieldDescriptor(1, Fraction(0), 0)


def _accepted(d):
    try:
        sqrt_field(d)
    except ValueError:
        return False
    return True


def test_sqrt_field_cap():
    # below the cap: the square of a prime, a product of two primes, a prime
    cases = {999983**2: False, 999983 * 1000003: True, 999999999989: True, 10**12 - 1: False}
    for d, squarefree in cases.items():
        assert abs(d) <= MAX_SQRT_FIELD_D
        assert _accepted(d) == _accepted(-d) == squarefree, d
    with pytest.raises(ValueError, match="squarefree"):
        sqrt_field(MAX_SQRT_FIELD_D)  # 2^12 * 5^12
    for d in (MAX_SQRT_FIELD_D + 1, -MAX_SQRT_FIELD_D - 1, 10**30 + 1, -(10**30)):
        with pytest.raises(ValueError, match="at most"):
            sqrt_field(d)


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_field_axioms_random(desc):
    # zero times x and x times zero, where x has a nonzero t-part outside Q
    x = desc.element(Fraction(-7, 3), Fraction(5, 2) if desc.degree == 2 else 0)
    assert desc.zero() * x == x * desc.zero() == desc.zero() == desc.zero() * desc.zero()

    @settings(max_examples=60, deadline=None)
    @given(a=elements(desc), b=elements(desc), c=elements(desc))
    def inner(a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == desc.one()

    inner()


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_norm_multiplicative(desc):
    @settings(max_examples=60, deadline=None)
    @given(a=elements(desc), b=elements(desc))
    def inner(a, b):
        norm = lambda x: pair_conj_norm((x.c0, x.c1), desc.u, desc.w)[1]
        assert norm(a * b) == norm(a) * norm(b)

    inner()


@given(n=st.integers(-10**12, 10**12), d=st.integers(1, 10**9))
def test_rational_canonical_form_is_stable(n, d):
    q = Fraction(n, d)
    again = Fraction(q.numerator, q.denominator)
    assert again == q
    assert again.denominator > 0
    import math

    assert math.gcd(abs(again.numerator), again.denominator) == 1


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 3 / 4 ") == Fraction(3, 4)
    for bad in ("1.5", "1e3", "3//4", "", "x", "1/0", "-5/0", "1" * 5000):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_parse_element_grammar():
    assert parse_element(QEPS, "3+1*w") == QEPS.element(3, 1)
    assert parse_element(QEPS, "-1/2-3/4*w") == QEPS.element(Fraction(-1, 2), Fraction(-3, 4))
    assert parse_element(QEPS, " 3 + 1 * w ") == QEPS.element(3, 1)
    assert parse_element(QQ, "5/3") == QQ.element(Fraction(5, 3))
    assert parse_element(QEPS, "w") == QEPS.gen()
    with pytest.raises(ParseError):
        parse_element(QQ, "1+1*w")
    with pytest.raises(ParseError):
        parse_element(QEPS, "1+*w")
    with pytest.raises(ParseError):
        parse_element(QEPS, "")


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_format_parse_round_trip(desc):
    @settings(max_examples=80, deadline=None)
    @given(a=elements(desc))
    def inner(a):
        assert parse_element(desc, str(a)) == a

    inner()

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbalg import intmath
from symbalg.cli import _run, main
from symbalg.fields import QEPS, QQ, QSQRT3
from symbalg.intmath import classify_minus1_p, gauss_representation, primes_below, two_square_decomposition
from symbalg.quaternion import Quaternion, QuaternionAlgebra, norm_form_zero_search
from symbalg.symbol import SymbolAlgebra, quaternion_crosscheck, verify_relations


def _rand_element(rng, desc):
    num = lambda: Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    if desc.degree == 1:
        return desc.element(num())
    return desc.element(num(), num())


def _rand_quaternion(rng, alg):
    return alg.element(*(_rand_element(rng, alg.desc) for _ in range(4)))


def _algebras():
    return [
        QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(7)),
        QuaternionAlgebra(QQ, QQ.lift(2), QQ.lift(3)),
        QuaternionAlgebra(QSQRT3, QSQRT3.lift(-1), QSQRT3.lift(7)),
        QuaternionAlgebra(QEPS, QEPS.element(1, 1), QEPS.element(0, 2)),
    ]


def test_basis_table_entries():
    alg = QuaternionAlgebra(QQ, QQ.lift(2), QQ.lift(3))
    one, e1, e2, e3 = basis = [alg.element(*(int(i == k) for i in range(4))) for k in range(4)]
    assert e1 * e2 == e3
    assert e2 * e1 == alg.element(0, 0, 0, -1)
    assert e3 * e3 == alg.element(-6, 0, 0, 0)  # -alpha*beta
    assert e1 * e1 == alg.element(2, 0, 0, 0)
    assert e2 * e2 == alg.element(3, 0, 0, 0)
    assert e1 * e3 == alg.element(0, 0, 2, 0)
    assert e3 * e1 == alg.element(0, 0, -2, 0)
    assert e2 * e3 == alg.element(0, -3, 0, 0)
    assert e3 * e2 == alg.element(0, 3, 0, 0)
    for b in basis:
        assert one * b == b
        assert b * one == b


def test_norm_trace_conjugate_examples():
    alg = QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(7))
    a = alg.element(1, 1, 1, 1)
    assert a.norm() == QQ.element(-12)  # 1 + 1 - 7 - 7
    e1 = alg.element(0, 1, 0, 0)
    assert e1.trace().is_zero()
    assert e1.conjugate() == alg.element(0, -1, 0, 0)
    assert a.conjugate().norm() == a.norm()
    # a * conj(a) = n(a) * 1 and a + conj(a) = t(a) * 1
    assert a * a.conjugate() == alg.element(a.norm(), 0, 0, 0)
    assert alg.element(*map(sum, zip(a.coords, a.conjugate().coords))) == alg.element(a.trace(), 0, 0, 0)


@pytest.mark.parametrize("alg", _algebras(), ids=lambda a: f"({a.alpha},{a.beta})")
def test_quadratic_identity_random(alg):
    rng = random.Random(7)
    for _ in range(100):
        a = _rand_quaternion(rng, alg)
        t, n = a.trace(), a.norm()
        x0, x1, x2, x3 = a.coords
        # a^2 - t(a)*a + n(a) = 0, coordinate by coordinate
        assert (a * a).coords == (t * x0 - n, t * x1, t * x2, t * x3)


@pytest.mark.parametrize("alg", _algebras(), ids=lambda a: f"({a.alpha},{a.beta})")
def test_norm_multiplicative_random(alg):
    rng = random.Random(11)
    for _ in range(60):
        a = _rand_quaternion(rng, alg)
        b = _rand_quaternion(rng, alg)
        assert (a * b).norm() == a.norm() * b.norm()


@pytest.mark.parametrize("alg", _algebras(), ids=lambda a: f"({a.alpha},{a.beta})")
def test_quaternions_are_the_degree_two_symbol_algebra(alg):
    """The symbol-algebra checks hold on a quaternion algebra, and every
    way to build or combine its elements gives a Quaternion."""
    assert verify_relations(alg)
    assert quaternion_crosscheck(alg)
    rng = random.Random(5)
    a, b = _rand_quaternion(rng, alg), _rand_quaternion(rng, alg)
    built = [alg.one(), alg.x(), alg.y(), alg.monomial(1, 1).scale(3), a + b, a - b, a.scale(alg.alpha), a.scale(2), a * b]
    assert all(type(q) is Quaternion for q in built)
    # 1, x, y, xy are e0, e1, e2, e3, and the grid holds x0, x2 / x1, x3
    assert alg.x() == alg.element(0, 1, 0, 0) and alg.y() == alg.element(0, 0, 1, 0)
    assert alg.monomial(1, 1).scale(3) == alg.element(0, 0, 0, 3)
    assert a.coeffs == ((a.coords[0], a.coords[2]), (a.coords[1], a.coords[3]))
    assert (a + b).coords == tuple(p + q for p, q in zip(a.coords, b.coords))
    assert (a - b).coords == tuple(p - q for p, q in zip(a.coords, b.coords))


def test_element_refuses_a_coordinate_of_another_field():
    # sqrt 3 taken as-is in Q(e) read as e: the norm of sqrt 3 came out -1-1*w
    alg = QuaternionAlgebra(QEPS, QEPS.lift(-1), QEPS.lift(7))
    for coords in ((QSQRT3.gen(), 0, 0, 0), (0, 0, 0, QQ.lift(2))):
        with pytest.raises(ValueError, match="^coefficients must live in the base field$"):
            alg.element(*coords)
    assert alg.element(QEPS.gen(), 0, 0, 0).norm() == QEPS.gen() * QEPS.gen()


@pytest.mark.parametrize("alg", _algebras(), ids=lambda a: f"({a.alpha},{a.beta})")
def test_a_quaternion_is_not_the_symbol_element_with_its_grid(alg):
    """The same grid in SymbolAlgebra(desc, 2, -1, alpha, beta) is another
    algebra's element: neither equal nor a factor of a product."""
    twin = SymbolAlgebra(alg.desc, 2, alg.desc.lift(-1), alg.alpha, alg.beta)
    assert (twin.desc, twin.n, twin.zeta, twin.alpha, twin.beta) == (alg.desc, alg.n, alg.zeta, alg.alpha, alg.beta)
    assert twin != alg and alg != twin
    a = _rand_quaternion(random.Random(9), alg)
    s = twin.element(a.coeffs)
    assert s.coeffs == a.coeffs
    assert s != a and a != s
    for left, right in ((a, s), (s, a)):
        with pytest.raises(ValueError):
            left * right
        with pytest.raises(ValueError):
            left + right


def test_algebra_mismatch():
    a = QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(7)).one()
    b = QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(11)).one()
    with pytest.raises(ValueError):
        a * b


# ----------------------------------------------------- gauss representation


def _gauss_oracle(p):
    """Oracle: full search over b for 4p = a^2 + 27 b^2 with a, b > 0."""
    hits = []
    for b in range(1, math.isqrt(4 * p // 27) + 1):
        rest = 4 * p - 27 * b * b
        a = math.isqrt(rest)
        if a > 0 and a * a == rest:
            hits.append((a, b))
    return hits


@pytest.mark.parametrize("p,expected", [(7, (1, 1)), (13, (5, 1)), (31, (4, 2))])
def test_gauss_examples(p, expected):
    assert expected in _gauss_oracle(p)
    a, b = gauss_representation(p)
    assert (a, b) == expected
    assert 4 * p == a * a + 27 * b * b and a > 0 and b > 0


def test_gauss_rejects_wrong_class():
    with pytest.raises(ValueError):
        gauss_representation(5)
    with pytest.raises(ValueError):
        gauss_representation(10)
    with pytest.raises(ValueError):
        gauss_representation(7 * 13)


def test_gauss_matches_oracle_below_1e5():
    # the representation is unique, and it is the one the scan finds
    for p in primes_below(10**5):
        if p % 3 == 1:
            assert _gauss_oracle(p) == [gauss_representation(p)], p


@pytest.mark.parametrize(
    "p", [1000000000000000003, 1000000000000000009, 1000000000000000177, 3317044064679887385961813]
)
def test_gauss_and_conic_point_at_large_scale(p):
    a, b = gauss_representation(p)
    assert 4 * p == a * a + 27 * b * b and a > 0 and b > 0
    assert _on_sqrt3_conic(p, *_sqrt3_point(p))


# ------------------------------------------------------------- conic points


def _sqrt3_point(p):
    """The conic-point verb's point (x1*sqrt(3), y, z) over Q(sqrt 3), read
    from its text as the Fractions (x1, y, z)."""
    point = _run("quaternion", "conic-point", f"--p={p}")["point"]
    x = point["x"]
    assert x.startswith("0+") and x.endswith("*w"), x
    return Fraction(x[2:-2]), Fraction(point["y"]), Fraction(point["z"])


def _on_sqrt3_conic(p, x1, y, z):
    """(x1*sqrt(3), y, z) is a nonzero point of -x^2 + p*y^2 = z^2."""
    return (x1, y, z) != (0, 0, 0) and -3 * x1 * x1 + p * y * y == z * z


@pytest.mark.parametrize(
    "p,x1,z0",
    [(7, Fraction(3, 2), Fraction(1, 2)), (13, Fraction(3, 2), Fraction(5, 2)), (31, Fraction(3), Fraction(2))],
)
def test_conic_point_examples(p, x1, z0):
    point = _sqrt3_point(p)
    assert point == (x1, 1, z0)
    assert _on_sqrt3_conic(p, *point)


def test_conic_point_sweep():
    for p in primes_below(500):
        if p % 3 == 1:
            assert _on_sqrt3_conic(p, *_sqrt3_point(p)), p


# ------------------------------------------------------ split and division


def test_classify_examples():
    # None is division; (x, z) is the point (x, 1, z) of -x^2 + p*y^2 = z^2
    assert classify_minus1_p(7) is None
    assert classify_minus1_p(13) == (2, 3) and -2 * 2 + 13 == 3 * 3
    assert classify_minus1_p(5) == (1, 2) and -1 * 1 + 5 == 2 * 2
    with pytest.raises(ValueError):
        classify_minus1_p(2)
    with pytest.raises(ValueError):
        classify_minus1_p(9)


def test_two_square_decomposition():
    for p in (5, 13, 17, 29, 97):
        x, z = two_square_decomposition(p)
        assert x * x + z * z == p
    for p in (2, 3, 7, 25, 65):
        with pytest.raises(ValueError):
            two_square_decomposition(p)


def _two_square_oracle(p):
    """Oracle: every (x, z) with x^2 + z^2 = p and 0 < x <= z, by a scan."""
    hits = []
    for x in range(1, math.isqrt(p) + 1):
        z = math.isqrt(p - x * x)
        if z * z == p - x * x and z >= x:
            hits.append((x, z))
    return hits


def test_two_square_matches_oracle_below_1e5():
    for p in primes_below(10**5):
        if p % 4 == 1:
            assert _two_square_oracle(p) == [two_square_decomposition(p)], p


@pytest.mark.parametrize("p", [1000000000000000009, 1000000000000000177, 3317044064679887385961813])
def test_two_square_and_classify_at_large_scale(p):
    x, z = two_square_decomposition(p)
    assert x * x + z * z == p and 0 < x <= z
    x, z = classify_minus1_p(p)
    assert -x * x + p == z * z and x
    assert classify_minus1_p(1000000000000000003) is None


def test_search_division_consistency():
    # every p = 3 mod 4 below 100: no isotropic vector at bound 50
    for p in primes_below(100):
        if p % 4 == 3:
            alg = QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(p))
            assert norm_form_zero_search(alg, 50) is None


def test_search_finds_witness_13():
    alg = QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(13))
    # (3, 2, 1, 0) is isotropic: 9 + 4 = 13
    known = alg.element(3, 2, 1, 0)
    assert known.norm().is_zero()
    witness = norm_form_zero_search(alg, 5)
    assert witness is not None
    assert witness.norm().is_zero()
    ints = [c.c0 for c in witness.coords]
    assert math.gcd(*(int(v) for v in ints)) == 1


def test_search_split_alpha_one():
    alg = QuaternionAlgebra(QQ, QQ.lift(1), QQ.lift(1))
    witness = norm_form_zero_search(alg, 1)
    assert witness is not None and witness.norm().is_zero()


def _first_isotropic_oracle(a, b, bound):
    """First primitive isotropic vector in lexicographic order, by the
    plain quartic loop over the norm form."""
    rng = range(-bound, bound + 1)
    return next(
        (
            (x0, x1, x2, x3)
            for x0 in rng
            for x1 in rng
            for x2 in rng
            for x3 in rng
            if math.gcd(x0, x1, x2, x3) == 1
            and x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3 == 0
        ),
        None,
    )


def test_search_is_deterministic_lex_smallest():
    for alpha, beta, bound in [
        (-1, 13, 5),  # split, non-square alpha
        (-1, 7, 6),  # division: only the zero vector
        (2, 3, 6),  # division with positive alpha
        (4, 5, 4),  # square alpha
        (1, 1, 2),  # square alpha; the first candidate of the first hit is not primitive
        (-1, 2, 2),  # the first hit, (x0, x1) = (-2, -2), has only non-primitive partners
        (2, -1, 3),  # negative beta; the first hit has only non-primitive partners
        (9, -2, 3),  # square alpha, negative beta
        (-1, 1, 5),  # (x2, x3) = (-1, -7) also solves the first hit, outside the bound
    ]:
        alg = QuaternionAlgebra(QQ, QQ.lift(alpha), QQ.lift(beta))
        witness = norm_form_zero_search(alg, bound)
        coords = None if witness is None else tuple(int(c.c0) for c in witness.coords)
        assert coords == _first_isotropic_oracle(alpha, beta, bound), (alpha, beta, bound)
        assert norm_form_zero_search(alg, bound) == witness


def test_search_matches_quartic_oracle_on_small_grid():
    # square alpha = 1, 4, 9 is where nonzero (x, y) reach x^2 - alpha*y^2 = 0
    # and the early "no witness" proof must not be taken
    invariants = [v for v in range(-12, 13) if v]
    for alpha in invariants:
        for beta in invariants:
            alg = QuaternionAlgebra(QQ, QQ.lift(alpha), QQ.lift(beta))
            for bound in (1, 2, 3):
                witness = norm_form_zero_search(alg, bound)
                coords = None if witness is None else tuple(int(c.c0) for c in witness.coords)
                assert coords == _first_isotropic_oracle(alpha, beta, bound), (alpha, beta, bound)


@pytest.mark.parametrize("beta", [7, 11, 19, 23, 31, 43])
def test_search_finds_nothing_at_bound_200_for_division(beta):
    # H(-1, p) is a division algebra for p = 3 mod 4
    alg = QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(beta))
    assert norm_form_zero_search(alg, 200) is None


def test_certificate_checks_raise(monkeypatch):
    # the checks must not be asserts, which python -O strips; (3, 1) gives
    # gauss_representation no B divisible by 3
    for wrong in ((1, 1), (3, 1)):
        monkeypatch.setattr(intmath, "cornacchia", lambda d, p: wrong)
        with pytest.raises(ArithmeticError):
            gauss_representation(13)
        with pytest.raises(ArithmeticError):
            two_square_decomposition(13)
        for verb in ("gauss", "conic-point", "classify"):
            with pytest.raises(ArithmeticError):
                main(["quaternion", verb, "--p=13"])


def zero_divisor_from_isotropic(a):
    """(a, conj(a)) as a verified zero-divisor pair for isotropic a != 0:
    a*conj(a) is the norm of a, which is 0."""
    zero = a.algebra.element(0, 0, 0, 0)
    if a == zero:
        raise ValueError("need a nonzero quaternion")
    if not a.norm().is_zero():
        raise ValueError("quaternion is not isotropic")
    conj = a.conjugate()
    if a * conj != zero or conj == zero:
        raise ArithmeticError("a * conj(a) is not a zero-divisor pair")
    return a, conj


def test_zero_divisor_from_isotropic():
    alg = QuaternionAlgebra(QQ, QQ.lift(1), QQ.lift(1))
    a = alg.element(1, 1, 0, 0)
    zero = alg.element(0, 0, 0, 0)
    u, v = zero_divisor_from_isotropic(a)
    assert u * v == zero and u != zero and v != zero
    with pytest.raises(ValueError):
        zero_divisor_from_isotropic(zero)
    with pytest.raises(ValueError):
        zero_divisor_from_isotropic(alg.one())
    witness = norm_form_zero_search(QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(13)), 5)
    u, v = zero_divisor_from_isotropic(witness)
    assert u * v == witness.algebra.element(0, 0, 0, 0)


def test_invalid_algebra_invariants():
    with pytest.raises(ValueError):
        QuaternionAlgebra(QQ, QQ.zero(), QQ.lift(7))
    with pytest.raises(ValueError):
        QuaternionAlgebra(QQ, QEPS.one(), QQ.lift(7))


def test_search_requires_integer_invariants():
    alg = QuaternionAlgebra(QQ, QQ.element(Fraction(1, 2)), QQ.lift(7))
    with pytest.raises(ValueError):
        norm_form_zero_search(alg, 3)


def _fraction_path_search(alg, bound):
    """The search as it ran on the algebra's Fraction invariants before it
    moved to intmath: the set S, the emptiness proof, the lexicographic
    scan, the partners solved per x2 and the primitivity gcd, with the
    witness built as a Quaternion and checked by its norm."""
    a, b = (int(v.c0) for v in (alg.alpha, alg.beta))
    squares = [x * x for x in range(bound + 1)]
    values = {x - a * y for x in squares for y in squares}
    if not (a > 0 and math.isqrt(a) ** 2 == a):
        values.discard(0)
        if not any(b * s in values for s in values):
            return None
    rng = range(-bound, bound + 1)
    for x0 in rng:
        for x1 in rng:
            quotient, rest = divmod(x0 * x0 - a * x1 * x1, b)
            if rest or quotient not in values:
                continue
            for x2 in rng:
                x3_square, rest = divmod(x2 * x2 - quotient, a)
                x3 = math.isqrt(max(x3_square, 0))
                if rest or x3_square < 0 or x3 * x3 != x3_square or x3 > bound:
                    continue
                for x3 in sorted({-x3, x3}):
                    if math.gcd(x0, x1, x2, x3) == 1:
                        witness = alg.element(x0, x1, x2, x3)
                        assert witness.norm().is_zero()
                        return witness
    return None


# squares and negative squares, where x^2 - a*y^2 or b*s reach 0 or a square
SEARCH_INVARIANTS = st.one_of(
    st.integers(-40, 40).filter(bool),
    st.sampled_from([1, 4, 9, 16, 25, 36, -1, -4, -9, -16, -25, -36]),
)


@settings(max_examples=300, deadline=None)
@given(a=SEARCH_INVARIANTS, b=SEARCH_INVARIANTS, bound=st.integers(1, 12))
def test_integer_core_matches_the_fraction_path(a, b, bound):
    alg = QuaternionAlgebra(QQ, QQ.lift(a), QQ.lift(b))
    expected = _fraction_path_search(alg, bound)
    assert norm_form_zero_search(alg, bound) == expected
    coords = None if expected is None else tuple(int(c.c0) for c in expected.coords)
    assert intmath.isotropic_vector(a, b, bound) == coords


def test_integer_core_checks_its_witness(monkeypatch):
    # the check must not be an assert, which python -O strips
    monkeypatch.setattr(intmath, "_right_partners", lambda a, target, bound: iter([(2, 0)]))
    with pytest.raises(ArithmeticError):
        intmath.isotropic_vector(-1, 13, 5)
    with pytest.raises(ArithmeticError):
        norm_form_zero_search(QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(13)), 5)


def test_integer_core_refuses_what_the_algebra_refuses():
    for a, b, bound in ((0, 7, 5), (-1, 0, 5), (-1, 7, 0), (-1, 7, intmath.MAX_SEARCH_BOUND + 1)):
        with pytest.raises(ValueError):
            intmath.isotropic_vector(a, b, bound)

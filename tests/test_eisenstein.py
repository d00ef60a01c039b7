import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symbalg.eisenstein import (
    EPS,
    MAX_CYCLOTOMIC_L,
    PRIME_CACHE_SIZE,
    ONE,
    UNITS,
    CubicSymbol,
    EisensteinInt,
    EisensteinPrime,
    ParseError,
    ResidueField,
    canonical_associate,
    cubic_residue_symbol,
    cyclotomic_splitting,
    factor_rational_prime,
    format_eisenstein,
    format_prime,
    parse_eisenstein,
    parse_eisenstein_fraction,
    residue_field,
    splitting_in_kummer,
    valuation,
)
from symbalg import intmath
from symbalg.fields import QEPS
from symbalg.intmath import MILLER_RABIN_LIMIT, euler_phi, is_prime, primes_below

eisenstein_ints = st.builds(EisensteinInt, st.integers(-100, 100), st.integers(-100, 100))


def residue_elements(field):
    """Every element of a residue field: an int mod p, or a (c0, c1) pair for F_p^2."""
    return range(field.char) if field.degree == 1 else itertools.product(range(field.char), repeat=2)


def _conjugate_prime(prime):
    """The other prime above a split p, in its canonical window form."""
    pi = canonical_associate(prime.pi.conjugate())
    return EisensteinPrime(pi, "split", prime.p, pi.conjugate(), prime.p)


# ------------------------------------------------------------ ring basics


def test_norm_examples():
    assert EisensteinInt(1, -1).norm() == 3
    assert EisensteinInt(3, 1).norm() == 7
    for u in UNITS:
        assert u.norm() == 1


def test_norm_agrees_with_field_norm():
    z = EisensteinInt(17, -12)
    assert z.norm() == QEPS.element(z.a, z.b).norm()


@given(x=eisenstein_ints, y=eisenstein_ints)
def test_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


def test_divrem_examples():
    # independent expansion: (3+e)(2-e) = 6 - 3e + 2e - e^2 = 7
    assert EisensteinInt(3, 1) * EisensteinInt(2, -1) == EisensteinInt(7)
    q, r = divmod(EisensteinInt(7), EisensteinInt(3, 1))
    assert (q, r) == (EisensteinInt(2, -1), EisensteinInt(0))

    z = EisensteinInt(41, -17)
    assert divmod(z, ONE) == (z, EisensteinInt(0))

    q, r = divmod(EisensteinInt(5), EisensteinInt(2))
    assert q in (EisensteinInt(2), EisensteinInt(3))
    assert r.norm() < 4
    assert q * EisensteinInt(2) + r == EisensteinInt(5)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(ONE, EisensteinInt(0))


@given(x=eisenstein_ints, y=eisenstein_ints)
def test_euclidean_property(x, y):
    if y.is_zero():
        return
    q, r = divmod(x, y)
    assert q * y + r == x
    assert r.norm() < y.norm()


# --------------------------------------------------- prime classification


def _norm_solutions(p):
    """Oracle: exhaustive search for a^2 - a*b + b^2 = p."""
    bound = math.isqrt(4 * p // 3) + 1
    return [
        EisensteinInt(a, b)
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
        if a * a - a * b + b * b == p
    ]


def test_factor_split_seven():
    pr = factor_rational_prime(7)
    assert pr.kind == "split"
    assert pr.pi == EisensteinInt(3, 1)
    assert pr.conjugate == EisensteinInt(2, -1)
    assert pr.abs_norm == 7
    solutions = _norm_solutions(7)
    assert solutions and all(s.is_associate(pr.pi) or s.is_associate(pr.conjugate) for s in solutions)
    assert (pr.pi * pr.conjugate).is_associate(EisensteinInt(7))


def test_factor_inert_five():
    pr = factor_rational_prime(5)
    assert pr.kind == "inert"
    assert pr.pi == EisensteinInt(5)
    assert pr.abs_norm == 25
    assert _norm_solutions(5) == []


def test_factor_ramified_three():
    pr = factor_rational_prime(3)
    assert pr.kind == "ramified"
    assert pr.pi == EisensteinInt(1, -1)
    assert pr.abs_norm == 3
    # 3 = -e^2 * (1 - e)^2
    eps_sq = EPS * EPS
    assert -eps_sq * EisensteinInt(1, -1) ** 2 == EisensteinInt(3)


def test_factor_rejects_composites():
    with pytest.raises(ValueError):
        factor_rational_prime(6)
    with pytest.raises(ValueError):
        factor_rational_prime(1)


def test_factor_sweep_small():
    for p in primes_below(200):
        pr = factor_rational_prime(p)
        if p == 3:
            assert pr.kind == "ramified"
        elif p % 3 == 1:
            assert pr.kind == "split"
            assert pr.pi.norm() == p
            assert (pr.pi * pr.conjugate).is_associate(EisensteinInt(p))
        else:
            assert pr.kind == "inert"


def _window_pi_oracle(p):
    """Oracle: the canonical pi above a split p by an O(sqrt p) scan.  Each
    of the two primes above p has exactly one associate a + b*e with
    a > 0 and 0 <= b < a; pi is the smaller one, found as the first a
    whose discriminant 4p - 3a^2 gives an integer root b in the window."""
    for a in range(1, math.isqrt(4 * p // 3) + 1):
        disc = 4 * p - 3 * a * a
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        window = [b for b in ((a - r) // 2, (a + r) // 2) if (a + r) % 2 == 0 and 0 <= b < a]
        if window:
            return EisensteinInt(a, min(window))
    raise AssertionError(f"no element of norm {p}")


def test_factor_matches_scan_oracle_below_1e5():
    for p in primes_below(10**5):
        if p % 3 == 1:
            pr = factor_rational_prime(p)
            assert pr.pi == _window_pi_oracle(p), p
            assert pr.conjugate == pr.pi.conjugate()


@pytest.mark.parametrize(
    "p",
    [1000000000000000003, 1000000000000000009, 1000000000000000177, 3317044064679887385961813],
)
def test_factor_large_split_primes(p):
    pr = factor_rational_prime(p)
    assert pr.kind == "split" and pr.pi.norm() == p
    assert pr.pi.a > 0 and 0 <= pr.pi.b < pr.pi.a
    assert (pr.pi * pr.conjugate).is_associate(EisensteinInt(p))
    other = _conjugate_prime(pr)
    assert (pr.pi.a, pr.pi.b) < (other.pi.a, other.pi.b)
    assert cubic_residue_symbol(EisensteinInt(p), pr).is_zero
    assert not cubic_residue_symbol(pr.conjugate, pr).is_zero


def test_factor_large_inert_prime_and_refusal():
    assert factor_rational_prime(1000000000000000031).kind == "inert"
    with pytest.raises(ValueError, match="not decided"):
        factor_rational_prime(MILLER_RABIN_LIMIT)


def test_prime_caches_are_bounded():
    for cached in (factor_rational_prime, residue_field):
        assert cached.cache_info().maxsize == PRIME_CACHE_SIZE
    for p in primes_below(2000):
        if p > 3:
            residue_field(factor_rational_prime(p))
    assert factor_rational_prime.cache_info().currsize == PRIME_CACHE_SIZE
    assert residue_field.cache_info().currsize == PRIME_CACHE_SIZE


def test_conjugate_prime_is_the_other_orbit():
    pr = factor_rational_prime(7)
    other = _conjugate_prime(pr)
    assert other.pi == EisensteinInt(3, 2)
    assert not other.pi.is_associate(pr.pi)
    assert other.pi.is_associate(pr.conjugate)


# ------------------------------------------------------ canonical associate


def test_canonical_associate_examples():
    assert canonical_associate(EisensteinInt(-3)) == EisensteinInt(3)
    assert canonical_associate(EPS * EisensteinInt(3, 1)) == EisensteinInt(3, 1)
    # the ramified generator lands on the unique window representative
    assert canonical_associate(EisensteinInt(1, -1)) == EisensteinInt(2, 1)
    with pytest.raises(ValueError):
        canonical_associate(EisensteinInt(0))


def test_canonical_window_is_a_fundamental_domain():
    # canonical_associate relies on exactly one associate in the window
    for a in range(-40, 41):
        for b in range(-40, 41):
            if a or b:
                z = EisensteinInt(a, b)
                in_window = [t for t in (z * u for u in UNITS) if t.a > 0 and 0 <= t.b < t.a]
                assert len(in_window) == 1, (a, b)


@given(z=eisenstein_ints)
def test_canonical_associate_is_orbit_constant(z):
    if z.is_zero():
        return
    reps = {canonical_associate(z * u) for u in UNITS}
    assert len(reps) == 1
    rep = reps.pop()
    assert rep.is_associate(z)
    assert rep.a > 0 and 0 <= rep.b < rep.a


# ------------------------------------------------------------- residue maps


def test_reduce_split():
    pr = factor_rational_prime(7)
    field = residue_field(pr)
    assert field.reduce(EPS) == 4
    assert (4 * 4 + 4 + 1) % 7 == 0
    assert field.reduce(EisensteinInt(7)) == 0
    assert field.reduce(pr.pi) == 0


def test_reduce_inert():
    field = residue_field(factor_rational_prime(5))
    assert field.reduce(EPS) == (0, 1)
    assert field.eps_image == (0, 1)
    # t^2 + t + 1 = 0 in F_25
    t = field.eps_image
    assert field.add(field.add(field.mul(t, t), t), field.one) == field.zero


def test_reduce_ramified():
    field = residue_field(factor_rational_prime(3))
    assert field.reduce(EisensteinInt(1, -1)) == 0
    assert field.reduce(EPS) == 1


# ------------------------------------------------------ cubic residue symbol


def _cube_set(field):
    """Oracle: the set of cubes in the residue field, by enumeration."""
    return {field.pow(x, 3) for x in residue_elements(field)}


def test_symbol_two_at_split_seven():
    pr = factor_rational_prime(7)
    # cubes in F_7 are {0, 1, 6}; 2 is not one, so the symbol is nontrivial
    assert _cube_set(residue_field(pr)) == {0, 1, 6}
    symbol = cubic_residue_symbol(EisensteinInt(2), pr)
    assert symbol == CubicSymbol.root(1)
    # 2^2 = 4 is the chosen cube root image itself
    assert pow(2, 2, 7) == residue_field(pr).eps_image


def test_symbol_two_at_inert_five():
    pr = factor_rational_prime(5)
    field = residue_field(pr)
    symbol = cubic_residue_symbol(EisensteinInt(2), pr)
    assert symbol == CubicSymbol.root(0)
    # oracle: some x in F_25 cubes to 2
    target = field.reduce(EisensteinInt(2))
    assert any(field.pow(x, 3) == target for x in residue_elements(field))
    assert pow(2, 8, 5) == 1


def test_symbol_zero_case():
    pr = factor_rational_prime(7)
    assert cubic_residue_symbol(EisensteinInt(7), pr) == CubicSymbol.zero()
    assert cubic_residue_symbol(pr.pi, pr) == CubicSymbol.zero()


def test_symbol_rejects_ramified():
    with pytest.raises(ValueError):
        cubic_residue_symbol(EisensteinInt(2), factor_rational_prime(3))


def _all_primes_with_norm_upto(bound):
    primes = []
    for p in primes_below(bound + 1):
        pr = factor_rational_prime(p)
        if pr.kind == "split":
            primes.append(pr)
            primes.append(_conjugate_prime(pr))
        elif pr.kind == "inert" and pr.abs_norm <= bound:
            primes.append(pr)
    return primes


@pytest.mark.parametrize("prime", _all_primes_with_norm_upto(60), ids=str)
def test_symbol_matches_cube_oracle_small(prime):
    field = residue_field(prime)
    cubes = _cube_set(field)
    for a in range(prime.p):
        for b in range(prime.p if prime.kind == "inert" else 1):
            z = EisensteinInt(a, b)
            image = field.reduce(z)
            symbol = cubic_residue_symbol(z, prime)
            if image == field.zero:
                assert symbol.is_zero
            else:
                assert symbol.is_trivial == (image in cubes)


@pytest.mark.parametrize("prime", _all_primes_with_norm_upto(200), ids=str)
def test_symbol_multiplicative(prime):
    field = residue_field(prime)
    lift = (lambda x: EisensteinInt(x)) if field.degree == 1 else (lambda x: EisensteinInt(*x))
    residues = [x for x in residue_elements(field) if x != field.zero]
    table = {x: cubic_residue_symbol(lift(x), prime) for x in residues}
    for x in residues:
        sx = table[x]
        for y in residues:
            assert table[field.mul(x, y)] == sx * table[y]


# ----------------------------------------------------------------- valuation


def test_valuation_examples():
    pr = factor_rational_prime(7)
    assert valuation(EisensteinInt(49), pr) == 2
    assert valuation(EisensteinInt(7**3), pr) == 3
    assert valuation(EisensteinInt(5), pr) == 0
    assert valuation(pr.conjugate, pr) == 0
    assert valuation(ONE, pr, EisensteinInt(7)) == -1
    with pytest.raises(ValueError):
        valuation(EisensteinInt(0), pr)


@given(m=st.integers(0, 6), unit_index=st.integers(0, 5))
def test_valuation_reads_off_exponents(m, unit_index):
    pr = factor_rational_prime(13)
    z = pr.pi ** m * UNITS[unit_index]
    assert valuation(z, pr) == m


# ----------------------------------------------- splitting data and degrees


def test_splitting_examples():
    pr7 = factor_rational_prime(7)
    data = splitting_in_kummer(EisensteinInt(2), pr7)
    assert (data.e, data.f, data.g) == (1, 3, 1)
    data = splitting_in_kummer(EisensteinInt(2), factor_rational_prime(5))
    assert (data.e, data.f, data.g) == (1, 1, 3)
    data = splitting_in_kummer(EisensteinInt(7), pr7)
    assert (data.e, data.f, data.g) == (3, 1, 1)


def test_splitting_reads_the_valuation_when_pi_divides_alpha():
    pr7 = factor_rational_prime(7)
    for alpha, efg in ((343, (1, 1, 3)), (686, (1, 3, 1)), (14, (3, 1, 1)), (49, (3, 1, 1))):
        data = splitting_in_kummer(EisensteinInt(alpha), pr7)
        assert (data.e, data.f, data.g) == efg, alpha
    with pytest.raises(ValueError):
        splitting_in_kummer(EisensteinInt(0), pr7)
    with pytest.raises(ValueError):
        splitting_in_kummer(EisensteinInt(2), factor_rational_prime(3))


def _brute_force_efg(alpha, prime, cubes):
    """Oracle: strip pi by exact division alpha*conj(pi)/N(pi), then ask
    whether the rest is a cube in the residue field by enumeration."""
    n, v = prime.abs_norm, 0
    while True:
        t = alpha * prime.pi.conjugate()
        if t.a % n or t.b % n:
            break
        alpha, v = EisensteinInt(t.a // n, t.b // n), v + 1
    if v % 3:
        return 3, 1, 1
    return (1, 1, 3) if residue_field(prime).reduce(alpha) in cubes else (1, 3, 1)


@pytest.mark.parametrize("prime", _all_primes_with_norm_upto(40), ids=str)
def test_splitting_matches_cube_count_oracle(prime):
    cubes = _cube_set(residue_field(prime))
    for k in range(5):
        for a in range(-3, 4):
            for b in range(-3, 4):
                alpha = prime.pi ** k * EisensteinInt(a, b)
                if alpha.is_zero():
                    continue
                data = splitting_in_kummer(alpha, prime)
                assert (data.e, data.f, data.g) == _brute_force_efg(alpha, prime, cubes), (k, a, b)


@pytest.mark.parametrize("prime", _all_primes_with_norm_upto(60), ids=str)
def test_splitting_efg_product(prime):
    for a in range(3):
        for b in range(3):
            z = EisensteinInt(a, b)
            if z.is_zero():
                continue
            data = splitting_in_kummer(z, prime)
            assert data.e * data.f * data.g == 3


def test_cyclotomic_splitting_examples():
    assert cyclotomic_splitting(5, 3) == (2, 1)
    assert cyclotomic_splitting(7, 3) == (1, 2)
    # oracle: order of 2 mod 7 is 3 because 2^3 = 8 = 1 mod 7
    assert pow(2, 3, 7) == 1 and pow(2, 1, 7) != 1 and pow(2, 2, 7) != 1
    assert cyclotomic_splitting(2, 7) == (3, 2)
    with pytest.raises(ValueError):
        cyclotomic_splitting(3, 9)
    with pytest.raises(ValueError):
        cyclotomic_splitting(4, 9)


def test_cyclotomic_splitting_at_large_l():
    # 2 has order (l - 1)/2 mod the prime l = 10^9 + 7
    assert cyclotomic_splitting(2, 10**9 + 7) == (500000003, 2)
    l = 999983 * 1000003
    f, r = cyclotomic_splitting(5, l)
    assert f * r == 999982 * 1000002 and pow(5, f, l) == 1
    assert cyclotomic_splitting(7, MAX_CYCLOTOMIC_L)[0] > 1
    for bad in (MAX_CYCLOTOMIC_L + 1, 10**30, 2, -7):
        with pytest.raises(ValueError, match="l must be in"):
            cyclotomic_splitting(7, bad)


def test_cyclotomic_splitting_factors_l_once(monkeypatch):
    calls = []
    factor = intmath._prime_divisors
    monkeypatch.setattr(intmath, "_prime_divisors", lambda n: calls.append(n) or factor(n))
    l = 999983 * 1000003
    assert cyclotomic_splitting(5, l) == cyclotomic_splitting(5, l)
    assert calls.count(l) == 2  # once per call
    f, r = cyclotomic_splitting(2, 10**9 + 7)
    assert calls.count(10**9 + 7) == 1 and (f, r) == (500000003, 2)


@given(p=st.sampled_from(primes_below(100)), l=st.integers(3, 60))
def test_cyclotomic_splitting_invariants(p, l):
    if l % p == 0:
        return
    f, r = cyclotomic_splitting(p, l)
    assert f * r == euler_phi(l)
    assert pow(p, f, l) == 1
    assert all(pow(p, k, l) != 1 for k in range(1, f))


# -------------------------------------------------------------- text syntax


def test_parse_and_format():
    assert parse_eisenstein("3+1*w") == EisensteinInt(3, 1)
    assert parse_eisenstein("-7") == EisensteinInt(-7)
    assert format_eisenstein(EisensteinInt(1, -1)) == "1-1*w"
    assert format_prime(factor_rational_prime(7)) == "split(3+1*w | N=7)"
    with pytest.raises(ParseError):
        parse_eisenstein("1/2")
    num, den = parse_eisenstein_fraction("3+1*w/2-1*w")
    assert (num, den) == (EisensteinInt(3, 1), EisensteinInt(2, -1))
    num, den = parse_eisenstein_fraction("343")
    assert (num, den) == (EisensteinInt(343), ONE)
    with pytest.raises(ParseError):
        parse_eisenstein_fraction("1/2/3")


@given(z=eisenstein_ints)
def test_eisenstein_round_trip(z):
    assert parse_eisenstein(format_eisenstein(z)) == z


def test_prime_dataclass_validation():
    with pytest.raises(ValueError):
        EisensteinPrime(EisensteinInt(3, 1), "split", 7, None, 7)
    with pytest.raises(ValueError):
        EisensteinPrime(EisensteinInt(3, 1), "inert", 7, None, 7)
    with pytest.raises(ValueError):
        EisensteinPrime(EisensteinInt(3, 1), "split", 7, EisensteinInt(2, -1), 11)


def test_residue_field_validation():
    assert ResidueField(7, 1, 2).eps_image == 2
    with pytest.raises(ValueError):
        ResidueField(7, 1, 3)  # 3^2 + 3 + 1 = 13 is not 0 mod 7
    with pytest.raises(ValueError):
        ResidueField(5, 2, (1, 0))


def test_is_prime_helper():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

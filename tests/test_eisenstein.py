import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symbalg.eisenstein import (
    EPS,
    MAX_CYCLOTOMIC_L,
    PRIME_CACHE_SIZE,
    ONE,
    CubicSymbol,
    EisensteinInt,
    EisensteinPrime,
    ParseError,
    cubic_residue_symbol,
    cyclotomic_splitting,
    factor_rational_prime,
    parse_eisenstein,
    parse_eisenstein_fraction,
    split_valuation,
    splitting_in_kummer,
    valuation,
)
from symbalg import eisenstein, intmath
from symbalg.intmath import MILLER_RABIN_LIMIT, euler_phi, is_prime, primes_below

from helpers import UNITS, conjugate_prime, pair, primes_with_norm_upto, residue_field
from oracles import canonical_associate, is_associate, pair_mul, power, strip, window_pi

eisenstein_ints = st.builds(EisensteinInt, st.integers(-100, 100), st.integers(-100, 100))
# coordinates from small to 10^24, where the products and quotients are multi-digit ints
coordinates = st.one_of(st.integers(-100, 100), st.integers(-(10**24), 10**24))
large_eisenstein_ints = st.builds(EisensteinInt, coordinates, coordinates)


# ------------------------------------------------------------ ring basics


def test_norm_examples():
    assert EisensteinInt(1, -1).norm() == 3
    assert EisensteinInt(3, 1).norm() == 7
    for u in UNITS:
        assert u.norm() == 1


@given(z=large_eisenstein_ints)
def test_norm_agrees_with_field_norm(z):
    # N(z) = z*conj(z), expanded by the oracle's own product
    n, zero = pair_mul((z.a, z.b), (z.a - z.b, -z.b))
    assert zero == 0 and z.norm() == n
    assert z.conjugate() == EisensteinInt(z.a - z.b, -z.b)
    assert EisensteinInt(17, -12).norm() == 17 * 17 + 17 * 12 + 12 * 12


@given(x=large_eisenstein_ints, y=large_eisenstein_ints)
def test_norm_multiplicative(x, y):
    assert x * y == EisensteinInt(*pair_mul((x.a, x.b), (y.a, y.b)))
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
    assert (2 * q.a + r.a, 2 * q.b + r.b) == (5, 0)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 8, 300, 511, 512])
def test_valuation_of_pi_power(k):
    """The rounding division strips pi exactly k times from the oracle's
    pi^k, whose coordinates have about 216 digits at k = 512, from
    pi^k * conj(pi), and from 7^k = pi^k * conj(pi)^k."""
    prime = factor_rational_prime(7)
    pi, conj = (prime.pi.a, prime.pi.b), (prime.conjugate.a, prime.conjugate.b)
    z = EisensteinInt(*power(pi, k))
    assert valuation(z, prime) == k
    assert valuation(EisensteinInt(*pair_mul(power(pi, k), conj)), prime) == k
    assert valuation(EisensteinInt(7**k), prime) == k


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(ONE, EisensteinInt(0))


@given(x=large_eisenstein_ints, y=large_eisenstein_ints)
def test_euclidean_property(x, y):
    if y.is_zero():
        return
    q, r = divmod(x, y)
    qy = pair_mul((q.a, q.b), (y.a, y.b))
    assert (qy[0] + r.a, qy[1] + r.b) == (x.a, x.b)
    # the documented bound of the rounding quotient: N(r) <= 3/4 * N(y)
    assert 4 * r.norm() <= 3 * y.norm()


# --------------------------------------------------- prime classification


def _norm_solutions(p):
    """Oracle: exhaustive search for a^2 - a*b + b^2 = p."""
    bound = math.isqrt(4 * p // 3) + 1
    return [
        (a, b)
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
    assert solutions and all(is_associate(s, pair(pr.pi)) or is_associate(s, pair(pr.conjugate)) for s in solutions)
    assert is_associate(pair(pr.pi * pr.conjugate), (7, 0))


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
    assert EisensteinInt(-1) * eps_sq * EisensteinInt(*power((1, -1), 2)) == EisensteinInt(3)


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
            assert is_associate(pair(pr.pi * pr.conjugate), (p, 0))
        else:
            assert pr.kind == "inert"


def test_factor_matches_scan_oracle_below_1e5():
    for p in primes_below(10**5):
        if p % 3 == 1:
            pr = factor_rational_prime(p)
            assert pair(pr.pi) == window_pi(p), p
            assert pr.conjugate == pr.pi.conjugate()


@pytest.mark.parametrize(
    "p",
    [1000000000000000003, 1000000000000000009, 1000000000000000177, 3317044064679887385961813],
)
def test_factor_large_split_primes(p):
    pr = factor_rational_prime(p)
    assert pr.kind == "split" and pr.pi.norm() == p
    assert pr.pi.a > 0 and 0 <= pr.pi.b < pr.pi.a
    assert is_associate(pair(pr.pi * pr.conjugate), (p, 0))
    other = conjugate_prime(pr)
    assert (pr.pi.a, pr.pi.b) < (other.pi.a, other.pi.b)
    assert cubic_residue_symbol(EisensteinInt(p), pr).is_zero
    assert not cubic_residue_symbol(pr.conjugate, pr).is_zero


def test_factor_large_inert_prime_and_refusal():
    assert factor_rational_prime(1000000000000000031).kind == "inert"
    with pytest.raises(ValueError, match="not decided"):
        factor_rational_prime(MILLER_RABIN_LIMIT)


def test_prime_caches_are_bounded():
    assert factor_rational_prime.cache_info().maxsize == PRIME_CACHE_SIZE
    for p in primes_below(4000):
        if p > 3:
            cubic_residue_symbol(EPS, factor_rational_prime(p))
    assert factor_rational_prime.cache_info().currsize == PRIME_CACHE_SIZE


def test_conjugate_prime_is_the_other_orbit():
    pr = factor_rational_prime(7)
    other = conjugate_prime(pr)
    assert other.pi == EisensteinInt(3, 2)
    assert not is_associate(pair(other.pi), pair(pr.pi))
    assert is_associate(pair(other.pi), pair(pr.conjugate))


# ------------------------------------------------------ canonical associate


def test_canonical_associate_examples():
    assert canonical_associate((-3, 0)) == (3, 0)
    assert canonical_associate(pair(EPS * EisensteinInt(3, 1))) == (3, 1)
    # the ramified generator lands on the unique window representative
    assert canonical_associate((1, -1)) == (2, 1)
    with pytest.raises(ValueError):
        canonical_associate((0, 0))


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
    reps = {canonical_associate(pair(z * u)) for u in UNITS}
    assert len(reps) == 1
    rep = reps.pop()
    assert is_associate(rep, pair(z))
    assert rep[0] > 0 and 0 <= rep[1] < rep[0]


# split primes near 10^4, 10^8, 10^12, 10^18 and just below MILLER_RABIN_LIMIT,
# p = 1 mod 4 (Tonelli-Shanks) and then p = 3 mod 4 (one power) at each scale
SPLIT_PRIMES = [
    10009,
    10039,
    100000081,
    100000039,
    1000000000177,
    1000000000039,
    1000000000000000009,
    1000000000000000003,
    3317044064679887385961813,
    3317044064679887385961783,
]


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_factor_picks_the_least_window_associate(p):
    assert p % 3 == 1
    pi = factor_rational_prime(p).pi
    # the elements of norm p are the associates of pi and of its conjugate
    assert pi.norm() == p
    least = min(canonical_associate(pair(z)) for z in (pi, pi.conjugate()))
    assert pair(pi) == least


# ------------------------------------------------------------- residue maps


def test_reduce_split():
    pr = factor_rational_prime(7)
    field = residue_field(pr)
    # e - 4 = (3 + e)(e - 1), and no other r in 0..6 has 3 + e | e - r
    assert field.r == 4
    assert (4 * 4 + 4 + 1) % 7 == 0
    assert field.reduce((7, 0)) == 0 and field.reduce((3, 1)) == 0
    # the symbol reads e as the oracle's r: pi divides e - r and no other e - s
    for prime in primes_with_norm_upto(200):
        if prime.kind == "split":
            r = residue_field(prime).r
            zeros = [s for s in range(prime.p) if cubic_residue_symbol(EisensteinInt(-s, 1), prime).is_zero]
            assert zeros == [r], prime


def test_reduce_inert():
    # no r in 0..4 has 5 | e - r, so the field is F_5[e] and e is (0, 1)
    field = residue_field(factor_rational_prime(5))
    assert field.r is None and field.reduce((0, 1)) == (0, 1)
    # e^((25 - 1)/3) = e^8 = e^2, since e^3 = 1
    assert cubic_residue_symbol(EPS, factor_rational_prime(5)) == CubicSymbol(2)
    assert field.symbol((0, 1)) == 2


def test_reduce_ramified():
    # 1 - e divides e - 1 but neither e nor e - 2, of norms 1 and 7
    field = residue_field(factor_rational_prime(3))
    assert field.r == 1
    assert field.reduce((1, -1)) == 0


# ------------------------------------------------------ cubic residue symbol


def test_symbol_two_at_split_seven():
    pr = factor_rational_prime(7)
    # cubes in F_7 are {0, 1, 6}; 2 is not one, so the symbol is nontrivial
    assert residue_field(pr).cubes() == {0, 1, 6}
    symbol = cubic_residue_symbol(EisensteinInt(2), pr)
    assert symbol == CubicSymbol(1)
    # 2^2 = 4 is the image of e itself
    assert pow(2, 2, 7) == residue_field(pr).r


def test_symbol_two_at_inert_five():
    pr = factor_rational_prime(5)
    symbol = cubic_residue_symbol(EisensteinInt(2), pr)
    assert symbol == CubicSymbol(0)
    # oracle: some x in F_25 cubes to 2
    assert (2, 0) in residue_field(pr).cubes()
    assert pow(2, 8, 5) == 1


def test_symbol_zero_case():
    pr = factor_rational_prime(7)
    assert cubic_residue_symbol(EisensteinInt(7), pr) == CubicSymbol(None)
    assert cubic_residue_symbol(pr.pi, pr) == CubicSymbol(None)


def test_symbol_rejects_ramified():
    with pytest.raises(ValueError):
        cubic_residue_symbol(EisensteinInt(2), factor_rational_prime(3))


@pytest.mark.parametrize("prime", primes_with_norm_upto(60), ids=str)
def test_symbol_matches_cube_oracle_small(prime):
    field = residue_field(prime)
    cubes = field.cubes()
    for a in range(prime.p):
        for b in range(prime.p):
            image = field.reduce((a, b))
            symbol = cubic_residue_symbol(EisensteinInt(a, b), prime)
            if image == field.zero:
                assert symbol.is_zero
            else:
                assert symbol.is_trivial == (image in cubes)
                assert symbol.k == field.symbol((a, b))


@pytest.mark.parametrize("prime", primes_with_norm_upto(200), ids=str)
def test_symbol_multiplicative(prime):
    field = residue_field(prime)
    lift = (lambda x: EisensteinInt(x)) if field.r is not None else (lambda x: EisensteinInt(*x))
    residues = [x for x in field.elements() if x != field.zero]
    table = {x: cubic_residue_symbol(lift(x), prime) for x in residues}
    for x in residues:
        sx = table[x]
        for y in residues:
            assert table[field.mul(x, y)].k == (sx.k + table[y].k) % 3


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
    z = EisensteinInt(*power((pr.pi.a, pr.pi.b), m)) * UNITS[unit_index]
    assert valuation(z, pr) == m


@pytest.mark.parametrize("p", [7, 5, 3], ids=["split", "inert", "ramified"])
def test_split_valuation_takes_the_conjugate_and_norm_of_pi_once(monkeypatch, p):
    """z = pi^30 * e takes 31 rounding divisions by pi, and pi's conjugate
    and norm are taken once for all of them, not once per division."""
    pi = factor_rational_prime(p).pi
    z = pair_mul(power(pair(pi), 30), pair(EPS))
    calls = []
    real = eisenstein.pair_conj_norm
    monkeypatch.setattr(eisenstein, "pair_conj_norm", lambda *args: calls.append(args) or real(*args))
    v, unit = split_valuation(EisensteinInt(*z), pi)
    assert (v, pair(unit)) == strip(pair(pi), z) == (30, pair(EPS))
    assert calls == [(pair(pi), 1, 1)]


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


def _brute_force_efg(alpha, field, cubes):
    """Oracle: strip pi by exact division alpha*conj(pi)/N(pi), then ask
    whether the rest is a cube in the residue field by enumeration."""
    v, rest = strip(field.pi, pair(alpha))
    if v % 3:
        return 3, 1, 1
    return (1, 1, 3) if field.reduce(rest) in cubes else (1, 3, 1)


@pytest.mark.parametrize("prime", primes_with_norm_upto(40), ids=str)
def test_splitting_matches_cube_count_oracle(prime):
    field = residue_field(prime)
    cubes = field.cubes()
    for k in range(5):
        for a in range(-3, 4):
            for b in range(-3, 4):
                alpha = EisensteinInt(*pair_mul(power(field.pi, k), (a, b)))
                if alpha.is_zero():
                    continue
                data = splitting_in_kummer(alpha, prime)
                assert (data.e, data.f, data.g) == _brute_force_efg(alpha, field, cubes), (k, a, b)


@pytest.mark.parametrize("prime", primes_with_norm_upto(60), ids=str)
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
    assert str(EisensteinInt(1, -1)) == "1-1*w"
    assert str(factor_rational_prime(7)) == "split(3+1*w | N=7)"
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
    assert parse_eisenstein(str(z)) == z


def test_a_prime_is_pi_and_p():
    assert EisensteinPrime._fields == ("pi", "p")
    assert EisensteinPrime(EisensteinInt(3, 1), 7) == factor_rational_prime(7)
    # any prime above p, canonical or not
    for pi, p in ((EisensteinInt(2, -1), 7), (EisensteinInt(5), 5), (EisensteinInt(2, 1), 3), (EisensteinInt(1, -1), 3)):
        assert EisensteinPrime(pi, p).pi == pi


def test_a_prime_refuses_pi_not_above_p():
    refused = [
        # p = 0 mod 3 other than 3, with N(pi) = p: -3e = (1 - e)^2, and 0
        (EisensteinInt(0, -3), 9),
        (EisensteinInt(0), 0),
        # inert p with pi != p, of norm p^2 or not
        (EisensteinInt(-5), 5),
        (EisensteinInt(0, 5), 5),
        (EisensteinInt(3, 1), 5),
        # split p and N(pi) != p
        (EisensteinInt(3, 1), 13),
        (EisensteinInt(1, 1), 7),
        (EisensteinInt(7), 7),
        # ramified p = 3 and N(pi) != 3
        (EisensteinInt(3), 3),
        (EisensteinInt(1), 3),
        # p not prime, though pi passes the tests a prime p needs: 35 = 2
        # mod 3, 1729 = 7*13*19 a Carmichael number of norm N(-40 + 3e),
        # the unit 1 above 1, and a negative p
        (EisensteinInt(35), 35),
        (EisensteinInt(-40, 3), 1729),
        (EisensteinInt(1), 1),
        (EisensteinInt(-2), -2),
    ]
    for pi, p in refused:
        with pytest.raises(ValueError, match=f"is not a prime above {p}$"):
            EisensteinPrime(pi, p)


def test_factor_tests_primality_once(monkeypatch):
    calls = []
    is_prime = eisenstein.is_prime
    monkeypatch.setattr(eisenstein, "is_prime", lambda n: calls.append(n) or is_prime(n))
    factor_rational_prime.cache_clear()
    for p in (3, 5, 7, 13, 1000000000000000003, 1000000000000000009):
        calls.clear()
        factor_rational_prime(p)
        assert calls == [p], p
        calls.clear()
        factor_rational_prime(p)  # a cache hit tests nothing
        assert calls == [], p


def test_residue_field_validation():
    # -3/1 = 4 mod 7 is the image of e at 3 + e: it divides e - 4 and no other e - s
    prime = EisensteinPrime(EisensteinInt(3, 1), 7)
    assert [s for s in range(7) if cubic_residue_symbol(EisensteinInt(-s, 1), prime).is_zero] == [4]
    # -1/1 = 6 mod 7 and 6^2 + 6 + 1 = 43 is not 0 mod 7: 1 + e lies above no 7
    with pytest.raises(ValueError, match="not a prime above 7"):
        EisensteinPrime(EisensteinInt(1, 1), 7)
    with pytest.raises(ValueError):
        EisensteinPrime(EisensteinInt(7), 7)


def test_is_prime_helper():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

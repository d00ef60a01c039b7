import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symbalg.intmath import (
    MILLER_RABIN_LIMIT,
    _in_image,
    _order_dividing,
    cornacchia,
    euler_phi,
    is_prime,
    isotropic_vector,
    sqrt_mod,
)

SIEVE_BOUND = 10**5

# primes of 10^18 scale and just below the Miller-Rabin limit, with every
# residue class mod 3 and mod 4
LARGE_PRIMES = [
    2305843009213693951,  # 2^61 - 1
    100000000000000013,
    1000000000000000003,
    1000000000000000009,
    1000000000000000031,
    1000000000000000177,
    10000000000000000051,
    10000000000000000097,
    3317044064679887385961763,
    3317044064679887385961813,
]
# strong pseudoprimes to the first 1, 4, 9 and 12 prime bases, Carmichael
# numbers, and products of two large primes
HARD_COMPOSITES = [
    2047,
    3215031751,
    3825123056546413051,
    318665857834031151167461,
    561,
    1105,
    1729,
    8911,
    9746347772161,
    (10**9 + 7) * (10**9 + 9),
    1000000000000000003 * 1000003,
]


def _sieve(bound):
    """Oracle: Eratosthenes below bound."""
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for n in range(2, math.isqrt(bound - 1) + 1):
        if flags[n]:
            flags[n * n :: n] = bytearray(len(range(n * n, bound, n)))
    return flags


def test_is_prime_matches_sieve():
    flags = _sieve(SIEVE_BOUND)
    assert [n for n in range(-5, SIEVE_BOUND) if is_prime(n)] == [n for n in range(SIEVE_BOUND) if flags[n]]


@pytest.mark.parametrize("n", LARGE_PRIMES)
def test_large_primes(n):
    assert is_prime(n)


@pytest.mark.parametrize("n", HARD_COMPOSITES)
def test_pseudoprimes_and_carmichael_numbers_are_composite(n):
    assert not is_prime(n)


def test_refuses_at_the_miller_rabin_limit():
    # the limit is itself a strong pseudoprime to all 13 bases
    with pytest.raises(ValueError, match="not decided"):
        is_prime(MILLER_RABIN_LIMIT)
    with pytest.raises(ValueError, match="not decided"):
        is_prime(LARGE_PRIMES[-1] * LARGE_PRIMES[-2])
    # a factor among the bases still decides n past the limit
    assert not is_prime(MILLER_RABIN_LIMIT + 1)
    assert not is_prime(10**30)


def test_agrees_with_sympy_at_large_scale():
    sympy = pytest.importorskip("sympy")
    window = range(10**18, 10**18 + 600)
    for n in [*window, *LARGE_PRIMES, *HARD_COMPOSITES, MILLER_RABIN_LIMIT - 2]:
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97, 257, 65537, 998244353, *LARGE_PRIMES])
def test_sqrt_mod(p):
    for a in range(12):
        if pow(a, (p - 1) // 2, p) in (0, 1):
            r = sqrt_mod(a, p)
            assert 0 <= r < p and r * r % p == a % p
        else:
            with pytest.raises(ValueError):
                sqrt_mod(a, p)


def test_sqrt_mod_rejects_even_moduli():
    for p in (1, 2, 8):
        with pytest.raises(ValueError):
            sqrt_mod(1, p)


def _representations(d, p):
    """Oracle: every positive (x, y) with x^2 + d*y^2 = p."""
    return [
        (math.isqrt(p - d * y * y), y)
        for y in range(1, math.isqrt(p // d) + 1)
        if math.isqrt(p - d * y * y) ** 2 == p - d * y * y and p > d * y * y
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_cornacchia_matches_the_scan(d):
    flags = _sieve(5000)
    for p in range(d + 1, 5000):
        if not flags[p] or p == 2:
            continue
        hits = _representations(d, p)
        if hits:
            assert cornacchia(d, p) in hits
        else:
            with pytest.raises(ValueError):
                cornacchia(d, p)


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_cornacchia_at_large_scale(p):
    for d in (1, 3):
        try:
            x, y = cornacchia(d, p)
        except ValueError:
            assert pow(-d % p, (p - 1) // 2, p) == p - 1
        else:
            assert x > 0 and y > 0 and x * x + d * y * y == p


def test_euler_phi_matches_gcd_count():
    for n in range(1, 600):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    assert euler_phi(999983 * 1000003) == 999982 * 1000002
    with pytest.raises(ValueError):
        euler_phi(0)


def multiplicative_order(a: int, n: int) -> int:
    """The order of a mod n as eisenstein.cyclotomic_splitting finds it:
    _order_dividing from the multiple phi(n)."""
    if n < 2 or math.gcd(a, n) != 1:
        raise ValueError("multiplicative order needs gcd(a, n) = 1 and n >= 2")
    return _order_dividing(a, n, euler_phi(n))


def test_multiplicative_order_matches_power_walk():
    for n in range(2, 200):
        for a in range(-3, n):
            if math.gcd(a, n) != 1:
                with pytest.raises(ValueError):
                    multiplicative_order(a, n)
                continue
            k, x = 1, a % n
            while x != 1:
                k, x = k + 1, x * a % n
            assert multiplicative_order(a, n) == k


@given(a=st.integers(2, 10**6), n=st.integers(2, 10**9))
def test_multiplicative_order_definition(a, n):
    if math.gcd(a, n) != 1:
        return
    f = multiplicative_order(a, n)
    assert pow(a, f, n) == 1
    q = 2
    rest = f
    while q * q <= rest:
        if rest % q == 0:
            assert pow(a, f // q, n) != 1
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        assert pow(a, f // rest, n) != 1


@given(
    bound=st.integers(1, 6),
    excess=st.integers(1, 200),
    sign=st.sampled_from([-1, 1]),
    s=st.integers(-3000, 3000),
)
def test_image_membership_is_read_back_when_alpha_exceeds_bound_squared(bound, excess, sign, s):
    a = sign * (bound * bound + excess)
    image = {x * x - a * y * y for x in range(bound + 1) for y in range(bound + 1)}
    assert len(image) == (bound + 1) ** 2  # injective
    assert _in_image(a, bound, s) == (s in image)
    assert all(_in_image(a, bound, v) for v in image)


def test_isotropic_search_does_not_store_s_for_a_large_alpha():
    # S has 101^2 members of about 1,000 digits each, about 4.5 MB as a set
    a, b, bound = -(10**1000 + 3), 2 * 10**1000 + 7, 100
    steps = []
    tracemalloc.start()
    try:
        assert isotropic_vector(a, b, bound, steps) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps == [{"step": "set_size", "value": 101**2}, {"step": "decided_by", "value": "emptiness_proof"}]
    assert peak < 200_000

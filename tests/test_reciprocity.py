"""Cubic reciprocity and its companion laws as an oracle that does not
shrink with p.

The cube-table oracles of test_eisenstein.py enumerate a residue field, so
they stop at small norms.  The laws below hold at every prime, so they
check the cubic residue symbol, the valuation and the local certificate at
split and inert primes drawn up to MILLER_RABIN_LIMIT (Ireland and Rosen,
*A Classical Introduction to Modern Number Theory*, ch. 9):

- cubic reciprocity: chi_pi(rho) = chi_rho(pi) for primary pi and rho of
  coprime norm, both conjugates of a split prime included;
- the supplement for the unit: chi_pi(e) = e^((N(pi) - 1)/3);
- multiplicativity: chi_pi(ab) = chi_pi(a) * chi_pi(b), and chi_q(n) = 1
  for an inert q and a rational n prime to q;
- for the local certificate: m(pi^k * u) = k + m(u), and f = 3 exactly
  when the symbol of alpha is nontrivial.

Here pi is primary when pi = a + b*e with a = 2 and b = 0 mod 3; the test
finds that associate among the six itself.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symbalg.eisenstein import (
    EPS,
    EisensteinInt,
    EisensteinPrime,
    cubic_residue_symbol,
    factor_rational_prime,
    split_valuation,
    splitting_in_kummer,
    valuation,
)
from symbalg.intmath import is_prime, primes_below
from symbalg.local import LocalAlgebraSpec, NormCertificate, is_norm

from helpers import UNITS
from oracles import power

# the primes drawn have at most 82 bits: 2^81 is about 2.4e24, and the
# first prime past it lies far below MILLER_RABIN_LIMIT, about 3.3e24
MAX_BITS = 81


def _primary(z):
    """The associate a + b*e of z with a = 2 and b = 0 mod 3."""
    (t,) = [t for t in (z * u for u in UNITS) if t.a % 3 == 2 and t.b % 3 == 0]
    return t


def _primes_above(p):
    """The primes above p > 3, each with a primary pi: q itself when p = q
    is inert, and both conjugates when p splits."""
    if p % 3 == 2:
        return [EisensteinPrime(EisensteinInt(p), p)]
    pi = _primary(factor_rational_prime(p).pi)
    assert pi.norm() == p
    rho = pi.conjugate()
    return [EisensteinPrime(pi, p), EisensteinPrime(rho, p)]


def test_kind_norm_and_conjugate_are_read_off_pi_and_p():
    """The canonical prime above each p < 200, and the primes above p as
    _primes_above builds them, read kind, abs_norm and conjugate off pi and
    p: the conjugate is a - b - b*e for pi = a + b*e when p splits, else None."""
    for p in primes_below(200):
        canonical = factor_rational_prime(p)
        above = [canonical] + (_primes_above(p) if p > 3 else [])
        for prime in above:
            pi = prime.pi
            if p == 3:
                expected = ("ramified", 3, None)
            elif p % 3 == 2:
                expected = ("inert", p * p, None)
            else:
                expected = ("split", p, EisensteinInt(pi.a - pi.b, -pi.b))
            assert (prime.kind, prime.abs_norm, prime.conjugate) == expected, prime
    # the two primes above a split p are each other's conjugates
    for p in (7, 13, 199):
        first, second = _primes_above(p)
        assert (first.conjugate, second.conjugate) == (second.pi, first.pi)


@st.composite
def rational_primes(draw):
    """A prime 5 <= p < MILLER_RABIN_LIMIT, split or inert, past an n whose
    bit length is drawn uniformly, so that small and large primes come alike."""
    bits = draw(st.integers(3, MAX_BITS))
    n = draw(st.integers(max(5, 2 ** (bits - 1)), 2**bits))
    residue = draw(st.sampled_from([1, 2]))
    p = n + (residue - n) % 3
    while not is_prime(p):
        p += 3
    return p


def _prime_to(p):
    """Nonzero a + b*e prime to p: the norm is prime to p."""
    coordinate = st.integers(-(10**6), 10**6)
    return st.builds(EisensteinInt, coordinate, coordinate).filter(lambda z: z.norm() % p)


def _k(z, prime):
    return cubic_residue_symbol(z, prime).k


@settings(max_examples=50, deadline=None)
@given(p=rational_primes(), q=rational_primes())
def test_cubic_reciprocity(p, q):
    assume(p != q)
    for pi in _primes_above(p):
        for rho in _primes_above(q):
            assert _k(rho.pi, pi) == _k(pi.pi, rho), (pi, rho)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=rational_primes())
def test_unit_supplement_and_multiplicativity(data, p):
    a, b = (data.draw(_prime_to(p)) for _ in range(2))
    n = data.draw(st.integers(-(10**30), 10**30).filter(lambda n: n % p))
    for prime in _primes_above(p):
        assert _k(EPS, prime) == (prime.abs_norm - 1) // 3 % 3
        assert _k(a * b, prime) == (_k(a, prime) + _k(b, prime)) % 3
        assert cubic_residue_symbol(a * prime.pi, prime).is_zero
        if prime.kind == "inert":
            assert _k(EisensteinInt(n), prime) == 0


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=rational_primes(), k=st.integers(0, 6))
def test_valuation_and_local_certificate(data, p, k):
    alpha, u, den = (data.draw(_prime_to(p)) for _ in range(3))
    for prime in _primes_above(p):
        pi_power = EisensteinInt(*power((prime.pi.a, prime.pi.b), k))
        beta = pi_power * u
        assert split_valuation(beta, prime.pi) == (k, u)
        assert valuation(beta, prime, den) == k
        f = 1 if _k(alpha, prime) == 0 else 3
        assert is_norm(LocalAlgebraSpec(alpha, beta, den, prime)) == NormCertificate(f, k, k % f == 0)
        efg = splitting_in_kummer(pi_power * alpha, prime)
        assert (efg.e, efg.f, efg.g) == ((3, 1, 1) if k % 3 else (1, f, 3 // f))

"""Helpers that build symbalg values, shared by the test modules: the six
units as EisensteinInts, the oracles' view of a symbalg prime, the primes
of small norm, and dense matrices over a field."""

from symbalg.eisenstein import EisensteinInt, EisensteinPrime, factor_rational_prime
from symbalg.intmath import primes_below

import oracles

UNITS = [EisensteinInt(a, b) for a, b in oracles.UNITS]


def pair(z):
    """An EisensteinInt as the oracles' int pair."""
    return z.a, z.b


def residue_field(prime):
    """The oracle's Z[e]/pi for a symbalg prime."""
    return oracles.Residues(pair(prime.pi), prime.p)


def conjugate_prime(prime):
    """The other prime above a split p, in its canonical window form."""
    pi = oracles.canonical_associate(oracles.conjugate(pair(prime.pi)))
    return EisensteinPrime(EisensteinInt(*pi), prime.p)


def primes_with_norm_upto(bound):
    """Every prime of Z[e] of norm at most bound but the ramified one: both
    primes above a split p, and the inert ones."""
    primes = []
    for p in primes_below(bound + 1):
        prime = factor_rational_prime(p)
        if prime.kind == "split":
            primes.append(prime)
            primes.append(conjugate_prime(prime))
        elif prime.kind == "inert" and prime.abs_norm <= bound:
            primes.append(prime)
    return primes


def identity(desc, n):
    return [[desc.one() if i == j else desc.zero() for j in range(n)] for i in range(n)]


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

"""Split/division classification of degree-3 cyclic algebras over the
completion of the cube-root-of-unity field at an unramified prime.

For data (alpha, beta, pi) with pi a split or inert prime above p > 3 and
pi not dividing alpha, the cube-root extension adjoining alpha^(1/3) is
unramified of residual degree f read off the cubic residue symbol, and
beta = pi^m * unit is a local norm exactly when f divides m.  The verdict
is division exactly when beta is not a norm; otherwise the algebra is a
matrix algebra.  The Frobenius exponent m mod f plays the role of the
local Artin symbol: the identity iff beta is a norm.
"""

from __future__ import annotations

import math

from .eisenstein import (
    ONE,
    EisensteinInt,
    cubic_residue_symbol,
    factor_rational_prime,
    splitting_in_kummer,
    valuation,
)
from .base import Record
from .intmath import is_prime

# largest l power_spec accepts: beta = p^(3l) has 3l*log(p) digits and the
# valuation divides it 3l times, so the time grows about as l^3
MAX_POWER_L = 100


class LocalAlgebraSpec(Record):
    """(alpha, beta / K_pi, e) with beta given as an exact fraction."""

    __slots__ = ("alpha", "beta_num", "beta_den", "prime")

    def __post_init__(self):
        if self.prime.kind not in ("split", "inert"):
            raise ValueError("the prime must be split or inert (p > 3)")
        if self.prime.p <= 3:
            raise ValueError("the underlying rational prime must exceed 3")
        if self.beta_num.is_zero() or self.beta_den.is_zero():
            raise ValueError("beta must be a nonzero fraction")
        if self.prime.divides(self.alpha):
            raise ValueError("pi divides alpha: the cube-root extension ramifies")


class NormCertificate(Record):
    # residual degree f (1 or 3), valuation m of beta, f | m (beta is a norm)
    __slots__ = ("f", "m", "divides")


class ArtinSymbolResult(Record):
    __slots__ = ("f", "exponent")  # exponent: Frobenius power m mod f; 0 means the identity


class Verdict(Record):
    __slots__ = ("outcome", "certificate")  # outcome: "split" | "division"


def is_norm(spec: LocalAlgebraSpec) -> NormCertificate:
    # the spec has pi prime to alpha, so the extension is unramified of degree f
    f = splitting_in_kummer(spec.alpha, spec.prime).f
    m = valuation(spec.beta_num, spec.prime, spec.beta_den)
    return NormCertificate(f, m, m % f == 0)


def artin_symbol(spec: LocalAlgebraSpec) -> ArtinSymbolResult:
    cert = is_norm(spec)
    return ArtinSymbolResult(cert.f, cert.m % cert.f)


def classify(spec: LocalAlgebraSpec) -> Verdict:
    cert = is_norm(spec)
    return Verdict("split" if cert.divides else "division", cert)


def classify_report(spec: LocalAlgebraSpec) -> dict:
    """JSON-ready report for a spec; the honest symbol value is included
    so inert primes with non-rational alpha stay visible."""
    symbol = cubic_residue_symbol(spec.alpha, spec.prime)
    verdict = classify(spec)
    artin = artin_symbol(spec)
    f = verdict.certificate.f
    return {
        "verdict": verdict.outcome,
        "f": f,
        "m": verdict.certificate.m,
        "artin_exponent": artin.exponent,
        "efg": [1, f, 3 // f],
        "case": "general",
        "symbol": str(symbol),
    }


def power_spec(alpha: EisensteinInt, p: int, l: int) -> LocalAlgebraSpec:
    """The spec (alpha, p^(3l)) at the canonical prime above p, for l in
    1..MAX_POWER_L."""
    if not 1 <= l <= MAX_POWER_L:
        raise ValueError(f"l must be in 1..{MAX_POWER_L}")
    prime = factor_rational_prime(p)
    return LocalAlgebraSpec(alpha, EisensteinInt(p) ** (3 * l), ONE, prime)


def report_inert_prime_power(alpha: int, p: int, l: int) -> dict:
    """Report for rational alpha at an inert prime with beta = p^(3l).

    The cube-root extension is trivial there (rational alpha always has
    trivial cubic symbol at an inert prime), so beta is a norm and the
    Artin exponent vanishes.
    """
    if not is_prime(p) or p % 3 != 2 or p <= 3:
        raise ValueError("p must be a prime congruent to 2 mod 3 and exceed 3")
    if math.gcd(alpha, p) != 1:
        raise ValueError("alpha must be coprime to p")
    report = classify_report(power_spec(EisensteinInt(alpha), p, l))
    report["case"] = "3.2"
    if report["symbol"] != "eps^0" or report["f"] != 1:
        raise ArithmeticError("rational alpha has a nontrivial cubic symbol at an inert prime")
    if report["verdict"] != "split" or report["artin_exponent"] != 0:
        raise ArithmeticError("beta = p^(3l) did not classify split")
    return report


def report_split_prime_power(alpha: EisensteinInt, p: int, l: int) -> dict:
    """Report for alpha at the canonical prime above a split p with
    beta = p^(3l); the report's residual degree, read off its cubic symbol,
    selects the inert-extension case (f = 3) or the totally split one
    (f = 1), and both classify split."""
    if not is_prime(p) or p % 3 != 1:
        raise ValueError("p must be a prime congruent to 1 mod 3")
    report = classify_report(power_spec(alpha, p, l))
    report["case"] = "3.3-2" if report["f"] == 1 else "3.3-1"
    if report["verdict"] != "split" or report["artin_exponent"] != 0:
        raise ArithmeticError("beta = p^(3l) did not classify split")
    return report

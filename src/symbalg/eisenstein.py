"""Arithmetic in Z[e], the ring of integers of the cube-root-of-unity field.

Elements are a + b*e with e^2 + e + 1 = 0 and norm a^2 - a*b + b^2.  The
ring is Euclidean, so rational primes classify as split (p = 1 mod 3),
inert (p = 2 mod 3) or ramified (p = 3), and residue fields, cubic
residue symbols and pi-adic valuations are all computed exactly.
"""

from __future__ import annotations

from functools import lru_cache

from .base import ParseError, Record, format_pair, pair_conj_norm, pair_mul, read_element
from .intmath import _order_dividing, cornacchia, euler_phi, is_prime

# entries kept by the factor_rational_prime cache: every fresh prime would
# otherwise stay in memory for the life of the process
PRIME_CACHE_SIZE = 128
# largest l cyclotomic_splitting accepts: factoring l and phi(l) is trial
# division up to the square root of their largest composite part
MAX_CYCLOTOMIC_L = 10**12


def _round_div(num: int, den: int) -> int:
    """Nearest integer to num/den, den > 0; ties go up (deterministic)."""
    return (2 * num + den) // (2 * den)


class EisensteinInt(Record):
    """a + b*e with integer a, b: the pair (a, b) of Z[t], t^2 + t + 1 = 0,
    so that its product, conjugate and norm are the pair functions of
    ``base`` at u = w = 1."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def norm(self) -> int:
        return pair_conj_norm((self.a, self.b), 1, 1)[1]

    def conjugate(self) -> "EisensteinInt":
        # e -> e^2 = -1 - e
        return EisensteinInt(*pair_conj_norm((self.a, self.b), 1, 1)[0])

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __sub__(self, other):
        if not isinstance(other, EisensteinInt):
            return NotImplemented
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        if not isinstance(other, EisensteinInt):
            return NotImplemented
        return EisensteinInt(*pair_mul((self.a, self.b), (other.a, other.b), 1, 1))

    def __divmod__(self, other):
        """q, r with self = q*other + r and norm(r) < norm(other), by _divide."""
        if not isinstance(other, EisensteinInt):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Z[e]")
        return _divide(self, other, *pair_conj_norm((other.a, other.b), 1, 1))

    def __str__(self):
        return format_pair(self.a, self.b)


def _divide(z: EisensteinInt, d: EisensteinInt, conj: tuple[int, int], n: int) -> tuple[EisensteinInt, EisensteinInt]:
    """q, r with z = q*d + r, given the int pair conj(d) and n = N(d) > 0.

    The quotient rounds the exact quotient z*conj(d)/n in Q(e) to nearest
    integers coefficientwise, which keeps norm(r) <= 3/4 * n.  It builds
    the records q, q*d and r only.
    """
    t0, t1 = pair_mul((z.a, z.b), conj, 1, 1)
    q = EisensteinInt(_round_div(t0, n), _round_div(t1, n))
    return q, z - q * d


ONE = EisensteinInt(1)
EPS = EisensteinInt(0, 1)


class NotPrimeError(ValueError):
    """factor_rational_prime was given a p that is not prime."""


class EisensteinPrime(Record):
    """The prime pi of Z[e] above the rational prime p: split with N(pi) = p
    when p = 1 mod 3, inert with pi = p when p = 2 mod 3, ramified with
    N(pi) = 3 at p = 3; kind, abs_norm and conjugate are read off pi and p.
    At a split p it keeps _r = -a/b mod p, the image of e in Z[e]/pi = F_p
    for pi = a + b*e, a root of t^2 + t + 1 mod p; elsewhere _r is None.
    A p that is not prime is refused, unless p_is_prime says it was tested."""

    __slots__ = ("pi", "p", "_r")

    def __init__(self, pi: EisensteinInt, p: int, p_is_prime: bool = False):
        super().__init__(pi, p)
        if not (p_is_prime or is_prime(p)) or pi.norm() != self.abs_norm or p % 3 == 2 and pi != EisensteinInt(p):
            raise ValueError(f"{pi} is not a prime above {p}")
        # at a split p, b is prime to p (else p | pi and N(pi) = p^2), and
        # r^2 + r + 1 = N(pi)/b^2 = 0 mod p
        object.__setattr__(self, "_r", -pi.a * pow(pi.b, -1, p) % p if p % 3 == 1 else None)

    @property
    def kind(self) -> str:
        return "ramified" if self.p == 3 else "split" if self.p % 3 == 1 else "inert"

    @property
    def abs_norm(self) -> int:
        return self.p * self.p if self.p % 3 == 2 else self.p

    @property
    def conjugate(self) -> EisensteinInt | None:
        return self.pi.conjugate() if self.p % 3 == 1 else None

    def __str__(self):
        return f"{self.kind}({self.pi} | N={self.abs_norm})"


@lru_cache(maxsize=PRIME_CACHE_SIZE)
def factor_rational_prime(p: int) -> EisensteinPrime:
    """Classify the rational prime p in Z[e], testing p once, before Cornacchia."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p == 3:
        return EisensteinPrime(EisensteinInt(1, -1), 3, p_is_prime=True)
    if p % 3 == 2:
        return EisensteinPrime(EisensteinInt(p), p, p_is_prime=True)
    # x^2 + 3y^2 = p gives (x + y) + 2y*e, whose norm (x + y)^2 - 2y(x + y) + 4y^2
    # is x^2 + 3y^2, as EisensteinPrime checks
    x, y = cornacchia(3, p)
    # the window a > 0, 0 <= b < a holds exactly one associate of each of
    # (x + y) + 2y*e and its conjugate (x - y) - 2y*e, and the smaller pair
    # is the canonical pi; (a, b) -> (b, b - a) is the product by the unit
    # -e, whose six powers are the units
    window = []
    for a, b in ((x + y, 2 * y), (x - y, -2 * y)):
        for _ in range(6):
            a, b = b, b - a
            if 0 <= b < a:
                window.append((a, b))
                break
    return EisensteinPrime(EisensteinInt(*min(window)), p, p_is_prime=True)


class CubicSymbol(Record):
    """Value of the cubic residue character: zero or e^k, k in {0, 1, 2}."""

    __slots__ = ("k",)  # None encodes the divisible (zero) case

    @property
    def is_zero(self) -> bool:
        return self.k is None

    @property
    def is_trivial(self) -> bool:
        return self.k == 0

    def __str__(self):
        return "zero" if self.k is None else f"eps^{self.k}"


def cubic_residue_symbol(alpha: EisensteinInt, prime: EisensteinPrime) -> CubicSymbol:
    """alpha^((N(pi) - 1)/3) mod pi, identified as a power of the cube root:
    in F_p through the image of e the prime keeps at a split p, and in
    F_p[e] on int pairs at an inert one.

    Undefined at the ramified prime, where (N(pi) - 1)/3 is not integral.
    """
    if prime.kind == "ramified":
        raise ValueError("cubic residue symbol is undefined at the ramified prime")
    p, k = prime.p, (prime.abs_norm - 1) // 3
    if prime.kind == "split":
        r = prime._r
        x = (alpha.a + alpha.b * r) % p
        if not x:
            return CubicSymbol(None)
        value, roots = pow(x, k, p), (1, r, r * r % p)
    else:
        x0, x1 = alpha.a % p, alpha.b % p
        if not (x0 or x1):
            return CubicSymbol(None)
        # square and multiply in F_p[e], where e^2 = -1 - e
        v0, v1 = 1, 0
        while k:
            if k & 1:
                v0, v1 = (v0 * x0 - v1 * x1) % p, (v0 * x1 + v1 * x0 - v1 * x1) % p
            x0, x1 = (x0 * x0 - x1 * x1) % p, (2 * x0 - x1) * x1 % p
            k >>= 1
        value, roots = (v0, v1), ((1, 0), (0, 1), (p - 1, p - 1))
    if value not in roots:
        raise ArithmeticError("character value is not a cube root of unity")
    return CubicSymbol(roots.index(value))


def valuation(num: EisensteinInt, prime: EisensteinPrime, den: EisensteinInt = ONE) -> int:
    """Exact pi-adic valuation of num/den (valuation of numerator minus
    valuation of denominator), via repeated exact-division tests."""
    if num.is_zero() or den.is_zero():
        raise ValueError("valuation of zero is undefined")
    return split_valuation(num, prime.pi)[0] - split_valuation(den, prime.pi)[0]


def split_valuation(z: EisensteinInt, pi: EisensteinInt) -> tuple[int, EisensteinInt]:
    """(v, z / pi^v) for nonzero z, where v is the largest power of pi
    dividing z; pi's conjugate and norm are taken once, not per division."""
    conj, n = pair_conj_norm((pi.a, pi.b), 1, 1)
    count = 0
    while True:
        q, r = _divide(z, pi, conj, n)
        if not r.is_zero():
            return count, z
        z = q
        count += 1


class SplittingData(Record):
    """Ramification index, residual degree and prime count; e*f*g = 3."""

    __slots__ = ("e", "f", "g")


def splitting_in_kummer(alpha: EisensteinInt, prime: EisensteinPrime, steps: list | None = None) -> SplittingData:
    """How prime behaves in the degree-3 Kummer extension adjoining a cube
    root of alpha = pi^v * u with u prime to pi: ramifies when 3 does not
    divide v; otherwise the extension is the one of u, and prime stays
    prime when the symbol of u is a primitive cube root and splits
    completely when it is 1.

    Given a steps list, it appends what decided as {"step", "value"}
    records: the symbol of alpha when pi does not divide it, else v and,
    when 3 divides v, the symbol of u."""
    if alpha.is_zero():
        raise ValueError("alpha must be nonzero")
    symbol, step = cubic_residue_symbol(alpha, prime), "cubic_symbol"
    if symbol.is_zero:
        v, unit = split_valuation(alpha, prime.pi)
        if steps is not None:
            steps.append({"step": "valuation", "value": v})
        if v % 3:
            return SplittingData(3, 1, 1)
        symbol, step = cubic_residue_symbol(unit, prime), "unit_symbol"
    if steps is not None:
        steps.append({"step": step, "value": str(symbol)})
    if symbol.is_trivial:
        return SplittingData(1, 1, 3)
    return SplittingData(1, 3, 1)


def cyclotomic_splitting(p: int, l: int) -> tuple[int, int]:
    """(f, r) for p in the l-th cyclotomic ring: f is the multiplicative
    order of p mod l and r = phi(l)/f is the number of primes above p.
    l is capped at MAX_CYCLOTOMIC_L."""
    if not 3 <= l <= MAX_CYCLOTOMIC_L:
        raise ValueError(f"l must be in 3..{MAX_CYCLOTOMIC_L}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if l % p == 0:
        raise ValueError("p must not divide l")
    phi = euler_phi(l)
    f = _order_dividing(p, l, phi)
    return f, phi // f


def parse_eisenstein(text: str) -> EisensteinInt:
    (a, a_den), (b, b_den) = read_element(text)
    if a_den != 1 or b_den != 1:
        raise ParseError(f"Eisenstein integers need integer coefficients: {text!r}")
    return EisensteinInt(a, b)


def parse_eisenstein_fraction(text: str) -> tuple[EisensteinInt, EisensteinInt]:
    """Parse "a+b*w" or "a+b*w/c+d*w" into a numerator/denominator pair."""
    parts = text.split("/")
    if len(parts) == 1:
        return parse_eisenstein(parts[0]), ONE
    if len(parts) == 2:
        den = parse_eisenstein(parts[1])
        if den.is_zero():
            raise ParseError("zero denominator")
        return parse_eisenstein(parts[0]), den
    raise ParseError(f"malformed fraction: {text!r}")

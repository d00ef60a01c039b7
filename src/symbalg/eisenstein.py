"""Arithmetic in Z[e], the ring of integers of the cube-root-of-unity field.

Elements are a + b*e with e^2 + e + 1 = 0 and norm a^2 - a*b + b^2.  The
ring is Euclidean, so rational primes classify as split (p = 1 mod 3),
inert (p = 2 mod 3) or ramified (p = 3), and residue fields, cubic
residue symbols and pi-adic valuations are all computed exactly.
"""

from __future__ import annotations

from functools import lru_cache

from .base import ParseError, Record, read_element
from .intmath import _order_dividing, cornacchia, euler_phi, is_prime

# entries kept by the factor_rational_prime and eps_image caches: every
# fresh prime would otherwise stay in memory for the life of the process
PRIME_CACHE_SIZE = 128
# largest l cyclotomic_splitting accepts: factoring l and phi(l) is trial
# division up to the square root of their largest composite part
MAX_CYCLOTOMIC_L = 10**12


def _round_div(num: int, den: int) -> int:
    """Nearest integer to num/den, den > 0; ties go up (deterministic)."""
    return (2 * num + den) // (2 * den)


class EisensteinInt(Record):
    """a + b*e with integer a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _coerce(self, other):
        if isinstance(other, EisensteinInt):
            return other
        if isinstance(other, int):
            return EisensteinInt(other)
        return None

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def conjugate(self) -> "EisensteinInt":
        # e -> e^2 = -1 - e
        return EisensteinInt(self.a - self.b, -self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisensteinInt(self.a - o.a, self.b - o.b)

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b e)(c + d e) = ac - bd + (ad + bc - bd) e
        a, b, c, d = self.a, self.b, o.a, o.b
        return EisensteinInt(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = EisensteinInt(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # no square past the last bit
                base = base * base
        return result

    def __divmod__(self, other):
        """q, r with self = q*other + r and norm(r) < norm(other).

        The quotient rounds the exact quotient in Q(e) to nearest integers
        coefficientwise, which keeps norm(r) <= 3/4 * norm(other).
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero in Z[e]")
        n = o.norm()
        t = self * o.conjugate()
        q = EisensteinInt(_round_div(t.a, n), _round_div(t.b, n))
        return q, self - q * o


ONE = EisensteinInt(1)
EPS = EisensteinInt(0, 1)
# the six units: +-1, +-e, +-e^2
UNITS = (ONE, -ONE, EPS, -EPS, EisensteinInt(-1, -1), EisensteinInt(1, 1))


def canonical_associate(z: EisensteinInt) -> EisensteinInt:
    """The associate with a > 0 and 0 <= b < a.

    That window is a fundamental domain for multiplication by the six
    units, so exactly one associate of a nonzero z lies in it.
    """
    if z.is_zero():
        raise ValueError("zero has no canonical associate")
    return next(t for t in (z * u for u in UNITS) if t.a > 0 and 0 <= t.b < t.a)


class EisensteinPrime(Record):
    """The prime pi of Z[e] above the rational prime p: split with N(pi) = p
    when p = 1 mod 3, inert with pi = p when p = 2 mod 3, ramified with
    N(pi) = 3 at p = 3; kind, abs_norm and conjugate are read off pi and p."""

    __slots__ = ("pi", "p")

    def __post_init__(self):
        p, pi = self.p, self.pi
        if p % 3 == 0 and p != 3 or pi.norm() != self.abs_norm or p % 3 == 2 and pi != EisensteinInt(p):
            raise ValueError(f"{format_eisenstein(pi)} is not a prime above {p}")

    @property
    def kind(self) -> str:
        return "ramified" if self.p == 3 else "split" if self.p % 3 == 1 else "inert"

    @property
    def abs_norm(self) -> int:
        return self.p * self.p if self.p % 3 == 2 else self.p

    @property
    def conjugate(self) -> EisensteinInt | None:
        return self.pi.conjugate() if self.p % 3 == 1 else None

    def divides(self, z: EisensteinInt) -> bool:
        return divmod(z, self.pi)[1].is_zero()

    def __str__(self):
        return format_prime(self)


def _norm_equation(p: int) -> EisensteinInt:
    # x^2 + 3y^2 = p gives (x + y) + 2y*e, whose norm is
    # (x + y)^2 - 2y(x + y) + 4y^2 = x^2 + 3y^2
    x, y = cornacchia(3, p)
    z = EisensteinInt(x + y, 2 * y)
    if z.norm() != p:
        raise ArithmeticError(f"no Eisenstein element of norm {p}")
    return z


@lru_cache(maxsize=PRIME_CACHE_SIZE)
def factor_rational_prime(p: int) -> EisensteinPrime:
    """Classify the rational prime p in Z[e]."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 3:
        return EisensteinPrime(EisensteinInt(1, -1), 3)
    if p % 3 == 2:
        return EisensteinPrime(EisensteinInt(p), p)
    z = _norm_equation(p)
    # the two prime orbits above p both contain a window representative;
    # the lexicographically smaller one is the canonical pi
    c1 = canonical_associate(z)
    c2 = canonical_associate(z.conjugate())
    pi = min(c1, c2, key=lambda t: (t.a, t.b))
    return EisensteinPrime(pi, p)


@lru_cache(maxsize=PRIME_CACHE_SIZE)
def eps_image(pi: EisensteinInt, p: int) -> int:
    """The image r = -a/b mod p of e in Z[e]/pi = F_p, for pi = a + b*e
    above a split p; r is a root of t^2 + t + 1 mod p."""
    # b is invertible mod p, else p would divide pi and norm(pi) = p^2
    r = -pi.a * pow(pi.b, p - 2, p) % p
    if (r * r + r + 1) % p:
        raise ValueError(f"{format_eisenstein(pi)} is not a prime above {p}")
    return r


class CubicSymbol(Record):
    """Value of the cubic residue character: zero or e^k, k in {0, 1, 2}."""

    __slots__ = ("k",)  # None encodes the divisible (zero) case

    @classmethod
    def zero(cls) -> "CubicSymbol":
        return cls(None)

    @classmethod
    def root(cls, k: int) -> "CubicSymbol":
        return cls(k % 3)

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
    in F_p through the image of e at a split prime, and in F_p[e] on int
    pairs at an inert one.

    Undefined at the ramified prime, where (N(pi) - 1)/3 is not integral.
    """
    if prime.kind == "ramified":
        raise ValueError("cubic residue symbol is undefined at the ramified prime")
    p, k = prime.p, (prime.abs_norm - 1) // 3
    if prime.kind == "split":
        r = eps_image(prime.pi, p)
        x = (alpha.a + alpha.b * r) % p
        if not x:
            return CubicSymbol.zero()
        value, roots = pow(x, k, p), (1, r, r * r % p)
    else:
        x0, x1 = alpha.a % p, alpha.b % p
        if not (x0 or x1):
            return CubicSymbol.zero()
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
    return CubicSymbol.root(roots.index(value))


def valuation(num: EisensteinInt, prime: EisensteinPrime, den: EisensteinInt = ONE) -> int:
    """Exact pi-adic valuation of num/den (valuation of numerator minus
    valuation of denominator), via repeated exact-division tests."""
    if num.is_zero() or den.is_zero():
        raise ValueError("valuation of zero is undefined")
    return split_valuation(num, prime.pi)[0] - split_valuation(den, prime.pi)[0]


def split_valuation(z: EisensteinInt, pi: EisensteinInt) -> tuple[int, EisensteinInt]:
    """(v, z / pi^v) for nonzero z, where v is the largest power of pi dividing z."""
    count = 0
    while True:
        q, r = divmod(z, pi)
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


def format_eisenstein(z: EisensteinInt) -> str:
    if z.b == 0:
        return str(z.a)
    sign = "+" if z.b > 0 else "-"
    return f"{z.a}{sign}{abs(z.b)}*w"


def format_prime(prime: EisensteinPrime) -> str:
    return f"{prime.kind}({format_eisenstein(prime.pi)} | N={prime.abs_norm})"


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

"""Exact integer number theory: primality, square roots modulo a prime,
Cornacchia's algorithm and the representations 4p = a^2 + 27b^2 and
p = x^2 + z^2 built on it, the split/division verdict for H_Q(-1, p),
Euler's phi, and the isotropic-vector search of the quaternion norm form
x0^2 - a*x1^2 - b*x2^2 + a*b*x3^2.

Primality is trial division by the first 13 primes followed by the
Miller-Rabin test to the first t of them, for the least t with n < psi_t,
where psi_t is the least strong pseudoprime to the first t prime bases
(OEIS A014233; Jaeschke, Math. Comp. 61 (1993); Sorenson and Webster,
Math. Comp. 86 (2017)): four bases run near 10^8, and all 13 only from
psi_12 on.  Past psi_13 = MILLER_RABIN_LIMIT is_prime refuses instead of
returning a probable answer.  Square roots modulo p take the one power
a^((p+1)/4) when p = 3 mod 4 and Tonelli-Shanks otherwise, and
x^2 + d*y^2 = p uses Cornacchia's algorithm (Cohen, A Course in
Computational Algebraic Number Theory, Alg. 1.5.1 and 1.5.2), so these
run in time polynomial in log p.
Only factoring, for euler_phi and _order_dividing, is trial division; it
stops once the part left is prime, and callers cap its input.  Each
witness is checked on its identity by code that raises ArithmeticError.
Everything here works on ints alone, so it loads no fractions.
"""

from __future__ import annotations

import math
from bisect import bisect_right

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_t, the least strong pseudoprime to the first t bases (OEIS A014233);
# the last, to all 13, is the limit
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3_317_044_064_679_887_385_961_981,
)
MILLER_RABIN_LIMIT = _MR_PSI[-1]
# largest coordinate bound isotropic_vector accepts; time grows as bound^2
# and memory as the number of distinct right-hand values
MAX_SEARCH_BOUND = 500


def is_prime(n: int) -> bool:
    """Exact primality of n, by the first t bases for the least t with
    n < psi_t.  Raises ValueError when n >= MILLER_RABIN_LIMIT and none of the 13 bases
    divides n, where the test is not proven."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"primality of {n} is not decided: deterministic Miller-Rabin "
            f"is proven only below {MILLER_RABIN_LIMIT}"
        )
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(bound: int) -> list[int]:
    return [n for n in range(2, bound) if is_prime(n)]


def sqrt_mod(a: int, p: int) -> int:
    """x in [0, p) with x^2 = a mod p, for an odd prime p: a^((p+1)/4) when
    p = 3 mod 4, Tonelli-Shanks otherwise.  Raises ValueError when a is not
    a square mod p."""
    if p < 3 or p % 2 == 0:
        raise ValueError("sqrt_mod needs an odd prime modulus")
    a %= p
    if a == 0:
        return 0
    half = (p - 1) // 2
    if pow(a, half, p) != 1:
        raise ValueError(f"{a} is not a square modulo {p}")
    if p % 4 == 3:
        # its square is a * a^((p-1)/2) = a, by the check above
        return pow(a, (p + 1) // 4, p)
    m = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> m
    z = next((z for z in range(2, p) if pow(z, half, p) == p - 1), None)
    if z is None:
        raise ValueError(f"{p} is not prime")
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # r^2 = a*t and t has order 2^i; for prime p, i < m, so m falls
        i = next((i for i in range(1, m) if pow(t, 1 << i, p) == 1), None)
        if i is None:
            raise ValueError(f"{p} is not prime")
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def cornacchia(d: int, p: int) -> tuple[int, int]:
    """Positive (x, y) with x^2 + d*y^2 = p, for 0 < d < p and p an odd
    prime; such a representation is unique up to signs (and order when
    d = 1).  Raises ValueError when there is none."""
    if not 0 < d < p:
        raise ValueError("cornacchia needs 0 < d < p")
    a, b = p, sqrt_mod(-d, p)
    limit = math.isqrt(p)
    while b > limit:
        a, b = b, a % b
    y_square, rest = divmod(p - b * b, d)
    y = math.isqrt(y_square)
    if rest or y * y != y_square:
        raise ValueError(f"{p} is not of the form x^2 + {d}*y^2")
    return b, y


def gauss_representation(p: int) -> tuple[int, int]:
    """Positive integers (a, b) with 4p = a^2 + 27 b^2, for p = 1 mod 3."""
    if not is_prime(p) or p % 3 != 1:
        raise ValueError("p must be a prime congruent to 1 mod 3")
    # x^2 + 3y^2 = p makes 4p = A^2 + 3B^2 for each (A, B) below, and
    # exactly one B is divisible by 3 because 3 divides neither x nor p
    x, y = cornacchia(3, p)
    pairs = ((2 * x, 2 * y), (x + 3 * y, x - y), (x - 3 * y, x + y))
    big_a, big_b = next((pair for pair in pairs if pair[1] % 3 == 0), (0, 0))
    a, b = abs(big_a), abs(big_b) // 3
    if a * a + 27 * b * b != 4 * p:
        raise ArithmeticError(f"no representation 4*{p} = a^2 + 27*b^2")
    return a, b


def classify_minus1_p(p: int) -> tuple[int, int] | None:
    """H_Q(-1, p) at an odd prime p: None when p = 3 mod 4 and it is a
    division algebra, else (x, z) with 0 < x <= z for the point (x, 1, z)
    on its conic -x^2 + p*y^2 = z^2, checked as x^2 + z^2 = p."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if p % 4 == 3:
        return None
    x, z = sorted(cornacchia(1, p))
    if x * x + z * z != p:
        raise ArithmeticError(f"{p} is not a sum of two squares")
    return x, z


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, in increasing order, by trial
    division that stops once the part left is 1 or prime."""
    divisors = []
    d = 2
    while n > 1 and not is_prime(n):
        while n % d:
            d += 1 if d == 2 else 2
        divisors.append(d)
        while n % d == 0:
            n //= d
    if n > 1:
        divisors.append(n)
    return divisors


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for q in _prime_divisors(n):
        result -= result // q
    return result


def _order_dividing(a: int, n: int, order: int) -> int:
    """The order of a mod n, given a multiple of it such as phi(n)."""
    for q in _prime_divisors(order):
        while order % q == 0 and pow(a, order // q, n) == 1:
            order //= q
    return order


def check_search_bound(bound: int) -> None:
    """Raise ValueError when bound is outside 1..MAX_SEARCH_BOUND."""
    if not 1 <= bound <= MAX_SEARCH_BOUND:
        raise ValueError(f"bound must be in 1..{MAX_SEARCH_BOUND}")


def isotropic_vector(a: int, b: int, bound: int, steps: list | None = None) -> tuple[int, int, int, int] | None:
    """First primitive (x0, x1, x2, x3) in lexicographic order, coordinates
    in [-bound, bound], with x0^2 - a*x1^2 - b*x2^2 + a*b*x3^2 = 0, or None
    if there is none.

    The quartic loop is folded into a pairing: x0^2 - a*x1^2 must be b
    times a member of S = {x^2 - a*y^2 : 0 <= x, y <= bound}, and only on
    a hit are the (x2, x3) partners regenerated.  When |a| > bound^2, the
    map (x, y) -> x^2 - a*y^2 is injective and x^2 is its value mod |a|,
    so S is enumerated and tested arithmetically and memory does not grow
    with it; otherwise S is held as a set.  Unless a is a positive square,
    only x = y = 0 gives 0, so a witness needs nonzero s, s' in S with
    b*s = s'; without one the scan is skipped.  A witness exists among all
    integer vectors iff one exists among the primitive ones.  To a given
    steps list it appends, as {"step", "value"} records, |S|, whether the
    emptiness proof or the scan decided, and how many (x0, x1) pairs the
    scan read.
    """
    check_search_bound(bound)
    if not a or not b:
        raise ValueError("alpha and beta must be nonzero")
    steps = [] if steps is None else steps
    squares = [x * x for x in range(bound + 1)]
    if abs(a) > squares[-1]:
        size = len(squares) ** 2
        members = (t - a * s for s in squares for t in squares)
        contains = lambda s: _in_image(a, bound, s)
    else:
        members = set()
        for t in squares:
            members.update(map((-a * t).__add__, squares))
        size, contains = len(members), members.__contains__
    steps.append({"step": "set_size", "value": size})
    # b | s and s/b in S rather than b*s in S: for a large b each product
    # would be about twice as long as the members of S
    if not (a > 0 and math.isqrt(a) ** 2 == a) and not any(
        s and s % b == 0 and contains(s // b) for s in members
    ):
        steps.append({"step": "decided_by", "value": "emptiness_proof"})
        return None
    steps.append({"step": "decided_by", "value": "scan"})
    side = 2 * bound + 1
    rng = range(-bound, bound + 1)
    for x0 in rng:
        for x1 in rng:
            quotient, rest = divmod(x0 * x0 - a * x1 * x1, b)
            if rest or not contains(quotient):
                continue
            for x2, x3 in _right_partners(a, quotient, bound):
                if math.gcd(x0, x1, x2, x3) == 1:
                    if x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3:
                        raise ArithmeticError("search witness is not isotropic")
                    steps.append({"step": "pairs_scanned", "value": (x0 + bound) * side + x1 + bound + 1})
                    return x0, x1, x2, x3
    steps.append({"step": "pairs_scanned", "value": side * side})
    return None


def _in_image(a: int, bound: int, s: int) -> bool:
    """Whether s = x^2 - a*y^2 for some 0 <= x, y <= bound, given |a| > bound^2:
    then x^2 < |a| is s mod |a|, and y^2 = (x^2 - s)/a."""
    x_square = s % abs(a)
    y_square, rest = divmod(x_square - s, a)
    if rest or y_square < 0:
        return False
    x, y = math.isqrt(x_square), math.isqrt(y_square)
    return x * x == x_square and y * y == y_square and max(x, y) <= bound


def _right_partners(a: int, target: int, bound: int):
    """(x2, x3) in [-bound, bound]^2 with x2^2 - a*x3^2 = target, in
    lexicographic order: x3^2 = (x2^2 - target)/a is solved per x2."""
    for x2 in range(-bound, bound + 1):
        x3_square, rest = divmod(x2 * x2 - target, a)
        if rest or x3_square < 0:
            continue
        x3 = math.isqrt(x3_square)
        if x3 * x3 == x3_square and x3 <= bound:
            yield x2, -x3
            if x3:
                yield x2, x3

"""Independent reference arithmetic for checking symbalg's outputs.

Nothing here imports symbalg: every answer is recomputed from the defining
formulas with plain ints and ``fractions.Fraction``.

Representations:
- a field element c0 + c1*t of Q[t]/(t^2 + u*t + w) is a pair (c0, c1) of
  Fractions; Q uses the same shape with c1 = 0;
- an element of a symbol algebra of degree n is a dict {(i, j): pair} over
  the basis x^i y^j, holding only nonzero coefficients; a quaternion
  x0 + x1*e1 + x2*e2 + x3*e3 is the n = 2, zeta = -1 element with
  e1 = x, e2 = y, e3 = xy;
- an Eisenstein integer a + b*e (e^2 + e + 1 = 0) is an int pair (a, b).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# (u, w) of the minimal polynomial t^2 + u*t + w of each base field
FIELDS = {"q": (0, 0), "qeps": (1, 1), "qsqrt3": (0, -3)}

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


# ------------------------------------------------------------ base fields


def fadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def fneg(x):
    return (-x[0], -x[1])


def fmul(field, x, y):
    u, w = FIELDS[field]
    a0, a1 = x
    b0, b1 = y
    return (a0 * b0 - w * a1 * b1, a0 * b1 + a1 * b0 - u * a1 * b1)


def finv(field, x):
    u, w = FIELDS[field]
    c0, c1 = x
    n = c0 * c0 - u * c0 * c1 + w * c1 * c1
    if n == 0:
        raise ZeroDivisionError("inverse of zero")
    return (Fraction(c0 - u * c1) / n, Fraction(-c1) / n)


# ---------------------------------------------------------- symbol algebras


class Algebra:
    """(alpha, beta / K, zeta) of degree n over the named base field."""

    def __init__(self, field, n, zeta, alpha, beta):
        self.field, self.n, self.zeta, self.alpha, self.beta = field, n, zeta, alpha, beta


def quaternion_algebra(field, alpha, beta) -> Algebra:
    return Algebra(field, 2, (Fraction(-1), Fraction(0)), alpha, beta)


QUAT_BASIS = ((0, 0), (1, 0), (0, 1), (1, 1))  # 1, e1, e2, e3


def quat_to_dict(coords) -> dict:
    return {key: c for key, c in zip(QUAT_BASIS, coords) if c != ZERO}


def sym_mul(alg: Algebra, u: dict, v: dict) -> dict:
    """Structure-constant product: (x^i y^j)(x^k y^l) = zeta^(jk)
    alpha^((i+k) div n) beta^((j+l) div n) x^((i+k) mod n) y^((j+l) mod n)."""
    f, n = alg.field, alg.n
    out: dict = {}
    for (i, j), c in u.items():
        for (k, l), d in v.items():
            term = fmul(f, c, d)
            for _ in range(j * k):
                term = fmul(f, term, alg.zeta)
            if i + k >= n:
                term = fmul(f, term, alg.alpha)
            if j + l >= n:
                term = fmul(f, term, alg.beta)
            key = ((i + k) % n, (j + l) % n)
            out[key] = fadd(out.get(key, ZERO), term)
    return {key: c for key, c in out.items() if c != ZERO}


def sym_pow(alg: Algebra, u: dict, k: int) -> dict:
    result = {(0, 0): ONE}
    base = u
    while k:
        if k & 1:
            result = sym_mul(alg, result, base)
        base = sym_mul(alg, base, base)
        k >>= 1
    return result


def quat_norm(alg: Algebra, q: dict):
    """q * conj(q), which is the scalar norm."""
    conj = {key: (c if key == (0, 0) else fneg(c)) for key, c in q.items()}
    product = sym_mul(alg, q, conj)
    if any(key != (0, 0) for key in product):
        raise ArithmeticError("q * conj(q) is not a scalar")
    return product.get((0, 0), ZERO)


def left_regular(alg: Algebra, u: dict) -> list:
    """Matrix of v -> u*v over the (i, j)-lexicographic basis."""
    n = alg.n
    keys = [(i, j) for i in range(n) for j in range(n)]
    columns = [sym_mul(alg, u, {key: ONE}) for key in keys]
    return [[col.get(row, ZERO) for col in columns] for row in keys]


def matvec(field, m, x):
    out = []
    for row in m:
        acc = ZERO
        for a, b in zip(row, x):
            acc = fadd(acc, fmul(field, a, b))
        out.append(acc)
    return out


def determinant(field, m):
    """Gaussian elimination on a copy."""
    m = [list(row) for row in m]
    size = len(m)
    det = ONE
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != ZERO), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = fneg(det)
        det = fmul(field, det, m[col][col])
        inv = finv(field, m[col][col])
        for r in range(col + 1, size):
            if m[r][col] != ZERO:
                factor = fmul(field, m[r][col], inv)
                m[r] = [fadd(a, fneg(fmul(field, factor, b))) for a, b in zip(m[r], m[col])]
    return det


def sign_rep_image(zeta, a_sign: int, b_sign: int, u: dict) -> list:
    """Image of u under x -> a_sign*diag(1, zeta, zeta^2), y -> b_sign*P
    (P the cyclic permutation with P[r][(r+1) mod 3] = 1), over Q(e):
    (X^i Y^j)[r][s] = a_sign^i b_sign^j zeta^(r*i) when s = r + j mod 3."""
    out = [[ZERO] * 3 for _ in range(3)]
    for (i, j), c in u.items():
        scaled = fmul("qeps", c, (Fraction(a_sign**i * b_sign**j), Fraction(0)))
        for r in range(3):
            term = scaled
            for _ in range(r * i):
                term = fmul("qeps", term, zeta)
            s = (r + j) % 3
            out[r][s] = fadd(out[r][s], term)
    return out


# ------------------------------------------------------------- text grammar

_ELEMENT_RE = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)\*w)?$")


def parse_text(text: str):
    """The documented "c0", "c0+c1*w", "c0-c1*w" grammar, as printed."""
    match = _ELEMENT_RE.match(text)
    if not match:
        raise ValueError(f"not an element: {text!r}")
    c0 = Fraction(match.group(1))
    c1 = Fraction(0)
    if match.group(2):
        c1 = Fraction(match.group(3)) * (1 if match.group(2) == "+" else -1)
    return (c0, c1)


def format_text(x) -> str:
    """Inverse of parse_text for command-line arguments."""
    c0, c1 = x
    if c1 == 0:
        return str(c0)
    return f"{c0}{'+' if c1 > 0 else '-'}{abs(c1)}*w"


def parse_grid(grid: dict) -> dict:
    """A JSON symbol element {"n": n, "coeffs": [[text, ...], ...]}."""
    out = {}
    for i, row in enumerate(grid["coeffs"]):
        for j, text in enumerate(row):
            c = parse_text(text)
            if c != ZERO:
                out[(i, j)] = c
    return out


# ---------------------------------------------------- Eisenstein integers

UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1))


def e_mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c - b * d)


def e_pow(x, k: int):
    result = (1, 0)
    for _ in range(k):
        result = e_mul(result, x)
    return result


def e_norm(x) -> int:
    a, b = x
    return a * a - a * b + b * b


def e_conj(x):
    a, b = x
    return (a - b, -b)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the first 12 prime bases are proven
    for n < 3.3 * 10^24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in bases:
        if n % q == 0:
            return n == q
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError("outside the proven range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks square root of a quadratic residue a mod odd prime p."""
    a %= p
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError("not a quadratic residue")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def norm_p_element(p: int):
    """Some (a, b) with a^2 - a*b + b^2 = p, for a prime p = 1 mod 3:
    Cornacchia gives x^2 + 3*y^2 = p, and (x + y, 2y) has norm p."""
    r = sqrt_mod(-3, p)
    a, b = p, r
    bound = math.isqrt(p)
    while b > bound:
        a, b = b, a % b
    x = b
    rest = p - x * x
    if rest % 3:
        raise ArithmeticError(f"Cornacchia failed for {p}")
    y = math.isqrt(rest // 3)
    if 3 * y * y != rest:
        raise ArithmeticError(f"Cornacchia failed for {p}")
    return (x + y, 2 * y)


def canonical_pi(p: int):
    """The prime above p > 3 that symbalg documents as canonical: p itself
    when p = 2 mod 3; otherwise, of the associates of both conjugate primes
    with a > 0 and 0 <= b < a, the lexicographically smallest."""
    if p % 3 == 2:
        return (p, 0)
    z = norm_p_element(p)
    window = [
        t
        for c in (z, e_conj(z))
        for t in (e_mul(c, unit) for unit in UNITS)
        if t[0] > 0 and 0 <= t[1] < t[0]
    ]
    return min(window)


def _fp2_mul(x, y, p):
    # F_p[t]/(t^2 + t + 1)
    a0, a1 = x
    b0, b1 = y
    return ((a0 * b0 - a1 * b1) % p, (a0 * b1 + a1 * b0 - a1 * b1) % p)


def _fp2_pow(x, k, p):
    result = (1, 0)
    while k:
        if k & 1:
            result = _fp2_mul(result, x, p)
        x = _fp2_mul(x, x, p)
        k >>= 1
    return result


def cubic_symbol(alpha, p: int, pi) -> int | None:
    """k with alpha^((N(pi) - 1)/3) = e^k mod pi by Euler's criterion in
    F_p (split p, where e = -a/b mod p for pi = a + b*e) or F_{p^2} (inert
    p); None when pi divides alpha."""
    if p % 3 == 1:
        a, b = pi
        eps = -a * pow(b, -1, p) % p
        x = (alpha[0] + alpha[1] * eps) % p
        if x == 0:
            return None
        value = pow(x, (p - 1) // 3, p)
        roots = [pow(eps, k, p) for k in range(3)]
    else:
        x = (alpha[0] % p, alpha[1] % p)
        if x == (0, 0):
            return None
        value = _fp2_pow(x, (p * p - 1) // 3, p)
        roots = [(1, 0), (0, 1), (p - 1, p - 1)]
    if value not in roots:
        raise ArithmeticError("character value is not a cube root of unity")
    return roots.index(value)


def local_report(alpha, m: int, p: int, pi) -> dict:
    """classify_report for beta = pi^m * unit: f from the cubic symbol,
    verdict split exactly when f | m."""
    k = cubic_symbol(alpha, p, pi)
    if k is None:
        raise ValueError("pi divides alpha")
    f = 1 if k == 0 else 3
    return {
        "verdict": "split" if m % f == 0 else "division",
        "f": f,
        "m": m,
        "artin_exponent": m % f,
        "efg": [1, f, 3 // f],
        "case": "general",
        "symbol": f"eps^{k}",
    }


def divmod_ok(x, pi, q, r) -> bool:
    """x = q*pi + r with N(r) < N(pi)."""
    qp = e_mul(q, pi)
    return (qp[0] + r[0], qp[1] + r[1]) == tuple(x) and e_norm(r) < e_norm(pi)

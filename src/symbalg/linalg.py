"""Dense exact linear algebra over Q and the quadratic fields of `fields`.

`determinant` and `solve` run Bareiss's fraction-free elimination (Bareiss,
Math. Comp. 22, 1968; Cohen, *A Course in Computational Algebraic Number
Theory*, Alg. 2.2.6) on integer pairs (a, b) standing for a + b*t: t is a
root of t^2 + u*t + w with ints u and w, so the pairs form the order Z[t],
an integral domain.  Each row is first multiplied by the lcm of its
denominators.  The divisions are exact in Z[t]: x/y is x*conj(y) over the
integer N(y), and a remainder raises ArithmeticError.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .base import pair_conj_norm, pair_mul
from .fields import FieldElement

Matrix = list[list[FieldElement]]


def _integral_rows(a: Matrix):
    """(rows, scale): the rows of a on the basis (1, t) times the lcm of their
    denominators, whose product is scale."""
    desc = a[0][0].desc
    rows, scale = [], 1
    for row in a:
        if any(e.desc != desc for e in row):
            raise ValueError("elements belong to different fields")
        m = math.lcm(*(e.c0.denominator for e in row), *(e.c1.denominator for e in row))
        rows.append([(e.c0.numerator * (m // e.c0.denominator),
                      e.c1.numerator * (m // e.c1.denominator)) for e in row])
        scale *= m
    return rows, scale


def _exact_quotient(x, conj_y, norm_y: int, u: int, w: int):
    """x/y in Z[t] from conj(y) and N(y); ArithmeticError if y does not divide x."""
    (q0, r0), (q1, r1) = (divmod(c, norm_y) for c in pair_mul(x, conj_y, u, w))
    if r0 or r1:
        raise ArithmeticError("inexact division in the order of the field")
    return q0, q1


def _eliminate(rows: list, n: int, u: int, w: int) -> int:
    """Bareiss forward elimination, in place, of the first n columns of
    integer-pair rows, with the first nonzero pivot of each column.  Returns
    the sign of the row permutation, or 0 when a column has no pivot; either
    way sign * rows[n-1][n-1] is then the determinant of those columns."""
    sign = 1
    conj, norm = (1, 0), 1  # of the previous pivot
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k] != (0, 0)), None)
        if p is None:
            return 0
        rows[k], rows[p] = rows[p], rows[k]
        sign = sign if p == k else -sign
        top = rows[k]
        a = top[k]
        for row in rows[k + 1:]:
            b = row[k]
            for j in range(k + 1, len(row)):
                # (a*c - b*d) / previous pivot, with a, b the column-k entries
                (x0, x1), (y0, y1) = pair_mul(a, row[j], u, w), pair_mul(b, top[j], u, w)
                row[j] = _exact_quotient((x0 - y0, x1 - y1), conj, norm, u, w)
        conj, norm = pair_conj_norm(a, u, w)
    return sign


def determinant(a: Matrix) -> FieldElement:
    desc = a[0][0].desc
    rows, scale = _integral_rows(a)
    sign = _eliminate(rows, len(rows), desc.u, desc.w)
    x0, x1 = rows[-1][-1]
    return FieldElement(desc, Fraction(sign * x0, scale), Fraction(sign * x1, scale))


def solve(a: Matrix, rhs: list[FieldElement]) -> list[FieldElement]:
    """Solution of a*x = rhs; exact, raises ValueError on a singular matrix.

    After elimination of [a | rhs] the last pivot p is the determinant up
    to sign, and back-substitution computes y = p*x, which Cramer's rule
    puts in Z[t]; each x = y*conj(p)/N(p) is one field division.
    """
    n, desc = len(a), a[0][0].desc
    u, w = desc.u, desc.w
    rows, _ = _integral_rows([row + [b] for row, b in zip(a, rhs)])
    if not _eliminate(rows, n, u, w):
        raise ValueError("singular matrix")
    p = rows[n - 1][n - 1]
    y = [None] * n
    for i in reversed(range(n)):
        acc0, acc1 = pair_mul(p, rows[i][n], u, w)
        for j in range(i + 1, n):
            t0, t1 = pair_mul(rows[i][j], y[j], u, w)
            acc0, acc1 = acc0 - t0, acc1 - t1
        y[i] = _exact_quotient((acc0, acc1), *pair_conj_norm(rows[i][i], u, w), u, w)
    conj, norm = pair_conj_norm(p, u, w)
    return [FieldElement(desc, Fraction(x0, norm), Fraction(x1, norm))
            for x0, x1 in (pair_mul(yi, conj, u, w) for yi in y)]

"""Dense exact linear algebra over field elements (Gaussian elimination)."""

from __future__ import annotations

from .fields import FieldDescriptor, FieldElement

Matrix = list[list[FieldElement]]


def identity(desc: FieldDescriptor, n: int) -> Matrix:
    return [[desc.one() if i == j else desc.zero() for j in range(n)] for i in range(n)]


def mat_scale(a: Matrix, c) -> Matrix:
    return [[x * c for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def solve(a: Matrix, rhs: list[FieldElement]) -> list[FieldElement]:
    """Solution of a*x = rhs by Gauss-Jordan elimination; exact, raises on
    a singular matrix."""
    n = len(a)
    m = [row[:] + [rhs[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if pivot is None:
            raise ValueError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col].inv()
        m[col] = [entry * inv for entry in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                factor = m[r][col]
                m[r] = [er - factor * ec for er, ec in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def determinant(a: Matrix) -> FieldElement:
    n = len(a)
    desc = a[0][0].desc
    m = [row[:] for row in a]
    det = desc.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if pivot is None:
            return desc.zero()
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inv()
        for r in range(col + 1, n):
            if not m[r][col].is_zero():
                factor = m[r][col] * inv
                m[r] = [er - factor * ec for er, ec in zip(m[r], m[col])]
    return det


def is_singular(a: Matrix) -> bool:
    return determinant(a).is_zero()

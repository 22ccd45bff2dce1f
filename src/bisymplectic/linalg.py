"""Small exact linear algebra kit.

Two families live here: Gauss-Jordan routines over ``Fraction`` (used by every
check that substitutes parameters first and stays rational), and
adjugate-based routines over symbolic expressions (used when a matrix carries
parameter entries and the inverse itself must stay symbolic, e.g. basis-change
matrices).  Dimensions in this package are tiny (<= 8 for the doubled
algebras), so Laplace expansion is perfectly adequate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .expr import Expression, Neg, Quotient, Rat, as_expr, product_of, sum_of

__all__ = [
    "SingularMatrixError",
    "frac_identity",
    "frac_det",
    "frac_inverse",
    "frac_solve",
    "expr_identity",
    "expr_matmul",
    "expr_mat_add",
    "expr_mat_sub",
    "expr_mat_scale",
    "expr_transpose",
    "expr_det",
    "expr_inverse",
    "expr_eval_matrix",
]


class SingularMatrixError(Exception):
    """Raised when an exact inverse or solve meets a singular matrix."""


FracMatrix = list[list[Fraction]]
ExprMatrix = list[list[Expression]]


# --------------------------------------------------------------------------
# Fraction routines
# --------------------------------------------------------------------------


def frac_identity(n: int) -> FracMatrix:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def _elim(a: FracMatrix, rhs: FracMatrix) -> FracMatrix:
    """Row-reduce [a | rhs] in place and return the transformed rhs."""
    n = len(a)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular in exact arithmetic")
        a[col], a[pivot] = a[pivot], a[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        rhs[col] = [v * inv for v in rhs[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
                rhs[r] = [v - factor * w for v, w in zip(rhs[r], rhs[col])]
    return rhs


def frac_inverse(m: Sequence[Sequence[Fraction]]) -> FracMatrix:
    a = [[Fraction(v) for v in row] for row in m]
    return _elim(a, frac_identity(len(a)))


def frac_solve(m: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> list[Fraction]:
    a = [[Fraction(v) for v in row] for row in m]
    rhs = [[Fraction(v)] for v in b]
    return [row[0] for row in _elim(a, rhs)]


def frac_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    a = [[Fraction(v) for v in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return det


# --------------------------------------------------------------------------
# symbolic routines
# --------------------------------------------------------------------------


def _is_zero(e: Expression) -> bool:
    return isinstance(e, Rat) and e.value == 0


def expr_identity(n: int) -> ExprMatrix:
    return [[Rat(1) if i == j else Rat(0) for j in range(n)] for i in range(n)]


def expr_matmul(a: ExprMatrix, b: ExprMatrix) -> ExprMatrix:
    n, k, m = len(a), len(b), len(b[0])
    out: ExprMatrix = []
    for i in range(n):
        row = []
        for j in range(m):
            terms = [
                product_of([a[i][t], b[t][j]])
                for t in range(k)
                if not (_is_zero(a[i][t]) or _is_zero(b[t][j]))
            ]
            row.append(sum_of(terms))
        out.append(row)
    return out


def expr_mat_add(a: ExprMatrix, b: ExprMatrix) -> ExprMatrix:
    return [[sum_of([x, y]) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _sub_entry(x: Expression, y: Expression) -> Expression:
    if _is_zero(y):
        return x
    if _is_zero(x):
        return Neg(y)
    return sum_of([x, Neg(y)])


def expr_mat_sub(a: ExprMatrix, b: ExprMatrix) -> ExprMatrix:
    return [[_sub_entry(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def expr_mat_scale(c, a: ExprMatrix) -> ExprMatrix:
    c = as_expr(c)
    return [[Rat(0) if _is_zero(v) else product_of([c, v]) for v in row] for row in a]


def expr_transpose(a: ExprMatrix) -> ExprMatrix:
    return [list(col) for col in zip(*a)]


def expr_det(m: ExprMatrix) -> Expression:
    """Laplace expansion along the first row, pruning structural zeros."""
    n = len(m)
    if n == 1:
        return m[0][0]
    terms = []
    for j in range(n):
        entry = m[0][j]
        if _is_zero(entry):
            continue
        minor = [[m[r][c] for c in range(n) if c != j] for r in range(1, n)]
        sub = expr_det(minor)
        if _is_zero(sub):
            continue
        term = product_of([entry, sub])
        terms.append(term if j % 2 == 0 else Neg(term))
    return sum_of(terms)


def expr_inverse(m: ExprMatrix) -> ExprMatrix:
    """Adjugate inverse; entries come out as cofactor/determinant quotients.

    Total on any structurally nonsingular input; a matrix whose determinant
    is the literal zero expression is rejected outright, while one that is
    merely singular at specific parameter values surfaces later as a guarded
    division during evaluation.
    """
    n = len(m)
    det = expr_det(m)
    if _is_zero(det):
        raise SingularMatrixError("determinant is structurally zero")
    out: ExprMatrix = [[Rat(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = expr_det(minor) if n > 1 else Rat(1)
            if _is_zero(cof):
                continue
            if (i + j) % 2 == 1:
                cof = Neg(cof)
            # adjugate transposes the cofactor grid
            out[j][i] = Quotient(cof, det)
    return out


def expr_eval_matrix(m: ExprMatrix, env) -> FracMatrix:
    from .expr import evaluate

    return [[evaluate(v, env) for v in row] for row in m]

"""Independent exact contractions used to check the program's verdicts.

Every function here takes evaluated data (nested lists of Fractions) and runs
plain dense loops, written apart from ``bisymplectic.liealg``,
``bisymplectic.rmatrix`` and ``bisymplectic.symplectic``.  Tensor layouts
follow the catalog's storage convention: ``t[i][j][k]`` is the bracket
coefficient of ``[X_i, X_j]`` on ``X_k``; an r-matrix or a two-form is a
square grid; a representation is a list of square grids.

The residuals whose loops are five deep (Jacobi of a double) are contracted
over integers after clearing one common denominator, which keeps them exact
and makes the 12-dimensional double of the benchmark's direct sum cheap
enough to compute once per run.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _common_denominator(values) -> int:
    den = 1
    for v in values:
        den = lcm(den, Fraction(v).denominator)
    return den


def _flat3(t):
    return [x for plane in t for row in plane for x in row]


def antisymmetry_max(t) -> Fraction:
    """max |t[i][j][k] + t[j][i][k]|."""
    d = len(t)
    return max((abs(Fraction(t[i][j][k] + t[j][i][k]))
                for i in range(d) for j in range(d) for k in range(d)), default=Fraction(0))


def jacobi_max(t) -> Fraction:
    """max over (i, j, k, m) of |sum_l t_ij^l t_lk^m + t_jk^l t_li^m + t_ki^l t_lj^m|."""
    d = len(t)
    den = _common_denominator(_flat3(t))
    s = [[[int(t[i][j][k] * den) for k in range(d)] for j in range(d)] for i in range(d)]
    worst = 0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for m in range(d):
                    acc = 0
                    for l in range(d):
                        acc += s[i][j][l] * s[l][k][m] + s[j][k][l] * s[l][i][m] + s[k][i][l] * s[l][j][m]
                    if abs(acc) > worst:
                        worst = abs(acc)
    return Fraction(worst, den * den)


def double_table(f, ft):
    """Bracket table of the double g + g* on (X_1..X_d, Xt^1..Xt^d).

    [X_i, X_j] = f_ij^k X_k, [Xt^i, Xt^j] = ft^ij_k Xt^k and the mixed bracket
    [X_i, Xt^j] = ft^jk_i X_k + f_ki^j Xt^k, extended by antisymmetry.
    """
    d = len(f)
    n = 2 * d
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[i][j][k] = Fraction(f[i][j][k])
                out[d + i][d + j][d + k] = Fraction(ft[i][j][k])
                out[i][d + j][k] = Fraction(ft[j][k][i])
                out[d + j][i][k] = -Fraction(ft[j][k][i])
                out[i][d + j][d + k] = Fraction(f[k][i][j])
                out[d + j][i][d + k] = -Fraction(f[k][i][j])
    return out


def ad_invariance_max(double) -> Fraction:
    """max |<[a, b], c> + <b, [a, c]>| for the canonical pairing X_i . Xt^i = 1."""
    n = len(double)
    d = n // 2

    def partner(e: int) -> int:
        return e + d if e < d else e - d

    worst = Fraction(0)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                r = abs(double[a][b][partner(c)] + double[a][c][partner(b)])
                if r > worst:
                    worst = r
    return worst


def manin_max(f, ft) -> tuple[Fraction, Fraction]:
    """(double Jacobi residual, pairing invariance residual) of the pair."""
    dbl = double_table(f, ft)
    return jacobi_max(dbl), ad_invariance_max(dbl)


def cybe_max(r, f) -> Fraction:
    """max over (m, j, l) of |sum_ik r^ij r^kl f_ik^m + r^mi r^kl f_ik^j + r^mi r^jk f_ik^l|."""
    d = len(r)
    worst = Fraction(0)
    for m in range(d):
        for j in range(d):
            for l in range(d):
                acc = Fraction(0)
                for i in range(d):
                    for k in range(d):
                        acc += (r[i][j] * r[k][l] * f[i][k][m] + r[m][i] * r[k][l] * f[i][k][j]
                                + r[m][i] * r[j][k] * f[i][k][l])
                worst = max(worst, abs(acc))
    return worst


def closure_max(w, f) -> Fraction:
    """Cyclic closure residual sum_l f_ij^l w_lk + f_ik^l w_lj + f_jk^l w_li, i < j < k."""
    d = len(w)
    worst = Fraction(0)
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = sum((f[i][j][l] * w[l][k] + f[i][k][l] * w[l][j] + f[j][k][l] * w[l][i]
                           for l in range(d)), Fraction(0))
                worst = max(worst, abs(acc))
    return worst


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def representation_max(mats, f) -> Fraction:
    """max |[rho_i, rho_j] - f_ij^k rho_k| entrywise."""
    d = len(mats)
    m = len(mats[0])
    worst = Fraction(0)
    for i in range(d):
        for j in range(d):
            ij = matmul(mats[i], mats[j])
            ji = matmul(mats[j], mats[i])
            for a in range(m):
                for b in range(m):
                    acc = ij[a][b] - ji[a][b] - sum((f[i][j][k] * mats[k][a][b] for k in range(d)),
                                                    Fraction(0))
                    worst = max(worst, abs(acc))
    return worst


def det(m) -> Fraction:
    """Exact determinant by fraction-valued elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return out


def inverse(m):
    """Exact inverse by Gauss-Jordan elimination; raises ZeroDivisionError if singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """A basis of {x : rows . x = 0} over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for i, col in enumerate(pivots):
            x[col] = -a[i][free]
        basis.append(x)
    return basis


def closure_rows(f):
    """The cyclic closure residual as linear equations in the upper entries
    w_ab (a < b) of a skew form; columns follow that (a, b) order."""
    d = len(f)
    cols = [(a, b) for a in range(d) for b in range(a + 1, d)]
    index = {ab: n for n, ab in enumerate(cols)}

    def add(row, l, k, coef):
        if l == k or not coef:
            return
        if l < k:
            row[index[(l, k)]] += coef
        else:
            row[index[(k, l)]] -= coef

    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                row = [Fraction(0)] * len(cols)
                for l in range(d):
                    add(row, l, k, f[i][j][l])
                    add(row, l, j, f[i][k][l])
                    add(row, l, i, f[j][k][l])
                rows.append(row)
    return rows, cols

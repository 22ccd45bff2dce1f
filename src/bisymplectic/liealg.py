"""Structure constants, bialgebra pairs, doubles, and exact identity checks.

Everything in this module is exact: tensors hold parameter-only expressions,
checks substitute rational parameter values and then work in exact rational
arithmetic, so a passing check means the identity holds identically at that
sample, not merely within a tolerance.

Contractions run in integers over the nonzero entries of tables put over one
common denominator per sample (:func:`_scaled_nonzeros`, which reads a
constant entry's value without an evaluation walk); :func:`_exact_report`
keeps the witness and ``max_abs`` a dense ``Fraction`` scan would find.
:func:`check_jacobi` accumulates the product tensor
``P[p, q, r, m] = sum_l t_pq^l t_lr^m``, one product and one add per pair of
nonzero entries.  The cyclic sum ``P(i, j, k) + P(j, k, i) + P(k, i, j)`` is
the same on the whole rotation orbit of ``(i, j, k)``, so each orbit is
summed once and written back over ``P`` in place: the residuals take no
more memory than ``P``.  A check walks its inputs for their parameters
only when the caller gives no samples.

Index conventions.  A bracket table ``[X_i, X_j] = f_ij^k X_k`` is stored as
``entries[i][j][k]``.  The dual algebra's table ``[Xt^i, Xt^j] = ft^ij_k Xt^k``
uses the same storage layout with the first two slots read as superscripts;
the ``variance`` tag records which reading applies, the shape never changes.

The double of a bialgebra pair glues the two:
``[X_i, Xt^j] = ft^jk_i X_k + f_ki^j Xt^k`` with the canonical pairing
``<X_i, Xt^j> = delta_i^j``.  Jacobi for the double is exactly the cocycle
compatibility condition between ``f`` and ``ft``, which is why
:func:`verify_manin_triple` is the certification point for a candidate pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .expr import (
    Expression,
    Neg,
    Rat,
    Symbol,
    _is_zero,
    as_expr,
    evaluate,
    free_symbols,
    product_of,
    sample_parameters,
    sum_of,
)
from .linalg import (
    ExprMatrix,
    expr_eval_matrix,
    expr_inverse,
    frac_det,
)

__all__ = [
    "ExactReport",
    "StructureConstants",
    "LieBialgebra",
    "IsomorphismMatrix",
    "MatrixRep",
    "parameter_symbols",
    "default_assignments",
    "check_antisymmetry",
    "check_jacobi",
    "build_double",
    "verify_manin_triple",
    "ManinReport",
    "cobracket_from_r",
    "apply_isomorphism",
    "check_representation",
]


@dataclass
class ExactReport:
    """Outcome of an exact (Fraction) identity check over parameter samples."""

    ok: bool
    max_abs: Fraction
    witness: tuple | None  # (index tuple, assignment) for the worst violation
    samples: int

    def __bool__(self) -> bool:
        return self.ok


def _zeros(dim: int, rank: int):
    if rank == 1:
        return [Rat(0) for _ in range(dim)]
    return [_zeros(dim, rank - 1) for _ in range(dim)]


@dataclass(frozen=True)
class StructureConstants:
    """Rank-3 tensor of parameter-only expressions with a variance tag."""

    dim: int
    entries: tuple  # entries[i][j][k] -> Expression
    variance: str = "lower"  # "lower": f_ij^k ; "upper": dual table ft^ij_k

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int, int], object] | Sequence[tuple[int, int, int, object]],
        variance: str = "lower",
    ) -> "StructureConstants":
        """Build from the upper-triangle table; antisymmetry is filled in.

        Keys are zero-based ``(i, j, k)`` with ``i < j``; values are numbers
        or expressions.  Each key may appear once.
        """
        items = brackets.items() if isinstance(brackets, Mapping) else [(t[:3], t[3]) for t in brackets]
        grid = _zeros(dim, 3)
        seen = set()
        for (i, j, k), value in items:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"bracket index {(i, j, k)} out of range for dim {dim}")
            if i >= j:
                raise ValueError(f"bracket key {(i, j, k)} must have i < j; lower triangle is implied")
            if (i, j, k) in seen:
                raise ValueError(f"duplicate bracket key {(i, j, k)}")
            seen.add((i, j, k))
            e = as_expr(value if not isinstance(value, float) else Fraction(value))
            grid[i][j][k] = e
            grid[j][i][k] = Neg(e)
        return cls(dim, tuple(tuple(tuple(row) for row in plane) for plane in grid), variance)

    def entry(self, i: int, j: int, k: int) -> Expression:
        return self.entries[i][j][k]

    def evaluated(self, assignment: Mapping) -> list:
        """Exact Fraction tensor at one parameter assignment."""
        return [
            [[Fraction(evaluate(self.entries[i][j][k], assignment)) for k in range(self.dim)] for j in range(self.dim)]
            for i in range(self.dim)
        ]

    def parameters(self) -> tuple[Symbol, ...]:
        return parameter_symbols(
            e for plane in self.entries for row in plane for e in row
        )


def parameter_symbols(exprs) -> tuple[Symbol, ...]:
    """All free symbols of the given expressions, sorted by name.

    Structure tensors and basis-change matrices are parameter-only by
    contract, so every free symbol found here is treated as a parameter.
    """
    names: dict[str, Symbol] = {}
    for e in exprs:
        for s in free_symbols(e):
            names[s.name] = s
    return tuple(names[n] for n in sorted(names))


def default_assignments(params: Sequence[Symbol], count: int = 5, seed: int = 0) -> list[dict[str, Fraction]]:
    """Deterministic parameter samples; a single empty assignment if no params."""
    if not params:
        return [{}]
    return sample_parameters(params, count, seed)


def _assignments_for(assignments, params: Callable[[], tuple[Symbol, ...]]) -> list[dict[str, Fraction]]:
    """The given samples, or the default samples of ``params()``; the
    parameters are walked only when no samples are given."""
    if assignments is not None:
        return list(assignments)
    return default_assignments(params())


def _scaled_nonzeros(grid, env) -> tuple[int, list]:
    """Evaluate a table at one sample as ``(scale, rows)``, ``scale`` being the
    common denominator: ``rows`` nests like ``grid``, each innermost row cut to
    the ``(index, numerator)`` pairs of its nonzero entries (``numerator / scale``)."""
    leaves = []

    def walk(node):
        if not isinstance(node[0], Expression):
            return [walk(sub) for sub in node]
        # a constant leaf (most of a table) is read without an evaluation walk
        values = (e.value if isinstance(e, Rat) else Fraction(evaluate(e, env)) for e in node)
        leaves.append([(k, v) for k, v in enumerate(values) if v])
        return leaves[-1]

    rows = walk(grid)
    scale = math.lcm(*(v.denominator for row in leaves for _, v in row))
    for row in leaves:
        row[:] = [(k, v.numerator * (scale // v.denominator)) for k, v in row]
    return scale, rows


def _exact_report(plans, samples, shape: tuple[int, ...]) -> ExactReport:
    """Worst residual over the samples.  ``samples`` yields ``(scale, acc)``
    per assignment, ``acc`` holding integer residuals worth ``acc[p] / scale``
    on a flat row-major grid of ``shape``.  Ties go to the earlier sample,
    then the lower index, as in a dense scan with strict ``>``."""
    worst = Fraction(0)
    witness = None
    for env, (scale, acc) in zip(plans, samples):
        best = max(map(abs, acc), default=0)
        if best and Fraction(best, scale) > worst:
            worst = Fraction(best, scale)
            pos = next(p for p, v in enumerate(acc) if abs(v) == best)
            index = tuple(pos // math.prod(shape[a + 1:]) % n for a, n in enumerate(shape))
            witness = (index, dict(env))
    return ExactReport(worst == 0, worst, witness, len(plans))


def check_antisymmetry(f: StructureConstants, assignments=None) -> ExactReport:
    """f[i][j][k] + f[j][i][k] must vanish exactly at every sample."""
    plans = _assignments_for(assignments, f.parameters)
    d = f.dim

    def sample(env):
        scale, t = _scaled_nonzeros(f.entries, env)
        acc = [0] * d ** 3
        for i in range(d):
            for j in range(d):
                for k, v in t[i][j]:
                    acc[(i * d + j) * d + k] += v
                    acc[(j * d + i) * d + k] += v
        return scale, acc

    return _exact_report(plans, map(sample, plans), (d, d, d))


def check_jacobi(f: StructureConstants, assignments=None) -> ExactReport:
    """Cyclic Jacobi sum, contracted exactly at every parameter sample."""
    plans = _assignments_for(assignments, f.parameters)
    d = f.dim

    def sample(env):
        scale, t = _scaled_nonzeros(f.entries, env)
        # P[p, q, r, m] = sum_l t_pq^l t_lr^m, one product and one add per term
        acc = [0] * d ** 4
        for p in range(d):
            for q in range(d):
                base = (p * d + q) * d
                for l, x in t[p][q]:
                    tl = t[l]
                    for r in range(d):
                        o = (base + r) * d
                        for m, y in tl[r]:
                            acc[o + m] += x * y
        # the cyclic sum at (i, j, k) is P(i, j, k) + P(j, k, i) + P(k, i, j),
        # the same on the whole rotation orbit: sum each orbit once, from its
        # least rotation (i the smallest index, (i, i, k) before (i, k, i)),
        # and write it back over all its members
        for i in range(d):
            a = ((i * d + i) * d + i) * d
            acc[a:a + d] = [3 * x for x in acc[a:a + d]]
            for j in range(i, d):
                for k in range(i + 1, d):
                    a = ((i * d + j) * d + k) * d
                    b = ((j * d + k) * d + i) * d
                    c = ((k * d + i) * d + j) * d
                    acc[a:a + d] = acc[b:b + d] = acc[c:c + d] = [
                        x + y + z for x, y, z in zip(acc[a:a + d], acc[b:b + d], acc[c:c + d])]
        return scale * scale, acc

    return _exact_report(plans, map(sample, plans), (d, d, d, d))


@dataclass(frozen=True)
class LieBialgebra:
    """A bracket table and a dual-side table of the same dimension."""

    g: StructureConstants
    gdual: StructureConstants

    def __post_init__(self) -> None:
        if self.g.dim != self.gdual.dim:
            raise ValueError("bialgebra sides must share a dimension")

    @property
    def dim(self) -> int:
        return self.g.dim

    def parameters(self) -> tuple[Symbol, ...]:
        return parameter_symbols(
            e
            for sc in (self.g, self.gdual)
            for plane in sc.entries
            for row in plane
            for e in row
        )


def build_double(bialg: LieBialgebra, mixed_sign: int = 1) -> StructureConstants:
    """Bracket table of the double on the basis (X_1..X_d, Xt^1..Xt^d).

    ``mixed_sign`` exists purely as a diagnostic: -1 flips the sign of the
    mixed bracket so tests can demonstrate that the flipped convention breaks
    Jacobi.  Verification paths always use +1.
    """
    if mixed_sign not in (1, -1):
        raise ValueError("mixed_sign must be +1 or -1")
    d = bialg.dim
    f, ft = bialg.g.entries, bialg.gdual.entries
    grid = _zeros(2 * d, 3)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                grid[i][j][k] = f[i][j][k]
                grid[d + i][d + j][d + k] = ft[i][j][k]
    sgn = (lambda e: e) if mixed_sign == 1 else Neg
    for i in range(d):
        for j in range(d):
            # [X_i, Xt^j] = ft^jk_i X_k + f_ki^j Xt^k
            for k in range(d):
                a = ft[j][k][i]
                b = f[k][i][j]
                if not (isinstance(a, Rat) and a.value == 0):
                    grid[i][d + j][k] = sgn(a)
                    grid[d + j][i][k] = Neg(sgn(a))
                if not (isinstance(b, Rat) and b.value == 0):
                    grid[i][d + j][d + k] = sgn(b)
                    grid[d + j][i][d + k] = Neg(sgn(b))
    return StructureConstants(2 * d, tuple(tuple(tuple(row) for row in plane) for plane in grid), "lower")


@dataclass
class ManinReport:
    """verify_manin_triple outcome: double Jacobi plus pairing invariance."""

    jacobi: ExactReport
    ad_invariance: ExactReport

    @property
    def ok(self) -> bool:
        return self.jacobi.ok and self.ad_invariance.ok

    def __bool__(self) -> bool:
        return self.ok


def verify_manin_triple(bialg: LieBialgebra, assignments=None) -> ManinReport:
    """Certify the pair: the double satisfies Jacobi and the canonical
    pairing (isotropic on each side by construction) is ad-invariant."""
    plans = _assignments_for(assignments, bialg.parameters)
    double = build_double(bialg)
    jac = check_jacobi(double, plans)

    d = bialg.dim
    n = 2 * d

    def sample(env):
        # the pairing matches e with e + d (mod n): residual (a, b, c) is
        # t_ab^(c+d) + t_ac^(b+d), so t_ax^e enters at (a, x, e+d) and (a, e+d, x)
        scale, t = _scaled_nonzeros(double.entries, env)
        acc = [0] * n ** 3
        for a in range(n):
            for x in range(n):
                for e, v in t[a][x]:
                    acc[(a * n + x) * n + (e + d) % n] += v
                    acc[(a * n + (e + d) % n) * n + x] += v
        return scale, acc

    adinv = _exact_report(plans, map(sample, plans), (n, n, n))
    return ManinReport(jac, adinv)


def cobracket_from_r(r, f: StructureConstants) -> StructureConstants:
    """Coefficients of the coboundary cobracket generated by an r-matrix.

    For each basis element the cobracket is the bracket of ``1 (x) X + X (x) 1``
    with ``r``; expanding on the tensor basis gives the candidate dual table
    ``cand^jk_i = sum_a r^ak f_ia^j + sum_b r^jb f_ib^k`` returned here with
    the dual variance tag.  Tests confirm the contraction against a direct
    tensor-product expansion.
    """
    entries = getattr(r, "entries", r)
    d = f.dim
    grid = _zeros(d, 3)
    fz = f.entries

    for i in range(d):
        for j in range(d):
            for k in range(d):
                terms = []
                for a in range(d):
                    if not (_is_zero(entries[a][k]) or _is_zero(fz[i][a][j])):
                        terms.append(product_of([entries[a][k], fz[i][a][j]]))
                for b in range(d):
                    if not (_is_zero(entries[j][b]) or _is_zero(fz[i][b][k])):
                        terms.append(product_of([entries[j][b], fz[i][b][k]]))
                grid[j][k][i] = sum_of(terms)
    return StructureConstants(d, tuple(tuple(tuple(row) for row in plane) for plane in grid), "upper")


@dataclass(frozen=True)
class IsomorphismMatrix:
    """Exact basis-change matrix; entries are parameter-only expressions."""

    dim: int
    entries: tuple  # entries[i][j] -> Expression
    _inv: list = field(default_factory=list, compare=False, repr=False)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]]) -> "IsomorphismMatrix":
        dim = len(rows)
        ent = tuple(
            tuple(as_expr(v if not isinstance(v, float) else Fraction(v)) for v in row) for row in rows
        )
        if any(len(r) != dim for r in ent):
            raise ValueError("basis-change matrix must be square")
        return cls(dim, ent)

    def matrix(self) -> ExprMatrix:
        return [list(row) for row in self.entries]

    def inverse(self) -> ExprMatrix:
        """Symbolic adjugate inverse, cached."""
        if not self._inv:
            self._inv.append(expr_inverse(self.matrix()))
        return self._inv[0]

    def parameters(self) -> tuple[Symbol, ...]:
        return parameter_symbols(e for row in self.entries for e in row)

    def check_invertible(self, assignments=None) -> ExactReport:
        """Exact determinant must be nonzero at every parameter sample."""
        plans = _assignments_for(assignments, self.parameters)
        smallest = None
        witness = None
        for env in plans:
            det = frac_det(expr_eval_matrix(self.matrix(), env))
            if smallest is None or abs(det) < smallest:
                smallest = abs(det)
            if det == 0 and witness is None:
                witness = ((), dict(env))
        ok = witness is None
        return ExactReport(ok, smallest if smallest is not None else Fraction(0), witness, len(plans))


def apply_isomorphism(C: IsomorphismMatrix, f: StructureConstants) -> StructureConstants:
    """Transport a bracket table to the dual-variance table through C:
    out^ij_k = C^il C^jm f_lm^s (C^-1)_sk, built symbolically."""
    d = f.dim
    if C.dim != d:
        raise ValueError("dimension mismatch between matrix and tensor")
    Cm = C.entries
    Ci = C.inverse()
    fz = f.entries

    grid = _zeros(d, 3)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                terms = []
                for l in range(d):
                    if _is_zero(Cm[i][l]):
                        continue
                    for m in range(d):
                        if _is_zero(Cm[j][m]):
                            continue
                        for s in range(d):
                            if _is_zero(fz[l][m][s]) or _is_zero(Ci[s][k]):
                                continue
                            terms.append(product_of([Cm[i][l], Cm[j][m], fz[l][m][s], Ci[s][k]]))
                grid[i][j][k] = sum_of(terms)
    return StructureConstants(d, tuple(tuple(tuple(row) for row in plane) for plane in grid), "upper")


@dataclass(frozen=True)
class MatrixRep:
    """Matrices rho_1..rho_d acting on an m-dimensional space."""

    dim: int
    size: int
    matrices: tuple  # matrices[i] -> m x m grid of Expressions

    @classmethod
    def from_rows(cls, matrices: Sequence[Sequence[Sequence[object]]]) -> "MatrixRep":
        dim = len(matrices)
        size = len(matrices[0])
        mats = tuple(
            tuple(tuple(as_expr(v if not isinstance(v, float) else Fraction(v)) for v in row) for row in mat)
            for mat in matrices
        )
        for mat in mats:
            if len(mat) != size or any(len(r) != size for r in mat):
                raise ValueError("representation matrices must share a square shape")
        return cls(dim, size, mats)

    def parameters(self) -> tuple[Symbol, ...]:
        return parameter_symbols(e for mat in self.matrices for row in mat for e in row)


def check_representation(rep: MatrixRep, f: StructureConstants, assignments=None) -> ExactReport:
    """[rho_i, rho_j] - f_ij^k rho_k must vanish entrywise, exactly."""
    if rep.dim != f.dim:
        raise ValueError("representation and tensor dimensions differ")
    plans = _assignments_for(assignments, lambda: parameter_symbols(
        [e for mat in rep.matrices for row in mat for e in row]
        + [e for plane in f.entries for row in plane for e in row]
    ))
    d, m = rep.dim, rep.size

    def sample(env):
        # [rho_i, rho_j] carries scale rs^2 and f_ij^k rho_k carries ts*rs:
        # both are brought to ts*rs^2
        ts, t = _scaled_nonzeros(f.entries, env)
        rs, rho = _scaled_nonzeros(rep.matrices, env)
        acc = [0] * (d * d * m * m)
        for i in range(d):
            for a in range(m):
                for c, x in rho[i][a]:
                    tx = ts * x
                    for j in range(d):
                        ij, ji = ((i * d + j) * m + a) * m, ((j * d + i) * m + a) * m
                        for b, y in rho[j][c]:
                            v = tx * y
                            acc[ij + b] += v
                            acc[ji + b] -= v
            for j in range(d):
                for k, c in t[i][j]:
                    rc = rs * c
                    for a in range(m):
                        ij = ((i * d + j) * m + a) * m
                        for b, y in rho[k][a]:
                            acc[ij + b] -= rc * y
        return ts * rs * rs, acc

    return _exact_report(plans, map(sample, plans), (d, d, m, m))

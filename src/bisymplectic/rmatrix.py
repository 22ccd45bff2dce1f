"""Classical r-matrices: storage, the Yang-Baxter residual, basis transport.

An r-matrix lives on one side of a bialgebra pair; the ``variance`` tag says
which ("upper" for r^ij on the bracket side, "lower" for the dual-side
r_ij).  Wedge input follows X ^ Y = X (x) Y - Y (x) X, so a listed wedge
coefficient lands in the (i, j) slot and its negative in (j, i).

The Yang-Baxter residual is contracted exactly per parameter sample, in
integers over the nonzero entries (see ``liealg``):

    R_mjl = r^ij r^kl f_ik^m + r^mi r^kl f_ik^j + r^mi r^jk f_ik^l

summed over i, k.  A solution makes every component vanish identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .expr import Expression, Neg, Rat, Symbol, _is_zero, as_expr, evaluate, product_of, sum_of
from .liealg import (ExactReport, StructureConstants, _assignments_for, _exact_report,
                     _scaled_nonzeros, parameter_symbols)
from .linalg import ExprMatrix

__all__ = ["RMatrix", "cybe_residual", "transform_r"]


@dataclass(frozen=True)
class RMatrix:
    """Skew matrix of parameter-only expressions with a variance tag."""

    dim: int
    entries: tuple  # entries[i][j] -> Expression
    variance: str = "upper"

    @classmethod
    def from_wedge(
        cls,
        dim: int,
        terms: Mapping[tuple[int, int], object] | Sequence[tuple[int, int, object]],
        variance: str = "upper",
    ) -> "RMatrix":
        """Build from wedge terms {(i, j): c} meaning c * X_i ^ X_j, i < j."""
        items = terms.items() if isinstance(terms, Mapping) else [(t[:2], t[2]) for t in terms]
        grid = [[Rat(0)] * dim for _ in range(dim)]
        seen = set()
        for (i, j), c in items:
            if not (0 <= i < j < dim):
                raise ValueError(f"wedge key {(i, j)} must satisfy 0 <= i < j < dim")
            if (i, j) in seen:
                raise ValueError(f"duplicate wedge key {(i, j)}")
            seen.add((i, j))
            e = as_expr(c if not isinstance(c, float) else Fraction(c))
            grid[i][j] = e
            grid[j][i] = Neg(e)
        return cls(dim, tuple(tuple(row) for row in grid), variance)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]], variance: str = "upper") -> "RMatrix":
        ent = tuple(tuple(as_expr(v) for v in row) for row in rows)
        if any(len(r) != len(ent) for r in ent):
            raise ValueError("r-matrix rows must form a square grid")
        return cls(len(ent), ent, variance)

    def entry(self, i: int, j: int) -> Expression:
        return self.entries[i][j]

    def matrix(self) -> ExprMatrix:
        return [list(row) for row in self.entries]

    def evaluated(self, assignment: Mapping) -> list[list[Fraction]]:
        return [
            [Fraction(evaluate(self.entries[i][j], assignment)) for j in range(self.dim)]
            for i in range(self.dim)
        ]

    def parameters(self) -> tuple[Symbol, ...]:
        return parameter_symbols(e for row in self.entries for e in row)


def cybe_residual(r: RMatrix, f: StructureConstants, assignments=None) -> ExactReport:
    """Exact Yang-Baxter residual of r against the bracket table f.

    The contraction reads the stored layouts directly, so it applies equally
    to an upper-variance r on the bracket side and to a lower-variance r
    paired with a dual table; the index pattern is identical in storage.
    """
    if r.dim != f.dim:
        raise ValueError("r-matrix and tensor dimensions differ")
    plans = _assignments_for(assignments, lambda: parameter_symbols(
        [e for row in r.entries for e in row]
        + [e for plane in f.entries for row in plane for e in row]
    ))
    d = r.dim

    def sample(env):
        rs, rows = _scaled_nonzeros(r.entries, env)
        _, cols = _scaled_nonzeros(tuple(zip(*r.entries)), env)  # cols[j]: (i, r^ij) pairs
        fs, ft = _scaled_nonzeros(f.entries, env)
        acc = [0] * d ** 3
        for i in range(d):
            for k in range(d):
                for n, c in ft[i][k]:
                    # f_ik^n is the f factor of the first term at (m, j, l) = (n, j, l),
                    # of the second at (m, n, l) and of the third at (m, j, n)
                    for j, x in rows[i]:
                        for l, y in rows[k]:
                            acc[(n * d + j) * d + l] += x * y * c
                    for m, x in cols[i]:
                        for l, y in rows[k]:
                            acc[(m * d + n) * d + l] += x * y * c
                        for j, y in cols[k]:
                            acc[(m * d + j) * d + n] += x * y * c
        return rs * rs * fs, acc

    return _exact_report(plans, map(sample, plans), (d, d, d))


def transform_r(Cinv: ExprMatrix, r: RMatrix, variance: str = "lower") -> RMatrix:
    """Transport r through a basis change: out_ij = (C^-1)_ki r^kl (C^-1)_lj.

    The caller passes the inverse matrix (symbolic entries are fine); passing
    the forward matrix instead performs the reverse transport, which is how
    the exchange layer recovers the bracket-side r from a dual-side one.
    """
    d = r.dim
    if len(Cinv) != d:
        raise ValueError("matrix and r-matrix dimensions differ")

    grid = []
    for i in range(d):
        row = []
        for j in range(d):
            terms = []
            for k in range(d):
                if _is_zero(Cinv[k][i]):
                    continue
                for l in range(d):
                    if _is_zero(r.entries[k][l]) or _is_zero(Cinv[l][j]):
                        continue
                    terms.append(product_of([Cinv[k][i], r.entries[k][l], Cinv[l][j]]))
            row.append(sum_of(terms))
        grid.append(tuple(row))
    return RMatrix(d, tuple(grid), variance)

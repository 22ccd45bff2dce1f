"""Symplectic forms on Lie algebras and Poisson structures on their groups.

Two levels live here.  At the algebra level a skew matrix ``omega_ij`` is
checked for closure against a bracket table and inverted into a constant
Poisson matrix.  At the group level a :class:`PoissonField` holds coordinate
dependent entries ``P^ij(x)``, on which brackets of functions and the
field-level Jacobi residual are evaluated.

Closure has two sign conventions in circulation: the cyclic all-plus form

    f_ij^l w_lk + f_ik^l w_lj + f_jk^l w_li = 0

is normative here; the alternating three-form variant

    -f_ij^l w_lk + f_ik^l w_lj - f_jk^l w_li

is computed alongside so callers can report when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .expr import (
    TRIALS,
    Expression,
    Neg,
    Rat,
    SampleDomain,
    Symbol,
    ZeroTestReport,
    _is_zero,
    as_expr,
    diff,
    equiv_zero,
    free_symbols,
    product_of,
    sum_of,
)
from .liealg import (ExactReport, StructureConstants, _assignments_for, _exact_report,
                     _scaled_nonzeros, parameter_symbols)
from .linalg import ExprMatrix, expr_eval_matrix, expr_inverse, frac_det

__all__ = [
    "SymplecticForm",
    "PoissonField",
    "ClosureReport",
    "closure_residual",
    "check_nondegenerate",
    "invert_omega",
    "canonical_matrix",
    "canonical_field",
    "constant_field",
    "check_field_skew",
    "poisson_bracket",
    "jacobi_residual_field",
    "field_domain",
]


def _skew_from_upper(dim: int, upper: Mapping[tuple[int, int], object]):
    grid = [[Rat(0) for _ in range(dim)] for _ in range(dim)]
    for (i, j), value in upper.items():
        if not (0 <= i < j < dim):
            raise ValueError(f"upper-triangle key {(i, j)} invalid for dim {dim}")
        e = as_expr(value if not isinstance(value, float) else Fraction(value))
        grid[i][j] = e
        grid[j][i] = Neg(e)
    return tuple(tuple(row) for row in grid)


@dataclass(frozen=True)
class SymplecticForm:
    """Skew matrix omega_ij of parameter-only expressions."""

    dim: int
    entries: tuple

    @classmethod
    def from_upper(cls, dim: int, upper: Mapping[tuple[int, int], object]) -> "SymplecticForm":
        return cls(dim, _skew_from_upper(dim, upper))

    def entry(self, i: int, j: int) -> Expression:
        return self.entries[i][j]

    def matrix(self) -> ExprMatrix:
        return [list(row) for row in self.entries]

    def parameters(self) -> tuple[Symbol, ...]:
        return parameter_symbols(e for row in self.entries for e in row)


@dataclass
class ClosureReport:
    """Both sign conventions of the closure residual; cyclic is normative."""

    cyclic: ExactReport
    alternating: ExactReport

    @property
    def ok(self) -> bool:
        return self.cyclic.ok

    @property
    def max_abs(self) -> Fraction:
        return self.cyclic.max_abs

    @property
    def conventions_agree(self) -> bool:
        return self.cyclic.ok == self.alternating.ok

    def __bool__(self) -> bool:
        return self.ok


def closure_residual(omega: SymplecticForm, f: StructureConstants, assignments=None) -> ClosureReport:
    """Exact closure check of omega against the bracket table f.

    The differential of a 2-form is alternating, so its components carry
    information only on strictly increasing index triples; the cyclic
    display is not index-alternating and would produce spurious values on
    repeated indices, hence the i < j < k restriction.
    """
    if omega.dim != f.dim:
        raise ValueError("form and bracket table dimensions differ")
    plans = _assignments_for(assignments, lambda: parameter_symbols(
        [e for row in omega.entries for e in row]
        + [e for plane in f.entries for row in plane for e in row]
    ))
    d = f.dim

    def sample(env):
        ts, t = _scaled_nonzeros(f.entries, env)
        ws, w = _scaled_nonzeros(omega.entries, env)
        cyc = [0] * d ** 3
        alt = [0] * d ** 3
        for p in range(d):
            for q in range(p + 1, d):
                for l, x in t[p][q]:
                    for s, y in w[l]:
                        if s not in (p, q):
                            # f_pq^l w_ls is a term at the sorted triple (i, j, k) of p, q, s;
                            # the alternating sum flips all but the f_ik w_j term (s = j)
                            i, j, k = sorted((p, q, s))
                            cyc[(i * d + j) * d + k] += x * y
                            alt[(i * d + j) * d + k] += x * y if s == j else -x * y
        return ts * ws, cyc, alt

    sums = [sample(env) for env in plans]
    return ClosureReport(_exact_report(plans, ((s, c) for s, c, _ in sums), (d, d, d)),
                         _exact_report(plans, ((s, a) for s, _, a in sums), (d, d, d)))


def check_nondegenerate(omega: SymplecticForm, assignments=None) -> ExactReport:
    """Exact determinant must be nonzero at every parameter sample."""
    plans = _assignments_for(assignments, omega.parameters)
    smallest = None
    witness = None
    for env in plans:
        det = frac_det(expr_eval_matrix(omega.matrix(), env))
        if smallest is None or abs(det) < smallest:
            smallest = abs(det)
        if det == 0 and witness is None:
            witness = ((), dict(env))
    return ExactReport(witness is None, smallest if smallest is not None else Fraction(0), witness, len(plans))


def invert_omega(omega: SymplecticForm) -> ExprMatrix:
    """Constant Poisson matrix P = omega^-1, built symbolically."""
    return expr_inverse(omega.matrix())


def canonical_matrix(n: int) -> ExprMatrix:
    """Constant canonical P for 2n coordinates paired as (i, n+i)."""
    grid = [[Rat(0) for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        grid[i][n + i] = Rat(1)
        grid[n + i][i] = Rat(-1)
    return grid


@dataclass(frozen=True)
class PoissonField:
    """Coordinate-dependent Poisson matrix P^ij(x) over named coordinates."""

    dim: int
    coords: tuple[Symbol, ...]
    entries: tuple

    @classmethod
    def from_upper(
        cls, coords: Sequence[Symbol], upper: Mapping[tuple[int, int], object]
    ) -> "PoissonField":
        dim = len(coords)
        return cls(dim, tuple(coords), _skew_from_upper(dim, upper))

    def entry(self, i: int, j: int) -> Expression:
        return self.entries[i][j]

    def matrix(self) -> ExprMatrix:
        return [list(row) for row in self.entries]

    def parameters(self) -> tuple[Symbol, ...]:
        coord_names = {s.name for s in self.coords}
        return tuple(
            s
            for s in parameter_symbols(e for row in self.entries for e in row)
            if s.name not in coord_names
        )


def constant_field(coords: Sequence[Symbol], matrix: ExprMatrix) -> PoissonField:
    return PoissonField(len(coords), tuple(coords), tuple(tuple(row) for row in matrix))


def canonical_field(coords: Sequence[Symbol]) -> PoissonField:
    if len(coords) % 2:
        raise ValueError("canonical field needs an even number of coordinates")
    return constant_field(coords, canonical_matrix(len(coords) // 2))


def field_domain(field: PoissonField, extra: Sequence[Expression] = ()) -> SampleDomain:
    """Sampling domain covering the field's coordinates and every parameter
    appearing in the field or in the extra expressions."""
    coord_names = {s.name for s in field.coords}
    params: dict[str, Symbol] = {s.name: s for s in field.parameters()}
    for e in extra:
        for s in free_symbols(e):
            if s.name not in coord_names:
                params[s.name] = s
    return SampleDomain(field.coords, tuple(params[n] for n in sorted(params)))


def check_field_skew(field: PoissonField, seed: int = 0, trials: int = TRIALS) -> ZeroTestReport:
    """P^ij + P^ji must vanish identically for i < j."""
    residuals = [
        sum_of([field.entries[i][j], field.entries[j][i]])
        for i in range(field.dim)
        for j in range(i + 1, field.dim)
    ]
    return equiv_zero(residuals, field_domain(field), seed=seed, trials=trials)


def poisson_bracket(field: PoissonField, f: Expression, g: Expression) -> Expression:
    """{f, g} = P^ij d_i f d_j g as a symbolic contraction."""
    terms = []
    dfs = [diff(f, s) for s in field.coords]
    dgs = [diff(g, s) for s in field.coords]
    for i in range(field.dim):
        if _is_zero(dfs[i]):
            continue
        for j in range(field.dim):
            p = field.entries[i][j]
            if _is_zero(p) or _is_zero(dgs[j]):
                continue
            terms.append(product_of([p, dfs[i], dgs[j]]))
    return sum_of(terms)


def jacobi_residual_field(field: PoissonField, seed: int = 0, trials: int = TRIALS) -> ZeroTestReport:
    """Sum_cyclic P^il d_l P^jk over sampled points, for all i < j < k."""
    d = field.dim
    P = field.entries
    residuals = []
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                terms = []
                for l in range(d):
                    dl = field.coords[l]
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        if _is_zero(P[a][l]):
                            continue
                        dP = diff(P[b][c], dl)
                        if not _is_zero(dP):
                            terms.append(product_of([P[a][l], dP]))
                residuals.append(sum_of(terms))
    return equiv_zero(residuals, field_domain(field), seed=seed, trials=trials)



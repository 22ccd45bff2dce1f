"""Carrying structure across a coordinate map between the two phase spaces.

A map x = x(y) lets the y-side phase structure act as the x-side one: the
pushforward of the y-side tensor through the Jacobian must reproduce the
x-side tensor, and recombining the x-side dynamical functions through the
inverse basis change must land on the declared y-side family.  When acting
matrices are available on both sides, the matrix built from (functions,
classical matrix, acting matrices) must agree after composition as well.
`verify_exchange` runs those stages in order on one bundle.

Maps between two square-bracket charts are classified separately: such a map
may preserve the canonical brackets, may carry one family of conserved
quantities linearly onto the other, or both.  Only "both" earns the
canonical label; `classify_transformation` decides each half on its own
evidence and records the recovered linear coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dynsys import DynamicalSystem, build_Q, independence_rank, symmetry_residual
from .expr import (
    TRIALS,
    Expression,
    Rat,
    SampleDomain,
    SingularPointError,
    Symbol,
    ZeroTestReport,
    _is_zero,
    compile_exprs,
    diff,
    equiv_zero,
    free_symbols,
    product_of,
    sample_point,
    subst,
    sum_of,
    trial_rng,
)
from .liealg import IsomorphismMatrix, LieBialgebra, MatrixRep, default_assignments
from .rmatrix import RMatrix
from .symplectic import PoissonField, field_domain

__all__ = [
    "CoordinateMap",
    "ExchangeBundle",
    "ExchangeReport",
    "StageResult",
    "ClassificationRecord",
    "check_phase_exchange",
    "transform_dynfuncs",
    "transport_rep",
    "transform_Q",
    "verify_exchange",
    "classify_transformation",
]


def _symbols_outside(exprs, coord_names: set) -> tuple[Symbol, ...]:
    """Free symbols of the expressions that are not coordinates, by name."""
    found: dict[str, Symbol] = {}
    for e in exprs:
        for s in free_symbols(e):
            if s.name not in coord_names:
                found[s.name] = s
    return tuple(found[k] for k in sorted(found))


@dataclass(frozen=True)
class CoordinateMap:
    """Target coordinates written as functions of source coordinates."""

    source: tuple
    target: tuple
    exprs: tuple

    def __post_init__(self) -> None:
        if len(self.exprs) != len(self.target):
            raise ValueError("one expression per target coordinate is required")

    def compose(self, e: Expression) -> Expression:
        """Rewrite an expression in target coordinates over the source ones."""
        return subst(e, {s.name: x for s, x in zip(self.target, self.exprs)})

    def jacobian(self):
        # jac[i][l] = d target_i / d source_l
        return [[diff(e, s) for s in self.source] for e in self.exprs]

    def parameters(self) -> tuple[Symbol, ...]:
        return _symbols_outside(self.exprs, {s.name for s in self.source})

    def check_full_rank(self, samples: int = 5, seed: int = 0, pivot_tol: float = 1e-8) -> bool:
        rank = independence_rank(self.source, self.exprs, samples=samples, seed=seed, pivot_tol=pivot_tol)
        return rank == min(len(self.source), len(self.target))


def check_phase_exchange(
    cmap: CoordinateMap,
    P: PoissonField,
    Pt: PoissonField,
    seed: int = 0,
    trials: int = TRIALS,
) -> ZeroTestReport:
    """Pushforward identity: Pt^{lk} d_l x^i d_k x^j - P^{ij}(x(y)) ~ 0.

    P lives on the map's target coordinates, Pt on its source ones; the
    residual grid is sampled over the source side.
    """
    if tuple(s.name for s in cmap.target) != tuple(s.name for s in P.coords):
        raise ValueError("map target coordinates must match the target field")
    if tuple(s.name for s in cmap.source) != tuple(s.name for s in Pt.coords):
        raise ValueError("map source coordinates must match the source field")
    jac = cmap.jacobian()
    n = len(cmap.target)
    residuals = []
    for i in range(n):
        for j in range(i + 1, n):
            terms = []
            for l in range(Pt.dim):
                for k in range(Pt.dim):
                    w = Pt.entries[l][k]
                    if _is_zero(w) or _is_zero(jac[i][l]) or _is_zero(jac[j][k]):
                        continue
                    terms.append(product_of([w, jac[i][l], jac[j][k]]))
            pij = P.entries[i][j]
            if not _is_zero(pij):
                terms.append(product_of([Rat(-1), cmap.compose(pij)]))
            residuals.append(sum_of(terms) if terms else Rat(0))
    return equiv_zero(residuals, field_domain(Pt, residuals), seed=seed, trials=trials)


def transform_dynfuncs(
    C: IsomorphismMatrix, S: Sequence[Expression], cmap: CoordinateMap
) -> tuple[Expression, ...]:
    """Recombine a target-side family into source coordinates:
    out_j = (C^-1)_{jl} S^l(x(y))."""
    if len(S) != C.dim:
        raise ValueError("one function per basis element is required")
    Ci = C.inverse()
    composed = [cmap.compose(s) for s in S]
    out = []
    for j in range(C.dim):
        terms = [
            product_of([Ci[j][l], composed[l]])
            for l in range(C.dim)
            if not _is_zero(Ci[j][l])
        ]
        out.append(sum_of(terms) if terms else Rat(0))
    return tuple(out)


def transport_rep(C: IsomorphismMatrix, rep: MatrixRep) -> MatrixRep:
    """Acting matrices for the opposite-variance table: out_m = (C^-1)_{mi} rho_i."""
    if C.dim != rep.dim:
        raise ValueError("dimension mismatch between matrix and representation")
    Ci = C.inverse()
    mats = []
    for m in range(rep.dim):
        grid = []
        for a in range(rep.size):
            row = []
            for b in range(rep.size):
                terms = [
                    product_of([Ci[m][i], rep.matrices[i][a][b]])
                    for i in range(rep.dim)
                    if not (_is_zero(Ci[m][i]) or _is_zero(rep.matrices[i][a][b]))
                ]
                row.append(sum_of(terms) if terms else Rat(0))
            grid.append(row)
        mats.append(grid)
    return MatrixRep.from_rows(mats)


@dataclass(frozen=True)
class ExchangeBundle:
    """Everything needed to check one map between the two phase spaces.

    S and the x-side objects realize the dual-variance table (bialg.gdual);
    St and the y-side objects realize bialg.g.  Classical matrices and acting
    matrices are optional; `rep` (for bialg.g) defaults to the C-recombined
    `rept` when absent.
    """

    bialg: LieBialgebra
    C: IsomorphismMatrix
    cmap: CoordinateMap
    P: PoissonField
    Pt: PoissonField
    S: tuple
    St: tuple
    rt: RMatrix | None = None
    r: RMatrix | None = None
    rept: MatrixRep | None = None
    rep: MatrixRep | None = None

    def __post_init__(self) -> None:
        d = self.bialg.dim
        if self.C.dim != d:
            raise ValueError("basis-change matrix size must match the bialgebra")
        if len(self.S) != d or len(self.St) != d:
            raise ValueError("one dynamical function per basis element on each side")


@dataclass(frozen=True)
class StageResult:
    name: str
    ok: bool
    max_residual: float = 0.0
    skipped: bool = False
    reason: str = ""


@dataclass
class ExchangeReport:
    """Ordered stage outcomes for one bundle."""

    stages: tuple

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.stages if not s.skipped)

    @property
    def failures(self) -> list:
        return [s for s in self.stages if not s.skipped and not s.ok]

    def stage(self, name: str) -> StageResult:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def __bool__(self) -> bool:
        return self.ok


def transform_Q(bundle: ExchangeBundle, seed: int = 0, trials: int = TRIALS) -> ZeroTestReport:
    """Composed x-side matrix against the y-side one, entrywise.

    Left: S^i(x(y)) rt_{ij} rept^j.  Right: St_i(y) r^{ij} rep_j, with rep
    defaulting to the C-recombined rept.  Sampled over the source side.
    """
    missing = [name for name in ("rt", "r", "rept") if getattr(bundle, name) is None]
    if missing:
        raise ValueError("missing bundle fields: " + ", ".join(missing))
    rep = bundle.rep if bundle.rep is not None else transport_rep(bundle.C, bundle.rept)
    composed = [bundle.cmap.compose(s) for s in bundle.S]
    left = build_Q(composed, bundle.rt, bundle.rept)
    right = build_Q(list(bundle.St), bundle.r, rep)
    residuals = []
    for a in range(left.size):
        for b in range(left.size):
            la, rb = left.entries[a][b], right.entries[a][b]
            if _is_zero(la) and _is_zero(rb):
                continue
            residuals.append(sum_of([la, product_of([Rat(-1), rb])]))
    if not residuals:
        residuals = [Rat(0)]
    return equiv_zero(residuals, field_domain(bundle.Pt, residuals), seed=seed, trials=trials)


def verify_exchange(bundle: ExchangeBundle, seed: int = 0, trials: int = TRIALS) -> ExchangeReport:
    """Run the exchange stages in order.

    phase_exchange: the map pushes Pt forward onto P.
    dynfunc_transport: (C^-1) S(x(y)) matches the declared St.
    dual_symmetry: {St_i, St_j} realizes bialg.g under Pt.
    q_transform: composed matrix agreement; skipped unless rt, r, rept are all present.
    """
    stages = []
    rep = check_phase_exchange(bundle.cmap, bundle.P, bundle.Pt, seed=seed, trials=trials)
    stages.append(StageResult("phase_exchange", rep.zero, rep.max_residual))

    derived = transform_dynfuncs(bundle.C, bundle.S, bundle.cmap)
    residuals = [
        sum_of([bundle.St[j], product_of([Rat(-1), derived[j]])])
        for j in range(bundle.bialg.dim)
    ]
    rep = equiv_zero(residuals, field_domain(bundle.Pt, residuals), seed=seed, trials=trials)
    stages.append(StageResult("dynfunc_transport", rep.zero, rep.max_residual))

    sys = DynamicalSystem(bundle.Pt, tuple(bundle.St), bundle.bialg.g)
    rep = symmetry_residual(sys, seed=seed, trials=trials)
    stages.append(StageResult("dual_symmetry", rep.zero, rep.max_residual))

    missing = [name for name in ("rt", "r", "rept") if getattr(bundle, name) is None]
    if missing:
        stages.append(
            StageResult("q_transform", True, skipped=True, reason="missing " + ", ".join(missing))
        )
    else:
        rep = transform_Q(bundle, seed=seed, trials=trials)
        stages.append(StageResult("q_transform", rep.zero, rep.max_residual))
    return ExchangeReport(tuple(stages))


@dataclass(frozen=True)
class ClassificationRecord:
    """How a map between two square-bracket charts behaves.

    coefficients holds, per parameter assignment, the recovered matrix c with
    invA_i = sum_j c_ij invB_j(zmap); None when no such matrix exists.
    """

    bracket_preserving: bool
    invariant_mapping: bool
    coefficients: tuple | None = None

    @property
    def canonical(self) -> bool:
        return self.bracket_preserving and self.invariant_mapping


def _solve_float(M: list[list[float]], rhs: list[list[float]]) -> list[list[float]] | None:
    """Gaussian elimination with partial pivoting; columns of rhs solved together.
    Returns None when a pivot degenerates."""
    n = len(M)
    a = [row[:] + r[:] for row, r in zip(M, rhs)]
    w = len(a[0])
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) < 1e-10:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col] / a[col][col]
            if factor:
                for c in range(col, w):
                    a[r][c] -= factor * a[col][c]
    return [[a[r][n + k] / a[r][r] for k in range(len(rhs[0]))] for r in range(n)]


def _rationalize(x: float) -> Fraction:
    if abs(x) < 1e-9:
        return Fraction(0)
    return Fraction(x).limit_denominator(10**6)


def classify_transformation(
    zmap: CoordinateMap,
    invA: Sequence[Expression],
    invB: Sequence[Expression],
    phaseA: PoissonField,
    phaseB: PoissonField,
    seed: int = 0,
    trials: int = TRIALS,
    samples: int = 3,
) -> ClassificationRecord:
    """Classify a map from the phaseA chart to the phaseB chart.

    bracket_preserving: the map pushes phaseA forward onto phaseB.
    invariant_mapping: every invA member is an exact constant-coefficient
    combination of the invB members composed with the map; coefficients are
    recovered by a linear solve at sampled points, rationalized, then
    confirmed by a randomized zero test at each parameter assignment.
    """
    if tuple(s.name for s in zmap.source) != tuple(s.name for s in phaseA.coords):
        raise ValueError("map source coordinates must match the first chart")
    if tuple(s.name for s in zmap.target) != tuple(s.name for s in phaseB.coords):
        raise ValueError("map target coordinates must match the second chart")

    preserves = check_phase_exchange(zmap, phaseB, phaseA, seed=seed, trials=trials).zero

    G = [zmap.compose(g) for g in invB]
    coords = list(phaseA.coords)
    params = _symbols_outside(list(invA) + G, {s.name for s in coords})
    per_assignment = []
    mapping_ok = True
    for a_idx, env in enumerate(default_assignments(params, count=samples, seed=seed)):
        rows = _recover_coefficients(list(invA), G, coords, env, seed + 7 * a_idx)
        if rows is None:
            mapping_ok = False
            break
        residuals = []
        for i, f in enumerate(invA):
            terms = [f] + [
                product_of([Rat(-c), G[j]]) for j, c in enumerate(rows[i]) if c
            ]
            residuals.append(sum_of(terms))
        domain = SampleDomain(coords=tuple(coords), fixed=tuple(env.items()))
        rep = equiv_zero(residuals, domain, seed=seed, trials=trials)
        if not rep.zero:
            mapping_ok = False
            break
        per_assignment.append((tuple(env.items()), tuple(tuple(r) for r in rows)))
    return ClassificationRecord(
        bracket_preserving=preserves,
        invariant_mapping=mapping_ok,
        coefficients=tuple(per_assignment) if mapping_ok else None,
    )


def _recover_coefficients(invA, G, coords, env, seed):
    """Candidate rational c with invA_i ~ sum_j c_ij G_j at one assignment,
    from a float solve at sampled points; None when no candidate emerges."""
    names = [s.name for s in coords] + list(env.keys())
    fns = compile_exprs(list(G) + list(invA), names)
    domain = SampleDomain(coords=tuple(coords), fixed=tuple(env.items()))
    n = len(G)
    for attempt in range(8):
        rng = trial_rng(seed, 1000 + attempt)
        M, B = [], []
        draws = 0
        while len(M) < n and draws < 40:
            draws += 1
            point = sample_point(domain, rng)
            args = [float(point[k]) for k in names]
            try:
                values, _ = fns(args)
            except SingularPointError:
                continue
            M.append(list(values[:n]))
            B.append(list(values[n:]))
        if len(M) < n:
            return None
        sol = _solve_float(M, B)
        if sol is not None:
            return [[_rationalize(sol[j][i]) for j in range(n)] for i in range(len(invA))]
    return None

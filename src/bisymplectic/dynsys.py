"""Dynamical functions, Darboux charts, Q-matrices, and involution search.

The central objects are a phase-space Poisson field together with a list of
functions S^i whose mutual brackets must reproduce a structure-constant
table.  From an r-matrix and a matrix representation the g-valued function
Q = S_i r^ij rho_j is assembled; its power traces supply candidate constants
of motion, and the compatibility residual

    {Q (x), Q} + [Q (x) I + I (x) Q, r_rep] = 0,    r_rep = r^ij rho_i (x) rho_j

ties the bracket structure of Q to the r-matrix.  Maximal involutive subsets
of the S-list are found by exhaustive subset search; each subset of size at
least two is a candidate (Hamiltonian, invariants) family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .expr import (
    TRIALS,
    Expression,
    Rat,
    SampleDomain,
    ZeroTestReport,
    _is_zero,
    compile_exprs,
    diff,
    equiv_zero,
    free_symbols,
    product_of,
    sample_row,
    sum_of,
)
from .liealg import MatrixRep, StructureConstants
from .linalg import ExprMatrix, expr_matmul
from .rmatrix import RMatrix
from .symplectic import PoissonField, field_domain, poisson_bracket

__all__ = [
    "DynamicalSystem",
    "DarbouxChart",
    "DarbouxReport",
    "QMatrix",
    "symmetry_residual",
    "check_darboux",
    "build_Q",
    "sts_residual",
    "invariants",
    "trace_of",
    "involution_check",
    "find_involutive_pairs",
    "independence_rank",
]


@dataclass(frozen=True)
class DynamicalSystem:
    """Phase field, dynamical functions, and the table their brackets realize."""

    phase: PoissonField
    S: tuple
    target: StructureConstants

    def __post_init__(self) -> None:
        if len(self.S) != self.target.dim:
            raise ValueError("one dynamical function per table index is required")

    def domain(self):
        extra = list(self.S) + [
            e for plane in self.target.entries for row in plane for e in row
        ]
        return field_domain(self.phase, extra)


def symmetry_residual(sys: DynamicalSystem, seed: int = 0, trials: int = TRIALS) -> ZeroTestReport:
    """{S^i, S^j} - target^ij_k S^k must vanish for all i < j."""
    residuals = []
    d = sys.target.dim
    for i in range(d):
        for j in range(i + 1, d):
            terms = [poisson_bracket(sys.phase, sys.S[i], sys.S[j])]
            for k in range(d):
                c = sys.target.entries[i][j][k]
                if not _is_zero(c):
                    terms.append(product_of([Rat(-1), c, sys.S[k]]))
            residuals.append(sum_of(terms))
    return equiv_zero(residuals, sys.domain(), seed=seed, trials=trials)


@dataclass(frozen=True)
class DarbouxChart:
    """Functions z_1..z_2n over phase coordinates, paired as (z_i, z_{n+i})."""

    z: tuple

    def __post_init__(self) -> None:
        if len(self.z) % 2:
            raise ValueError("a Darboux chart needs an even number of functions")

    @property
    def half(self) -> int:
        return len(self.z) // 2


@dataclass
class DarbouxReport:
    """Per-pair bracket outcomes; expected value is 1 on (i, n+i), else 0."""

    results: tuple  # ((i, j), expected, ZeroTestReport), lexicographic

    @property
    def ok(self) -> bool:
        return all(rep.zero for _, _, rep in self.results)

    @property
    def failures(self) -> list:
        return [(pair, expected, rep) for pair, expected, rep in self.results if not rep.zero]

    @property
    def max_residual(self) -> float:
        return max((rep.max_residual for _, _, rep in self.results), default=0.0)

    def __bool__(self) -> bool:
        return self.ok


def check_darboux(
    phase: PoissonField, chart: DarbouxChart, seed: int = 0, trials: int = TRIALS
) -> DarbouxReport:
    """All pairwise brackets of the chart against the canonical pattern."""
    n = chart.half
    domain = field_domain(phase, chart.z)
    results = []
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            expected = 1 if j == i + n else 0
            resid = poisson_bracket(phase, chart.z[i], chart.z[j])
            if expected:
                resid = sum_of([resid, Rat(-expected)])
            rep = equiv_zero(resid, domain, seed=seed, trials=trials)
            results.append(((i, j), expected, rep))
    return DarbouxReport(tuple(results))


@dataclass(frozen=True)
class QMatrix:
    """The contraction S_i r^ij rho_j with its provenance attached."""

    size: int
    entries: tuple
    S: tuple
    r: RMatrix
    rep: MatrixRep

    def matrix(self) -> ExprMatrix:
        return [list(row) for row in self.entries]


def build_Q(S: Sequence[Expression], r: RMatrix, rep: MatrixRep) -> QMatrix:
    if not (len(S) == r.dim == rep.dim):
        raise ValueError("dynamical functions, r-matrix, and representation disagree on dimension")
    m = rep.size
    grid = []
    for a in range(m):
        row = []
        for b in range(m):
            terms = []
            for i in range(r.dim):
                for j in range(r.dim):
                    rij = r.entries[i][j]
                    rho = rep.matrices[j][a][b]
                    if _is_zero(rij) or _is_zero(rho) or _is_zero(S[i]):
                        continue
                    terms.append(product_of([S[i], rij, rho]))
            row.append(sum_of(terms))
        grid.append(tuple(row))
    return QMatrix(m, tuple(grid), tuple(S), r, rep)


def sts_residual(
    Q: QMatrix, r: RMatrix, rep: MatrixRep, phase: PoissonField, seed: int = 0, trials: int = TRIALS
) -> ZeroTestReport:
    """Entrywise residual of {Q (x), Q} + [Q (x) I + I (x) Q, r_rep]."""
    m = Q.size
    mm = m * m

    def idx(a: int, c: int) -> int:
        return a * m + c

    # left block: pairwise brackets of Q entries on the tensor grid
    bracket_block = [[Rat(0)] * mm for _ in range(mm)]
    for a in range(m):
        for b in range(m):
            qab = Q.entries[a][b]
            if _is_zero(qab):
                continue
            for c in range(m):
                for d in range(m):
                    qcd = Q.entries[c][d]
                    if _is_zero(qcd):
                        continue
                    bracket_block[idx(a, c)][idx(b, d)] = poisson_bracket(phase, qab, qcd)

    # r in the representation: sum r^ij rho_i (x) rho_j
    rrep = [[Rat(0)] * mm for _ in range(mm)]
    for i in range(r.dim):
        for j in range(r.dim):
            rij = r.entries[i][j]
            if _is_zero(rij):
                continue
            mi, mj = rep.matrices[i], rep.matrices[j]
            for a in range(m):
                for b in range(m):
                    if _is_zero(mi[a][b]):
                        continue
                    for c in range(m):
                        for d in range(m):
                            if _is_zero(mj[c][d]):
                                continue
                            cell = product_of([rij, mi[a][b], mj[c][d]])
                            prev = rrep[idx(a, c)][idx(b, d)]
                            rrep[idx(a, c)][idx(b, d)] = cell if _is_zero(prev) else sum_of([prev, cell])

    # Q (x) I + I (x) Q; both parts can land on the same cell, so accumulate
    sandwich = [[Rat(0)] * mm for _ in range(mm)]
    for a in range(m):
        for b in range(m):
            qab = Q.entries[a][b]
            if _is_zero(qab):
                continue
            for c in range(m):
                for u, v in ((idx(a, c), idx(b, c)), (idx(c, a), idx(c, b))):
                    prev = sandwich[u][v]
                    sandwich[u][v] = qab if _is_zero(prev) else sum_of([prev, qab])

    comm_left = expr_matmul(sandwich, rrep)
    comm_right = expr_matmul(rrep, sandwich)
    residuals = []
    for u in range(mm):
        for v in range(mm):
            terms = [bracket_block[u][v], comm_left[u][v]]
            rgt = comm_right[u][v]
            if not _is_zero(rgt):
                terms.append(product_of([Rat(-1), rgt]))
            residuals.append(sum_of([t for t in terms if not _is_zero(t)]))
    domain = field_domain(phase, list(Q.S) + [e for row in rrep for e in row])
    return equiv_zero(residuals, domain, seed=seed, trials=trials)


def trace_of(matrix: ExprMatrix) -> Expression:
    return sum_of([matrix[i][i] for i in range(len(matrix)) if not _is_zero(matrix[i][i])])


def invariants(Q: QMatrix, kmax: int = 3) -> list[Expression]:
    """Power traces I_k = trace(Q^k) for k = 1..kmax."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    out = []
    power = Q.matrix()
    out.append(trace_of(power))
    for _ in range(kmax - 1):
        power = expr_matmul(power, Q.matrix())
        out.append(trace_of(power))
    return out


def involution_check(
    phase: PoissonField, F: Sequence[Expression], seed: int = 0, trials: int = TRIALS
) -> list[list[bool]]:
    """Boolean matrix: does {F_a, F_b} vanish identically on samples."""
    n = len(F)
    out = [[True] * n for _ in range(n)]
    domain = field_domain(phase, F)
    for a in range(n):
        for b in range(a + 1, n):
            rep = equiv_zero(poisson_bracket(phase, F[a], F[b]), domain, seed=seed, trials=trials)
            out[a][b] = out[b][a] = rep.zero
    return out


def find_involutive_pairs(
    sys: DynamicalSystem, seed: int = 0, trials: int = TRIALS
) -> list[tuple[int, ...]]:
    """Maximal mutually-commuting subsets of the S-list, of size >= 2.

    Subsets are enumerated exhaustively in lexicographic order, so the output
    is deterministic for a fixed seed.  Singletons are dropped: a family
    needs a Hamiltonian and at least one further invariant.
    """
    comm = involution_check(sys.phase, sys.S, seed=seed, trials=trials)
    n = len(sys.S)
    qualifying = []
    for mask in range(1, 1 << n):
        members = tuple(i for i in range(n) if mask >> i & 1)
        if all(comm[i][j] for i in members for j in members if i < j):
            qualifying.append(members)
    maximal = [
        s for s in qualifying if not any(s != t and set(s) < set(t) for t in qualifying)
    ]
    return sorted(s for s in maximal if len(s) >= 2)


def independence_rank(
    coords, F: Sequence[Expression], samples: int = 5, seed: int = 0, pivot_tol: float = 1e-8
) -> int:
    """Generic numeric rank of the Jacobian d F_a / d x^i: the largest rank
    over sampled points, so a sample on a degenerate locus cannot lower it."""
    rows = len(F)
    cols = len(coords)
    jac = [diff(f, s) for f in F for s in coords]
    syms = set()
    for f in F:
        syms |= free_symbols(f)
    params = sorted((s for s in syms if s.kind == "parameter"), key=lambda s: s.name)
    domain = SampleDomain(tuple(coords), tuple(params))
    fn = compile_exprs(jac, domain.names())
    ranks = []
    trial = 0
    while samples > 0 and trial < samples * 8:
        row = sample_row(domain, seed, trial)
        trial += 1
        try:
            values, _ = fn(row)
        except Exception:
            continue
        samples -= 1
        grid = [values[r * cols : (r + 1) * cols] for r in range(rows)]
        ranks.append(_float_rank(grid, pivot_tol))
    if not ranks:
        raise ValueError("all sampled points were singular for the Jacobian")
    return max(ranks)


def _float_rank(grid: list[list[float]], tol: float) -> int:
    m = [row[:] for row in grid]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    for col in range(cols):
        pivot = None
        best = tol
        for r in range(rank, rows):
            if abs(m[r][col]) > best:
                best = abs(m[r][col])
                pivot = r
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rows):
            if r != rank and m[r][col]:
                factor = m[r][col] / pv
                for c in range(col, cols):
                    m[r][c] -= factor * m[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank

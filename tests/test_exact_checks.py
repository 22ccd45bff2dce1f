"""Exact checks against plain dense Fraction references, over random tables.

Every check that contracts evaluated tables (Jacobi, the two Manin parts,
the Yang-Baxter residual, both closure sums, the representation residual)
must report exactly what a dense scan reports: the same ``ok``, the same
exact ``max_abs``, the same witness (the first largest residual in sample
order, then index order, found with strict ``>``) and the same sample
count.  The references below are written out index by index with no
sparsity shortcut.  Tables are dense or sparse, antisymmetric or not,
parameter-free or depending on one parameter, and either random (which
almost always fails) or built to pass.
"""

import math
import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bisymplectic import liealg, rmatrix, symplectic
from bisymplectic.expr import Expression, Rat, Sym, Symbol, evaluate, product_of, sum_of
from bisymplectic.liealg import (
    IsomorphismMatrix,
    LieBialgebra,
    MatrixRep,
    StructureConstants,
    build_double,
    check_antisymmetry,
    check_jacobi,
    check_representation,
    default_assignments,
    verify_manin_triple,
)
from bisymplectic.rmatrix import RMatrix, cybe_residual
from bisymplectic.symplectic import SymplecticForm, check_nondegenerate, closure_residual

A = Symbol("a", "parameter")
POOL = [Fraction(-2), Fraction(-1, 3), Fraction(1, 2), Fraction(1), Fraction(3)]
KINDS = ("zero", "lie", "antisymmetric", "raw")

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# dense references


def dense(grid, env):
    if isinstance(grid, Expression):
        return Fraction(evaluate(grid, env))
    return [dense(g, env) for g in grid]


def scan(plans, residuals):
    """(ok, max_abs, witness, samples) of a dense scan with strict ``>``."""
    worst, witness = Fraction(0), None
    for env in plans:
        for index, value in residuals(env):
            if abs(value) > worst:
                worst, witness = abs(value), (index, dict(env))
    return worst == 0, worst, witness, len(plans)


def as_tuple(rep):
    return rep.ok, rep.max_abs, rep.witness, rep.samples


def dot(a, b):
    return sum(map(mul, a, b))


def jacobi_ref(t):
    d = len(t)
    col = [[[t[l][k][m] for l in range(d)] for m in range(d)] for k in range(d)]  # col[k][m][l] = t_lk^m
    for i, j, k, m in product(range(d), repeat=4):
        yield (i, j, k, m), dot(t[i][j], col[k][m]) + dot(t[j][k], col[i][m]) + dot(t[k][i], col[j][m])


def ad_invariance_ref(t):
    n = len(t)
    d = n // 2
    pairing = [[Fraction(int(abs(a - b) == d)) for b in range(n)] for a in range(n)]
    for a, b, c in product(range(n), repeat=3):
        acc = Fraction(0)
        for e in range(n):
            acc += t[a][b][e] * pairing[e][c]
            acc += t[a][c][e] * pairing[b][e]
        yield (a, b, c), acc


def cybe_ref(r, f):
    d = len(r)
    for m, j, l in product(range(d), repeat=3):
        acc = Fraction(0)
        for i, k in product(range(d), repeat=2):
            acc += r[i][j] * r[k][l] * f[i][k][m]
            acc += r[m][i] * r[k][l] * f[i][k][j]
            acc += r[m][i] * r[j][k] * f[i][k][l]
        yield (m, j, l), acc


def closure_ref(t, w, signs):
    d = len(t)
    for i, j, k in product(range(d), repeat=3):
        if i < j < k:
            acc = Fraction(0)
            for l in range(d):
                acc += signs[0] * t[i][j][l] * w[l][k]
                acc += signs[1] * t[i][k][l] * w[l][j]
                acc += signs[2] * t[j][k][l] * w[l][i]
            yield (i, j, k), acc


def representation_ref(mats, t):
    d, m = len(mats), len(mats[0])
    for i, j, a, b in product(range(d), range(d), range(m), range(m)):
        acc = Fraction(0)
        for c in range(m):
            acc += mats[i][a][c] * mats[j][c][b] - mats[j][a][c] * mats[i][c][b]
        for k in range(d):
            acc -= t[i][j][k] * mats[k][a][b]
        yield (i, j, a, b), acc


# ---------------------------------------------------------------------------
# random tables


def entry(rng, density, parametric):
    """A constant, or c0 + c1*a; each coefficient is nonzero with probability ``density``."""
    def coeff(p):
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < p else Fraction(0)

    c0, c1 = coeff(density), coeff(density / 2) if parametric else Fraction(0)
    if not c1:
        return Rat(c0)
    return sum_of([Rat(c0), product_of([Rat(c1), Sym(A)])])


def table(kind, dim, rng, density, parametric):
    """zero; a Lie table (X_0 acting on the abelian span of the rest);
    a random antisymmetric table; a random table with no symmetry."""
    zero = Rat(0)
    if kind == "zero":
        return StructureConstants.from_brackets(dim, {})
    if kind == "lie":
        return StructureConstants.from_brackets(dim, {
            (0, j, k): entry(rng, density, parametric) for j in range(1, dim) for k in range(1, dim)})
    if kind == "antisymmetric":
        return StructureConstants.from_brackets(dim, {
            (i, j, k): entry(rng, density, parametric)
            for i in range(dim) for j in range(i + 1, dim) for k in range(dim)})
    grid = tuple(tuple(tuple(entry(rng, density, parametric) if rng.random() < 0.5 else zero
                             for _ in range(dim)) for _ in range(dim)) for _ in range(dim))
    return StructureConstants(dim, grid)


def skew(dim, rng, density, parametric, antisymmetric=True):
    if not antisymmetric:
        return tuple(tuple(entry(rng, density, parametric) for _ in range(dim)) for _ in range(dim))
    grid = [[Rat(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            e = entry(rng, density, parametric)
            grid[i][j], grid[j][i] = e, product_of([Rat(-1), e])
    return tuple(tuple(row) for row in grid)


@st.composite
def cases(draw, lo, hi):
    """(dim, rng, density, parametric, plans); plans may repeat a value, so
    samples often tie and the first must keep the witness."""
    dim = draw(st.integers(lo, hi))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0]))
    parametric = draw(st.booleans())
    values = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3))
    return dim, rng, density, parametric, [{"a": v} for v in values]


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(cases(2, 8), st.sampled_from(KINDS))
def test_jacobi_matches_dense_reference(case, kind):
    dim, rng, density, parametric, plans = case
    f = table(kind, dim, rng, density, parametric)
    got = check_jacobi(f, plans)
    assert as_tuple(got) == scan(plans, lambda env: jacobi_ref(dense(f.entries, env)))
    if kind in ("zero", "lie"):
        assert got.ok


@PROPERTY
@given(cases(1, 4), st.sampled_from(KINDS), st.sampled_from(KINDS))
def test_manin_triple_matches_dense_reference(case, kind_g, kind_dual):
    dim, rng, density, parametric, plans = case
    bialg = LieBialgebra(table(kind_g, dim, rng, density, parametric),
                         table(kind_dual, dim, rng, density, parametric))
    got = verify_manin_triple(bialg, plans)
    double = build_double(bialg).entries
    assert as_tuple(got.jacobi) == scan(plans, lambda env: jacobi_ref(dense(double, env)))
    assert as_tuple(got.ad_invariance) == scan(plans, lambda env: ad_invariance_ref(dense(double, env)))
    if kind_g != "raw" and kind_dual != "raw":
        assert got.ad_invariance.ok


@PROPERTY
@given(cases(2, 5), st.sampled_from(KINDS), st.sampled_from(("zero", "skew", "raw")))
def test_cybe_matches_dense_reference(case, kind, r_kind):
    dim, rng, density, parametric, plans = case
    f = table(kind, dim, rng, density, parametric)
    r = RMatrix(dim, skew(dim, rng, density if r_kind != "zero" else 0.0, parametric, r_kind != "raw"))
    got = cybe_residual(r, f, plans)
    assert as_tuple(got) == scan(plans, lambda env: cybe_ref(dense(r.entries, env), dense(f.entries, env)))
    if kind == "zero" or r_kind == "zero":
        assert got.ok


@PROPERTY
@given(cases(2, 8), st.sampled_from(KINDS), st.sampled_from(("zero", "skew", "exact")))
def test_closure_matches_dense_reference(case, kind, w_kind):
    dim, rng, density, parametric, plans = case
    f = table(kind, dim, rng, density, parametric)
    if w_kind == "exact":
        # w_ij = xi([X_i, X_j]) is a coboundary, closed whenever f is Lie
        xi = [entry(rng, 1.0, parametric) for _ in range(dim)]
        w = SymplecticForm(dim, tuple(tuple(sum_of([product_of([f.entries[i][j][k], xi[k]]) for k in range(dim)])
                                            for j in range(dim)) for i in range(dim)))
    else:
        w = SymplecticForm(dim, skew(dim, rng, density if w_kind == "skew" else 0.0, parametric))
    got = closure_residual(w, f, plans)
    for rep, signs in ((got.cyclic, (1, 1, 1)), (got.alternating, (-1, 1, -1))):
        assert as_tuple(rep) == scan(
            plans, lambda env: closure_ref(dense(f.entries, env), dense(w.entries, env), signs))
    if w_kind == "zero" or kind == "zero" or (w_kind == "exact" and kind == "lie"):
        assert got.alternating.ok


@PROPERTY
@given(cases(2, 4), st.sampled_from(KINDS), st.sampled_from(("zero", "adjoint", "random")),
       st.integers(1, 4))
def test_representation_matches_dense_reference(case, kind, rep_kind, size):
    dim, rng, density, parametric, plans = case
    f = table(kind, dim, rng, density, parametric)
    if rep_kind == "adjoint":
        # (ad X_i)_kb = f_ib^k represents f whenever f is Lie
        mats = tuple(tuple(tuple(f.entries[i][b][k] for b in range(dim)) for k in range(dim))
                     for i in range(dim))
        size = dim
    else:
        p = density if rep_kind == "random" else 0.0
        mats = tuple(tuple(tuple(entry(rng, p, parametric) for _ in range(size)) for _ in range(size))
                     for _ in range(dim))
    rep = MatrixRep(dim, size, mats)
    got = check_representation(rep, f, plans)
    assert as_tuple(got) == scan(
        plans, lambda env: representation_ref(dense(rep.matrices, env), dense(f.entries, env)))
    if rep_kind == "zero" or (rep_kind == "adjoint" and kind in ("zero", "lie")):
        assert got.ok


def test_tied_samples_keep_the_first_as_witness():
    # the table does not depend on a, so both samples give the same residuals
    f = StructureConstants.from_brackets(3, {(0, 1, 2): 1, (1, 2, 0): 2, (0, 2, 2): Fraction(1, 3)})
    plans = [{"a": Fraction(3)}, {"a": Fraction(1, 2)}]
    rep = check_jacobi(f, plans)
    assert not rep.ok and rep.witness[1] == plans[0]
    assert as_tuple(rep) == scan(plans, lambda env: jacobi_ref(dense(f.entries, env)))
    r = RMatrix(3, skew(3, random.Random(7), 1.0, False))
    rep = cybe_residual(r, f, plans)
    assert not rep.ok and rep.witness[1] == plans[0]



@pytest.mark.parametrize("dim", [9, 12])
def test_jacobi_orbit_sums_match_the_dense_reference_everywhere(dim, monkeypatch):
    # 12 is the double of a 6-dim entry.  A raw table has t_ii^l != 0, so the
    # products P(i, j, k) differ along an orbit and P(i, i, i) is nonzero;
    # every residual is compared, not only the largest
    f = table("raw", dim, random.Random(dim), 0.7, True)
    plans = [{"a": Fraction(1, 2)}, {"a": Fraction(-2)}]
    grids, memo, report = [], {}, liealg._exact_report

    def spy(plans, samples, shape):
        samples = list(samples)
        grids.extend(samples)
        return report(plans, samples, shape)

    monkeypatch.setattr(liealg, "_exact_report", spy)
    got = check_jacobi(f, plans)

    def residuals(env):
        # the reference in integers (the sum is bilinear), then scaled back
        if env["a"] not in memo:
            t = dense(f.entries, env)
            scale = math.lcm(*(v.denominator for plane in t for row in plane for v in row))
            assert any(t[i][i][l] * t[l][i][m] for i, l, m in product(range(dim), repeat=3))
            ints = [[[int(v * scale) for v in row] for row in plane] for plane in t]
            memo[env["a"]] = [(index, Fraction(v, scale * scale)) for index, v in jacobi_ref(ints)]
        return memo[env["a"]]

    for env, (scale, acc) in zip(plans, grids, strict=True):
        want = [v for _, v in residuals(env)]
        assert [Fraction(v, scale) for v in acc] == want
        assert any(want[((i * dim + i) * dim + i) * dim + m] for i in range(dim) for m in range(dim))
    assert as_tuple(got) == scan(plans, residuals)


def test_given_samples_walk_no_parameters(monkeypatch):
    # the ladder and the benchmark always pass the samples; the parameters
    # are then never collected
    def refuse(*args):
        raise AssertionError("parameters walked although samples were given")

    rng = random.Random(5)
    f = table("antisymmetric", 3, rng, 0.7, True)
    ft = table("lie", 3, rng, 0.7, True)
    r = RMatrix(3, skew(3, rng, 0.7, True))
    w = SymplecticForm(3, skew(3, rng, 0.7, True))
    rep = MatrixRep(3, 2, tuple(tuple(tuple(entry(rng, 0.7, True) for _ in range(2)) for _ in range(2))
                                for _ in range(3)))
    C = IsomorphismMatrix.from_rows([[1, Sym(A), 0], [0, 1, 0], [0, 0, 2]])
    plans = [{"a": Fraction(1, 2)}, {"a": Fraction(-2)}]
    # without samples, the defaults drawn from the parameters
    assert check_jacobi(f).samples == C.check_invertible().samples == len(default_assignments((A,))) == 5
    for module in (liealg, rmatrix, symplectic):
        monkeypatch.setattr(module, "parameter_symbols", refuse)
    for cls in (StructureConstants, LieBialgebra, IsomorphismMatrix, MatrixRep, RMatrix, SymplecticForm):
        monkeypatch.setattr(cls, "parameters", refuse)
    reports = [
        check_antisymmetry(f, plans),
        check_jacobi(f, plans),
        verify_manin_triple(LieBialgebra(f, ft), plans).jacobi,
        check_representation(rep, f, plans),
        C.check_invertible(plans),
        cybe_residual(r, f, plans),
        closure_residual(w, f, plans).cyclic,
        check_nondegenerate(w, plans),
    ]
    assert [report.samples for report in reports] == [2] * 8
    with pytest.raises(AssertionError, match="parameters walked"):
        check_jacobi(f)

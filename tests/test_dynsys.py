"""Dynamical-function layer, driven by the worked four-dimensional pair."""

from fractions import Fraction

import pytest

from bisymplectic.dynsys import (
    DarbouxChart,
    DynamicalSystem,
    build_Q,
    check_darboux,
    find_involutive_pairs,
    independence_rank,
    invariants,
    involution_check,
    sts_residual,
    symmetry_residual,
)
from bisymplectic.expr import Rat, Sym, Symbol, equiv_zero, parse_expr, sum_of
from bisymplectic.liealg import StructureConstants
from bisymplectic.rmatrix import RMatrix
from bisymplectic.symplectic import canonical_field, field_domain, poisson_bracket

Z = Rat(0)


def parse_over(strings, symbols):
    table = {s.name: s for s in symbols}
    return tuple(parse_expr(text, table) for text in strings)


def assert_same(expr, expected, domain, seed=0):
    rep = equiv_zero(sum_of([expr, Rat(-1) * expected]), domain, seed=seed)
    assert rep.zero, f"expressions differ, max {rep.max_residual}"


@pytest.fixture(scope="module")
def can2(zcoords):
    return canonical_field(zcoords)


@pytest.fixture(scope="module")
def sys_z1(can2, s_z1, ft_a490):
    return DynamicalSystem(can2, s_z1, ft_a490)


@pytest.fixture(scope="module")
def q1(s_z1, rt1, rep1):
    return build_Q(s_z1, rt1, rep1)


class TestSymmetry:
    def test_darboux_side(self, sys_z1):
        assert symmetry_residual(sys_z1).zero

    def test_group_side(self, px1, s_x1, ft_a490):
        # same functions written in group coordinates, bracketed by the
        # group-level field instead of the canonical one
        assert symmetry_residual(DynamicalSystem(px1, s_x1, ft_a490)).zero

    def test_dual_side(self, py1, st_y1, f_a49iv):
        assert symmetry_residual(DynamicalSystem(py1, st_y1, f_a49iv)).zero

    def test_perturbed_function_fails(self, can2, s_z1, zcoords, ft_a490):
        bad = s_z1[:3] + (sum_of([s_z1[3], Sym(zcoords[1])]),)
        rep = symmetry_residual(DynamicalSystem(can2, bad, ft_a490))
        assert not rep.zero
        # the only damaged bracket is {S2, S4}, off by {z2's conjugate pair}
        assert rep.max_residual == pytest.approx(1.0)

    def test_parameterized_target(self):
        w = tuple(Symbol(f"w{i}") for i in (1, 2))
        q = Sym(Symbol("q", "parameter"))
        target = StructureConstants.from_brackets(2, {(0, 1, 1): q}, "upper")
        S = parse_over(("q*w1", "exp(w2)"), w + (q.symbol,))
        rep = symmetry_residual(DynamicalSystem(canonical_field(w), S, target))
        assert rep.zero

    def test_dimension_mismatch(self, can2, s_z1, ft_a490):
        with pytest.raises(ValueError):
            DynamicalSystem(can2, s_z1[:3], ft_a490)


class TestDarboux:
    def test_group_chart(self, px1, chart1x):
        report = check_darboux(px1, DarbouxChart(chart1x))
        assert report.ok
        assert len(report.results) == 6
        assert [(p, e) for p, e, _ in report.results if e == 1] == [
            ((0, 2), 1),
            ((1, 3), 1),
        ]

    def test_dual_chart(self, py1, chart1y):
        assert check_darboux(py1, DarbouxChart(chart1y)).ok

    def test_identity_chart_on_canonical(self, can2, zcoords):
        chart = DarbouxChart(parse_over(("z1", "z2", "z3", "z4"), zcoords))
        report = check_darboux(can2, chart)
        assert report.ok and report.max_residual == 0.0

    def test_swapped_chart_fails(self, px1, chart1x):
        swapped = (chart1x[0], chart1x[2], chart1x[1], chart1x[3])
        report = check_darboux(px1, DarbouxChart(swapped))
        assert not report.ok
        assert [pair for pair, _, _ in report.failures] == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_odd_length_rejected(self, zcoords):
        with pytest.raises(ValueError):
            DarbouxChart(parse_over(("z1",), zcoords))


class TestQ:
    def domain(self, can2, q):
        return field_domain(can2, [e for row in q.entries for e in row])

    def test_entries(self, q1, can2, zcoords, params_abcd):
        assert q1.size == 4
        syms = zcoords + tuple(params_abcd.values())
        dom = self.domain(can2, q1)
        checks = {
            (1, 1): "z3",
            (2, 2): "z3",
            (3, 3): "d*z4",
            (0, 3): "c*z4",
            (2, 1): "a*z4",
            (0, 1): "a*(-z4/2 - z1*z3 - z2*z4) + a*b*z4",
            (0, 2): "(z3/2 - z2*z3) + b*z3",
        }
        for (i, j), text in checks.items():
            expected, = parse_over((text,), syms)
            assert_same(q1.entries[i][j], expected, dom)
        for j in range(4):
            assert q1.entries[j][0] is Z or equiv_zero(q1.entries[j][0], dom).zero

    def test_dimension_mismatch(self, s_z1, rt1, rep1):
        with pytest.raises(ValueError):
            build_Q(s_z1[:2], rt1, rep1)

    def test_power_traces(self, q1, can2, zcoords, params_abcd):
        syms = zcoords + tuple(params_abcd.values())
        dom = self.domain(can2, q1)
        got = invariants(q1, 3)
        expected = parse_over(
            ("d*z4 + 2*z3", "(d*z4)^2 + 2*z3^2", "(d*z4)^3 + 2*z3^3"), syms
        )
        for g, e in zip(got, expected):
            assert_same(g, e, dom)

    def test_trace_cyclicity(self, q1, can2):
        dom = self.domain(can2, q1)
        direct = sum_of(
            [q1.entries[a][b] * q1.entries[b][a] for a in range(4) for b in range(4)]
        )
        assert_same(direct, invariants(q1, 2)[1], dom)

    def test_group_side_traces(self, px1, s_x1, rt1, rep1, xcoords, params_abcd):
        q = build_Q(s_x1, rt1, rep1)
        syms = xcoords + tuple(params_abcd.values())
        dom = field_domain(px1, [e for row in q.entries for e in row])
        expected = parse_over(
            (
                "d*(x3 - exp(-x1)/2) + exp(2*x1)*(x2 + 2*x4)/(1 - exp(x1))",
                "(d*(x3 - exp(-x1)/2))^2 + exp(4*x1)*(x2 + 2*x4)^2/(2*(exp(x1) - 1)^2)",
            ),
            syms,
        )
        got = invariants(q, 2)
        for g, e in zip(got, expected):
            assert_same(g, e, dom)

    def test_kmax_validated(self, q1):
        with pytest.raises(ValueError):
            invariants(q1, 0)


class TestSts:
    def test_holds_in_darboux_coordinates(self, q1, rt1, rep1, can2):
        assert sts_residual(q1, rt1, rep1, can2).zero

    def test_holds_in_group_coordinates(self, px1, s_x1, rt1, rep1):
        q = build_Q(s_x1, rt1, rep1)
        assert sts_residual(q, rt1, rep1, px1).zero

    def test_perturbed_r_fails(self, s_z1, rep1, can2):
        # the (2, 3) slot is not a flat direction of the identity; the same
        # perturbation also breaks the classical bracket-compatibility check
        bad = RMatrix.from_wedge(
            4,
            {(0, 1): Fraction(-1, 2), (0, 3): -1, (1, 2): -1, (2, 3): 1},
            variance="lower",
        )
        q = build_Q(s_z1, bad, rep1)
        rep = sts_residual(q, bad, rep1, can2)
        assert not rep.zero
        assert rep.max_residual > 1e-3

    def test_zero_r_trivial(self, s_z1, rep1, can2):
        zero = RMatrix.from_wedge(4, {}, variance="lower")
        q = build_Q(s_z1, zero, rep1)
        assert sts_residual(q, zero, rep1, can2).zero


class TestInvolution:
    def test_pairwise_matrix(self, can2, s_z1):
        comm = involution_check(can2, s_z1)
        assert comm == [
            [True, True, True, False],
            [True, True, False, False],
            [True, False, True, True],
            [False, False, True, True],
        ]

    def test_families_darboux_side(self, sys_z1):
        assert find_involutive_pairs(sys_z1) == [(0, 1), (0, 2), (2, 3)]

    def test_families_group_side(self, px1, s_x1, ft_a490):
        sys = DynamicalSystem(px1, s_x1, ft_a490)
        assert find_involutive_pairs(sys) == [(0, 1), (0, 2), (2, 3)]

    def test_families_dual_side(self, py1, st_y1, f_a49iv):
        sys = DynamicalSystem(py1, st_y1, f_a49iv)
        assert find_involutive_pairs(sys) == [(1, 3), (2, 3)]

    def test_abelian_full_set(self, can2, zcoords):
        target = StructureConstants.from_brackets(4, {}, "upper")
        S = parse_over(("z1", "z2", "z1 + z2", "z1*z2"), zcoords)
        sys = DynamicalSystem(can2, S, target)
        assert symmetry_residual(sys).zero
        assert find_involutive_pairs(sys) == [(0, 1, 2, 3)]

    def test_invariants_commute(self, can2, zcoords, params_abcd):
        syms = zcoords + (params_abcd["d"],)
        F = parse_over(("d*z4 + 2*z3", "(d*z4)^2 + 2*z3^2"), syms)
        comm = involution_check(can2, F)
        assert comm == [[True, True], [True, True]]
        assert independence_rank(zcoords, F) == 2
        # these are ex1's invariants; at seed 401 one sample lies on the locus
        # z3 = d*z4, where their Jacobian drops to rank 1
        assert independence_rank(zcoords, F, seed=401) == 2

    def test_dependent_functions_drop_rank(self, zcoords, params_abcd):
        syms = zcoords + (params_abcd["d"],)
        F = parse_over(("d*z4 + 2*z3", "(d*z4 + 2*z3)^2"), syms)
        assert independence_rank(zcoords, F) == 1

    def test_coordinates_full_rank(self, zcoords):
        F = parse_over(("z1", "z2", "z3", "z4"), zcoords)
        assert independence_rank(zcoords, F) == 4

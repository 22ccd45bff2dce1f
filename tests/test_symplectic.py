"""Symplectic layer: closure, inversion, brackets, field Jacobi."""

from fractions import Fraction

import pytest

from bisymplectic.expr import (
    Neg,
    SampleDomain,
    Sym,
    Symbol,
    equiv_zero,
    evaluate,
    parse_expr,
)
from bisymplectic.liealg import StructureConstants
from bisymplectic.linalg import expr_eval_matrix, frac_inverse
from bisymplectic.symplectic import (
    PoissonField,
    SymplecticForm,
    canonical_field,
    check_field_skew,
    check_nondegenerate,
    closure_residual,
    constant_field,
    field_domain,
    invert_omega,
    jacobi_residual_field,
    poisson_bracket,
)

X = {f"x{i}": Symbol(f"x{i}") for i in range(1, 5)}
XC = tuple(X[f"x{i}"] for i in range(1, 5))


def xp(text: str):
    return parse_expr(text, X)


def closure_oracle(fv, wv):
    """Brute-force cyclic residual f_ij^l w_lk + f_ik^l w_lj + f_jk^l w_li
    over increasing triples."""
    d = len(wv)
    worst = Fraction(0)
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = Fraction(0)
                for l in range(d):
                    acc += fv[i][j][l] * wv[l][k] + fv[i][k][l] * wv[l][j] + fv[j][k][l] * wv[l][i]
                worst = max(worst, abs(acc))
    return worst


class TestForm:
    def test_from_upper_fills_skew(self):
        w = SymplecticForm.from_upper(2, {(0, 1): Fraction(3, 2)})
        assert evaluate(w.entry(0, 1), {}) == Fraction(3, 2)
        assert evaluate(w.entry(1, 0), {}) == Fraction(-3, 2)

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            SymplecticForm.from_upper(2, {(1, 0): 1})

    def test_nondegeneracy(self):
        good = SymplecticForm.from_upper(4, {(0, 2): 1, (1, 3): 1})
        assert check_nondegenerate(good).ok
        bad = SymplecticForm.from_upper(4, {(0, 2): 1})
        rep = check_nondegenerate(bad)
        assert not rep.ok and rep.max_abs == 0


class TestClosure:
    def test_abelian_closes_any_skew(self):
        f = StructureConstants.from_brackets(3, {})
        w = SymplecticForm.from_upper(3, {(0, 1): 2, (0, 2): -3, (1, 2): Fraction(1, 7)})
        rep = closure_residual(w, f)
        assert rep.ok and rep.alternating.ok

    def test_two_dim_closes(self):
        # any 2-form differential vanishes in two dimensions
        f = StructureConstants.from_brackets(2, {(0, 1, 1): 1})
        w = SymplecticForm.from_upper(2, {(0, 1): 1})
        rep = closure_residual(w, f)
        oracle = closure_oracle(f.evaluated({}), [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
        assert oracle == 0
        assert rep.ok and rep.max_abs == oracle

    def test_block_sum_pairing_matches_oracle(self):
        f = StructureConstants.from_brackets(4, {(0, 1, 1): 1, (2, 3, 3): 1})
        w = SymplecticForm.from_upper(4, {(0, 1): 1, (2, 3): 1})
        rep = closure_residual(w, f)
        wv = [[Fraction(evaluate(e, {})) for e in row] for row in w.entries]
        assert rep.max_abs == closure_oracle(f.evaluated({}), wv)
        assert rep.ok
        assert check_nondegenerate(w).ok

    def test_failing_form_matches_oracle(self):
        f = StructureConstants.from_brackets(4, {(0, 1, 1): 1, (2, 3, 3): 1})
        w = SymplecticForm.from_upper(4, {(0, 2): 1, (1, 3): 1})
        rep = closure_residual(w, f)
        wv = [[Fraction(evaluate(e, {})) for e in row] for row in w.entries]
        oracle = closure_oracle(f.evaluated({}), wv)
        assert oracle > 0
        assert not rep.ok and rep.max_abs == oracle
        assert rep.cyclic.witness is not None

    def test_sign_conventions_can_disagree(self, f_a49iv):
        # on the triple (1,3,4) the two contractions f_13^l w_l4 and
        # f_14^l w_l3 cancel in the cyclic sum but add in the alternating
        # one, so any closed form with w_34 != 0 separates the conventions
        w = SymplecticForm.from_upper(
            4, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): -2}
        )
        rep = closure_residual(w, f_a49iv)
        assert check_nondegenerate(w).ok
        assert rep.cyclic.ok
        assert not rep.alternating.ok
        assert rep.alternating.max_abs == 2
        assert not rep.conventions_agree


class TestInvert:
    def test_canonical_inverse(self):
        w = SymplecticForm.from_upper(4, {(0, 2): 1, (1, 3): 1})
        P = invert_omega(w)
        pv = expr_eval_matrix(P, {})
        wv = expr_eval_matrix(w.matrix(), {})
        assert frac_inverse(wv) == pv
        assert pv == [[-x for x in row] for row in wv]

    def test_scaling(self):
        w = SymplecticForm.from_upper(4, {(0, 2): 2, (1, 3): 2})
        pv = expr_eval_matrix(invert_omega(w), {})
        single = SymplecticForm.from_upper(4, {(0, 2): 1, (1, 3): 1})
        half = expr_eval_matrix(invert_omega(single), {})
        assert pv == [[x / 2 for x in row] for row in half]

    def test_random_skew_against_exact_solve(self):
        import random

        rng = random.Random(9)
        while True:
            upper = {
                (i, j): Fraction(rng.randint(-4, 4))
                for i in range(4)
                for j in range(i + 1, 4)
            }
            w = SymplecticForm.from_upper(4, upper)
            if check_nondegenerate(w).ok:
                break
        pv = expr_eval_matrix(invert_omega(w), {})
        assert pv == frac_inverse(expr_eval_matrix(w.matrix(), {}))

    def test_double_inversion_round_trip(self):
        w = SymplecticForm.from_upper(4, {(0, 1): 3, (0, 2): 1, (1, 3): -2, (2, 3): 5})
        P = invert_omega(w)
        back = invert_omega(SymplecticForm(4, tuple(tuple(row) for row in P)))
        assert expr_eval_matrix(back, {}) == expr_eval_matrix(w.matrix(), {})


class TestBracket:
    def test_canonical_pairing(self):
        zc = tuple(Symbol(f"z{i}") for i in range(1, 5))
        field = canonical_field(zc)
        z = {s.name: Sym(s) for s in zc}
        assert evaluate(poisson_bracket(field, z["z1"], z["z3"]), {}) == 1
        assert evaluate(poisson_bracket(field, z["z3"], z["z1"]), {}) == -1
        assert evaluate(poisson_bracket(field, z["z1"], z["z2"]), {}) == 0

    def test_catalog_entry_against_table(self, px1):
        got = poisson_bracket(px1, Sym(X["x2"]), Sym(X["x4"]))
        residual = got - xp("x2 * exp(-x1)")
        assert equiv_zero(residual, field_domain(px1)).zero

    def test_self_bracket_vanishes(self, px1):
        for f in (xp("x1^2 * exp(-x2) + x3"), xp("x4 / (1 + x1^2)"), xp("exp(x1 - x3) * x2")):
            assert equiv_zero(poisson_bracket(px1, f, f), field_domain(px1)).zero

    def test_antisymmetry(self, px1):
        f, g = xp("x1 * x3"), xp("exp(-x2) + x4")
        s = poisson_bracket(px1, f, g) + poisson_bracket(px1, g, f)
        assert equiv_zero(s, field_domain(px1)).zero

    def test_leibniz_rule(self, px1):
        f = xp("x1 + x2^2")
        g = xp("exp(-x3)")
        h = xp("x4 * x1")
        lhs = poisson_bracket(px1, f, g * h)
        rhs = g * poisson_bracket(px1, f, h) + h * poisson_bracket(px1, f, g)
        assert equiv_zero(lhs - rhs, field_domain(px1)).zero

    def test_function_level_jacobi(self, px1):
        f, g, h = xp("x1 * x2"), xp("x3"), xp("x2 * x4")
        acc = (
            poisson_bracket(px1, f, poisson_bracket(px1, g, h))
            + poisson_bracket(px1, g, poisson_bracket(px1, h, f))
            + poisson_bracket(px1, h, poisson_bracket(px1, f, g))
        )
        assert equiv_zero(acc, field_domain(px1)).zero


class TestFieldChecks:
    def test_constant_canonical_jacobi(self):
        zc = tuple(Symbol(f"z{i}") for i in range(1, 5))
        rep = jacobi_residual_field(canonical_field(zc))
        assert rep.zero and rep.max_residual == 0.0

    def test_catalog_field_jacobi(self, px1):
        assert jacobi_residual_field(px1).zero

    def test_dual_catalog_field_jacobi(self, py1):
        assert jacobi_residual_field(py1).zero

    def test_corrupted_entry_breaks_jacobi(self, px1):
        # dropping the exponential from the (2,4) entry leaves a residual
        # of (1 - exp(-x1))^2 on the (2,3,4) triple
        rows = [list(r) for r in px1.entries]
        rows[1][3] = Sym(X["x2"])
        rows[3][1] = Neg(Sym(X["x2"]))
        bad = PoissonField(4, px1.coords, tuple(tuple(r) for r in rows))
        rep = jacobi_residual_field(bad)
        assert not rep.zero
        assert rep.max_residual > 1e-3
        assert rep.witness is not None

    def test_skew_check(self, px1):
        assert check_field_skew(px1).zero
        rows = [list(r) for r in px1.entries]
        rows[3][0] = rows[0][3]
        assert not check_field_skew(PoissonField(4, px1.coords, tuple(tuple(r) for r in rows))).zero

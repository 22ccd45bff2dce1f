"""Expression layer: grammar, exactness, derivatives, identity testing."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bisymplectic.expr import (
    ABS_TOL,
    COMPILE_CACHE_SIZE,
    DEN_GUARD,
    Exp,
    InconclusiveError,
    IntPower,
    Neg,
    Product,
    Quotient,
    Rat,
    SampleDomain,
    SingularPointError,
    Sum,
    Sym,
    Symbol,
    UnknownSymbolError,
    PARAMETER_POOL,
    POINT_CACHE_SIZE,
    REL_TOL,
    TRIALS,
    ZeroTestReport,
    _emit_lines,
    _exec_source,
    compile_exprs,
    diff,
    equiv_zero,
    evaluate,
    evaluate_with_scale,
    exp,
    free_symbols,
    parse_expr,
    render,
    sample_point,
    sample_row,
    sample_rows,
    subst,
    trial_rng,
)


def syms(*names):
    return {n: Symbol(n) for n in names}


X = syms("x1", "x2", "x3", "x4")
x1, x2 = Sym(X["x1"]), Sym(X["x2"])


class TestParse:
    def test_flat_sum_with_subtraction(self):
        t = parse_expr("x1 - x2 + 3", X)
        assert t == Sum(Sym(X["x1"]), Neg(Sym(X["x2"])), Rat(3))

    def test_rational_literal_is_a_quotient(self):
        t = parse_expr("1/2", X)
        assert t == Quotient(Rat(1), Rat(2))
        assert evaluate(t, {}) == Fraction(1, 2)

    def test_precedence(self):
        t = parse_expr("x1 + x2 * x1^2", X)
        assert t == Sum(Sym(X["x1"]), Product(Sym(X["x2"]), IntPower(Sym(X["x1"]), 2)))

    def test_unary_minus_binds_inside_power(self):
        # the grammar reads '-x1^2' as (-x1)^2
        t = parse_expr("-x1^2", X)
        assert t == IntPower(Neg(Sym(X["x1"])), 2)
        assert evaluate(t, {"x1": 3}) == 9

    def test_exp_and_negative_exponent(self):
        t = parse_expr("exp(-2*x1)^-1", X)
        assert t == IntPower(Exp(Product(Neg(Rat(2)), Sym(X["x1"]))), -1)

    def test_unknown_symbol_is_named(self):
        with pytest.raises(UnknownSymbolError, match="nope"):
            parse_expr("x1 + nope", X)

    def test_garbage_rejected(self):
        for bad in ("x1 +", "(x1", "x1 ** 2", "2 x1", "x1 ^ x2"):
            with pytest.raises(Exception):
                parse_expr(bad, X)


class TestEvaluate:
    def test_exact_rational_arithmetic(self):
        t = parse_expr("(3/7 + 2)^2", X)
        v = evaluate(t, {})
        assert isinstance(v, Fraction)
        assert v == Fraction(289, 49)  # (17/7)^2 by hand

    def test_group_bracket_entry_at_log2(self):
        # (1 + e^{-2 x1} - 2 e^{-x1})/2 at x1 = ln 2: (1 + 1/4 - 1)/2 = 1/8
        t = parse_expr("(1 + exp(-2*x1) - 2*exp(-x1))/2", X)
        assert evaluate(t, {"x1": math.log(2.0)}) == pytest.approx(0.125, abs=1e-14)

    def test_den_guard_triggers(self):
        t = parse_expr("1/(x1 - x1)", X)
        with pytest.raises(SingularPointError):
            evaluate(t, {"x1": Fraction(1, 3)})
        t2 = parse_expr("(x1 - 1/5)^-2", X)
        with pytest.raises(SingularPointError):
            evaluate(t2, {"x1": Fraction(1, 5)})

    def test_scale_tracks_largest_intermediate(self):
        t = parse_expr("(1000000 * x1) * (1/1000000) - x1", X)
        v, scale = evaluate_with_scale(t, {"x1": 1.0})
        assert scale >= 1.0e6
        assert abs(v) < 1e-9

    def test_negative_power_exact(self):
        t = parse_expr("x1^-2", X)
        assert evaluate(t, {"x1": Fraction(2, 3)}) == Fraction(9, 4)


class TestRoundTrip:
    STRINGS = [
        "x1 - x2 + 3",
        "(1 + exp(-2*x1) - 2*exp(-x1))/2",
        "-x1^2",
        "x2 * exp(-x1)",
        "1/2 * x1 + x2/3",
        "x1 / (x2 * x3)",
        "-(x1 + x2) * x3",
        "exp(x1)^2 - exp(2*x1)",
        "x1 - x2 - x3 - 1/4",
        "(x1 + 1/2)^3 / (x2 - x3)^2",
    ]

    @pytest.mark.parametrize("text", STRINGS)
    def test_parse_render_parse_is_stable(self, text):
        t1 = parse_expr(text, X)
        t2 = parse_expr(render(t1), X)
        assert t1 == t2

    @pytest.mark.parametrize("text", STRINGS)
    def test_round_trip_evaluates_identically(self, text):
        t1 = parse_expr(text, X)
        t2 = parse_expr(render(t1), X)
        rng = random.Random(7)
        dom = SampleDomain(coords=tuple(X.values()))
        for _ in range(20):
            env = sample_point(dom, rng)
            try:
                v1 = evaluate(t1, env)
            except SingularPointError:
                continue
            v2 = evaluate(t2, env)
            assert v1 == v2  # identical trees, identical value path

    def test_programmatic_fraction_renders_value_correctly(self):
        t = Rat(Fraction(-3, 2))
        again = parse_expr(render(t), X)
        assert evaluate(again, {}) == Fraction(-3, 2)


def _random_expr(rng, symbols, depth):
    """Quotient-free random tree for derivative property tests."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Sym(rng.choice(symbols))
        return Rat(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
    kind = rng.choice(["sum", "prod", "pow", "exp", "neg"])
    if kind == "sum":
        return Sum(_random_expr(rng, symbols, depth - 1), _random_expr(rng, symbols, depth - 1))
    if kind == "prod":
        return Product(_random_expr(rng, symbols, depth - 1), _random_expr(rng, symbols, depth - 1))
    if kind == "pow":
        return IntPower(_random_expr(rng, symbols, depth - 1), rng.choice([2, 3]))
    if kind == "exp":
        return Exp(_random_expr(rng, symbols, 1))
    return Neg(_random_expr(rng, symbols, depth - 1))


class TestDiff:
    def test_central_difference_oracle_at_one(self):
        t = parse_expr("(1 + exp(-2*x1) - 2*exp(-x1))/2", X)
        d = diff(t, X["x1"])
        h = 1e-5
        fd = (evaluate(t, {"x1": 1.0 + h}) - evaluate(t, {"x1": 1.0 - h})) / (2 * h)
        got = evaluate(d, {"x1": 1.0})
        assert got == pytest.approx(fd, rel=1e-8)

    def test_central_difference_many_points(self):
        exprs = [
            "x1 * x2 * exp(-x1)",
            "(x1 + x2)^3",
            "x2 / (x1 + 2)",
            "exp(x1 * x2) - x1^2",
        ]
        rng = random.Random(11)
        dom = SampleDomain(coords=(X["x1"], X["x2"]))
        for text in exprs:
            t = parse_expr(text, X)
            for s in ("x1", "x2"):
                d = diff(t, X[s])
                for _ in range(10):
                    env = {k: float(v) for k, v in sample_point(dom, rng).items()}
                    h = 1e-5
                    up = dict(env, **{s: env[s] + h})
                    dn = dict(env, **{s: env[s] - h})
                    fd = (evaluate(t, up) - evaluate(t, dn)) / (2 * h)
                    assert evaluate(d, env) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_product_rule_property(self):
        rng = random.Random(23)
        symbols = list(X.values())[:2]
        dom = SampleDomain(coords=tuple(symbols))
        for _ in range(25):
            f = _random_expr(rng, symbols, 4)
            g = _random_expr(rng, symbols, 4)
            lhs = diff(Product(f, g), X["x1"])
            rhs = Sum(Product(diff(f, X["x1"]), g), Product(f, diff(g, X["x1"])))
            rep = equiv_zero(lhs - rhs, dom, seed=rng.randint(0, 10**6), trials=5)
            assert rep.zero, f"product rule broke on {render(f)} | {render(g)}"

    def test_linearity_property(self):
        rng = random.Random(29)
        symbols = list(X.values())[:2]
        dom = SampleDomain(coords=tuple(symbols))
        for _ in range(25):
            f = _random_expr(rng, symbols, 3)
            g = _random_expr(rng, symbols, 3)
            a, b = Fraction(3, 2), Fraction(-2)
            lhs = diff(Rat(a) * f + Rat(b) * g, X["x2"])
            rhs = Rat(a) * diff(f, X["x2"]) + Rat(b) * diff(g, X["x2"])
            rep = equiv_zero(lhs - rhs, dom, seed=rng.randint(0, 10**6), trials=5)
            assert rep.zero

    def test_constant_and_unrelated_symbol(self):
        assert diff(Rat(5), X["x1"]) == Rat(0)
        assert diff(x2, X["x1"]) == Rat(0)
        assert diff(x1, X["x1"]) == Rat(1)


class TestSubstFreeSymbols:
    def test_subst_composes(self):
        t = parse_expr("x1^2 + x2", X)
        out = subst(t, {"x1": parse_expr("x3 + 1", X)})
        assert out == parse_expr("(x3 + 1)^2 + x2", X)

    def test_free_symbols(self):
        t = parse_expr("x1 * exp(x3) - 2", X)
        assert {s.name for s in free_symbols(t)} == {"x1", "x3"}


class TestEquivZero:
    def test_nontrivial_identity_passes(self):
        t = parse_expr("exp(x1) * exp(-x1) - 1", X)
        rep = equiv_zero(t, SampleDomain(coords=(X["x1"],)), seed=3)
        assert rep.zero
        assert rep.witness is None

    def test_nonidentity_fails_with_witness(self):
        t = parse_expr("x1 - x2", X)
        rep = equiv_zero(t, SampleDomain(coords=(X["x1"], X["x2"])), seed=3)
        assert not rep.zero
        assert rep.witness is not None
        assert set(rep.witness) == {"x1", "x2"}
        assert rep.max_residual > 1e-3

    def test_relative_tolerance_uses_scale(self):
        t = parse_expr("(1000000 * x1) * (1/1000000) - x1", X)
        rep = equiv_zero(t, SampleDomain(coords=(X["x1"],)), seed=5)
        assert rep.zero

    def test_all_singular_is_inconclusive(self):
        t = parse_expr("1/(x1 - x1)", X)
        with pytest.raises(InconclusiveError):
            equiv_zero(t, SampleDomain(coords=(X["x1"],)), seed=1)

    def test_determinism_per_seed(self):
        t = parse_expr("exp(x1) - 1 - x1", X)  # not identically zero
        dom = SampleDomain(coords=(X["x1"],))
        r1 = equiv_zero(t, dom, seed=42)
        r2 = equiv_zero(t, dom, seed=42)
        assert (r1.zero, r1.max_residual, r1.witness) == (r2.zero, r2.max_residual, r2.witness)
        seq42 = [sample_point(dom, trial_rng(42, k)) for k in range(20)]
        seq43 = [sample_point(dom, trial_rng(43, k)) for k in range(20)]
        assert seq42 == [sample_point(dom, trial_rng(42, k)) for k in range(20)]
        assert seq42 != seq43

    def test_parameter_pool_and_coord_range(self):
        dom = SampleDomain(coords=(X["x1"],), params=(Symbol("a", "parameter"),))
        for trial in range(50):
            env = sample_point(dom, trial_rng(9, trial))
            assert Fraction(1, 5) <= env["x1"] <= Fraction(3, 2)
            assert env["a"] in PARAMETER_POOL
            assert env["a"] != 0


class TestCompiled:
    def test_matches_interpreter(self):
        texts = [
            "(1 + exp(-2*x1) - 2*exp(-x1))/2",
            "x2 * exp(-x1) + x1^-1",
            "x1/(x2 - 2) - (x1 + x2)^3",
        ]
        trees = [parse_expr(s, X) for s in texts]
        fn = compile_exprs(trees, ["x1", "x2"])
        rng = random.Random(31)
        dom = SampleDomain(coords=(X["x1"], X["x2"]))
        for _ in range(15):
            env = sample_point(dom, rng)
            try:
                want = [float(evaluate(t, env)) for t in trees]
            except SingularPointError:
                continue
            got, scale = fn([float(env["x1"]), float(env["x2"])])
            assert scale > 0
            for w, g in zip(want, got):
                assert g == pytest.approx(w, rel=1e-12, abs=1e-12)

    def test_compiled_guard_raises(self):
        t = parse_expr("1/(x1 - 1)", X)
        fn = compile_exprs([t], ["x1"])
        with pytest.raises(SingularPointError):
            fn([1.0 + 1e-12])

    def test_shared_subtrees_emitted_once(self):
        big = parse_expr("exp(x1) + x2", X)
        user1 = Product(big, big)
        user2 = Sum(big, Rat(1))
        fn = compile_exprs([user1, user2], ["x1", "x2"])
        v, _ = fn([0.0, 1.0])
        assert v[0] == pytest.approx(4.0)
        assert v[1] == pytest.approx(3.0)


class TestCompileCache:
    def test_equal_sources_reuse_one_function(self):
        # two parses are two trees, but they generate the same source
        first = compile_exprs([parse_expr("x1 * exp(x2) + 1/x1", X)], ["x1", "x2"])
        again = compile_exprs([parse_expr("x1 * exp(x2) + 1/x1", X)], ["x1", "x2"])
        assert again is first

    def test_den_guard_is_part_of_the_key(self):
        # no quotient: the sources are equal, the entries are not
        plain = [parse_expr("x1 + 3", X)]
        assert compile_exprs(plain, ["x1"], den_guard=1e-8) is not compile_exprs(plain, ["x1"], den_guard=0.5)
        # with a quotient each function guards, and reports, its own bound
        pole = [parse_expr("1/(x1 - 1)", X)]
        tight = compile_exprs(pole, ["x1"], den_guard=1e-8)
        wide = compile_exprs(pole, ["x1"], den_guard=0.5)
        assert tight([1.25])[0] == [4.0]
        with pytest.raises(SingularPointError, match="within 0.5 of zero"):
            wide([1.25])
        with pytest.raises(SingularPointError, match="within 1e-08 of zero"):
            tight([1.0])

    def test_cache_stays_within_its_bound(self):
        for k in range(2 * COMPILE_CACHE_SIZE + 5):
            compile_exprs([Sum(x1, Rat(k))], ["x1"])
        info = _exec_source.cache_info()
        assert info.maxsize == COMPILE_CACHE_SIZE
        assert info.currsize <= COMPILE_CACHE_SIZE


@st.composite
def _compilable(draw, symbols, depth):
    """Random tree over every node type, exponents -2..3."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return Sym(draw(st.sampled_from(symbols)))
        return Rat(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 5))))
    kind = draw(st.sampled_from(["sum", "prod", "quot", "pow", "exp", "neg"]))
    sub = _compilable(symbols, depth - 1)
    if kind == "sum":
        return Sum(draw(sub), draw(sub), *([draw(sub)] if draw(st.booleans()) else []))
    if kind == "prod":
        return Product(draw(sub), draw(sub))
    if kind == "quot":
        return Quotient(draw(sub), draw(sub))
    if kind == "pow":
        return IntPower(draw(sub), draw(st.integers(-2, 3)))
    if kind == "exp":
        return Exp(draw(_compilable(symbols, 1)))
    return Neg(draw(sub))


def _per_temporary_kernel(exprs, names, den_guard=DEN_GUARD):
    """The kernel with the scale taken the plain way: every temporary's
    assignment is followed by its own ``_s = max(_s, |t|)``, the absolute
    value written as a comparison.  The reference for ``compile_exprs``'s
    single ``max``."""
    lines, results, temps = _emit_lines(exprs, names, den_guard)
    assigned = set(temps)
    body = ["def _fn(_v):", "    _s = 0.0"]
    for line in lines:
        body.append(f"    {line}")
        var = line.split(" = ", 1)[0]
        if var in assigned:
            body.append(f"    _s = _m(_s, {var} if {var} >= 0.0 else -{var})")
    body.append(f"    return [{', '.join(results)}], _s")

    def _sing(value):
        raise SingularPointError(f"denominator {value!r} within {den_guard} of zero")

    scope = {"_exp": math.exp, "_m": max, "_sing": _sing}
    exec("\n".join(body), scope)
    return scope["_fn"]


def _run(fn, row):
    """Everything a kernel call shows, bit for bit: the values and the scale
    as their reprs (which tell -0.0 from 0.0), or the error raised."""
    try:
        values, scale = fn(row)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return repr(values), repr(scale)


# inputs that make -0.0, NaN and infinite intermediates
SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e-300, 0.5, -1.25, 3.0])


class TestCompiledProperty:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_compilable([X["x1"], X["x2"], X["x3"]], 4), min_size=1, max_size=4),
           st.one_of(st.integers(0, 10**6), st.lists(SPECIAL, min_size=3, max_size=3)))
    def test_compiled_agrees_with_evaluate(self, trees, point):
        """The whole list, then every subtree alone: the kernel equals the
        per-temporary reference bit for bit, and at a sampled point (drawn
        from a seed) it agrees with exact evaluation.  A row of SPECIAL
        values makes -0.0, NaN and infinite intermediates."""
        names = ["x1", "x2", "x3"]
        env = None
        if isinstance(point, int):
            dom = SampleDomain(coords=(X["x1"], X["x2"], X["x3"]))
            env = sample_point(dom, trial_rng(point, 0))
            point = [float(env[n]) for n in names]
        for exprs in [trees] + [[p] for t in trees for p in _subtrees(t)]:
            fn = compile_exprs(exprs, names)
            assert _run(fn, point) == _run(_per_temporary_kernel(exprs, names), point)
            if env is None:
                continue
            try:
                want = [evaluate_with_scale(t, env) for t in exprs]
            except (SingularPointError, OverflowError):
                continue
            got, scale = fn(point)
            assert scale == pytest.approx(max(s for _, s in want), rel=1e-9)
            for g, (w, s) in zip(got, want):
                assert abs(g - float(w)) <= 1e-9 * (1.0 + s)

    def test_negative_zero_and_nan_never_become_the_scale(self):
        trees = [Neg(x1), Sum(x1, x2)]  # temporaries x1, -x1, x2, x1 + x2
        fn = compile_exprs(trees, ["x1", "x2"])
        for row in ([0.0, math.nan], [-0.0, math.nan], [math.nan, -0.0], [math.nan, math.nan]):
            assert _run(fn, row) == _run(_per_temporary_kernel(trees, ["x1", "x2"]), row)
            assert repr(fn(row)[1]) == "0.0"
        assert fn([math.nan, -2.5])[1] == 2.5
        assert compile_exprs([], ["x1"])([1.0]) == ([], 0.0)


@st.composite
def _quadratic(draw, x, others, depth):
    """A tree of degree <= 2 in ``x`` and that degree bound; ``x`` appears
    in no divisor, so ``x``-free quotients only scale the coefficients."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaf = draw(st.sampled_from([x, *others, None]))
        if leaf is None:
            return Rat(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 5)))), 0
        return Sym(leaf), int(leaf is x)
    kind = draw(st.sampled_from(["sum", "prod", "quot", "square", "neg"]))
    a, da = draw(_quadratic(x, others, depth - 1))
    if kind == "neg":
        return Neg(a), da
    if kind == "square":
        return (IntPower(a, 2), 2 * da) if da <= 1 else (a, da)
    b, db = draw(_quadratic(x, others, depth - 1))
    if kind == "prod" and da + db <= 2:
        if draw(st.booleans()):  # a third factor, when the degree allows it
            c, dc = draw(_quadratic(x, others, 0))
            if da + db + dc <= 2:
                return Product(a, b, c), da + db + dc
        return Product(a, b), da + db
    if kind == "quot" and db == 0:
        return Quotient(a, b), da
    return Sum(a, b), max(da, db)


PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


def _subtrees(t):
    """``t`` and every node below it."""
    yield t
    if isinstance(t, Sum):
        children = t.terms
    elif isinstance(t, Product):
        children = t.factors
    elif isinstance(t, Quotient):
        children = (t.num, t.den)
    elif isinstance(t, IntPower):
        children = (t.base,)
    elif isinstance(t, (Exp, Neg)):
        children = (t.arg,)
    else:
        children = ()
    for child in children:
        yield from _subtrees(child)


def _contexts(t, u):
    """``t`` alone and as a child of each kind of node, so that every node
    type meets every parent's precedence: drawn trees alone rarely nest that
    way (in 200 draws of depth 4, none held a sum subtracted inside a sum)."""
    return [t, Sum(u, t), Sum(t, u), Sum(u, Neg(t)), Sum(Neg(t), u), Product(u, t), Product(t, u),
            Quotient(u, t), Quotient(t, u), IntPower(t, 2), IntPower(t, -1), Neg(t), Exp(t)]


class TestExpressionProperties:
    @PROPERTY
    @given(_compilable([X["x1"], X["x2"], X["x3"]], 3), _compilable([X["x1"], X["x2"]], 1),
           st.integers(0, 10**6))
    def test_render_parse_is_stable_after_one_round(self, t, u, seed):
        env = sample_point(SampleDomain(coords=(X["x1"], X["x2"], X["x3"])), trial_rng(seed, 0))
        for tree in _contexts(t, u):
            once = parse_expr(render(tree), X)
            twice = parse_expr(render(once), X)
            assert twice == once
            assert render(twice) == render(once)
            try:
                want = evaluate(tree, env)
            except (SingularPointError, OverflowError) as exc:
                with pytest.raises(type(exc)):
                    evaluate(once, env)
                continue
            got = evaluate(once, env)
            assert type(got) is type(want)
            assert got == want

    @PROPERTY
    @given(_quadratic(X["x1"], [X["x2"], X["x3"]], 4), RATIONALS, RATIONALS, RATIONALS,
           st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))
    def test_diff_equals_central_difference_on_quadratics(self, case, a, b, c, h):
        env = {"x1": a, "x2": b, "x3": c}
        for p in _subtrees(case[0]):  # each one is of degree <= 2 in x1 as well
            try:
                up = evaluate(p, dict(env, x1=a + h))
                dn = evaluate(p, dict(env, x1=a - h))
                got = evaluate(diff(p, X["x1"]), env)
            except SingularPointError:
                continue
            assert isinstance(got, Fraction)
            assert got == (up - dn) / (2 * h)


def reference_equiv_zero(exprs, domain, seed=0, trials=TRIALS, abs_tol=ABS_TOL, rel_tol=REL_TOL,
                         den_guard=DEN_GUARD):
    """The zero test as a plain loop: a fresh ``sample_point`` per trial and
    the per-temporary scale.  ``equiv_zero`` must report exactly this."""
    items = list(exprs)
    if not items:
        return ZeroTestReport(True, 0.0, None, None, 0, 0)
    names = domain.names()
    fn = _per_temporary_kernel(items, names, den_guard)
    worst = 0.0
    worst_fail = -1.0
    witness = None
    witness_index = None
    zero = True
    singular = 0
    for trial in range(trials):
        env = sample_point(domain, trial_rng(seed, trial))
        try:
            values, scale = fn([float(env[n]) for n in names])
        except (SingularPointError, OverflowError, ZeroDivisionError):
            singular += 1
            continue
        tol = abs_tol + rel_tol * scale
        for i, v in enumerate(values):
            r = abs(v)
            if r > worst:
                worst = r
            if r > tol:
                zero = False
                if r > worst_fail:
                    worst_fail = r
                    witness = dict(env)
                    witness_index = i
    if singular == trials:
        raise InconclusiveError(f"all {trials} sampled points were singular")
    return ZeroTestReport(zero, worst, witness, witness_index, trials, singular)


def _report(test, *args, **kwargs):
    """A zero test's report field by field, or the inconclusive verdict."""
    try:
        rep = test(*args, **kwargs)
    except InconclusiveError as exc:
        return "inconclusive", str(exc)
    return rep.zero, repr(rep.max_residual), rep.witness, rep.witness_index, rep.trials, rep.singular_trials


A, B, C = Symbol("a", "parameter"), Symbol("b", "parameter"), Symbol("c")
HUGE = Rat(10**200)  # a float product of two of these is inf


@st.composite
def _zero_test_case(draw):
    """A residual list over a drawn domain (coordinates, parameters, a pinned
    ``c``), some of it made to trip the guard, overflow ``exp``, give NaN,
    cancel exactly, or tie with an earlier residual."""
    coords = tuple(draw(st.lists(st.sampled_from([X["x1"], X["x2"], X["x3"]]),
                                 min_size=1, max_size=3, unique=True)))
    params = tuple(draw(st.lists(st.sampled_from([A, B]), max_size=2, unique=True)))
    fixed = (("c", draw(RATIONALS)),) if draw(st.booleans()) else ()
    lo, hi = draw(st.sampled_from([(Fraction(1, 5), Fraction(3, 2)), (Fraction(-1), Fraction(1)),
                                   (Fraction(-3), Fraction(-1, 2))]))
    domain = SampleDomain(coords, params, lo, hi, fixed)
    symbols = list(coords + params) + ([C] if fixed else [])
    first = Sym(coords[0])
    trees = []
    for _ in range(draw(st.integers(1, 3))):
        t = draw(_compilable(symbols, 3))
        kind = draw(st.sampled_from(["plain", "plain", "pole", "exp", "nan", "cancel"]))
        if kind == "pole":
            t = Quotient(t, Sum(first, Rat(-draw(st.sampled_from([Fraction(1, 2), Fraction(1)])))))
        elif kind == "exp":
            t = Product(t, Exp(Product(Rat(draw(st.sampled_from([400, 1000]))), first)))
        elif kind == "nan":
            t = Sum(Product(HUGE, HUGE, t), Neg(Product(HUGE, HUGE, t)))
        elif kind == "cancel":
            t = Sum(t, Neg(t))
        trees.append(t)
    if draw(st.booleans()):
        trees.append(trees[-1])  # equal residuals: the first one is the witness
    return trees, domain


class TestEquivZeroReference:
    @settings(PROPERTY, max_examples=150)
    @given(_zero_test_case(), st.integers(-2**40, 2**40), st.integers(1, 6),
           st.sampled_from([0.0, ABS_TOL, 1e-2]), st.sampled_from([0.0, REL_TOL, 1e-1]),
           st.sampled_from([DEN_GUARD, DEN_GUARD, 0.25]))
    def test_equiv_zero_equals_the_plain_loop(self, case, seed, trials, abs_tol, rel_tol, den_guard):
        trees, domain = case
        kwargs = dict(seed=seed, trials=trials, abs_tol=abs_tol, rel_tol=rel_tol, den_guard=den_guard)
        assert _report(equiv_zero, trees, domain, **kwargs) == _report(reference_equiv_zero, trees, domain, **kwargs)

    def test_no_trials_is_inconclusive(self):
        t = parse_expr("x1 - x2", X)
        dom = SampleDomain(coords=(X["x1"], X["x2"]))
        assert _report(equiv_zero, t, dom, trials=0) == _report(reference_equiv_zero, [t], dom, trials=0)
        assert _report(equiv_zero, t, dom, trials=0)[0] == "inconclusive"


class TestPointTable:
    DOMAIN = SampleDomain(coords=(X["x2"], X["x1"]), params=(A,), fixed=(("c", Fraction(1, 3)),))

    def test_rows_are_the_sampled_points_in_name_order(self):
        names = self.DOMAIN.names()
        want = tuple(tuple(float(sample_point(self.DOMAIN, trial_rng(17, k))[n]) for n in names)
                     for k in range(6))
        assert sample_rows(self.DOMAIN, 17, 6) == want
        assert tuple(sample_row(self.DOMAIN, 17, k) for k in range(6)) == want

    def test_equal_domains_share_one_table(self):
        one = SampleDomain(coords=(Symbol("x1"), Symbol("x2")), params=(A,))
        two = SampleDomain(coords=(Symbol("x1"), Symbol("x2")), params=(Symbol("a", "parameter"),))
        assert one is not two and one == two
        assert sample_rows(one, 3, 4) is sample_rows(two, 3, 4)
        assert sample_rows(one, 3, 4) is not sample_rows(one, 3, 5)

    def test_mutated_witness_leaves_later_reports_alone(self):
        t = parse_expr("x1 - x2", X)
        dom = SampleDomain(coords=(X["x1"], X["x2"]))
        first = equiv_zero(t, dom, seed=3)
        want = dict(first.witness)
        first.witness["x1"] = Fraction(99)
        del first.witness["x2"]
        again = equiv_zero(t, dom, seed=3)
        assert again.witness == want
        assert _report(equiv_zero, t, dom, seed=3) == _report(reference_equiv_zero, [t], dom, seed=3)

    def test_cache_stays_within_its_bound(self):
        for k in range(2 * POINT_CACHE_SIZE + 5):
            sample_rows(self.DOMAIN, k, 2)
        info = sample_rows.cache_info()
        assert info.maxsize == POINT_CACHE_SIZE
        assert info.currsize <= POINT_CACHE_SIZE


class TestOperatorSugar:
    def test_operators_build_flattened_trees(self):
        t = x1 + x2 + 3
        assert isinstance(t, Sum) and len(t.terms) == 3
        p = x1 * x2 * x1
        assert isinstance(p, Product) and len(p.factors) == 3

    def test_numeric_coercion(self):
        t = 2 * x1 - Fraction(1, 2)
        assert evaluate(t, {"x1": Fraction(1)}) == Fraction(3, 2)

    def test_exp_helper(self):
        t = exp(-x1)
        assert t == Exp(Neg(x1))

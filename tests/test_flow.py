"""Flow layer: field construction, fixed-step integration, drift audits."""

import ast
import csv
import io
import math
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bisymplectic import flow
from bisymplectic.expr import (
    DEN_GUARD,
    Exp,
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
    compile_exprs,
    equiv_zero,
    parse_expr,
    subst,
    sum_of,
)
from bisymplectic.flow import (
    DriftReport,
    Trajectory,
    canonical_start,
    conservation_drift,
    export_csv,
    hamiltonian_vector_field,
    integrate,
)
from bisymplectic.symplectic import canonical_field, field_domain, poisson_bracket


def parse_over(strings, symbols):
    table = {s.name: s for s in symbols}
    return tuple(parse_expr(text, table) for text in strings)


@pytest.fixture(scope="module")
def uv():
    return (Symbol("u"), Symbol("v"))


@pytest.fixture(scope="module")
def oscillator(uv):
    # u' = v, v' = -u: the flow of H = (u^2 + v^2)/2 under {u, v} = 1
    return parse_over(("v", "-u"), uv)


class TestHamiltonianVectorField:
    def test_canonical_quadratic_gives_rotation(self, zcoords):
        H = parse_expr("(z1^2 + z3^2)/2", {s.name: s for s in zcoords})
        field = hamiltonian_vector_field(canonical_field(zcoords), H)
        dom = SampleDomain(coords=zcoords)
        want = parse_over(("z3", "0", "-z1", "0"), zcoords)
        for got, expected in zip(field, want):
            assert equiv_zero(sum_of([got, Rat(-1) * expected]), dom).zero

    def test_constant_hamiltonian_gives_zero_field(self, zcoords):
        field = hamiltonian_vector_field(canonical_field(zcoords), Rat(7))
        assert all(isinstance(e, Rat) and e.value == 0 for e in field)

    def test_bracket_oracle_on_worked_field(self, xcoords, px1):
        d = Symbol("d", "parameter")
        table = {s.name: s for s in xcoords} | {"d": d}
        H = parse_expr(
            "d*(x3 - exp(-x1)/2) + exp(2*x1)*(x2 + 2*x4)/(1 - exp(x1))", table
        )
        field = hamiltonian_vector_field(px1, H)
        coord_exprs = parse_over(("x1", "x2", "x3", "x4"), xcoords)
        residuals = [
            sum_of([fi, Rat(-1) * poisson_bracket(px1, ci, H)])
            for fi, ci in zip(field, coord_exprs)
        ]
        rep = equiv_zero(residuals, field_domain(px1, residuals))
        assert rep.zero, rep.max_residual


class TestIntegrate:
    def test_zero_field_stays_put(self, uv):
        traj = integrate(uv, parse_over(("0", "0"), uv), [1.0, 2.0], 0.1, 1.0)
        assert traj.reached(1.0)
        assert all(state == (1.0, 2.0) for state in traj.states)

    def test_oscillator_returns_home(self, uv, oscillator):
        traj = integrate(uv, oscillator, [1.0, 0.0], 1e-3, 2 * math.pi)
        assert traj.method == "rk4"
        assert traj.reached(2 * math.pi)
        end = traj.states[-1]
        assert abs(end[0] - 1.0) <= 1e-9
        assert abs(end[1]) <= 1e-9

    def test_halving_step_cuts_error_sixteenfold(self, uv, oscillator):
        def endpoint_error(dt):
            traj = integrate(uv, oscillator, [1.0, 0.0], dt, 2 * math.pi)
            end = traj.states[-1]
            return math.hypot(end[0] - 1.0, end[1])

        ratio = endpoint_error(0.02) / endpoint_error(0.01)
        assert 12 <= ratio <= 20

    def test_guard_trip_returns_partial_trajectory(self, uv):
        # v decays linearly through zero, so 1/v must abort near t = 1
        field = parse_over(("1/v", "-1"), uv)
        traj = integrate(uv, field, [0.0, 1.0], 1e-3, 3.0)
        assert not traj.reached(3.0)
        assert 0.9 < traj.final_time < 1.1
        assert len(traj.times) == len(traj.states)

    def test_bad_steps_rejected(self, uv, oscillator):
        with pytest.raises(ValueError):
            integrate(uv, oscillator, [1.0, 0.0], -1e-3, 1.0)
        with pytest.raises(ValueError):
            integrate(uv, oscillator, [1.0], 1e-3, 1.0)

    def test_trajectory_invariants_enforced(self):
        with pytest.raises(ValueError):
            Trajectory((0.0, 0.1, 0.3), ((1.0,), (1.0,), (1.0,)), "rk4", 0.1)
        with pytest.raises(ValueError):
            Trajectory((0.0, 0.1), ((1.0,), (math.inf,)), "rk4", 0.1)

    @pytest.mark.parametrize("times,states,step", [
        ((0.0, 1.0), ((1e308, 1e308),) * 2, 1.0),  # finite values whose sum overflows
        ((0.0, 1.0), ((math.inf,), (-math.inf,)), 1.0),
        ((0.0, 1.0), ((math.nan,), (1.0,)), 1.0),
        ((0, 1), ((10**400,), (-10**400,)), 1),  # no float holds either value
        ((0, 1), ((math.nan,), (10**400,)), 1),
        ((0, 1), ((Fraction(10**400),), (Fraction(-10**400),)), 1),
        ((Fraction(0), Fraction(1, 3)), ((Fraction(1, 3),), (2,)), Fraction(1, 3)),
        ((0.0, 1.0), ((math.nan,), (None,)), 1.0),
        ((0.0, 1.0), ((1.0,), ("a",)), 1.0),
        ((math.nan, 1.0, 2.0), ((1.0,),) * 3, 1.0),  # a NaN gap passes the grid test
        ((0, 1, 3), ((1,),) * 3, 1),
    ])
    def test_trajectory_checks_agree_with_value_by_value_tests(self, times, states, step):
        def reference():
            tol = 1e-9 * max(1.0, abs(step))
            if any(abs(b - a - step) > tol for a, b in zip(times, times[1:])):
                raise ValueError("grid")
            if not all(math.isfinite(v) for state in states for v in state):
                raise ValueError("finite")

        outcomes = []
        for build in (reference, lambda: Trajectory(times, states, "rk4", step)):
            try:
                build()
                outcomes.append(None)
            except Exception as exc:  # the type is the outcome compared
                outcomes.append(type(exc))
        assert outcomes[0] is outcomes[1]


class TestConservationDrift:
    def test_energy_conserved_along_oscillator(self, uv, oscillator):
        traj = integrate(uv, oscillator, [1.0, 0.0], 1e-3, 1.0)
        H = parse_over(("(u^2 + v^2)/2",), uv)
        report = conservation_drift(uv, traj, H)
        assert report.max_abs[0] <= 1e-9
        assert report.max_relative <= 1e-9

    def test_non_invariant_drifts_visibly(self, uv, oscillator):
        traj = integrate(uv, oscillator, [1.0, 0.0], 1e-3, 1.0)
        report = conservation_drift(uv, traj, parse_over(("u",), uv))
        assert report.max_abs[0] > 0.4

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            DriftReport((-1.0,), (0.0,))

    def test_worked_invariant_pair_drift(self, zcoords):
        # square-bracket route: the first invariant generates a constant field
        d = Symbol("d", "parameter")
        table = {s.name: s for s in zcoords} | {"d": d}
        H = parse_expr("d*z4 + 2*z3", table)
        I2 = parse_expr("(d*z4)^2 + 2*z3^2", table)
        env = {"d": Rat(2)}
        field = [
            subst(e, env) for e in hamiltonian_vector_field(canonical_field(zcoords), H)
        ]
        traj = integrate(zcoords, field, [1.0, 0.5, 0.5, 0.5], 1e-3, 1.0)
        assert traj.reached(1.0)
        report = conservation_drift(zcoords, traj, [subst(H, env), subst(I2, env)])
        assert report.max_relative <= 1e-6
        # a function in involution with H drifts at the same noise scale as H
        assert report.relative[1] <= 10 * report.relative[0] + 1e-12

    def test_group_route_crossing_chart_wall_stays_partial(self, xcoords, px1):
        # the same generator in group coordinates runs into the chart wall;
        # a step fine enough to see the wall must stop before the horizon
        d = Symbol("d", "parameter")
        table = {s.name: s for s in xcoords} | {"d": d}
        H = parse_expr(
            "d*(x3 - exp(-x1)/2) + exp(2*x1)*(x2 + 2*x4)/(1 - exp(x1))", table
        )
        env = {"d": Rat(2)}
        field = [subst(e, env) for e in hamiltonian_vector_field(px1, H)]
        traj = integrate(xcoords, field, [1.0, 0.5, 0.5, 0.5], 1e-5, 1.0)
        assert not traj.reached(1.0)


class TestCanonicalStart:
    def test_all_half_when_nonsingular(self, uv):
        exprs = parse_over(("u + v", "u*v"), uv)
        assert canonical_start(uv, exprs) == [0.5, 0.5]

    def test_bump_resolves_singularity(self):
        y = tuple(Symbol(f"y{i}") for i in range(1, 5))
        exprs = parse_over(("1/(y1 - y2)", "y3"), y)
        assert canonical_start(y, exprs) == [1.0, 0.5, 0.5, 0.5]

    def test_second_bump_when_first_does_not_help(self, uv):
        exprs = parse_over(("1/((u + v - 1)*(u + v - 3/2))",), uv)
        assert canonical_start(uv, exprs) == [1.0, 1.0]

    def test_exhausted_grid_raises(self, uv):
        exprs = parse_over(("1/((u - 1/2)*(u - 1))",), uv)
        with pytest.raises(SingularPointError):
            canonical_start(uv, exprs)


class TestExportCsv:
    def test_header_and_rows(self, uv, oscillator):
        traj = integrate(uv, oscillator, [1.0, 0.0], 0.1, 0.5)
        H = parse_over(("(u^2 + v^2)/2",), uv)
        buffer = io.StringIO()
        export_csv(buffer, uv, traj, [("F1", H[0])])
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "t,u,v,F1"
        assert len(lines) == len(traj.times) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(0.5)

    def test_writes_to_path(self, uv, oscillator, tmp_path):
        traj = integrate(uv, oscillator, [1.0, 0.0], 0.1, 0.3)
        target = tmp_path / "traj.csv"
        export_csv(target, uv, traj)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "t,u,v"
        assert len(lines) == len(traj.times) + 1


# ---------------------------------------------------------------------------
# the generated RK4 kernel and the CSV writer against plain references


def reference_rk4(coords, field, x0, dt, T, den_guard=DEN_GUARD):
    """The textbook loop, one compiled field call per stage: the kernel in
    `integrate` must reproduce its times and states exactly."""
    steps = max(1, round(T / dt))
    h = T / steps
    fn = compile_exprs(list(field), [s.name for s in coords], den_guard=den_guard)

    def deriv(state):
        return fn(state)[0]

    x = [float(v) for v in x0]
    times, states = [0.0], [tuple(x)]
    for k in range(steps):
        try:
            k1 = deriv(x)
            k2 = deriv([xi + h / 2 * di for xi, di in zip(x, k1)])
            k3 = deriv([xi + h / 2 * di for xi, di in zip(x, k2)])
            k4 = deriv([xi + h * di for xi, di in zip(x, k3)])
        except (SingularPointError, OverflowError):
            break
        x = [xi + h / 6 * (a + 2 * b + 2 * c + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        if not all(math.isfinite(v) for v in x):
            break
        times.append((k + 1) * h)
        states.append(tuple(x))
    return tuple(times), tuple(states), h


def reference_csv(out, coords, traj, invariants=(), den_guard=DEN_GUARD):
    """One `repr` per field, one `writerow` per state, into the text buffer
    `out`: a raising invariant leaves the rows before it there."""
    writer = csv.writer(out)
    writer.writerow(["t"] + [s.name for s in coords] + [name for name, _ in invariants])
    fn = None
    if invariants:
        fn = compile_exprs([e for _, e in invariants], [s.name for s in coords], den_guard=den_guard)
    for t, state in zip(traj.times, traj.states):
        row = [repr(t)] + [repr(v) for v in state]
        if fn is not None:
            row.extend(repr(v) for v in fn(list(state))[0])
        writer.writerow(row)


def reference_drift(coords, traj, F, den_guard=DEN_GUARD):
    """The plain audit, one compiled call per state and `max` per invariant:
    the kernel in `conservation_drift` must reproduce its report exactly."""
    fn = compile_exprs(list(F), [s.name for s in coords], den_guard=den_guard)
    if not traj.states:
        raise ValueError("a trajectory needs at least one state")
    reference = fn(list(traj.states[0]))[0]
    worst = [0.0] * len(F)
    for state in traj.states[1:]:
        for i, (v, v0) in enumerate(zip(fn(list(state))[0], reference)):
            worst[i] = max(worst[i], abs(v - v0))
    return DriftReport(tuple(worst), tuple(w / max(1.0, abs(v0)) for w, v0 in zip(worst, reference)))


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
COORDS = tuple(Symbol(f"q{i}") for i in range(6))
CONSTANTS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


# leaves of the trees with a pool; the state-free subtrees are built afresh
# on each draw: folded constants and signed zeros, and (RAISING) ones that
# raise wherever they are evaluated, a guarded pole, an exp or ** beyond
# the floats
LEAVES = ["sym"] * 8 + ["rat"] * 5 + ["shared"] * 3 + ["quiet"] * 3 + ["raising"]
QUIET = [lambda: Sum(Rat(1), Rat(Fraction(1, 2))), lambda: Neg(Rat(0)), lambda: Product(Rat(-1), Rat(0))]
QUIET_RATIONAL = [lambda: Quotient(Rat(1), Rat(3)), lambda: Exp(Rat(2)),
                  lambda: IntPower(Sum(Rat(1), Rat(1)), -2)]
RAISING = [lambda: IntPower(Rat(10**200), 2)]
RAISING_RATIONAL = [lambda: Quotient(Rat(1), Sum(Rat(1), Neg(Rat(1)))),
                    lambda: IntPower(Sum(Rat(1), Neg(Rat(1))), -1), lambda: Exp(Rat(800))]


@st.composite
def trees(draw, symbols, depth, rational, pool=None):
    """Random field component: polynomial, or rational with guarded poles.

    With a ``pool`` (a list shared by the trees of one example), a leaf may
    also be a node built earlier, the same object again, or a state-free
    subtree, now and then one that raises."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaf = draw(st.sampled_from(LEAVES if pool is not None else ["sym", "rat"]))
        if leaf == "sym":
            return Sym(draw(st.sampled_from(symbols)))
        if leaf == "shared" and pool:
            return draw(st.sampled_from(pool))
        if leaf == "quiet":
            return draw(st.sampled_from(QUIET + (QUIET_RATIONAL if rational else [])))()
        if leaf == "raising":
            return draw(st.sampled_from(RAISING + (RAISING_RATIONAL if rational else [])))()
        return Rat(draw(CONSTANTS))
    kinds = ["sum", "prod", "pow", "neg"] + (["quot", "negpow", "exp"] if rational else [])
    kind = draw(st.sampled_from(kinds))
    sub = trees(symbols, depth - 1, rational, pool)
    if kind == "sum":
        node = Sum(draw(sub), draw(sub))
    elif kind == "prod":
        node = Product(draw(sub), draw(sub))
    elif kind == "pow":
        node = IntPower(draw(sub), draw(st.integers(2, 3)))
    elif kind == "negpow":
        node = IntPower(draw(sub), draw(st.integers(-2, -1)))
    elif kind == "quot":
        node = Quotient(draw(sub), draw(sub))
    elif kind == "exp":
        node = Exp(draw(trees(symbols, 1, False)))
    else:
        node = Neg(draw(sub))
    if pool is not None:
        pool.append(node)
    return node


@st.composite
def flows(draw):
    dim = draw(st.integers(1, 6))
    coords = COORDS[:dim]
    rational = draw(st.booleans())
    pool = []
    field = [draw(trees(coords, 3, rational, pool)) for _ in coords]
    x0 = [draw(st.sampled_from([-1.5, -0.5, 0.25, 0.5, 1.0, 2.0])) for _ in coords]
    # a first component that hits a pole (guard trip), overflows in `**` or
    # exp (OverflowError), or runs to inf (the isfinite stop)
    q0 = Sym(coords[0])
    stopper = draw(st.sampled_from([None, "pole", "power", "product", "exp"]))
    if stopper is not None:
        field[0] = {
            "pole": Neg(Quotient(Rat(1), q0)),
            "power": IntPower(q0, 3),
            "product": Product(q0, q0, q0),
            "exp": Exp(Product(Rat(40), q0)),
        }[stopper]
        x0[0] = 0.5 if stopper == "pole" else 2.0
    dt = draw(st.sampled_from([1e-3, 0.01, 0.05, 0.3]))
    T = draw(st.sampled_from([0.05, 0.5, 2.0]))
    den_guard = draw(st.sampled_from([DEN_GUARD, 1e-3, 0.2]))
    return coords, field, x0, dt, T, den_guard


def subtrees(exprs):
    """Every node of the trees once (by identity), in post-order."""
    seen, out = set(), []

    def walk(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in getattr(node, "terms", ()) + getattr(node, "factors", ()):
            walk(child)
        for name in ("num", "den", "base", "arg"):
            if hasattr(node, name):
                walk(getattr(node, name))
        out.append(node)

    for e in exprs:
        walk(e)
    return out


def assert_csv_matches(coords, traj, invariants, den_guard):
    want, got = io.StringIO(), io.StringIO()
    try:
        reference_csv(want, coords, traj, invariants, den_guard)
    except (SingularPointError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            export_csv(got, coords, traj, invariants, den_guard=den_guard)
    else:
        export_csv(got, coords, traj, invariants, den_guard=den_guard)
    assert got.getvalue() == want.getvalue()


def assert_drift_matches(coords, traj, F, den_guard):
    try:
        want = reference_drift(coords, traj, F, den_guard)
    except (SingularPointError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            conservation_drift(coords, traj, F, den_guard=den_guard)
        return
    got = conservation_drift(coords, traj, F, den_guard=den_guard)
    # repr: exact for floats, and a NaN entry equals itself
    assert repr((got.max_abs, got.relative)) == repr((want.max_abs, want.relative))


def unread_temporaries(source):
    """The assignments to a temporary ``t<k>`` that no later line reads
    before the next assignment to the same name, as (name, line) pairs."""
    events: dict[str, list] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and re.fullmatch(r"t\d+", node.id):
            events.setdefault(node.id, []).append((node.lineno, isinstance(node.ctx, ast.Store)))
    unread = []
    for name, seen in events.items():
        seen.sort()
        for at, (line, store) in enumerate(seen):
            following = seen[at + 1] if at + 1 < len(seen) else None
            if store and (following is None or following[1] or following[0] == line):
                unread.append((name, line))
    return unread


class TestKernelMatchesReference:
    @PROPERTY
    @given(flows())
    def test_integrate_equals_reference_loop(self, case):
        coords, field, x0, dt, T, den_guard = case
        traj = integrate(coords, field, x0, dt, T, den_guard=den_guard)
        times, states, h = reference_rk4(coords, field, x0, dt, T, den_guard)
        assert traj.step == h
        assert traj.times == times
        assert traj.states == states

    @PROPERTY
    @given(flows(), st.integers(0, 3))
    def test_export_csv_equals_reference_writer(self, case, n_invariants):
        coords, field, x0, dt, T, den_guard = case
        traj = integrate(coords, field, x0, dt, T, den_guard=den_guard)
        invariants = [(f"F{i}", field[i % len(field)]) for i in range(n_invariants)]
        assert_csv_matches(coords, traj, invariants, den_guard)

    @PROPERTY
    @given(flows(), st.data())
    def test_conservation_drift_equals_reference_loop(self, case, data):
        coords, field, x0, dt, T, den_guard = case
        traj = integrate(coords, field, x0, dt, T, den_guard=den_guard)
        F = data.draw(st.lists(trees(coords, 3, True, []), max_size=3))
        assert_drift_matches(coords, traj, F, den_guard)

    @PROPERTY
    @given(flows())
    def test_every_subtree_alone_equals_the_references(self, case):
        # each node in every context: as the first field component beside
        # the others (where it may also be shared), and as the one invariant
        coords, field, x0, dt, T, den_guard = case
        T = min(T, 12 * dt)
        traj = integrate(coords, field, x0, dt, T, den_guard=den_guard)
        for node in subtrees(field):
            alone = [node] + field[1:]
            got = integrate(coords, alone, x0, dt, T, den_guard=den_guard)
            assert (got.times, got.states, got.step) == reference_rk4(coords, alone, x0, dt, T, den_guard)
            assert_csv_matches(coords, traj, [("F", node)], den_guard)
            assert_drift_matches(coords, traj, [node], den_guard)

    @PROPERTY
    @given(flows())
    def test_every_temporary_is_read_after_its_assignment(self, case):
        # a part settled into t<k> after its parent's text was built would
        # leave t<k> unread and compute the part a second time inline
        coords, field, _, _, _, den_guard = case
        names = [s.name for s in coords]
        sources = []
        with mock.patch.object(flow, "_exec_source", lambda source, guard: sources.append(source)):
            for kernel in (flow._rk4_kernel, flow._drift_kernel, flow._csv_kernel):
                kernel(field, names, den_guard)
        assert len(sources) == 3
        for source in sources:
            assert unread_temporaries(source) == [], source

    def test_guard_trip_stops_where_reference_stops(self, uv):
        field = parse_over(("1/v", "-1"), uv)
        traj = integrate(uv, field, [0.0, 1.0], 0.01, 3.0)
        times, states, _ = reference_rk4(uv, field, [0.0, 1.0], 0.01, 3.0)
        assert 0.9 < traj.final_time < 1.1
        assert (traj.times, traj.states) == (times, states)

    @pytest.mark.parametrize("text", ["u^2", "u*u", "exp(u)"])
    def test_blow_up_stops_where_reference_stops(self, uv, text):
        # u' = u^2 from u = 1 leaves the floats before t = 1: `**` raises
        # OverflowError, `*` reaches inf, exp raises; each stops the loop
        field = parse_over((text, "0"), uv)
        traj = integrate(uv, field, [1.0, 0.0], 1e-3, 3.0)
        times, states, _ = reference_rk4(uv, field, [1.0, 0.0], 1e-3, 3.0)
        assert not traj.reached(3.0)
        assert (traj.times, traj.states) == (times, states)


class TestAuditKernels:
    def test_one_state_has_no_drift(self, uv):
        traj = Trajectory((0.0,), ((1.0, 2.0),), "rk4", 0.1)
        F = parse_over(("u + v", "1/u"), uv)
        report = conservation_drift(uv, traj, F)
        assert (report.max_abs, report.relative) == ((0.0, 0.0), (0.0, 0.0))
        assert report == reference_drift(uv, traj, F)

    def test_empty_trajectory_rejected(self, uv):
        traj = Trajectory((), (), "rk4", 0.1)
        with pytest.raises(ValueError):
            conservation_drift(uv, traj, parse_over(("u",), uv))

    def test_nan_values_never_enter_the_maximum(self, uv):
        # u*u*u - v*v*v is inf - inf = nan at u = v = 1e200
        u, v = (Sym(s) for s in uv)
        F = [Sum(Product(u, u, u), Neg(Product(v, v, v)))]
        later = Trajectory((0.0, 1.0, 2.0), ((1.0, 0.0), (1e200, 1e200), (2.0, 0.0)), "rk4", 1.0)
        first = Trajectory((0.0, 1.0), ((1e200, 1e200), (2.0, 0.0)), "rk4", 1.0)
        assert conservation_drift(uv, later, F) == reference_drift(uv, later, F) == DriftReport((7.0,), (7.0,))
        assert conservation_drift(uv, first, F) == reference_drift(uv, first, F) == DriftReport((0.0,), (0.0,))

    @pytest.mark.parametrize("number", [int, Fraction])
    def test_csv_of_exact_states_equals_csv_writer(self, uv, number):
        times = tuple(number(k) for k in range(4))
        states = tuple((number(k) / 3 if number is Fraction else k, number(2 - k)) for k in range(4))
        traj = Trajectory(times, states, "rk4", number(1))
        invariants = [("uv", parse_over(("u*v",), uv)[0]), ("w", parse_over(("u + 1/2",), uv)[0])]
        fn = compile_exprs([e for _, e in invariants], ["u", "v"])
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["t", "u", "v", "uv", "w"])
        writer.writerows((t, *state, *fn(state)[0]) for t, state in zip(times, states))
        got = io.StringIO()
        export_csv(got, uv, traj, invariants)
        assert got.getvalue() == want.getvalue()

    def test_csv_cell_text_follows_sign_type_and_nan(self, uv):
        # a repeated value reuses its text only as the same float: 0.0 and
        # -0.0, 1 and 1.0 and Fraction(1), and NaN and NaN print apart or anew
        u, v = (Sym(s) for s in uv)
        cells = [0.0, -0.0, -0.0, 0.0, 1, 1.0, 1.0, Fraction(1), 1.0, 1e200, 1e200, 1.0]
        times = tuple(range(len(cells)))
        traj = Trajectory(times, tuple((c, c) for c in cells), "rk4", 1)
        invariants = [("zero", Product(Rat(0), u)), ("nan", Sum(Product(u, u, v), Neg(Product(v, v, u)))),
                      ("same", v)]
        fn = compile_exprs([e for _, e in invariants], ["u", "v"])
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["t", "u", "v", "zero", "nan", "same"])
        writer.writerows((t, *state, *fn(state)[0]) for t, state in zip(times, traj.states))
        got = io.StringIO()
        export_csv(got, uv, traj, invariants)
        assert got.getvalue() == want.getvalue()
        assert got.getvalue().splitlines()[1:4] == ["0,0.0,0.0,0.0,0.0,0.0", "1,-0.0,-0.0,-0.0,0.0,-0.0",
                                                    "2,-0.0,-0.0,-0.0,0.0,-0.0"]

    @pytest.mark.parametrize("order", [1, -1])
    def test_first_raise_in_emission_order(self, uv, order):
        # at u = 1 the pole and both overflows raise at the same state; the
        # audits raise what the reference raises first, in either order
        u, v = (Sym(s) for s in uv)
        F = [Quotient(Rat(1), Sum(u, Rat(-1))), Exp(Product(Rat(800), u)),
             IntPower(Product(Rat(2 * 10**154), u), 2)]
        traj = Trajectory((0.0, 0.5, 1.0), ((0.0, 0.0), (0.5, 0.0), (1.0, 0.0)), "rk4", 0.5)
        for invariants in (F[::order], F[1:][::order], [F[0], F[2]][::order]):
            assert_drift_matches(uv, traj, invariants, DEN_GUARD)
            assert_csv_matches(uv, traj, [(f"F{i}", e) for i, e in enumerate(invariants)], DEN_GUARD)

    def test_exact_states_raise_in_emission_order(self, uv):
        # with exact states `u*u*1` leaves the floats (OverflowError) before
        # the pole in v is guarded (SingularPointError), and stays first
        u, v = (Sym(s) for s in uv)
        F = [Sum(Product(u, u, Rat(1)), Quotient(Rat(1), Sum(v, Rat(-1))))]
        traj = Trajectory((0, 1), ((Fraction(10**200), 1),) * 2, "rk4", 1)
        assert_drift_matches(uv, traj, F, DEN_GUARD)
        assert_csv_matches(uv, traj, [("f", F[0])], DEN_GUARD)
        with pytest.raises(OverflowError):
            conservation_drift(uv, traj, F)

    def test_singular_invariant_leaves_the_rows_before_it(self, uv):
        traj = Trajectory((0.0, 0.5, 1.0, 1.5), tuple((k / 2, 0.0) for k in range(4)), "rk4", 0.5)
        invariants = [("pole", parse_over(("1/(u - 1)",), uv)[0])]
        want, got = io.StringIO(), io.StringIO()
        with pytest.raises(SingularPointError):
            reference_csv(want, uv, traj, invariants)
        with pytest.raises(SingularPointError):
            export_csv(got, uv, traj, invariants)
        assert got.getvalue() == want.getvalue()
        assert got.getvalue().splitlines() == ["t,u,v,pole", "0.0,0.0,0.0,-1.0", "0.5,0.5,0.0,-2.0"]

    @pytest.mark.parametrize("state", [(1.0,), (1.0, 2.0, 3.0)])
    def test_state_of_another_length_rejected(self, uv, state):
        # the kernels unpack each state into one local per coordinate
        traj = Trajectory((0.0, 0.1), (state, state), "rk4", 0.1)
        with pytest.raises(ValueError):
            export_csv(io.StringIO(), uv, traj)
        with pytest.raises(ValueError):
            conservation_drift(uv, traj, parse_over(("u",), uv))

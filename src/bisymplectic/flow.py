"""Hamiltonian flows of the constructed invariants, with drift monitoring.

The phase tensor turns a scalar function into a vector field; a fixed-step
classical Runge-Kutta integrator follows it; conserved quantities are then
audited along the trajectory.  Nothing here is adaptive: the point is a
reproducible drift bound, not long-time structure preservation.  Integrating
in a square-bracket chart instead is the same machinery applied to the
constant canonical tensor.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple, Sequence

from .expr import (
    DEN_GUARD,
    Exp,
    Expression,
    ExprError,
    IntPower,
    Neg,
    Product,
    Quotient,
    Rat,
    SingularPointError,
    Sum,
    Sym,
    _exec_source,
    _is_zero,
    diff,
    product_of,
    sum_of,
)
from .symplectic import PoissonField

__all__ = [
    "Trajectory",
    "DriftReport",
    "hamiltonian_vector_field",
    "canonical_start",
    "integrate",
    "conservation_drift",
    "export_csv",
]


def hamiltonian_vector_field(P: PoissonField, H: Expression) -> list[Expression]:
    """xdot^i = P^{ij} d_j H, symbolically."""
    dH = [diff(H, s) for s in P.coords]
    field = []
    for i in range(P.dim):
        terms = [
            product_of([P.entries[i][j], dH[j]])
            for j in range(P.dim)
            if not (_is_zero(P.entries[i][j]) or _is_zero(dH[j]))
        ]
        field.append(sum_of(terms) if terms else Rat(0))
    return field


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step states; the step is uniform and every state is finite."""

    times: tuple
    states: tuple
    method: str
    step: float

    def __post_init__(self) -> None:
        if len(self.times) != len(self.states):
            raise ValueError("one state per time stamp is required")
        tol = 1e-9 * max(1.0, abs(self.step))
        gaps = map(operator.sub, islice(self.times, 1, None), self.times)
        if any(abs(gap - self.step) > tol for gap in gaps):
            raise ValueError("time grid must advance by the declared step")
        # fsum converts each value as isfinite does, and its sum is finite
        # only when every value is; a sum that fails or is not finite (finite
        # values can overflow it) leaves the answer to the value-by-value test
        try:
            finite = math.isfinite(math.fsum(chain.from_iterable(self.states)))
        except (ArithmeticError, TypeError, ValueError):
            finite = False
        if not (finite or all(map(math.isfinite, chain.from_iterable(self.states)))):
            raise ValueError("states must stay finite")

    @property
    def final_time(self) -> float:
        return self.times[-1]

    def reached(self, T: float) -> bool:
        return self.final_time >= T - self.step / 2


def canonical_start(
    coords: Sequence, exprs: Sequence[Expression], den_guard: float = DEN_GUARD
) -> list[float]:
    """Reproducible start point: every coordinate at 1/2; while any given
    expression is singular there, the lowest still-unbumped coordinate moves
    to 1 and the point is retried."""
    names = [s.name for s in coords]
    # the drift audit's kernel on the one-state trajectory: an audit of the
    # same list then reuses the compiled function
    kernel = _drift_kernel(list(exprs), names, den_guard)
    point = [0.5] * len(names)
    for bump in range(len(names) + 1):
        try:
            values, _ = kernel((point,))
        except (SingularPointError, OverflowError):
            values = None
        if values is not None and all(math.isfinite(v) for v in values):
            return point
        if bump == len(names):
            break
        point[bump] = 1.0
    raise SingularPointError("no nonsingular start point on the 1/2-and-1 grid")


def _state(dim: int) -> str:
    """``(_x0, _x1, )``: the tuple every generated kernel unpacks a state
    into (as an assignment or ``for`` target) and packs it back from."""
    return "(" + "".join(f"_x{i}, " for i in range(dim)) + ")"


def _children(node: Expression) -> tuple:
    if isinstance(node, Sum):
        return node.terms
    if isinstance(node, Product):
        return node.factors
    if isinstance(node, Quotient):
        return (node.num, node.den)
    if isinstance(node, IntPower):
        return (node.base,)
    if isinstance(node, (Exp, Neg)):
        return (node.arg,)
    raise TypeError(f"cannot compile {type(node).__name__}")


class _Emitted(NamedTuple):
    pre: list[str]  # the state-free lines, when hoisted
    body: list[str]
    results: list[str]  # the text of each expression's value
    reads: set[int]  # the coordinates the body reads
    fixed: set[int]  # the expressions free of the state, when hoisted


def _emit(exprs: Sequence[Expression], names: Sequence[str], den_guard: float,
          hoist: bool = False) -> _Emitted:
    """Straight-line statements for the loop kernels, walking the trees by
    identity like :func:`expr._emit_lines`, with coordinate ``i`` read as
    ``_x<i>`` (the only name with that prefix in the statements).

    * Leaves are inlined, and so are sums, products and negations used once
      (one parent, or one result), each in brackets.  An inlined part runs
      where its parent's line reads it, so it stays inlined only while no
      other line comes first: a line that is due settles every pending part
      into a temporary before it.  Every operation thus runs in the order of
      one temporary per node, as in the textbook loops, for any states: a
      float operation never raises, but an int or Fraction beyond the float
      range raises OverflowError where it meets a float.
    * Quotients, integer powers and ``exp`` keep a temporary ``t<k>``, and
      so does a node used more than once.  A quotient's operands (and a
      negative power's base) are settled before its guard, which reads the
      denominator (base) before the operation runs.
    * With ``hoist``, every compound subtree free of the coordinates gets a
      temporary in ``pre`` in place of ``body``: its value is the same at
      every state, and the caller runs those lines once.
    """
    index = {name: i for i, name in enumerate(names)}
    uses: dict[int, int] = {}

    def count(node: Expression) -> None:
        key = id(node)
        if key in uses:
            uses[key] += 1
            return
        uses[key] = 1
        if not isinstance(node, (Rat, Sym)):
            for child in _children(node):
                count(child)

    for e in exprs:
        count(e)
    pre: list[str] = []
    body: list[str] = []
    texts: dict[int, str] = {}
    free: dict[int, bool] = {}  # compound nodes are free only when hoisting
    reads: set[int] = set()
    pending: list[int] = []  # inlined parts no line has read yet, oldest first
    temps = 0

    def keep(key: int, text: str) -> str:
        nonlocal temps
        var = f"t{temps}"
        temps += 1
        (pre if hoist and free[key] else body).append(f"{var} = {text}")
        texts[key] = var
        return var

    def settle() -> None:
        # a line is due: every part still pending gets its temporary first
        for key in pending:
            keep(key, texts[key])
        pending.clear()

    def emit(node: Expression) -> str:
        key = id(node)
        text = texts.get(key)
        if text is not None:
            return text
        if isinstance(node, Rat):
            text = repr(float(node.value))
            texts[key] = text = text if text[0] != "-" else f"({text})"
            free[key] = True
            return text
        if isinstance(node, Sym):
            name = node.symbol.name
            if name not in index:
                raise ExprError(f"no value assigned to symbol {name!r}")
            reads.add(index[name])
            texts[key] = text = f"_x{index[name]}"
            free[key] = False
            return text
        kids = _children(node)
        for child in kids:
            emit(child)
        # read the texts only now: a later child's line may have settled an
        # earlier child into its temporary
        parts = [texts[id(child)] for child in kids]
        hoisted = hoist and all([free[id(child)] for child in kids])
        free[key] = hoisted
        if isinstance(node, Quotient) or (isinstance(node, IntPower) and node.exponent < 0):
            # the guard reads the denominator (or base) before the operation
            # reads its operands, so every pending part is settled first
            if not hoisted:
                settle()
            num, operand = texts[id(kids[0])], texts[id(kids[-1])]
            (pre if hoisted else body).append(
                f"if -{den_guard!r} < {operand} < {den_guard!r}: _sing({operand})")
            return keep(key, f"{num} / {operand}" if isinstance(node, Quotient)
                        else f"{operand} ** {node.exponent}")
        # the children still pending (the last ones) go into this node's text
        for child in reversed(kids):
            if pending and pending[-1] == id(child):
                pending.pop()
        if isinstance(node, Sum):
            text = "(" + " + ".join(parts) + ")"
        elif isinstance(node, Product):
            text = "(" + " * ".join(parts) + ")"
        elif isinstance(node, Neg):
            text = f"(-{parts[0]})"
        elif isinstance(node, Exp):
            text = f"_exp({parts[0]})"
        else:
            text = f"{parts[0]} ** {node.exponent}"
        if hoisted:
            return keep(key, text)
        if isinstance(node, (Exp, IntPower)) or uses[key] > 1:
            settle()
            return keep(key, text)
        texts[key] = text
        pending.append(key)
        return text

    for e in exprs:
        emit(e)
    results = [texts[id(e)] for e in exprs]
    fixed = {j for j, e in enumerate(exprs) if free[id(e)]} if hoist else set()
    return _Emitted(pre, body, results, reads, fixed)


def _rk4_kernel(field: Sequence[Expression], names: Sequence[str], den_guard: float):
    """Generated ``_fn(x0, h, steps) -> (times, states)``: the whole
    fixed-step loop with the state in locals ``_x<i>`` and the field's body
    inlined once per stage (slopes ``_a``..``_d``).  Stage a reads ``_x<i>``
    itself; stages b to d read the stage inputs ``_v<i>``, computed only for
    the coordinates the field reads.

    The field's state-free subtrees run once, before the loop.  Every stage
    of every step computes them alike, so when one raises
    SingularPointError/OverflowError the loop would stop in step 1 whatever
    raised first, and the kernel returns the one-state trajectory.  A slope
    free of the state is the same at all four stages, so its increment
    ``h/6 (k + 2 k + 2 k + k)`` is computed there too."""
    lines = _emit(field, names, den_guard, hoist=True)
    staged = [line.replace("_x", "_v") for line in lines.body]
    staged_results = [r.replace("_x", "_v") for r in lines.results]
    n = range(len(names))
    state = _state(len(names))
    moving = [i for i in n if i not in lines.fixed]
    body = ["def _fn(_x, _h, _n):", f"    {state} = _x", "    _h2 = _h / 2", "    _h6 = _h / 6"]
    if lines.pre:
        body.append("    try:")
        body.extend(f"        {line}" for line in lines.pre)
        body += ["    except (SingularPointError, OverflowError):", f"        return [0.0], [{state}]"]
    for i in sorted(lines.fixed):
        k = lines.results[i]
        body.append(f"    _i{i} = _h6 * ({k} + 2 * {k} + 2 * {k} + {k})")
    body += ["    _times = [0.0]", f"    _states = [{state}]", "    for _k in range(1, _n + 1):", "        try:",
             "            pass"]  # the body of a zero-dimensional field is empty

    def slope(name: str, i: int) -> str:
        return lines.results[i] if i in lines.fixed else f"{name}{i}"

    stages = (("_a", None, None), ("_b", "_h2", "_a"), ("_c", "_h2", "_b"), ("_d", "_h", "_c"))
    for name, step, previous in stages:
        if previous is None:
            stage_body, results = lines.body, lines.results
        else:
            stage_body, results = staged, staged_results
            body.extend(f"            _v{i} = _x{i} + {step} * {slope(previous, i)}"
                        for i in sorted(lines.reads))
        body.extend(f"            {line}" for line in stage_body)
        body.extend(f"            {name}{i} = {results[i]}" for i in moving)
    body += ["        except (SingularPointError, OverflowError):", "            break"]
    for i in n:
        increment = f"_i{i}" if i in lines.fixed else f"_h6 * (_a{i} + 2 * _b{i} + 2 * _c{i} + _d{i})"
        body.append(f"        _x{i} = _x{i} + {increment}")
    finite = " and ".join(f"_fin(_x{i})" for i in n) or "True"
    body += [f"        if not ({finite}):", "            break", "        _times.append(_k * _h)",
             f"        _states.append({state})", "    return _times, _states"]
    return _exec_source("\n".join(body), den_guard)


def integrate(
    coords: Sequence,
    field: Sequence[Expression],
    x0: Sequence[float],
    dt: float,
    T: float,
    den_guard: float = DEN_GUARD,
) -> Trajectory:
    """Classical fourth-order Runge-Kutta with a fixed step.

    The step is snapped so the grid lands exactly on the horizon.  A guard
    trip or overflow stops early and returns the partial trajectory, as does
    a state that is no longer finite.  The loop runs inside one generated
    function per field, in the float operations of the textbook update
    ``x + h/6 (k1 + 2 k2 + 2 k3 + k4)`` with stage inputs ``x + h/2 k``.
    """
    if dt <= 0 or T <= 0:
        raise ValueError("step and horizon must be positive")
    if len(x0) != len(coords) or len(field) != len(coords):
        raise ValueError("field, start point, and coordinates must align")
    steps = max(1, round(T / dt))
    h = T / steps
    kernel = _rk4_kernel(list(field), [s.name for s in coords], den_guard)
    times, states = kernel([float(v) for v in x0], h, steps)
    return Trajectory(tuple(times), tuple(states), "rk4", h)


@dataclass(frozen=True)
class DriftReport:
    """Per-invariant conservation audit along one trajectory."""

    max_abs: tuple
    relative: tuple

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.max_abs + self.relative):
            raise ValueError("drift entries cannot be negative")

    @property
    def max_relative(self) -> float:
        return max(self.relative, default=0.0)


def _drift_kernel(F: Sequence[Expression], names: Sequence[str], den_guard: float):
    """Generated ``_fn(states) -> (F(first state), max |F - F(first state)|)``
    with each state in locals ``_x<i>`` and ``F`` inlined (see :func:`_emit`;
    nothing is hoisted, so a raise comes at the state and line it came at
    before).  The first state only sets the references: its own difference
    is 0 or NaN and would leave a maximum at 0.  A maximum moves only on
    ``d > w``, as in ``max(w, d)``, so a NaN difference never enters it."""
    emitted = _emit(F, names, den_guard)
    m = range(len(emitted.results))
    body = ["def _fn(_states):", "    _first = True"]
    body.extend(f"    _w{j} = 0.0" for j in m)
    body.append(f"    for {_state(len(names))} in _states:")
    body.extend(f"        {line}" for line in emitted.body)
    body += ["        if _first:", "            _first = False"]
    body.extend(f"            _r{j} = {r}" for j, r in enumerate(emitted.results))
    body.append("            continue")
    for j, r in enumerate(emitted.results):
        body += [f"        _d = abs({r} - _r{j})", f"        if _d > _w{j}: _w{j} = _d"]
    refs = "".join(f"_r{j}, " for j in m)
    worst = "".join(f"_w{j}, " for j in m)
    body.append(f"    return ({refs}), ({worst})")
    return _exec_source("\n".join(body), den_guard)


def conservation_drift(
    coords: Sequence,
    traj: Trajectory,
    F: Sequence[Expression],
    den_guard: float = DEN_GUARD,
) -> DriftReport:
    """max_t |F(x(t)) - F(x(0))| per invariant; relative drift divides by
    |F(x(0))| floored at 1 so near-zero reference values stay meaningful.
    The audit runs inside one generated function per invariant list."""
    kernel = _drift_kernel(list(F), [s.name for s in coords], den_guard)
    if not traj.states:
        raise ValueError("a trajectory needs at least one state")
    reference, worst = kernel(traj.states)
    relative = tuple(w / max(1.0, abs(v0)) for w, v0 in zip(worst, reference))
    return DriftReport(worst, relative)


def _csv_kernel(F: Sequence[Expression], names: Sequence[str], den_guard: float):
    """Generated ``_fn(write, times, states)``: for each state one ``write``
    of the row ``t,<state>,<F(state)>\\r\\n``, with the state in locals
    ``_x<i>`` and ``F`` inlined (see :func:`_emit`; nothing is hoisted).
    A cell's text is ``str`` of its value, the conversion csv applies to
    these numbers (``repr`` for a float), and a number's text never needs
    quoting, so the bytes are csv's.

    Flows leave coordinates fixed and integrals exactly constant, so a cell
    often repeats the one above it.  Each column keeps its last value
    ``_l<j>`` (only ever a float, else ``None``) and text ``_s<j>``, and
    the text is reused only when the new value is a float equal to the last
    one and of the same zero sign (``0.0`` and ``-0.0`` are equal but print
    apart); NaN, int and Fraction values are always rendered again.  The
    time column is always rendered."""
    emitted = _emit(F, names, den_guard)
    state = _state(len(names))
    columns = [f"_x{i}" for i in range(len(names))] + emitted.results
    row = repr(",".join(["%s"] * (len(columns) + 1)) + "\r\n")
    body = ["def _fn(_write, _times, _states):", "    _str = str", "    _flt = float"]
    body.extend(f"    _l{j} = _s{j} = None" for j in range(len(columns)))
    body.append(f"    for _t, {state} in zip(_times, _states):")
    body.extend(f"        {line}" for line in emitted.body)
    for j, value in enumerate(columns):
        if not value.isidentifier():
            body.append(f"        _c{j} = {value}")
            value = f"_c{j}"
        body += [f"        if not ({value} == _l{j} and {value}.__class__ is _flt"
                 f" and ({value} or _cs(1.0, {value}) == _cs(1.0, _l{j}))):",
                 f"            _l{j} = {value} if {value}.__class__ is _flt else None",
                 f"            _s{j} = _str({value})"]
    cells = "".join(f"_s{j}, " for j in range(len(columns)))
    body.append(f"        _write({row} % (_t, {cells}))")
    return _exec_source("\n".join(body), den_guard)


def export_csv(
    out,
    coords: Sequence,
    traj: Trajectory,
    invariants: Sequence[tuple[str, Expression]] = (),
    den_guard: float = DEN_GUARD,
) -> None:
    """Write `t, <coordinates>, <invariant names>` rows; `out` is a path or a
    text file object.  Rows are streamed, one ``write`` each, so a failing
    invariant leaves the rows before it written."""
    names = [s.name for s in coords]
    kernel = _csv_kernel([e for _, e in invariants], names, den_guard)

    def write(handle) -> None:
        csv.writer(handle).writerow(["t"] + names + [name for name, _ in invariants])
        kernel(handle.write, traj.times, traj.states)

    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        with open(out, "w", newline="") as handle:
            write(handle)
    else:
        write(out)

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
from typing import Sequence

from .expr import (
    DEN_GUARD,
    Expression,
    Rat,
    SingularPointError,
    _emit_lines,
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
        if not all(map(math.isfinite, chain.from_iterable(self.states))):
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


def _rk4_kernel(field: Sequence[Expression], names: Sequence[str], den_guard: float):
    """Generated ``_fn(x0, h, steps) -> (times, states)``: the whole
    fixed-step loop with the state in locals ``_x<i>`` and the field's body
    inlined once per stage (stage input ``_v<i>``, slopes ``_a``..``_d``)."""
    lines, results = _emit_lines(field, names, den_guard, False, arg="_v{}")
    n = range(len(names))
    state = _state(len(names))
    body = [
        "def _fn(_x, _h, _n):",
        f"    {state} = _x",
        "    _h2 = _h / 2",
        "    _h6 = _h / 6",
        "    _times = [0.0]",
        f"    _states = [{state}]",
        "    for _k in range(_n):",
        "        try:",
        "            pass",  # the body of a zero-dimensional field is empty
    ]
    stages = (("_a", "_x{0}"), ("_b", "_x{0} + _h2 * _a{0}"), ("_c", "_x{0} + _h2 * _b{0}"),
              ("_d", "_x{0} + _h * _c{0}"))
    for slope, stage_input in stages:
        body.extend(f"            _v{i} = {stage_input.format(i)}" for i in n)
        body.extend(f"            {line}" for line in lines)
        body.extend(f"            {slope}{i} = {r}" for i, r in zip(n, results))
    body += ["        except (SingularPointError, OverflowError):", "            break"]
    body.extend(f"        _x{i} = _x{i} + _h6 * (_a{i} + 2 * _b{i} + 2 * _c{i} + _d{i})" for i in n)
    finite = " and ".join(f"_fin(_x{i})" for i in n) or "True"
    body += [f"        if not ({finite}):", "            break", "        _times.append((_k + 1) * _h)",
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
    with each state in locals ``_x<i>`` and ``F`` inlined.  A maximum moves
    only on ``d > w``, as in ``max(w, d)``, so a NaN difference never enters
    it, and the first state's own difference (0 or NaN) leaves it at 0."""
    lines, results = _emit_lines(F, names, den_guard, False, arg="_x{}")
    m = range(len(results))
    body = ["def _fn(_states):", "    _first = True"]
    body.extend(f"    _w{j} = 0.0" for j in m)
    body.append(f"    for {_state(len(names))} in _states:")
    body.extend(f"        {line}" for line in lines)
    body += ["        if _first:", "            _first = False"]
    body.extend(f"            _r{j} = {r}" for j, r in enumerate(results))
    for j, r in enumerate(results):
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
    ``_x<i>`` and ``F`` inlined.  ``%s`` is ``str``, the conversion csv
    applies to these numbers (``repr`` for a float), and a number's text
    never needs quoting, so the bytes are csv's."""
    lines, results = _emit_lines(F, names, den_guard, False, arg="_x{}")
    state = _state(len(names))
    fields = ["_t"] + [f"_x{i}" for i in range(len(names))] + results
    row = repr(",".join(["%s"] * len(fields)) + "\r\n")
    body = ["def _fn(_write, _times, _states):", f"    for _t, {state} in zip(_times, _states):"]
    body.extend(f"        {line}" for line in lines)
    body.append(f"        _write({row} % ({''.join(f'{v}, ' for v in fields)}))")
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

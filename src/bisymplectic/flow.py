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
    compile_exprs,
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
    fn = compile_exprs(list(exprs), names, den_guard=den_guard, track_scale=False)
    point = [0.5] * len(names)
    for bump in range(len(names) + 1):
        try:
            values, _ = fn(point)
        except (SingularPointError, OverflowError):
            values = None
        if values is not None and all(math.isfinite(v) for v in values):
            return point
        if bump == len(names):
            break
        point[bump] = 1.0
    raise SingularPointError("no nonsingular start point on the 1/2-and-1 grid")


def _rk4_kernel(field: Sequence[Expression], names: Sequence[str], den_guard: float):
    """Generated ``_fn(x0, h, steps) -> (times, states)``: the whole
    fixed-step loop with the state in locals ``_x<i>`` and the field's body
    inlined once per stage (stage input ``_v<i>``, slopes ``_a``..``_d``)."""
    lines, results = _emit_lines(field, names, den_guard, False, arg="_v{}")
    n = range(len(names))
    state = "(" + "".join(f"_x{i}, " for i in n) + ")"
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


def conservation_drift(
    coords: Sequence,
    traj: Trajectory,
    F: Sequence[Expression],
    den_guard: float = DEN_GUARD,
) -> DriftReport:
    """max_t |F(x(t)) - F(x(0))| per invariant; relative drift divides by
    |F(x(0))| floored at 1 so near-zero reference values stay meaningful."""
    fn = compile_exprs(list(F), [s.name for s in coords], den_guard=den_guard, track_scale=False)
    reference = None
    worst = [0.0] * len(F)
    for state in traj.states:
        values, _ = fn(state)
        if reference is None:
            reference = values
            continue
        for i, (v, v0) in enumerate(zip(values, reference)):
            worst[i] = max(worst[i], abs(v - v0))
    if reference is None:
        raise ValueError("a trajectory needs at least one state")
    relative = tuple(w / max(1.0, abs(v0)) for w, v0 in zip(worst, reference))
    return DriftReport(tuple(worst), relative)


def export_csv(
    out,
    coords: Sequence,
    traj: Trajectory,
    invariants: Sequence[tuple[str, Expression]] = (),
    den_guard: float = DEN_GUARD,
) -> None:
    """Write `t, <coordinates>, <invariant names>` rows; `out` is a path or a
    text file object."""
    names = [s.name for s in coords]
    fn = None
    if invariants:
        fn = compile_exprs([e for _, e in invariants], names, den_guard=den_guard, track_scale=False)

    # csv writes a float as str(), which is its repr
    if fn is None:
        rows = ((t, *state) for t, state in zip(traj.times, traj.states))
    else:
        rows = ((t, *state, *fn(state)[0]) for t, state in zip(traj.times, traj.states))

    def write(handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(["t"] + names + [name for name, _ in invariants])
        writer.writerows(rows)

    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        with open(out, "w", newline="") as handle:
            write(handle)
    else:
        write(out)

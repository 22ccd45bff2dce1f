"""What one pass of each workload loads, runs and checks.

Each workload is a pair of functions.  ``setup(job)`` loads the inputs
through the program's loaders and returns the pass state; it is timed as
part of set-up.  ``run(state, clock)`` performs the workload's operations,
timing each inside ``with clock:`` and checking its output after the block,
and returns one ``(operation, ok, message)`` triple per checked output.

The program is always reached through its module objects (``liealg.check_jacobi``
and so on), so the tracer's wrappers see every call the benchmark makes.  An
operation that raises is recorded as failed, with the exception as its
message, and the pass goes on.  Import this module only after
``paths.use_source_tree()``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from fractions import Fraction

from bisymplectic import cli, dynsys, exchange, expr, flow, harness, liealg, rmatrix, symplectic


class Clock:
    """Accumulates the CPU time (all threads) and the wall time spent inside
    ``with clock:`` blocks."""

    def __init__(self) -> None:
        self.cpu = 0.0
        self.wall = 0.0
        self._start = (0.0, 0.0)

    def __enter__(self) -> "Clock":
        self._start = (time.process_time(), time.perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        self.cpu += time.process_time() - self._start[0]
        self.wall += time.perf_counter() - self._start[1]


# ---------------------------------------------------------------------------
# catalog: `bisym verify --all --format json`


def _entry_digests(report_bytes: bytes) -> dict[str, str]:
    """Per-entry digest of the JSON report with every `elapsed` removed."""
    doc = json.loads(report_bytes)

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "elapsed"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return {r["entry"]: hashlib.sha256(json.dumps(strip(r), sort_keys=True).encode()).hexdigest()
            for r in doc["reports"]}


def setup_catalog(job):
    cfg = job["config"]
    return {"config": harness.VerifyConfig(seed=cfg["seed"], trials=cfg["trials"],
                                           drift_tol=cfg["drift_tol"]),
            "entries": [p.stem for p in harness.list_entry_paths()]}


def run_catalog(job, state, clock):
    try:
        with clock:
            summary = harness.verify_all(config=state["config"])
            data = harness.emit_report(summary, "json")
    except Exception as exc:
        return [("catalog.verify_all", False, f"raised {exc!r}")]
    results = [("catalog.load_errors", not summary.load_errors, str(summary.load_errors))]
    listed = sorted(r.entry_id for r in summary.reports)
    results.append(("catalog.entries", listed == sorted(state["entries"]), f"reports for {listed}"))
    for report in summary.reports:
        for check in report.checks:
            if check.status != "skip":
                results.append((f"{report.entry_id}/{check.name}", check.status == "pass",
                                f"{check.status} max {check.max_residual} {check.detail}"))
    for entry_id, value in sorted(job["reference_double_jacobi"].items()):
        results.append((f"{entry_id}/reference.double_jacobi", Fraction(value) == 0,
                        f"reference residual {value}"))
    state["digests"] = _entry_digests(data)
    return results


# ---------------------------------------------------------------------------
# dense_exact: the exact checks called directly on generic-basis tables


def setup_dense_exact(job):
    cases = []
    for case in job["cases"]:
        symbols = {name: expr.Symbol(name, "parameter") for name in case["params"]}

        def parse(text, symbols=symbols):
            return expr.parse_expr(text, symbols)

        def grid(rows):
            return tuple(tuple(parse(x) for x in row) for row in rows)

        def tensor(planes):
            return tuple(grid(plane) for plane in planes)

        dim = case["dim"]
        built = {
            "name": case["name"],
            "samples": [{k: Fraction(v) for k, v in smp.items()} for smp in case["samples"]],
            "expect": case["expect"],
            "g": liealg.StructureConstants(dim, tensor(case["g"]), "lower"),
            "gdual": liealg.StructureConstants(dim, tensor(case["gdual"]), "upper"),
        }
        # the dual table acts as a bracket table for rt, omega_gdual and rept
        built["gdual_lower"] = liealg.StructureConstants(dim, built["gdual"].entries, "lower")
        if case["r"] is not None:
            built["r"] = rmatrix.RMatrix(dim, grid(case["r"]), "upper")
        if case["rt"] is not None:
            built["rt"] = rmatrix.RMatrix(dim, grid(case["rt"]), "lower")
        for side in ("g", "gdual"):
            if case[f"omega_{side}"] is not None:
                built[f"omega_{side}"] = symplectic.SymplecticForm(dim, grid(case[f"omega_{side}"]))
        if case["rept"] is not None:
            built["rept"] = liealg.MatrixRep.from_rows([grid(m) for m in case["rept"]])
        cases.append(built)
    return {"cases": cases}


def _dense_call(check: str, c: dict):
    A = c["samples"]
    if check == "manin":
        rep = liealg.verify_manin_triple(liealg.LieBialgebra(c["g"], c["gdual"]), A)
        return rep.ok, (rep.jacobi.max_abs, rep.ad_invariance.max_abs)
    calls = {
        "antisymmetry.g": lambda: liealg.check_antisymmetry(c["g"], A),
        "antisymmetry.gdual": lambda: liealg.check_antisymmetry(c["gdual"], A),
        "jacobi.g": lambda: liealg.check_jacobi(c["g"], A),
        "jacobi.gdual": lambda: liealg.check_jacobi(c["gdual"], A),
        "cybe.r": lambda: rmatrix.cybe_residual(c["r"], c["g"], A),
        "cybe.rt": lambda: rmatrix.cybe_residual(c["rt"], c["gdual_lower"], A),
        "closure.g": lambda: symplectic.closure_residual(c["omega_g"], c["g"], A).cyclic,
        "closure.gdual": lambda: symplectic.closure_residual(c["omega_gdual"], c["gdual_lower"], A).cyclic,
        "nondegenerate.g": lambda: symplectic.check_nondegenerate(c["omega_g"], A),
        "nondegenerate.gdual": lambda: symplectic.check_nondegenerate(c["omega_gdual"], A),
        "representation": lambda: liealg.check_representation(c["rept"], c["gdual"], A),
    }
    rep = calls[check]()
    return rep.ok, rep.max_abs


def run_dense_exact(job, state, clock):
    results = []
    for c in state["cases"]:
        for check, want in c["expect"].items():
            try:
                with clock:
                    ok, got = _dense_call(check, c)
            except Exception as exc:
                results.append((f"{c['name']}/{check}", False, f"raised {exc!r}"))
                continue
            expected = (tuple(Fraction(x) for x in want["max_abs"]) if isinstance(want["max_abs"], list)
                        else Fraction(want["max_abs"]))
            good = ok == want["ok"] and got == expected
            results.append((f"{c['name']}/{check}", good,
                            f"ok={ok} max_abs={got}, expected ok={want['ok']} max_abs={expected}"))
    return results


# ---------------------------------------------------------------------------
# identity: randomized chart-level checks on entries and their mutants


def setup_identity(job):
    subjects = []
    entries = {}
    for subject in job["subjects"]:
        eid = subject["entry"]
        if eid not in entries:
            entries[eid] = harness.load_entry(harness.entry_path(eid))
        entry = entries[eid]
        if subject["mutation"] is not None:
            entry = harness.apply_mutations(entry, [subject["mutation"]])
        subjects.append((subject, entry))
    return {"subjects": subjects, "originals": entries}


def run_identity(job, state, clock):
    results = []
    for subject, e in state["subjects"]:
        tag = e.entry_id + (f"+{subject['mutation']}" if subject["mutation"] else "")

        def record(op, ok, message="", tag=tag):
            results.append((f"{tag}/{op}", bool(ok), message))

        try:
            _identity_subject(job["check_seed"], subject, e, state["originals"][e.entry_id],
                              clock, record)
        except Exception as exc:
            record("raised", False, repr(exc))
    return results


def _identity_subject(seed, subject, e, original, clock, record):
    trials = expr.TRIALS
    zc, ztc = e.coords["chart"], e.coords["dual_chart"]

    def zero(op, fn):
        with clock:
            rep = fn()
        record(op, rep.zero, f"max residual {rep.max_residual} witness {rep.witness}")

    for side, P, chart in (("group", e.Pg, e.chart_g), ("dual_group", e.Pgt, e.chart_gt)):
        zero(f"field_skew.{side}", lambda P=P: symplectic.check_field_skew(P, seed=seed, trials=trials))
        zero(f"field_jacobi.{side}",
             lambda P=P: symplectic.jacobi_residual_field(P, seed=seed, trials=trials))
        with clock:
            rep = dynsys.check_darboux(P, dynsys.DarbouxChart(tuple(chart)), seed=seed, trials=trials)
        record(f"darboux.{side}", rep.ok, f"failing pairs {[f[0] for f in rep.failures]}")

    with clock:
        S_group = harness._compose(e.S_chart, zc, e.chart_g)
        St_group = harness._compose(e.St_chart, ztc, e.chart_gt)
    for side, P, funcs, target in (("group", e.Pg, S_group, e.gdual),
                                   ("dual_group", e.Pgt, St_group, e.g)):
        zero(f"symmetry.{side}", lambda P=P, F=funcs, t=target: dynsys.symmetry_residual(
            dynsys.DynamicalSystem(P, tuple(F), t), seed=seed, trials=trials))

    for side, cs, funcs, want, target in (
            ("group", zc, e.S_chart, e.expected_families_group, e.gdual),
            ("dual_group", ztc, e.St_chart, e.expected_families_dual, e.g)):
        with clock:
            got = tuple(dynsys.find_involutive_pairs(
                dynsys.DynamicalSystem(symplectic.canonical_field(cs), tuple(funcs), target),
                seed=seed, trials=trials))
        record(f"involutive.{side}", got == tuple(want), f"found {got}, declared {want}")

    if e.rt is not None and e.rept is not None:
        with clock:
            Q = dynsys.build_Q(e.S_chart, e.rt, e.rept)
            rep = dynsys.sts_residual(Q, e.rt, e.rept, symplectic.canonical_field(zc),
                                      seed=seed, trials=trials)
        record("q_matrix.group", rep.zero, f"max residual {rep.max_residual}")
    # a swapped C changes the transported acting matrices, and no independent
    # expectation of the dual flatness identity is computed for it
    if e.r is not None and e.rept is not None and subject["mutation"] != "swap-C-rows":
        with clock:
            rep_g = exchange.transport_rep(e.C, e.rept)
            Qt = dynsys.build_Q(e.St_chart, e.r, rep_g)
            rep = dynsys.sts_residual(Qt, e.r, rep_g, symplectic.canonical_field(ztc),
                                      seed=seed, trials=trials)
        record("q_matrix.dual_group", rep.zero, f"max residual {rep.max_residual}")

    with clock:
        bundle = exchange.ExchangeBundle(
            bialg=e.bialgebra, C=e.C, cmap=e.cmap, P=e.Pg, Pt=e.Pgt,
            S=tuple(S_group), St=tuple(St_group), rt=e.rt, r=e.r, rept=e.rept)
        xrep = exchange.verify_exchange(bundle, seed=seed, trials=trials)
    for stage in xrep.stages:
        name = f"exchange.{stage.name}"
        if stage.skipped:
            continue
        if subject["mutation"] is None:
            record(name, stage.ok, f"max residual {stage.max_residual}")
        elif name in subject["must_fail"]:
            must = subject["must_fail"][name]
            record(name, stage.ok != must,
                   f"ok={stage.ok}, the reference says it must {'fail' if must else 'pass'}")
        elif name == "exchange.dual_symmetry" or (
                name == "exchange.phase_exchange" and subject["mutation"] == "swap-C-rows"):
            # these stages do not read the mutated field
            record(name, stage.ok, f"max residual {stage.max_residual}")

    if e.zmap is not None:
        invA = e.inv_g if e.inv_g is not None else e.S_chart
        invB = e.inv_gt if e.inv_gt is not None else e.St_chart
        with clock:
            rec = exchange.classify_transformation(
                e.zmap, invA, invB, symplectic.canonical_field(zc), symplectic.canonical_field(ztc),
                seed=seed, trials=trials, samples=3)
        want = original.expected_class
        problems = []
        if (rec.bracket_preserving, rec.invariant_mapping) != (want.bracket_preserving,
                                                                want.invariant_mapping):
            problems.append(f"flags {rec.bracket_preserving}/{rec.invariant_mapping}")
        if want.coefficients is not None and not problems:
            for env_items, rows in rec.coefficients or ():
                env = dict(env_items)
                for i, row in enumerate(rows):
                    for j, got in enumerate(row):
                        if Fraction(got) != expr.evaluate(want.coefficients[i][j], env):
                            problems.append(f"coefficient[{i}][{j}] = {got} at {env}")
            if rec.coefficients is None:
                problems.append("no coefficients recovered")
        record("classification", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# flows: every Hamiltonian of the `bisym flow` table at three step sizes


def setup_flows(job):
    entries = []
    for spec in job["entries"]:
        entry = harness.load_entry(harness.entry_path(spec["entry"]))
        # the names `bisym flow` accepts: S1..Sn, St1..Stn, and I/It for stored invariants
        entries.append((spec, entry, cli._hamiltonian_table(entry)))
    return {"entries": entries}


def _csv_check(text: str, name: str, steps: int, horizon: float, bound: float) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if len(body) != steps + 1:
        return f"csv has {len(body)} rows for {steps} steps"
    if abs(float(body[-1][0]) - horizon) > 1e-9:
        return f"csv ends at t={body[-1][0]}"
    col = header.index(name)
    h0 = float(body[0][col])
    worst = max(abs(float(row[col]) - h0) for row in body) / max(1.0, abs(h0))
    return "" if worst <= bound else f"csv column {name} drifts {worst:.3e}"


def run_flows(job, state, clock):
    T = job["horizon"]
    bound = job["drift_bound"]
    lo, hi = job["ratio_window"]
    results = []
    for spec, entry, table in state["entries"]:
        smap = {k: expr.Rat(Fraction(v)) for k, v in spec["params"].items()}
        offset = [float(Fraction(v)) for v in spec["offset"]]
        for name, (side, H_raw) in sorted(table.items()):
            coords = entry.coords["chart" if side == "group" else "dual_chart"]
            problems = []
            finals = []
            try:
                for dt in job["steps"]:
                    with clock:
                        columns = [(n, expr.subst(e, smap)) for n, (s, e) in sorted(table.items()) if s == side]
                        H = expr.subst(H_raw, smap)
                        start = flow.canonical_start(coords, [H] + [e for _, e in columns])
                        x0 = [a + b for a, b in zip(start, offset)]
                        field = flow.hamiltonian_vector_field(symplectic.canonical_field(coords), H)
                        traj = flow.integrate(coords, field, x0, dt, T)
                        drift = flow.conservation_drift(coords, traj, [H])
                        buf = io.StringIO()
                        flow.export_csv(buf, coords, traj, invariants=columns)
                    if not traj.reached(T):
                        problems.append(f"dt={dt} stopped at t={traj.final_time}")
                        continue
                    if drift.max_relative > bound:
                        problems.append(f"dt={dt} drift {drift.max_relative:.3e}")
                    msg = _csv_check(buf.getvalue(), name, len(traj.times) - 1, T, bound)
                    if msg:
                        problems.append(f"dt={dt} {msg}")
                    finals.append(traj.states[-1])
            except Exception as exc:
                problems.append(f"raised {exc!r}")
            if len(finals) == 3:
                d1 = max(abs(a - b) for a, b in zip(finals[0], finals[1]))
                d2 = max(abs(a - b) for a, b in zip(finals[1], finals[2]))
                scale = max([1.0] + [abs(v) for v in finals[2]])
                if d2 > job["roundoff"] * scale and not lo <= d1 / d2 <= hi:
                    problems.append(f"step-halving ratio {d1 / d2:.2f}")
            results.append((f"{entry.entry_id}/{name}", not problems, "; ".join(problems)))
    return results


WORKLOADS = {
    "catalog": (setup_catalog, run_catalog),
    "dense_exact": (setup_dense_exact, run_dense_exact),
    "identity": (setup_identity, run_identity),
    "flows": (setup_flows, run_flows),
}

"""Tests of the benchmark's own code: generated controls, reference, tracer."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bench import inputs, reference as ref
from bench.paths import use_source_tree

use_source_tree()

from bisymplectic import harness, liealg, rmatrix, symplectic  # noqa: E402
from bisymplectic.expr import evaluate  # noqa: E402
from bisymplectic.liealg import default_assignments  # noqa: E402


def _grid(m, env):
    return [[Fraction(evaluate(x, env)) for x in row] for row in m]


def _poly_value(text: str, sample: dict) -> Fraction:
    """Evaluate one serialized entry, a sum of '(c)', '(c) * s' and '(c) * s^k' terms."""
    s = sample.get(inputs.DENSE_PARAM, Fraction(0))
    total = Fraction(0)
    for term in text.split(" + "):
        coef, _, power = term.partition(" * ")
        k = 0 if not power else (int(power.split("^")[1]) if "^" in power else 1)
        total += Fraction(coef.strip("()")) * s ** k
    return total


def _evaluate_case(case: dict, sample: dict) -> dict:
    def ev(x):
        if x is None:
            return None
        return _poly_value(x, sample) if isinstance(x, str) else [ev(y) for y in x]

    return {k: ev(case[k]) for k in ("g", "gdual", "r", "rt", "omega_g", "omega_gdual", "rept")}


def _reference_values(case: dict) -> dict:
    """Per check, the reference residual maximised over the case's samples."""
    out: dict = {}
    for sample in ({k: Fraction(v) for k, v in smp.items()} for smp in case["samples"]):
        v = _evaluate_case(case, sample)
        got = {
            "antisymmetry.g": lambda: ref.antisymmetry_max(v["g"]),
            "antisymmetry.gdual": lambda: ref.antisymmetry_max(v["gdual"]),
            "jacobi.g": lambda: ref.jacobi_max(v["g"]),
            "jacobi.gdual": lambda: ref.jacobi_max(v["gdual"]),
            "manin": lambda: ref.manin_max(v["g"], v["gdual"]),
            "cybe.r": lambda: ref.cybe_max(v["r"], v["g"]),
            "cybe.rt": lambda: ref.cybe_max(v["rt"], v["gdual"]),
            "closure.g": lambda: ref.closure_max(v["omega_g"], v["g"]),
            "closure.gdual": lambda: ref.closure_max(v["omega_gdual"], v["gdual"]),
            "nondegenerate.g": lambda: abs(ref.det(v["omega_g"])),
            "nondegenerate.gdual": lambda: abs(ref.det(v["omega_gdual"])),
            "representation": lambda: ref.representation_max(v["rept"], v["gdual"]),
        }
        for check in case["expect"]:
            value = got[check]()
            if check not in out:
                out[check] = value
            elif check.startswith("nondegenerate"):
                out[check] = min(out[check], value)
            elif check == "manin":
                out[check] = tuple(max(a, b) for a, b in zip(out[check], value))
            else:
                out[check] = max(out[check], value)
    return out


@pytest.fixture(scope="module")
def dense_job():
    return inputs.build("dense_exact", 11)


def _is_positive(case: dict) -> bool:
    return all(want["ok"] for want in case["expect"].values())


def test_dense_controls_cover_every_check_and_a_parametrised_table(dense_job):
    positives = [c for c in dense_job["cases"] if _is_positive(c)]
    negatives = [c for c in dense_job["cases"] if not _is_positive(c)]
    assert {c["dim"] for c in positives} == {4, 6}
    assert any(c["params"] and len(c["samples"]) == inputs.DENSE_PARAM_SAMPLES for c in positives)
    checks = {check for c in positives for check in c["expect"]}
    assert checks == {"antisymmetry.g", "antisymmetry.gdual", "jacobi.g", "jacobi.gdual", "manin",
                      "cybe.r", "cybe.rt", "closure.g", "closure.gdual", "nondegenerate.g",
                      "nondegenerate.gdual", "representation"}
    assert checks == {check for c in negatives for check in c["expect"]}
    # generic bases: the bialgebra tables are dense
    for c in positives:
        if "jacobi.g" in c["expect"]:
            nonzero = sum(1 for plane in c["g"] for row in plane for x in row if x != "0")
            assert nonzero >= c["dim"] ** 3 // 2, c["name"]


def test_positive_controls_satisfy_the_identities_under_the_reference(dense_job):
    for case in filter(_is_positive, dense_job["cases"]):
        values = _reference_values(case)
        for check, value in values.items():
            if check.startswith("nondegenerate"):
                assert value != 0 and value == Fraction(case["expect"][check]["max_abs"]), case["name"]
            elif check == "manin":
                assert value == (0, 0), case["name"]
            else:
                assert value == 0, (case["name"], check)


def test_negative_controls_violate_the_identities_under_the_reference(dense_job):
    negatives = [c for c in dense_job["cases"] if not _is_positive(c)]
    assert negatives
    for case in negatives:
        values = _reference_values(case)
        for check, value in values.items():
            want = case["expect"][check]["max_abs"]
            if check.startswith("nondegenerate"):
                assert value == 0
            elif check == "manin":
                assert any(value) and value == tuple(Fraction(x) for x in want), case["name"]
            else:
                assert value != 0 and value == Fraction(want), (case["name"], check)


def test_same_seed_same_inputs():
    assert inputs.build("flows", 5) == inputs.build("flows", 5)
    assert inputs.build("flows", 5) != inputs.build("flows", 6)


def test_reference_agrees_with_the_program_on_the_catalog():
    for path in harness.list_entry_paths():
        entry = harness.load_entry(path)
        for e in (entry, harness.apply_mutations(entry, ["perturb-r"]) if entry.rt else None):
            if e is None:
                continue
            env = default_assignments(e.params, count=1, seed=0)[0]
            g, gd = e.g.evaluated(env), e.gdual.evaluated(env)
            lowered = liealg.StructureConstants(e.dim, e.gdual.entries, "lower")
            assert liealg.check_jacobi(e.g, [env]).max_abs == ref.jacobi_max(g)
            assert liealg.check_jacobi(e.gdual, [env]).max_abs == ref.jacobi_max(gd)
            man = liealg.verify_manin_triple(e.bialgebra, [env])
            assert (man.jacobi.max_abs, man.ad_invariance.max_abs) == ref.manin_max(g, gd)
            if e.rt is not None:
                got = rmatrix.cybe_residual(e.rt, lowered, [env]).max_abs
                assert got == ref.cybe_max(e.rt.evaluated(env), gd)
            if e.r is not None:
                assert rmatrix.cybe_residual(e.r, e.g, [env]).max_abs == ref.cybe_max(e.r.evaluated(env), g)
            for form, table, values in ((e.omega_g, e.g, g), (e.omega_gdual, lowered, gd)):
                if form is not None:
                    w = _grid(form.entries, env)
                    got = symplectic.closure_residual(form, table, [env]).cyclic.max_abs
                    assert got == ref.closure_max(w, values)
                    assert symplectic.check_nondegenerate(form, [env]).max_abs == abs(ref.det(w))
            if e.rept is not None:
                mats = [_grid(m, env) for m in e.rept.matrices]
                got = liealg.check_representation(e.rept, e.gdual, [env]).max_abs
                assert got == ref.representation_max(mats, gd)


def test_program_reports_the_reference_value_on_perturbed_dense_tables(dense_job):
    from bench import workloads

    cheap = [c for c in dense_job["cases"] if not _is_positive(c) and "manin" not in c["expect"]]
    state = workloads.setup_dense_exact({"cases": cheap})
    assert any(c["dim"] == 6 for c in cheap)
    for case in state["cases"]:
        for check, want in case["expect"].items():
            ok, got = workloads._dense_call(check, case)
            assert not ok and got == Fraction(want["max_abs"]), (case["name"], check)


def test_reference_detects_a_broken_bracket():
    # [e0, e1] = e0, [e1, e2] = e1 is not a Lie bracket: J(e0, e1, e2) = e0
    f = liealg.StructureConstants.from_brackets(3, {(0, 1, 0): 1, (1, 2, 1): 1})
    t = f.evaluated({})
    assert ref.jacobi_max(t) == liealg.check_jacobi(f, [{}]).max_abs != 0


def test_tracer_restores_every_patched_attribute():
    import sys

    from bench import workloads
    from bench.tracer import TRACED, Tracer

    def snapshot():
        mods = [m for n, m in sys.modules.items() if n.startswith("bisymplectic") and m is not None]
        return {(m.__name__, k): v for m in mods + [workloads] for k, v in vars(m).items()}

    before = snapshot()
    tracer = Tracer()
    with tracer:
        assert liealg.check_jacobi is not before[("bisymplectic.liealg", "check_jacobi")]
        assert harness.check_jacobi is liealg.check_jacobi
        liealg.check_jacobi(liealg.StructureConstants.from_brackets(2, {(0, 1, 1): 1}), [{}])
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert len(tracer._patched) == 0
    assert tracer.counters["liealg.check_jacobi.calls"] == 1
    assert {name for name, *_ in tracer.spans} == {"liealg.check_jacobi"}
    assert len({f"{layer}.{fn}" for layer, fn in TRACED}) == len(TRACED)


def test_tracer_self_time_subtracts_children():
    from bench.tracer import Tracer

    tracer = Tracer()
    tracer.spans = [("outer", 0.0, 10.0, None, 1), ("inner", 2.0, 5.0, 0, 1), ("inner", 6.0, 7.0, 0, 1)]
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}
    assert tracer.total_times() == {"outer": 10.0, "inner": 4.0}


def test_benchmark_json_names_the_printed_metrics():
    import json

    from bench.paths import ROOT
    from bench.tracer import LAYER_METRICS, OVERHEAD_METRIC, layer_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed = layer_metrics({"total_s": {}, "self_s": {}, "counters": {}}, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_METRICS) + [OVERHEAD_METRIC]
    assert all(printed[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "pass_s", "peak_rss_mb"]


def test_an_operation_that_raises_counts_as_failed(dense_job, monkeypatch):
    from bench import workloads

    def broken(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(liealg, "check_antisymmetry", broken)
    case = next(c for c in dense_job["cases"] if "antisymmetry.g" in c["expect"] and c["dim"] == 4)
    one = dict(case, expect={"antisymmetry.g": case["expect"]["antisymmetry.g"]})
    results = workloads.run_dense_exact({}, workloads.setup_dense_exact({"cases": [one]}),
                                        workloads.Clock())
    assert [(name.split("/")[-1], ok) for name, ok, _ in results] == [("antisymmetry.g", False)]
    assert "injected" in results[0][2]


def test_calibration_stops_when_asked():
    import threading

    from bench import calibrate

    stop = threading.Event()
    timer = threading.Timer(0.05, stop.set)
    timer.start()
    units, cpu = calibrate.run_until(stop)
    timer.join()
    assert units >= 1 and cpu > 0

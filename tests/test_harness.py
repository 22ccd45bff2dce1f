"""Catalog loader, check ladder, mutation controls, aggregation, and reports."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from bisymplectic import harness
from bisymplectic.harness import (
    ENV_CATALOG,
    CatalogError,
    MUTATIONS,
    VerifyConfig,
    apply_mutations,
    catalog_dir,
    emit_report,
    entry_path,
    list_entry_paths,
    load_entry,
    parse_report,
    verify_all,
    verify_entry,
)

EX1 = "ex1_A4_9_0_iv__A4_9_0"

# structural settings: enough sampling to catch the deliberate corruptions
# while keeping the suite quick; the acceptance tests pin the full settings
QUICK = VerifyConfig(trials=8, exact_samples=2, class_samples=2, dt=5e-3)


@pytest.fixture(scope="module")
def ex1_entry():
    return load_entry(entry_path(EX1))


@pytest.fixture(scope="module")
def ex1_report(ex1_entry):
    return verify_entry(ex1_entry, QUICK)


@pytest.fixture(scope="module")
def trivial_entry():
    return load_entry(entry_path("trivial_abelian"))


@pytest.fixture(scope="module")
def trivial_report(trivial_entry):
    return verify_entry(trivial_entry, QUICK)


@pytest.fixture(scope="module")
def summary():
    return verify_all(config=QUICK)


def ex1_doc():
    return json.loads(entry_path(EX1).read_text())


def write_doc(tmp_path, doc, name="broken.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoader:
    def test_ex1_shape(self, ex1_entry):
        e = ex1_entry
        assert e.entry_id == EX1
        assert e.dim == 4
        assert tuple(p.name for p in e.parameters) == ("a", "b", "c", "d")
        assert all(p.nonzero for p in e.parameters)
        assert set(e.coords) == {"group", "dual_group", "chart", "dual_chart"}
        assert all(len(e.coords[k]) == 4 for k in e.coords)
        assert e.rt is not None and e.r is not None and e.rept is not None
        assert e.inv_g is not None and len(e.inv_g) == 2
        assert e.zmap is not None
        assert e.omega_g is not None and e.omega_gdual is not None
        assert all(d is not None for d in e.S_display)
        assert len(e.S_chart) == 4 and len(e.St_chart) == 4
        assert e.expected_families_group == ((0, 1), (0, 2), (2, 3))

    def test_trivial_shape(self, trivial_entry):
        e = trivial_entry
        assert e.rt is None and e.r is None and e.rept is None
        assert e.inv_g is None
        assert e.parameters == ()
        assert e.expected_families_group == ((0, 1, 2, 3),)

    def test_whole_catalog_loads(self):
        paths = list_entry_paths()
        assert len(paths) == 6
        for p in paths:
            assert load_entry(p).dim == 4

    def test_missing_field_names_path(self, tmp_path):
        doc = ex1_doc()
        del doc["basis_change"]
        with pytest.raises(CatalogError, match=r"basis_change: missing required field"):
            load_entry(write_doc(tmp_path, doc))

    def test_bad_index_names_path(self, tmp_path):
        doc = ex1_doc()
        doc["bialgebra"]["g"]["entries"][0][0] = 9
        with pytest.raises(CatalogError, match=r"bialgebra\.g\.entries\[0\]\[0\].*9"):
            load_entry(write_doc(tmp_path, doc))

    def test_wrong_row_length_names_path(self, tmp_path):
        doc = ex1_doc()
        doc["basis_change"]["rows"][2] = ["1", "0"]
        with pytest.raises(CatalogError, match=r"basis_change\.rows\[2\]"):
            load_entry(write_doc(tmp_path, doc))

    def test_undeclared_symbol_is_named(self, tmp_path):
        doc = ex1_doc()
        doc["charts"]["group"]["exprs"][0] = "w9 + x1"
        with pytest.raises(CatalogError, match=r"charts\.group\.exprs\[0\].*w9"):
            load_entry(write_doc(tmp_path, doc))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        with pytest.raises(CatalogError, match="invalid JSON"):
            load_entry(path)

    def test_parameter_coordinate_collision(self, tmp_path):
        doc = ex1_doc()
        doc["parameters"].append({"name": "x1", "nonzero": True})
        with pytest.raises(CatalogError, match="collides with a coordinate"):
            load_entry(write_doc(tmp_path, doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CatalogError):
            load_entry(tmp_path / "absent.json")

    def test_duplicate_form_entry_names_path(self, tmp_path):
        doc = json.loads(entry_path("trivial_abelian").read_text())
        doc["omega"]["g"]["upper"].append([0, 1, "0"])
        with pytest.raises(CatalogError, match=r"omega\.g\.upper\[2\]: duplicate entry \(0, 1\)"):
            load_entry(write_doc(tmp_path, doc))


class TestVerifyEntry:
    def test_ex1_all_green(self, ex1_report):
        assert ex1_report.ok
        assert ex1_report.failures == []
        assert ex1_report.entry_id == EX1
        statuses = {c.status for c in ex1_report.checks}
        assert statuses == {"pass"}

    def test_trivial_green_with_skips(self, trivial_report):
        assert trivial_report.ok
        for name in (
            "liealg.representation",
            "rmatrix.cybe.dual",
            "rmatrix.cybe.bracket",
            "dynsys.q_matrix",
            "dynsys.trace_invariants",
            "dynsys.invariant_involution.group",
            "exchange.q_transform",
        ):
            assert trivial_report.check(name).status == "skip"
        assert trivial_report.check("liealg.manin_triple").status == "pass"

    def test_same_ladder_both_entries(self, ex1_report, trivial_report):
        names = [c.name for c in ex1_report.checks]
        assert names == [c.name for c in trivial_report.checks]
        assert len(names) == len(set(names))

    def test_unknown_check_name(self, ex1_report):
        with pytest.raises(KeyError):
            ex1_report.check("no.such.check")

    def test_parameter_samples_are_exact_strings(self, ex1_report):
        assert len(ex1_report.parameter_samples) == QUICK.exact_samples
        for sample in ex1_report.parameter_samples:
            assert set(sample) == {"a", "b", "c", "d"}
            for v in sample.values():
                assert Fraction(v) != 0


NO_DUAL_R = "no classical matrix stored for the dual table"
NO_REPT = "no acting matrices stored"
NO_FORM = "no two-form stored"
NO_INV = "no invariants stored"
Q_DUAL = "needs both a dual-table classical matrix and acting matrices"
Q_BRACKET = "needs both a bracket-table classical matrix and acting matrices"
TRACE_DUAL = "needs a dual-table classical matrix, acting matrices, and invariants"
TRACE_BRACKET = "needs a bracket-table classical matrix, acting matrices, and invariants"

# the checks ex1 skips once one optional field is dropped, with their reasons
SKIPS_WITHOUT = {
    "rt": {
        "rmatrix.cybe.dual": NO_DUAL_R,
        "rmatrix.cobracket": NO_DUAL_R,
        "dynsys.q_matrix": Q_DUAL,
        "dynsys.trace_invariants": TRACE_DUAL,
        "exchange.q_transform": "missing rt",
    },
    "r": {
        "rmatrix.cybe.bracket": "no classical matrix stored for the bracket table",
        "dynsys.q_matrix.dual": Q_BRACKET,
        "dynsys.trace_invariants.dual": TRACE_BRACKET,
        "exchange.q_transform": "missing r",
    },
    "rept": {
        "liealg.representation": NO_REPT,
        "liealg.representation.transported": NO_REPT,
        "dynsys.q_matrix": Q_DUAL,
        "dynsys.q_matrix.dual": Q_BRACKET,
        "dynsys.trace_invariants": TRACE_DUAL,
        "dynsys.trace_invariants.dual": TRACE_BRACKET,
        "exchange.q_transform": "missing rept",
    },
    "omega_g": {"symplectic.closure.g": NO_FORM, "symplectic.nondegenerate.g": NO_FORM},
    "omega_gdual": {"symplectic.closure.gdual": NO_FORM, "symplectic.nondegenerate.gdual": NO_FORM},
    "inv_g": {
        "dynsys.trace_invariants": TRACE_DUAL,
        "dynsys.invariant_involution.group": NO_INV,
        "dynsys.invariant_independence.group": NO_INV,
    },
    "inv_gt": {
        "dynsys.trace_invariants.dual": TRACE_BRACKET,
        "dynsys.invariant_involution.dual_group": NO_INV,
        "dynsys.invariant_independence.dual_group": NO_INV,
    },
    "zmap": {"exchange.classification": "no chart-level map stored"},
}


class TestLadderTable:
    @pytest.mark.parametrize("field", sorted(SKIPS_WITHOUT))
    def test_absent_field_skips_exactly_its_checks(self, ex1_entry, ex1_report, field):
        report = verify_entry(dataclasses.replace(ex1_entry, **{field: None}), QUICK)
        assert [c.name for c in report.checks] == [c.name for c in ex1_report.checks]
        skipped = {c.name: c.detail for c in report.checks if c.status == "skip"}
        assert skipped == SKIPS_WITHOUT[field]

    def test_a_raising_layer_fails_only_its_checks(self, ex1_entry, ex1_report, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("antisymmetry down")

        monkeypatch.setattr(harness, "check_antisymmetry", boom)
        report = verify_entry(ex1_entry, QUICK)
        crashed = ("liealg.antisymmetry.g", "liealg.antisymmetry.gdual")
        for before, after in zip(ex1_report.checks, report.checks, strict=True):
            if after.name in crashed:
                assert after.status == "fail"
                assert after.max_residual == math.inf
                assert after.detail == "RuntimeError: antisymmetry down"
            else:
                assert after == before

    def test_a_raising_exchange_keeps_the_whole_ladder(self, ex1_entry, ex1_report, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("exchange down")

        monkeypatch.setattr(harness, "verify_exchange", boom)
        report = verify_entry(ex1_entry, QUICK)
        assert [c.name for c in report.checks] == [c.name for c in ex1_report.checks]
        assert len(report.checks) == 43
        failed = {c.name: (c.max_residual, c.detail) for c in report.failures}
        assert failed == {
            f"exchange.{stage}": (math.inf, "RuntimeError: exchange down")
            for stage in ("phase_exchange", "dynfunc_transport", "dual_symmetry", "q_transform")
        }
        for name in ("exchange.classification", "flow.conservation.group",
                     "flow.conservation.dual_group"):
            assert report.check(name).status == "pass"


class TestMutations:
    def test_registry(self):
        assert set(MUTATIONS) == {"swap-C-rows", "perturb-r", "drop-map-term"}

    def test_unknown_flag(self, ex1_entry):
        with pytest.raises(CatalogError, match="unknown mutation flag 'nope'"):
            apply_mutations(ex1_entry, ["nope"])

    @pytest.mark.parametrize(
        "flag,expect_failing",
        [
            ("swap-C-rows", "liealg.basis_change.transport"),
            ("perturb-r", "exchange.q_transform"),
            ("drop-map-term", "exchange.phase_exchange"),
        ],
    )
    def test_flag_flips_a_check(self, ex1_entry, ex1_report, flag, expect_failing):
        mutated = apply_mutations(ex1_entry, [flag])
        report = verify_entry(mutated, QUICK)
        assert not report.ok
        assert ex1_report.check(expect_failing).status == "pass"
        assert report.check(expect_failing).status == "fail"

    def test_perturb_r_needs_classical_matrix(self, trivial_entry):
        with pytest.raises(CatalogError, match="perturb-r"):
            apply_mutations(trivial_entry, ["perturb-r"])

    def test_drop_map_term_needs_sum(self, trivial_entry):
        with pytest.raises(CatalogError, match="drop-map-term"):
            apply_mutations(trivial_entry, ["drop-map-term"])

    def test_mutation_does_not_touch_the_original(self, ex1_entry):
        before = ex1_entry.C.matrix()
        apply_mutations(ex1_entry, ["swap-C-rows"])
        assert ex1_entry.C.matrix() == before


class TestVerifyAll:
    def test_bundled_catalog_green(self, summary):
        assert summary.ok
        assert summary.load_errors == ()
        assert [r.entry_id for r in summary.reports] == [
            EX1,
            "ex2_A2A2__A2A2_vi",
            "ex3_A4_9_0__A4_9_0_iv",
            "ex4_A4_9_1__A4_9_1_i",
            "ex5_A4_7_i__A4_7",
            "trivial_abelian",
        ]
        assert all(r.ok for r in summary.reports)

    def test_empty_directory(self, tmp_path):
        s = verify_all(tmp_path, QUICK)
        assert s.reports == () and s.load_errors == ()
        assert s.ok

    def test_corrupted_file_is_listed_not_fatal(self, tmp_path):
        (tmp_path / "trivial_abelian.json").write_text(
            entry_path("trivial_abelian").read_text()
        )
        (tmp_path / "mangled.json").write_text("{broken")
        s = verify_all(tmp_path, QUICK)
        assert len(s.reports) == 1 and s.reports[0].ok
        assert len(s.load_errors) == 1
        assert s.load_errors[0][0] == "mangled.json"
        assert not s.ok

    def test_summary_lookup(self, summary):
        assert summary.report("trivial_abelian").ok
        with pytest.raises(KeyError):
            summary.report("absent")

    def test_catalog_dir_override(self, tmp_path, monkeypatch):
        (tmp_path / "trivial_abelian.json").write_text(
            entry_path("trivial_abelian").read_text()
        )
        monkeypatch.setenv(ENV_CATALOG, str(tmp_path))
        assert catalog_dir() == tmp_path
        assert [p.name for p in list_entry_paths()] == ["trivial_abelian.json"]
        s = verify_all(config=QUICK)
        assert len(s.reports) == 1 and s.ok


# every ladder rung must run for real (not skip) in at least one entry
COVERAGE_MANIFEST = (
    "liealg.antisymmetry.g",
    "liealg.antisymmetry.gdual",
    "liealg.jacobi.g",
    "liealg.jacobi.gdual",
    "liealg.manin_triple",
    "liealg.basis_change.invertible",
    "liealg.basis_change.transport",
    "liealg.representation",
    "liealg.representation.transported",
    "rmatrix.cybe.dual",
    "rmatrix.cybe.bracket",
    "rmatrix.cobracket",
    "symplectic.closure.g",
    "symplectic.closure.gdual",
    "symplectic.nondegenerate.g",
    "symplectic.nondegenerate.gdual",
    "symplectic.field_skew.group",
    "symplectic.field_skew.dual_group",
    "symplectic.field_jacobi.group",
    "symplectic.field_jacobi.dual_group",
    "dynsys.darboux.group",
    "dynsys.darboux.dual_group",
    "dynsys.symmetry.group",
    "dynsys.symmetry.dual_group",
    "dynsys.display.group",
    "dynsys.display.dual_group",
    "dynsys.involutive.group",
    "dynsys.involutive.dual_group",
    "dynsys.q_matrix",
    "dynsys.q_matrix.dual",
    "dynsys.trace_invariants",
    "dynsys.trace_invariants.dual",
    "dynsys.invariant_involution.group",
    "dynsys.invariant_involution.dual_group",
    "dynsys.invariant_independence.group",
    "dynsys.invariant_independence.dual_group",
    "exchange.phase_exchange",
    "exchange.dynfunc_transport",
    "exchange.dual_symmetry",
    "exchange.q_transform",
    "exchange.classification",
    "flow.conservation.group",
    "flow.conservation.dual_group",
)


def test_coverage_manifest(summary):
    exercised = {
        c.name
        for r in summary.reports
        for c in r.checks
        if c.status != "skip"
    }
    missing = [name for name in COVERAGE_MANIFEST if name not in exercised]
    assert missing == []
    # and the manifest itself is the whole ladder
    ladder = {c.name for r in summary.reports for c in r.checks}
    assert ladder == set(COVERAGE_MANIFEST)


class TestReports:
    def test_json_round_trip(self, ex1_report):
        blob = emit_report(ex1_report, "json")
        again = emit_report(parse_report(blob), "json")
        assert blob == again

    def test_summary_round_trip(self, summary):
        blob = emit_report(summary, "json")
        assert emit_report(parse_report(blob), "json") == blob

    def test_json_fields(self, ex1_report):
        doc = json.loads(emit_report(ex1_report, "json"))
        assert doc["kind"] == "verification"
        assert doc["entry"] == EX1
        assert doc["ok"] is True
        assert doc["seed"] == QUICK.seed
        first = doc["checks"][0]
        assert set(first) == {"name", "status", "max_residual", "witness", "detail"}
        assert {c["status"] for c in doc["checks"]} <= {"pass", "fail", "skip"}

    def test_determinism_modulo_elapsed(self, ex1_entry, ex1_report):
        rerun = verify_entry(load_entry(entry_path(EX1)), QUICK)
        a = json.loads(emit_report(ex1_report, "json"))
        b = json.loads(emit_report(rerun, "json"))
        a.pop("elapsed")
        b.pop("elapsed")
        assert a == b

    def test_failure_witness_full_precision(self, ex1_entry):
        mutated = apply_mutations(ex1_entry, ["swap-C-rows"])
        report = verify_entry(mutated, QUICK)
        failing = report.check("liealg.basis_change.transport")
        assert failing.status == "fail"
        assert failing.witness is not None
        values = {k: v for k, v in failing.witness.items() if not k.startswith("@")}
        assert values and all(Fraction(v) is not None for v in values.values())
        doc = json.loads(emit_report(report, "json"))
        stored = next(c for c in doc["checks"] if c["name"] == failing.name)
        assert stored["witness"] == dict(failing.witness)

    def test_text_format(self, ex1_report, summary):
        text = emit_report(ex1_report, "text").decode()
        assert text.splitlines()[0].startswith(f"entry {EX1}")
        assert "[pass] liealg.manin_triple" in text
        overview = emit_report(summary, "text").decode()
        assert overview.startswith("catalog summary: 6 verified, 6 pass")

    def test_unknown_format(self, ex1_report):
        with pytest.raises(ValueError):
            emit_report(ex1_report, "yaml")

    def test_parse_report_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_report(b"[1, 2]")
        with pytest.raises(ValueError):
            parse_report(b"not json")

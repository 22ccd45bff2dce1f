"""Command-line surface: subcommands, exit codes, and artifact outputs."""

import csv
import json

from bisymplectic.cli import main
from bisymplectic.harness import ENV_CATALOG, entry_path, parse_report

EX1 = "ex1_A4_9_0_iv__A4_9_0"


def test_verify_single_entry_json(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--entry", "trivial_abelian", "--trials", "6",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    report = parse_report(out.read_bytes())
    assert report.ok and report.entry_id == "trivial_abelian"


def test_verify_text_to_stdout(capsys):
    rc = main(["verify", "--entry", "trivial_abelian", "--trials", "6"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("entry trivial_abelian")


def test_verify_seed_flows_into_report(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["verify", "--entry", "trivial_abelian", "--seed", "42",
               "--trials", "6", "--format", "json", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_bytes())["seed"] == 42


def test_verify_requires_exactly_one_target(capsys):
    assert main(["verify"]) == 2
    assert main(["verify", "--entry", "x", "--all"]) == 2
    assert "exactly one of" in capsys.readouterr().err


def test_verify_unknown_entry(capsys):
    assert main(["verify", "--entry", "absent"]) == 2
    assert "absent" in capsys.readouterr().err


def test_mutate_with_all_rejected(capsys):
    assert main(["verify", "--all", "--mutate", "perturb-r"]) == 2
    assert "--mutate" in capsys.readouterr().err


def test_unknown_mutation_flag_is_usage_error():
    assert main(["verify", "--entry", EX1, "--mutate", "bogus"]) == 2


def test_mutated_entry_fails_with_rc1(tmp_path):
    out = tmp_path / "bad.json"
    rc = main(["verify", "--entry", EX1, "--mutate", "swap-C-rows",
               "--trials", "6", "--format", "json", "--out", str(out)])
    assert rc == 1
    doc = json.loads(out.read_bytes())
    assert doc["ok"] is False
    assert any(c["status"] == "fail" for c in doc["checks"])
    # a zero test's witness names which residual failed, not which trial
    q_dual = next(c for c in doc["checks"] if c["name"] == "dynsys.q_matrix.dual")
    assert q_dual["status"] == "fail"
    assert q_dual["witness"]["@residual"] == "6" and "@trial" not in q_dual["witness"]


def test_verify_all_with_unreadable_entry(tmp_path, monkeypatch):
    (tmp_path / "trivial_abelian.json").write_text(
        entry_path("trivial_abelian").read_text()
    )
    (tmp_path / "mangled.json").write_text("{")
    monkeypatch.setenv(ENV_CATALOG, str(tmp_path))
    out = tmp_path / "summary.json"
    rc = main(["verify", "--all", "--trials", "6", "--format", "json", "--out", str(out)])
    assert rc == 2
    doc = json.loads(out.read_bytes())
    assert doc["kind"] == "summary"
    assert [pair[0] for pair in doc["load_errors"]] == ["mangled.json"]
    assert [r["entry"] for r in doc["reports"]] == ["trivial_abelian"]


def test_verify_all_green_with_override(tmp_path, monkeypatch):
    (tmp_path / "trivial_abelian.json").write_text(
        entry_path("trivial_abelian").read_text()
    )
    monkeypatch.setenv(ENV_CATALOG, str(tmp_path))
    out = tmp_path / "summary.json"
    rc = main(["verify", "--all", "--trials", "6", "--format", "json", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_bytes())["ok"] is True


def test_flow_writes_csv(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["flow", "--entry", "trivial_abelian", "--hamiltonian", "S3",
               "--t", "0.1", "--dt", "0.01", "--out", str(out)])
    assert rc == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "z1", "z2", "z3", "z4", "S1", "S2", "S3", "S4"]
    assert len(rows) == 12  # header plus eleven samples
    col = rows[0].index("S3")
    assert abs(float(rows[-1][col]) - float(rows[1][col])) < 1e-9


def test_flow_dual_side_with_invariants(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["flow", "--entry", EX1, "--hamiltonian", "It1",
               "--t", "0.05", "--dt", "0.005", "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header[:5] == ["t", "zt1", "zt2", "zt3", "zt4"]
    assert "It1" in header and "St1" in header and "S1" not in header


def test_flow_unknown_hamiltonian(tmp_path, capsys):
    rc = main(["flow", "--entry", "trivial_abelian", "--hamiltonian", "Q9",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "unknown hamiltonian" in capsys.readouterr().err


def test_flow_rejects_bad_step(tmp_path):
    rc = main(["flow", "--entry", "trivial_abelian", "--hamiltonian", "S1",
               "--dt", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_flow_unknown_entry(tmp_path):
    rc = main(["flow", "--entry", "absent", "--hamiltonian", "S1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_list_inventory(capsys):
    rc = main(["list"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    ex1_line = next(line for line in lines if line.startswith(EX1))
    assert "classical" in ex1_line and "acting" in ex1_line
    assert any("tables-only" in line or "chart-map" in line for line in lines)


def test_list_reports_unreadable(tmp_path, monkeypatch, capsys):
    (tmp_path / "zz.json").write_text("{")
    monkeypatch.setenv(ENV_CATALOG, str(tmp_path))
    rc = main(["list"])
    assert rc == 2
    assert "unreadable" in capsys.readouterr().err


def test_usage_errors_exit_two():
    assert main([]) == 2
    assert main(["verify", "--bogus-flag"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0

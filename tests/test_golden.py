"""Golden reports: the fixed-seed catalog summary, every mutant report, and
the bytes of every ``bisym flow`` table.

The JSON reports at the CLI defaults (seed 0, 20 trials) are the behaviour
contract of the exact checks and the zero tests.  With every ``elapsed``
stripped they must match the files under ``tests/data`` byte for byte.  The
flow golden holds, per entry and Hamiltonian, the exit status and the length
and sha256 of the CSV that ``bisym flow`` writes at ``--dt 0.01 --t 0.5``:
the text of every float, sign of zero included, and not only its value.
Regenerate them with ``PYTHONPATH=src python tests/test_golden.py`` only for
an intended change of behaviour.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from bisymplectic.cli import _hamiltonian_table, main
from bisymplectic.harness import MUTATIONS, emit_report, list_entry_paths, load_entry, verify_all

DATA = Path(__file__).parent / "data"
CATALOG_GOLDEN = DATA / "catalog_seed0.json"
FLOW_GOLDEN = DATA / "flow_csv_sha256.json"
MUTANTS = [(p.stem, flag) for p in list_entry_paths() for flag in sorted(MUTATIONS)]


def strip_elapsed(payload: bytes) -> bytes:
    def drop(node):
        if isinstance(node, dict):
            return {k: drop(v) for k, v in node.items() if k != "elapsed"}
        if isinstance(node, list):
            return [drop(v) for v in node]
        return node

    return (json.dumps(drop(json.loads(payload)), indent=2, sort_keys=True) + "\n").encode("utf-8")


def catalog_report() -> bytes:
    return strip_elapsed(emit_report(verify_all(), "json"))


def mutant_report(entry_id: str, flag: str, out: Path) -> bytes:
    """Exit status, then the report, or the complaint of a flag that does not apply."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["verify", "--entry", entry_id, "--mutate", flag, "--format", "json", "--out", str(out)])
    body = strip_elapsed(out.read_bytes()) if rc == 1 else err.getvalue().encode("utf-8")
    return f"exit {rc}\n".encode("utf-8") + body


def mutant_golden(entry_id: str, flag: str) -> Path:
    return DATA / "mutants" / f"{entry_id}.{flag}.out"


def flow_digests(out: Path) -> bytes:
    """For every entry and every name of its flow table: ``bisym flow`` at
    dt = 0.01 to t = 0.5, as exit status and the CSV's length and sha256."""
    digests = {}
    for path in list_entry_paths():
        for name in sorted(_hamiltonian_table(load_entry(path))):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = main(["flow", "--entry", path.stem, "--hamiltonian", name,
                           "--dt", "0.01", "--t", "0.5", "--out", str(out)])
            data = out.read_bytes()
            digests[f"{path.stem}/{name}"] = {
                "bytes": len(data), "exit": rc, "sha256": hashlib.sha256(data).hexdigest()}
    return (json.dumps(digests, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_catalog_report_matches_golden():
    assert catalog_report() == CATALOG_GOLDEN.read_bytes()


@pytest.mark.parametrize("entry_id,flag", MUTANTS)
def test_mutant_report_matches_golden(entry_id, flag, tmp_path):
    assert mutant_report(entry_id, flag, tmp_path / "report.json") == mutant_golden(entry_id, flag).read_bytes()


def test_flow_csv_matches_golden(tmp_path):
    assert flow_digests(tmp_path / "flow.csv") == FLOW_GOLDEN.read_bytes()


if __name__ == "__main__":
    CATALOG_GOLDEN.write_bytes(catalog_report())
    FLOW_GOLDEN.write_bytes(flow_digests(FLOW_GOLDEN.with_suffix(".csv")))
    FLOW_GOLDEN.with_suffix(".csv").unlink(missing_ok=True)
    for entry_id, flag in MUTANTS:
        path = mutant_golden(entry_id, flag)
        path.write_bytes(mutant_report(entry_id, flag, path.with_suffix(".json")))
        path.with_suffix(".json").unlink(missing_ok=True)

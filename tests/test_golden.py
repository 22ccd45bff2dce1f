"""Golden reports: the fixed-seed catalog summary and every mutant report.

The JSON reports at the CLI defaults (seed 0, 20 trials) are the behaviour
contract of the exact checks and the zero tests.  With every ``elapsed``
stripped they must match the files under ``tests/data`` byte for byte.
Regenerate them with ``PYTHONPATH=src python tests/test_golden.py`` only for
an intended change of behaviour.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from bisymplectic.cli import main
from bisymplectic.harness import MUTATIONS, emit_report, list_entry_paths, verify_all

DATA = Path(__file__).parent / "data"
CATALOG_GOLDEN = DATA / "catalog_seed0.json"
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


def test_catalog_report_matches_golden():
    assert catalog_report() == CATALOG_GOLDEN.read_bytes()


@pytest.mark.parametrize("entry_id,flag", MUTANTS)
def test_mutant_report_matches_golden(entry_id, flag, tmp_path):
    assert mutant_report(entry_id, flag, tmp_path / "report.json") == mutant_golden(entry_id, flag).read_bytes()


if __name__ == "__main__":
    CATALOG_GOLDEN.write_bytes(catalog_report())
    for entry_id, flag in MUTANTS:
        path = mutant_golden(entry_id, flag)
        path.write_bytes(mutant_report(entry_id, flag, path.with_suffix(".json")))
        path.with_suffix(".json").unlink(missing_ok=True)

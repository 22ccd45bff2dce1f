"""Where the benchmark finds the program: the ``src`` tree of its own checkout."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def use_source_tree() -> None:
    """Import ``bisymplectic`` from this checkout's sources, never from an
    installed copy; exit with status 2 when the sources are missing."""
    if not (SRC / "bisymplectic" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

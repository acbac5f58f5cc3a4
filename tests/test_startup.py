"""What ``import moca_verify`` and one exploration load: the package
generates no code at import (no ``dataclasses``, whose import pulls in
``inspect``), imports ``typing`` only for type checkers, imports ``json``
only where a report or a rare trace id needs it, and hashes trace ids with
CPython's built-in SHA-256, so OpenSSL's ``_hashlib`` never loads."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROGRAM = ROOT / "corpus" / "mp.lit"

# argv: the source directory, the program, then modules to hide before the
# import; prints the loaded modules of interest, then the sorted trace ids
_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[3:]:
    sys.modules[name] = None
import moca_verify
ids = sorted(moca_verify.explore(moca_verify.parse_program(open(sys.argv[2]).read())).trace_ids)
print(" ".join(m for m in ("_hashlib", "hashlib", "dataclasses", "inspect", "json", "typing")
               if sys.modules.get(m) is not None))
print(" ".join(ids))
"""


def probe(*hidden: str) -> tuple[list[str], list[str]]:
    # -S: without site, whose start-up hooks may import any of these
    out = subprocess.run([sys.executable, "-S", "-c", _PROBE, str(SRC), str(PROGRAM), *hidden],
                         capture_output=True, text=True, check=True, timeout=60)
    loaded, ids = out.stdout.split("\n")[:2]
    return loaded.split(), ids.split()


def test_cold_import_loads_no_code_generation_modules():
    loaded, ids = probe()
    assert loaded == []
    assert len(ids) == 3


def test_trace_ids_fall_back_to_hashlib_without_builtin_sha256():
    builtin = probe()[1]
    loaded, ids = probe("_sha2", "_sha256")
    assert "hashlib" in loaded
    assert ids == builtin

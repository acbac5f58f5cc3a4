"""What ``import moca_verify`` loads: the package generates no code at import
(no ``dataclasses``, whose import pulls in ``inspect``) and imports ``json``
only where a report or a rare trace id needs it."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import moca_verify
print(" ".join(m for m in ("dataclasses", "inspect", "json") if m in sys.modules))
"""


def test_cold_import_loads_no_code_generation_modules():
    # -S: without site, whose start-up hooks may import any of these
    out = subprocess.run([sys.executable, "-S", "-c", _PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == []

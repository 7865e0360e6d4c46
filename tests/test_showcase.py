"""scripts/showcase.py prints exactly the recorded walkthrough in tests/data."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_showcase_output_is_golden():
    # the script puts "src" on sys.path itself, so it runs from the repo root
    proc = subprocess.run(
        [sys.executable, "scripts/showcase.py"], cwd=ROOT, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / "showcase.txt").read_bytes()

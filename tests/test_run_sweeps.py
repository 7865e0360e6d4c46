"""scripts/run_sweeps.py refuses malformed sweeps with exit 2 and one line."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["routes", "--fields", "2", "--pairs", "2,4", "--count", "1"], "coprime"),
        (["factors", "--fields", "3", "--pairs", "9,11", "--count", "1"], "size cap"),
        (["routes", "--fields", "4", "--pairs", "2,3", "--count", "1"], "not prime"),
    ],
)
def test_malformed_sweep_exits_2(argv, message):
    # the script puts "src" on sys.path itself, so it runs from the repo root
    proc = subprocess.run(
        [sys.executable, "scripts/run_sweeps.py", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and message in proc.stderr

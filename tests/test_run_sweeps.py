"""scripts/run_sweeps.py refuses malformed sweeps with exit 2 and one line,
and reports a broken invariant with exit 3."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from compoz import oracle

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["routes", "--fields", "2", "--pairs", "2,4", "--count", "1"], "coprime"),
        (["factors", "--fields", "3", "--pairs", "9,11", "--count", "1"], "size cap"),
        (["routes", "--fields", "4", "--pairs", "2,3", "--count", "1"], "not prime"),
        (["routes", "--fields", "2", "--pairs", "2,3", "--count", "-3"], "phi_count >= 1"),
        (["routes", "--fields", "2", "--pairs", "2,3", "--count", "0"], "phi_count >= 1"),
        (["factors", "--fields", "2", "--pairs", "2,4", "--count", "0"], "at least one diamond"),
        (["factors", "--fields", "2", "--pairs", "2,4", "--tables", "-1"], "counts >= 0"),
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


def test_routes_takes_no_tables():
    # tables have no phi for the coeffs and matrix routes; argparse refuses
    # the flag with its usage line and one error line
    proc = subprocess.run(
        [sys.executable, "scripts/run_sweeps.py", "routes", "--fields", "2", "--pairs", "2,3",
         "--tables", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unrecognized arguments: --tables 7" in proc.stderr.splitlines()[-1]


def test_broken_invariant_exits_3(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_sweeps", ROOT / "scripts" / "run_sweeps.py")
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends "src"
    spec.loader.exec_module(script)

    def broken(bd, route="all"):
        raise RuntimeError("minimal polynomial fails its certificate")

    monkeypatch.setattr(oracle, "run_routes", broken)
    code = script.main(["routes", "--fields", "2", "--pairs", "2,3", "--count", "1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "error: minimal polynomial fails its certificate\n"

"""The study scripts in ``scripts/`` run end to end on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> list:
    """Run a script with this checkout's sources; its stdout JSON lines."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_run_certificate_quick_passes():
    records = run_script("run_certificate.py", "--quick")
    assert records[-1] == {"any_configuration_passed": True}


def test_run_convergence_reports_each_system():
    records = run_script("run_convergence.py", "--bands", "8")
    finals = [rec for rec in records if "contraction_exponent" in rec]
    assert [rec["system"] for rec in finals] == ["lagrangian_rotors", "symmetric_rotors"]
    assert all(rec["converged"] and rec["contraction_exponent"] is not None for rec in finals)

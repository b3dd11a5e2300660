"""The study scripts in ``scripts/`` run end to end on small inputs, and the
outputs of solve + certify keep the bytes pinned in ``outputs_golden.json``."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_peak_memory_reports_each_command(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"system": "lagrangian_rotors", "epsilon": 1e-3,
                                  "bands": [4, 4], "rho0": 0.05}))
    (record,) = run_script("peak_memory.py", str(config), "--out", str(tmp_path / "out"))
    assert record["config"] == str(config)
    frames = {"grid_kitchen", "normal_frame", "torsion", "_pointwise_inverse", "matmul"}
    phases = {"solve": frames | {"_json_dump"}, "certify": frames | {"_json_dump", "_read_json"}}
    for name in ("solve", "certify"):
        assert record[name]["rc"] in (0, 1) and record[name]["s"] > 0
        assert 0 < record[name]["peak_mb"] <= record["peak_mb"]
        # each phase that ran: its calls, and the live memory at entry and the
        # peak inside of its call with the highest peak, within the command's peak
        assert set(record[name]["phases"]) == phases[name]
        for phase in record[name]["phases"].values():
            assert set(phase) == {"calls", "entry_mb", "peak_mb"} and phase["calls"] >= 1
            assert 0 <= phase["entry_mb"] <= phase["peak_mb"] <= record[name]["peak_mb"]
    # the Gram inverse runs inside the normal frame, and its peak is the frame's at most;
    # so do products, and the top one's peak is at most the top frame stage's
    solve = record["solve"]["phases"]
    assert solve["_pointwise_inverse"]["peak_mb"] <= solve["normal_frame"]["peak_mb"]
    assert solve["matmul"]["peak_mb"] <= max(solve[name]["peak_mb"] for name in frames)
    assert solve["grid_kitchen"]["calls"] == solve["torsion"]["calls"] + 1
    assert (tmp_path / "out" / "certificate.json").exists()


def compare_outputs(tree_b: Path, config: dict, tmp_path: Path,
                    *args: str) -> subprocess.CompletedProcess:
    """Run compare_outputs.py on this checkout and ``tree_b`` for one config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_outputs.py"),
                           str(ROOT), str(tree_b), "--config", str(path), *args],
                          capture_output=True, text=True, timeout=600)


def test_compare_outputs_finds_a_tree_identical_to_itself(tmp_path):
    config = {"system": "lagrangian_rotors", "epsilon": 1e-3, "bands": [8, 8], "rho0": 0.05}
    proc = compare_outputs(ROOT, config, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    names = ["torus.json", "log.jsonl", "summary.json", "certificate.json", "ledger.csv",
             "validate.stdout", "exit codes"]
    assert [line.split(" ", 1)[1].rsplit(" ", 2)[0] for line in lines] == names
    assert all(line.endswith(" same") for line in lines)
    assert lines[-1] == "config.json exit codes 0/0/0 same"


def test_compare_outputs_reports_a_difference(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "kamtorus", other / "kamtorus",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = other / "kamtorus" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "', '__version__ = "changed-', 1))
    config = {"system": "symmetric_rotors", "epsilon": 0.0, "bands": [4, 4], "rho0": 0.05}
    proc = compare_outputs(other, config, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr[-2000:]
    torus = next(line for line in proc.stdout.splitlines() if " torus.json " in line)
    assert " differs A1=" in torus
    # the version is written to torus.json and summary.json only
    proc = compare_outputs(other, config, tmp_path, "--files", "log.jsonl", "ledger.csv")
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert [line.split(" ", 2)[1] for line in lines] == ["log.jsonl", "ledger.csv", "exit"]
    assert all(line.endswith(" same") for line in lines)


def test_outputs_match_the_golden_digests(tmp_path):
    """Every pinned config writes the recorded bytes and exits with the recorded codes.

    The digests hold for the numpy version and the platform recorded with them:
    elsewhere pocketfft and the BLAS may round differently, so there the test
    is skipped, naming both.  Regenerate with scripts/record_outputs_golden.py.
    """
    spec = importlib.util.spec_from_file_location(
        "record_outputs_golden", ROOT / "scripts" / "record_outputs_golden.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    golden = json.loads(recorder.GOLDEN.read_text())
    here = recorder.made_on()
    recorded = {key: golden[key] for key in here}
    if recorded != here:
        pytest.skip(f"digests recorded on {recorded}, this is {here}")
    for label, case in golden["cases"].items():
        assert recorder.outputs(case["config"], tmp_path / label) == case["outputs"], label

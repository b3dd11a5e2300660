"""Command-line interface: exit codes, outputs, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from kamtorus.cli import ConfigError, RunConfig, main


def write_config(tmp_path, **kw):
    base = {
        "system": "symmetric_rotors",
        "epsilon": 0.0,
        "bands": [6, 6],
        "rho0": 0.05,
        "stop_tol": 1e-12,
        "max_iters": 4,
        "scan_limit": 200,
    }
    base.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


def test_solve_zero_coupling_exit_zero(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] and summary["steps"] == 0
    log = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
    assert len(log) == 1 and log[0]["err"] < 1e-13
    torus = json.loads((out / "torus.json").read_text())
    assert torus["map"]["dims"] == [2, 6, 1]
    assert "version" in torus and "config" in torus


def test_invalid_omega_dimension_exit_two(tmp_path):
    cfg = write_config(tmp_path, omega=[1.0, 1.6, 0.3])  # d = 2 system
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_invalid_mode_exit_two(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--mode", "iso",
                 "--out", str(tmp_path / "x")]) in (0, 1, 2)
    bad = tmp_path / "bad.json"
    bad.write_text('{"system": "not_a_system"}')
    assert main(["solve", "--config", str(bad)]) == 2


def test_plotdata_shapes(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["plotdata", str(out / "torus.json"), "--out", str(out),
                 "--log", str(out / "log.jsonl")]) == 0
    rows = (out / "torus_grid.csv").read_text().splitlines()
    header, data = rows[0], rows[1:]
    # columns: d angles + 2n components; rows: the full grid
    assert len(header.split(",")) == 2 + 6
    assert len(data) == 13 * 13
    # values re-evaluate through the stored map
    first = [float(v) for v in data[0].split(",")]
    assert first[:2] == [0.0, 0.0]
    from kamtorus.cli import _candidate_from_doc

    cand, _, _, _ = _candidate_from_doc(json.loads((out / "torus.json").read_text()))
    vals = cand.k_values(cand.grid)
    parsed = np.array([[float(v) for v in line.split(",")] for line in data])
    assert np.max(np.abs(parsed[:, 2:].reshape(13, 13, 6) - vals)) < 1e-15
    errs = (out / "errors.csv").read_text().splitlines()
    assert errs[0] == "step,rho,delta,err"


def test_validate_exit_zero(tmp_path):
    cfg = write_config(tmp_path, epsilon=0.02)
    assert main(["validate", "--config", str(cfg)]) == 0


def test_solve_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, epsilon=0.005, bands=[8, 8], max_iters=6)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("torus.json", "summary.json", "log.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # the convergence log shows monotone (quadratic-regime) decay
    log = [json.loads(line) for line in (out1 / "log.jsonl").read_text().splitlines()]
    errs = [rec["err"] for rec in log]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    summary = json.loads((out1 / "summary.json").read_text())
    assert "gamma_scan_limit" in summary and "note" in summary


def test_certify_roundtrip_outputs(tmp_path):
    cfg = write_config(tmp_path, system="lagrangian_rotors", epsilon=0.0,
                       bands=[8, 8], rho0=0.1)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    code = main(["certify", str(out / "torus.json"), "--out", str(out)])
    report = json.loads((out / "certificate.json").read_text())
    assert (out / "ledger.csv").exists()
    # the exactly invariant flat torus of the uncoupled rotors certifies
    assert code == 0 and report["passed"]
    assert report["ratio"] < 1.0
    assert "header" in report and "ratio" in report


def test_certify_rejects_torus_map_that_is_not_real(tmp_path, capsys):
    cfg = write_config(tmp_path, system="lagrangian_rotors", epsilon=0.0,
                       bands=[4, 4], rho0=0.1)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    torus = json.loads((out / "torus.json").read_text())
    torus["map"]["coeffs"][3] += 1e-3  # imaginary part of one k != 0 coefficient only
    (out / "torus.json").write_text(json.dumps(torus))
    assert main(["certify", str(out / "torus.json"), "--out", str(out)]) == 2
    assert "not real" in capsys.readouterr().err
    assert not (out / "certificate.json").exists()


def test_config_validation_direct():
    with pytest.raises(ConfigError):
        RunConfig(system="lagrangian_rotors", bands=[4]).validate()
    with pytest.raises(ConfigError):
        RunConfig(system="lagrangian_rotors", rho0=2.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="iso", system="lagrangian_rotors", conserved="p:0").validate()
    cfg = RunConfig(system="symmetric_rotors", mode="iso", conserved="p:0").validate()
    assert len(cfg.omega_star) == 2


def test_certify_converged_documented_parameters(tmp_path):
    """The documented passing configuration certifies through the CLI too."""
    cfg = write_config(tmp_path, system="lagrangian_rotors", epsilon=1e-3,
                       bands=[16, 16], rho0=0.03, stop_tol=1e-13, max_iters=10,
                       scan_limit=1000)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["certify", str(out / "torus.json"), "--out", str(out)]) == 0
    report = json.loads((out / "certificate.json").read_text())
    assert report["passed"] and report["ratio"] < 1.0
    ledger_lines = (out / "ledger.csv").read_text().splitlines()
    assert ledger_lines[0] == "name,value,formula_label,group,provenance"
    assert any(line.startswith("E1,") for line in ledger_lines)


def test_iso_solve_via_cli(tmp_path):
    cfg = write_config(tmp_path, mode="iso", epsilon=0.002, bands=[10, 10],
                       rho0=0.03, conserved="H", c0_offset=1e-4, max_iters=8)
    out = tmp_path / "iso"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"]
    assert abs(summary["c_final"] - summary["c0"]) < 1e-11
    torus = json.loads((out / "torus.json").read_text())
    assert "ray_scale" in torus
    # the iso certificate path runs end to end (ratio pass not expected here)
    code = main(["certify", str(out / "torus.json"), "--out", str(out)])
    assert code in (0, 1)
    report = json.loads((out / "certificate.json").read_text())
    assert report["mode"] == "iso"
    ledger = (out / "ledger.csv").read_text()
    assert "C_Deltaomega" in ledger and "C_Delta3" in ledger


@pytest.mark.parametrize("override, field", [
    ({"bandz": [8, 8]}, "bandz"),
    ({"max_iters": -3}, "max_iters"),
    ({"max_iters": 2.5}, "max_iters"),
    ({"stop_tol": -1.0}, "stop_tol"),
    ({"stop_tol": 0.0}, "stop_tol"),
    ({"stop_tol": float("nan")}, "stop_tol"),
    ({"stop_tol": float("inf")}, "stop_tol"),
    ({"tau": float("nan")}, "tau"),
    ({"bands": "88"}, "bands"),
    ({"bands": [8.7, 8]}, "bands"),
    ({"bands": [True, 8]}, "bands"),
    ({"sigma_factor": 0.5}, "sigma_factor"),
    ({"epsilon": float("nan")}, "epsilon"),
    ({"y_radius": -1}, "y_radius"),
    ({"imag_width": 0}, "imag_width"),
    ({"scan_limit": 0}, "scan_limit"),
    ({"c_n": -1}, "c_n"),
    ({"a1": float("nan")}, "a1"),
    ({"epsilon": "0.01"}, "epsilon"),
    ({"rho0": "0.03"}, "rho0"),
])
def test_malformed_config_exit_two_names_field(tmp_path, capsys, override, field):
    cfg = write_config(tmp_path, **override)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert field in capsys.readouterr().err


def test_outputs_identical_across_thread_caps(tmp_path):
    """KAMTORUS_THREADS changes throughput only: the solve outputs keep their bytes."""
    import os
    import subprocess
    import sys

    cfg = write_config(tmp_path, mode="iso", epsilon=5e-3, bands=[8, 8], rho0=0.03,
                       conserved="H", c0_offset=1e-3, stop_tol=1e-10, max_iters=6)
    src = Path(__file__).resolve().parents[1] / "src"
    base = {k: v for k, v in os.environ.items() if k not in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(base, KAMTORUS_THREADS=threads, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "kamtorus._entry", "solve", "--config",
                               str(cfg), "--out", str(out)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(out)
    for name in ("torus.json", "log.jsonl", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

"""Command-line interface: exit codes, outputs, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from kamtorus import frames
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


@pytest.mark.parametrize("name, error", [("_pointwise_inverse", frames.SingularGramError),
                                         ("tangent_frame", frames.FrameRankError)])
def test_frame_failure_is_a_named_step_failure(tmp_path, monkeypatch, name, error):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(frames, name, fail)
    out = tmp_path / "run"
    cfg = write_config(tmp_path, epsilon=0.01)
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["converged"]
    assert summary["reason"].startswith("step 0:") and "injected" in summary["reason"]
    assert (out / "log.jsonl").read_text().strip()


def test_config_validation_direct():
    with pytest.raises(ConfigError):
        RunConfig(system="lagrangian_rotors", bands=[4]).validate()
    with pytest.raises(ConfigError):
        RunConfig(system="lagrangian_rotors", rho0=2.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="iso", system="lagrangian_rotors", conserved="p:0").validate()
    cfg = RunConfig(system="symmetric_rotors", mode="iso", conserved="p:0").validate()
    assert len(cfg.omega_star) == 2


@pytest.mark.parametrize("d", [2, 3, 4])
def test_default_frequency_has_d_entries(d):
    omega = RunConfig._default_omega(d)
    assert len(omega) == d
    if d == 2:
        assert omega == [1.0, (1.0 + np.sqrt(5.0)) / 2.0]  # the d = 2 outputs keep their omega


@pytest.mark.parametrize("d, tau, scan_limit", [(3, 2.0, 1000), (4, 3.0, 40)])
def test_default_frequency_passes_the_divisor_scan(d, tau, scan_limit):
    """(1, phi, phi^2) was resonant at k = (1, 1, -1); the d >= 3 default is not."""
    from kamtorus.cohomology import estimate_gamma

    assert estimate_gamma(np.array(RunConfig._default_omega(d)), tau, scan_limit) > 0.0


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
    ({"rho0": 0.2}, "rho0"),  # the seed's strip reaches the edge of the default domain
])
def test_malformed_config_exit_two_names_field(tmp_path, capsys, override, field):
    cfg = write_config(tmp_path, **override)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_seed_strip_outside_domain_is_config_error(tmp_path, capsys, command):
    """rho0 >= imag_width puts the seed's strip outside the domain: exit 2 naming
    rho0, not a solver failure."""
    cfg = write_config(tmp_path, system="lagrangian_rotors", epsilon=0.01, bands=[8, 8],
                       rho0=0.5)
    out = ["--out", str(tmp_path / "x")] if command == "solve" else []
    assert main([command, "--config", str(cfg), *out]) == 2
    err = capsys.readouterr().err
    assert "rho0" in err and "solver failure" not in err


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


@pytest.mark.parametrize("command", ["certify", "plotdata"])
@pytest.mark.parametrize("flag", [["--config", "run.json"], ["--mode", "iso"],
                                  ["--epsilon", "0.5"], ["--bands", "3", "3"]])
def test_torus_commands_refuse_config_flags(tmp_path, capsys, command, flag):
    """certify and plotdata take the torus file's config, so a config flag is an error."""
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "torus.json"), "--out", str(tmp_path), *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"system": "lagrangian_rotors", "epsilon": 1e-3, "bands": [8, 8], "rho0": 0.05},
    {"mode": "iso", "epsilon": 2e-3, "bands": [8, 8], "rho0": 0.03, "conserved": "H",
     "c0_offset": 1e-4, "max_iters": 8},
], ids=["ordinary", "iso"])
def test_ledger_formula_column_evaluates_to_value(tmp_path, overrides):
    """Each derived row's formula, evaluated as Python over the values of the rows
    above it, gives exactly the row's value."""
    import csv

    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    assert main(["certify", str(out / "torus.json"), "--out", str(out)]) in (0, 1)
    with open(out / "ledger.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    values, checked = {}, 0
    for row in rows:
        value = float(row["value"])
        if row["provenance"] == "derived" and row["name"] != "E1_dominant":
            formula = row["formula_label"]
            assert eval(formula, {"__builtins__": {}, "max": max}, dict(values)) == value, \
                (row["name"], formula)
            checked += 1
        values[row["name"]] = value
    assert checked >= 80


@pytest.fixture(scope="module")
def solved_tori(tmp_path_factory):
    """The torus document of a small solve in each mode."""
    docs = {}
    for mode, overrides in (("ordinary", {"system": "lagrangian_rotors", "rho0": 0.1}),
                            ("iso", {"mode": "iso", "conserved": "H"})):
        tmp = tmp_path_factory.mktemp(mode)
        cfg = write_config(tmp, bands=[4, 4], **overrides)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp)]) == 0
        docs[mode] = json.loads((tmp / "torus.json").read_text())
    return docs


def _drop(key):
    return lambda doc: doc.pop(key)


def _short_map(doc):
    del doc["map"]["coeffs"][-2:]  # one (re, im) pair


@pytest.mark.parametrize("mode, spoil, field", [
    ("ordinary", _drop("dio"), "dio"),
    ("ordinary", lambda doc: doc.update(rho="x"), "rho"),
    ("ordinary", lambda doc: doc.update(rho=-1.0), "rho"),
    ("ordinary", lambda doc: doc.update(grid=[3, 3]), "grid"),
    ("ordinary", lambda doc: doc.update(grid=[11, 11]), "grid"),
    ("ordinary", lambda doc: doc.update(omega=[1.0]), "omega"),
    ("ordinary", _short_map, "map"),
    ("iso", lambda doc: doc.update(rho=0.5), "rho"),  # the strip leaves the domain
    ("iso", _drop("c0"), "c0"),
    ("iso", lambda doc: doc.update(c0="x"), "c0"),
], ids=["dio-missing", "rho-string", "rho-negative", "grid-too-small", "grid-not-2N+1",
        "omega-short", "map-short", "rho-outside-domain", "c0-missing", "c0-string"])
def test_certify_malformed_torus_exit_two_names_field(tmp_path, capsys, solved_tori, mode,
                                                       spoil, field):
    doc = json.loads(json.dumps(solved_tori[mode]))
    spoil(doc)
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps(doc))
    assert main(["certify", str(torus), "--out", str(tmp_path)]) == 2
    assert f"torus file field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def test_plotdata_refuses_grid_not_2n_plus_1(tmp_path, capsys, solved_tori):
    """plotdata samples K on the grid 2*bands + 1, so a torus file claiming
    another grid exits 2 naming the field instead of plotting a different one."""
    doc = json.loads(json.dumps(solved_tori["ordinary"]))
    doc["grid"] = [11, 11]
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps(doc))
    assert main(["plotdata", str(torus), "--out", str(tmp_path)]) == 2
    assert "torus file field 'grid'" in capsys.readouterr().err
    assert not (tmp_path / "torus_grid.csv").exists()


def test_validate_refuses_out(tmp_path, capsys):
    """validate writes nothing, so --out is an error rather than silently ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--out", str(tmp_path / "x"), "--epsilon", "0.01"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("overrides", [
    {"system": "lagrangian_rotors", "epsilon": 1e-3, "bands": [8, 8], "rho0": 0.05},
    {"mode": "iso", "epsilon": 2e-3, "bands": [8, 8], "rho0": 0.03, "conserved": "H",
     "c0_offset": 1e-4, "max_iters": 8},
], ids=["ordinary", "iso"])
def test_certify_builds_one_grid_kitchen(tmp_path, monkeypatch, overrides):
    """certify composes K with the system callbacks once: the frames, the error
    and the smallness scale all read the iterate's kitchen."""
    import sys

    from kamtorus import frames
    from kamtorus.cli import cmd_certify

    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    original, calls = frames.grid_kitchen, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    holders = [module for name, module in sys.modules.items() if name.startswith("kamtorus")
               and getattr(module, "grid_kitchen", None) is original]
    assert {"kamtorus.frames", "kamtorus.solver", "kamtorus.isoenergetic"} <= {
        module.__name__ for module in holders}
    for module in holders:
        monkeypatch.setattr(module, "grid_kitchen", counted)
    assert cmd_certify(str(out / "torus.json"), {}, out) in (0, 1)
    assert len(calls) == 1
    report = json.loads((out / "certificate.json").read_text())
    assert report["mode"] == overrides.get("mode", "ordinary")


@pytest.mark.parametrize("overrides", [
    {"system": "lagrangian_rotors", "epsilon": 1e-3, "bands": [8, 8], "rho0": 0.05},
    {"mode": "iso", "epsilon": 2e-3, "bands": [8, 8], "rho0": 0.03, "conserved": "H",
     "c0_offset": 1e-4, "max_iters": 8},
], ids=["ordinary", "iso"])
def test_solve_and_certify_build_no_error_map(tmp_path, monkeypatch, overrides):
    """Neither the Newton step nor the certificate reads the error maps, so
    neither builds one; soundness_report still builds and bounds all four."""
    import sys

    from kamtorus import frames
    from kamtorus.certificate import estimate_global_constants
    from kamtorus.cli import _candidate_from_doc, _selector, cmd_certify, cmd_solve
    from kamtorus.isoenergetic import IsoTarget
    from kamtorus.solver import evaluate
    from oracles import soundness_report

    calls = []

    def counted(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return wrapper

    for name in ("isotropy_errors", "symplecticity_error", "reducibility_error"):
        original = getattr(frames, name)
        holders = [module for key, module in sys.modules.items() if key.startswith("kamtorus")
                   and getattr(module, name, None) is original]
        assert "kamtorus.frames" in {module.__name__ for module in holders}
        for module in holders:
            monkeypatch.setattr(module, name, counted(original))
    out = tmp_path / "run"
    cfg = RunConfig.from_dict(json.loads(write_config(tmp_path, **overrides).read_text()))
    assert cmd_solve(cfg, out) == 0
    assert cmd_certify(str(out / "torus.json"), {}, out) in (0, 1)
    assert calls == []

    doc = json.loads((out / "torus.json").read_text())
    cand, cfg, schedule, ray = _candidate_from_doc(doc)
    conserved = target = None
    if cfg.mode == "iso":
        conserved = cand.system.conserved(_selector(cfg))
        target = IsoTarget(conserved, doc["c0"])
    it = evaluate(cand, target, ray)
    pairs = soundness_report(it, frames.build_frames(cand, it.kitchen),
                             estimate_global_constants(cand.system, conserved=conserved),
                             cand.rho / 4, schedule)
    assert {"OmegaK", "Elag", "Esym", "Ered"} <= {name for name, _, _ in pairs}
    assert sorted(calls) == ["isotropy_errors", "reducibility_error", "symplecticity_error"]


@pytest.mark.parametrize("overrides, scans", [
    ({"system": "lagrangian_rotors", "epsilon": 1e-3, "bands": [8, 8], "rho0": 0.05}, 1),
    ({"mode": "iso", "epsilon": 2e-3, "bands": [8, 8], "rho0": 0.03, "conserved": "H",
      "c0_offset": 1e-4, "max_iters": 8}, 2),
], ids=["ordinary", "iso"])
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_setup_scans_divisors_once_per_frequency(tmp_path, monkeypatch, overrides, scans,
                                                 command):
    """Ordinary mode measures gamma on omega itself, so the params skip the repeat
    scan; iso mode checks the ray midpoint against omega_*'s gamma (a second scan)."""
    import sys

    from kamtorus import cohomology
    from kamtorus.cli import cmd_solve, cmd_validate

    original, calls = cohomology.estimate_gamma, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    holders = [module for name, module in sys.modules.items() if name.startswith("kamtorus")
               and getattr(module, "estimate_gamma", None) is original]
    assert {"kamtorus.cli", "kamtorus.cohomology"} <= {module.__name__ for module in holders}
    for module in holders:
        monkeypatch.setattr(module, "estimate_gamma", counted)
    cfg = RunConfig.from_dict(json.loads(write_config(tmp_path, **overrides).read_text()))
    if command == "solve":
        assert cmd_solve(cfg, tmp_path / "run") == 0
    else:
        assert cmd_validate(cfg) == 0
    assert len(calls) == scans


@pytest.fixture(scope="module")
def bands8_torus(tmp_path_factory):
    """The torus document of a bands-8 solve, and the bytes its solve wrote."""
    tmp = tmp_path_factory.mktemp("bands8")
    cfg = write_config(tmp, system="lagrangian_rotors", epsilon=1e-3, bands=[8, 8])
    assert main(["solve", "--config", str(cfg), "--out", str(tmp)]) == 0
    text = (tmp / "torus.json").read_text()
    return json.loads(text), text


def _empty_map(doc):
    doc["map"]["coeffs"] = []


def _nan_coefficient(doc):
    doc["map"]["coeffs"][3] = float("nan")
    doc["map"]["coeffs"][8] = -float("inf")


def _placeholder_in_config(doc):
    doc["config"]["conserved"] = "\0coeffs"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, -0.1, 1e16, -1e-7, 2.5, -2.5, 1 / 3, -1 / 3]


def _signed_magnitudes(doc):
    """Repeated magnitudes of both signs, zeros of both signs and the extreme doubles."""
    rng = np.random.default_rng(8)
    doc["map"]["coeffs"] = [float(v) for v in rng.choice(EDGE_FLOATS, 500)]


def _infinite_coefficient(doc):
    _signed_magnitudes(doc)
    doc["map"]["coeffs"][-1] = float("inf")


def _int_coefficient(doc):
    _signed_magnitudes(doc)
    doc["map"]["coeffs"][0] = 0


@pytest.mark.parametrize("edit", [None, _empty_map, _nan_coefficient, _placeholder_in_config,
                                  _signed_magnitudes, _infinite_coefficient, _int_coefficient],
                         ids=["solved", "empty-coeffs", "nan-coeff", "placeholder-in-config",
                              "signed-magnitudes", "inf-coeff", "int-coeff"])
def test_json_dump_writes_the_bytes_of_json_dumps(tmp_path, bands8_torus, edit):
    """The spliced coefficient list leaves the torus file as json.dumps writes it."""
    from kamtorus.cli import _json_dump

    doc, solved_text = bands8_torus
    doc = json.loads(json.dumps(doc))
    if edit is not None:
        edit(doc)
    _json_dump(doc, tmp_path / "torus.json")
    expect = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    assert (tmp_path / "torus.json").read_text() == expect
    if edit is None:  # the solve wrote the same bytes
        assert solved_text == expect and len(doc["map"]["coeffs"]) == 2 * 17 * 17 * 4


@pytest.mark.parametrize("values", [EDGE_FLOATS, EDGE_FLOATS[::-1] * 3, [-0.0], [5e-324, 0.0],
                                    [1.5, float("nan")], [-float("nan"), 2.0, -2.0],
                                    [-float("inf"), 1.0, -1.0],
                                    [float("inf"), -float("inf")], [1, 1.0, True]])
def test_number_items_are_the_items_of_json_dumps(values):
    """One encoding per distinct magnitude gives the bytes json.dumps gives, item by item."""
    from kamtorus.cli import _number_items

    sep = ",\n   "
    assert _number_items(values, sep) == json.dumps(values, separators=(sep, ": "))[1:-1]


def test_kamtorus_threads_caps_the_backends_before_numpy_starts(tmp_path):
    """Importing the entry point with KAMTORUS_THREADS=1 leaves one thread in the
    process: the cap is in place before numpy starts its BLAS pool."""
    import os
    import subprocess
    import sys

    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k not in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    code = ("import os, kamtorus._entry, numpy\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(env, KAMTORUS_THREADS="1",
                          PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["1", "1"]

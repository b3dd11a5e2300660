"""Command-line interface: exit codes, outputs, determinism."""

import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kamtorus import cli, frames
from kamtorus.certificate import estimate_global_constants, table_width_limit
from kamtorus.cli import ConfigError, RunConfig, main
from kamtorus.fourier import FourierMap
from kamtorus.hamiltonian import builtin_table


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
    """``--mode iso`` overrides the config's ordinary mode: at epsilon = 0 the seed
    is invariant on its own level, so the iso solve converges at once and
    records that level as c0.  A config naming no registered system exits 2."""
    cfg = write_config(tmp_path)
    out = tmp_path / "x"
    assert main(["solve", "--config", str(cfg), "--mode", "iso", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["mode"] == "iso" and summary["steps"] == 0
    assert np.isfinite(summary["c0"]) and summary["c_final"] == summary["c0"]
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


VALIDATE_STDOUT = {
    "lagrangian_rotors": (
        "involution: pass (max bracket 0.000e+00)\n"
        "commutation: pass (max residual 0.000e+00)\n"
        "derivative cross-check: pass ({'DH': 1.5130381215668314e-10, "
        "'DXH': 5.221912508130715e-11, 'D2XH': 2.824675379418411e-11})\n"),
    "symmetric_rotors": (
        "involution: pass (max bracket 0.000e+00)\n"
        "commutation: pass (max residual 0.000e+00)\n"
        "derivative cross-check: pass ({'DH': 1.3093269909742807e-10, "
        "'DXH': 5.637738573668227e-11, 'D2XH': 7.547364702689556e-11, "
        "'Dp': 3.043112428287997e-10, 'DXp': 0.0, 'D2Xp': 0.0})\n"),
}


@pytest.mark.parametrize("name", sorted(VALIDATE_STDOUT))
def test_validate_stdout_is_pinned(tmp_path, capsys, name):
    """validate prints these bytes for both registered systems at epsilon 0.02."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"system": name, "epsilon": 0.02}))
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == VALIDATE_STDOUT[name]


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


@pytest.mark.parametrize("name, hypothesis", [("_pointwise_inverse", "Gram"),
                                              ("tangent_frame", "frame rank")],
                         ids=["_pointwise_inverse", "tangent_frame"])
def test_frame_failure_is_a_named_step_failure(tmp_path, monkeypatch, name, hypothesis):
    def fail(*args, **kwargs):
        raise frames.HypothesisError(hypothesis, "injected")

    monkeypatch.setattr(frames, name, fail)
    out = tmp_path / "run"
    cfg = write_config(tmp_path, epsilon=0.01)
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["converged"]
    assert summary["reason"] == f"step 0: hypothesis {hypothesis} failed: injected"
    assert (out / "log.jsonl").read_text().strip()


@pytest.mark.parametrize("command", ["solve", "certify", "validate"])
def test_a_bug_propagates_with_its_traceback(tmp_path, monkeypatch, command):
    """An exception that is not a named failure is a bug in the program: main
    lets it through instead of reporting it as a failed run."""
    def bug(*args, **kwargs):
        raise ZeroDivisionError("injected")

    cfg = write_config(tmp_path, system="lagrangian_rotors", epsilon=1e-3)
    out = tmp_path / "run"
    if command == "certify":
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    monkeypatch.setattr(frames, "torsion", bug)
    monkeypatch.setattr(cli, "check_derivatives", bug)
    args = {"solve": ["solve", "--config", str(cfg), "--out", str(out)],
            "certify": ["certify", str(out / "torus.json"), "--out", str(out)],
            "validate": ["validate", "--config", str(cfg)]}[command]
    with pytest.raises(ZeroDivisionError, match="injected"):
        main(args)


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
    # 2 pi rho0 sum(bands) > 700: the majorant weights e^(2 pi |k|_1 rho0) overflow
    ({"bands": [64, 64], "rho0": 0.95, "imag_width": 2.0, "y_radius": 5.0},
     "rho0 = 0.95 and bands = [64, 64]"),
    # cosh(2 pi w |k_j|_1) in the closed-form global constants overflows
    ({"imag_width": 300, "rho0": 0.5}, "imag_width must be at most"),
    # at epsilon = 1 the amplitudes narrow the strip: this width passed at unit
    # amplitudes, solved, and then overflowed c_XH_2 in certify
    ({"system": "lagrangian_rotors", "epsilon": 1.0, "imag_width": 56.04},
     "imag_width must be at most 55.76815830901658 at epsilon = 1.0"),
    # |y_center| + y_radius overflows the momentum terms of the global constants
    ({"system": "lagrangian_rotors", "y_radius": 1e308, "bands": [8, 8], "max_iters": 2},
     "y_radius must be at most"),
    # sqrt(sigma_omega) rounds to 1, an end of the ray
    ({"mode": "iso", "sigma_omega": 1.0000000000000002}, "sigma_omega"),
    # the frequency, ray base and conserved quantity of the other mode are checked too
    ({"system": "symmetric_rotors", "mode": "iso", "omega": "garbage"}, "omega must be"),
    ({"system": "lagrangian_rotors", "omega_star": ["a"]}, "omega_star must be"),
    ({"system": "lagrangian_rotors", "conserved": "nonsense"}, "conserved must be"),
])
def test_malformed_config_exit_two_names_field(tmp_path, capsys, override, field):
    cfg = write_config(tmp_path, **override)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("a1, a3", [(1e300, "nan"), (1e16, "3.0")],
                         ids=["a3-nan", "a3-rounds-to-3"])
@pytest.mark.parametrize("command", ["solve", "certify"])
def test_schedule_outside_the_strip_exit_two(tmp_path, capsys, a1, a3, command):
    """a1 = a2 whose a3 = 3 a1 a2 / ((a1 - 1)(a2 - 1)) is NaN (inf / inf), or
    rounds to 3 so that 3 delta_0 = rho0, is refused naming a1 and a2, also in
    the config of a torus file."""
    if command == "solve":
        cfg = write_config(tmp_path, a1=a1, a2=a1)
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
    else:
        main(["solve", "--config", str(write_config(tmp_path)), "--out", str(tmp_path)])
        torus = json.loads((tmp_path / "torus.json").read_text())
        torus["config"].update(a1=a1, a2=a1)
        (tmp_path / "torus.json").write_text(json.dumps(torus))
        code = main(["certify", str(tmp_path / "torus.json"), "--out", str(tmp_path / "x")])
    assert code == 2 and not (tmp_path / "x").exists()
    err = capsys.readouterr().err
    assert f"a1 = {a1!r} and a2 = {a1!r} give the strip schedule a3 = {a3}" in err


@pytest.mark.parametrize("name", ["lagrangian_rotors", "symmetric_rotors"])
def test_widest_accepted_strip_keeps_the_global_constants_finite(name):
    """imag_width is accepted up to the width where the closed-form global
    constants stay finite at the config's epsilon, and at that width they are
    finite with no floating point warning, at epsilon 1 and 10 as at the
    default; one ulp wider is refused naming imag_width and epsilon."""
    for epsilon in (RunConfig.epsilon, 1.0, 10.0):
        width = table_width_limit(builtin_table(name, epsilon))
        with pytest.raises(ConfigError, match=re.escape(f"at most {width!r} at epsilon = "
                                                        f"{epsilon!r}")):
            RunConfig.from_dict({"system": name, "epsilon": epsilon,
                                 "imag_width": float(np.nextafter(width, 1e3))})
        cfg = RunConfig.from_dict({"system": name, "epsilon": epsilon, "imag_width": width})
        system = cli._system(cfg, np.asarray(cfg.omega))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for selector in ["H"] + [("p", j) for j in range(system.n_integrals)]:
                g = estimate_global_constants(system, selector)
                assert all(np.isfinite(v) for v in g.values.values())


EXTREME_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -0.0, 5e-324, 1e-300, 1e300, 1e308, -1e308, 2**63, 10**400, True]),
    st.integers(min_value=-3, max_value=80),
    st.sampled_from([None, "", "0.1", "inf", {}]),
    st.lists(st.one_of(st.integers(min_value=-2, max_value=80), st.floats(),
                       st.sampled_from([2**63, 10**400])), max_size=3),
)


@settings(max_examples=200)
@given(system=st.sampled_from(["lagrangian_rotors", "symmetric_rotors"]),
       fields=st.dictionaries(st.sampled_from(["epsilon", "y_radius", "imag_width", "rho0",
                                               "a1", "a2", "bands"]), EXTREME_VALUES))
@example(system="lagrangian_rotors", fields={"y_radius": 1e308})
def test_config_fuzz_validates_or_refuses(system, fields):
    """Extreme and ill-typed values of the numeric fields either validate or are
    refused with ConfigError, with no floating point warning, and every accepted
    config's system has finite global constants."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = RunConfig.from_dict({"system": system, **fields})
        except ConfigError:
            return
        built = cli._system(cfg, cli._seed_frequency(cfg)[0])
        for selector in ["H"] + [("p", j) for j in range(built.n_integrals)]:
            g = estimate_global_constants(built, selector)
            assert all(np.isfinite(v) for v in g.values.values())


@pytest.mark.parametrize("overrides, step", [
    ({"a1": 1e200, "c_n": 1e300}, 2),  # a1**2 overflows: delta_2 is below the double range
], ids=["a1-power-overflows"])
def test_schedule_out_of_range_is_a_strip_failure(tmp_path, capsys, overrides, step):
    cfg = write_config(tmp_path, system="lagrangian_rotors", epsilon=1e-3, rho0=0.03,
                       **overrides)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["reason"].startswith(f"step {step}: hypothesis strip failed: need 0 < 3*delta")
    assert capsys.readouterr().err == ""


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


# the exact keys of log.jsonl and summary.json: a change to them is deliberate
LOG_KEYS = {
    ("ordinary", "step"): {"step", "rho", "delta", "err", "tail_fraction", "bands", "err_after",
                           "delta_k", "solve_residual", "compat", "contraction_bound",
                           "contraction_ok", "frame_norms", "hypothesis_margins"},
    ("ordinary", "closing"): {"step", "rho", "delta", "err", "tail_fraction", "bands"},
    ("iso", "step"): {"step", "rho", "delta", "err", "tail_fraction", "bands", "err_inv",
                      "err_omega", "omega", "ray_scale", "err_after", "delta_k",
                      "solve_residual", "compat", "contraction_bound", "contraction_ok",
                      "frame_norms", "hypothesis_margins", "err_omega_after", "xi_omega",
                      "ray_margin"},
    ("iso", "closing"): {"step", "rho", "delta", "err", "tail_fraction", "bands", "err_inv",
                         "err_omega", "omega", "ray_scale"},
}
ISO_SUMMARY_KEYS = {"version", "config", "converged", "reason", "final_error", "steps",
                    "final_rho", "note", "gamma_scan_limit", "gamma", "omega_initial",
                    "omega_final", "c0", "c_final", "ray_scale"}


def test_log_and_summary_keys_are_pinned(tmp_path):
    for mode, overrides in (("ordinary", {"system": "lagrangian_rotors"}),
                            ("iso", {"mode": "iso", "conserved": "H", "c0_offset": 1e-4})):
        cfg = write_config(tmp_path, epsilon=1e-3, bands=[4, 4], rho0=0.03, **overrides)
        out = tmp_path / mode
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        log = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
        summary = json.loads((out / "summary.json").read_text())
        assert len(log) > 1 and summary["steps"] == len(log) - 1
        for rec in log[:-1]:
            assert set(rec) == LOG_KEYS[mode, "step"]
        assert set(log[-1]) == LOG_KEYS[mode, "closing"]
    assert set(summary) == ISO_SUMMARY_KEYS


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
    ("ordinary", lambda doc: doc.update(rho=20.0), "rho"),  # 2 pi rho sum(bands) > 700
    ("iso", _drop("c0"), "c0"),
    ("iso", lambda doc: doc.update(c0="x"), "c0"),
    ("iso", lambda doc: doc.update(c0=float("nan")), "c0"),
    ("ordinary", lambda doc: doc["dio"].update(gamma=float("nan")), "dio"),
    ("ordinary", lambda doc: doc["dio"].update(tau=float("inf")), "dio"),
    ("ordinary", lambda doc: doc["dio"].update(scan_limit=1000.7), "dio"),
    ("ordinary", lambda doc: doc.update(angle_block="false"), "angle_block"),
    ("iso", _drop("ray_scale"), "ray_scale"),
    ("iso", lambda doc: doc.update(ray_scale="1.3"), "ray_scale"),
    ("iso", lambda doc: doc.update(ray_scale=1.9), "ray_scale"),  # omega is not on it
    ("ordinary", lambda doc: doc["map"].update(bands=[4.7, 4.2]), "map"),  # not truncated to 4
    ("ordinary", lambda doc: doc["map"].update(dims=[2.9, 4, 1]), "map"),
], ids=["dio-missing", "rho-string", "rho-negative", "grid-too-small", "grid-not-2N+1",
        "omega-short", "map-short", "rho-outside-domain", "rho-overflows-weights", "c0-missing",
        "c0-string", "c0-nan", "gamma-nan", "tau-inf", "scan-limit-fraction", "angle-block-string",
        "ray-scale-missing", "ray-scale-string", "ray-scale-off-omega", "map-bands-fraction",
        "map-dims-fraction"])
def test_certify_malformed_torus_exit_two_names_field(tmp_path, capsys, solved_tori, mode,
                                                       spoil, field):
    doc = json.loads(json.dumps(solved_tori[mode]))
    spoil(doc)
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps(doc))
    assert main(["certify", str(torus), "--out", str(tmp_path / "out")]) == 2
    assert f"torus file field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # refused before --out is created


def solve_and_certify(tmp_path, **overrides) -> int:
    """Solve a config with ``overrides`` to a torus in ``tmp_path`` and certify it."""
    cfg = write_config(tmp_path, **overrides)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    return main(["certify", str(tmp_path / "torus.json"), "--out", str(tmp_path)])


def test_certify_power_overflow_names_the_ledger_row(tmp_path, capsys):
    """At tau 58 (a1 a3)**(4 tau) overflows in E1: the float power raises
    OverflowError where a product gives inf, so the row must come out inf and
    be named instead of an unnamed errno message."""
    code = solve_and_certify(tmp_path, system="lagrangian_rotors", epsilon=0.0, bands=[8, 8],
                             rho0=0.03, tau=58.0)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("certify: hypothesis ledger failed: ledger row E1 = inf")
    assert "solver failure" not in err


def test_certify_underflowing_denominator_fails_with_infinite_ratio(tmp_path, capsys):
    """At tau 30, rho0 0.001 gamma**4 * rho**(4 tau) underflows to 0: the
    hypothesis is reported unchecked (ratio inf, FAIL), as an overflowing
    quotient is, instead of a division by zero."""
    code = solve_and_certify(tmp_path, system="lagrangian_rotors", epsilon=0.0, bands=[8, 8],
                             rho0=0.001, tau=30.0)
    assert code == 1
    assert "certificate FAIL: ratio = inf" in capsys.readouterr().out
    report = json.loads((tmp_path / "certificate.json").read_text())
    assert report["ratio"] == float("inf") and report["passed"] is False


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


@pytest.mark.parametrize("command, content", [
    ("solve", "[1, 2]"), ("validate", "[1, 2]"),
    ("certify", None), ("certify", "{not json"),
    ("plotdata", None), ("plotdata", "{not json"),
], ids=["solve-config-list", "validate-config-list", "certify-missing", "certify-unparseable",
        "plotdata-missing", "plotdata-unparseable"])
def test_unreadable_input_exit_two_names_the_file(tmp_path, capsys, command, content):
    """A config that is not a JSON object, or a torus file that is missing or is
    not JSON, is a usage error naming the file, not a traceback or a solver failure."""
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    args = [str(path)] if command in ("certify", "plotdata") else ["--config", str(path)]
    out = [] if command == "validate" else ["--out", str(tmp_path / "x")]
    assert main([command, *args, *out]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "solver failure" not in err


@pytest.mark.parametrize("content", [None, '{"step": 0}\n{not json', '{"step": 0}\n[1, 2]\n'],
                         ids=["missing", "unparseable", "line-not-an-object"])
def test_plotdata_unreadable_log_exit_two_names_the_file(tmp_path, capsys, solved_tori,
                                                         content):
    """A convergence log that is missing, is not JSON lines, or holds a line that
    is not a JSON object is a usage error naming the file; nothing is written."""
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps(solved_tori["ordinary"]))
    log = tmp_path / "log.jsonl"
    if content is not None:
        log.write_text(content)
    out = tmp_path / "plots"
    assert main(["plotdata", str(torus), "--out", str(out), "--log", str(log)]) == 2
    err = capsys.readouterr().err
    assert f"convergence log {log}" in err and "solver failure" not in err
    assert not out.exists()


@pytest.mark.parametrize("rows", [1, 4, 9])
def test_plotdata_grid_equals_the_whole_grid_synthesis(tmp_path, monkeypatch, solved_tori, rows):
    """torus_grid.csv holds, byte for byte, K from irfftn of its whole half
    spectrum on the 9 x 9 grid, with theta added to its angles, whether K is
    sampled one row, four rows (ragged) or the whole grid at a time."""
    from kamtorus import fourier
    from kamtorus.cli import _candidate_from_doc
    from oracles import irfftn_samples

    doc = solved_tori["ordinary"]
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps(doc))
    cand = _candidate_from_doc(doc)[0]
    grid = cand.grid
    mesh = np.meshgrid(*(np.arange(m) / m for m in grid), indexing="ij")
    vals = irfftn_samples(cand.k_per, grid)[..., 0]
    for i in range(cand.d):
        vals[..., i] += mesh[i]
    cols = [m.reshape(-1) for m in mesh] + [vals[..., j].reshape(-1)
                                            for j in range(vals.shape[-1])]
    header = "theta1,theta2," + ",".join(f"K{j + 1}" for j in range(vals.shape[-1]))
    want = "\n".join([header] + [",".join(repr(float(v)) for v in row) for row in zip(*cols)])
    monkeypatch.setattr(fourier, "SLAB_POINTS", rows * grid[1])
    assert grid == (9, 9) and cand.angle_block
    assert main(["plotdata", str(torus), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "torus_grid.csv").read_text() == want + "\n"


def test_validate_refuses_out(tmp_path, capsys):
    """validate writes nothing, so --out is an error rather than silently ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--out", str(tmp_path / "x"), "--epsilon", "0.01"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def count_calls(monkeypatch, module, name: str, calls: list) -> set:
    """Wrap ``module.<name>`` in every kamtorus module that binds it, so that each
    call appends ``name`` to ``calls``; the names of those modules."""
    import sys

    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    holders = {key for key, held in sys.modules.items()
               if key.startswith("kamtorus") and getattr(held, name, None) is original}
    for key in holders:
        monkeypatch.setattr(sys.modules[key], name, counted)
    return holders


def count_grid_kitchens(monkeypatch) -> list:
    """The calls of ``frames.grid_kitchen`` from now on, from every module that binds it."""
    calls = []
    holders = count_calls(monkeypatch, frames, "grid_kitchen", calls)
    assert {"kamtorus.frames", "kamtorus.solver", "kamtorus.isoenergetic"} <= holders
    return calls


ONE_PER_MODE = pytest.mark.parametrize("overrides", [
    {"system": "lagrangian_rotors", "epsilon": 1e-3, "bands": [8, 8], "rho0": 0.05},
    {"mode": "iso", "epsilon": 2e-3, "bands": [8, 8], "rho0": 0.03, "conserved": "H",
     "c0_offset": 1e-4, "max_iters": 8},
], ids=["ordinary", "iso"])


@ONE_PER_MODE
def test_certify_builds_one_grid_kitchen(tmp_path, monkeypatch, overrides):
    """certify composes K with the system callbacks once: the frames, the error
    and the smallness scale all read the iterate's kitchen."""
    from kamtorus.cli import cmd_certify

    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    calls = count_grid_kitchens(monkeypatch)
    assert cmd_certify(str(out / "torus.json"), {}, out) in (0, 1)
    assert len(calls) == 1
    report = json.loads((out / "certificate.json").read_text())
    assert report["mode"] == overrides.get("mode", "ordinary")


@ONE_PER_MODE
def test_solve_builds_one_grid_kitchen_per_iterate(tmp_path, monkeypatch, overrides):
    """A solve of s steps builds s + 1 kitchens: iso mode reads the target level
    from the seed's kitchen instead of building the seed's kitchen twice."""
    from kamtorus.cli import cmd_solve

    calls = count_grid_kitchens(monkeypatch)
    cmd_solve(RunConfig.from_dict(json.loads(write_config(tmp_path, **overrides).read_text())),
              tmp_path / "run")
    steps = json.loads((tmp_path / "run" / "summary.json").read_text())["steps"]
    assert steps > 0 and len(calls) == steps + 1


def test_validate_builds_no_seed(tmp_path, monkeypatch, capsys):
    """validate checks the system and the divisors of the seed frequency; it
    builds no seed torus and no kitchen, and still refuses a resonant omega."""
    from kamtorus import cli

    calls = count_grid_kitchens(monkeypatch)
    monkeypatch.setattr(cli, "seed_torus", lambda *args: calls.append("seed_torus"))
    assert main(["validate", "--config", str(write_config(tmp_path))]) == 0
    resonant = write_config(tmp_path, omega=[1.0, 2.0])
    assert main(["validate", "--config", str(resonant)]) == 2
    assert "resonance" in capsys.readouterr().err
    assert calls == []


@ONE_PER_MODE
def test_solve_and_certify_build_no_error_map(tmp_path, monkeypatch, overrides):
    """Neither the Newton step nor the certificate reads the error maps, so
    neither builds one; soundness_report still builds and bounds all four."""
    from kamtorus.certificate import estimate_global_constants
    from kamtorus.cli import _candidate_from_doc, _selector, cmd_certify, cmd_solve
    from kamtorus.isoenergetic import IsoTarget
    from kamtorus.solver import evaluate
    from oracles import soundness_report

    calls = []
    for name in ("isotropy_errors", "symplecticity_error", "reducibility_error"):
        assert "kamtorus.frames" in count_calls(monkeypatch, frames, name, calls)
    out = tmp_path / "run"
    cfg = RunConfig.from_dict(json.loads(write_config(tmp_path, **overrides).read_text()))
    assert cmd_solve(cfg, out) == 0
    assert cmd_certify(str(out / "torus.json"), {}, out) in (0, 1)
    assert calls == []

    doc = json.loads((out / "torus.json").read_text())
    cand, cfg, schedule, ray = _candidate_from_doc(doc)
    target = None if cfg.mode == "ordinary" else IsoTarget(_selector(cfg), doc["c0"])
    it = evaluate(cand, target, ray)
    pairs = soundness_report(it, frames.build_frames(cand, it.kitchen),
                             estimate_global_constants(cand.system, _selector(cfg)),
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
    from kamtorus import cohomology
    from kamtorus.cli import cmd_solve, cmd_validate

    calls = []
    holders = count_calls(monkeypatch, cohomology, "estimate_gamma", calls)
    assert {"kamtorus.cli", "kamtorus.cohomology"} <= holders
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


@pytest.mark.parametrize("command", ["certify", "plotdata"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_torus_coefficient_exit_two(tmp_path, capsys, bands8_torus, command, value):
    """A non-finite coefficient of K is refused by the reader: its real-symmetry
    defect is NaN, which no tolerance refuses, so certify named a ledger row
    sigma_K = nan and plotdata wrote NaN rows."""
    doc = json.loads(bands8_torus[1])
    doc["map"]["coeffs"][5] = value
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, str(torus), "--out", str(out)]) == 2
    assert "torus file field 'map': ValueError: coefficients must be finite" in \
        capsys.readouterr().err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("defect", [0.0, 1e-13, 1e-3], ids=["exact", "within-1e-12", "not-real"])
def test_torus_file_symmetry_is_checked_by_the_loader(tmp_path, capsys, bands8_torus, defect):
    """The loader keeps the k_d >= 0 half of K.  A file whose f_-k and conj(f_k)
    differ by at most 1e-12 relative loads, and certifies to the bytes of the
    exact file: its k_d < 0 modes are not read.  A larger defect exits 2 naming
    the field."""
    exact = tmp_path / "exact.json"
    exact.write_text(bands8_torus[1])
    assert main(["certify", str(exact), "--out", str(tmp_path / "ref")]) in (0, 1)
    doc = json.loads(bands8_torus[1])
    doc["map"]["coeffs"][1] += defect  # Im of row 0 at k = (-8, -8)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["certify", str(edited), "--out", str(out)])
    if defect > 1e-12:
        assert code == 2
        assert "torus file field 'map': ValueError: not real: f_-k and conj(f_k) differ by " \
            "1.000e-03" in capsys.readouterr().err
        assert not out.exists()
        return
    assert code in (0, 1)
    for name in ("certificate.json", "ledger.csv"):
        assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


@pytest.mark.parametrize("mode", ["ordinary", "iso"])
def test_d3_rotors_solve_and_round_trip_the_torus(tmp_path, monkeypatch, mode):
    """At bands 4 the registered d = 3 system solves in process in both modes;
    its torus file reads back to the bits of the solved map and is written
    back to its own bytes, and it certifies."""
    fields = {"system": "d3_rotors", "epsilon": 1e-3, "tau": 2.0, "scan_limit": 300,
              "bands": [4, 4, 4]}
    if mode == "iso":
        fields.update(mode="iso", conserved="H", c0_offset=1e-4)
    solved = []
    candidate_doc = cli._candidate_doc
    monkeypatch.setattr(cli, "_candidate_doc",
                        lambda cand, *rest: solved.append(cand.k_per) or candidate_doc(cand, *rest))
    out = tmp_path / "run"
    assert cli.cmd_solve(RunConfig.from_dict(fields), out) == 0
    text = (out / "torus.json").read_text()
    doc = json.loads(text)
    k_per = FourierMap.from_json_dict(doc["map"])
    assert k_per.bands == (4, 4, 4) and k_per.shape == (8, 1)
    assert k_per.half.tobytes() == solved[0].half.tobytes()
    cli._json_dump(doc, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text
    assert main(["certify", str(out / "torus.json"), "--out", str(out)]) in (0, 1)
    assert json.loads((out / "certificate.json").read_text())["ratio"] > 0


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
def test_json_dump_writes_the_bytes_of_json_dumps(tmp_path, monkeypatch, bands8_torus, edit):
    """The coefficient list, written in chunks (of 1, 7 and 4096 items) from both
    ends between the two parts of the rest, leaves the torus file as json.dumps
    writes it."""
    from kamtorus.cli import _json_dump

    doc, solved_text = bands8_torus
    doc = json.loads(json.dumps(doc))
    if edit is not None:
        edit(doc)
    expect = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    for chunk in (1, 7, 4096):
        monkeypatch.setattr(cli, "ITEMS_CHUNK", chunk)
        _json_dump(doc, tmp_path / "torus.json")
        assert (tmp_path / "torus.json").read_text() == expect, chunk
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
    assert sep.join(_number_items(values, sep)) == \
        json.dumps(values, separators=(sep, ": "))[1:-1]


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


def test_solve_peak_memory_bounded(tmp_path):
    """A canonical structure's four maps are one-mode constants, a step's frames
    and the iterate's kitchen are released before the next candidate's kitchen
    is built, the kitchen and the pointwise inverse sample one slab of the work
    grid at a time, constant matrix entries are filled rather than
    transformed, and the last kitchen is released before the outputs are
    written.  With full-band constants still alive, this solve peaked at about
    4.6 MB above entry; with whole-grid sampling at about 2.9 MB; with two
    kitchens alive during each step's evaluation at about 1.8 MB; it peaks at
    about 1.6 MB."""
    from kamtorus.cli import cmd_solve

    cfg = RunConfig(system="lagrangian_rotors", epsilon=0.02, bands=[16, 16], rho0=0.03,
                    stop_tol=1e-12).validate()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        code = cmd_solve(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak - entry < 2.5e6


def test_iso_solve_peak_memory_bounded(tmp_path):
    """The iso-b16 solve (symmetric_rotors, n = 3 with a first integral, bands 16):
    with slabs of up to 56 rows, each output's whole-slab rfft spectrum, an
    out-of-place axis-0 head transform and a pass capped only by its points
    (the kitchen's 55 outputs, the 6 x 6 by 6 x 3 product on one slab), it
    peaked at about 3.28 MB above entry; with balanced slabs, analyses in row
    blocks, in-place heads, the value cap and a leaner pointwise inverse at
    about 2.58 MB."""
    from kamtorus.cli import cmd_solve

    cfg = RunConfig(system="symmetric_rotors", epsilon=0.01, mode="iso", conserved="H",
                    c0_offset=1e-3, bands=[16, 16], rho0=0.03).validate()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        code = cmd_solve(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak - entry < 2.9e6

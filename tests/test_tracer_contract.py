"""The benchmark tracer's view of one solve + certify per mode.

``perfbench/child.py --trace`` wraps kamtorus's layers from outside.  The
benchmark relies on ``fourier.matmul`` being rebound in every module that
holds it and on each mode entering none of the other mode's spans; these are
the checks ``perfbench/run.py`` applies when it summarizes the layers.  Each
Newton step is one span of its mode's step entry point.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

CONFIGS = {
    "ordinary": {"system": "lagrangian_rotors", "epsilon": 5e-3, "bands": [8, 8],
                 "rho0": 0.03, "stop_tol": 1e-10, "max_iters": 6},
    "iso": {"system": "symmetric_rotors", "epsilon": 5e-3, "mode": "iso", "conserved": "H",
            "c0_offset": 1e-3, "bands": [8, 8], "rho0": 0.03, "stop_tol": 1e-10,
            "max_iters": 6},
}


def bench_constants(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling workloads.py
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_traced_child_sees_one_mode(tmp_path, monkeypatch, mode):
    run = bench_constants(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[mode]))
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(config),
                           str(tmp_path / "out"), str(result), "--trace"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(result.read_text())
    assert res["rc_solve"] == 0
    trace = res["trace"]
    assert trace["counters"]["rebinds.fourier.matmul"] == run.MATMUL_HOLDERS == 5
    # the callbacks of the generated systems are traced through the rebound builder
    assert trace["counters"]["rebinds.hamiltonian.builtin_system"] >= 1
    assert trace["calls"].get("hamiltonian.callback", 0) > 0
    own, other = ((run.ORDINARY_ONLY, run.ISO_ONLY) if mode == "ordinary"
                  else (run.ISO_ONLY, run.ORDINARY_ONLY))
    assert [name for name in other if trace["calls"].get(name, 0)] == []
    solve = "solver.solve_triangular" if mode == "ordinary" else "isoenergetic.solve_triangular_iso"
    assert solve in own and trace["calls"].get(solve, 0) > 0
    # the loop runs every Newton step through its mode's traced entry point
    step = "solver.newton_step" if mode == "ordinary" else "isoenergetic.newton_step_iso"
    steps = json.loads((tmp_path / "out" / "summary.json").read_text())["steps"]
    assert step in own and steps > 0 and trace["calls"].get(step, 0) == steps

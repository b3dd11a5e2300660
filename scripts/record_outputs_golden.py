#!/usr/bin/env python3
"""Record ``tests/outputs_golden.json``: the exit codes and the SHA-256 of the
five outputs of solve + certify, run in process, for ``make_config`` seed 1 of
three workloads and an iso ``p:0`` config, with the numpy version and platform.

    PYTHONPATH=src python scripts/record_outputs_golden.py

Rerun it after a change that moves an output on purpose, and say in CHANGES.md
which digests moved and why.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from kamtorus.cli import RunConfig, cmd_certify, cmd_solve

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "outputs_golden.json"
OUTPUTS = ("torus.json", "log.jsonl", "summary.json", "certificate.json", "ledger.csv")
P0_CONFIG = {"system": "symmetric_rotors", "epsilon": 0.01, "mode": "iso", "conserved": "p:0",
             "c0_offset": 1e-3, "bands": [8, 8], "rho0": 0.03}


def made_on() -> dict:
    """What the digests depend on besides the program: pocketfft and the BLAS
    come with numpy, and their rounding may differ across platforms."""
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def outputs(config: dict, out: Path) -> dict:
    """The exit codes of solve then certify of ``config`` and the digests of their outputs."""
    codes = [cmd_solve(RunConfig.from_dict(config), out),
             cmd_certify(str(out / "torus.json"), {}, out)]
    return {"exit_codes": codes,
            **{name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}}


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, make_config

    configs = {f"{name}/seed1": make_config(WORKLOADS[name], 1)
               for name in ("ordinary-b32", "iso-b16", "certify-b16")}
    configs["iso-p0-b8"] = P0_CONFIG
    with tempfile.TemporaryDirectory() as tmp:
        cases = {label: {"config": config, "outputs": outputs(config, Path(tmp) / label)}
                 for label, config in configs.items()}
    GOLDEN.write_text(json.dumps({**made_on(), "cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark workloads: a base config per workload plus a seeded perturbation.

The seed moves ``epsilon`` (and ``c0_offset`` in iso mode) by a relative amount
drawn uniformly from ``[-spread, +spread]``.  The spreads are chosen so that
every seed keeps the workload's Newton step count and certificate verdict; the
program only ever sees the generated config file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    expect_pass: bool       # expected certificate verdict
    eps_spread: float       # relative perturbation of epsilon
    c0_spread: float = 0.0  # relative perturbation of c0_offset (iso only)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ordinary-b32",
            {"system": "lagrangian_rotors", "epsilon": 0.02, "bands": [32, 32],
             "rho0": 0.03, "stop_tol": 1e-12, "max_iters": 10},
            expect_pass=False, eps_spread=0.002,
        ),
        Workload(
            "iso-b16",
            {"system": "symmetric_rotors", "epsilon": 0.01, "mode": "iso",
             "conserved": "H", "c0_offset": 1e-3, "bands": [16, 16], "rho0": 0.03},
            expect_pass=False, eps_spread=0.01, c0_spread=0.01,
        ),
        Workload(
            "ordinary-b64",
            {"system": "lagrangian_rotors", "epsilon": 0.02, "bands": [64, 64],
             "rho0": 0.03, "stop_tol": 1e-9, "max_iters": 10},
            expect_pass=False, eps_spread=0.002,
        ),
        Workload(
            "certify-b16",
            {"system": "lagrangian_rotors", "epsilon": 1e-3, "bands": [16, 16],
             "rho0": 0.03, "tau": 1.0, "a1": 2.0, "a2": 2.0, "sigma_factor": 1.1},
            expect_pass=True, eps_spread=0.01,
        ),
    )
}


def make_config(workload: Workload, seed: int) -> dict:
    """The config the program receives for ``seed``: same seed, same config."""
    rng = random.Random(f"{workload.name}/{seed}")
    cfg = dict(workload.config)
    cfg["epsilon"] = cfg["epsilon"] * (1.0 + rng.uniform(-1.0, 1.0) * workload.eps_spread)
    if workload.c0_spread:
        cfg["c0_offset"] = cfg["c0_offset"] * (
            1.0 + rng.uniform(-1.0, 1.0) * workload.c0_spread)
    return cfg

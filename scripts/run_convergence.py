#!/usr/bin/env python3
"""Convergence study: quadratic decay of the invariance error on both
built-in systems, with the per-step ledger contraction bound alongside.

Writes JSON-lines records to stdout (one per step per run) so the output can
be piped straight into plotting tools.
"""

import argparse
import json
import sys

import numpy as np

from kamtorus import (
    DiophantineParams,
    NewtonSchedule,
    builtin_system,
    contraction_slope,
    estimate_gamma,
    estimate_global_constants,
    iterate_newton,
    seed_torus,
)
from kamtorus.certificate import contraction_constant_factory

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def seed(system_name, eps, omega, bands, rho):
    y_center = np.zeros(builtin_system(system_name).n)
    y_center[: len(omega)] = omega
    sys_obj = builtin_system(system_name, epsilon=eps, y_center=y_center,
                             y_radius=0.5, imag_width=0.2)
    dio = DiophantineParams(omega, estimate_gamma(omega, 1.0, 1000), 1.0, 1000)
    return seed_torus(sys_obj, dio, bands, rho)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bands", type=int, default=32)
    ap.add_argument("--rho0", type=float, default=0.03)
    args = ap.parse_args()

    omega = np.array([1.0, GOLDEN])
    for name, eps in (("lagrangian_rotors", 0.02), ("symmetric_rotors", 0.01)):
        cand = seed(name, eps, omega, (args.bands, args.bands), args.rho0)
        sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, max_iters=10, stop_tol=1e-12,
                               rho0=args.rho0)
        globs = estimate_global_constants(cand.system)
        hook = contraction_constant_factory(globs, sched)
        res = iterate_newton(cand, sched, contraction_ledger=hook)
        for rec in res.log:
            out = {"system": name, "epsilon": eps}
            out.update({k: v for k, v in rec.items()
                        if k not in ("frame_norms", "hypothesis_margins")})
            print(json.dumps(out, sort_keys=True))
        slope = contraction_slope(res.log)
        print(json.dumps({"system": name, "converged": res.converged,
                          "steps": len(res.log) - 1, "final_error": res.log[-1]["err"],
                          "contraction_exponent": slope}, sort_keys=True))
        if not res.converged:
            print(f"{name}: {res.reason}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Certificate study: converge the weakly coupled rotor torus and evaluate
the existence ratio over a small grid of working parameters.

The documented passing configuration (epsilon = 1e-3, bands 16^2,
rho0 = 0.03, tau = 1, a1 = a2 = 2, sigma margins 1.1x) is included in the
sweep; the report line marks every ratio < 1.
"""

import argparse
import json

import numpy as np

from kamtorus import (
    DiophantineParams,
    NewtonSchedule,
    build_frames,
    builtin_system,
    certify,
    estimate_gamma,
    estimate_global_constants,
    iterate_newton,
    seed_torus,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def run_one(eps, bands_n, rho0, tau, sigma_factor):
    omega = np.array([1.0, GOLDEN])
    sys_obj = builtin_system("lagrangian_rotors", epsilon=eps, y_center=omega,
                             y_radius=0.5, imag_width=0.2)
    dio = DiophantineParams(omega, estimate_gamma(omega, tau, 1000), tau, 1000)
    cand = seed_torus(sys_obj, dio, (bands_n, bands_n), rho0)
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, max_iters=12, stop_tol=1e-13,
                           rho0=rho0)
    res = iterate_newton(cand, sched)
    if not res.converged:
        return {"eps": eps, "bands": bands_n, "rho0": rho0, "tau": tau,
                "converged": False, "reason": res.reason}
    globs = estimate_global_constants(sys_obj)
    it = res.iterate
    frames = build_frames(it.cand, it.kitchen)
    report, ledger = certify(it, frames, sched, globs, sigma_factor=sigma_factor)
    return {
        "eps": eps, "bands": bands_n, "rho0": rho0, "tau": tau,
        "sigma_factor": sigma_factor, "converged": True,
        "final_rho": it.cand.rho, "error_norm": report.error_norm,
        "E1": ledger["E1"], "ratio": report.ratio, "passed": report.passed,
        "dominant": report.dominant,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="only the documented passing configuration")
    args = ap.parse_args()
    sweep = [(1e-3, 16, 0.03, 1.0, 1.1)]
    if not args.quick:
        sweep += [
            (1e-3, 8, 0.08, 1.0, 1.1),
            (1e-3, 8, 0.12, 1.0, 1.1),
            (1e-3, 16, 0.05, 1.0, 1.1),
            (5e-4, 16, 0.03, 1.0, 1.1),
        ]
    any_pass = False
    for params in sweep:
        rec = run_one(*params)
        print(json.dumps(rec, sort_keys=True))
        any_pass = any_pass or rec.get("passed", False)
    print(json.dumps({"any_configuration_passed": any_pass}))
    return 0 if any_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())

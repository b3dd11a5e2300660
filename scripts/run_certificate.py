#!/usr/bin/env python3
"""Certificate study: converge the weakly coupled rotor torus and evaluate
the existence ratio over a small grid of working parameters.

The documented passing configuration (epsilon = 1e-3, bands 16^2,
rho0 = 0.03, tau = 1, a1 = a2 = 2, sigma margins 1.1x) is included in the
sweep; the report line marks every ratio < 1.
"""

import argparse
import json

from kamtorus import build_frames, certify, estimate_global_constants, iterate_newton
from kamtorus.cli import RunConfig, start_run


def run_one(eps, bands_n, rho0, tau, sigma_factor):
    # the config's defaults: lagrangian_rotors at omega = (1, golden mean), a1 = a2 = 2
    cfg = RunConfig(epsilon=eps, bands=[bands_n] * 2, rho0=rho0, tau=tau, stop_tol=1e-13,
                    sigma_factor=sigma_factor).validate()
    seed, sched, _ = start_run(cfg)
    res = iterate_newton(seed, sched)
    if not res.converged:
        return {"eps": eps, "bands": bands_n, "rho0": rho0, "tau": tau,
                "converged": False, "reason": res.reason}
    globs = estimate_global_constants(res.iterate.cand.system)
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

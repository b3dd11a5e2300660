#!/usr/bin/env python3
"""Convergence study: quadratic decay of the invariance error on both
built-in systems, with the per-step ledger contraction bound alongside.

Writes JSON-lines records to stdout (one per step per run) so the output can
be piped straight into plotting tools.
"""

import argparse
import json
import sys

from kamtorus import contraction_slope, estimate_global_constants, iterate_newton
from kamtorus.certificate import contraction_constant_factory
from kamtorus.cli import RunConfig, start_run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bands", type=int, default=32)
    ap.add_argument("--rho0", type=float, default=0.03)
    args = ap.parse_args()

    for name, eps in (("lagrangian_rotors", 0.02), ("symmetric_rotors", 0.01)):
        # the config's defaults: omega = (1, golden mean), tau = 1, a1 = a2 = 2
        cfg = RunConfig(system=name, epsilon=eps, bands=[args.bands] * 2, rho0=args.rho0,
                        max_iters=10, stop_tol=1e-12).validate()
        seed, sched, _ = start_run(cfg)
        hook = contraction_constant_factory(estimate_global_constants(seed.cand.system), sched,
                                            cfg.sigma_factor)
        res = iterate_newton(seed, sched, contraction_ledger=hook)
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

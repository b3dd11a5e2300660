"""Ordinary and iso mode share one Newton loop: one log schema, one refinement rule."""

import numpy as np

from kamtorus.cohomology import DiophantineParams, estimate_gamma
from kamtorus.isoenergetic import FrequencyRay, IsoTarget, total_error
from kamtorus.solver import NewtonSchedule, iterate_newton

from conftest import GOLDEN, ORDINARY_FRAME_NORMS, seed_candidate


def iso_seed(eps, bands):
    ray = FrequencyRay.at_midpoint(np.array([1.0, GOLDEN]) / np.sqrt(2.0), 2.0)
    dio = DiophantineParams(ray.omega, estimate_gamma(ray.omega_star, 1.0, 1000), 1.0, 1000)
    cand = seed_candidate("symmetric_rotors", eps, ray.omega, bands=bands, rho=0.03, dio=dio)
    conserved = cand.system.conserved("H")
    c0 = total_error(cand, conserved, 0.0).E_omega + 1e-3
    return cand, ray, conserved, c0


def test_iso_log_carries_every_ordinary_key(golden_omega):
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, max_iters=6, stop_tol=1e-10, rho0=0.03)
    ordinary = iterate_newton(seed_candidate("lagrangian_rotors", 5e-3, golden_omega,
                                             bands=(8, 8), rho=0.03), sched)
    cand, ray, conserved, c0 = iso_seed(5e-3, (8, 8))
    iso = iterate_newton(cand, sched, IsoTarget(conserved, c0), ray)
    assert len(ordinary.log) > 1 and len(iso.log) > 1
    # a record with a step, and the closing record without one
    for ours, theirs in ((ordinary.log[0], iso.log[0]), (ordinary.log[-1], iso.log[-1])):
        assert set(ours) <= set(theirs), sorted(set(ours) - set(theirs))
    stepped = iso.log[0]
    assert set(ordinary.log[0]["frame_norms"]) == ORDINARY_FRAME_NORMS
    assert set(stepped["frame_norms"]) == ORDINARY_FRAME_NORMS | {"Tc@rho-delta"}
    assert {"domain_margin", "ray_margin", "smallness"} <= set(stepped["hypothesis_margins"])
    assert {"err_inv", "err_omega", "omega", "ray_scale", "err_omega_after", "xi_omega",
            "ray_margin"} <= set(stepped)


def test_iso_band_refinement_from_coarse_seed():
    cand, ray, conserved, c0 = iso_seed(5e-3, (2, 2))
    sched = NewtonSchedule(a1=2, a2=2, c_n=1e4, max_iters=10, stop_tol=1e-12, rho0=0.03,
                           band_refinement=True, tail_threshold=0.1)
    res = iterate_newton(cand, sched, IsoTarget(conserved, c0), ray)
    refined = [rec["band_refined_to"] for rec in res.log if "band_refined_to" in rec]
    assert refined
    assert res.converged, res.reason
    assert res.iterate.cand.bands == tuple(refined[-1]) > cand.bands
    assert abs((c0 + res.iterate.E_omega) - c0) <= 1e-11

"""Ordinary and iso mode share one Newton loop and one log schema, and each
keeps one kitchen alive at a time."""

import weakref

import pytest

from kamtorus import isoenergetic, solver
from kamtorus.solver import iterate_newton

from conftest import ORDINARY_FRAME_NORMS, seed_run

ISO = {"system": "symmetric_rotors", "mode": "iso", "epsilon": 5e-3, "c0_offset": 1e-3}


def test_iso_log_carries_every_ordinary_key():
    stop = {"bands": [8, 8], "max_iters": 6, "stop_tol": 1e-10}
    ordinary = iterate_newton(*seed_run(epsilon=5e-3, **stop))
    iso = iterate_newton(*seed_run(**ISO, **stop))
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


@pytest.mark.parametrize("mode", ["ordinary", "iso"])
def test_each_kitchen_is_dead_when_the_next_is_built(monkeypatch, mode):
    """The loop drops an iterate before it evaluates the corrected candidate, so
    when a kitchen is built no kitchen built before it is still alive."""
    built, alive = [], []
    build = solver.grid_kitchen

    def recording(*args, **kwargs):
        alive.append([ref() is not None for ref in built])
        kitchen = build(*args, **kwargs)
        built.append(weakref.ref(kitchen))
        return kitchen

    monkeypatch.setattr(solver, "grid_kitchen", recording)
    monkeypatch.setattr(isoenergetic, "grid_kitchen", recording)
    fields = {"epsilon": 5e-3} if mode == "ordinary" else ISO
    start = list(seed_run(**fields, bands=[8, 8], max_iters=6, stop_tol=1e-10))
    sched, target = start[1:]
    # the seed is popped rather than named, so that nothing but the loop holds it
    result = iterate_newton(start.pop(0), sched, target)
    assert result.converged and len(built) == len(result.log) > 2
    assert alive == [[False] * i for i in range(len(built))]

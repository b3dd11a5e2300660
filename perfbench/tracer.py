"""Per-layer spans and counters recorded from outside the program.

``install()`` wraps the public functions of each kamtorus layer in place and
returns the ``Tracer`` that collects their spans.  Nothing in ``src/`` is
edited; the wrappers only time and count, so the program's outputs stay
byte-identical (the benchmark checks their digests in traced runs too).

Three binding details matter:

- ``frames``, ``solver`` and ``isoenergetic`` do ``from .fourier import
  matmul`` (and similar), so a wrapper must be rebound in every module that
  holds the original function object, not only where it is defined;
- ``FourierMap`` methods are patched on the class;
- the system callbacks live on frozen dataclasses, so the system returned by
  ``builtin_system`` is rebuilt with ``dataclasses.replace``.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import sys
import time
from collections import defaultdict

import numpy as np

CONST_RTOL = 1e-13  # an operand whose k != 0 modes are below this share of its peak is constant


class Tracer:
    """Nested spans with inclusive and self time, plus named counters.

    A span's inclusive time is credited to its name only at the outermost
    active call of that name, so a name nested in itself is not counted twice.
    ``top_s`` is the time covered by spans that had no enclosing span.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.top_s = 0.0
        self._stack = []  # per open span: time covered by its child spans
        self._active = defaultdict(int)

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so that every call records a span ``name``.

        ``before(args, kwargs)`` and ``after(result)`` update counters; they
        run outside the timed interval.
        """
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            outermost = active[name] == 0
            active[name] += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                active[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dt - child
                if outermost:
                    self.total_s[name] += dt
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt
            if after is not None:
                after(result)
            return result

        return traced

    def report(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counters": dict(self.counters),
                "top_s": self.top_s}


def _rebind(original, replacement) -> int:
    """Point every kamtorus module attribute that is ``original`` at ``replacement``."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "kamtorus" or name.startswith("kamtorus.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    if count == 0:
        raise RuntimeError(f"{original.__qualname__} is bound in no kamtorus module")
    return count


def _operand_kind(f) -> str:
    mags = np.abs(f.coeffs)
    peak = float(mags.max()) if mags.size else 0.0
    if peak == 0.0:
        return "zero"
    mags[tuple(f.bands)] = 0.0
    return "const" if float(mags.max()) <= CONST_RTOL * peak else "varying"


def _points(shape) -> int:
    return int(np.prod(shape, dtype=np.int64))


def install() -> Tracer:
    """Wrap every traced layer of an imported kamtorus and return the tracer."""
    from kamtorus import certificate, cli, cohomology, fourier, frames, isoenergetic, solver
    from kamtorus.fourier import FourierMap

    tr = Tracer()
    cnt = tr.counters
    rebinds = {}

    def wrap_function(module, attr, name, **hooks):
        original = getattr(module, attr)
        rebinds[name] = _rebind(original, tr.span(name, original, **hooks))

    # -- fourier ------------------------------------------------------------
    def matmul_before(args, kwargs):
        a, b = args[0], args[1]
        work = kwargs.get("work_grid") or (args[3] if len(args) > 3 else None)
        if work is None:
            work = fourier.dealias_grid(a.bands, b.bands)
        cnt["fourier.transform_points"] += _points(work) * a.shape[0] * b.shape[1]
        kinds = {_operand_kind(a), _operand_kind(b)}
        if "zero" in kinds:
            cnt["fourier.matmul.zero_operand"] += 1
        elif "const" in kinds:
            cnt["fourier.matmul.const_operand"] += 1

    wrap_function(fourier, "matmul", "fourier.matmul", before=matmul_before)

    def eval_grid_before(args, kwargs):
        f = args[0]
        grid = kwargs.get("grid") or (args[1] if len(args) > 1 else None) or f.grid
        cnt["fourier.transform_points"] += _points(grid) * _points(f.shape)

    def from_samples_before(args, kwargs):
        cnt["fourier.transform_points"] += _points(np.shape(args[1]))

    FourierMap.eval_grid = tr.span("fourier.eval_grid", FourierMap.eval_grid,
                                   before=eval_grid_before)
    FourierMap.norm = tr.span("fourier.norm", FourierMap.norm)
    FourierMap.from_samples = classmethod(tr.span(
        "fourier.from_samples", FourierMap.__dict__["from_samples"].__func__,
        before=from_samples_before))
    FourierMap.from_json_dict = classmethod(tr.span(
        "cli.load", FourierMap.__dict__["from_json_dict"].__func__))

    # -- frames ---------------------------------------------------------------
    for attr in ("grid_kitchen", "build_frames", "tangent_frame", "normal_frame", "torsion",
                 "extended_torsion", "isotropy_errors", "symplecticity_error",
                 "reducibility_error"):
        wrap_function(frames, attr, f"frames.{attr}")

    # -- hamiltonian: every callback of the systems the CLI builds ----------------
    def callback_before(args, kwargs):
        cnt["hamiltonian.callback.points"] += _points(np.shape(args[0])[:-1])

    def traced_callbacks(obj):
        changes = {f.name: tr.span("hamiltonian.callback", getattr(obj, f.name),
                                   before=callback_before)
                   for f in dataclasses.fields(obj) if callable(getattr(obj, f.name))}
        return dataclasses.replace(obj, **changes)

    original_builtin = cli.builtin_system

    def builtin_system(*args, **kwargs):
        system = original_builtin(*args, **kwargs)
        return dataclasses.replace(traced_callbacks(system),
                                   geometry=traced_callbacks(system.geometry))

    rebinds["hamiltonian.builtin_system"] = _rebind(original_builtin, builtin_system)

    # -- cohomology, solver, isoenergetic -------------------------------------
    for attr in ("estimate_gamma", "solve_cohomological"):
        wrap_function(cohomology, attr, f"cohomology.{attr}")
    for attr in ("newton_step", "solve_triangular"):
        wrap_function(solver, attr, f"solver.{attr}")
    for attr in ("newton_step_iso", "solve_triangular_iso", "total_error"):
        wrap_function(isoenergetic, attr, f"isoenergetic.{attr}")

    # -- certificate ----------------------------------------------------------
    def certify_after(result):
        cnt["certificate.ledger_rows"] += len(result[1].rows)

    wrap_function(certificate, "estimate_global_constants",
                  "certificate.estimate_global_constants")
    wrap_function(certificate, "certify", "certificate.certify", after=certify_after)

    # -- cli: building and writing the output documents -----------------------------
    wrap_function(cli, "_candidate_doc", "cli.write")
    wrap_function(cli, "_json_dump", "cli.write")
    pathlib.Path.write_text = tr.span("cli.write", pathlib.Path.write_text)

    cnt.update({f"rebinds.{k}": v for k, v in rebinds.items()})
    return tr

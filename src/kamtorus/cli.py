"""Command-line front end: solve / certify / validate / plotdata.

Configuration is a JSON document; every run embeds the resolved config and
the library version into its outputs so results are reproducible byte for
byte from the config alone (fixed reduction order, no timestamps).

Exit codes: 0 success or certificate pass, 1 certificate fail or solver
divergence, 2 usage/validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .cohomology import DiophantineParams, DivisorCollisionError, estimate_gamma
from .fourier import FourierMap
from .frames import TorusCandidate, build_frames, seed_torus
from .hamiltonian import (builtin_dims, builtin_system, check_derivatives, verify_commutation,
                          verify_involution)
from .isoenergetic import FrequencyRay, IsoTarget, total_error
from .certificate import certify, estimate_global_constants
from .solver import NewtonSchedule, evaluate, iterate_newton


class ConfigError(ValueError):
    pass


GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def _is_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _vector(name: str, value, d: int, valid, what: str) -> list:
    """``value`` as a list of d entries that each pass ``valid``."""
    if not (isinstance(value, (list, tuple)) and len(value) == d and all(map(valid, value))):
        raise ConfigError(f"{name} must be a list of d={d} {what}, got {value!r}")
    return list(value)


@dataclass
class RunConfig:
    system: str = "lagrangian_rotors"
    epsilon: float = 0.001
    mode: str = "ordinary"              # "ordinary" | "iso"
    conserved: str = "H"                # "H" or "p:<j>" (iso mode)
    c0_offset: float = 0.0              # target level = seed level + offset
    omega: list | None = None           # ordinary mode frequency
    omega_star: list | None = None      # iso mode ray base
    sigma_omega: float = 2.0
    bands: list = field(default_factory=lambda: [16, 16])
    rho0: float = 0.03
    tau: float = 1.0
    scan_limit: int = 1000
    a1: float = 2.0
    a2: float = 2.0
    c_n: float | None = 1e4
    max_iters: int = 12
    stop_tol: float = 1e-12
    y_radius: float = 0.5
    imag_width: float = 0.2
    sigma_factor: float = 1.1
    out_dir: str = "out"

    def validate(self) -> "RunConfig":
        try:
            n, m = builtin_dims(self.system)  # the system itself is built later, once
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.mode not in ("ordinary", "iso"):
            raise ConfigError(f"mode must be 'ordinary' or 'iso', got {self.mode!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        d = n - m
        inf = math.inf
        reals = [("epsilon", -inf, inf), ("c0_offset", -inf, inf), ("rho0", 0, 1),
                 ("stop_tol", 0, inf), ("y_radius", 0, inf), ("imag_width", 0, inf),
                 *((name, 1, inf) for name in ("sigma_omega", "a1", "a2", "sigma_factor")),
                 *([("c_n", 0, inf)] if self.c_n is not None else [])]
        for name, low, high in reals:
            value = getattr(self, name)
            if not (_is_real(value) and low < value < high):
                raise ConfigError(f"{name} must be a finite number in ({low}, {high}), "
                                  f"got {value!r}")
        if self.rho0 >= self.imag_width:  # the seed's domain margin is imag_width - rho0
            raise ConfigError(f"rho0 must be below imag_width = {self.imag_width}, got {self.rho0}")
        if not (_is_real(self.tau) and self.tau >= d - 1):
            raise ConfigError(f"tau must be a finite number >= d-1 = {d - 1}, got {self.tau!r}")
        for name, low in (("max_iters", 0), ("scan_limit", 1)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= low):
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.mode == "ordinary":
            omega = self.omega if self.omega is not None else self._default_omega(d)
            self.omega = [float(v) for v in _vector("omega", omega, d, _is_real, "finite numbers")]
        else:
            base = self.omega_star if self.omega_star is not None else [
                v / np.sqrt(self.sigma_omega) for v in self._default_omega(d)
            ]
            self.omega_star = [float(v) for v in _vector("omega_star", base, d, _is_real,
                                                         "finite numbers")]
            allowed = ["H"] + [f"p:{j}" for j in range(m)]
            if self.conserved not in allowed:
                raise ConfigError(f"conserved must be one of {allowed} for {self.system}, "
                                  f"got {self.conserved!r}")
        self.bands = _vector("bands", self.bands, d, lambda b: _is_int(b) and b >= 1,
                             "integers >= 1")
        return self

    @staticmethod
    def _default_omega(d: int) -> list:
        # (1, golden mean) for d <= 2; for d >= 3 the powers 2^{j/d}, which are
        # linearly independent over Q (1, phi, phi^2 is resonant: phi^2 = phi + 1)
        return [1.0, GOLDEN][:d] if d <= 2 else [2.0 ** (j / d) for j in range(d)]

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**data).validate()

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        data = {}
        if path:
            with open(path) as fh:
                data = json.load(fh)
        return cls.from_dict({**data, **{k: v for k, v in overrides.items() if v is not None}})


_SPLICE = "\0coeffs"  # placeholder of the coefficient list while the rest is encoded


def _json_dump(obj, path: Path):
    """Write ``json.dumps(obj, sort_keys=True, indent=1)`` and a newline.

    With ``indent`` set, ``json`` encodes in pure Python.  A torus document's
    coefficient list (33,800 numbers at bands 32) is written instead by
    :func:`_number_items` and spliced into the indented text of the rest at a
    placeholder: the bytes are the same.  When the placeholder's text occurs
    more than once (a config string can hold it), the whole document is
    encoded plainly.
    """
    coeffs = obj.get("map", {}).get("coeffs")
    if coeffs:
        text = json.dumps({**obj, "map": {**obj["map"], "coeffs": _SPLICE}},
                          sort_keys=True, indent=1)
        marker = json.dumps(_SPLICE)
        if text.count(marker) == 1:
            head, tail = text.split(marker)
            line = head[head.rfind("\n") + 1:]
            indent = "\n" + " " * (len(line) - len(line.lstrip(" ")))
            items = _number_items(coeffs, "," + indent + " ")
            path.write_text(head + "[" + indent + " " + items + indent + "]" + tail + "\n")
            return
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _number_items(values: list, sep: str) -> str:
    """The items of ``json.dumps(values)`` joined by ``sep``.  Finite floats are
    encoded once per distinct magnitude (f_-k = conj f_k repeats each), with "-"
    written for a set sign bit."""
    if set(map(type, values)) != {float} or not np.isfinite(arr := np.array(values)).all():
        return json.dumps(values, separators=(sep, ": "))[1:-1]
    mags, inverse = np.unique(np.abs(arr), return_inverse=True)
    items = np.array(json.dumps(mags.tolist())[1:-1].split(", "), dtype=object)[inverse]
    neg = np.signbit(arr)
    items[neg] = "-" + items[neg]
    return sep.join(items.tolist())


def _seed_frequency(cfg: RunConfig):
    """Seed frequency and, in iso mode, the ray at its midpoint."""
    if cfg.mode == "iso":
        ray = FrequencyRay.at_midpoint(np.asarray(cfg.omega_star), cfg.sigma_omega)
        return ray.omega, ray
    return np.asarray(cfg.omega), None


def _system(cfg: RunConfig, omega: np.ndarray):
    """The configured system, its momentum domain centred at (omega, 0)."""
    y_center = np.zeros(builtin_dims(cfg.system)[0])
    y_center[: len(omega)] = omega
    return builtin_system(cfg.system, epsilon=cfg.epsilon, y_center=y_center,
                          y_radius=cfg.y_radius, imag_width=cfg.imag_width)


def _schedule(cfg: RunConfig) -> NewtonSchedule:
    return NewtonSchedule(a1=cfg.a1, a2=cfg.a2, c_n=cfg.c_n, max_iters=cfg.max_iters,
                          stop_tol=cfg.stop_tol, rho0=cfg.rho0)


def _build_setup(cfg: RunConfig):
    """System, seed candidate, schedule and (iso) ray from a validated config."""
    omega, ray = _seed_frequency(cfg)
    # a ray point s*omega_* with s > 1 inherits the scan certificate of omega_*,
    # which the construction checks; in ordinary mode gamma is omega's own scan
    gamma = estimate_gamma(omega if ray is None else ray.omega_star, cfg.tau, cfg.scan_limit)
    sys_obj = _system(cfg, omega)
    dio = DiophantineParams(omega, gamma, cfg.tau, cfg.scan_limit, check=ray is not None)
    return sys_obj, seed_torus(sys_obj, dio, cfg.bands, cfg.rho0), _schedule(cfg), ray


def _candidate_doc(cand: TorusCandidate, cfg: RunConfig, extra: dict | None = None) -> dict:
    doc = {
        "version": __version__,
        "config": asdict(cfg),
        "map": cand.k_per.to_json_dict(),
        "grid": list(cand.grid),
        "omega": cand.omega.tolist(),
        "rho": cand.rho,
        "dio": {"gamma": cand.dio.gamma, "tau": cand.dio.tau,
                "scan_limit": cand.dio.scan_limit},
        "angle_block": cand.angle_block,
    }
    if extra:
        doc.update(extra)
    return doc


@contextmanager
def _torus_field(name: str):
    """Turn an error raised while reading field ``name`` of a torus file into a
    ConfigError that names it (FourierShapeError and ConfigError are ValueErrors)."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"torus file field {name!r}: {type(exc).__name__}: {exc}") from None


def _candidate_from_doc(doc: dict):
    with _torus_field("config"):
        cfg = RunConfig.from_dict(doc["config"])
    seed_omega, ray = _seed_frequency(cfg)
    sys_obj = _system(cfg, seed_omega)
    with _torus_field("omega"):
        omega = np.asarray(_vector("omega", doc["omega"], sys_obj.d, _is_real, "finite numbers"))
    with _torus_field("dio"):
        dio = DiophantineParams(omega, doc["dio"]["gamma"], doc["dio"]["tau"],
                                int(doc["dio"]["scan_limit"]))
    with _torus_field("rho"):
        rho = doc["rho"]
        if not (_is_real(rho) and rho > 0):
            raise ValueError(f"must be a positive number, got {rho!r}")
    with _torus_field("map"):
        k_per = FourierMap.from_json_dict(doc["map"])
    with _torus_field("grid"):  # the rank check and plotdata sample K on 2*bands + 1
        if doc["grid"] != (exact := [2 * n + 1 for n in k_per.bands]):
            raise ValueError(f"must be 2*bands + 1 = {exact}, got {doc['grid']!r}")
    # the grid compositions sample only the k_d >= 0 half of K, so K must be real
    defect = k_per.real_symmetry_defect()
    if defect > 1e-12 * max(1.0, float(np.max(np.abs(k_per.coeffs), initial=0.0))):
        raise ConfigError(f"torus map is not real: f_-k and conj(f_k) differ by {defect:.3e}")
    with _torus_field("map"):
        cand = TorusCandidate(k_per, omega, dio, rho=float(rho), system=sys_obj,
                              angle_block=bool(doc.get("angle_block", True)))
    with _torus_field("rho"):
        if (margin := cand.domain_margin()) <= 0:
            raise ValueError(f"K(T^d_rho) leaves the system domain (margin {margin:.3e})")
    if ray is not None and "ray_scale" in doc:
        with _torus_field("ray_scale"):
            ray = FrequencyRay(np.asarray(cfg.omega_star), cfg.sigma_omega,
                               float(doc["ray_scale"]))
    return cand, cfg, _schedule(cfg), ray


def _selector(cfg: RunConfig):
    """The conserved-quantity selector of an iso config: "H" or ("p", j)."""
    return "H" if cfg.conserved == "H" else ("p", int(cfg.conserved.split(":")[1]))


def cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    sys_obj, cand, schedule, ray = _build_setup(cfg)
    target, extra = None, {}
    if cfg.mode == "iso":
        conserved = sys_obj.conserved(_selector(cfg))
        c0 = total_error(cand, conserved, 0.0).E_omega + cfg.c0_offset  # seed level + offset
        target = IsoTarget(conserved, c0)
    result = iterate_newton(cand, schedule, target, ray)
    final = result.candidate
    if target is not None:
        extra = {"omega_initial": result.omega_initial.tolist(),
                 "omega_final": result.omega_final.tolist(),
                 "c0": result.c0, "c_final": result.c_final,
                 "ray_scale": result.ray.scale}

    log_lines = "\n".join(json.dumps(rec, sort_keys=True) for rec in result.log)
    (out_dir / "log.jsonl").write_text(log_lines + "\n")
    _json_dump(_candidate_doc(final, cfg, extra), out_dir / "torus.json")
    summary = {
        "version": __version__,
        "config": asdict(cfg),
        "converged": result.converged,
        "reason": result.reason,
        "final_error": result.final_error,
        "steps": len(result.steps),
        "final_rho": final.rho,
        "note": "error norms are Fourier majorants of the truncated model; "
                "tails beyond the band limit are not certified",
        "gamma_scan_limit": cand.dio.scan_limit,
        "gamma": cand.dio.gamma,
    }
    summary.update(extra)
    _json_dump(summary, out_dir / "summary.json")
    print(f"{'converged' if result.converged else 'FAILED'}: {result.reason}; "
          f"final error {result.final_error:.3e}; outputs in {out_dir}")
    return 0 if result.converged else 1


def cmd_certify(torus_path: str, cfg_overrides: dict, out_dir: Path) -> int:
    """Certify the torus in ``torus_path`` under the config embedded in it.

    ``cfg_overrides`` is not read; it stays in the signature because the
    benchmark's child process (``perfbench/child.py``) passes it positionally.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = json.loads(Path(torus_path).read_text())
    cand, cfg, schedule, ray = _candidate_from_doc(doc)
    conserved = target = None
    if cfg.mode == "iso":
        conserved = cand.system.conserved(_selector(cfg))
        with _torus_field("c0"):
            target = IsoTarget(conserved, float(doc["c0"]))
    # the sampled bounds first: their lattice arrays then peak without the kitchen alive
    globs = estimate_global_constants(cand.system, conserved=conserved)
    it = evaluate(cand, target, ray)
    frames = build_frames(cand, it.kitchen)
    report, ledger = certify(it, frames, schedule, globs, sigma_factor=cfg.sigma_factor)
    (out_dir / "ledger.csv").write_text(ledger.to_csv())
    _json_dump(report.to_dict(), out_dir / "certificate.json")
    status = "PASS" if report.passed else "FAIL"
    print(f"certificate {status}: ratio = {report.ratio:.6g} (error {report.error_norm:.3e}); "
          f"ledger and report in {out_dir}")
    return 0 if report.passed else 1


def cmd_validate(cfg: RunConfig) -> int:
    sys_obj, cand, _, _ = _build_setup(cfg)
    inv = verify_involution(sys_obj)
    comm = verify_commutation(sys_obj)
    deriv = check_derivatives(sys_obj)
    rng_pts = np.random.default_rng(3)
    pts = np.concatenate(
        [rng_pts.uniform(0, 1, (30, sys_obj.n)),
         sys_obj.domain.y_center + 0.5 * rng_pts.uniform(-1, 1, (30, sys_obj.n))], axis=1
    )
    try:
        sys_obj.geometry.check_invariants(pts)
        structure_ok = True
    except Exception as exc:  # reported, not raised
        structure_ok = False
        print(f"structure invariants FAILED: {exc}")
    ok = inv.passed and comm.passed and deriv["passed"] and structure_ok
    print(f"involution: {'pass' if inv.passed else 'FAIL'} (max bracket {inv.max_bracket:.3e})")
    print(f"commutation: {'pass' if comm.passed else 'FAIL'} (max residual {comm.max_bracket:.3e})")
    print(f"derivative cross-check: {'pass' if deriv['passed'] else 'FAIL'} "
          f"({ {k: v for k, v in deriv.items() if k != 'passed'} })")
    return 0 if ok else 1


def cmd_plotdata(torus_path: str, out_dir: Path, log_path: str | None = None) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = json.loads(Path(torus_path).read_text())
    cand, _, _, _ = _candidate_from_doc(doc)
    vals = cand.k_values(cand.grid)
    d = cand.d
    axes = [np.arange(m) / m for m in cand.grid]
    mesh = np.meshgrid(*axes, indexing="ij")
    cols = [m.reshape(-1) for m in mesh] + [vals[..., j].reshape(-1)
                                            for j in range(2 * cand.system.n)]
    header = ",".join([f"theta{i+1}" for i in range(d)]
                      + [f"K{j+1}" for j in range(2 * cand.system.n)])
    lines = [header]
    for row in zip(*cols):
        lines.append(",".join(repr(float(v)) for v in row))
    (out_dir / "torus_grid.csv").write_text("\n".join(lines) + "\n")
    if log_path:
        recs = [json.loads(line) for line in Path(log_path).read_text().splitlines() if line]
        keys = ["step", "rho", "delta", "err"]
        lines = [",".join(keys)]
        for rec in recs:
            lines.append(",".join(repr(rec.get(k)) for k in keys))
        (out_dir / "errors.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote plot data ({np.prod(cand.grid)} grid rows) to {out_dir}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kamtorus",
                                 description="invariant-torus solver and certifier")
    sub = ap.add_subparsers(dest="command", required=True)

    def configured(p):
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--mode", choices=["ordinary", "iso"], default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--bands", type=int, nargs="+", default=None)
        return p

    def from_torus(p):
        # the run's config is the one embedded in the torus file
        p.add_argument("torus", help="torus JSON produced by solve")
        return p

    p_solve = configured(sub.add_parser("solve", help="run the quasi-Newton solver"))
    p_certify = from_torus(sub.add_parser("certify", help="evaluate the existence certificate"))
    configured(sub.add_parser("validate", help="check system callbacks and structure"))
    p_plot = from_torus(sub.add_parser("plotdata", help="emit CSV grid data for plotting"))
    p_plot.add_argument("--log", default=None, help="convergence log (JSON lines)")
    for p in (p_solve, p_certify, p_plot):  # validate writes nothing
        p.add_argument("--out", default=None, help="output directory")
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    cfg = None
    if args.command in ("solve", "validate"):
        overrides = {"mode": args.mode, "epsilon": args.epsilon,
                     "bands": list(args.bands) if args.bands else None}
        try:
            cfg = RunConfig.load(args.config, overrides)
        except (ConfigError, DivisorCollisionError, json.JSONDecodeError, OSError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
    try:
        if args.command == "validate":
            return cmd_validate(cfg)
        out_dir = Path(args.out or (cfg.out_dir if cfg else RunConfig.out_dir))
        if args.command == "solve":
            return cmd_solve(cfg, out_dir)
        if args.command == "certify":
            return cmd_certify(args.torus, {}, out_dir)
        if args.command == "plotdata":
            return cmd_plotdata(args.torus, out_dir, args.log)
    except (ConfigError, DivisorCollisionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())

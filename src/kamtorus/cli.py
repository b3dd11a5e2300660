"""Command-line front end: solve / certify / validate / plotdata.

Configuration is a JSON document; every run embeds the resolved config and
the library version into its outputs so results are reproducible byte for
byte from the config alone (fixed reduction order, no timestamps).

Exit codes: 0 success, a certificate pass or a validate whose checks all
pass, 1 certificate fail, a failed validate check, a solve that does not
converge or a failed hypothesis (``HypothesisError``), 2 usage and validation
errors (``ConfigError``) and resonant frequencies.  Any other exception is a
bug (a ``StructureError`` among them: no config builds a structure) and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .cohomology import DiophantineParams, DivisorCollisionError, estimate_gamma
from .fourier import FourierMap, strip_fits
from .frames import HypothesisError, TorusCandidate, build_frames, seed_torus
from .hamiltonian import builtin_dims, builtin_system, builtin_table, check_derivatives
from .isoenergetic import FrequencyRay, IsoTarget
from .certificate import (certify, estimate_global_constants, momentum_radius_limit,
                          table_width_limit)
from .solver import NewtonSchedule, evaluate, iterate_newton


class ConfigError(ValueError):
    pass


GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def _is_real(value) -> bool:
    """A finite int or float, not a bool: an int beyond the doubles is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(name: str, value, valid, what: str):
    """``value`` if it passes ``valid``; otherwise a ValueError saying it must be ``what``."""
    if not valid(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


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
        if self.imag_width > (width := table_width_limit(builtin_table(self.system,
                                                                      self.epsilon))):
            raise ConfigError(f"imag_width must be at most {width!r} at epsilon = "
                              f"{self.epsilon!r}, where the certificate's closed-form bounds "
                              f"stay finite, got {self.imag_width!r}")
        if not (_is_real(self.tau) and self.tau >= d - 1):
            raise ConfigError(f"tau must be a finite number >= d-1 = {d - 1}, got {self.tau!r}")
        for name, low in (("max_iters", 0), ("scan_limit", 1)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= low):
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        schedule = _schedule(self)
        if not 0 < schedule.delta0 < self.rho0 / 3:  # a3 is NaN, infinite or rounds to 3
            raise ConfigError(f"a1 = {self.a1!r} and a2 = {self.a2!r} give the strip schedule "
                              f"a3 = {schedule.a3!r} and delta0 = {schedule.delta0!r}, which "
                              "must lie in (0, rho0/3)")
        # each mode defaults its own frequency; a set one is checked in either mode
        if self.mode == "ordinary" and self.omega is None:
            self.omega = self._default_omega(d)
        if self.mode == "iso" and self.omega_star is None:
            self.omega_star = [v / np.sqrt(self.sigma_omega) for v in self._default_omega(d)]
        for name in ("omega", "omega_star"):
            if (value := getattr(self, name)) is not None:
                setattr(self, name, [float(v) for v in _vector(name, value, d, _is_real,
                                                               "finite numbers")])
        allowed = ["H"] + [f"p:{j}" for j in range(m)]
        if self.conserved not in allowed:
            raise ConfigError(f"conserved must be one of {allowed} for {self.system}, "
                              f"got {self.conserved!r}")
        try:
            y_center = _y_center(self.system, _seed_frequency(self)[0])
        except ValueError as exc:  # sqrt(sigma_omega) rounds onto an end of the ray
            raise ConfigError(f"sigma_omega = {self.sigma_omega!r} gives no ray midpoint: "
                              f"{exc}") from None
        if not self.y_radius <= (radius := momentum_radius_limit(y_center)):
            raise ConfigError(f"y_radius must be at most {radius!r} around the seed momentum "
                              f"of largest entry {float(np.max(np.abs(y_center)))!r}, where "
                              "the certificate's closed-form bounds stay finite, got "
                              f"{self.y_radius!r}")
        self.bands = _vector("bands", self.bands, d,
                             lambda b: _is_int(b) and _is_real(b) and b >= 1,
                             "finite integers >= 1")
        if not strip_fits(self.rho0, self.bands):
            raise ConfigError(f"rho0 = {self.rho0} and bands = {self.bands} overflow the strip "
                              "weights e^(2 pi |k|_1 rho0)")
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
        data = _read_json(path, "config file") if path else {}
        return cls.from_dict({**data, **{k: v for k, v in overrides.items() if v is not None}})


def _read_json(path: str, what: str) -> dict:
    """The JSON object in ``path``; a ConfigError naming the file if it cannot be
    read or parsed, or holds another JSON value."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise ConfigError(f"{what} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path}: must be a JSON object, got {type(doc).__name__}")
    return doc


def _read_log(path: str) -> list:
    """The records of the convergence log ``path``, one JSON object a line; a
    ConfigError naming the file if it cannot be read or a line is not one."""
    try:
        recs = [json.loads(line) for line in Path(path).read_text().splitlines() if line]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"convergence log {path}: {exc}") from None
    if not all(isinstance(rec, dict) for rec in recs):
        raise ConfigError(f"convergence log {path}: every line must be a JSON object")
    return recs


_SPLICE = "\0coeffs"  # placeholder of the coefficient list while the rest is encoded
ITEMS_CHUNK = 4096  # coefficient numbers that _write_items encodes at a time from each end


def _json_dump(obj, path: Path):
    """Write ``json.dumps(obj, sort_keys=True, indent=1)`` and a newline.

    With ``indent`` set, ``json`` encodes in pure Python.  A torus document's
    coefficient list (33,800 numbers at bands 32) is written instead by
    :func:`_write_items` between the two parts of the indented text of the
    rest, split at a placeholder: the bytes are the same.  When the
    placeholder's text occurs more than once (a config string can hold it), the
    whole document is encoded plainly.
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
            with path.open("w") as fh:
                fh.write(head + "[" + indent + " ")
                _write_items(fh, coeffs, "," + indent + " ")
                fh.write(indent + "]" + tail + "\n")
            return
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _write_items(fh, values: list, sep: str):
    """Write the items of ``json.dumps(values)`` joined by ``sep``.

    The list is encoded ITEMS_CHUNK numbers at a time from its front together
    with as many from its back, the mirror positions of a full coefficient box
    (f_-k = conj f_k), so that :func:`_number_items` encodes the magnitude of
    each such pair once.  Each front text is written at once; the back texts,
    half of the list's, are held until the front is done.
    """
    middle = (len(values) + 1) // 2
    backs = []
    for start in range(0, middle, ITEMS_CHUNK):
        stop = min(start + ITEMS_CHUNK, middle)
        back = slice(max(len(values) - stop, middle), len(values) - start)
        items = _number_items(values[start:stop] + values[back], sep)
        fh.write((sep if start else "") + sep.join(items[:stop - start]))
        if items[stop - start:]:
            backs.append(sep.join(items[stop - start:]))
    for text in reversed(backs):
        fh.write(sep + text)


def _number_items(values: list, sep: str) -> list:
    """The item texts of ``json.dumps(values, separators=(sep, ": "))``.  Finite
    floats are encoded once per distinct magnitude, with "-" written for a set
    sign bit."""
    if set(map(type, values)) != {float} or not np.isfinite(arr := np.array(values)).all():
        return [json.dumps(v, separators=(sep, ": ")) for v in values]
    mags, inverse = np.unique(np.abs(arr), return_inverse=True)
    items = np.array(json.dumps(mags.tolist())[1:-1].split(", "), dtype=object)[inverse]
    neg = np.signbit(arr)
    items[neg] = "-" + items[neg]
    return items.tolist()


def _seed_frequency(cfg: RunConfig):
    """Seed frequency and, in iso mode, the ray at its midpoint."""
    if cfg.mode == "iso":
        ray = FrequencyRay.at_midpoint(np.asarray(cfg.omega_star), cfg.sigma_omega)
        return ray.omega, ray
    return np.asarray(cfg.omega), None


def _y_center(system: str, omega: np.ndarray) -> np.ndarray:
    """The momentum centre (omega, 0) of the built-in ``system``'s domain."""
    y_center = np.zeros(builtin_dims(system)[0])
    y_center[: len(omega)] = omega
    return y_center


def _system(cfg: RunConfig, omega: np.ndarray):
    """The configured system, its momentum domain centred at (omega, 0)."""
    return builtin_system(cfg.system, epsilon=cfg.epsilon, y_center=_y_center(cfg.system, omega),
                          y_radius=cfg.y_radius, imag_width=cfg.imag_width)


def _schedule(cfg: RunConfig) -> NewtonSchedule:
    return NewtonSchedule(a1=cfg.a1, a2=cfg.a2, c_n=cfg.c_n, max_iters=cfg.max_iters,
                          stop_tol=cfg.stop_tol, rho0=cfg.rho0)


def _setup(cfg: RunConfig):
    """System, Diophantine data and (iso) ray of a validated config's seed frequency."""
    omega, ray = _seed_frequency(cfg)
    # a ray point s*omega_* with s > 1 inherits the scan certificate of omega_*,
    # which the construction checks; in ordinary mode gamma is omega's own scan
    gamma = estimate_gamma(omega if ray is None else ray.omega_star, cfg.tau, cfg.scan_limit)
    dio = DiophantineParams(omega, gamma, cfg.tau, cfg.scan_limit, check=ray is not None)
    return _system(cfg, omega), dio, ray


def start_run(cfg: RunConfig):
    """The evaluated seed ``Iterate`` of a validated config (the integrable-limit
    torus at the seed frequency), its ``NewtonSchedule`` and its ``IsoTarget``:
    in iso mode the seed's own level, read from the seed's one kitchen, plus
    ``c0_offset``; ``None`` in ordinary mode."""
    sys_obj, dio, ray = _setup(cfg)
    cand = seed_torus(sys_obj, dio, cfg.bands, cfg.rho0)
    if ray is None:
        return evaluate(cand), _schedule(cfg), None
    selector = _selector(cfg)
    seed = evaluate(cand, IsoTarget(selector, 0.0), ray)  # its level error is the seed's level
    target = IsoTarget(selector, seed.E_omega + cfg.c0_offset)
    return replace(seed, E_omega=seed.E_omega - target.c0), _schedule(cfg), target


def _candidate_doc(cand: TorusCandidate, cfg: RunConfig, extra: dict | None = None) -> dict:
    doc = {
        "version": __version__,
        "config": asdict(cfg),
        "map": cand.k_per.to_json_dict(),
        "grid": list(cand.grid),
        "omega": cand.dio.omega.tolist(),
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
    omega_seed, ray = _seed_frequency(cfg)
    sys_obj = _system(cfg, omega_seed)
    with _torus_field("omega"):
        omega = np.asarray(_vector("omega", doc["omega"], sys_obj.d, _is_real, "finite numbers"))
    with _torus_field("dio"):
        data = doc["dio"]
        for key in ("gamma", "tau"):
            _checked(key, data[key], _is_real, "a finite number")
        _checked("scan_limit", data["scan_limit"], lambda v: _is_int(v) and v >= 1,
                 "an integer >= 1")
        dio = DiophantineParams(omega, data["gamma"], data["tau"], data["scan_limit"])
    with _torus_field("rho"):
        rho = _checked("rho", doc["rho"], lambda v: _is_real(v) and v > 0, "a positive number")
    with _torus_field("angle_block"):
        angle_block = _checked("angle_block", doc["angle_block"],
                               lambda v: isinstance(v, bool), "a boolean")
    with _torus_field("map"):
        k_per = FourierMap.from_json_dict(doc["map"])
    with _torus_field("grid"):  # the rank check and plotdata sample K on 2*bands + 1
        if doc["grid"] != (exact := [2 * n + 1 for n in k_per.bands]):
            raise ValueError(f"must be 2*bands + 1 = {exact}, got {doc['grid']!r}")
    with _torus_field("map"):
        cand = TorusCandidate(k_per, dio, rho=float(rho), system=sys_obj,
                              angle_block=angle_block)
    with _torus_field("rho"):
        if not strip_fits(rho, k_per.bands):
            raise ValueError(f"{rho} overflows the strip weights e^(2 pi |k|_1 rho) of bands "
                             f"{k_per.bands}")
        if (margin := cand.domain_margin()) <= 0:
            raise ValueError(f"K(T^d_rho) leaves the system domain (margin {margin:.3e})")
    if ray is not None:
        with _torus_field("ray_scale"):
            scale = _checked("ray_scale", doc["ray_scale"], _is_real, "a finite number")
            ray = FrequencyRay(np.asarray(cfg.omega_star), cfg.sigma_omega, float(scale))
            if not np.array_equal(omega, ray.omega):  # the ledger reads dist_ray at this scale
                raise ValueError(f"omega {omega.tolist()} is not the ray's omega "
                                 f"{ray.omega.tolist()} at this scale")
    return cand, cfg, _schedule(cfg), ray


def _selector(cfg: RunConfig):
    """The conserved-quantity selector of an iso config: "H" or ("p", j)."""
    return "H" if cfg.conserved == "H" else ("p", int(cfg.conserved.split(":")[1]))


def cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    start = list(start_run(cfg))  # seed, schedule, target
    schedule, target = start[1:]
    # the seed is popped rather than named, so that once the loop steps past it
    # nothing holds its kitchen (CPython >= 3.11 moves call arguments into the
    # callee's frame); a named seed raised the iso-b16 tracemalloc peak by 1.3 MB
    result = iterate_newton(start.pop(0), schedule, target)
    last = result.iterate
    final_error = result.log[-1]["err"]
    final = last.cand
    extra = {}
    if target is not None:
        extra = {"omega_initial": result.log[0]["omega"], "omega_final": final.dio.omega.tolist(),
                 "c0": target.c0, "c_final": target.c0 + last.E_omega,
                 "ray_scale": last.ray.scale}
    del last  # the last kitchen is dead once its level and ray are read: the writes
    result.iterate = None  # below peak without it

    log_lines = "\n".join(json.dumps(rec, sort_keys=True) for rec in result.log)
    (out_dir / "log.jsonl").write_text(log_lines + "\n")
    _json_dump(_candidate_doc(final, cfg, extra), out_dir / "torus.json")
    summary = {
        "version": __version__,
        "config": asdict(cfg),
        "converged": result.converged,
        "reason": result.reason,
        "final_error": final_error,
        "steps": len(result.log) - 1,
        "final_rho": final.rho,
        "note": "error norms are Fourier majorants of the truncated model; "
                "tails beyond the band limit are not certified",
        "gamma_scan_limit": final.dio.scan_limit,
        "gamma": final.dio.gamma,
    }
    summary.update(extra)
    _json_dump(summary, out_dir / "summary.json")
    print(f"{'converged' if result.converged else 'FAILED'}: {result.reason}; "
          f"final error {final_error:.3e}; outputs in {out_dir}")
    return 0 if result.converged else 1


def cmd_certify(torus_path: str, cfg_overrides: dict, out_dir: Path) -> int:
    """Certify the torus in ``torus_path`` under the config embedded in it.

    ``cfg_overrides`` is not read; it stays in the signature because the
    benchmark's child process (``perfbench/child.py``) passes it positionally.
    """
    doc = _read_json(torus_path, "torus file")
    cand, cfg, schedule, ray = _candidate_from_doc(doc)
    target = None
    if cfg.mode == "iso":
        with _torus_field("c0"):
            target = IsoTarget(_selector(cfg), float(_checked("c0", doc["c0"], _is_real,
                                                              "a finite number")))
    del doc  # the parsed document is dead once the candidate, c0 and the ray are built
    out_dir.mkdir(parents=True, exist_ok=True)
    globs = estimate_global_constants(cand.system, "H" if target is None else target.conserved)
    it = evaluate(cand, target, ray)
    frames = build_frames(cand, it.kitchen)
    report, ledger = certify(it, frames, schedule, globs, sigma_factor=cfg.sigma_factor)
    (out_dir / "ledger.csv").write_text(ledger.to_csv())
    _json_dump(asdict(report), out_dir / "certificate.json")
    status = "PASS" if report.passed else "FAIL"
    print(f"certificate {status}: ratio = {report.ratio:.6g} (error {report.error_norm:.3e}); "
          f"ledger and report in {out_dir}")
    return 0 if report.passed else 1


def cmd_validate(cfg: RunConfig) -> int:
    """Print the involution and commutation bounds of the system's term table and
    the finite-difference cross-check of its callbacks; 0 when all three pass."""
    sys_obj, _, _ = _setup(cfg)  # the divisor scans refuse a resonant frequency
    bracket, residual = sys_obj.table.involution_bounds()
    deriv = check_derivatives(sys_obj)
    print(f"involution: {'pass' if bracket == 0 else 'FAIL'} (max bracket {bracket:.3e})")
    print(f"commutation: {'pass' if residual == 0 else 'FAIL'} (max residual {residual:.3e})")
    print(f"derivative cross-check: {'pass' if deriv['passed'] else 'FAIL'} "
          f"({ {k: v for k, v in deriv.items() if k != 'passed'} })")
    return 0 if bracket == residual == 0 and deriv["passed"] else 1


def cmd_plotdata(torus_path: str, out_dir: Path, log_path: str | None = None) -> int:
    cand, _, _, _ = _candidate_from_doc(_read_json(torus_path, "torus file"))
    recs = _read_log(log_path) if log_path else None
    out_dir.mkdir(parents=True, exist_ok=True)
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
    if recs is not None:
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
    try:
        if args.command == "certify":
            return cmd_certify(args.torus, {}, Path(args.out or RunConfig.out_dir))
        if args.command == "plotdata":
            return cmd_plotdata(args.torus, Path(args.out or RunConfig.out_dir), args.log)
        cfg = RunConfig.load(args.config, {"mode": args.mode, "epsilon": args.epsilon,
                                           "bands": list(args.bands) if args.bands else None})
        if args.command == "validate":
            return cmd_validate(cfg)
        return cmd_solve(cfg, Path(args.out or cfg.out_dir))
    except (ConfigError, DivisorCollisionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:  # every other exception is a bug: it keeps its traceback
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""The kamtorus benchmark: solve then certify, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Each iteration is one fresh subprocess (``child.py``) that imports
kamtorus, loads the generated config, runs ``solve`` and then ``certify`` on
the torus it just solved, and exits; the next iteration starts when it has
ended.  Before the loop a few set-up-only subprocesses sample ``setup_s``.

Every iteration is checked: it must converge to ``stop_tol``, give the
workload's expected certificate verdict, and write outputs whose digests equal
those of the first run of the same code on the same config (kept in
``.perfbench_out/digests.json``).  A failing iteration counts in ``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones (``tracer.py``), plus the tracing overhead and coverage.  Every
metric is printed by name with its unit; the last line of standard output is
the JSON result.  The full record of the run (seed, config, versions, each
iteration's timings, error trajectory and certificate ratio) is written to
``.perfbench_out/<workload>-seed<N>-trace<T>/record.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
OUTPUT_FILES = ("torus.json", "log.jsonl", "summary.json", "certificate.json", "ledger.csv")
SETUP_SPAWNS = 9          # set-up-only subprocesses per run, besides one untimed warm-up
CHILD_TIMEOUT_S = 120.0
LOOP_CAP_S = 140.0        # never start an iteration after this, so a run ends within 180 s
MIN_COVERAGE = 0.9

# Times in the JSON result are host-speed adjusted: each sample is scaled by
# PROBE_REF_S over the mean time of the probes run just before, during and just
# after it in the same process (child.probe), so they read as seconds on a host
# where the probe takes PROBE_REF_S.  The shared host's speed drifts by up to
# 1.6x, which moved raw run medians by 19-27 % between runs; adjusted medians
# moved 3-6 % (README.md, "Statistics").  Raw times are printed and recorded.
PROBE_REF_S = 0.011  # the probe on a quiet core of a 2.1 GHz Xeon VM
# The JSON result reports the median of each metric over the run's samples.
END_TO_END = {"solve_s": "s", "certify_s": "s", "setup_s": "s", "total_s": "s", "step_s": "s",
              "newton_steps": "count", "peak_alloc_mb": "MB"}

PER_LAYER = {
    "fourier.matmul.calls": "count", "fourier.matmul.self_s": "s",
    "fourier.eval_grid.calls": "count", "fourier.eval_grid.s": "s",
    "fourier.from_samples.calls": "count", "fourier.from_samples.s": "s",
    "fourier.norm.calls": "count", "fourier.norm.s": "s",
    "fourier.transform_points": "count",
    "fourier.matmul.const_operand_frac": "ratio", "fourier.matmul.zero_operand_frac": "ratio",
    "frames.grid_kitchen.calls": "count", "frames.grid_kitchen.s": "s",
    "frames.build_frames.calls": "count", "frames.build_frames.s": "s",
    "frames.tangent_frame.s": "s", "frames.normal_frame.s": "s", "frames.torsion.s": "s",
    "frames.extended_torsion.calls": "count", "frames.error_maps.s": "s",
    "hamiltonian.callback.calls": "count", "hamiltonian.callback.s": "s",
    "hamiltonian.callback.points": "count",
    "cohomology.estimate_gamma.calls": "count", "cohomology.estimate_gamma.s": "s",
    "cohomology.solve_cohomological.calls": "count", "cohomology.solve_cohomological.s": "s",
    "solver.newton_step.calls": "count", "solver.solve_triangular.calls": "count",
    "isoenergetic.newton_step_iso.calls": "count",
    "isoenergetic.solve_triangular_iso.calls": "count",
    "isoenergetic.total_error.calls": "count",
    "newton_step.s": "s", "solve_triangular.s": "s",
    "certificate.estimate_global_constants.s": "s", "certificate.certify.s": "s",
    "certificate.ledger_rows": "count",
    "cli.output_bytes": "bytes", "cli.write_s": "s", "cli.load_s": "s",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}

# Spans of one mode only.  Their times read exactly 0 on the other mode's
# workloads, so the JSON result carries their call counts and the two
# mode-neutral sums above; the times themselves are printed and recorded.
ORDINARY_ONLY = ("solver.newton_step", "solver.solve_triangular")
ISO_ONLY = ("isoenergetic.newton_step_iso", "isoenergetic.solve_triangular_iso",
            "isoenergetic.total_error", "frames.extended_torsion")
MODE_SPANS = ORDINARY_ONLY + ISO_ONLY
MATMUL_HOLDERS = 5  # kamtorus, .fourier, .frames, .solver, .isoenergetic


class RunError(RuntimeError):
    pass


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def code_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def scale(seconds: float, probes: list) -> float:
    """``seconds`` at the host speed where the probe takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / statistics.mean(probes)


def stats(values: list) -> dict:
    vals = sorted(values)
    high = statistics.quantiles(vals, n=10, method="inclusive")[-1] if len(vals) > 1 else vals[0]
    return {"median": statistics.median(vals), "p90": high, "min": vals[0], "max": vals[-1],
            "n": len(vals)}


class Bench:
    def __init__(self, workload, seed: int, trace: bool):
        self.workload = workload
        self.config = make_config(workload, seed)
        self.work = OUT_ROOT / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, sort_keys=True, indent=1) + "\n")
        self.out = self.work / "out"
        self.result = self.work / "result.json"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))  # child.py caps the threads
        self.reference_key = hashlib.sha256(
            (code_digest(ROOT / "src") + self.config_path.read_text()).encode()).hexdigest()

    def spawn(self, *flags) -> dict:
        """One child subprocess; returns its result with setup_s and total_s added."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(self.config_path), str(self.out),
               str(self.result), *flags]
        t0 = time.monotonic_ns()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"child timed out after {CHILD_TIMEOUT_S} s") from exc
        t1 = time.monotonic_ns()
        if proc.returncode != 0 or not self.result.is_file():
            raise RunError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
        res = json.loads(self.result.read_text())
        res["wall_s"] = (t1 - t0) / 1e9
        res["setup_s"] = (res["t_ready_ns"] - t0) / 1e9
        adjusted = {"setup_s": scale(res["setup_s"], res["setup_probe_s"])}
        if "solve_s" in res:
            res["total_s"] = res["wall_s"] - res["probe_total_s"]
            adjusted.update(solve_s=scale(res["solve_s"], res["solve_probe_s"]),
                            certify_s=scale(res["certify_s"], res["certify_probe_s"]))
            # The untimed rest of total_s (writes, exit) is scaled like its timed parts.
            parts = ("setup_s", "solve_s", "certify_s")
            adjusted["total_s"] = (res["total_s"] * sum(adjusted[k] for k in parts)
                                   / sum(res[k] for k in parts))
        res["adjusted"] = adjusted
        return res

    def check(self, res: dict) -> list:
        """Correctness problems of the iteration just run (empty when it passed)."""
        summary = json.loads((self.out / "summary.json").read_text())
        cert = json.loads((self.out / "certificate.json").read_text())
        log = [json.loads(line) for line in (self.out / "log.jsonl").read_text().splitlines()]
        digests = {name: sha256_file(self.out / name) for name in OUTPUT_FILES}
        res.update(newton_steps=summary["steps"], final_error=summary["final_error"],
                   converged=summary["converged"], reason=summary["reason"],
                   ratio=cert["ratio"], passed=cert["passed"],
                   errors=[rec["err"] for rec in log], digests=digests,
                   output_bytes=sum((self.out / name).stat().st_size for name in OUTPUT_FILES))
        problems = []
        stop_tol = summary["config"]["stop_tol"]
        if not summary["converged"]:
            problems.append(f"did not converge: {summary['reason']}")
        if not summary["final_error"] <= stop_tol:
            problems.append(f"final error {summary['final_error']:.3e} > stop_tol {stop_tol:.1e}")
        if cert["passed"] != self.workload.expect_pass:
            problems.append(f"certificate verdict {'PASS' if cert['passed'] else 'FAIL'} "
                            f"(ratio {cert['ratio']:.6g}), expected "
                            f"{'PASS' if self.workload.expect_pass else 'FAIL'}")
        reference = self.reference_digests(digests)
        changed = sorted(name for name in OUTPUT_FILES if digests[name] != reference[name])
        if changed:
            problems.append(f"outputs differ from the first run of this code and seed: {changed}")
        return problems

    def reference_digests(self, digests: dict) -> dict:
        """Digests of the first run of this code on this config, recording them if new."""
        path = OUT_ROOT / "digests.json"
        table = json.loads(path.read_text()) if path.is_file() else {}
        if self.reference_key not in table:
            table[self.reference_key] = digests
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
            os.replace(tmp, path)
        return table[self.reference_key]


def layer_metrics(tr: dict, traced_wall: float) -> dict:
    calls, total, self_s, cnt = tr["calls"], tr["total_s"], tr["self_s"], tr["counters"]

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    products = c("fourier.matmul")
    m = {
        "fourier.matmul.calls": products,
        "fourier.matmul.self_s": self_s.get("fourier.matmul", 0.0),
        "fourier.transform_points": cnt.get("fourier.transform_points", 0),
        "fourier.matmul.const_operand_frac": cnt.get("fourier.matmul.const_operand", 0) / products,
        "fourier.matmul.zero_operand_frac": cnt.get("fourier.matmul.zero_operand", 0) / products,
        "frames.error_maps.s": sum(t(f"frames.{n}") for n in (
            "isotropy_errors", "symplecticity_error", "reducibility_error")),
        "hamiltonian.callback.calls": c("hamiltonian.callback"),
        "hamiltonian.callback.s": t("hamiltonian.callback"),
        "hamiltonian.callback.points": cnt.get("hamiltonian.callback.points", 0),
        "newton_step.s": t("solver.newton_step") + t("isoenergetic.newton_step_iso"),
        "solve_triangular.s": t("solver.solve_triangular") + t("isoenergetic.solve_triangular_iso"),
        "certificate.ledger_rows": cnt.get("certificate.ledger_rows", 0),
        "cli.write_s": t("cli.write"),
        "cli.load_s": t("cli.load"),
        "trace.coverage": tr["top_s"] / traced_wall,
    }
    for name in ("fourier.eval_grid", "fourier.from_samples", "fourier.norm",
                 "frames.grid_kitchen", "frames.build_frames", "cohomology.estimate_gamma",
                 "cohomology.solve_cohomological"):
        m[f"{name}.calls"] = c(name)
        m[f"{name}.s"] = t(name)
    for name in ("frames.tangent_frame", "frames.normal_frame", "frames.torsion",
                 "certificate.estimate_global_constants", "certificate.certify"):
        m[f"{name}.s"] = t(name)
    for name in MODE_SPANS:
        m[f"{name}.calls"] = c(name)
        m[f"{name}.s"] = t(name)
    return m


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(bench: Bench, seconds: float, trace: bool):
    """Set-up samples, then the closed loop; returns the samples and the problems found."""
    bench.spawn("--setup-only")  # untimed: fills the bytecode and file caches
    setup = [bench.spawn("--setup-only") for _ in range(SETUP_SPAWNS)]
    # The first passing untraced iteration runs under tracemalloc, without probes
    # inside its calls, and gives peak_alloc_mb; the later ones give the time samples.
    clean, untraced, traced, problems, walls = None, [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        with_trace = trace and clean is not None and len(traced) < len(untraced)
        attempted += 1
        try:
            res = bench.spawn(*(["--trace"] if with_trace else
                                ["--memory"] if clean is None else ["--sample"]))
            walls.append(res["wall_s"])
            found = bench.check(res)
        except (RunError, OSError, ValueError, KeyError) as exc:
            found = [f"run failed: {exc}"]
        if found:
            failed += 1
            problems.extend(f"iteration {attempted}: {p}" for p in found)
            print(f"iteration {attempted} FAILED: {'; '.join(found)}", file=sys.stderr)
        else:
            res["traced"] = with_trace
            setup.append(res)
            if clean is None:
                clean = res
            else:
                (traced if with_trace else untraced).append(res)
        elapsed = time.monotonic() - start
        have_all = bool(untraced) and (bool(traced) or not trace)
        # Start no iteration that would likely end after `seconds`.
        next_end = elapsed + (statistics.median(walls) if walls else 0.0)
        if (next_end > seconds and have_all) or elapsed >= LOOP_CAP_S:
            return setup, clean, untraced, traced, attempted, failed, problems


def summarize_layers(untraced: list, traced: list, mode: str, problems: list) -> dict:
    """Median per-layer metrics of the traced iterations, with the trace checks."""
    per_iter = []
    for r in traced:
        m = layer_metrics(r["trace"], r["solve_s"] + r["certify_s"])
        m["cli.output_bytes"] = r["output_bytes"]
        per_iter.append(m)
    layers = {name: statistics.median(m[name] for m in per_iter) for name in per_iter[0]}
    layers["trace.overhead"] = (
        statistics.median(r["adjusted"]["solve_s"] + r["adjusted"]["certify_s"] for r in traced)
        / statistics.median(r["adjusted"]["solve_s"] + r["adjusted"]["certify_s"]
                            for r in untraced))
    rebinds = traced[0]["trace"]["counters"].get("rebinds.fourier.matmul", 0)
    if rebinds < MATMUL_HOLDERS:
        problems.append(f"matmul rebound in {rebinds} modules, expected {MATMUL_HOLDERS}")
    if layers["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"trace.coverage {layers['trace.coverage']:.3f} < {MIN_COVERAGE}")
    idle = ISO_ONLY if mode == "ordinary" else ORDINARY_ONLY
    busy = [name for name in idle if layers[f"{name}.calls"] != 0]
    if busy:
        problems.append(f"spans of the other mode were entered: {busy}")
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kamtorus" / "__init__.py").is_file():
        print(f"error: no kamtorus sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    bench = Bench(WORKLOADS[args.workload], args.seed, trace)
    try:
        setup, clean, untraced, traced, attempted, failed, problems = measure(
            bench, args.seconds, trace)
    except RunError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    if not untraced or (trace and not traced):
        print("error: no iteration passed; no metrics to report", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1

    def time_samples(times: str) -> dict:
        """Samples of every time metric, from the raw or the adjusted times."""
        pick = (lambda r: r) if times == "raw" else (lambda r: r["adjusted"])
        out = {name: [pick(r)[name] for r in untraced] for name in ("solve_s", "certify_s",
                                                                    "total_s")}
        out["setup_s"] = [pick(r)["setup_s"] for r in setup]
        out["step_s"] = [pick(r)["solve_s"] / r["newton_steps"] for r in untraced]
        return out

    samples = time_samples("adjusted")
    samples["newton_steps"] = [r["newton_steps"] for r in untraced]
    samples["peak_alloc_mb"] = [clean["peak_alloc_mb"]]
    e2e = {name: stats(samples[name]) for name in END_TO_END}
    raw = {name: stats(vals) for name, vals in time_samples("raw").items()}
    steps = sorted({r["newton_steps"] for r in [clean] + untraced + traced})
    if len(steps) != 1:
        problems.append(f"newton_steps differ between runs of one seed: {steps}")
    layers = (summarize_layers(untraced, traced, bench.config.get("mode", "ordinary"), problems)
              if trace else {})

    nproc = len(os.sched_getaffinity(0))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  numpy {untraced[0]['numpy']}  "
          f"nproc {nproc}  threads 1  config {json.dumps(bench.config, sort_keys=True)}")
    print(f"closed loop, 1 client: 1 unprobed + {len(untraced)} untraced + {len(traced)} traced "
          f"runs passed of {attempted} attempted; fail_frac {failed / attempted:.6g}")
    last = untraced[-1]
    print(f"newton_steps {last['newton_steps']}  certificate "
          f"{'PASS' if last['passed'] else 'FAIL'} ratio {last['ratio']!r}  "
          f"error trajectory {[f'{e:.4g}' for e in last['errors']]}")
    for name, st in e2e.items():
        note = (f"  (raw: median {fmt(raw[name]['median'])}  min {fmt(raw[name]['min'])})"
                if name in raw else "")
        print(f"{name:<14} median {fmt(st['median'])}  p90 {fmt(st['p90'])}  "
              f"min {fmt(st['min'])}  max {fmt(st['max'])}  {END_TO_END[name]}  n {st['n']}{note}")
    print(f"peak_rss_mb    {fmt(clean['peak_rss_mb'])} MB  (printed only: it moves by up to "
          f"15 % between identical runs, with malloc's heap layout)")
    for name, value in layers.items():
        unit = PER_LAYER.get(name, "count" if name.endswith(".calls") else "s")
        note = "" if name in PER_LAYER else "  (printed only: exactly 0 on the other mode)"
        print(f"{name:<44} {fmt(value)} {unit}{note}")
    for p in problems:
        print(f"problem: {p}")

    if trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": bench.config, "python": platform.python_version(),
        "numpy": untraced[0]["numpy"], "nproc": nproc, "threads": untraced[0]["threads"],
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "problems": problems, "end_to_end": e2e,
        "end_to_end_raw": raw, "probe_ref_s": PROBE_REF_S, "per_layer": layers, "metrics": metrics,
        "iterations": [{k: v for k, v in r.items() if k != "trace"}
                       for r in [clean] + untraced + traced],
    }
    (bench.work / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

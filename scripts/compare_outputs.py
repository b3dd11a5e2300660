#!/usr/bin/env python3
"""Byte-identity check of two source trees on the outputs of solve + certify + validate.

    python scripts/compare_outputs.py SRC_A SRC_B [--workloads W ...] [--seeds N ...]
    python scripts/compare_outputs.py SRC_A SRC_B --config FILE [FILE ...]
    python scripts/compare_outputs.py SRC_A SRC_B --files torus.json log.jsonl summary.json

SRC_A and SRC_B are checkouts, or their ``src/`` directories.  Each config
(``perfbench/workloads.make_config`` for every workload and seed, or each
``--config`` file) is solved and then certified by ``kamtorus solve`` and
``kamtorus certify``, and checked by ``kamtorus validate``, from each tree, each
command in its own subprocess, once with ``KAMTORUS_THREADS`` and the numerical
backends' thread caps at 1 and once at 2.  The runs work in a temporary
directory and write no bytecode, so both trees are only read.

One line per config and output gives the SHA-256 written by SRC_A at one
thread, then ``same`` when all four runs wrote those bytes, or ``differs`` and
each run's digest; the outputs are the five files and the stdout of validate
(``validate.stdout``).  A last line per config does the same for the exit codes
of solve, certify and validate.  ``--files`` limits the comparison to the
named outputs (all six by default), e.g. to show that the solve outputs are
unchanged by a change that moves the certificate.  The exit code is 1 when
anything compared differs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, make_config  # noqa: E402

OUTPUTS = ("torus.json", "log.jsonl", "summary.json", "certificate.json", "ledger.csv",
           "validate.stdout")
# the backends read their caps when numpy loads; importing kamtorus applies
# KAMTORUS_THREADS first, but older trees load numpy before they read it, so
# all are set here
THREAD_VARS = ("KAMTORUS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def source_dir(tree: str) -> Path:
    path = Path(tree).resolve()
    for src in (path / "src", path):
        if (src / "kamtorus" / "__init__.py").is_file():
            return src
    raise SystemExit(f"{tree}: no kamtorus package in it or in its src/")


def run_commands(src: Path, config: Path, out: Path, threads: int) -> dict:
    """Exit codes and output digests of solve, certify and validate with the
    sources in ``src``; validate's stdout is kept in ``out``/validate.stdout."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               **{var: str(threads) for var in THREAD_VARS})
    codes = []
    for command in (["solve", "--config", str(config), "--out", str(out)],
                    ["certify", str(out / "torus.json"), "--out", str(out)],
                    ["validate", "--config", str(config)]):
        proc = subprocess.run([sys.executable, "-m", "kamtorus._entry", *command],
                              cwd=out.parent, env=env, capture_output=True, text=True)
        codes.append(str(proc.returncode))
    out.mkdir(parents=True, exist_ok=True)  # a refused config makes no output directory
    (out / "validate.stdout").write_text(proc.stdout)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               if (out / name).is_file() else "missing" for name in OUTPUTS}
    return {**digests, "exit codes": "/".join(codes)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_a")
    ap.add_argument("src_b")
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                    default=["ordinary-b32", "iso-b16", "certify-b16"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--config", nargs="+", default=[], help="config files to run instead")
    ap.add_argument("--files", nargs="+", choices=OUTPUTS, default=list(OUTPUTS),
                    help="the outputs to compare")
    args = ap.parse_args(argv)
    trees = {"A": source_dir(args.src_a), "B": source_dir(args.src_b)}
    if args.config:
        cases = [(Path(path).name, json.loads(Path(path).read_text())) for path in args.config]
    else:
        cases = [(f"{name}/seed{seed}", make_config(WORKLOADS[name], seed))
                 for name in args.workloads for seed in args.seeds]
    differs = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, cfg) in enumerate(cases):
            case = Path(tmp) / str(i)
            case.mkdir()
            config = case / "config.json"
            config.write_text(json.dumps(cfg))
            runs = {f"{side}{threads}": run_commands(src, config, case / f"{side}{threads}",
                                                     threads)
                    for side, src in trees.items() for threads in (1, 2)}
            for name in (*args.files, "exit codes"):
                values = {run: result[name] for run, result in runs.items()}
                first = values["A1"]
                if all(value == first for value in values.values()):
                    print(f"{label} {name} {first} same")
                else:
                    differs += 1
                    print(f"{label} {name} differs " +
                          " ".join(f"{run}={value}" for run, value in values.items()))
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())

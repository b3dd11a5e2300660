#!/usr/bin/env python3
"""Byte-identity check of two source trees on the outputs of solve + certify.

    python scripts/compare_outputs.py SRC_A SRC_B [--workloads W ...] [--seeds N ...]
    python scripts/compare_outputs.py SRC_A SRC_B --config FILE [FILE ...]

SRC_A and SRC_B are checkouts, or their ``src/`` directories.  Each config
(``perfbench/workloads.make_config`` for every workload and seed, or each
``--config`` file) is solved and then certified by ``kamtorus solve`` and
``kamtorus certify`` from each tree, each command in its own subprocess, once
with ``KAMTORUS_THREADS`` and the numerical backends' thread caps at 1 and once
at 2.  The runs work in a temporary directory and write no bytecode, so both
trees are only read.

One line per config and output file gives the SHA-256 written by SRC_A at one
thread, then ``same`` when all four runs wrote those bytes, or ``differs`` and
each run's digest; a last line per config does the same for the exit codes.
The exit code is 1 when anything differs.
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

OUTPUTS = ("torus.json", "log.jsonl", "summary.json", "certificate.json", "ledger.csv")
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


def solve_and_certify(src: Path, config: Path, out: Path, threads: int) -> dict:
    """Exit codes and output digests of solve then certify with the sources in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               **{var: str(threads) for var in THREAD_VARS})
    codes = []
    for command in (["solve", "--config", str(config)], ["certify", str(out / "torus.json")]):
        proc = subprocess.run([sys.executable, "-m", "kamtorus._entry", *command, "--out", str(out)],
                              cwd=out.parent, env=env, capture_output=True, text=True)
        codes.append(str(proc.returncode))
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
            runs = {f"{side}{threads}": solve_and_certify(src, config, case / f"{side}{threads}",
                                                          threads)
                    for side, src in trees.items() for threads in (1, 2)}
            for name in (*OUTPUTS, "exit codes"):
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

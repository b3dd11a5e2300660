#!/usr/bin/env python3
"""Peak traced memory and wall time of one in-process solve and certify.

    python scripts/peak_memory.py CONFIG.json [--out DIR]
    python scripts/peak_memory.py --workload ordinary-b32 [--seed 1] [--out DIR]

The config is a file or a perfbench workload (``perfbench/workloads.make_config``
of the name and seed).  ``cli.cmd_solve`` and then ``cli.cmd_certify`` of the
written ``torus.json`` run in this process under ``tracemalloc``, each with its
own peak, at one thread (the caps are set before numpy loads).  One JSON line
goes to stdout: per command its exit code, wall time in seconds and the peak in
MB of the memory that Python objects and numpy arrays allocated during it
(``tracemalloc`` slows the calls, so the times read high).  The commands' own
messages go to stderr.
"""

import os
import sys

for _var in ("KAMTORUS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def load_config(args) -> dict:
    if args.workload is None:
        return json.loads(Path(args.config).read_text())
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, make_config

    return make_config(WORKLOADS[args.workload], args.seed)


def measure(call) -> dict:
    """Exit code, wall time and tracemalloc peak (MB) of ``call()``."""
    tracemalloc.start()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        rc = call()
    seconds = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return {"rc": rc, "s": round(seconds, 3), "peak_mb": round(peak, 3)}


def run(config: dict, out: Path) -> dict:
    from kamtorus import cli

    cfg = cli.RunConfig.from_dict(config)
    solve = measure(lambda: cli.cmd_solve(cfg, out))
    certify = measure(lambda: cli.cmd_certify(str(out / "torus.json"), {}, out))
    return {"solve": solve, "certify": certify,
            "peak_mb": max(solve["peak_mb"], certify["peak_mb"])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("config", nargs="?", help="config file (JSON object)")
    ap.add_argument("--workload", help="a perfbench workload name instead of a config file")
    ap.add_argument("--seed", type=int, default=1, help="the workload's seed (default 1)")
    ap.add_argument("--out", help="output directory (default: a temporary one)")
    args = ap.parse_args(argv)
    if (args.config is None) == (args.workload is None):
        ap.error("give a config file or --workload, not both")
    config = load_config(args)
    with tempfile.TemporaryDirectory() as tmp:
        result = run(config, Path(args.out or tmp))
    label = args.config if args.workload is None else f"{args.workload}/{args.seed}"
    print(json.dumps({"config": label, **result}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

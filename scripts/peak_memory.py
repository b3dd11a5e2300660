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
(``tracemalloc`` slows the calls, so the times read high), and per phase
(``PHASES``) that ran in it: its call count, and the traced memory live at
entry and the peak inside, in MB, of its call with the highest peak.  The
commands' own messages go to stderr.
"""

import os
import sys

for _var in ("KAMTORUS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PHASES = {"frames": ("grid_kitchen", "normal_frame", "torsion", "_pointwise_inverse"),
          "fourier": ("matmul",),
          "cli": ("_json_dump", "_read_json")}  # the functions measured, by module


def load_config(args) -> dict:
    if args.workload is None:
        return json.loads(Path(args.config).read_text())
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, make_config

    return make_config(WORKLOADS[args.workload], args.seed)


class PhasePeaks:
    """The traced memory of the phases of one command at a time.

    Each phase entry and exit folds the traced peak so far into every open
    phase and into the command's peak, then resets it
    (``tracemalloc.reset_peak``): a phase nested in another one sees its own
    peak, and the command's peak is the peak of the whole command.  The
    wrappers' frames and records are traced too; they add a few kilobytes
    (up to 0.003 MB on ``iso-b16`` and ``ordinary-b32``) to the peaks that
    an unwrapped run reads.
    """

    def __init__(self):
        self.start()

    def start(self):
        """Forget the last command's phases and peak."""
        self.peak = 0  # the command's peak before the last reset, in bytes
        self.open = []  # [entry, peak] in bytes of each phase running, innermost last
        self.phases = {}  # name -> calls, and entry and peak of the call with the top peak

    def _fold(self):
        peak = tracemalloc.get_traced_memory()[1]
        self.peak = max(self.peak, peak)
        for frame in self.open:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()

    def command_peak(self) -> int:
        return max(self.peak, tracemalloc.get_traced_memory()[1])

    def wrap(self, name: str, fn):
        """``fn`` measured as the phase ``name``."""
        @functools.wraps(fn)
        def phase(*args, **kwargs):
            self._fold()
            entry = tracemalloc.get_traced_memory()[0]
            self.open.append([entry, entry])
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold()
                entry, peak = self.open.pop()
                top = self.phases.setdefault(name, {"calls": 0, "entry": 0, "peak": -1})
                top["calls"] += 1
                if peak > top["peak"]:
                    top.update(entry=entry, peak=peak)
        return phase

    def install(self):
        """Point every kamtorus module attribute that holds a function of
        ``PHASES`` at its measured wrapper."""
        import kamtorus.cli  # noqa: F401 -- loads every module that holds a phase

        holders = [m for key, m in sys.modules.items() if key.startswith("kamtorus.")]
        for module, names in PHASES.items():
            for name in names:
                original = getattr(sys.modules[f"kamtorus.{module}"], name)
                wrapped = self.wrap(name, original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapped)

    def report(self) -> dict:
        """Per phase that ran: its calls, and the entry and peak (MB) of its top call."""
        return {name: {"calls": top["calls"], "entry_mb": round(top["entry"] / 2**20, 3),
                       "peak_mb": round(top["peak"] / 2**20, 3)}
                for name, top in self.phases.items()}


def measure(call, peaks: PhasePeaks) -> dict:
    """Exit code, wall time and tracemalloc peak (MB) of ``call()``, and its phases."""
    peaks.start()
    tracemalloc.start()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        rc = call()
    seconds = time.perf_counter() - t0
    peak = peaks.command_peak() / 2**20
    tracemalloc.stop()
    return {"rc": rc, "s": round(seconds, 3), "peak_mb": round(peak, 3),
            "phases": peaks.report()}


def run(config: dict, out: Path) -> dict:
    from kamtorus import cli

    peaks = PhasePeaks()
    peaks.install()
    cfg = cli.RunConfig.from_dict(config)
    solve = measure(lambda: cli.cmd_solve(cfg, out), peaks)
    certify = measure(lambda: cli.cmd_certify(str(out / "torus.json"), {}, out), peaks)
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

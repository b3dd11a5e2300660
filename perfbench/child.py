"""One benchmark run subprocess: import kamtorus, load the config, solve, certify.

Usage: child.py CONFIG OUT_DIR RESULT_JSON [--setup-only] [--trace | --sample | --memory]

The thread caps are set before numpy is imported: calling ``cli.cmd_solve``
in-process bypasses the console entry point that would otherwise apply
``KAMTORUS_THREADS``.  The result file records the monotonic time at which
set-up finished (the parent knows the spawn time), the solve and certify wall
times, the exit codes of both commands, peak RSS of this process and, with
``--trace``, the per-layer spans.

It also times ``probe()``, a fixed kernel outside kamtorus, right after set-up,
after each of solve and certify, and (with ``--sample``) every
``PROBE_PERIOD_S`` during them, run from a timer signal.  The host's speed
drifts by up to 1.6x over seconds as its neighbours' load comes and goes; the
probes next to and inside a call measure that speed, and the parent scales the
call's time by them.  A call's time excludes the probes run inside it.

``--memory`` records, with ``tracemalloc``, the peak of the memory that Python
objects and numpy arrays allocated during solve and certify.  Peak RSS is
recorded too, but it moves by up to 15 % between identical runs, with the
layout of malloc's heap.
"""

import os
import sys
import time

THREAD_VARS = ("KAMTORUS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

PROBE_PERIOD_S = 0.2
probe_log = []  # duration of every probe() call in this process


def probe() -> float:
    """Wall time of a fixed kernel like kamtorus's work: small FFTs, 3x3 products, dicts."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((3, 3, 32, 32))
    for _ in range(20):
        f = np.fft.fft2(a)
        a = np.einsum("ijxy,jkxy->ikxy", a, np.fft.ifft2(f * f.conj()).real)
        a /= np.abs(a).max()
    d = {}
    for i in range(30000):
        d[i % 97] = d.get(i % 89, 0) + i
    probe_log.append(time.perf_counter() - t0)
    return probe_log[-1]


def timed(call, sample: bool):
    """Run ``call()``; return its result, its wall time less the probes run inside
    it, and the times of those probes (sampled every PROBE_PERIOD_S if ``sample``)."""
    inside = []  # (start, duration) of each probe run from the timer signal
    if sample:
        signal.signal(signal.SIGALRM, lambda *_: inside.append((time.perf_counter(), probe())))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    t0 = time.perf_counter()
    rc = call()
    t1 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    inside = [d for start, d in inside if start < t1]  # a later probe is not in t1 - t0
    return rc, t1 - t0 - sum(inside), inside


def main(argv) -> int:
    config, out_dir, result_path = argv[:3]
    flags = set(argv[3:])
    from kamtorus import cli

    cfg = cli.RunConfig.load(config, {})
    result = {"t_ready_ns": time.monotonic_ns()}
    probe()  # untimed: the first call also pays for first-touch page faults
    result["setup_probe_s"] = [probe()]
    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            from tracer import install

            tracer = install()
        out = Path(out_dir)
        if "--memory" in flags:
            tracemalloc.start()
        before = result["setup_probe_s"][0]
        for name, call in (("solve", lambda: cli.cmd_solve(cfg, out)),
                           ("certify", lambda: cli.cmd_certify(str(out / "torus.json"), {}, out))):
            rc, seconds, inside = timed(call, sample="--sample" in flags)
            after = probe()
            result.update({f"rc_{name}": rc, f"{name}_s": seconds,
                           f"{name}_probe_s": [before, *inside, after]})
            before = after
        if tracer is not None:
            result["trace"] = tracer.report()
        if tracemalloc.is_tracing():
            result["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
    result["probe_total_s"] = sum(probe_log)
    import numpy

    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        kamtorus_file=cli.__file__,
        threads={var: os.environ.get(var) for var in THREAD_VARS},
    )
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

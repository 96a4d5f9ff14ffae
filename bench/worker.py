"""One benchmark process: set up geomflow's CLI, then run a job list in-process.

Usage: python3 worker.py SPEC.json

SPEC holds ``jobs`` (a list of {"argv", "out"}), ``trace`` (bool) and
``result`` (a path). The worker times the set-up a ``geomflow`` command pays
on every run (importing the CLI and building its parser), then calls
``geomflow.cli.main`` for each job in turn, one after another on one thread,
and writes its timings, CPU time and peak memory to the result path, with the
time per call of a fixed reference computation run after the jobs. With
``trace`` it installs the tracer after set-up, adds the per-layer metrics and
skips the reference.
"""

from __future__ import annotations

import json
import math
import sys
import traceback
from time import perf_counter, process_time

_GRID = 256
# Reference calls after a job list take at least this share of its wall time,
# so that long passes get a proportionally long look at the host's speed.
REF_SHARE = 0.5


def peak_rss_mb() -> float:
    """Peak resident set of this process image. ``ru_maxrss`` is not used:
    on Linux it keeps the parent's resident set from before ``exec``."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reference_work() -> float:
    """Fixed work with the mix of geomflow's inner loops, independent of
    geomflow: a scalar loop of math calls, explicit RK4 steps on a
    six-element array, and spectral second derivatives on a 256-point grid.
    Timed right after the jobs, it measures how fast the host runs this
    process at the time, so that the jobs' time can be given as a multiple
    of it. One call takes about 0.13 s on a 2-vCPU Xeon VM."""
    import numpy as np  # here, so that the timed set-up still pays numpy's import

    s = 0.0
    for i in range(20000):
        s += math.exp(-1e-4 * (i % 1000)) * math.sin(i)

    def f(y):
        return np.roll(y, 1) * np.cos(y) - 0.1 * y
    y, h = np.linspace(0.1, 0.6, 6), 1e-3
    for _ in range(500):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    u = 2.0 + np.cos(np.linspace(0.0, 2.0 * math.pi, _GRID, endpoint=False))
    k_sq = np.fft.rfftfreq(_GRID, d=1.0 / _GRID) ** 2
    for _ in range(2000):
        u = u - 1e-5 * np.fft.irfft(k_sq * np.fft.rfft(u), _GRID)
    return s + float(y.sum()) + float(u.sum())


def timed_reference(min_wall_s: float) -> tuple[float, float]:
    """Wall and CPU seconds per call of ``reference_work``, over as many calls
    (at least one) as it takes to spend ``min_wall_s``."""
    calls, cpu0, t0 = 0, process_time(), perf_counter()
    while calls == 0 or perf_counter() - t0 < min_wall_s:
        reference_work()
        calls += 1
    return (perf_counter() - t0) / calls, (process_time() - cpu0) / calls


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = perf_counter()
    import geomflow.cli
    geomflow.cli.build_parser()
    setup_s = perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    job_s, errors = [], []
    cpu0, t0 = process_time(), perf_counter()
    for job in spec["jobs"]:
        start = perf_counter()
        try:
            rc = geomflow.cli.main(job["argv"] + ["--out", job["out"]])
            errors.append(None if rc == 0 else f"exit status {rc}")
        except (Exception, SystemExit):  # a failed job is counted; the next one still runs
            errors.append(traceback.format_exc(limit=3))
        job_s.append(perf_counter() - start)
    wall_s, cpu_s = perf_counter() - t0, process_time() - cpu0
    peak = peak_rss_mb()   # before the reference, which must not count in it
    ref_s, ref_cpu_s = (timed_reference(REF_SHARE * wall_s) if spec["jobs"] and tracer is None
                        else (0.0, 0.0))

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ref_s": ref_s,
        "ref_cpu_s": ref_cpu_s,
        "peak_rss_mb": peak,
        "job_s": job_s,
        "errors": errors,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])

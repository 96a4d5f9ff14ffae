"""Benchmark of geomflow's batch experiments, run through the real CLI.

Usage (from the repository root):

    python3 bench/run.py --workload {csf-collapse,torsion-mol,geo-scan} \\
        --seed N --seconds S --trace {0,1}

Every process this script starts is a fresh interpreter with geomflow's
sources from ``src`` on its path, ``GEOFLOW_THREADS`` unset and the BLAS and
OpenMP pools pinned to one thread. With ``--trace 0`` the job list is run in
a closed loop with one client, one fresh process per pass, for about
``--seconds`` (at least one pass). The end-to-end metrics are medians over
passes: the job list's wall and CPU time as multiples of a fixed reference
computation timed in the same process after it (``wall_ref``, ``cpu_ref``;
see ``worker.py``), peak memory, and set-up time in seconds, taken from
every pass and from a few processes that only import the CLI and build its
parser. With ``--trace 1`` the job list runs once untraced and once traced;
the traced outputs must be byte-identical to the untraced ones, and the
per-layer metrics come from the traced process. Outputs are checked outside
the timed region: the first pass's by ``checks.py``, every later pass's by
being byte-identical to it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the generated argv and the figures of each pass.
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
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import check_job
from workloads import JOB_KINDS, WORKLOADS, jobs_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5   # set-up-only processes before the first pass
TIME_LIMIT_S = 170.0   # every worker is stopped by then, so a run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def output_digest(out: Path) -> str:
    """Digest of a job's output files. Manifests enter without their wall
    time and with output paths reduced to file names."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith("_manifest.json"):
            manifest = json.loads(data)
            manifest.pop("wall_time_seconds", None)
            manifest["outputs"] = [Path(p).name for p in manifest.get("outputs", [])]
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _report(label: str, jobs, failures: list[str | None]) -> int:
    for job, why in zip(jobs, failures):
        if why:
            print(f"{label}: geomflow {' '.join(job.argv)}: {why}", file=sys.stderr)
    return sum(why is not None for why in failures)


class Bench:
    """One benchmark run: worker processes under a shared deadline, their
    outputs in a working directory inside the checkout."""

    def __init__(self, jobs, workdir: Path):
        self.jobs = jobs
        self.workdir = workdir
        self.deadline = perf_counter() + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("GEOFLOW_THREADS", None)
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def worker(self, tag: str, jobs, trace: bool = False) -> tuple[dict | None, list[Path]]:
        """Run ``jobs`` in one fresh process; returns its result (None if the
        process failed) and each job's output directory."""
        outs = [self.workdir / tag / f"{i:02d}" for i in range(len(jobs))]
        spec = {"jobs": [{"argv": list(j.argv), "out": str(o)} for j, o in zip(jobs, outs)],
                "trace": trace, "result": str(self.workdir / f"{tag}.result.json")}
        spec_path = self.workdir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            print(f"{tag}: stopped at the {TIME_LIMIT_S:.0f} s limit", file=sys.stderr)
            return None, outs
        if proc.returncode != 0:
            print(f"{tag}: worker failed\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None, outs
        return json.loads(Path(spec["result"]).read_text()), outs

    def failures(self, result: dict | None, outs: list[Path]) -> list[str | None]:
        """Per job: None if it ran and its outputs are correct, else why not."""
        if result is None:
            return ["worker failed"] * len(self.jobs)
        return [err or check_job(job, out)
                for job, err, out in zip(self.jobs, result["errors"], outs)]

    def measure(self, seconds: float):
        """Closed loop, one client: passes while at least half of another fits
        in ``seconds``. The first pass's outputs are checked; every later pass
        must write the same bytes. Set-up is sampled by a few processes that
        only set up, and by every pass."""
        start = perf_counter()
        setup = [r["setup_s"] for r in (self.worker(f"setup{k}", [])[0]
                                        for k in range(SETUP_PROBES)) if r is not None]
        passes, attempted, failed, first = [], 0, 0, None
        loop_start = perf_counter()
        while setup:
            tag = f"pass{len(passes)}"
            result, outs = self.worker(tag, self.jobs)
            attempted += len(self.jobs)
            if result is None or first is None:
                failures = self.failures(result, outs)
            else:
                failures = list(result["errors"])
            if result is not None:
                passes.append(result)
                setup.append(result["setup_s"])
                digests = [output_digest(o) for o in outs]
                first = first or digests
                failures = [why or (None if a == b else "output differs from the first pass")
                            for why, a, b in zip(failures, digests, first)]
            failed += _report(tag, self.jobs, failures)
            shutil.rmtree(self.workdir / tag, ignore_errors=True)
            now = perf_counter()
            if result is None or now - start + 0.5 * (now - loop_start) / len(passes) > seconds:
                break
        if not passes:
            return None, attempted, failed, {}
        med = lambda f: statistics.median(f(p) for p in passes)  # noqa: E731
        metrics = {
            "wall_ref": (med(lambda p: p["wall_s"] / p["ref_s"]), "ref"),
            "setup_s": (statistics.median(setup), "s"),
            "cpu_ref": (med(lambda p: p["cpu_s"] / p["ref_cpu_s"]), "ref"),
            "peak_rss_mb": (med(lambda p: p["peak_rss_mb"]), "MB"),
            "pass_frac": ((attempted - failed) / attempted, "frac"),
        }
        detail = {"wall_s": med(lambda p: p["wall_s"]), "cpu_s": med(lambda p: p["cpu_s"]),
                  "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "ref_s", "ref_cpu_s",
                                                "peak_rss_mb")} for p in passes]}
        return metrics, attempted, failed, detail

    def trace(self):
        """One untraced and one traced pass; per-layer metrics from the traced one."""
        plain, plain_outs = self.worker("plain", self.jobs)
        traced, traced_outs = self.worker("traced", self.jobs, trace=True)
        traced_failures = self.failures(traced, traced_outs)
        if plain is not None and traced is not None:
            traced_failures = [why or (None if output_digest(a) == output_digest(b)
                                       else "traced output differs from untraced")
                               for why, a, b in zip(traced_failures, plain_outs, traced_outs)]
        failed = (_report("untraced", self.jobs, self.failures(plain, plain_outs))
                  + _report("traced", self.jobs, traced_failures))
        if plain is None or traced is None:
            return None, 2 * len(self.jobs), failed, {}
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        for kind in JOB_KINDS:
            metrics[f"cli.{kind}_s"] = (sum(s for j, s in zip(self.jobs, plain["job_s"])
                                            if j.kind == kind), "s")
        metrics["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0, "frac")
        detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
        return metrics, 2 * len(self.jobs), failed, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "geomflow" / "cli.py").is_file():
        print(f"geomflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    jobs = jobs_for(args.workload, args.seed)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_out"))
    try:
        bench = Bench(jobs, workdir)
        if args.trace:
            metrics, attempted, failed, detail = bench.trace()
        else:
            metrics, attempted, failed, detail = bench.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is None:
        print("no benchmark process completed", file=sys.stderr)
        return 1

    print(json.dumps({"environment": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
        "argv": [["geomflow", *j.argv] for j in jobs], **detail,
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

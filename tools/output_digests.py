"""SHA-256 of every file that geomflow's commands write, as one JSON object.

Usage (from the repository root):

    python3 tools/output_digests.py [--keep DIR] > digests.json

Runs, in this process and one after another, with the BLAS and OpenMP pools
pinned to one thread (a BLAS product's last bits may depend on its thread
count; the trigonometric interpolant's mode sums no longer call BLAS):

- the 18 CLI commands at their defaults;
- ``torsion stationary --A 1e-9 --C 3 --n 64`` (the orbit integration that
  the defaults' closed form skips);
- the job lists of the three benchmark workloads at seeds 0-3, read from
  ``bench/workloads.py``.

The object maps ``<run>/<file>`` to the file's SHA-256. Manifests are hashed
without ``wall_time_seconds`` and with their output paths reduced to file
names, so that two runs of one tree print the same object. Two trees whose
objects differ wrote different bytes in the files named. ``--keep DIR``
leaves the outputs in DIR, one folder per run, for a closer comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, so its BLAS sees them
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from geomflow.cli import main as geomflow  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

DEFAULTS = ("csf run", "csf bowtie", "csf grimreaper",
            "torsion evolve", "torsion stationary", "torsion stability", "torsion transform",
            "torsion reconstruct", "geo period", "geo period-table", "geo flowline",
            "geo geodesic", "geo cylinder", "geo boundary", "geo boundingbox", "geo gcheck",
            "geo sphere", "geo curvature")
SEEDS = range(4)


def runs() -> list[tuple[str, list[str]]]:
    """(name, argv) of every run, in order."""
    out = [(command.replace(" ", "-"), command.split()) for command in DEFAULTS]
    out.append(("torsion-stationary-orbit",
                "torsion stationary --A 1e-9 --C 3 --n 64".split()))
    for workload in WORKLOADS:
        for seed in SEEDS:
            for i, job in enumerate(jobs_for(workload, seed)):
                out.append((f"{workload}/seed{seed}/{i:02d}", list(job.argv)))
    return out


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith("_manifest.json"):
        manifest = json.loads(data)
        manifest.pop("wall_time_seconds", None)
        manifest["outputs"] = [Path(p).name for p in manifest.get("outputs", [])]
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def digests(base: Path) -> dict[str, str]:
    table = {}
    for name, argv in runs():
        out = base / name
        with contextlib.redirect_stdout(io.StringIO()):
            status = geomflow(argv + ["--out", str(out)])
        if status != 0:
            raise SystemExit(f"geomflow {' '.join(argv)} exited with {status}")
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            table[f"{name}/{path.relative_to(out)}"] = file_digest(path)
    return table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--keep", type=Path, help="leave the outputs in this directory")
    args = ap.parse_args()
    if args.keep is not None:
        table = digests(args.keep)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            table = digests(Path(tmp))
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

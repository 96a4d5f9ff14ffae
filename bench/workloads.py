"""Seeded job lists for the three benchmark workloads.

Each list is a scaled-down copy of an acceptance configuration, small enough
that one pass over it takes a few seconds: a run of the benchmark then holds
many passes, and the median over them stays steady on a shared host where a
single long pass would carry the host's slow spells into the result whole.

Seed 0 gives the canonical lists (the CLI defaults wherever a parameter is
left out). Any other seed varies only the geometric parameters below, and
draws them so that the amount of work stays the same from seed to seed: a
benchmark whose cost moved with its seed could not tell a regression from
an unlucky draw.

- ``csf-collapse``: the seed picks ``--scale`` in [0.8, 1.25]. The step count
  does not depend on the scale; the frame stride ``--record-dt`` follows
  scale**2 so that the frame count (and the per-frame diagnostics) does not
  either. The run is then a similarity copy of the canonical one.
- ``torsion-mol``: the seed picks the helix perturbation ``--amplitude`` in
  [0.005, 0.02]; its effect on the step cap is about 2 %.
- ``geo-scan``: the seed picks ``--alpha`` in [0.25, 1] and takes ``--R`` on
  the line from (alpha, R) = (0.25, 5) to (1, 3). Along that line the RK
  evaluation count of the sphere stays within about 4 % of its mean, where
  independent draws would move it by a factor of 2.4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Spacing of recorded frames at scale 1: four times the ``csf bowtie`` default,
# so that at n = 128 (a quarter of the steps of n = 256) the run records about
# 270 frames instead of 480 and diagnostics keep a share close to the full run's.
_RECORD_DT = 3.2e-3


@dataclass(frozen=True)
class Job:
    """One CLI invocation. ``kind`` groups jobs for the ``cli.<kind>_s`` metric."""

    kind: str
    argv: tuple[str, ...]

    def flag(self, name: str, default: float) -> float:
        """Numeric value of ``--name`` in the argv, or the CLI default."""
        if name in self.argv:
            return float(self.argv[self.argv.index(name) + 1])
        return default


def _num(x: float) -> str:
    return f"{x:.6g}"


def _csf_collapse(rng: random.Random | None) -> list[Job]:
    argv = ("csf", "bowtie", "--n", "128")
    scale = 1.0 if rng is None else float(_num(rng.uniform(0.8, 1.25)))
    if rng is not None:
        argv += ("--scale", repr(scale))
    argv += ("--record-dt", repr(_RECORD_DT * scale * scale))
    return [Job("csf.bowtie", argv)]


def _torsion_mol(rng: random.Random | None) -> list[Job]:
    stability = ("torsion", "stability", "--T", "1")
    if rng is not None:
        stability += ("--amplitude", _num(rng.uniform(0.005, 0.02)))
    return [
        Job("torsion.evolve.n128", ("torsion", "evolve", "--initial", "sin-cos", "--n", "128",
                                    "--T", "0.17", "--frames", "17")),
        Job("torsion.evolve.n256", ("torsion", "evolve", "--initial", "sin-half", "--n", "256",
                                    "--T", "0.025", "--frames", "5")),
        Job("torsion.stability", stability),
    ]


def _geo_scan(rng: random.Random | None) -> list[Job]:
    sphere = ("geo", "sphere", "--n-dirs", "100")
    if rng is not None:
        u = rng.random()
        sphere += ("--alpha", _num(0.25 + 0.75 * u), "--R", _num(5.0 - 2.0 * u))
    jobs = [Job("geo.sphere", sphere),
            Job("geo.boundary", ("geo", "boundary"))]
    for alpha in ("0.25", "0.75", "1.0"):
        jobs.append(Job("geo.boundary", ("geo", "boundary", "--alpha", alpha, "--x0-min", "0.75",
                                         "--x0-max", "0.96")))
    for k in range(2, 11, 2):
        jobs.append(Job("geo.boundingbox", ("geo", "boundingbox", "--alpha", f"{0.1 * k:.1f}")))
    jobs.append(Job("geo.period-table", ("geo", "period-table")))
    jobs.append(Job("geo.gcheck", ("geo", "gcheck")))
    return jobs


_JOB_LISTS = {"csf-collapse": _csf_collapse, "torsion-mol": _torsion_mol, "geo-scan": _geo_scan}
WORKLOADS = tuple(_JOB_LISTS)


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The job list of ``workload`` for ``seed``; seed 0 is the canonical list."""
    return _JOB_LISTS[workload](None if seed == 0 else random.Random(seed))


JOB_KINDS = tuple(dict.fromkeys(job.kind for w in WORKLOADS for job in jobs_for(w, 0)))

"""Correctness checks on the files each job wrote.

Every check reads only the job's output directory and its argv; none of them
imports geomflow. Tolerances are the acceptance suite's (criteria 1, 6, 7,
10, 13 and 16) and are never loosened here. Two checks add scipy's DOP853 as
an independent oracle: sphere endpoints, and the first frame of a torsion
evolution. The criterion-19 verdicts on the extra boundary curves are
conjectures, so those jobs are checked for shape and finiteness only. Each
check returns None when the output is correct and a one-line reason
otherwise.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from workloads import Job

# Criterion 1: periods at beta = 0.999 from the source paper's table.
REFERENCE_PERIOD_TABLE = {
    0.1: 14.0792, 0.2: 9.94735, 0.3: 8.11985, 0.4: 7.03114, 0.5: 6.28842,
    0.6: 5.7403, 0.7: 5.31436, 0.8: 4.97106, 0.9: 4.68673, 1.0: 4.44622,
}


def _columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def _floats(col: list[str]) -> np.ndarray:
    return np.array([float(v) for v in col])


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    return np.arange(lo, hi + 1e-12, step)


def check_csf_bowtie(job: Job, out: Path) -> str | None:
    d = _columns(out / "diagnostics.csv")
    t, area, length = _floats(d["time"]), _floats(d["total_area"]), _floats(d["length"])
    if not np.all(np.diff(length) < 0.0):
        return "length is not strictly decreasing"
    # Criterion 16: area slopes on frames where time advanced, interior only.
    keep = np.concatenate([[True], np.diff(t) > 1e-12])
    slopes = np.gradient(area[keep], t[keep])[2:-2]
    lo, hi = -4.0 * math.pi * 1.02, -2.0 * math.pi * 0.98
    if slopes.size == 0:
        return "too few frames for area slopes"
    if not np.all((slopes >= lo) & (slopes <= hi)):
        return f"area slopes leave [{lo:.4f}, {hi:.4f}]: [{slopes.min():.4f}, {slopes.max():.4f}]"
    bow = _columns(out / "bowtie.csv")
    if not bow["t"] or not np.all(np.isfinite(_floats(bow["bowtie_distance"]))):
        return "bowtie.csv is empty or not finite"
    return None


def _torsion_field(n: int):
    """tau_t = D(u - tau^(3/2) + D^2 u) with u = tau^(-1/2): unit curvature,
    Fourier derivatives on [0, 2 pi), odd derivatives drop the Nyquist mode."""
    k = np.fft.rfftfreq(n, d=1.0 / n)
    d1 = 1j * np.where(k == n // 2, 0.0, k)

    def field(t, tau):
        # Overlong trial steps can make tau negative; the step control rejects them.
        with np.errstate(invalid="ignore"):
            u = tau ** -0.5
            flux = u - tau ** 1.5 + np.fft.irfft(-(k * k) * np.fft.rfft(u), n)
        return np.fft.irfft(d1 * np.fft.rfft(flux), n)
    return field


def check_torsion_evolve(job: Job, out: Path) -> str | None:
    d = _columns(out / "torsion.csv")
    n, frames = int(job.flag("--n", 128)), int(job.flag("--frames", 100))
    tau = _floats(d["tau"])
    if tau.size != n * (frames + 1):
        return f"expected {frames + 1} frames of {n} samples, got {tau.size} values"
    tau = tau.reshape(frames + 1, n)
    if not np.all(tau > 0.0):
        return "torsion lost positivity"
    # Criterion 10: relative drift of the integrals of sqrt(tau) and tau.
    h = 2.0 * math.pi / n
    inv = np.column_stack([h * np.sum(np.sqrt(tau), axis=1), h * np.sum(tau, axis=1)])
    drift = float(np.max(np.abs(inv - inv[0]) / inv[0]))
    if not drift < 1e-5:
        return f"integral drift {drift:.2e} >= 1e-5"
    # The invariants hold for any flux-form right-hand side, so the first
    # frame is also checked against scipy's DOP853 on the equation itself
    # (the two integrations agree to about 1e-11 at seed 0).
    sol = solve_ivp(_torsion_field(n), (0.0, float(d["t"][n])), tau[0], method="DOP853",
                    rtol=1e-12, atol=1e-12)
    err = float(np.max(np.abs(sol.y[:, -1] - tau[1])))
    if not err < 1e-8:
        return f"first frame differs from DOP853 by {err:.2e} >= 1e-8"
    return None


def check_torsion_stability(job: Job, out: Path) -> str | None:
    d = _columns(out / "stability.csv")
    S = _floats(d["S"])
    amplitude = job.flag("--amplitude", 0.01)
    # Criterion 13: S(0) = amplitude * sqrt(pi) to 1e-6, and peak <= 2 S(0).
    if not abs(S[0] - amplitude * math.sqrt(math.pi)) < 1e-6:
        return f"S(0) = {S[0]:.8f}, expected {amplitude * math.sqrt(math.pi):.8f}"
    if not float(np.max(S)) <= 2.0 * S[0]:
        return f"peak/initial = {np.max(S) / S[0]:.3f} > 2"
    return None


def _geodesic_field(alpha: float):
    def field(t, u):
        vx, vy, vz, _, _, z = u
        return [vx * vz, -alpha * vy * vz, alpha * vy * vy - vx * vx,
                vx * math.exp(z), vy * math.exp(-alpha * z), vz]
    return field


def check_geo_sphere(job: Job, out: Path) -> str | None:
    d = _columns(out / "sphere.csv")
    alpha, R = job.flag("--alpha", 1.0), job.flag("--R", 5.0)
    dirs = np.column_stack([_floats(d[k]) for k in ("dir_x", "dir_y", "dir_z")])
    ends = np.column_stack([_floats(d[k]) for k in ("end_x", "end_y", "end_z")])
    if dirs.shape[0] != int(job.flag("--n-dirs", 200)):
        return f"{dirs.shape[0]} directions written"
    field = _geodesic_field(alpha)
    worst = 0.0
    for j in range(0, dirs.shape[0], 20):
        sol = solve_ivp(field, (0.0, R), np.concatenate([dirs[j], np.zeros(3)]),
                        method="DOP853", rtol=1e-12, atol=1e-12)
        worst = max(worst, float(np.max(np.abs(sol.y[3:, -1] - ends[j]))))
    if not worst < 1e-6:
        return f"endpoints differ from DOP853 by {worst:.2e} >= 1e-6"
    return None


def check_geo_boundary(job: Job, out: Path) -> str | None:
    d = _columns(out / "boundary.csv")
    alpha = job.flag("--alpha", 0.5)
    grid = _grid(job.flag("--x0-min", 0.60), job.flag("--x0-max", 0.98), job.flag("--step", 0.02))
    a, b = _floats(d["a"]), _floats(d["b"])
    if a.size != grid.size or not np.all(np.isfinite(a) & np.isfinite(b)):
        return f"expected {grid.size} finite endpoints, got {a.size}"
    # Criterion 7 gates alpha = 1/2 only; other alphas are criterion 19's
    # conjectures, reported but never asserted.
    if alpha == 0.5 and not (np.all(np.diff(a) > 0.0) and np.all(np.diff(b) <= 1e-9)):
        return "boundary curve at alpha=1/2 is not a-increasing and b-nonincreasing"
    return None


def check_geo_boundingbox(job: Job, out: Path) -> str | None:
    d = _columns(out / "boundingbox.csv")
    admissible = [v == "True" for v in d["admissible"]]
    if not any(admissible):
        return "no admissible grid point"
    passed = [p == "True" for p, ok in zip(d["passed"], admissible) if ok]
    residual = [float(r) for r, ok in zip(d["b_integral_residual"], admissible) if ok]
    # Criterion 6: every admissible row passes, b-integral residual below 1e-7.
    if not all(passed):
        return f"{passed.count(False)} admissible rows fail"
    if not max(residual) < 1e-7:
        return f"b-integral residual {max(residual):.2e} >= 1e-7"
    return None


def check_geo_period_table(job: Job, out: Path) -> str | None:
    d = _columns(out / "period_table.csv")
    got = dict(zip(_floats(d["alpha"]), _floats(d["P"])))
    if sorted(got) != sorted(REFERENCE_PERIOD_TABLE):
        return f"alpha rows {sorted(got)}"
    worst = max(abs(got[a] - p) for a, p in REFERENCE_PERIOD_TABLE.items())
    if not worst < 5e-3:
        return f"period table deviates by {worst:.2e} >= 5e-3"
    return None


def check_geo_gcheck(job: Job, out: Path) -> str | None:
    d = _columns(out / "gcheck.csv")
    # Criterion 7: every point conclusive with G < 0 and dP/dx0 > 0.
    if not all(v == "True" for v in d["conclusive"]):
        return "inconclusive G points"
    if not (np.all(_floats(d["G"]) < 0.0) and np.all(_floats(d["dP_dx0"]) > 0.0)):
        return "G < 0 or dP/dx0 > 0 fails"
    return None


_CHECKS = {
    ("csf", "bowtie"): check_csf_bowtie,
    ("torsion", "evolve"): check_torsion_evolve,
    ("torsion", "stability"): check_torsion_stability,
    ("geo", "sphere"): check_geo_sphere,
    ("geo", "boundary"): check_geo_boundary,
    ("geo", "boundingbox"): check_geo_boundingbox,
    ("geo", "period-table"): check_geo_period_table,
    ("geo", "gcheck"): check_geo_gcheck,
}


def check_job(job: Job, out: Path) -> str | None:
    """None if the job's outputs in ``out`` are correct, else the reason."""
    try:
        return _CHECKS[job.argv[:2]](job, out)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc!r}"

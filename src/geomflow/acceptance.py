"""The acceptance suite: every exit criterion of the build, each as one check.

Each criterion function returns a CheckResult with status PASS/FAIL (gating)
or MEASURED (conjectured-limit rows are reported, never asserted). Heavy
shared computations (the figure-eight collapse run, the long torsion
evolutions) are cached at module level so the CLI ``verify`` command and the
pytest suite can share them within a process.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .csf import (StopRule, affine_rescale_and_bowtie, axis_shrink_products,
                  csf_evolve, grim_reaper_check, make_concinnous_eight, PlaneCurve,
                  resolvable_frames, theta_monotonicity_series)
from .geoflow import (bounding_box_scan, boundary_curve, cylinder_invariant,
                      curvature_data, flow_tangent, g_function_check, geodesic,
                      period_closed_form, period_numeric,
                      scalar_curvature, symmetric_system, v_beta,
                      variational_residuals, variational_system)
from .geoflow.perfect import perfect_vector_checks
from .numerics.ode import IMAGINARY_AXIS_REACH, StepControl, integrate_ode
from .numerics.periodic import irfft, periodic_grid, rfft
from .torsionflow import (TorsionField, UNIT_CURVATURE, helix_stability, l2_norm,
                          quasi_period, torsion_evolve, torsion_invariants, torsion_rhs)
from .torsionflow.linear import linearized_solution
from .torsionflow.stationary import tau_one
from .torsionflow.transform import cdf_transform_roundtrip

REFERENCE_PERIOD_TABLE = {
    0.1: 14.0792, 0.2: 9.94735, 0.3: 8.11985, 0.4: 7.03114, 0.5: 6.28842,
    0.6: 5.7403, 0.7: 5.31436, 0.8: 4.97106, 0.9: 4.68673, 1.0: 4.44622,
}


@dataclass
class CheckResult:
    cid: int
    label: str
    status: str       # PASS | FAIL | MEASURED
    gating: bool
    details: str
    seconds: float = 0.0   # wall time of the check, set by ``run_suite``


def _verdict(cid, label, passed, details, gating=True) -> CheckResult:
    return CheckResult(cid, label, "PASS" if passed else "FAIL", gating, details)


# ---------------------------------------------------------------- shared runs

@lru_cache(maxsize=None)
def _eight_run():
    eight = make_concinnous_eight(1.0, n_points=512)
    return csf_evolve(eight, StopRule(kmax_spacing=0.5), record_dt=8e-4)


@lru_cache(maxsize=None)
def _circle_run():
    th = (np.arange(384) + 0.5) * 2.0 * math.pi / 384
    circle = PlaneCurve(np.column_stack([np.cos(th), np.sin(th)]))
    return csf_evolve(circle, StopRule(time=0.4, kmax_spacing=None), record_dt=0.01)


@lru_cache(maxsize=None)
def _torsion_conservation_run():
    s = periodic_grid(256)
    tau0 = TorsionField(10.0 + np.sin(s) / 2.0)
    fields = torsion_evolve(tau0, UNIT_CURVATURE, 5.0, output_times=[1.0, 2.5, 5.0])
    return tau0, fields


@lru_cache(maxsize=None)
def _quasi_run(kind: str):
    s = periodic_grid(128)
    data = 10.0 + np.sin(s) / 2.0 if kind == "half" else 10.0 + np.sin(s) + np.cos(s)
    tau0 = TorsionField(data)
    times = np.linspace(0.0, 1.7, 171)
    fields = torsion_evolve(tau0, UNIT_CURVATURE, 1.7, output_times=times)
    return tau0, quasi_period(times, fields.samples)


@lru_cache(maxsize=None)
def _helix_run():
    return helix_stability(amplitude=0.01, T=50.0)


# ------------------------------------------------------------------ criteria

def check_01_period_table() -> CheckResult:
    worst = 0.0
    for alpha, expected in REFERENCE_PERIOD_TABLE.items():
        got = period_numeric(alpha, 0.999).period
        worst = max(worst, abs(got - expected))
    return _verdict(1, "period table at beta=0.999 (10 rows, 5e-3)",
                    worst < 5e-3, f"worst abs deviation {worst:.2e}")


def check_02_closed_form_cross_check() -> CheckResult:
    worst = 0.0
    for alpha in (1.0, 0.5):
        for beta in np.arange(0.1, 0.95, 0.1):
            num = period_numeric(alpha, float(beta)).period
            closed = period_closed_form(alpha, float(beta)).period
            worst = max(worst, abs(num - closed))
    return _verdict(2, "period numeric vs closed form (1e-6)",
                    worst < 1e-6, f"worst abs difference {worst:.2e}")


def check_03_period_limits() -> CheckResult:
    p1 = period_closed_form(1.0, 0.9999).period
    p2 = period_closed_form(0.5, 0.9999).period
    d1 = abs(p1 - math.pi * math.sqrt(2.0))
    d2 = abs(p2 - 2.0 * math.pi)
    return _verdict(3, "period limits toward beta=1 (1e-2)",
                    d1 < 1e-2 and d2 < 1e-2,
                    f"|P(1)-pi*sqrt2|={d1:.2e}, |P(1/2)-2pi|={d2:.2e}")


def check_04_conservation() -> CheckResult:
    v0 = np.array([0.55, 0.6, math.sqrt(1.0 - 0.55**2 - 0.6**2)])
    fl = flow_tangent(v0, 0.5, 50.0)
    h_drift = fl.level_drift
    path = geodesic(v_beta(0.5, 0.5), 0.5, 10.0, n_samples=2001)
    _, q_drift = cylinder_invariant(path, 0.5)
    speed = path.speed_drift
    ok = h_drift < 1e-8 and q_drift < 1e-6 and speed < 1e-6
    return _verdict(4, "conservation: level H, cylinder, metric speed",
                    ok, f"H drift {h_drift:.2e}, cylinder drift {q_drift:.2e}, "
                        f"speed drift {speed:.2e}")


def check_05_variational_identities() -> CheckResult:
    worst = 0.0
    skipped = []
    for alpha in (0.25, 0.5, 0.75, 1.0):
        for x0 in (0.7, 0.8, 0.9):
            if x0 <= math.sqrt(alpha / (1.0 + alpha)) + 1e-9:
                skipped.append((alpha, x0))
                continue
            res = variational_residuals(variational_system(x0, alpha))
            worst = max(worst, *res.values())
    note = f"worst residual {worst:.2e}"
    if skipped:
        note += f"; skipped {len(skipped)} inadmissible combos {skipped}"
    return _verdict(5, "variational identities along trajectories (1e-8)",
                    worst < 1e-8, note)


def check_06_bounding_box() -> CheckResult:
    worst = math.inf
    n_skip = 0
    n_run = 0
    eq29_worst = 0.0
    for alpha in np.arange(0.1, 1.05, 0.1):
        recs, _ = bounding_box_scan(round(float(alpha), 10), np.arange(0.60, 0.951, 0.05))
        for r in recs:
            if not r.admissible:
                n_skip += 1
                continue
            n_run += 1
            worst = min(worst, r.min_a_prime, r.min_b_prime)
            eq29_worst = max(eq29_worst, r.b_integral_residual)
    ok = worst > -1e-10 and eq29_worst < 1e-7
    return _verdict(6, "bounding box scan: min a', b' over the grid",
                    ok, f"{n_run} runs ({n_skip} inadmissible skipped), "
                        f"min derivative {worst:.3e}, b-integral residual {eq29_worst:.2e}")


def check_07_monotonicity_half() -> CheckResult:
    bc = boundary_curve(0.5, np.arange(0.60, 0.981, 0.02))
    b_end = symmetric_system(0.999, 0.5).end_state[4]
    pts = g_function_check(np.linspace(0.59, 0.995, 28))
    g_ok = all(p.conclusive and p.g_value < 0 for p in pts)
    dp_ok = all(p.dP_dx0 > 0 for p in pts)
    ok = (bc.a_increasing and bc.b_nonincreasing
          and abs(b_end - 4.0) < 0.05 and g_ok and dp_ok)
    return _verdict(7, "monotonicity at alpha=1/2 (boundary curve, G < 0)",
                    ok, f"a_incr={bc.a_increasing}, b_noninc={bc.b_nonincreasing}, "
                        f"b(rho)@0.999={b_end:.4f}, G<0 all={g_ok}, dP/dx0>0 all={dp_ok}")


def check_08_perfect_vectors() -> CheckResult:
    worst = {"partner": 0.0, "z": 0.0, "collinearity": 0.0, "holonomy": 0.0}
    for alpha in (0.5, 1.0):
        for beta in (0.5, 0.8):
            rep = perfect_vector_checks(alpha, beta)
            worst["partner"] = max(worst["partner"], rep.partner_mismatch)
            worst["z"] = max(worst["z"], rep.endpoint_z)
            worst["collinearity"] = max(worst["collinearity"], rep.collinearity_defect)
            worst["holonomy"] = max(worst["holonomy"], rep.holonomy_mismatch)
    ok = (worst["partner"] < 1e-5 and worst["z"] < 1e-6
          and worst["collinearity"] < 1e-5 and worst["holonomy"] < 1e-6)
    return _verdict(8, "perfect vectors: partners, planarity, reciprocity, holonomy",
                    ok, ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def check_09_curvature_data() -> CheckResult:
    spot = (scalar_curvature(0.5) == -1.5 and scalar_curvature(-1.0) == -6.0)
    sym = all(abs(scalar_curvature(a) - scalar_curvature(1.0 - a)) < 1e-15
              for a in (0.0, 0.25, 0.5, 0.75, 1.0))
    alpha = 0.37
    data = curvature_data(alpha)
    table_ok = (
        data.plane_curvatures["XY"] == {"sectional": alpha, "intrinsic": 0.0,
                                        "extrinsic": -alpha, "mean": (1 - alpha) / 2}
        and data.plane_curvatures["XZ"] == {"sectional": -1.0, "intrinsic": -1.0,
                                            "extrinsic": 0.0, "mean": 0.0}
        and data.plane_curvatures["YZ"] == {"sectional": -alpha**2, "intrinsic": -alpha**2,
                                            "extrinsic": 0.0, "mean": 0.0}
        and data.structure_field_defect < 1e-13
    )
    return _verdict(9, "curvature data: scalar spots, symmetry, plane table",
                    spot and sym and table_ok,
                    f"spots={spot}, symmetry={sym}, table+structure={table_ok}")


def check_10_torsion_invariants() -> CheckResult:
    tau0, fields = _torsion_conservation_run()
    i0 = torsion_invariants(tau0)
    worst = 0.0
    for f in fields:
        i1 = torsion_invariants(f)
        worst = max(worst, abs(i1[0] - i0[0]) / i0[0], abs(i1[1] - i0[1]) / i0[1])
    return _verdict(10, "torsion integrals of motion over T=5, N=256 (1e-5)",
                    worst < 1e-5, f"worst relative drift {worst:.2e}")


def check_11_stationary() -> CheckResult:
    sup = float(np.max(np.abs(torsion_rhs(tau_one(256)))))
    t1 = tau_one(64)
    evolved = torsion_evolve(t1, UNIT_CURVATURE, 1.0, output_times=[1.0])[0]
    drift = float(np.max(np.abs(evolved.samples - t1.samples)))
    return _verdict(11, "stationary profile: rhs residual and evolved drift",
                    sup < 1e-6 and drift < 1e-3,
                    f"rhs sup {sup:.2e} (N=256), drift at T=1 {drift:.2e} (N=64)")


def linear_mode1_period(tau_mean: float) -> float:
    """Recurrence period of a small mode-1 wave on constant torsion ``tau_mean``.

    Linearizing the unit-curvature flow about tau = tau_mean + w gives
    w_t = -D_s((tau_mean^{-3/2} / 2 + 3 sqrt(tau_mean) / 2) w + tau_mean^{-3/2} / 2 D_s^2 w),
    so the mode exp(i(k s - omega t)) has
    omega_k = (3/2) sqrt(tau_mean) k + tau_mean^{-3/2} (k - k^3) / 2.
    The dispersive part vanishes at k = 1: omega_1 = (3/2) sqrt(tau_mean) and
    the profile returns after 2 pi / omega_1.
    """
    return 2.0 * math.pi / (1.5 * math.sqrt(tau_mean))


def check_12_quasi_periods() -> CheckResult:
    """First recurrence t* of two mode-1 profiles, each within 0.05 of its target.

    10 + sin(s) + cos(s) = 10 + sqrt(2) sin(s + pi/4) is a translate of a
    mode-1 profile on mean torsion 10, like 10 + sin(s)/2, so its reference
    is the linear period ``linear_mode1_period`` of its own mean (1.3246);
    the amplitude shifts t* by about 1e-3 at this size.
    """
    _, res_half = _quasi_run("half")
    tau0_sc, res_sc = _quasi_run("sincos")
    tau_mean = float(np.mean(tau0_sc.samples))
    ref_sc = linear_mode1_period(tau_mean)
    d1 = abs(res_half.t_star - 1.32)
    d2 = abs(res_sc.t_star - ref_sc)
    return _verdict(12, "quasi-periods of the travelling profiles",
                    d1 <= 0.05 and d2 <= 0.05,
                    f"t*(10+sin/2)={res_half.t_star:.4f} (target 1.32), "
                    f"t*(10+sin+cos)={res_sc.t_star:.4f} (target {ref_sc:.4f}, "
                    f"linear period at mean torsion {tau_mean:.4f})")


def check_13_helix_stability() -> CheckResult:
    ser = _helix_run()
    ok = abs(ser.initial - 0.0177245) < 1e-6 and ser.peak <= 2.0 * ser.initial
    return _verdict(13, "helix perturbation: S(0) value and peak bound over T=50",
                    ok, f"S(0)={ser.initial:.8f}, peak/initial={ser.peak / ser.initial:.3f}")


def check_14_linearized() -> CheckResult:
    rng = np.random.default_rng(2024)
    w0 = rng.standard_normal(128)
    norm_drift = max(abs(l2_norm(linearized_solution(w0, t)) - l2_norm(w0))
                     for t in (0.5, 3.0, 20.0))
    n = 128
    s = periodic_grid(n)
    w0s = np.sin(s) + 0.3 * np.cos(2 * s)
    ik = 1j * np.fft.rfftfreq(n, d=1.0 / n)
    mult = -2.0 * ik - 0.5 * ik ** 3   # -2 D - D^3 / 2, Nyquist mode frozen
    mult[-1] = 0.0

    def rhs(t, w):
        return irfft(mult * rfft(w), n)

    cap = IMAGINARY_AXIS_REACH / (0.5 * (n // 2) ** 3 + 2.0 * (n // 2))
    ctrl = StepControl(initial_step=cap, abs_tol=1e-11, rel_tol=1e-11,
                       max_steps=20_000_000, max_step=cap)
    traj = integrate_ode(rhs, w0s, (0.0, 1.0), ctrl, output_times=[1.0])
    mol_diff = float(np.max(np.abs(traj.y_end - linearized_solution(w0s, 1.0))))
    return _verdict(14, "linearized flow: unitary norm and MOL agreement",
                    norm_drift < 1e-12 and mol_diff < 1e-6,
                    f"norm drift {norm_drift:.2e}, MOL diff at t=1 {mol_diff:.2e}")


def check_15_transform_chain() -> CheckResult:
    s = periodic_grid(512)
    cases = {
        "unit": TorsionField(np.ones(512)),
        "tau1": tau_one(512),
        "sine": TorsionField(10.0 + np.sin(s) / 2.0),
    }
    worst_err = 0.0
    worst_per = 0.0
    for tau0 in cases.values():
        rec, err = cdf_transform_roundtrip(tau0)
        worst_err = max(worst_err, err)
        worst_per = max(worst_per, rec.u_periodicity_defect)
    return _verdict(15, "transform chain round trip at N=512 (1e-8)",
                    worst_err < 1e-8 and worst_per < 1e-8,
                    f"worst roundtrip {worst_err:.2e}, worst u-periodicity {worst_per:.2e}")


def check_16_csf_sanity() -> CheckResult:
    run_c = _circle_run()
    circle_worst = 0.0
    for t, d in zip(run_c.times, run_c.diagnostics):
        exact = math.pi * (1.0 - 2.0 * t)
        circle_worst = max(circle_worst, abs(d.total_area - exact) / exact)

    run8 = _eight_run()
    t_arr = np.array(run8.times)
    A = run8.series("total_area")
    alpha_s = run8.series("alpha_angle")
    # near extinction the time label freezes; slopes only make sense on
    # frames where time genuinely advanced
    keep = np.concatenate([[True], np.diff(t_arr) > 1e-12])
    t2, A2, al2 = t_arr[keep], A[keep], alpha_s[keep]
    dA = np.gradient(A2, t2)
    interior = slice(2, -2)
    lo, hi = -4.0 * math.pi * 1.02, -2.0 * math.pi * 0.98
    in_band = bool(np.all((dA[interior] >= lo) & (dA[interior] <= hi)))
    dAq = np.gradient(A2 / 4.0, t2)
    predq = -(al2 + math.pi / 2.0)
    quarter_worst = float(np.max(np.abs(dAq[interior] - predq[interior])
                                 / np.abs(predq[interior])))
    ok = circle_worst < 0.01 and in_band and quarter_worst < 0.02
    return _verdict(16, "csf sanity: circle area law, eight area slopes",
                    ok, f"circle worst {circle_worst:.2e}, dA band ok {in_band}, "
                        f"quarter slope worst {quarter_worst:.2e}")


def check_17_csf_monotonicity() -> CheckResult:
    run8 = _eight_run()
    series = theta_monotonicity_series(run8.times, run8.diagnostics)
    L = run8.series("length")
    length_dec = bool(np.all(np.diff(L) < 0.0))
    iso = run8.series("isoperimetric")
    iso_tail = iso[len(iso) * 2 // 3:]
    iso_nondec = bool(np.all(np.diff(iso_tail) >= -1e-8 * iso_tail[:-1]))
    ok = series.verdict and length_dec and iso_nondec
    return _verdict(17, "csf monotonicity: theta extremes, length, isoperimetric",
                    ok,
                    f"theta_max noninc {series.max_nonincreasing}, "
                    f"theta_min nondec {series.min_nondecreasing}, length dec {length_dec}, "
                    f"iso ratio nondec (final third) {iso_nondec}")


def _falls(series) -> bool:
    """Negative least-squares slope against the index, and the last value below the first."""
    series = np.asarray(series, dtype=float)
    slope = float(np.polyfit(np.arange(series.size), series, 1)[0])
    return slope < 0.0 and series[-1] < series[0]


def check_18_bowtie_trends() -> CheckResult:
    """Trends towards the bow-tie limit over the last third of the resolvable frames.

    The bow-tie is a limit, not a shape the flow takes at a given length, so
    every clause is a trend: x*/x_max nondecreasing (to 1e-9) and ending above
    where it starts, the distance to the bow-tie and the grim-reaper profile
    error falling, and the axis shrink products within 15 % of pi/2.
    """
    run8 = _eight_run()
    idxs = resolvable_frames(run8)
    tail = idxs[len(idxs) * 2 // 3:]
    records = [affine_rescale_and_bowtie(run8.frames[k], run8.diagnostics[k]) for k in tail]
    ratios = np.array([rec.ratio_xstar for rec in records])
    ratio_trend = bool(np.all(np.diff(ratios) > -1e-9)) and ratios[-1] > ratios[0]
    dists = np.array([rec.bowtie_distance for rec in records])
    tie_trend = _falls(dists)

    gr = grim_reaper_check(run8, tail[::max(1, len(tail) // 40)])
    err_trend = _falls(gr.errors)

    tm, px, py = axis_shrink_products(run8)
    k_last = min(tail[-1], len(tm) - 2)
    target = math.pi / 2.0
    p_ok = (abs(px[k_last] - target) / target < 0.15
            and abs(py[k_last] - target) / target < 0.15)
    ok = ratio_trend and tie_trend and err_trend and p_ok
    length = run8.series("length")
    return _verdict(18, "bowtie trends near the singularity stop",
                    ok, f"x*/x_max tail {ratios[0]:.3f}->{ratios[-1]:.3f}, "
                        f"bow-tie distance {dists[0]:.3f}->{dists[-1]:.3f}, "
                        f"profile err {gr.errors[0]:.3f}->{gr.errors[-1]:.3f}, "
                        f"products ({px[k_last]:.3f}, {py[k_last]:.3f}) vs {target:.3f}, "
                        f"stop '{run8.stop_reason}' at L/L0={length[-1] / length[0]:.2e}")


def check_19_limit_measurements() -> CheckResult:
    rows = []
    for alpha in (0.25, 0.5, 0.75, 1.0):
        b_end = symmetric_system(0.999, alpha).end_state[4]
        rows.append(f"L({alpha})={b_end:.4f} vs 2/alpha={2.0 / alpha:.4f}")
    period_rows = []
    for alpha in (0.25, 0.5, 0.75, 1.0):
        p = period_numeric(alpha, 0.999).period
        period_rows.append(f"P({alpha},.999)={p:.5f} vs {math.pi * math.sqrt(2.0 / alpha):.5f}")
    verdicts = []
    for alpha in (0.25, 0.75, 1.0):
        bc = boundary_curve(alpha, np.arange(0.75, 0.96, 0.025))
        verdicts.append(f"alpha={alpha}: a_incr={bc.a_increasing}, b_noninc={bc.b_nonincreasing}")
    details = "; ".join(rows + period_rows + verdicts)
    return CheckResult(19, "conjectured-limit measurements (reported only)", "MEASURED",
                       False, details)


CRITERIA = [
    (1, "geo", check_01_period_table),
    (2, "geo", check_02_closed_form_cross_check),
    (3, "geo", check_03_period_limits),
    (4, "geo", check_04_conservation),
    (5, "geo", check_05_variational_identities),
    (6, "geo", check_06_bounding_box),
    (7, "geo", check_07_monotonicity_half),
    (8, "geo", check_08_perfect_vectors),
    (9, "geo", check_09_curvature_data),
    (10, "torsion", check_10_torsion_invariants),
    (11, "torsion", check_11_stationary),
    (12, "torsion", check_12_quasi_periods),
    (13, "torsion", check_13_helix_stability),
    (14, "torsion", check_14_linearized),
    (15, "torsion", check_15_transform_chain),
    (16, "csf", check_16_csf_sanity),
    (17, "csf", check_17_csf_monotonicity),
    (18, "csf", check_18_bowtie_trends),
    (19, "geo", check_19_limit_measurements),
]


def run_suite(suite: str = "all") -> list[CheckResult]:
    """Run the criteria of ``suite`` in order, timing each. A shared run is
    paid for by the first criterion that needs it."""
    results = []
    for cid, group, func in CRITERIA:
        if suite != "all" and group != suite:
            continue
        t0 = time.perf_counter()
        result = func()
        result.seconds = time.perf_counter() - t0
        results.append(result)
    return results

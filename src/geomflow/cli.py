"""Batch experiment runner.

Every experiment is a subcommand writing deterministic CSV data plus a JSON
manifest (parameters, tolerances, wall time, version). Subcommands mirror the
module structure:

    geomflow csf {run, bowtie, grimreaper}
    geomflow torsion {evolve, stationary, stability, transform, reconstruct}
    geomflow geo {period, period-table, flowline, geodesic, cylinder,
                  boundary, boundingbox, gcheck, sphere, curvature}
    geomflow verify {all, csf, torsion, geo}

Repeated runs of one configuration produce byte-identical data files. A
manifest's parameters are every parsed argument except ``--out``, and its
tolerances are the controls the run actually used: the step control of the
ODE-driven geo commands, of ``torsion reconstruct`` (one integration over
the whole arc length, with its frame-drift tolerance) and of ``torsion
stationary`` when it integrates the orbit (``--A`` not 0), the step record
of ``torsion evolve`` (its scheme, tolerances, remainder bounds, step counts
and step range; its ETDRK4 remainder calls and the state rows they carried
go under ``parameters``), the step control and stop rule of the csf
commands (which also record their accepted steps, checks, rejections,
remainder calls and rows and the symmetries they held, and time their
steps, projections, frame diagnostics, frame analyses and CSV writing in
``wall_time_seconds``), and the library constants the other commands run
with (such as the slope tolerance of ``geo boundary`` and the closure
tolerance of ``torsion stationary``). The ODE-driven commands (``geo
sphere``, ``boundary``, ``boundingbox``, ``flowline``, ``geodesic``,
``cylinder``, ``torsion reconstruct`` and ``stationary``) also record the
solver statistics that their results carry: accepted and rejected steps,
field evaluations and the step range.
``verify`` prints each criterion's wall time, or with ``--json`` one JSON
object per criterion.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from time import perf_counter

import numpy as np

from . import __version__
from .errors import GeomflowError, SetupError
from .io_utils import ExperimentWriter, csv_block


_NOT_PARAMETERS = ("func", "out", "command", "experiment")


def _writer(args, tolerances: dict | None = None) -> ExperimentWriter:
    """Writer of one experiment, named after its subcommand; the manifest's
    ``parameters`` hold every parsed argument except the output directory."""
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    experiment = f"{args.command}_{args.experiment.replace('-', '_')}"
    return ExperimentWriter(args.out, experiment, parameters, tolerances)


# ----------------------------------------------------------------- csf runs

def _load_eight(args):
    from .csf import make_concinnous_eight
    return make_concinnous_eight(args.scale, n_points=args.n)


def _stop_record(stop) -> dict:
    """The stop rule of a csf run with the length floor that ends every run."""
    from .csf import LENGTH_FLOOR
    return {**asdict(stop), "length_floor_rel": LENGTH_FLOOR}


def _write_run(writer: ExperimentWriter, run) -> None:
    from .csf import EightDiagnostics
    writer.csv("frames.csv", ["t", "point_index", "x", "y"],
               (csv_block((t,), range(len(frame)), frame[:, 0].tolist(), frame[:, 1].tolist())
                for t, frame in zip(run.times, run.frames)))
    writer.csv("diagnostics.csv", list(EightDiagnostics.FIELDS),
               [d.row() for d in run.diagnostics])


def _finish_run(writer: ExperimentWriter, run, **seconds) -> None:
    """Record how a csf run was stepped, and write its manifest with the
    seconds of each phase of the run, and the ``seconds`` of the command's
    own phases (its analyses, its writing), next to the total wall time."""
    writer.parameters.update(stop_reason=run.stop_reason, steps=run.steps, checks=run.checks,
                             rejected=run.rejected, remainder_calls=run.remainder_calls,
                             remainder_rows=run.remainder_rows, symmetries=run.symmetries)
    writer.phase_seconds = {f"csf_{phase}": s for phase, s in {**run.seconds, **seconds}.items()}
    writer.finish()


def cmd_csf_run(args) -> int:
    from .csf import StopRule, csf_evolve, step_control
    curve = _load_eight(args)
    stop = StopRule(time=args.T, kmax_spacing=args.kmax_spacing)
    writer = _writer(args, {**step_control(), "stop_rule": _stop_record(stop)})
    run = csf_evolve(curve, stop, record_dt=args.record_dt)
    start = perf_counter()
    _write_run(writer, run)
    _finish_run(writer, run, write=perf_counter() - start)
    return 0


def _collapse_writer(args):
    """Writer and stop rule of the runs to the singularity stop."""
    from .csf import MIN_TIP_POINTS, StopRule, step_control
    stop = StopRule(kmax_spacing=0.5)
    writer = _writer(args, {**step_control(), "stop_rule": _stop_record(stop),
                            "min_tip_points": MIN_TIP_POINTS})
    return writer, stop


def cmd_csf_bowtie(args) -> int:
    from .csf import (affine_rescale_and_bowtie, axis_shrink_products, csf_evolve,
                      resolvable_frames)
    curve = _load_eight(args)
    writer, stop = _collapse_writer(args)
    run = csf_evolve(curve, stop, record_dt=args.record_dt)
    start = perf_counter()
    _, px, py = axis_shrink_products(run)
    rows = []
    for k in resolvable_frames(run):
        rec = affine_rescale_and_bowtie(run.frames[k], run.diagnostics[k])
        rows.append([run.times[k], rec.bowtie_distance, rec.ratio_xstar, px[k], py[k]])
    mid = perf_counter()
    _write_run(writer, run)
    writer.csv("bowtie.csv", ["t", "bowtie_distance", "ratio_xstar",
                              "minus_ymax_dxmax_dt", "minus_xmax_dymax_dt"], rows)
    _finish_run(writer, run, analysis=mid - start, write=perf_counter() - mid)
    return 0


def cmd_csf_grimreaper(args) -> int:
    from .csf import csf_evolve, grim_reaper_check, resolvable_frames
    curve = _load_eight(args)
    writer, stop = _collapse_writer(args)
    run = csf_evolve(curve, stop, record_dt=args.record_dt)
    start = perf_counter()
    series = grim_reaper_check(run, resolvable_frames(run))
    mid = perf_counter()
    writer.csv("grimreaper.csv", ["t", "profile_error", "alpha_angle"],
               zip(series.times, series.errors, series.alphas))
    _finish_run(writer, run, analysis=mid - start, write=perf_counter() - mid)
    return 0


# ------------------------------------------------------------- torsion runs

_TORSION_PRESETS = {
    "helix": lambda s: np.ones_like(s),
    "sin-half": lambda s: 10.0 + np.sin(s) / 2.0,
    "sin-cos": lambda s: 10.0 + np.sin(s) + np.cos(s),
    "perturbed-helix": lambda s: 1.0 + np.sin(s) / 100.0,
    "tau1": lambda s: 2.0 / (3.0 + math.sqrt(5.0) * np.sin(2.0 * s)),
}


def _initial_torsion(name: str, n: int):
    from .numerics.periodic import periodic_grid
    from .torsionflow import TorsionField
    if name not in _TORSION_PRESETS:
        raise SystemExit(f"unknown initial data {name!r}; "
                         f"choose from {sorted(_TORSION_PRESETS)}")
    return TorsionField(_TORSION_PRESETS[name](periodic_grid(n)))


def _record_steps(writer, record: dict) -> None:
    """Record a torsion run's steps: its counts of remainder calls, state
    rows and stacked outputs as parameters, the rest as its tolerances."""
    writer.tolerances = dict(record)
    writer.parameters.update((key, writer.tolerances.pop(key))
                             for key in ("remainder_calls", "remainder_rows", "stacked_outputs"))


def cmd_torsion_evolve(args) -> int:
    from .torsionflow import CurvatureProfile, torsion_evolve
    tau0 = _initial_torsion(args.initial, args.n)
    kappa = CurvatureProfile(constant=args.kappa)
    times = np.linspace(0.0, args.T, args.frames + 1)
    writer = _writer(args)
    fields = torsion_evolve(tau0, kappa, args.T, output_times=times)
    _record_steps(writer, fields.record)
    grid = tau0.grid
    writer.csv("torsion.csv", ["t", "s", "tau"],
               (csv_block((float(t),), grid, row) for t, row in zip(times, fields.samples)))
    writer.finish()
    return 0


def cmd_torsion_stationary(args) -> int:
    from .numerics.ode import SolverStats
    from .torsionflow import torsion_rhs
    from .torsionflow.stationary import (CLOSURE_TOL, STATIONARY_CONTROL, stationary_torsion,
                                         stationary_torsion_general)
    writer = _writer(args, {"closure_tol": CLOSURE_TOL})
    if args.A == 0.0:  # the closed form integrates nothing
        tau, stats = stationary_torsion(args.C, n=args.n), SolverStats()
    else:
        writer.tolerances["step_control"] = asdict(STATIONARY_CONTROL)
        tau, stats = stationary_torsion_general(args.A, args.C, n=args.n)
    residual = float(np.max(np.abs(torsion_rhs(tau))))
    writer.csv("stationary.csv", ["s", "tau"], zip(tau.grid, tau.samples))
    writer.parameters["rhs_sup_norm"] = residual
    writer.parameters["solver_stats"] = asdict(stats)
    writer.finish()
    return 0


def cmd_torsion_stability(args) -> int:
    from .torsionflow import helix_stability
    writer = _writer(args)
    series = helix_stability(args.amplitude, args.T, n=args.n)
    _record_steps(writer, series.record)
    writer.csv("stability.csv", ["t", "S"], zip(series.times, series.values))
    writer.finish()
    return 0


def cmd_torsion_transform(args) -> int:
    from .torsionflow.transform import cdf_transform_roundtrip
    tau0 = _initial_torsion(args.initial, args.n)
    writer = _writer(args)
    record, err = cdf_transform_roundtrip(tau0)
    writer.csv("transform.csv", ["xi", "eta", "z", "u", "q"],
               zip(record.xi, record.eta, record.z, record.u, record.q))
    writer.parameters["roundtrip_sup_error"] = err
    writer.parameters["u_periodicity_defect"] = record.u_periodicity_defect
    writer.parameters["hodograph_endpoint"] = record.M
    writer.finish()
    return 0


def cmd_torsion_reconstruct(args) -> int:
    from .torsionflow import CurvatureProfile
    from .torsionflow.frenet import FRAME_DRIFT_TOL, FRENET_CONTROL, frenet_reconstruct
    tau = _initial_torsion(args.initial, args.n)
    writer = _writer(args, {"step_control": asdict(FRENET_CONTROL),
                            "frame_drift_tol": FRAME_DRIFT_TOL})
    curve = frenet_reconstruct(CurvatureProfile(constant=args.kappa), tau,
                               s_span=(0.0, args.s_max), n_samples=args.samples)
    writer.csv("curve.csv", ["s", "x", "y", "z"],
               ([s, *map(float, p)] for s, p in zip(curve.s, curve.positions)))
    writer.parameters["frame_drift"] = curve.frame_drift
    writer.parameters["solver_stats"] = asdict(curve.stats)
    writer.finish()
    return 0


# ----------------------------------------------------------------- geo runs

def cmd_geo_period(args) -> int:
    from .geoflow import period_closed_form, period_numeric
    from .numerics.quadrature import QUAD_TOL
    writer = _writer(args, {"tol": QUAD_TOL})
    rows = []
    rec = period_numeric(args.alpha, args.beta)
    rows.append([rec.alpha, rec.beta, rec.t0, rec.t1, rec.period, rec.source])
    if args.alpha in (1.0, 0.5):
        rec = period_closed_form(args.alpha, args.beta)
        rows.append([rec.alpha, rec.beta, rec.t0, rec.t1, rec.period, rec.source])
    writer.csv("period.csv", ["alpha", "beta", "t0", "t1", "P", "source"], rows)
    writer.finish()
    return 0


def cmd_geo_period_table(args) -> int:
    from .geoflow import period_numeric
    from .numerics.quadrature import QUAD_TOL
    writer = _writer(args, {"tol": QUAD_TOL})
    alphas = [round(0.1 * k, 10) for k in range(1, 11)]
    rows = [[a, period_numeric(a, args.beta).period, math.pi * math.sqrt(2.0) / math.sqrt(a)]
            for a in alphas]
    writer.csv("period_table.csv", ["alpha", "P", "pi_sqrt2_over_sqrt_alpha"], rows)
    writer.finish()
    return 0


def cmd_geo_flowline(args) -> int:
    from .geoflow import TIGHT, UNIT_TANGENT_TOL, flow_tangent, unit_tangent
    v0 = unit_tangent(args.vx, args.vy, args.vz)
    writer = _writer(args, {"unit_tangent_tol": UNIT_TANGENT_TOL,
                            "step_control": asdict(TIGHT)})
    fl = flow_tangent(v0, args.alpha, args.T)
    writer.csv("flowline.csv", ["t", "x", "y", "z", "H"],
               ([t, *map(float, v), h] for t, v, h
                in zip(fl.times, fl.tangents, fl.level_series)))
    writer.parameters["level_drift"] = fl.level_drift
    writer.parameters["norm_drift"] = fl.norm_drift
    writer.parameters["solver_stats"] = asdict(fl.stats)
    writer.finish()
    return 0


def cmd_geo_geodesic(args) -> int:
    from .geoflow import TIGHT, UNIT_TANGENT_TOL, geodesic, unit_tangent
    v0 = unit_tangent(args.vx, args.vy, args.vz)
    writer = _writer(args, {"unit_tangent_tol": UNIT_TANGENT_TOL,
                            "step_control": asdict(TIGHT)})
    path = geodesic(v0, args.alpha, args.T, n_samples=args.samples)
    writer.csv("geodesic.csv", ["t", "vx", "vy", "vz", "x", "y", "z"],
               ([t, *map(float, v), *map(float, p)] for t, v, p
                in zip(path.times, path.tangents, path.positions)))
    writer.parameters["speed_drift"] = path.speed_drift
    writer.parameters["solver_stats"] = asdict(path.stats)
    writer.finish()
    return 0


def cmd_geo_cylinder(args) -> int:
    from .geoflow import CYLINDER_SETUP_TOL, TIGHT, cylinder_invariant, geodesic, v_beta
    writer = _writer(args, {"setup_tol": CYLINDER_SETUP_TOL, "step_control": asdict(TIGHT)})
    path = geodesic(v_beta(args.beta, args.alpha), args.alpha, args.T, n_samples=args.samples)
    series, drift = cylinder_invariant(path, args.beta)
    writer.csv("cylinder.csv", ["t", "Q"], zip(path.times, series))
    writer.parameters["relative_drift"] = drift
    writer.parameters["solver_stats"] = asdict(path.stats)
    writer.finish()
    return 0


def _x0_grid(args) -> np.ndarray:
    """The x0 grid of ``geo boundary`` and ``boundingbox``: from ``x0_min``
    through ``x0_max`` in strides of ``step``, refused when it is empty or its
    bounds or stride are not finite, or the stride is not positive."""
    lo, hi, step = args.x0_min, args.x0_max, args.step
    if not (np.isfinite([lo, hi, step]).all() and step > 0.0):
        raise SetupError(f"x0 grid from {lo} to {hi} in strides of {step} needs finite "
                         "bounds and a finite positive stride")
    grid = np.arange(lo, hi + 1e-12, step)
    if grid.size == 0:
        raise SetupError(f"x0 grid from {lo} to {hi} is empty")
    return grid


def cmd_geo_boundary(args) -> int:
    from .geoflow import SLOPE_TOL, TIGHT, boundary_curve
    grid = _x0_grid(args)
    writer = _writer(args, {"step_control": asdict(TIGHT), "slope_tol": SLOPE_TOL})
    bc = boundary_curve(args.alpha, grid)
    writer.csv("boundary.csv", ["x0", "a", "b", "da_dx0", "db_dx0"],
               ([p.x0, p.a_end, p.b_end, p.da_dx0, p.db_dx0] for p in bc.points))
    writer.parameters["a_increasing"] = bc.a_increasing
    writer.parameters["b_nonincreasing"] = bc.b_nonincreasing
    writer.parameters["solver_stats"] = asdict(bc.stats)
    writer.finish()
    return 0


def cmd_geo_boundingbox(args) -> int:
    from .geoflow import PASS_FLOOR, TIGHT, bounding_box_scan
    grid = _x0_grid(args)
    writer = _writer(args, {"pass_floor": PASS_FLOOR, "step_control": asdict(TIGHT)})
    recs, stats = bounding_box_scan(args.alpha, grid)
    writer.csv("boundingbox.csv",
               ["x0", "admissible", "rho", "min_a_prime", "min_b_prime",
                "b_integral_residual", "passed"],
               ([r.x0, r.admissible, r.rho, r.min_a_prime, r.min_b_prime,
                 r.b_integral_residual, r.passed] for r in recs))
    writer.parameters["solver_stats"] = asdict(stats)
    writer.finish()
    return 0


def cmd_geo_gcheck(args) -> int:
    from .geoflow import FD_STEP, g_function_check
    grid = np.linspace(args.x0_min, args.x0_max, args.points)
    writer = _writer(args, {"fd_step": FD_STEP})
    pts = g_function_check(grid)
    writer.csv("gcheck.csv", ["x0", "dP_dx0", "envelope", "G", "fd_error", "conclusive"],
               ([p.x0, p.dP_dx0, p.envelope, p.g_value, p.fd_error_estimate,
                 p.conclusive] for p in pts))
    writer.finish()
    return 0


def cmd_geo_sphere(args) -> int:
    from .geoflow import SPHERE_CONTROL, geodesic_sphere
    writer = _writer(args, {"step_control": asdict(SPHERE_CONTROL)})
    dirs, ends, stats = geodesic_sphere(args.alpha, args.R, args.n_dirs)
    writer.csv("sphere.csv", ["dir_x", "dir_y", "dir_z", "end_x", "end_y", "end_z"],
               ([*map(float, d), *map(float, e)] for d, e in zip(dirs, ends)))
    obj_lines = "".join(f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in ends)
    writer.text("sphere.obj", obj_lines)
    writer.parameters["solver_stats"] = asdict(stats)
    writer.finish()
    return 0


def cmd_geo_curvature(args) -> int:
    from .geoflow import curvature_data
    data = curvature_data(args.alpha)
    writer = _writer(args)
    rows = []
    for plane, entries in data.plane_curvatures.items():
        rows.append([plane, entries["sectional"], entries["intrinsic"],
                     entries["extrinsic"], entries["mean"]])
    writer.csv("plane_curvatures.csv",
               ["plane", "sectional", "intrinsic", "extrinsic", "mean"], rows)
    conn_rows = [[f"{a}{b}", *map(float, vec)] for (a, b), vec in data.connection.items()]
    writer.csv("connection.csv", ["pair", "X", "Y", "Z"], conn_rows)
    writer.parameters["scalar_curvature"] = data.scalar
    writer.parameters["structure_field_defect"] = data.structure_field_defect
    writer.finish()
    return 0


# ------------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    from .acceptance import run_suite
    results = run_suite(args.suite)
    failed = any(r.gating and r.status == "FAIL" for r in results)
    if args.json:
        print(json.dumps([asdict(r) for r in results], indent=2))
        return 1 if failed else 0
    width = max(len(r.label) for r in results)
    for r in results:
        print(f"[{r.status:>8s}] {r.cid:2d}  {r.label:<{width}s}  {r.seconds:7.1f} s  {r.details}")
    print(f"{sum(r.status == 'PASS' for r in results)} passed, "
          f"{sum(r.status == 'FAIL' for r in results)} failed, "
          f"{sum(r.status == 'MEASURED' for r in results)} measured")
    return 1 if failed else 0


# -------------------------------------------------------------------- parser

def _add_out(p):
    p.add_argument("--out", default="out", help="output directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged,
    so every ``main`` call of a process shares it."""
    parser = argparse.ArgumentParser(prog="geomflow",
                                     description="geometric-flow experiment runner")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    csf = sub.add_parser("csf", help="curve-shortening flow experiments")
    csf_sub = csf.add_subparsers(dest="experiment", required=True)

    p = csf_sub.add_parser("run", help="evolve a figure-eight for a fixed time")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--T", type=float, default=0.1)
    p.add_argument("--kmax-spacing", type=float, default=None)
    p.add_argument("--record-dt", type=float, default=None)
    _add_out(p)
    p.set_defaults(func=cmd_csf_run)

    p = csf_sub.add_parser("bowtie", help="run to the singularity stop, bow-tie metrics")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--record-dt", type=float, default=8e-4)
    _add_out(p)
    p.set_defaults(func=cmd_csf_bowtie)

    p = csf_sub.add_parser("grimreaper", help="collapsing-lobe profile error series")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--record-dt", type=float, default=8e-4)
    _add_out(p)
    p.set_defaults(func=cmd_csf_grimreaper)

    tor = sub.add_parser("torsion", help="curvature-preserving flow experiments")
    tor_sub = tor.add_subparsers(dest="experiment", required=True)

    p = tor_sub.add_parser("evolve", help="ETDRK4 torsion evolution")
    p.add_argument("--initial", default="sin-half")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--T", type=float, default=5.0)
    p.add_argument("--kappa", type=float, default=1.0,
                   help="constant curvature of the evolving curve (variable "
                        "curvature is not implemented)")
    p.add_argument("--frames", type=int, default=100)
    _add_out(p)
    p.set_defaults(func=cmd_torsion_evolve)

    p = tor_sub.add_parser("stationary", help="stationary torsion profiles")
    p.add_argument("--C", type=float, default=3.0)
    p.add_argument("--A", type=float, default=0.0)
    p.add_argument("--n", type=int, default=256)
    _add_out(p)
    p.set_defaults(func=cmd_torsion_stationary)

    p = tor_sub.add_parser("stability", help="helix perturbation deviation series")
    p.add_argument("--amplitude", type=float, default=0.01)
    p.add_argument("--T", type=float, default=50.0)
    p.add_argument("--n", type=int, default=32)
    _add_out(p)
    p.set_defaults(func=cmd_torsion_stability)

    p = tor_sub.add_parser("transform", help="variable-change chain round trip")
    p.add_argument("--initial", default="tau1")
    p.add_argument("--n", type=int, default=512)
    _add_out(p)
    p.set_defaults(func=cmd_torsion_transform)

    p = tor_sub.add_parser("reconstruct", help="Frenet-Serret curve reconstruction")
    p.add_argument("--initial", default="tau1")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--kappa", type=float, default=1.0,
                   help="constant curvature of the reconstructed curve")
    p.add_argument("--s-max", type=float, default=8.0 * math.pi)
    p.add_argument("--samples", type=int, default=513)
    _add_out(p)
    p.set_defaults(func=cmd_torsion_reconstruct)

    geo = sub.add_parser("geo", help="solvable-group family experiments")
    geo_sub = geo.add_subparsers(dest="experiment", required=True)

    p = geo_sub.add_parser("period", help="period of one loop level set")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.7)
    _add_out(p)
    p.set_defaults(func=cmd_geo_period)

    p = geo_sub.add_parser("period-table", help="period across the alpha family")
    p.add_argument("--beta", type=float, default=0.999)
    _add_out(p)
    p.set_defaults(func=cmd_geo_period_table)

    p = geo_sub.add_parser("flowline", help="structure-field integral curve")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--vx", type=float, default=0.55)
    p.add_argument("--vy", type=float, default=0.6)
    p.add_argument("--vz", type=float, default=math.sqrt(1 - 0.55**2 - 0.6**2))
    p.add_argument("--T", type=float, default=50.0)
    _add_out(p)
    p.set_defaults(func=cmd_geo_flowline)

    p = geo_sub.add_parser("geodesic", help="geodesic from the identity")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--vx", type=float, default=0.55)
    p.add_argument("--vy", type=float, default=0.6)
    p.add_argument("--vz", type=float, default=math.sqrt(1 - 0.55**2 - 0.6**2))
    p.add_argument("--T", type=float, default=5.0)
    p.add_argument("--samples", type=int, default=401)
    _add_out(p)
    p.set_defaults(func=cmd_geo_geodesic)

    p = geo_sub.add_parser("cylinder", help="cylinder-invariant drift along a geodesic")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=1001)
    _add_out(p)
    p.set_defaults(func=cmd_geo_cylinder)

    p = geo_sub.add_parser("boundary", help="perfect-endpoint boundary curve")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--x0-min", type=float, default=0.60)
    p.add_argument("--x0-max", type=float, default=0.98)
    p.add_argument("--step", type=float, default=0.02)
    _add_out(p)
    p.set_defaults(func=cmd_geo_boundary)

    p = geo_sub.add_parser("boundingbox", help="min a', b' scan over x0")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--x0-min", type=float, default=0.60)
    p.add_argument("--x0-max", type=float, default=0.95)
    p.add_argument("--step", type=float, default=0.05)
    _add_out(p)
    p.set_defaults(func=cmd_geo_boundingbox)

    p = geo_sub.add_parser("gcheck", help="period-derivative envelope check (alpha=1/2)")
    p.add_argument("--x0-min", type=float, default=0.59)
    p.add_argument("--x0-max", type=float, default=0.995)
    p.add_argument("--points", type=int, default=28)
    _add_out(p)
    p.set_defaults(func=cmd_geo_gcheck)

    p = geo_sub.add_parser("sphere", help="geodesic sphere point cloud")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--R", type=float, default=5.0)
    p.add_argument("--n-dirs", type=int, default=200)
    _add_out(p)
    p.set_defaults(func=cmd_geo_sphere)

    p = geo_sub.add_parser("curvature", help="connection and curvature tables")
    p.add_argument("--alpha", type=float, default=0.5)
    _add_out(p)
    p.set_defaults(func=cmd_geo_curvature)

    p = sub.add_parser("verify", help="run the acceptance-criteria suite")
    p.add_argument("suite", nargs="?", default="all",
                   choices=["all", "csf", "torsion", "geo"])
    p.add_argument("--json", action="store_true",
                   help="print one JSON object per criterion (cid, label, status, gating, "
                        "seconds, details) instead of the table")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeomflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""CLI: experiment dispatch, file outputs, manifests, determinism."""

import json
import math
import re
import shlex
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from geomflow.cli import build_parser, main
from geomflow.geoflow import SLOPE_TOL, SPHERE_CONTROL, TIGHT, UNIT_TANGENT_TOL
from geomflow.torsionflow import CLOSURE_TOL, FRAME_DRIFT_TOL, FRENET_CONTROL

README = Path(__file__).resolve().parent.parent / "README.md"


def read_csv(path: Path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestGeoCommands:
    def test_period_table_reproduces_reference_rows(self, tmp_path):
        out = tmp_path / "table"
        assert main(["geo", "period-table", "--beta", "0.999", "--out", str(out)]) == 0
        header, rows = read_csv(out / "period_table.csv")
        assert header == ["alpha", "P", "pi_sqrt2_over_sqrt_alpha"]
        assert len(rows) == 10
        table = {0.1: 14.0792, 0.5: 6.28842, 1.0: 4.44622}
        for row in rows:
            alpha = float(row[0])
            if alpha in table:
                assert abs(float(row[1]) - table[alpha]) < 5e-3
        manifest = json.loads((out / "geo_period_table_manifest.json").read_text())
        assert manifest["experiment"] == "geo_period_table"
        assert manifest["parameters"]["beta"] == 0.999

    def test_determinism_byte_identical(self, tmp_path):
        # the batched scans (sphere, boundary, bounding box) repeat bit for bit too
        cases = [(["geo", "period-table", "--beta", "0.9"], ["period_table.csv"]),
                 (["geo", "sphere", "--R", "2", "--n-dirs", "100"], ["sphere.csv", "sphere.obj"]),
                 (["geo", "boundary", "--x0-min", "0.8", "--x0-max", "0.9"], ["boundary.csv"]),
                 (["geo", "boundingbox", "--x0-min", "0.7", "--x0-max", "0.8", "--step", "0.05"],
                  ["boundingbox.csv"])]
        for i, (argv, files) in enumerate(cases):
            out1, out2 = tmp_path / f"{i}a", tmp_path / f"{i}b"
            assert main([*argv, "--out", str(out1)]) == 0
            assert main([*argv, "--out", str(out2)]) == 0
            for name in files:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_curvature_tables(self, tmp_path):
        out = tmp_path / "curv"
        assert main(["geo", "curvature", "--alpha", "0.5", "--out", str(out)]) == 0
        header, rows = read_csv(out / "plane_curvatures.csv")
        manifest = json.loads((out / "geo_curvature_manifest.json").read_text())
        assert manifest["parameters"]["scalar_curvature"] == -1.5
        planes = {r[0] for r in rows}
        assert planes == {"XY", "XZ", "YZ"}

    def test_period_single(self, tmp_path):
        out = tmp_path / "p"
        assert main(["geo", "period", "--alpha", "0.5", "--beta", "0.7",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "period.csv")
        assert len(rows) == 2  # numeric + closed form
        assert abs(float(rows[0][4]) - float(rows[1][4])) < 1e-6

    def test_boundingbox_scan(self, tmp_path):
        out = tmp_path / "bb"
        assert main(["geo", "boundingbox", "--alpha", "0.5", "--x0-min", "0.7",
                     "--x0-max", "0.8", "--step", "0.05", "--out", str(out)]) == 0
        header, rows = read_csv(out / "boundingbox.csv")
        assert all(r[header.index("passed")] == "True" for r in rows)

    def test_sphere_outputs_obj(self, tmp_path):
        out = tmp_path / "sph"
        assert main(["geo", "sphere", "--alpha", "0.5", "--R", "0.5",
                     "--n-dirs", "100", "--out", str(out)]) == 0
        obj = (out / "sphere.obj").read_text().strip().split("\n")
        assert len(obj) == 100
        assert all(line.startswith("v ") for line in obj)

    def test_manifests_record_step_control(self, tmp_path):
        # every control a command runs with is in its manifest's tolerances
        cases = [(["geo", "flowline", "--T", "1"], "geo_flowline",
                  {"step_control": asdict(TIGHT), "unit_tangent_tol": UNIT_TANGENT_TOL}),
                 (["geo", "sphere", "--R", "0.5", "--n-dirs", "100"], "geo_sphere",
                  {"step_control": asdict(SPHERE_CONTROL)}),
                 (["geo", "boundary", "--x0-min", "0.8", "--x0-max", "0.84"], "geo_boundary",
                  {"step_control": asdict(TIGHT), "slope_tol": SLOPE_TOL}),
                 (["torsion", "reconstruct", "--initial", "helix", "--n", "64",
                   "--s-max", "1", "--samples", "5"], "torsion_reconstruct",
                  {"step_control": asdict(FRENET_CONTROL), "frame_drift_tol": FRAME_DRIFT_TOL}),
                 (["torsion", "stationary", "--n", "64"], "torsion_stationary",
                  {"closure_tol": CLOSURE_TOL})]
        for argv, experiment, tolerances in cases:
            out = tmp_path / experiment
            assert main([*argv, "--out", str(out)]) == 0
            manifest = json.loads((out / f"{experiment}_manifest.json").read_text())
            assert manifest["tolerances"] == tolerances

    def test_typed_tangent_manifests_record_its_tolerance(self, tmp_path):
        for argv, experiment in [(["geo", "flowline", "--T", "0.5"], "geo_flowline"),
                                 (["geo", "geodesic", "--T", "0.5", "--samples", "11"],
                                  "geo_geodesic")]:
            out = tmp_path / experiment
            assert main([*argv, "--out", str(out)]) == 0
            manifest = json.loads((out / f"{experiment}_manifest.json").read_text())
            assert manifest["tolerances"]["unit_tangent_tol"] == UNIT_TANGENT_TOL


class TestTorsionCommands:
    def test_stationary(self, tmp_path):
        out = tmp_path / "st"
        assert main(["torsion", "stationary", "--C", "3.0", "--out", str(out)]) == 0
        manifest = json.loads((out / "torsion_stationary_manifest.json").read_text())
        assert manifest["parameters"]["rhs_sup_norm"] < 1e-6

    def test_stability_short(self, tmp_path):
        out = tmp_path / "stab"
        assert main(["torsion", "stability", "--amplitude", "0.01", "--T", "0.5",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "stability.csv")
        assert abs(float(rows[0][1]) - 0.0177245) < 1e-6

    def test_transform(self, tmp_path):
        out = tmp_path / "tr"
        assert main(["torsion", "transform", "--initial", "tau1", "--n", "256",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "torsion_transform_manifest.json").read_text())
        assert manifest["parameters"]["roundtrip_sup_error"] < 1e-8

    def test_evolve_writes_long_format(self, tmp_path):
        out = tmp_path / "ev"
        assert main(["torsion", "evolve", "--initial", "sin-half", "--n", "64",
                     "--T", "0.05", "--frames", "2", "--out", str(out)]) == 0
        header, rows = read_csv(out / "torsion.csv")
        assert header == ["t", "s", "tau"]
        assert len(rows) == 64 * 3  # initial + 2 frames

    def test_evolve_manifest_records_step_control(self, tmp_path):
        # the manifest holds the record of the run that wrote the data: ETDRK4
        # for a profile near its mean and for the strongly varying tau_one
        from geomflow.torsionflow import (UNIT_CURVATURE, TorsionField, tau_one,
                                          torsion_evolve)
        from geomflow.numerics import periodic_grid
        cases = [("sin-half", 32, TorsionField(10.0 + np.sin(periodic_grid(32)) / 2.0)),
                 ("tau1", 64, tau_one(64))]
        for initial, n, tau0 in cases:
            out = tmp_path / initial
            assert main(["torsion", "evolve", "--initial", initial, "--n", str(n),
                         "--T", "0.01", "--frames", "1", "--out", str(out)]) == 0
            manifest = json.loads((out / "torsion_evolve_manifest.json").read_text())
            record = torsion_evolve(tau0, UNIT_CURVATURE, 0.01, [0.01]).record
            assert manifest["tolerances"] == record
            assert record["scheme"] == "etdrk4" and record["checks"] >= 1
            assert record["rel_tol"] == 1e-9 and record["abs_tol"] == 1e-10
            assert 0.0 < record["step_min"] <= record["step_max"] <= 2.0 / record["rho0"]

    def test_numerical_failure_exit_code(self, tmp_path):
        out = tmp_path / "bad"
        code = main(["torsion", "stationary", "--A", "0.05", "--C", "3.0",
                     "--out", str(out)])
        assert code == 1

    def test_reconstruct(self, tmp_path):
        out = tmp_path / "rec"
        assert main(["torsion", "reconstruct", "--initial", "helix", "--n", "64",
                     "--s-max", str(2 * math.pi), "--samples", "65",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "curve.csv")
        assert header == ["s", "x", "y", "z"]
        assert len(rows) == 65


class TestCsfCommands:
    def test_short_run(self, tmp_path):
        out = tmp_path / "csf"
        assert main(["csf", "run", "--n", "256", "--T", "0.01",
                     "--record-dt", "0.005", "--out", str(out)]) == 0
        header, rows = read_csv(out / "diagnostics.csv")
        assert header[0] == "time" and "alpha_angle" in header
        frames_header, frame_rows = read_csv(out / "frames.csv")
        assert frames_header == ["t", "point_index", "x", "y"]


    def test_manifest_records_stop_rule_and_steps(self, tmp_path):
        from geomflow.csf import LENGTH_FLOOR, StopRule, step_control
        out = tmp_path / "csf"
        assert main(["csf", "run", "--n", "128", "--T", "0.002",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "csf_run_manifest.json").read_text())
        assert manifest["tolerances"] == {
            **step_control(),
            "stop_rule": {**asdict(StopRule(time=0.002, kmax_spacing=None)),
                          "length_floor_rel": LENGTH_FLOOR}}
        assert {"tol", "ladder_steps_per_octave", "check_steps"} <= manifest["tolerances"].keys()
        params = manifest["parameters"]
        assert params["steps"] > 0 and params["checks"] >= 1 and params["rejected"] >= 0
        assert params["symmetries"] == ["conj", "neg_conj", "neg"]
        assert params["stop_reason"] == "time reached"
        assert "curve" not in params
        seconds = manifest["wall_time_seconds"]
        assert set(seconds) == {"total", "csf_steps", "csf_projections", "csf_diagnostics"}
        assert all(s >= 0.0 for s in seconds.values())
        assert seconds["csf_steps"] + seconds["csf_diagnostics"] <= seconds["total"]

    def test_run_ends_exactly_at_T(self, tmp_path):
        out = tmp_path / "csf"
        assert main(["csf", "run", "--n", "128", "--T", "0.0123", "--record-dt", "0.005",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "diagnostics.csv")
        times = [float(r[header.index("time")]) for r in rows]
        assert times[-1] == 0.0123 and times[-2] < 0.0123
        _, frame_rows = read_csv(out / "frames.csv")
        assert float(frame_rows[-1][0]) == 0.0123


class TestManifests:
    def test_parameters_hold_every_argument(self, tmp_path):
        cases = [(["csf", "run", "--n", "128", "--T", "0.002", "--record-dt", "0.001"],
                  "csf_run", {"scale": 1.0, "n": 128, "T": 0.002,
                              "kmax_spacing": None, "record_dt": 0.001}),
                 (["geo", "geodesic", "--T", "0.5", "--samples", "11"],
                  "geo_geodesic", {"alpha": 0.5, "vx": 0.55, "vy": 0.6,
                                   "vz": math.sqrt(1 - 0.55**2 - 0.6**2), "T": 0.5,
                                   "samples": 11})]
        for argv, experiment, expected in cases:
            out = tmp_path / experiment
            assert main([*argv, "--out", str(out)]) == 0
            manifest = json.loads((out / f"{experiment}_manifest.json").read_text())
            recorded = {k: manifest["parameters"][k] for k in expected}
            assert recorded == expected
            assert not {"func", "out", "command", "experiment"} & manifest["parameters"].keys()


class TestSolverStats:
    # every ODE-driven command records what its integrations did
    CASES = [(["geo", "sphere", "--R", "0.5", "--n-dirs", "100"], "geo_sphere"),
             (["geo", "boundary", "--x0-min", "0.8", "--x0-max", "0.84"], "geo_boundary"),
             (["geo", "boundingbox", "--x0-min", "0.7", "--x0-max", "0.8"], "geo_boundingbox"),
             (["geo", "flowline", "--T", "1"], "geo_flowline"),
             (["geo", "geodesic", "--T", "0.5", "--samples", "11"], "geo_geodesic"),
             (["geo", "cylinder", "--T", "0.5", "--samples", "11"], "geo_cylinder"),
             (["torsion", "reconstruct", "--initial", "helix", "--n", "64",
               "--s-max", "1", "--samples", "5"], "torsion_reconstruct"),
             (["torsion", "stationary", "--A", "1e-9", "--C", "3", "--n", "64"],
              "torsion_stationary")]

    @pytest.mark.parametrize("argv,experiment", CASES, ids=[c[1] for c in CASES])
    def test_manifest_records_solver_stats(self, argv, experiment, tmp_path):
        stats = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main([*argv, "--out", str(out)]) == 0
            manifest = json.loads((out / f"{experiment}_manifest.json").read_text())
            stats.append(manifest["parameters"]["solver_stats"])
        assert stats[0] == stats[1]  # counts only: repeated runs record the same
        assert set(stats[0]) == {"accepted", "rejected", "rhs_evals", "min_step", "max_step"}
        assert stats[0]["accepted"] > 0 and stats[0]["rhs_evals"] >= 12 * stats[0]["accepted"]
        assert 0.0 < stats[0]["min_step"] <= stats[0]["max_step"]

    def test_closed_form_stationary_integrates_nothing(self, tmp_path):
        assert main(["torsion", "stationary", "--n", "64", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "torsion_stationary_manifest.json").read_text())
        assert manifest["parameters"]["solver_stats"] == {
            "accepted": 0, "rejected": 0, "rhs_evals": 0, "min_step": None, "max_step": None}

    def test_reconstruct_evaluation_budget(self, tmp_path):
        # 512 grid intervals at the defaults: 17,036 field evaluations with
        # RK4(5) from a 1e-3 first step, 6,397 with DOP853 from the interval
        assert main(["torsion", "reconstruct", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "torsion_reconstruct_manifest.json").read_text())
        assert manifest["parameters"]["solver_stats"]["rhs_evals"] <= 6397


class TestVerify:
    def test_json_rows(self, monkeypatch, capsys):
        from geomflow import acceptance

        def passing():
            return acceptance.CheckResult(1, "quick check", "PASS", True, "ok")

        def failing():
            return acceptance.CheckResult(2, "gating check", "FAIL", True, "off by 1")

        monkeypatch.setattr(acceptance, "CRITERIA", [(1, "geo", passing)])
        assert main(["verify", "geo", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0].keys() == {"cid", "label", "status", "gating", "seconds", "details"}
        assert (rows[0]["cid"], rows[0]["status"], rows[0]["details"]) == (1, "PASS", "ok")
        assert rows[0]["seconds"] >= 0.0
        # a gating failure sets the exit code as it does for the table
        monkeypatch.setattr(acceptance, "CRITERIA", [(1, "geo", passing), (2, "geo", failing)])
        assert main(["verify", "geo", "--json"]) == 1
        assert [r["status"] for r in json.loads(capsys.readouterr().out)] == ["PASS", "FAIL"]

    def test_rows_print_wall_time(self, monkeypatch, capsys):
        from geomflow import acceptance

        def quick():
            return acceptance.CheckResult(1, "quick check", "PASS", True, "ok")

        monkeypatch.setattr(acceptance, "CRITERIA", [(1, "geo", quick)])
        assert main(["verify", "geo"]) == 0
        row = capsys.readouterr().out.splitlines()[0]
        assert row.split()[-3:] == ["0.0", "s", "ok"]


class TestUsageErrors:
    def test_unknown_experiment_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["geo", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["torsion", "evolve", "--kappa", "-1"],
        ["torsion", "reconstruct", "--kappa", "0"],
        ["geo", "flowline", "--vx", "2.0"],
        ["geo", "geodesic", "--vx", "0.5", "--vy", "0.5", "--vz", "0.5"],
        ["torsion", "evolve", "--initial", "tau1", "--n", "512", "--T", "1e4"],
        ["geo", "sphere", "--n-dirs", "20"],
        ["geo", "period", "--alpha", "2"],
        ["csf", "run", "--n", "64"],
        ["torsion", "stationary", "--C", "1"],
        ["geo", "period", "--beta", "1.5"],
        ["geo", "cylinder", "--beta", "1.5"],
        ["torsion", "evolve", "--n", "30"],
        ["geo", "boundary", "--x0-min", "0.5"],
    ])
    def test_bad_input_prints_error(self, argv, tmp_path, capsys):
        # typed errors end as "error: ..." and exit code 1, not a traceback
        assert main(argv + ["--out", str(tmp_path / "bad")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unknown_initial_data(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["torsion", "evolve", "--initial", "garbage",
                  "--out", str(tmp_path)])


def _readme_commands():
    """Each ``geomflow ...`` line of README.md's fenced code blocks, as argv."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("geomflow ")]


class TestReadme:
    def test_commands_found(self):
        assert len(_readme_commands()) >= 7

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_command_parses(self, argv):
        # parsed only, not run: a flag the CLI no longer has fails here
        build_parser().parse_args(argv)

"""CLI: experiment dispatch, file outputs, manifests, determinism."""

import json
import math
import re
import shlex
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from geomflow.cli import build_parser, main
from geomflow.io_utils import csv_block, write_csv, write_manifest
from geomflow.geoflow import SLOPE_TOL, SPHERE_CONTROL, TIGHT, UNIT_TANGENT_TOL
from geomflow.torsionflow.frenet import FRAME_DRIFT_TOL, FRENET_CONTROL
from geomflow.torsionflow.stationary import CLOSURE_TOL, STATIONARY_CONTROL

README = Path(__file__).resolve().parent.parent / "README.md"


def read_csv(path: Path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def run_outputs(out: Path) -> dict:
    """The files of one run by name: data files as bytes, and manifests as
    JSON without their wall times and with output paths reduced to names."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name.endswith("_manifest.json"):
            manifest = json.loads(path.read_text())
            del manifest["wall_time_seconds"]
            manifest["outputs"] = [Path(p).name for p in manifest["outputs"]]
            files[path.name] = manifest
        else:
            files[path.name] = path.read_bytes()
    return files


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
        # every command repeats its data files bit for bit, the batched scans
        # (sphere, boundary, bounding box) included, and its manifest but for
        # the wall times and the output directory
        cases = ["geo period-table --beta 0.9", "geo sphere --R 2 --n-dirs 100",
                 "geo boundary --x0-min 0.8 --x0-max 0.9",
                 "geo boundingbox --x0-min 0.7 --x0-max 0.8 --step 0.05",
                 "csf run --n 128", "csf bowtie --n 128", "csf grimreaper --n 128",
                 "torsion evolve --n 32 --T 0.1 --frames 2",
                 "torsion stationary --A 1e-9 --C 3 --n 64", "torsion stability --n 32 --T 0.1",
                 "torsion transform --n 32", "torsion reconstruct --n 32 --s-max 1 --samples 9",
                 "geo flowline", "geo geodesic", "geo cylinder", "geo gcheck", "geo curvature",
                 "geo period"]
        for i, command in enumerate(cases):
            runs = []
            for side in "ab":
                out = tmp_path / f"{i}{side}"
                assert main([*shlex.split(command), "--out", str(out)]) == 0
                runs.append(run_outputs(out))
            assert len(runs[0]) >= 2 and runs[0] == runs[1], command

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
                 # one integration over the whole span, its first step from the field
                 (["torsion", "reconstruct", "--initial", "helix", "--n", "64",
                   "--s-max", "1", "--samples", "5"], "torsion_reconstruct",
                  {"step_control": asdict(FRENET_CONTROL), "frame_drift_tol": FRAME_DRIFT_TOL}),
                 (["torsion", "stationary", "--n", "64"], "torsion_stationary",
                  {"closure_tol": CLOSURE_TOL}),
                 # A != 0 integrates the orbit, A = 0 takes the closed form
                 (["torsion", "stationary", "--A", "1e-9", "--C", "3", "--n", "64"],
                  "torsion_stationary",
                  {"closure_tol": CLOSURE_TOL, "step_control": asdict(STATIONARY_CONTROL)})]
        for k, (argv, experiment, tolerances) in enumerate(cases):
            out = tmp_path / str(k)
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
        from geomflow.numerics.periodic import periodic_grid
        from geomflow.torsionflow import UNIT_CURVATURE, TorsionField, torsion_evolve
        from geomflow.torsionflow.stationary import tau_one
        cases = [("sin-half", 32, TorsionField(10.0 + np.sin(periodic_grid(32)) / 2.0)),
                 ("tau1", 64, tau_one(64))]
        for initial, n, tau0 in cases:
            out = tmp_path / initial
            assert main(["torsion", "evolve", "--initial", initial, "--n", str(n),
                         "--T", "0.01", "--frames", "1", "--out", str(out)]) == 0
            manifest = json.loads((out / "torsion_evolve_manifest.json").read_text())
            record = torsion_evolve(tau0, UNIT_CURVATURE, 0.01, [0.01]).record
            counts = {key: record.pop(key)
                      for key in ("remainder_calls", "remainder_rows", "stacked_outputs")}
            assert manifest["tolerances"] == record
            assert counts.items() <= manifest["parameters"].items()
            # a check makes seven remainder calls, three of them stacked two-row ones
            assert counts["remainder_rows"] - counts["remainder_calls"] == 3 * record["checks"]
            assert record["scheme"] == "etdrk4" and record["checks"] >= 1
            assert record["rel_tol"] == 1e-9 and record["abs_tol"] == 1e-10
            assert 0.0 < record["step_min"] <= record["step_max"] <= 2.0 / record["rho0"]

    def test_stability_manifest_records_its_steps(self, tmp_path):
        # the bench's T = 1 job: its 1,000 outputs come from stacked passes
        # inside 20 counted steps (a check counts as three), where landing a
        # step on every output took 1,224
        from geomflow.torsionflow import helix_stability
        out = tmp_path / "stab"
        assert main(["torsion", "stability", "--T", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "torsion_stability_manifest.json").read_text())
        record = helix_stability(0.01, 1.0).record
        counts = {key: record.pop(key)
                  for key in ("remainder_calls", "remainder_rows", "stacked_outputs")}
        assert manifest["tolerances"] == record
        assert counts.items() <= manifest["parameters"].items()
        assert record["scheme"] == "etdrk4" and record["rejected"] == 0
        assert record["steps"] <= 20
        assert counts["stacked_outputs"] == 1000 - (record["steps"] - 2 * record["checks"])

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

    def test_reconstruct_manifest_is_strict_json(self, tmp_path):
        # strict JSON has no literal for infinity or NaN: a manifest writes
        # each non-finite float, at any depth, as a string
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        path = write_manifest(tmp_path / "m.json", "torsion_reconstruct",
                              {"s_max": math.inf, "steps": [1.0, -math.inf]},
                              {"step_control": {"initial_step": math.inf, "max_step": math.nan}},
                              [], 0.5)
        manifest = json.loads(path.read_text(), parse_constant=refuse)
        assert manifest["parameters"] == {"s_max": "inf", "steps": [1.0, "-inf"]}
        assert manifest["tolerances"] == {"step_control": {"initial_step": "inf",
                                                           "max_step": "nan"}}


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
        assert params["remainder_rows"] - params["remainder_calls"] == 3 * params["checks"]
        assert params["symmetries"] == ["conj", "neg_conj", "neg"]
        assert params["stop_reason"] == "time reached"
        assert "curve" not in params
        seconds = manifest["wall_time_seconds"]
        assert set(seconds) == {"total", "csf_steps", "csf_projections", "csf_diagnostics",
                                "csf_write"}
        assert all(s >= 0.0 for s in seconds.values())
        assert seconds["csf_steps"] + seconds["csf_diagnostics"] <= seconds["total"]

    def test_collapse_manifests_time_analysis_and_writing(self, tmp_path):
        for command, data in (("bowtie", "bowtie.csv"), ("grimreaper", "grimreaper.csv")):
            out = tmp_path / command
            assert main(["csf", command, "--n", "128", "--record-dt", "0.02",
                         "--out", str(out)]) == 0
            header, rows = read_csv(out / data)
            assert rows
            seconds = json.loads((out / f"csf_{command}_manifest.json").read_text())[
                "wall_time_seconds"]
            assert set(seconds) == {"total", "csf_steps", "csf_projections", "csf_diagnostics",
                                    "csf_analysis", "csf_write"}
            assert all(s >= 0.0 for s in seconds.values())
            assert sum(s for k, s in seconds.items() if k != "total") <= seconds["total"]

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

    def test_calls_in_one_process_share_the_parser_not_the_arguments(self, tmp_path):
        # main reuses one parser per process; each call still gets its own
        # flags, and the defaults of whatever it leaves out
        assert build_parser() is build_parser()
        cases = [(["geo", "period", "--alpha", "0.3", "--beta", "0.6"], "geo_period",
                  {"alpha": 0.3, "beta": 0.6}),
                 (["geo", "curvature", "--alpha", "0.75"], "geo_curvature", {"alpha": 0.75}),
                 (["geo", "period"], "geo_period", {"alpha": 0.5, "beta": 0.7})]
        for k, (argv, experiment, expected) in enumerate(cases):
            out = tmp_path / str(k)
            assert main([*argv, "--out", str(out)]) == 0
            parameters = json.loads((out / f"{experiment}_manifest.json").read_text())["parameters"]
            assert {k: parameters[k] for k in expected} == expected
            assert ("beta" in parameters) == (experiment == "geo_period")


class TestCsvWriter:
    def test_block_writes_the_bytes_of_its_rows(self, tmp_path):
        # a block formats its leading values once and its rows by one format,
        # as write_csv formats each row on its own
        xs, ys = [0.1, 1.0 / 3.0, -2.5e-300, 1e17], [np.float64(2.0), -0.0, math.pi, 5e-324]
        for lead in [(0.7,), (np.float64(1e-9), 3), ("50%", 2.5)]:
            rows = [lead + (k, x, y) for k, (x, y) in enumerate(zip(xs, ys))]
            header = [f"c{k}" for k in range(len(rows[0]))]
            by_row = write_csv(tmp_path / "rows.csv", header, rows).read_bytes()
            by_block = write_csv(tmp_path / "block.csv", header,
                                 [csv_block(lead, range(4), xs, ys)]).read_bytes()
            assert by_block == by_row

    @staticmethod
    def _rows(kind):
        """The rows handed to write_csv and the lines they must write."""
        values = [(3, 0.1, "a"), (np.float64(1.0 / 3.0), -2, 5e-324), (True, "50%", -0.0)]
        lines = [",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row)
                 for row in values]
        if kind == "blocks":
            blocks = [csv_block((0.5,), [1, 2], [0.25, math.pi]), csv_block(("x",), [7], [1e17])]
            return blocks, ["0.5,1,0.25", "0.5,2,%.17g" % math.pi, "x,7,1e+17"]
        if kind == "generator":
            return (list(row) for row in values), lines
        return ([], []) if kind == "empty" else (values, lines)

    @pytest.mark.parametrize("kind", ["lists", "blocks", "generator", "empty"])
    def test_file_is_the_header_and_lines(self, tmp_path, kind):
        rows, lines = self._rows(kind)
        path = write_csv(tmp_path / "out.csv", ["a", "b", "c"], rows)
        assert path.read_bytes() == ("\n".join(["a,b,c", *lines]) + "\n").encode()

    def test_failing_rows_leave_no_file(self, tmp_path):
        def rows():
            yield (1, 2.0)
            raise RuntimeError("row source failed")

        path = tmp_path / "out.csv"
        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(path, ["a", "b"], rows())
        assert not path.exists()

    def test_rows_stream_to_the_file(self, tmp_path):
        # 200,000 rows make an 8.8 MB file. Holding it whole (lines, joined
        # text and bytes) peaked at 37.8 MB under tracemalloc; streamed, the
        # peak measured 0.16 MB (Python 3.11, numpy 2.4), so 1 MB leaves room
        # for another interpreter's buffers and still sits far below the file.
        import tracemalloc

        rows = ((k, k / 7.0, math.sin(k)) for k in range(200_000))
        tracemalloc.start()
        try:
            path = write_csv(tmp_path / "big.csv", ["k", "x", "y"], rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 8_000_000
        assert peak < 1_000_000


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
        assert set(stats[0]) == {"accepted", "rejected", "rhs_evals", "event_evals",
                                 "min_step", "max_step"}
        assert stats[0]["accepted"] > 0 and stats[0]["rhs_evals"] >= 12 * stats[0]["accepted"]
        # only the symmetric scans end their runs on an event
        assert (stats[0]["event_evals"] > 0) == (experiment in ("geo_boundary", "geo_boundingbox"))
        assert 0.0 < stats[0]["min_step"] <= stats[0]["max_step"]

    def test_closed_form_stationary_integrates_nothing(self, tmp_path):
        assert main(["torsion", "stationary", "--n", "64", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "torsion_stationary_manifest.json").read_text())
        assert manifest["parameters"]["solver_stats"] == {
            "accepted": 0, "rejected": 0, "rhs_evals": 0, "event_evals": 0,
            "min_step": None, "max_step": None}

    def test_reconstruct_evaluation_budget(self, tmp_path):
        # 513 samples at the defaults: 17,036 field evaluations with RK4(5)
        # from a 1e-3 first step in each of the 512 grid intervals, 6,397 with
        # DOP853 at 1e-11 from the whole interval, and 5,984 in one DOP853
        # pass at FRENET_CONTROL's 1e-12 (1e-13 would take 7,330)
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
        ["csf", "run", "--n", "128", "--record-dt", "0"],
        ["csf", "bowtie", "--n", "128", "--record-dt", "-0.001"],
        ["csf", "grimreaper", "--n", "128", "--record-dt", "nan"],
        ["csf", "run", "--n", "128", "--T", "-1"],
        ["csf", "run", "--n", "128", "--kmax-spacing", "-1"],
        ["csf", "run", "--n", "130"],
        # degenerate sample grids
        ["torsion", "reconstruct", "--samples", "0"],
        ["torsion", "reconstruct", "--samples", "1"],
        ["torsion", "reconstruct", "--s-max", "0"],
        ["torsion", "reconstruct", "--s-max", "-1"],
        ["torsion", "reconstruct", "--s-max", "nan"],
        ["torsion", "reconstruct", "--s-max", "inf"],
        ["geo", "geodesic", "--samples", "0"],
        ["geo", "geodesic", "--T", "nan"],
        ["geo", "geodesic", "--T", "inf"],
        ["geo", "cylinder", "--samples", "1"],
        ["geo", "cylinder", "--T", "-1"],
        # degenerate x0 grids
        ["geo", "boundary", "--step", "0"],
        ["geo", "boundingbox", "--step", "0"],
        ["geo", "boundary", "--step", "nan"],
        ["geo", "boundingbox", "--step", "-0.05"],
        ["geo", "boundary", "--x0-min", "0.9", "--x0-max", "0.8"],
        ["geo", "boundingbox", "--x0-min", "0.9", "--x0-max", "0.8"],
        ["geo", "boundingbox", "--x0-max", "inf"],
    ])
    def test_bad_input_prints_error(self, argv, tmp_path, capsys):
        # typed errors end as "error: ..." and exit code 1, not a traceback
        assert main(argv + ["--out", str(tmp_path / "bad")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_csf_budget_fails_fast(self, tmp_path, capsys):
        # 1e8 strides of 1e-9 to T = 0.1: over MAX_STEPS before the first step
        start = time.perf_counter()
        assert main(["csf", "run", "--n", "128", "--T", "0.1", "--record-dt", "1e-9",
                     "--out", str(tmp_path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error: ")

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

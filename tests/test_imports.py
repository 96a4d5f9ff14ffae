"""What a command loads: each runs in a fresh interpreter, so the modules it
imports are the ones it pays to compile and execute on every run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(code: str, cwd: Path) -> str:
    """Standard output of ``code`` run by a fresh interpreter on this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "bench"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _modules_after(argv: list[str], tmp_path: Path) -> set[str]:
    """Names in ``sys.modules`` after ``geomflow.cli.main(argv)`` in a fresh process."""
    code = ("import json, sys\nimport geomflow.cli\n"
            f"assert geomflow.cli.main({argv!r} + ['--out', 'out']) == 0\n"
            "print(json.dumps(sorted(sys.modules)))")
    return set(json.loads(_run(code, tmp_path)))


class TestModuleSets:
    def test_torsion_evolve_loads_only_the_flow(self, tmp_path):
        loaded = _modules_after(["torsion", "evolve", "--n", "32", "--T", "0.01",
                                 "--frames", "2"], tmp_path)
        assert {"geomflow.torsionflow.core", "geomflow.torsionflow.evolve"} <= loaded
        unused = {"geomflow.numerics.ode", "geomflow.numerics.quadrature",
                  "geomflow.numerics.interpolation", "geomflow.torsionflow.frenet",
                  "geomflow.torsionflow.stationary", "geomflow.torsionflow.transform",
                  "geomflow.torsionflow.linear"}
        assert not unused & loaded

    def test_numeric_period_skips_numpy_polynomial(self, tmp_path):
        # alpha = 1/4 has no closed form, so the period is a quadrature
        loaded = _modules_after(["geo", "period", "--alpha", "0.25"], tmp_path)
        assert "geomflow.numerics.quadrature" in loaded
        assert not {m for m in loaded if m.startswith("numpy.polynomial")}

    def test_geo_boundary_skips_the_perfect_vector_checks(self, tmp_path):
        # only the acceptance suite calls perfect_vector_checks
        loaded = _modules_after(["geo", "boundary"], tmp_path)
        assert "geomflow.geoflow.symmetric" in loaded
        assert "geomflow.geoflow.perfect" not in loaded


def test_tracer_installs_after_cli_setup(tmp_path):
    # bench/tracer.py reads the traced modules from sys.modules once the
    # package inits are imported; a lazy geoflow, csf or torsionflow init
    # would leave some of them unloaded and make install raise
    _run("import geomflow.cli\ngeomflow.cli.build_parser()\n"
         "from tracer import Tracer\nTracer().install()", tmp_path)

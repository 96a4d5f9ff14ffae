"""Out-of-program tracing of geomflow's layers.

The tracer replaces public functions of each layer by timing wrappers. The
package re-exports functions with ``from .x import f``, so a function can be
bound under its name in several modules; every loaded ``geomflow.*`` module
that holds the original object is patched. Spans live in memory only, as
per-(parent, name) aggregates of calls, inclusive time and self time (a span's
duration minus its child spans). Per-evaluation callables (ODE fields,
torsion right-hand sides, quadrature integrands) are wrapped where they enter
the integrator, so their evaluations are counted exactly.

A span is not opened for a function called from inside an open span of the
same name (``period`` calling ``period_numeric``), so times are never counted
twice.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name)
_SPANS = [
    ("geomflow.numerics.ode", "integrate_ode", "numerics.ode"),
    ("geomflow.numerics.quadrature", "integrate_singular", "numerics.quadrature"),
    ("geomflow.numerics.roots", "find_root", "numerics.roots"),
    ("geomflow.csf.evolve", "csf_evolve", "csf.evolve"),
    ("geomflow.csf.evolve", "resample_uniform", "csf.resample"),
    ("geomflow.csf.curve", "curvature_vector", "csf.curvature"),
    ("geomflow.csf.curve", "curve_geometry", "csf.geometry"),
    ("geomflow.csf.curve", "self_intersection", "csf.self_intersection"),
    ("geomflow.csf.analysis", "resolvable_frames", "csf.analysis"),
    ("geomflow.csf.analysis", "axis_shrink_products", "csf.analysis"),
    ("geomflow.csf.analysis", "affine_rescale_and_bowtie", "csf.analysis"),
    ("geomflow.torsionflow.evolve", "torsion_evolve", "torsionflow.evolve"),
    ("geomflow.geoflow.geodesic", "geodesic", "geoflow.geodesic"),
    ("geomflow.geoflow.symmetric", "symmetric_system", "geoflow.symmetric"),
    ("geomflow.geoflow.periods", "period", "geoflow.period"),
    ("geomflow.geoflow.periods", "period_numeric", "geoflow.period"),
    ("geomflow.geoflow.periods", "period_closed_form", "geoflow.period"),
    ("geomflow.io_utils", "write_csv", "io_utils.write"),
    ("geomflow.io_utils", "write_manifest", "io_utils.write"),
]

TORSION_MESHES = (32, 128, 256)


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self._stack: list[list] = []          # open spans: [name, child seconds]
        # (parent name, name) -> [calls, inclusive seconds, self seconds]
        self.spans: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()

    # ------------------------------------------------------------- spans
    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span; ``before`` may rewrite the arguments and
        ``after`` sees the result."""
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for frame in stack:
                if frame[0] == name:
                    return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append([name, 0.0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()[1]
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dur
                agg = spans[(parent, name)]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
            if after is not None:
                after(result)
            return result
        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # ------------------------------------------------------------ install
    def install(self) -> None:
        """Import the layers and patch every binding of each traced function."""
        import geomflow.cli  # noqa: F401  (imports io_utils)
        import geomflow.csf  # noqa: F401
        import geomflow.geoflow  # noqa: F401
        import geomflow.numerics  # noqa: F401
        import geomflow.torsionflow  # noqa: F401

        hooks = {
            "numerics.ode": dict(before=self._wrap_arg0("numerics.ode.field", span=True)),
            "numerics.quadrature": dict(before=self._wrap_arg0("numerics.quadrature.integrand")),
            "csf.evolve": dict(after=lambda run: self.counts.update(
                {"csf.frames": len(run.frames)})),
            "io_utils.write": dict(after=self._count_bytes),
        }
        patches = [(modname, attr, self.wrap(name, getattr(sys.modules[modname], attr),
                                             **hooks.get(name, {})))
                   for modname, attr, name in _SPANS]
        patches.append(("geomflow.torsionflow.core", "make_torsion_rhs",
                        self._wrap_rhs_factory(sys.modules["geomflow.torsionflow.core"]
                                               .make_torsion_rhs)))
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "geomflow" or k.startswith("geomflow."))]
        for modname, attr, new in patches:
            orig = getattr(sys.modules[modname], attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)
        writer = sys.modules["geomflow.io_utils"].ExperimentWriter
        writer.text = self.wrap("io_utils.write", writer.text, after=self._count_bytes)

    def _wrap_arg0(self, name: str, span: bool = False):
        def before(args, kwargs):
            fn = self.wrap(name, args[0]) if span else self.count(name, args[0])
            return (fn,) + tuple(args[1:]), kwargs
        return before

    def _wrap_rhs_factory(self, factory):
        @functools.wraps(factory)
        def make_rhs(kappa, n):
            return self.wrap(f"torsionflow.rhs.n{n}", factory(kappa, n))
        return make_rhs

    def _count_bytes(self, path) -> None:
        # Manifests embed the wall time, so only data files are counted.
        if not str(path).endswith("_manifest.json"):
            self.counts["io_utils.bytes_written"] += path.stat().st_size

    # ------------------------------------------------------------ metrics
    def _total(self, name: str, field: int, prefix: bool = False) -> float:
        return sum(v[field] for (_, n), v in self.spans.items()
                   if n == name or (prefix and n.startswith(name)))

    def _under(self, parent: str, name: str, field: int) -> float:
        return self.spans.get((parent, name), (0, 0.0, 0.0))[field]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        calls = lambda n: self._total(n, 0)                       # noqa: E731
        incl = lambda n: self._total(n, 1)                        # noqa: E731
        self_s = lambda n: self._total(n, 2)                      # noqa: E731
        per = lambda s, k: 1e6 * s / k if k else 0.0              # noqa: E731

        evals = calls("numerics.ode.field")
        steps = calls("csf.resample") - calls("csf.evolve")      # one initial resample per run
        diagnostics = self._under("csf.evolve", "csf.geometry", 1)
        step_s = incl("csf.evolve") - diagnostics
        m = {
            "numerics.ode.calls": (calls("numerics.ode"), "count"),
            "numerics.ode.rhs_evals": (evals, "count"),
            "numerics.ode.self_s": (self_s("numerics.ode"), "s"),
            "numerics.ode.field_s": (incl("numerics.ode.field"), "s"),
            "numerics.ode.self_us_per_eval": (per(self_s("numerics.ode"), evals), "us"),
            "numerics.quadrature.calls": (calls("numerics.quadrature"), "count"),
            "numerics.quadrature.integrand_evals":
                (self.counts["numerics.quadrature.integrand"], "count"),
            "numerics.quadrature.s": (incl("numerics.quadrature"), "s"),
            "numerics.roots.calls": (calls("numerics.roots"), "count"),
            "numerics.roots.s": (incl("numerics.roots"), "s"),
            "csf.steps": (steps, "count"),
            "csf.step_s": (step_s, "s"),
            "csf.resample_s": (self._under("csf.evolve", "csf.resample", 1), "s"),
            "csf.curvature_s": (self._under("csf.evolve", "csf.curvature", 1), "s"),
            "csf.us_per_step": (per(step_s, steps), "us"),
            "csf.frames": (self.counts["csf.frames"], "count"),
            "csf.diagnostics_s": (diagnostics, "s"),
            "csf.self_intersection.calls": (calls("csf.self_intersection"), "count"),
            "csf.self_intersection_s": (incl("csf.self_intersection"), "s"),
            "csf.analysis_s": (incl("csf.analysis"), "s"),
            "torsionflow.rhs_evals": (self._total("torsionflow.rhs.n", 0, prefix=True), "count"),
            "torsionflow.rhs_s": (self._total("torsionflow.rhs.n", 1, prefix=True), "s"),
            "torsionflow.integrator_s": (self._under("torsionflow.evolve", "numerics.ode", 2), "s"),
        }
        for n in TORSION_MESHES:
            name = f"torsionflow.rhs.n{n}"
            m[f"torsionflow.us_per_rhs.n{n}"] = (per(incl(name), calls(name)), "us")
        for layer in ("geodesic", "symmetric", "period"):
            m[f"geoflow.{layer}.calls"] = (calls(f"geoflow.{layer}"), "count")
            m[f"geoflow.{layer}_s"] = (incl(f"geoflow.{layer}"), "s")
        m["io_utils.bytes_written"] = (self.counts["io_utils.bytes_written"], "B")
        m["io_utils.write_s"] = (incl("io_utils.write"), "s")
        return m

"""The names the benchmark's tracer looks up in the package.

``bench/tracer.py`` patches functions by module and attribute name when it
installs, so a renamed or deleted function would break every traced
benchmark run. This checks each name without installing the tracer."""

import functools
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracer  # noqa: E402

NAMES = sorted({(module, attribute) for module, attribute, _ in tracer._SPANS}
               | {("geomflow.torsionflow.core", "make_torsion_rhs"),
                  ("geomflow.io_utils", "ExperimentWriter.text")})


@pytest.mark.parametrize("module,attribute", NAMES, ids=[f"{m}:{a}" for m, a in NAMES])
def test_traced_name_exists(module, attribute):
    target = functools.reduce(getattr, attribute.split("."), importlib.import_module(module))
    assert callable(target)

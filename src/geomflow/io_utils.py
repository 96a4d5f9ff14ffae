"""Deterministic CSV/JSON output helpers for the experiment runner."""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from . import __version__

CSV_FLOAT = "%.17g"


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Write ``header`` and ``rows`` as CSV. Each row is formatted by one
    %-format string, built once per sequence of value types: floats (and
    float subclasses such as numpy's float64) as ``CSV_FLOAT``, anything
    else as ``str`` would print it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    formats: dict[tuple, str] = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(CSV_FLOAT if issubclass(kind, float) else "%s"
                                            for kind in kinds)
        lines.append(fmt % row)
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def write_manifest(path: Path, experiment: str, parameters: dict, tolerances: dict,
                   outputs: list[Path], wall_time: float,
                   phase_seconds: dict | None = None) -> Path:
    """Write the JSON manifest. ``wall_time_seconds`` is the one entry that
    differs between repeated runs: the wall time, or with ``phase_seconds``
    an object of the ``total`` and the seconds of each timed phase."""
    path = Path(path)
    payload = {
        "experiment": experiment,
        "parameters": parameters,
        "tolerances": tolerances,
        "outputs": [os.fspath(p) for p in outputs],
        "wall_time_seconds": {"total": wall_time, **phase_seconds} if phase_seconds
        else wall_time,
        "version": __version__,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


class ExperimentWriter:
    """Collects data files for one experiment and writes the manifest last;
    ``phase_seconds`` may name timed phases of the run for the manifest."""

    def __init__(self, out_dir, experiment: str, parameters: dict, tolerances: dict | None = None):
        self.out_dir = Path(out_dir)
        self.experiment = experiment
        self.parameters = dict(parameters)
        self.tolerances = dict(tolerances or {})
        self.outputs: list[Path] = []
        self.phase_seconds: dict[str, float] = {}
        self._t0 = time.time()

    def csv(self, name: str, header: list[str], rows) -> Path:
        path = write_csv(self.out_dir / name, header, rows)
        self.outputs.append(path)
        return path

    def text(self, name: str, content: str) -> Path:
        path = self.out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, newline="\n")
        self.outputs.append(path)
        return path

    def finish(self) -> Path:
        return write_manifest(self.out_dir / f"{self.experiment}_manifest.json",
                              self.experiment, self.parameters, self.tolerances,
                              self.outputs, time.time() - self._t0, self.phase_seconds)

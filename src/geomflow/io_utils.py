"""Deterministic CSV/JSON output helpers for the experiment runner."""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

from . import __version__

CSV_FLOAT = "%.17g"


def _row_format(kinds) -> str:
    """The %-format string of a row of values of these types: floats (and
    float subclasses such as numpy's float64) as ``CSV_FLOAT``, anything else
    as ``str`` would print it."""
    return ",".join(CSV_FLOAT if issubclass(kind, float) else "%s" for kind in kinds)


def csv_block(lead: tuple, *columns) -> str:
    """The lines of ``write_csv`` for the rows ``lead + (a[k], b[k], ...)`` of
    the equal-length, nonempty ``columns`` a, b, ..., each holding values of
    one type: the leading values are formatted once and every row by one
    format string. ``write_csv`` writes such a block as it is."""
    head = (_row_format(map(type, lead)) % lead).replace("%", "%%")
    fmt = ",".join([head, _row_format(type(column[0]) for column in columns)])
    return "\n".join(map(fmt.__mod__, zip(*columns)))


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Write ``header`` and ``rows`` as CSV. Each row is formatted by one
    %-format string (see ``_row_format``), built once per sequence of value
    types; a row given as a ``str`` is a block of formatted lines
    (``csv_block``) and is written as it is.

    Lines are streamed to the file as ``rows`` yields them, so a file never
    sits in memory whole. If formatting or ``rows`` raises, the partial file
    is removed before the error propagates."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    formats: dict[tuple, str] = {}
    try:
        with open(path, "w", newline="\n") as out:
            out.write(",".join(header) + "\n")
            for row in rows:
                if not isinstance(row, str):
                    row = tuple(row)
                    kinds = tuple(map(type, row))
                    fmt = formats.get(kinds)
                    if fmt is None:
                        fmt = formats[kinds] = _row_format(kinds)
                    row = fmt % row
                out.write(row + "\n")
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def _strict_json(value):
    """``value`` with every non-finite float, at any depth of its dicts,
    lists and tuples, replaced by the string ``"inf"``, ``"-inf"`` or
    ``"nan"``."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0.0 else "-inf")
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def write_manifest(path: Path, experiment: str, parameters: dict, tolerances: dict,
                   outputs: list[Path], wall_time: float,
                   phase_seconds: dict | None = None) -> Path:
    """Write the JSON manifest. ``wall_time_seconds`` is the one entry that
    differs between repeated runs: the wall time, or with ``phase_seconds``
    an object of the ``total`` and the seconds of each timed phase.

    The file is strict JSON, which has no literal for infinity or NaN: a
    non-finite float is written as the string ``"inf"``, ``"-inf"`` or
    ``"nan"``, and the dump runs with ``allow_nan=False``."""
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
    path.write_text(json.dumps(_strict_json(payload), indent=2, sort_keys=True,
                               allow_nan=False) + "\n")
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

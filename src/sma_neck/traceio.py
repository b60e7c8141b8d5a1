"""Trace persistence.

The CSV column contract is stable: every column name carries its unit, one
row per accepted step, numbers with 9 significant digits, byte-deterministic
output for a given trace.  The contract has two temperature and two fraction
columns per unit whatever the unit's spring count: unit k's spring state
fills ``T{2k-1}_K``/``T{2k}_K`` and ``xi{2k-1}``/``xi{2k}``.

``write_trace`` formats each row with one ``%`` operation and streams the rows
to the open file in chunks, so the memory a write takes does not grow with
the run length.  A trace whose columns differ in length is refused before
the file is opened.
"""

from __future__ import annotations

import math
from itertools import islice
from pathlib import Path

from .engine import SimTrace

_UNITS = 3
_SPRING_COLUMNS = 2 * _UNITS

HEADER = (
    ["t_s", "kappa_per_m", "phi_rad", "theta_deg"]
    + [f"T{i}_K" for i in range(1, _SPRING_COLUMNS + 1)]
    + [f"xi{i}" for i in range(1, _SPRING_COLUMNS + 1)]
    + [f"Fk{i}_N" for i in range(1, _UNITS + 1)]
    + ["residual_Nm"]
)


# one CSV row: every field at 9 significant digits, unit k's temperature
# and fraction each filling their two spring columns
_ROW = ",".join(["%.9g"] * len(HEADER)) + "\n"
_CHUNK_ROWS = 1024


def write_trace(trace: SimTrace, destination) -> Path:
    """Write the trace as CSV to ``destination`` (path-like); returns the path."""
    if len(trace) == 0:
        raise ValueError("refusing to write an empty trace")
    trace.check_columns()
    path = Path(destination)
    rows = zip(
        trace.t, trace.kappa, trace.phi, map(math.degrees, trace.theta),
        *trace.spring_temperatures, *trace.spring_fractions, *trace.unit_forces,
        trace.residual_norm,
    )
    try:
        with open(path, "w", newline="\n") as out:
            out.write(",".join(HEADER) + "\n")
            while chunk := [
                _ROW % (t, k, p, th, a, a, b, b, c, c, x, x, y, y, z, z, f1, f2, f3, r)
                for t, k, p, th, a, b, c, x, y, z, f1, f2, f3, r
                in islice(rows, _CHUNK_ROWS)
            ]:
                out.write("".join(chunk))
    except OSError as exc:
        raise OSError(f"writing trace to {path}: {exc}") from exc
    return path


def read_trace(source) -> dict[str, list[float]]:
    """Parse a trace CSV back into a column -> values mapping."""
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"reading trace from {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    names = lines[0].split(",")
    columns: dict[str, list[float]] = {name: [] for name in names}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(names):
            raise ValueError(f"{path}: ragged row: {line!r}")
        for name, part in zip(names, parts):
            columns[name].append(float(part))
    return columns

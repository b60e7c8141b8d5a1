"""Trace persistence.

The CSV column contract is stable: every column name carries its unit, one
row per accepted step, numbers with 9 significant digits, byte-deterministic
output for a given trace.  The contract has two temperature and two fraction
columns per unit whatever the unit's spring count: unit k's spring state
fills ``T{2k-1}_K``/``T{2k}_K`` and ``xi{2k-1}``/``xi{2k}``.
"""

from __future__ import annotations

import math
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


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_trace(trace: SimTrace, destination) -> Path:
    """Write the trace as CSV to ``destination`` (path-like); returns the path."""
    if len(trace) == 0:
        raise ValueError("refusing to write an empty trace")
    path = Path(destination)
    lines = [",".join(HEADER)]
    for i in range(len(trace)):
        row = [
            _fmt(trace.t[i]),
            _fmt(trace.kappa[i]),
            _fmt(trace.phi[i]),
            _fmt(math.degrees(trace.theta[i])),
        ]
        for per_unit in (trace.spring_temperatures[i], trace.spring_fractions[i]):
            for v in per_unit:
                text = _fmt(v)
                row.extend((text, text))
        row.extend(_fmt(v) for v in trace.unit_forces[i])
        row.append(_fmt(trace.residual_norm[i]))
        lines.append(",".join(row))
    try:
        path.write_text("\n".join(lines) + "\n", newline="\n")
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

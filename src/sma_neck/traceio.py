"""Trace persistence.

The CSV column contract is stable: every column name carries its unit, one
row per accepted step, numbers with 9 significant digits, byte-deterministic
output for a given trace.  The contract has two temperature and two fraction
columns per unit whatever the unit's spring count: unit k's spring state
fills ``T{2k-1}_K``/``T{2k}_K`` and ``xi{2k-1}``/``xi{2k}``.

``write_trace`` builds one row template per write and formats each row with
one ``%`` operation.  A column that holds one value (``holds_one_value``) has
its text in the template, formatted once; an undriven unit's temperature and
fraction are such columns.  The rows stream to the open file in chunks, so
the memory a write takes does not grow with the run length.  A trace whose
columns differ in length is refused before the file is opened.
"""

from __future__ import annotations

import math
from array import array
from itertools import islice, repeat
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

_CHUNK_ROWS = 1024


def holds_one_value(column: array) -> bool:
    """Whether every entry of the ``array('d')`` ``column`` has the first
    entry's bits: 0.0 and -0.0, or NaNs with different payloads, are two
    values.  Compares in place, without a copy of the column."""
    with memoryview(column) as view, view.cast("B") as raw, raw.cast("Q") as bits:
        return bits[1:] == bits[:-1]


def write_trace(trace: SimTrace, destination) -> Path:
    """Write the trace as CSV to ``destination`` (path-like); returns the path."""
    if len(trace) == 0:
        raise ValueError("refusing to write an empty trace")
    trace.check_columns()
    path = Path(destination)
    # (column, how it is converted, how many CSV fields it fills) in header
    # order: unit k's temperature and fraction each fill two spring columns
    columns = [
        (trace.t, None, 1), (trace.kappa, None, 1), (trace.phi, None, 1),
        (trace.theta, math.degrees, 1),
        *((column, None, 2) for column in trace.spring_temperatures),
        *((column, None, 2) for column in trace.spring_fractions),
        *((column, None, 1) for column in trace.unit_forces),
        (trace.residual_norm, None, 1),
    ]
    fields, varying = [], []
    for column, convert, copies in columns:
        if holds_one_value(column):
            value = column[0] if convert is None else convert(column[0])
            fields += [("%.9g" % value).replace("%", "%%")] * copies
        else:
            fields += ["%.9g"] * copies
            # zip takes an iterator of each entry: an array twice gives each
            # row's value twice (only unconverted columns have two copies)
            varying += [column if convert is None else map(convert, column)] * copies
    row = ",".join(fields) + "\n"
    rows = zip(*varying) if varying else repeat((), len(trace))
    try:
        with open(path, "w", newline="\n") as out:
            out.write(",".join(HEADER) + "\n")
            while chunk := [row % r for r in islice(rows, _CHUNK_ROWS)]:
                out.write("".join(chunk))
    except OSError as exc:
        raise OSError(f"writing trace to {path}: {exc}") from exc
    return path

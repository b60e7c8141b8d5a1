"""Unit-tagged scalar parsing for scenario documents.

Every physical quantity in a scenario file is written as "<number> <unit>"
(e.g. "88 degC", "28 GPa", "120 W/(m^2 K)").  Parsing converts to SI at the
boundary so the rest of the code never sees a degC/K or mm/m mixup.
Dimensionless values are plain numbers.
"""

from __future__ import annotations

import math


class UnitsError(ValueError):
    """A quantity is missing its unit or carries one we do not know."""


# dimension -> {unit token: (scale, offset)}; SI value = raw * scale + offset.
# The first entry of each table is the canonical unit used when dumping.
_TABLES: dict[str, dict[str, tuple[float, float]]] = {
    "length": {"m": (1.0, 0.0), "cm": (1e-2, 0.0), "mm": (1e-3, 0.0)},
    "area": {"m^2": (1.0, 0.0), "cm^2": (1e-4, 0.0), "mm^2": (1e-6, 0.0)},
    "mass": {"kg": (1.0, 0.0), "g": (1e-3, 0.0)},
    "time": {"s": (1.0, 0.0), "ms": (1e-3, 0.0), "min": (60.0, 0.0)},
    "current": {"A": (1.0, 0.0), "mA": (1e-3, 0.0)},
    "force": {"N": (1.0, 0.0), "mN": (1e-3, 0.0), "kN": (1e3, 0.0)},
    "angle": {"rad": (1.0, 0.0), "deg": (0.017453292519943295, 0.0)},
    "temperature": {"K": (1.0, 0.0), "degC": (1.0, 273.15)},
    # temperature differences must not carry the degC offset
    "temperature_delta": {"K": (1.0, 0.0), "mK": (1e-3, 0.0)},
    "pressure": {
        "Pa": (1.0, 0.0),
        "kPa": (1e3, 0.0),
        "MPa": (1e6, 0.0),
        "GPa": (1e9, 0.0),
    },
    "pressure_per_kelvin": {
        "Pa/K": (1.0, 0.0),
        "kPa/K": (1e3, 0.0),
        "MPa/K": (1e6, 0.0),
        "GPa/K": (1e9, 0.0),
    },
    "resistance": {"ohm": (1.0, 0.0), "mohm": (1e-3, 0.0)},
    "specific_heat": {"J/(kg K)": (1.0, 0.0), "kJ/(kg K)": (1e3, 0.0)},
    "specific_energy": {"J/kg": (1.0, 0.0), "kJ/kg": (1e3, 0.0)},
    "convection": {"W/(m^2 K)": (1.0, 0.0)},
    "bending_stiffness": {"N m^2": (1.0, 0.0), "N mm^2": (1e-6, 0.0)},
    "linear_stiffness": {"N/m": (1.0, 0.0), "kN/m": (1e3, 0.0), "N/mm": (1e3, 0.0)},
    "moment": {"N m": (1.0, 0.0), "mN m": (1e-3, 0.0), "N mm": (1e-3, 0.0)},
}

DIMENSIONS = frozenset(_TABLES) | {"dimensionless", "count"}


def parse_quantity(raw: object, dimension: str, field: str) -> float:
    """Convert a scenario value to SI.

    ``raw`` is either a "<number> <unit>" string for dimensional quantities or
    a bare number for dimensionless/count fields.  ``field`` is the dotted
    config path used in error messages.  NaN and infinite values are
    rejected here, so they never reach the model.
    """
    if dimension in ("dimensionless", "count"):
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise UnitsError(f"{field}: expected a plain number, got {raw!r}")
        try:
            value = float(raw)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        return _finite(value, raw, field)
    if dimension not in _TABLES:
        raise ValueError(f"unknown dimension {dimension!r} for {field}")
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raise UnitsError(
            f"{field}: missing unit; write e.g. "
            f'"{raw} {canonical_unit(dimension)}"'
        )
    if not isinstance(raw, str):
        raise UnitsError(f"{field}: expected '<number> <unit>', got {raw!r}")
    parts = raw.strip().split(None, 1)
    if len(parts) != 2:
        raise UnitsError(f"{field}: expected '<number> <unit>', got {raw!r}")
    number, unit = parts
    try:
        value = float(number)
    except ValueError:
        raise UnitsError(f"{field}: cannot parse number in {raw!r}") from None
    table = _TABLES[dimension]
    if unit not in table:
        known = ", ".join(sorted(table))
        raise UnitsError(f"{field}: unknown unit {unit!r} (accepted: {known})")
    scale, offset = table[unit]
    return _finite(value * scale + offset, raw, field)


def _finite(value: float, raw: object, field: str) -> float:
    if not math.isfinite(value):
        raise UnitsError(f"{field}: value must be finite, got {raw!r}")
    return value


def canonical_unit(dimension: str) -> str:
    """The SI unit token used when dumping a scenario back to text."""
    if dimension in ("dimensionless", "count"):
        return ""
    return next(iter(_TABLES[dimension]))


def format_quantity(value: float, dimension: str) -> object:
    """Render an SI value in the canonical unit for a scenario dump.

    The canonical unit of every dimension is the plain SI one (scale 1,
    offset 0) and the number is written with shortest round-trip precision,
    so dump -> load reproduces the value exactly.
    """
    if dimension in ("dimensionless", "count"):
        return value
    unit = canonical_unit(dimension)
    scale, offset = _TABLES[dimension][unit]
    return f"{(value - offset) / scale!r} {unit}"


def celsius_from_kelvin(kelvin: float) -> float:
    return kelvin - 273.15

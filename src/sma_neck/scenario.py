"""Scenario documents: parsing, validation, dumping and system assembly.

A scenario is a YAML document with explicit per-field units (see
``data/default_scenario.yaml``).  ``FIELDS`` is the schema: one row per
document field, walked by the parser, the dumper and the calibration
parameter accessors.  Loading is strict: unknown keys, missing units and
invariant violations are errors that name the offending field path.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from importlib import resources
from typing import Callable, NamedTuple

import yaml

from .backbone import BackboneGeometry
from .engine import CurrentProfile, NeckSystem, Segment, SimConfig, ValidationError
from .pennate import PennateUnit
from .sma import (
    SmaMaterial,
    SpringGeometry,
    SpringState,
    ThermalEnvironment,
)
from .units import UnitsError, clip, echo, format_quantity, parse_quantity

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """The document is not well-formed YAML or not a mapping."""


@dataclass(frozen=True)
class CalibrationSpec:
    """Free parameters, bounds, and the current/angle target table for the
    calibration routine.  Angles in the target table are degrees."""

    free: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    targets: tuple[tuple[float, float], ...]
    hold: float = 5.0
    unit_index: int = 1
    dt: float | None = None
    passes: int = 2
    golden_iterations: int = 10

    def __post_init__(self):
        if not self.free:
            raise ValidationError("calibration.free: need at least one parameter")
        for name in self.free:
            if name not in CALIBRATABLE_PARAMETERS:
                allowed = ", ".join(sorted(CALIBRATABLE_PARAMETERS))
                raise ValidationError(
                    f"calibration.free: {echo(name)} is not calibratable "
                    f"(allowed: {allowed})"
                )
            if name not in self.bounds:
                raise ValidationError(f"calibration.bounds.{name}: missing")
            lo, hi = self.bounds[name]
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValidationError(
                    f"calibration.bounds.{name}: bounds must be finite and ordered"
                )
        if not self.targets:
            raise ValidationError("calibration.targets: need at least one row")
        # written so that NaN fails each check
        for amps, angle in self.targets:
            if not (0.0 <= amps < math.inf and 0.0 < angle < math.inf):
                raise ValidationError(
                    "calibration.targets: currents must be non-negative and "
                    "target angles strictly positive"
                )
        if not 0.0 < self.hold < math.inf:
            raise ValidationError("calibration.hold: must be positive")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ValidationError("calibration.dt: must be positive")
        for name, least in (("passes", 1), ("golden_iterations", 3)):
            count = getattr(self, name)
            if not isinstance(count, int):
                raise ValidationError(f"calibration.{name}: expected an integer")
            if count < least:
                raise ValidationError(f"calibration.{name}: must be at least {least}")


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: typed system parameters plus run settings."""

    schema_version: int
    material: SmaMaterial
    spring: SpringGeometry
    spring_initial_force: float
    spring_initial_temperature: float | None
    spring_initial_fraction: float
    environment: ThermalEnvironment
    backbone: BackboneGeometry
    head_mass: float
    gravity_enabled: bool
    attachment_radius: float
    base_radius: float
    azimuths: tuple[float, float, float]
    pennation_angle: float
    tendon_stiffness: float
    springs_per_unit: int
    force_combination: str
    simulation: SimConfig
    calibration: CalibrationSpec | None
    run_id: str

    def initial_spring_state(self) -> SpringState:
        temperature = (
            self.spring_initial_temperature
            if self.spring_initial_temperature is not None
            else self.environment.ambient_temperature
        )
        return SpringState(
            temperature=temperature,
            martensite_fraction=self.spring_initial_fraction,
            force=self.spring_initial_force,
        )

    def build_system(self) -> NeckSystem:
        spring = self.initial_spring_state()
        units = []
        for k, azimuth in enumerate(self.azimuths, start=1):
            ca, sa = math.cos(azimuth), math.sin(azimuth)
            unit = PennateUnit(
                index=k,
                base_attachment=(self.base_radius * ca, self.base_radius * sa, 0.0),
                head_attachment_local=(
                    self.attachment_radius * ca,
                    self.attachment_radius * sa,
                    0.0,
                ),
                pennation_angle=self.pennation_angle,
                tendon_stiffness=self.tendon_stiffness,
                spring=spring,
                fibers=self.springs_per_unit,
            )
            units.append(unit)
        return NeckSystem(
            material=self.material,
            spring_geometry=self.spring,
            env=self.environment,
            backbone=self.backbone,
            units=tuple(units),
            head_mass=self.head_mass,
            gravity_enabled=self.gravity_enabled,
            force_combination=self.force_combination,
        )

    def build_config(self, **changes) -> SimConfig:
        """The scenario's run settings, with ``changes`` (SimConfig field
        values) replacing the scenario's."""
        return replace(self.simulation, **changes)

    def calibration_config(self, spec: CalibrationSpec) -> SimConfig:
        """Run settings of one calibration sweep row: ``spec``'s step size
        (the scenario's when ``spec`` sets none) over its hold time."""
        return self.build_config(
            dt=spec.dt if spec.dt is not None else self.simulation.dt,
            duration=spec.hold,
        )


class Codec(NamedTuple):
    """Parser and dumper of a field whose value is not one scalar."""

    parse: Callable[[object, str], object]  # (raw value, field path) -> value
    dump: Callable[[object], object]
    fields: tuple = ()  # row table, for a list of mappings


# ``Scenario`` attributes that are dataclasses, each built from the rows whose
# target starts with its name (``material.poisson``); other targets are plain
# ``Scenario`` attributes.
_GROUPS = {
    "material": SmaMaterial,
    "spring": SpringGeometry,
    "environment": ThermalEnvironment,
    "backbone": BackboneGeometry,
    "simulation": SimConfig,
    "calibration": CalibrationSpec,
}
_REQUIRED = object()
# plain YAML kinds: (Python type, what the error message expects)
_PLAIN = {
    "integer": (int, "an integer"),
    "boolean": (bool, "true/false"),
    "string": (str, "a string"),
}


@dataclass(frozen=True)
class Field:
    """One schema row.

    ``path`` is the dotted document path; ``kind`` is a units dimension, a
    plain kind (``integer``, ``boolean``, ``string``) or a ``Codec``.  An
    absent field takes ``default``; a ``None`` default marks an optional field
    that dumps leave out while unset.  ``check`` is a ``(predicate, message)``
    constraint on the parsed value; ``{}`` in the message shows the value as
    ``units.echo`` quotes it.
    ``target`` is the dotted attribute path
    on ``Scenario``; left empty, it is ``path`` in a ``_GROUPS`` section and
    the last component of ``path`` elsewhere.  ``calibratable`` marks a
    calibration handle, named by the last component of ``path``.
    """

    path: str
    kind: str | Codec
    default: object = _REQUIRED
    check: tuple[Callable[[object], bool], str] | None = None
    target: str = ""
    calibratable: bool = False

    def __post_init__(self):
        if not self.target:
            section, _, key = self.path.rpartition(".")
            target = self.path if section in _GROUPS else key
            object.__setattr__(self, "target", target)

    def parse(self, raw: object, label: str):
        if raw is None:
            if self.default is _REQUIRED:
                raise ValidationError(f"{label}: missing")
            return self.default
        if isinstance(self.kind, Codec):
            value = self.kind.parse(raw, label)
        elif self.kind in _PLAIN:
            typ, expected = _PLAIN[self.kind]
            if not isinstance(raw, typ) or (typ is int and isinstance(raw, bool)):
                raise ValidationError(f"{label}: expected {expected}")
            value = raw
        else:
            value = parse_quantity(raw, self.kind, label)
        if self.check is not None and not self.check[0](value):
            raise ValidationError(f"{label}: {self.check[1].format(echo(value))}")
        return value

    def dump(self, value):
        if isinstance(self.kind, Codec):
            return self.kind.dump(value)
        if self.kind in _PLAIN:
            return value
        return format_quantity(value, self.kind)

    def get(self, obj):
        """The value at ``target`` on ``obj``; None past an unset section."""
        for attr in self.target.split("."):
            if obj is None:
                return None
            obj = getattr(obj, attr)
        return obj

    def set(self, obj, value):
        """A copy of ``obj`` with ``value`` at ``target``."""
        return _replaced(obj, self.target.split("."), value)


def _replaced(obj, attrs: list[str], value):
    head, *rest = attrs
    inner = _replaced(getattr(obj, head), rest, value) if rest else value
    return replace(obj, **{head: inner})


_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0.0, "must be non-negative")
_UNIT_INDEX = (lambda v: 1 <= v <= 3, "must be 1, 2 or 3")
# outputs are named <run_id>_trace.csv etc. inside the output directory; a
# file name holds at most 255 bytes, and the longest suffix
# (_calibration.csv) takes 16 of them
_MAX_STEM_BYTES = 255 - len("_calibration.csv")


def _is_file_stem(v: str) -> bool:
    try:
        size = len(v.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate names no file
        return False
    return (
        size <= _MAX_STEM_BYTES
        and v not in ("", ".", "..")
        and not any(c in v for c in "/\\\0")
    )


_FILE_STEM = (
    _is_file_stem,
    f"must be a file-name stem of at most {_MAX_STEM_BYTES} UTF-8 bytes, without "
    "'/', '\\' or NUL and not '.' or '..', got {}",
)


def _at_least(n: int):
    return (lambda v: v >= n, f"must be at least {n}")


def _one_of(*choices: str):
    return (lambda v: v in choices, f"must be one of {sorted(choices)}, got {{}}")


def _reject_unknown(mapping: dict, known, label: str) -> None:
    unknown = set(mapping) - set(known)
    if unknown:
        names = clip(", ".join(sorted(map(str, unknown))))
        raise ValidationError(f"{label}: unknown key(s): {names}")


def _rows(fields: tuple[Field, ...], noun: str, build, unbuild) -> Codec:
    """Codec of a list of mappings with the keys of ``fields``.  ``build``
    makes a record from the row's path and field values; ``unbuild`` gives
    the field values of a record back."""

    def parse(raw, label):
        if not isinstance(raw, list):
            raise ValidationError(f"{label}: expected a list of {noun}")
        records = []
        for i, item in enumerate(raw):
            row = f"{label}[{i}]"
            if not isinstance(item, dict):
                raise ValidationError(f"{row}: expected a mapping")
            _reject_unknown(item, (f.path for f in fields), row)
            values = (f.parse(item.get(f.path), f"{row}.{f.path}") for f in fields)
            records.append(build(row, *values))
        return tuple(records)

    def dump(records):
        return [
            {f.path: f.dump(v) for f, v in zip(fields, unbuild(record))}
            for record in records
        ]

    return Codec(parse, dump, fields)


def _segment(row: str, unit: int, start: float, end: float, current: float):
    if end <= start:
        raise ValidationError(f"{row}.end: must exceed start")
    return Segment(unit, start, end, current)


def _parse_azimuths(raw, label):
    if not isinstance(raw, list) or len(raw) != 3:
        raise ValidationError(f"{label}: expected a list of 3 angles")
    azimuths = tuple(
        parse_quantity(a, "angle", f"{label}[{i}]") for i, a in enumerate(raw)
    )
    a, b, c = sorted(az % math.tau for az in azimuths)
    gaps = (b - a, c - b, math.tau - (c - a))
    if any(abs(gap - math.tau / 3.0) > 1e-9 for gap in gaps):
        raise ValidationError(f"{label}: must be mutually 120 deg apart")
    return azimuths


def _parse_free(raw, label):
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{label}: expected a non-empty list")
    # a container's str is its repr, which an alias chain makes huge
    return tuple(
        echo(name) if isinstance(name, (list, dict, set)) else str(name) for name in raw
    )


def _parse_bounds(raw, label):
    if not isinstance(raw, dict):
        raise ValidationError(f"{label}: expected a mapping")
    bounds: dict[str, tuple[float, float]] = {}
    for name, pair in raw.items():
        if name not in CALIBRATABLE_PARAMETERS:
            raise ValidationError(
                f"{label}.{clip(str(name))}: not a calibratable parameter"
            )
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"{label}.{name}: expected [low, high]")
        kind = CALIBRATABLE_PARAMETERS[name].kind
        bounds[name] = tuple(
            parse_quantity(v, kind, f"{label}.{name}[{i}]") for i, v in enumerate(pair)
        )
    return bounds


def _dump_bounds(bounds):
    return {
        name: [CALIBRATABLE_PARAMETERS[name].dump(v) for v in pair]
        for name, pair in bounds.items()
    }


_SEGMENTS = _rows(
    (
        Field("unit", "integer", check=_UNIT_INDEX),
        Field("start", "time", check=_NON_NEGATIVE),
        Field("end", "time"),
        Field("current", "current", check=_NON_NEGATIVE),
    ),
    "segments",
    _segment,
    astuple,
)
_PROFILE = Codec(
    lambda raw, label: _wrap_invariant(
        label, CurrentProfile, _SEGMENTS.parse(raw, label)
    ),
    lambda profile: _SEGMENTS.dump(profile.segments),
    _SEGMENTS.fields,
)
_TARGETS = _rows(
    (Field("current", "current"), Field("max_bending", "angle")),
    "target rows",
    lambda row, amps, angle: (amps, math.degrees(angle)),
    lambda target: (target[0], math.radians(target[1])),
)

# Document order; dumps follow it.
FIELDS: tuple[Field, ...] = (
    Field(
        "schema_version",
        "integer",
        check=(lambda v: v == SCHEMA_VERSION, f"expected {SCHEMA_VERSION}, got {{}}"),
    ),
    Field("material.young_martensite", "pressure"),
    Field("material.young_austenite", "pressure"),
    Field("material.poisson", "dimensionless"),
    Field("material.phase_transform_tensor", "pressure", calibratable=True),
    Field("material.thermal_expansion_factor", "pressure_per_kelvin"),
    Field("material.austenite_start", "temperature"),
    Field("material.austenite_finish", "temperature"),
    Field("material.martensite_start", "temperature"),
    Field("material.martensite_finish", "temperature"),
    Field("material.stress_influence_reverse", "pressure_per_kelvin"),
    Field("material.stress_influence_forward", "pressure_per_kelvin"),
    Field("material.resistance_martensite", "resistance"),
    Field("material.resistance_austenite", "resistance"),
    Field("material.specific_heat", "specific_heat"),
    Field("material.latent_heat", "specific_energy"),
    Field("spring.wire_diameter", "length"),
    Field("spring.coil_diameter", "length"),
    Field("spring.active_coils", "count"),
    Field("spring.spring_mass", "mass"),
    Field("spring.surface_area", "area"),
    Field("spring.initial_force", "force", 0.0, _NON_NEGATIVE, "spring_initial_force"),
    Field(
        "spring.initial_martensite_fraction",
        "dimensionless",
        1.0,
        (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
        "spring_initial_fraction",
    ),
    Field(
        "spring.initial_temperature", "temperature", None, None,
        "spring_initial_temperature",
    ),
    Field("environment.ambient_temperature", "temperature"),
    Field("environment.convection_coefficient", "convection", calibratable=True),
    Field("backbone.length", "length"),
    Field("backbone.bending_stiffness_y", "bending_stiffness"),
    Field("backbone.torsional_stiffness", "bending_stiffness"),
    Field("head.mass", "mass", check=_NON_NEGATIVE, target="head_mass"),
    Field("head.gravity", "boolean", False, target="gravity_enabled"),
    Field("pennate.attachment_radius", "length"),
    Field("pennate.base_radius", "length"),
    Field(
        "pennate.azimuths",
        Codec(_parse_azimuths, lambda az: [format_quantity(a, "angle") for a in az]),
    ),
    Field(
        "pennate.pennation_angle",
        "angle",
        check=(lambda v: 0.0 <= v < 0.5 * math.pi, "must lie in [0 deg, 90 deg)"),
        calibratable=True,
    ),
    Field(
        "pennate.tendon_stiffness", "linear_stiffness", check=_POSITIVE,
        calibratable=True,
    ),
    Field("pennate.springs_per_unit", "integer", 2, _at_least(1)),
    Field("pennate.force_combination", "string", "additive", _one_of("additive", "max")),
    Field("simulation.dt", "time", check=_POSITIVE),
    Field("simulation.duration", "time"),
    Field("simulation.solver_tolerance", "moment", 1e-9, _POSITIVE),
    Field("simulation.max_newton_iterations", "integer", 60, _at_least(1)),
    Field("simulation.max_temperature_step", "temperature_delta", 1.0, _POSITIVE),
    Field(
        "profile", _PROFILE, CurrentProfile(),
        target="simulation.current_profile",
    ),
    Field("output.run_id", "string", "neck", _FILE_STEM),
    Field("calibration.free", Codec(_parse_free, list)),
    Field("calibration.bounds", Codec(_parse_bounds, _dump_bounds)),
    Field("calibration.targets", _TARGETS),
    Field("calibration.hold", "time", 5.0),
    Field("calibration.unit", "integer", 1, _UNIT_INDEX, "calibration.unit_index"),
    Field("calibration.passes", "integer", 2),
    Field("calibration.golden_iterations", "integer", 10),
    Field("calibration.dt", "time", None),
)

_OPTIONAL_SECTION = "calibration"

CALIBRATABLE_PARAMETERS = {
    f.path.rpartition(".")[2]: f for f in FIELDS if f.calibratable
}


def _section_keys() -> dict[str, set[str]]:
    keys: dict[str, set[str]] = {"": set()}
    for f in FIELDS:
        section, _, key = f.path.rpartition(".")
        keys[""].add(section or key)
        keys.setdefault(section, set()).add(key)
    return keys


_SECTION_KEYS = _section_keys()


def _calibratable(name: str) -> Field:
    try:
        return CALIBRATABLE_PARAMETERS[name]
    except KeyError:
        raise ValueError(f"unknown calibration parameter {name!r}") from None


def apply_parameters(scenario: Scenario, parameters: dict[str, float]) -> Scenario:
    """Return a scenario with the calibratable parameters replaced."""
    for name, value in parameters.items():
        scenario = _calibratable(name).set(scenario, value)
    return scenario


def current_parameters(scenario: Scenario, names) -> dict[str, float]:
    return {name: _calibratable(name).get(scenario) for name in names}


def _wrap_invariant(path: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        if isinstance(exc, (ValidationError, UnitsError)):
            raise
        raise ValidationError(f"{path}: {exc}") from exc


def _read_scenario(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc


def _safe_load(text: str, what: str):
    """``yaml.safe_load`` with the errors PyYAML does not wrap in
    ``yaml.YAMLError`` raised as ``ParseError``: nesting past the recursion
    limit and integers past Python's digit limit for ``int(str)``."""
    try:
        return yaml.safe_load(text)
    except RecursionError:
        raise ParseError(f"{what}: nested too deeply") from None
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from None


def _yaml_error(exc: yaml.YAMLError) -> str:
    """A PyYAML error's text with each of its few lines clipped: a line can
    quote a whole alias name or tag from the input."""
    return "\n".join(clip(line) for line in str(exc).split("\n"))


def default_scenario_text() -> str:
    return (
        resources.files("sma_neck").joinpath("data/default_scenario.yaml").read_text()
    )


def load_default_scenario() -> Scenario:
    return load_with_overrides(default_scenario_text())


def parse_document(doc: dict) -> Scenario:
    _reject_unknown(doc, _SECTION_KEYS[""], "scenario")
    for section, keys in _SECTION_KEYS.items():
        if section and doc.get(section) is not None:
            if not isinstance(doc[section], dict):
                raise ValidationError(f"{section}: expected a mapping")
            _reject_unknown(doc[section], keys, section)

    attributes: dict = {_OPTIONAL_SECTION: None}
    groups: dict[str, dict] = {}
    for f in FIELDS:
        section, _, key = f.path.rpartition(".")
        if section == _OPTIONAL_SECTION and doc.get(section) is None:
            continue
        mapping = (doc.get(section) or {}) if section else doc
        # root scalars are named under the document itself
        label = f.path if section or isinstance(f.kind, Codec) else f"scenario.{key}"
        value = f.parse(mapping.get(key), label)
        group, _, name = f.target.rpartition(".")
        (groups.setdefault(group, {}) if group else attributes)[name] = value
    for group, kwargs in groups.items():
        attributes[group] = _wrap_invariant(group, _GROUPS[group], **kwargs)
    scenario = Scenario(**attributes)
    # building the system checks the cross-type invariants (degenerate
    # attachments, spring constants) before the scenario is handed out
    _wrap_invariant("scenario", scenario.build_system)
    cal = scenario.calibration
    if cal is not None:
        _wrap_invariant("calibration.hold", scenario.calibration_config, cal)
        # the search may evaluate any point between the bounds; the dataclass
        # invariants on these parameters are ranges, so both ends cover it.
        # Any failure there, the build checks included, is the bound's fault.
        for name in cal.free:
            for value in cal.bounds[name]:
                try:
                    apply_parameters(scenario, {name: value}).build_system()
                except ValueError as exc:
                    raise ValidationError(f"calibration.bounds.{name}: {exc}") from exc
    return scenario


def scenario_to_document(scenario: Scenario) -> dict:
    """Canonical SI document for a scenario (inverse of parse_document)."""
    doc: dict = {}
    for f in FIELDS:
        value = f.get(scenario)
        if value is None:  # unset optional field or section
            continue
        section, _, key = f.path.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[key] = f.dump(value)
    return doc


def dump_scenario(scenario: Scenario) -> str:
    return yaml.safe_dump(
        scenario_to_document(scenario), sort_keys=False, default_flow_style=False
    )


def apply_override(doc: dict, assignment: str) -> None:
    """Apply one ``dotted.key=value`` override to the raw document in place.

    A key the document lacks is added, so an optional field (or section) it
    leaves out can be set; a typo is then rejected by ``parse_document`` as an
    unknown key in a file is.  List items are addressed numerically, e.g.
    ``profile.0.current``, and must exist.
    """
    if "=" not in assignment:
        raise ValidationError(f"override {echo(assignment)}: expected key=value")
    dotted, raw_value = assignment.split("=", 1)
    keys = dotted.strip().split(".")
    if not keys or any(not k for k in keys):
        raise ValidationError(f"override {echo(assignment)}: empty key path")
    try:
        value = _safe_load(raw_value, f"override {echo(dotted.strip())}")
    except yaml.YAMLError as exc:
        raise ValidationError(
            f"override {echo(assignment)}: bad value: {_yaml_error(exc)}"
        ) from exc
    node = doc
    for i, key in enumerate(keys):
        if isinstance(node, list):
            try:
                slot = int(key)
                node[slot]
            except (ValueError, IndexError):
                raise ValidationError(
                    f"override {echo(dotted)}: no list item {echo(key)}"
                ) from None
        elif isinstance(node, dict):
            slot = key
        else:
            raise ValidationError(
                f"override {echo(dotted)}: {echo(key)} is not a container"
            )
        if i == len(keys) - 1:
            node[slot] = value
        else:
            node = node[slot] if isinstance(node, list) else node.setdefault(slot, {})


def load_with_overrides(text: str, overrides=()) -> Scenario:
    """Parse ``text``, apply dotted-key overrides, then validate."""
    try:
        doc = _safe_load(text, "malformed scenario document")
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed scenario document: {_yaml_error(exc)}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a mapping")
    for assignment in overrides:
        apply_override(doc, assignment)
    try:
        return parse_document(doc)
    except RecursionError:  # a long override path nests one mapping per key
        raise ParseError("scenario document: nested too deeply") from None

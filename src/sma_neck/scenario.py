"""Scenario documents: parsing, validation, dumping and system assembly.

A scenario is a YAML document with explicit per-field units (see
``data/default_scenario.yaml``).  Loading is strict: unknown keys, missing
units and invariant violations are errors that name the offending field path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources

import yaml

from .backbone import BackboneGeometry
from .engine import CurrentProfile, NeckSystem, Segment, SimConfig
from .pennate import PennateUnit, rest_chord_length
from .sma import SmaMaterial, SpringGeometry, SpringState, ThermalEnvironment
from .units import UnitsError, format_quantity, parse_quantity

SCHEMA_VERSION = 1

CALIBRATABLE_PARAMETERS = {
    "convection_coefficient": "convection",
    "phase_transform_tensor": "pressure",
    "tendon_stiffness": "linear_stiffness",
    "pennation_angle": "angle",
}


class ParseError(ValueError):
    """The document is not well-formed YAML or not a mapping."""


class ValidationError(ValueError):
    """A field violates an invariant; the message names the field path."""


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
                    f"calibration.free: {name!r} is not calibratable "
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
        for amps, angle in self.targets:
            if amps < 0.0 or angle <= 0.0:
                raise ValidationError(
                    "calibration.targets: currents must be non-negative and "
                    "target angles strictly positive"
                )
        if self.hold <= 0.0:
            raise ValidationError("calibration.hold: must be positive")


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
    dt: float
    duration: float
    solver_tolerance: float
    max_newton_iterations: int
    max_temperature_step: float
    profile: tuple[Segment, ...]
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
                azimuth=azimuth,
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
            rest_chord_length(unit, self.backbone)  # rejects degenerate geometry
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
        """The scenario's run settings as a SimConfig, with ``changes``
        (SimConfig field values) replacing the scenario's."""
        config = SimConfig(
            dt=self.dt,
            duration=self.duration,
            current_profile=CurrentProfile(self.profile),
            solver_tolerance=self.solver_tolerance,
            max_newton_iterations=self.max_newton_iterations,
            max_temperature_step=self.max_temperature_step,
        )
        return replace(config, **changes)


class _Section:
    """Cursor over one mapping of the document; tracks consumed keys so
    anything left over is reported as an unknown key."""

    def __init__(self, mapping: dict, path: str):
        if not isinstance(mapping, dict):
            raise ValidationError(f"{path}: expected a mapping")
        self.mapping = mapping
        self.path = path
        self.seen: set[str] = set()

    def _get(self, key: str):
        self.seen.add(key)
        return self.mapping.get(key)

    def quantity(self, key: str, dimension: str) -> float:
        raw = self._get(key)
        if raw is None:
            raise ValidationError(f"{self.path}.{key}: missing")
        return parse_quantity(raw, dimension, f"{self.path}.{key}")

    def optional_quantity(self, key: str, dimension: str, default):
        raw = self._get(key)
        if raw is None:
            return default
        return parse_quantity(raw, dimension, f"{self.path}.{key}")

    def integer(self, key: str, default=None) -> int:
        raw = self._get(key)
        if raw is None:
            if default is None:
                raise ValidationError(f"{self.path}.{key}: missing")
            return default
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ValidationError(f"{self.path}.{key}: expected an integer")
        return raw

    def boolean(self, key: str, default: bool) -> bool:
        raw = self._get(key)
        if raw is None:
            return default
        if not isinstance(raw, bool):
            raise ValidationError(f"{self.path}.{key}: expected true/false")
        return raw

    def string(self, key: str, default=None, choices=None) -> str:
        raw = self._get(key)
        if raw is None:
            if default is None:
                raise ValidationError(f"{self.path}.{key}: missing")
            return default
        if not isinstance(raw, str):
            raise ValidationError(f"{self.path}.{key}: expected a string")
        if choices and raw not in choices:
            raise ValidationError(
                f"{self.path}.{key}: must be one of {sorted(choices)}, got {raw!r}"
            )
        return raw

    def raw(self, key: str):
        return self._get(key)

    def finish(self) -> None:
        unknown = set(self.mapping) - self.seen
        if unknown:
            names = ", ".join(sorted(unknown))
            raise ValidationError(f"{self.path}: unknown key(s): {names}")


def _wrap_invariant(path: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        if isinstance(exc, (ValidationError, UnitsError)):
            raise
        raise ValidationError(f"{path}: {exc}") from exc


def load_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document given as text."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed scenario document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a mapping")
    return parse_document(doc)


def load_scenario_file(path) -> Scenario:
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    return load_scenario(text)


def default_scenario_text() -> str:
    return (
        resources.files("sma_neck").joinpath("data/default_scenario.yaml").read_text()
    )


def load_default_scenario() -> Scenario:
    return load_scenario(default_scenario_text())


def parse_document(doc: dict) -> Scenario:
    root = _Section(doc, "scenario")
    version = root.integer("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"scenario.schema_version: expected {SCHEMA_VERSION}, got {version}"
        )

    mat = _Section(root.raw("material") or {}, "material")
    material = _wrap_invariant(
        "material",
        SmaMaterial,
        young_martensite=mat.quantity("young_martensite", "pressure"),
        young_austenite=mat.quantity("young_austenite", "pressure"),
        poisson=mat.quantity("poisson", "dimensionless"),
        phase_transform_tensor=mat.quantity("phase_transform_tensor", "pressure"),
        thermal_expansion_factor=mat.quantity(
            "thermal_expansion_factor", "pressure_per_kelvin"
        ),
        austenite_start=mat.quantity("austenite_start", "temperature"),
        austenite_finish=mat.quantity("austenite_finish", "temperature"),
        martensite_start=mat.quantity("martensite_start", "temperature"),
        martensite_finish=mat.quantity("martensite_finish", "temperature"),
        stress_influence_reverse=mat.quantity(
            "stress_influence_reverse", "pressure_per_kelvin"
        ),
        stress_influence_forward=mat.quantity(
            "stress_influence_forward", "pressure_per_kelvin"
        ),
        resistance_martensite=mat.quantity("resistance_martensite", "resistance"),
        resistance_austenite=mat.quantity("resistance_austenite", "resistance"),
        specific_heat=mat.quantity("specific_heat", "specific_heat"),
        latent_heat=mat.quantity("latent_heat", "specific_energy"),
    )
    mat.finish()

    spr = _Section(root.raw("spring") or {}, "spring")
    spring = _wrap_invariant(
        "spring",
        SpringGeometry,
        wire_diameter=spr.quantity("wire_diameter", "length"),
        coil_diameter=spr.quantity("coil_diameter", "length"),
        active_coils=spr.quantity("active_coils", "count"),
        spring_mass=spr.quantity("spring_mass", "mass"),
        surface_area=spr.quantity("surface_area", "area"),
        rest_length=spr.quantity("rest_length", "length"),
    )
    initial_force = spr.optional_quantity("initial_force", "force", 0.0)
    if initial_force < 0.0:
        raise ValidationError("spring.initial_force: must be non-negative")
    initial_temperature = spr.optional_quantity(
        "initial_temperature", "temperature", None
    )
    initial_fraction = spr.optional_quantity(
        "initial_martensite_fraction", "dimensionless", 1.0
    )
    if not 0.0 <= initial_fraction <= 1.0:
        raise ValidationError("spring.initial_martensite_fraction: must lie in [0, 1]")
    spr.finish()

    envs = _Section(root.raw("environment") or {}, "environment")
    environment = _wrap_invariant(
        "environment",
        ThermalEnvironment,
        ambient_temperature=envs.quantity("ambient_temperature", "temperature"),
        convection_coefficient=envs.quantity("convection_coefficient", "convection"),
    )
    envs.finish()

    bb = _Section(root.raw("backbone") or {}, "backbone")
    backbone = _wrap_invariant(
        "backbone",
        BackboneGeometry,
        length=bb.quantity("length", "length"),
        bending_stiffness_x=bb.quantity("bending_stiffness_x", "bending_stiffness"),
        bending_stiffness_y=bb.quantity("bending_stiffness_y", "bending_stiffness"),
        torsional_stiffness=bb.quantity("torsional_stiffness", "bending_stiffness"),
    )
    bb.finish()

    head = _Section(root.raw("head") or {}, "head")
    head_mass = head.quantity("mass", "mass")
    if head_mass < 0.0:
        raise ValidationError("head.mass: must be non-negative")
    gravity_enabled = head.boolean("gravity", False)
    head.finish()

    pen = _Section(root.raw("pennate") or {}, "pennate")
    attachment_radius = pen.quantity("attachment_radius", "length")
    base_radius = pen.quantity("base_radius", "length")
    raw_azimuths = pen.raw("azimuths")
    if not isinstance(raw_azimuths, list) or len(raw_azimuths) != 3:
        raise ValidationError("pennate.azimuths: expected a list of 3 angles")
    azimuths = tuple(
        parse_quantity(a, "angle", f"pennate.azimuths[{i}]")
        for i, a in enumerate(raw_azimuths)
    )
    pennation_angle = pen.quantity("pennation_angle", "angle")
    if not 0.0 <= pennation_angle < 0.5 * math.pi:
        raise ValidationError("pennate.pennation_angle: must lie in [0 deg, 90 deg)")
    tendon_stiffness = pen.quantity("tendon_stiffness", "linear_stiffness")
    if tendon_stiffness <= 0.0:
        raise ValidationError("pennate.tendon_stiffness: must be positive")
    springs_per_unit = pen.integer("springs_per_unit", 2)
    if springs_per_unit < 1:
        raise ValidationError("pennate.springs_per_unit: must be at least 1")
    force_combination = pen.string(
        "force_combination", "additive", choices={"additive", "max"}
    )
    pen.finish()

    sim = _Section(root.raw("simulation") or {}, "simulation")
    dt = sim.quantity("dt", "time")
    duration = sim.quantity("duration", "time")
    solver_tolerance = sim.optional_quantity("solver_tolerance", "moment", 1e-9)
    max_newton = sim.integer("max_newton_iterations", 60)
    max_temp_step = sim.optional_quantity(
        "max_temperature_step", "temperature_delta", 1.0
    )
    sim.finish()
    if dt <= 0.0:
        raise ValidationError("simulation.dt: must be positive")
    if duration < dt:
        raise ValidationError("simulation.duration: must cover at least one step")
    if solver_tolerance <= 0.0:
        raise ValidationError("simulation.solver_tolerance: must be positive")
    if max_newton < 1:
        raise ValidationError("simulation.max_newton_iterations: must be at least 1")
    if max_temp_step <= 0.0:
        raise ValidationError("simulation.max_temperature_step: must be positive")

    raw_profile = root.raw("profile")
    segments: list[Segment] = []
    if raw_profile is not None:
        if not isinstance(raw_profile, list):
            raise ValidationError("profile: expected a list of segments")
        for i, raw_seg in enumerate(raw_profile):
            seg = _Section(raw_seg, f"profile[{i}]")
            unit_index = seg.integer("unit")
            if not 1 <= unit_index <= 3:
                raise ValidationError(f"profile[{i}].unit: must be 1, 2 or 3")
            start = seg.quantity("start", "time")
            end = seg.quantity("end", "time")
            amps = seg.quantity("current", "current")
            seg.finish()
            if start < 0.0:
                raise ValidationError(f"profile[{i}].start: must be non-negative")
            if end <= start:
                raise ValidationError(f"profile[{i}].end: must exceed start")
            if amps < 0.0:
                raise ValidationError(f"profile[{i}].current: must be non-negative")
            segments.append(Segment(unit_index, start, end, amps))
        by_unit: dict[int, list[Segment]] = {}
        for i, seg_obj in enumerate(segments):
            by_unit.setdefault(seg_obj.unit, []).append(seg_obj)
        for unit_index, segs in by_unit.items():
            ordered = sorted(segs, key=lambda s: s.start)
            for a, b in zip(ordered, ordered[1:]):
                if b.start < a.end:
                    raise ValidationError(
                        f"profile: segments for unit {unit_index} overlap at "
                        f"{b.start:.6g} s"
                    )

    calibration = None
    raw_cal = root.raw("calibration")
    if raw_cal is not None:
        cal = _Section(raw_cal, "calibration")
        raw_free = cal.raw("free")
        if not isinstance(raw_free, list) or not raw_free:
            raise ValidationError("calibration.free: expected a non-empty list")
        free = tuple(str(name) for name in raw_free)
        raw_bounds = cal.raw("bounds")
        if not isinstance(raw_bounds, dict):
            raise ValidationError("calibration.bounds: expected a mapping")
        bounds: dict[str, tuple[float, float]] = {}
        for name, pair in raw_bounds.items():
            if name not in CALIBRATABLE_PARAMETERS:
                raise ValidationError(
                    f"calibration.bounds.{name}: not a calibratable parameter"
                )
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError(
                    f"calibration.bounds.{name}: expected [low, high]"
                )
            dimension = CALIBRATABLE_PARAMETERS[name]
            lo = parse_quantity(pair[0], dimension, f"calibration.bounds.{name}[0]")
            hi = parse_quantity(pair[1], dimension, f"calibration.bounds.{name}[1]")
            bounds[name] = (lo, hi)
        raw_targets = cal.raw("targets")
        if not isinstance(raw_targets, list) or not raw_targets:
            raise ValidationError("calibration.targets: expected a non-empty list")
        targets = []
        for i, raw_target in enumerate(raw_targets):
            row = _Section(raw_target, f"calibration.targets[{i}]")
            amps = row.quantity("current", "current")
            angle = row.quantity("max_bending", "angle")
            row.finish()
            targets.append((amps, math.degrees(angle)))
        hold = cal.optional_quantity("hold", "time", 5.0)
        cal_unit = cal.integer("unit", 1)
        if not 1 <= cal_unit <= 3:
            raise ValidationError("calibration.unit: must be 1, 2 or 3")
        cal_dt = cal.optional_quantity("dt", "time", None)
        passes = cal.integer("passes", 2)
        golden = cal.integer("golden_iterations", 10)
        cal.finish()
        if passes < 1 or golden < 3:
            raise ValidationError(
                "calibration: passes must be >= 1 and golden_iterations >= 3"
            )
        calibration = CalibrationSpec(
            free=free,
            bounds=bounds,
            targets=tuple(targets),
            hold=hold,
            unit_index=cal_unit,
            dt=cal_dt,
            passes=passes,
            golden_iterations=golden,
        )

    out = _Section(root.raw("output") or {}, "output")
    run_id = out.string("run_id", "neck")
    out.finish()

    root.seen.update(
        {
            "material",
            "spring",
            "environment",
            "backbone",
            "head",
            "pennate",
            "simulation",
            "profile",
            "calibration",
            "output",
        }
    )
    root.finish()

    scenario = Scenario(
        schema_version=version,
        material=material,
        spring=spring,
        spring_initial_force=initial_force,
        spring_initial_temperature=initial_temperature,
        spring_initial_fraction=initial_fraction,
        environment=environment,
        backbone=backbone,
        head_mass=head_mass,
        gravity_enabled=gravity_enabled,
        attachment_radius=attachment_radius,
        base_radius=base_radius,
        azimuths=azimuths,
        pennation_angle=pennation_angle,
        tendon_stiffness=tendon_stiffness,
        springs_per_unit=springs_per_unit,
        force_combination=force_combination,
        dt=dt,
        duration=duration,
        solver_tolerance=solver_tolerance,
        max_newton_iterations=max_newton,
        max_temperature_step=max_temp_step,
        profile=tuple(segments),
        calibration=calibration,
        run_id=run_id,
    )
    # building the system re-checks the cross-type invariants (azimuth
    # spacing, degenerate attachments) before the scenario is handed out
    _wrap_invariant("scenario", scenario.build_system)
    return scenario


def scenario_to_document(scenario: Scenario) -> dict:
    """Canonical SI document for a scenario (inverse of parse_document)."""
    mat = scenario.material
    doc: dict = {
        "schema_version": scenario.schema_version,
        "material": {
            "young_martensite": format_quantity(mat.young_martensite, "pressure"),
            "young_austenite": format_quantity(mat.young_austenite, "pressure"),
            "poisson": mat.poisson,
            "phase_transform_tensor": format_quantity(
                mat.phase_transform_tensor, "pressure"
            ),
            "thermal_expansion_factor": format_quantity(
                mat.thermal_expansion_factor, "pressure_per_kelvin"
            ),
            "austenite_start": format_quantity(mat.austenite_start, "temperature"),
            "austenite_finish": format_quantity(mat.austenite_finish, "temperature"),
            "martensite_start": format_quantity(mat.martensite_start, "temperature"),
            "martensite_finish": format_quantity(
                mat.martensite_finish, "temperature"
            ),
            "stress_influence_reverse": format_quantity(
                mat.stress_influence_reverse, "pressure_per_kelvin"
            ),
            "stress_influence_forward": format_quantity(
                mat.stress_influence_forward, "pressure_per_kelvin"
            ),
            "resistance_martensite": format_quantity(
                mat.resistance_martensite, "resistance"
            ),
            "resistance_austenite": format_quantity(
                mat.resistance_austenite, "resistance"
            ),
            "specific_heat": format_quantity(mat.specific_heat, "specific_heat"),
            "latent_heat": format_quantity(mat.latent_heat, "specific_energy"),
        },
        "spring": {
            "wire_diameter": format_quantity(scenario.spring.wire_diameter, "length"),
            "coil_diameter": format_quantity(scenario.spring.coil_diameter, "length"),
            "active_coils": scenario.spring.active_coils,
            "spring_mass": format_quantity(scenario.spring.spring_mass, "mass"),
            "surface_area": format_quantity(scenario.spring.surface_area, "area"),
            "rest_length": format_quantity(scenario.spring.rest_length, "length"),
            "initial_force": format_quantity(scenario.spring_initial_force, "force"),
            "initial_martensite_fraction": scenario.spring_initial_fraction,
        },
        "environment": {
            "ambient_temperature": format_quantity(
                scenario.environment.ambient_temperature, "temperature"
            ),
            "convection_coefficient": format_quantity(
                scenario.environment.convection_coefficient, "convection"
            ),
        },
        "backbone": {
            "length": format_quantity(scenario.backbone.length, "length"),
            "bending_stiffness_x": format_quantity(
                scenario.backbone.bending_stiffness_x, "bending_stiffness"
            ),
            "bending_stiffness_y": format_quantity(
                scenario.backbone.bending_stiffness_y, "bending_stiffness"
            ),
            "torsional_stiffness": format_quantity(
                scenario.backbone.torsional_stiffness, "bending_stiffness"
            ),
        },
        "head": {
            "mass": format_quantity(scenario.head_mass, "mass"),
            "gravity": scenario.gravity_enabled,
        },
        "pennate": {
            "attachment_radius": format_quantity(
                scenario.attachment_radius, "length"
            ),
            "base_radius": format_quantity(scenario.base_radius, "length"),
            "azimuths": [format_quantity(a, "angle") for a in scenario.azimuths],
            "pennation_angle": format_quantity(scenario.pennation_angle, "angle"),
            "tendon_stiffness": format_quantity(
                scenario.tendon_stiffness, "linear_stiffness"
            ),
            "springs_per_unit": scenario.springs_per_unit,
            "force_combination": scenario.force_combination,
        },
        "simulation": {
            "dt": format_quantity(scenario.dt, "time"),
            "duration": format_quantity(scenario.duration, "time"),
            "solver_tolerance": format_quantity(scenario.solver_tolerance, "moment"),
            "max_newton_iterations": scenario.max_newton_iterations,
            "max_temperature_step": format_quantity(
                scenario.max_temperature_step, "temperature_delta"
            ),
        },
        "profile": [
            {
                "unit": seg.unit,
                "start": format_quantity(seg.start, "time"),
                "end": format_quantity(seg.end, "time"),
                "current": format_quantity(seg.current, "current"),
            }
            for seg in scenario.profile
        ],
        "output": {"run_id": scenario.run_id},
    }
    if scenario.spring_initial_temperature is not None:
        doc["spring"]["initial_temperature"] = format_quantity(
            scenario.spring_initial_temperature, "temperature"
        )
    if scenario.calibration is not None:
        cal = scenario.calibration
        doc["calibration"] = {
            "free": list(cal.free),
            "bounds": {
                name: [
                    format_quantity(lo, CALIBRATABLE_PARAMETERS[name]),
                    format_quantity(hi, CALIBRATABLE_PARAMETERS[name]),
                ]
                for name, (lo, hi) in cal.bounds.items()
            },
            "targets": [
                {
                    "current": format_quantity(amps, "current"),
                    "max_bending": format_quantity(math.radians(angle), "angle"),
                }
                for amps, angle in cal.targets
            ],
            "hold": format_quantity(cal.hold, "time"),
            "unit": cal.unit_index,
            "passes": cal.passes,
            "golden_iterations": cal.golden_iterations,
        }
        if cal.dt is not None:
            doc["calibration"]["dt"] = format_quantity(cal.dt, "time")
    return doc


def dump_scenario(scenario: Scenario) -> str:
    return yaml.safe_dump(
        scenario_to_document(scenario), sort_keys=False, default_flow_style=False
    )


def apply_override(doc: dict, assignment: str) -> None:
    """Apply one ``dotted.key=value`` override to the raw document in place.

    The path must already exist (a typo would otherwise silently add a key
    that validation then rejects anyway, but failing here gives a better
    message).  List items are addressed numerically, e.g. ``profile.0.current``.
    """
    if "=" not in assignment:
        raise ValidationError(f"override {assignment!r}: expected key=value")
    dotted, raw_value = assignment.split("=", 1)
    keys = dotted.strip().split(".")
    if not keys or any(not k for k in keys):
        raise ValidationError(f"override {assignment!r}: empty key path")
    try:
        value = yaml.safe_load(raw_value)
    except yaml.YAMLError as exc:
        raise ValidationError(f"override {assignment!r}: bad value: {exc}") from exc
    node = doc
    for i, key in enumerate(keys):
        is_last = i == len(keys) - 1
        if isinstance(node, list):
            try:
                idx = int(key)
                node[idx]
            except (ValueError, IndexError):
                raise ValidationError(
                    f"override {dotted!r}: no list item {key!r}"
                ) from None
            if is_last:
                node[idx] = value
            else:
                node = node[idx]
        elif isinstance(node, dict):
            if key not in node:
                raise ValidationError(f"override {dotted!r}: unknown key {key!r}")
            if is_last:
                node[key] = value
            else:
                node = node[key]
        else:
            raise ValidationError(f"override {dotted!r}: {key!r} is not a container")


def load_with_overrides(text: str, overrides=()) -> Scenario:
    """Parse ``text``, apply dotted-key overrides, then validate."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed scenario document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a mapping")
    for assignment in overrides:
        apply_override(doc, assignment)
    return parse_document(doc)

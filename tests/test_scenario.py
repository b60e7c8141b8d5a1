import math

import pytest

from sma_neck import ParseError, UnitsError, ValidationError
from sma_neck.scenario import (
    default_scenario_text,
    dump_scenario,
    load_with_overrides,
)


@pytest.fixture(scope="module")
def default_text():
    return default_scenario_text()


def test_default_scenario_loads(default_text):
    scenario = load_with_overrides(default_text)
    assert scenario.schema_version == 1
    assert [round(math.degrees(a)) for a in scenario.azimuths] == [60, 180, 300]
    assert scenario.springs_per_unit == 2
    assert scenario.force_combination == "additive"
    system = scenario.build_system()
    assert len(system.units) == 3


def test_malformed_yaml_is_parse_error():
    with pytest.raises(ParseError):
        load_with_overrides("material: [unclosed")
    with pytest.raises(ParseError):
        load_with_overrides("- just\n- a\n- list\n")


def test_band_ordering_violation_names_the_field(default_text):
    broken = default_text.replace("austenite_finish: 84 degC", "austenite_finish: 40 degC")
    with pytest.raises(ValidationError, match="material"):
        load_with_overrides(broken)


def test_profile_end_before_start(default_text):
    broken = default_text.replace(
        "- {unit: 1, start: 0 s, end: 5 s, current: 5 A}",
        "- {unit: 1, start: 5 s, end: 2 s, current: 5 A}",
    )
    with pytest.raises(ValidationError, match=r"profile\[0\].end"):
        load_with_overrides(broken)


def test_overlapping_segments_rejected(default_text):
    broken = default_text.replace(
        "- {unit: 1, start: 0 s, end: 5 s, current: 5 A}",
        "- {unit: 1, start: 0 s, end: 5 s, current: 5 A}\n"
        "  - {unit: 1, start: 4 s, end: 6 s, current: 3 A}",
    )
    with pytest.raises(ValidationError, match="overlap"):
        load_with_overrides(broken)


def test_unknown_key_rejected(default_text):
    broken = default_text.replace(
        "poisson: 0.33", "poisson: 0.33\n  possion_ratio: 0.3"
    )
    with pytest.raises(ValidationError, match="unknown key"):
        load_with_overrides(broken)


def test_missing_unit_is_units_error(default_text):
    broken = default_text.replace("wire_diameter: 1 mm", "wire_diameter: 0.001")
    with pytest.raises(UnitsError, match="spring.wire_diameter"):
        load_with_overrides(broken)


def test_schema_version_checked(default_text):
    broken = default_text.replace("schema_version: 1", "schema_version: 99")
    with pytest.raises(ValidationError, match="schema_version"):
        load_with_overrides(broken)


@pytest.mark.parametrize(
    "overrides",
    [(), ("spring.initial_temperature=300 K",), ("calibration.dt=null",)],
    ids=["bundled", "initial_temperature_set", "calibration_dt_unset"],
)
def test_dump_load_round_trip_is_identity(default_text, overrides):
    scenario = load_with_overrides(default_text, overrides)
    dumped = dump_scenario(scenario)
    again = load_with_overrides(dumped)
    assert again == scenario
    assert dump_scenario(again) == dumped


def test_override_equivalence(default_text):
    edited = default_text.replace("ambient_temperature: 25 degC", "ambient_temperature: 30 degC")
    via_file = load_with_overrides(edited)
    via_override = load_with_overrides(
        default_text, ['environment.ambient_temperature=30 degC']
    )
    assert via_file == via_override


def test_override_list_item(default_text):
    scenario = load_with_overrides(default_text, ["profile.0.current=7 A"])
    assert scenario.simulation.current_profile.segments[0].current == pytest.approx(7.0)


def test_override_unknown_path(default_text):
    with pytest.raises(ValidationError, match="unknown key"):
        load_with_overrides(default_text, ["material.not_a_field=3"])


def test_override_bad_syntax(default_text):
    with pytest.raises(ValidationError, match="key=value"):
        load_with_overrides(default_text, ["material.poisson"])


def test_springs_per_unit_override(default_text):
    scenario = load_with_overrides(default_text, ["pennate.springs_per_unit=3"])
    system = scenario.build_system()
    assert all(u.fibers == 3 for u in system.units)


def test_calibration_section_parsed(default_text):
    scenario = load_with_overrides(default_text)
    cal = scenario.calibration
    assert cal is not None
    assert set(cal.free) == {"convection_coefficient", "phase_transform_tensor"}
    assert len(cal.targets) == 5
    assert cal.targets[0][0] == pytest.approx(4.0)
    assert cal.targets[0][1] == pytest.approx(4.73)
    assert cal.hold == pytest.approx(5.0)


def test_calibration_bad_parameter_name(default_text):
    broken = default_text.replace(
        "free: [convection_coefficient, phase_transform_tensor]",
        "free: [ambient_temperature]",
    )
    with pytest.raises(ValidationError, match="calibration"):
        load_with_overrides(broken)


def test_initial_temperature_defaults_to_ambient(default_text):
    scenario = load_with_overrides(default_text)
    state = scenario.initial_spring_state()
    assert state.temperature == scenario.environment.ambient_temperature
    assert state.martensite_fraction == 1.0
    assert state.force == pytest.approx(2.0)

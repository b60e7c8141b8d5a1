"""Property tests of the command line: whatever a ``--set`` override or a
``--currents`` list says, the run ends with a documented exit code, a failure
prints exactly one ``error:`` line, and nothing ends in a traceback.  A
scenario that validates must also build everything a command builds from it.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sma_neck.cli import main
from sma_neck.units import DIMENSIONS, canonical_unit
from sma_neck.scenario import (
    CALIBRATABLE_PARAMETERS,
    FIELDS,
    Codec,
    apply_parameters,
    default_scenario_text,
    load_with_overrides,
)

# every dotted path of the schema: its sections, fields, list-row keys and
# bound names
SCHEMA_PATHS = sorted(
    ({f.path.rpartition(".")[0] for f in FIELDS} - {""})
    | {f.path for f in FIELDS}
    | {
        f"{f.path}.{row.path}"
        for f in FIELDS
        if isinstance(f.kind, Codec)
        for row in f.kind.fields
    }
    | {f"calibration.bounds.{name}" for name in CALIBRATABLE_PARAMETERS}
)
# list rows are addressed by index on the command line; the bare schema path
# stays in the draw as an address that must be rejected cleanly
PATHS = SCHEMA_PATHS + [
    path.replace(rows, f"{rows}.0", 1)
    for path in SCHEMA_PATHS
    for rows in ("profile", "calibration.targets", "pennate.azimuths")
    if path.startswith(f"{rows}.") or path == rows
]

UNITS = [
    "K", "degC", "m", "mm", "s", "ms", "A", "N", "deg", "rad", "GPa", "MPa/K",
    "W/(m^2 K)", "N/m", "N m", "N m^2", "g", "kg", "ohm", "J/kg", "J/(kg K)",
    "cm^2", "furlong",
]
NUMBERS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["0", "-0", "1e308", "1e-320", ".nan", ".inf", "-.inf", "nan", "1" + "0" * 400]
    ),
)
SCALARS = st.one_of(
    st.builds(lambda number, unit: f"{number} {unit}", NUMBERS, st.sampled_from(UNITS)),
    NUMBERS,
    st.sampled_from(["true", "null", "additive", "{}", "[]", "convection_coefficient"]),
    st.text(max_size=12),
)
SEGMENTS = st.builds(
    lambda unit, start, end, amps: (
        f"[{{unit: {unit}, start: {start}, end: {end}, current: {amps}}}]"
    ),
    st.sampled_from(["1", "3", "0", "x"]),
    st.sampled_from(["0 s", "-1 s", "2 s"]),
    st.sampled_from(["1 s", "3 s", "1 A"]),
    SCALARS,
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4).map(lambda items: "[" + ", ".join(items) + "]"),
    SEGMENTS,
)


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def assert_one_error_line(err):
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1, err


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(PATHS), value=VALUES)
def test_any_override_validates_or_fails_in_one_line(path, value):
    assignment = f"{path}={value}"
    code, err = run(["validate-config", "--quiet", "--set", assignment])
    assert code in (0, 1)
    assert "Traceback" not in err
    if code:
        assert_one_error_line(err)
        return
    scenario = load_with_overrides(default_scenario_text(), [assignment])
    scenario.build_system()
    scenario.build_config()
    cal = scenario.calibration
    if cal is not None:
        scenario.calibration_config(cal)
        for name in cal.free:
            for endpoint in cal.bounds[name]:
                apply_parameters(scenario, {name: endpoint}).build_system()


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    currents=st.one_of(
        st.text(alphabet="0123456789.,-+eEinfaINF x", max_size=16),
        st.lists(NUMBERS, min_size=1, max_size=4).map(",".join),
    )
)
def test_any_currents_text_is_handled(sweep_out, currents):
    code, err = run(
        ["sweep", f"--currents={currents}", "--hold", "0.002", "--out", str(sweep_out)]
    )
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert_one_error_line(err)


# Every numeric field, top-level or in the first profile and target row, but
# the step size and the duration, which the step cap and its CLI tests cover.
_NUMERIC = [
    (path, kind)
    for path, kind in [(f.path, f.kind) for f in FIELDS]
    + [
        (f"{f.path}.0.{row.path}", row.kind)
        for f in FIELDS
        if f.path in ("profile", "calibration.targets")
        for row in f.kind.fields
    ]
    if (kind in DIMENSIONS or kind == "integer")
    and path not in ("simulation.dt", "simulation.duration")
]


def _extreme_value(kind, negative, exponent):
    """A value of 1e-300 to 1e300 in magnitude, in the field's SI unit."""
    if kind == "integer":
        magnitude = 10 ** max(0, round(exponent))
        return str(-magnitude if negative else magnitude)
    number = repr(-(10.0**exponent) if negative else 10.0**exponent)
    unit = canonical_unit(kind)
    return f"{number} {unit}" if unit else number


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from(_NUMERIC),
    negative=st.booleans(),
    exponent=st.sampled_from([-300.0, 300.0]) | st.floats(-300.0, 300.0),
)
def test_extreme_magnitude_simulates_or_fails_in_one_line(
    sweep_out, field, negative, exponent
):
    path, kind = field
    assignment = f"{path}={_extreme_value(kind, negative, exponent)}"
    code, err = run(["validate-config", "--quiet", "--set", assignment])
    assert code in (0, 1)
    assert "Traceback" not in err
    if code:
        assert_one_error_line(err)
        return
    code, err = run(
        ["simulate", "--quiet", "--out", str(sweep_out), "--set", assignment,
         "--set", "simulation.duration=0.01 s"]
    )
    assert code in (0, 1, 2), (assignment, err)
    assert "Traceback" not in err
    if code:
        assert_one_error_line(err)


_BUNDLED = default_scenario_text().encode()


def _mutate(data: bytes, edit) -> bytes:
    kind, at, size, byte = edit
    at %= len(data) + 1
    if kind == "delete":
        return data[:at] + data[at + size:]
    if kind == "insert":
        return data[:at] + bytes([byte]) * size + data[at:]
    if kind == "flip":
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ byte]) + data[at + 1:]
    # nest: wrap a slice in brackets, deeply enough to pass the recursion limit
    depth = size * 400
    return data[:at] + b"[" * depth + data[at:at + size] + b"]" * depth + data[at + size:]


EDITS = st.tuples(
    st.sampled_from(["delete", "insert", "flip", "nest"]),
    st.integers(0, len(_BUNDLED)),
    st.integers(1, 8),
    st.integers(1, 255),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(EDITS, min_size=1, max_size=4))
def test_any_mutated_scenario_file_validates_or_fails_in_one_line(tmp_path_factory, edits):
    data = _BUNDLED
    for edit in edits:
        data = _mutate(data, edit)
    path = tmp_path_factory.getbasetemp() / "mutated.yaml"
    path.write_bytes(data)
    code, err = run(["validate-config", "--quiet", "--scenario", str(path)])
    assert code in (0, 1)
    assert "Traceback" not in err
    if code:
        assert_one_error_line(err)

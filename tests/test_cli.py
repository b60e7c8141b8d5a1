import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import sma_neck
from sma_neck.cli import main
from sma_neck.scenario import (
    default_scenario_text,
    dump_scenario,
    load_with_overrides,
)
from sma_neck.traceio import HEADER
from conftest import read_csv

FAST = ['--set', 'simulation.duration=0.3 s', '--set', 'simulation.dt=2 ms']


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "default.yaml"
    path.write_text(default_scenario_text())
    return path


def test_validate_config_ok(scenario_file, capsys):
    code = main(["validate-config", "--scenario", str(scenario_file)])
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_validate_config_invariant_violation(tmp_path, capsys):
    broken = default_scenario_text().replace(
        "martensite_start: 35 degC", "martensite_start: 20 degC"
    )
    path = tmp_path / "broken.yaml"
    path.write_text(broken)
    code = main(["validate-config", "--scenario", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation:")
    assert "\n" in err  # machine line plus human explanation


def test_validate_config_missing_file(tmp_path, capsys):
    code = main(["validate-config", "--scenario", str(tmp_path / "nope.yaml")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: parse:")


def test_simulate_writes_trace_and_summary(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(scenario_file), "--out", str(out), *FAST])
    assert code == 0
    captured = capsys.readouterr().out
    assert "max_theta_deg=" in captured
    assert "final_phi_deg=" in captured
    csv_path = out / "neck_trace.csv"
    assert csv_path.exists()
    assert len(csv_path.read_text().splitlines()) == 151


def test_simulate_with_plots(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["simulate", "--scenario", str(scenario_file), "--out", str(out), "--plots", *FAST]
    )
    assert code == 0
    for panel in ("phi", "theta", "force", "temperature", "xi"):
        assert (out / f"neck_{panel}.svg").exists()


def test_simulate_determinism_byte_identical(scenario_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out),
                     "--quiet", *FAST]) == 0
    assert (out_a / "neck_trace.csv").read_bytes() == (out_b / "neck_trace.csv").read_bytes()


def test_override_equivalence(tmp_path):
    # --set must produce the same bytes as editing the file
    edited = default_scenario_text().replace(
        "ambient_temperature: 25 degC", "ambient_temperature: 28 degC"
    )
    edited_path = tmp_path / "edited.yaml"
    edited_path.write_text(edited)
    default_path = tmp_path / "default.yaml"
    default_path.write_text(default_scenario_text())

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", str(edited_path), "--out", str(out_a),
                 "--quiet", *FAST]) == 0
    assert main(["simulate", "--scenario", str(default_path), "--out", str(out_b),
                 "--quiet", "--set", "environment.ambient_temperature=28 degC", *FAST]) == 0
    assert (out_a / "neck_trace.csv").read_bytes() == (out_b / "neck_trace.csv").read_bytes()


def test_sweep_table_and_csv(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["sweep", "--scenario", str(scenario_file), "--out", str(out),
         "--currents", "3,6", "--hold", "0.3", "--set", "simulation.dt=2 ms"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["I_A", "max_theta_deg"]
    csv_lines = (out / "neck_sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "I_A,max_theta_deg"
    assert len(csv_lines) == 3
    theta_3, theta_6 = (float(line.split(",")[1]) for line in csv_lines[1:])
    assert theta_6 > theta_3


def test_sweep_bad_currents(scenario_file, capsys):
    code = main(["sweep", "--scenario", str(scenario_file), "--currents", "4,x",
                 "--hold", "1.0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: validation:")


def test_solver_failure_exits_two(scenario_file, tmp_path, capsys):
    code = main(
        ["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path),
         "--set", "simulation.dt=0.5 s", "--set", "simulation.duration=1 s"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solver:")
    assert "t=" in err


def test_failed_sweep_row_prints_one_error_line(scenario_file, tmp_path, capsys):
    code = main(
        ["sweep", "--scenario", str(scenario_file), "--out", str(tmp_path),
         "--currents", "4,1e6", "--hold", "0.002"]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [err[0]]
    assert err[0].startswith("error: solver: 1 of 2 rows failed: at t=")
    csv_lines = (tmp_path / "neck_sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in csv_lines] == ["I_A", "4"]


def test_small_current_sweep_solves_every_row(scenario_file, tmp_path):
    # currents too weak to leave the straight pose's neighbourhood once
    # stalled the solve in the Cartesian chart
    code = main(
        ["sweep", "--scenario", str(scenario_file), "--out", str(tmp_path), "--quiet",
         "--currents", "0,0.01,0.05,0.1,0.2,0.3", "--hold", "2",
         "--set", "simulation.dt=2 ms"]
    )
    assert code == 0
    rows = (tmp_path / "neck_sweep.csv").read_text().splitlines()[1:]
    table = [tuple(float(v) for v in row.split(",")) for row in rows]
    assert [amps for amps, _ in table] == [0.0, 0.01, 0.05, 0.1, 0.2, 0.3]
    angles = [deg for amps, deg in table if amps > 0.0]
    assert 0.0 < angles[0]
    assert all(a < b for a, b in zip(angles, angles[1:]))


def test_calibrate_requires_section(tmp_path, capsys):
    scenario = load_with_overrides(default_scenario_text())
    trimmed = dump_scenario(replace(scenario, calibration=None))
    path = tmp_path / "no_cal.yaml"
    path.write_text(trimmed)
    code = main(["calibrate", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "calibration" in capsys.readouterr().err


def test_output_path_that_is_a_file_exits_two(scenario_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["sweep", "--scenario", str(scenario_file), "--out", str(taken),
                 "--currents", "4", "--hold", "0.3", *FAST])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: io: [Errno 17] File exists: ")
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
    assert "Traceback" not in err


def test_calibration_that_cannot_improve_exits_two(scenario_file, tmp_path, capsys):
    # the non-improving spec of test_calibrate.py: a 0.5 s step fails every
    # run, so the loss is a flat failure penalty
    code = main([
        "calibrate", "--scenario", str(scenario_file), "--out", str(tmp_path),
        "--set", "calibration.targets=[{current: 5 A, max_bending: 5 deg}]",
        "--set", "calibration.bounds.phase_transform_tensor=[-1.5 GPa, -0.3 GPa]",
        "--set", "calibration.dt=0.5 s", "--set", "calibration.hold=1 s",
        "--set", "calibration.passes=1", "--set", "calibration.golden_iterations=4",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: calibration: calibration did not improve: ")
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
    assert "Traceback" not in err


def test_unit_override_units_error(scenario_file, capsys):
    code = main(["validate-config", "--scenario", str(scenario_file),
                 "--set", "spring.wire_diameter=0.001"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: units:")


_DEEP_PATH = ".".join(["x"] * 50_000)


@pytest.mark.parametrize(
    "override, first",
    [
        ("dtt=2 ms", "scenario: unknown key(s): dtt"),
        ("simulation.dtt=2 ms", "simulation: unknown key(s): dtt"),
        (
            "calibration.bounds.poisson=[0.1, 0.2]",
            "calibration.bounds.poisson: not a calibratable parameter",
        ),
        ("profile.0.amps=5 A", "profile[0]: unknown key(s): amps"),
        (f"simulation.dtt.{_DEEP_PATH}=1", "simulation: unknown key(s): dtt"),
    ],
    ids=["top_level", "section", "bound", "profile_row", "deep_path"],
)
def test_override_typo_fails_as_an_unknown_key(scenario_file, capsys, override, first):
    """An override path the schema lacks is rejected by the parser, as the
    same key in a file is."""
    code = main(["validate-config", "--scenario", str(scenario_file), "--set", override])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == f"error: validation: {first}"
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1


@pytest.mark.parametrize("springs", [1, 2, 3])
def test_springs_per_unit_fill_the_fixed_columns(scenario_file, tmp_path, springs):
    code = main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path),
                 "--quiet", "--set", f"pennate.springs_per_unit={springs}", *FAST])
    assert code == 0
    columns = read_csv(tmp_path / "neck_trace.csv")
    assert list(columns) == HEADER and len(HEADER) == 20
    for k in (1, 2, 3):
        assert columns[f"T{2 * k - 1}_K"] == columns[f"T{2 * k}_K"]
        assert columns[f"xi{2 * k - 1}"] == columns[f"xi{2 * k}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--currents", "-3", "--hold", "0.3"],
        ["sweep", "--currents", "nan", "--hold", "0.3"],
        ["sweep", "--currents", "4,inf", "--hold", "0.3"],
        ["sweep", "--currents", "4", "--hold", "nan"],
        ["sweep", "--currents", "4", "--hold", "inf"],
        ["sweep", "--currents", "4", "--hold", "0.0005"],
        ["simulate", "--set", "simulation.dt=nan s"],
        ["simulate", "--set", "simulation.duration=inf s"],
        ["simulate", "--set", "profile.0.current=nan A"],
        ["simulate", "--set", "material.poisson=.nan"],
        ["simulate", "--set", "spring.active_coils=1" + "0" * 400],
        ["calibrate", "--set", "calibration.dt=0 s"],
        ["calibrate", "--set", "calibration.hold=1 ms"],
        [
            "calibrate",
            "--set",
            "calibration.bounds.convection_coefficient=[-100 W/(m^2 K), 1 W/(m^2 K)]",
        ],
    ],
    ids=lambda argv: " ".join(argv)[:60],
)
def test_invalid_number_is_one_error_line(scenario_file, tmp_path, capsys, argv):
    command, *rest = argv
    code = main([command, "--scenario", str(scenario_file), "--out", str(tmp_path), *rest])
    assert code == 1
    err = capsys.readouterr().err
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "override, field",
    [
        # d**3 underflows to 0: a ZeroDivisionError in shear_stress before
        ("spring.wire_diameter=1e-200 m", "shear stress per newton"),
        # D**3 overflows: an OverflowError in the force-law coefficients before
        ("spring.coil_diameter=1e200 m", "force-law stiffness"),
        # a subnormal heat capacity: the first step moved the temperature NaN K
        ("spring.spring_mass=1e-320 kg", "heat capacity"),
        # 2 (1 + poisson) = 0: a ZeroDivisionError in the modulus mix before
        ("material.poisson=-1", "force-law stiffness"),
        # normal at fraction 0, 4.59e-309 N/m at fraction 1
        ("material.young_martensite=1e-300 Pa",
         "force-law stiffness at martensite fraction 1"),
        # m L overflows: the first step's heat balance overflowed
        pytest.param(
            ("material.latent_heat=1e308 J/kg", "spring.spring_mass=10 kg"),
            "latent heat per spring (spring_mass, material.latent_heat)",
            id="material.latent_heat=1e308 J/kg, spring.spring_mass=10 kg",
        ),
        # both degenerate: the shear stress is checked first
        pytest.param(
            ("spring.wire_diameter=1e-200 m", "spring.coil_diameter=1e200 m"),
            "shear stress per newton",
            id="spring.wire_diameter=1e-200 m, spring.coil_diameter=1e200 m",
        ),
    ],
)
@pytest.mark.parametrize("command", ["validate-config", "simulate"])
def test_degenerate_spring_constant_fails_validation(
    scenario_file, tmp_path, capsys, command, override, field
):
    overrides = (override,) if isinstance(override, str) else override
    sets = [arg for assignment in overrides for arg in ("--set", assignment)]
    code = main([command, "--scenario", str(scenario_file), "--out", str(tmp_path),
                 *sets, *FAST])
    assert code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        err.splitlines()[0]
    ]
    assert err.startswith(f"error: validation: spring: {field}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "override",
    ["material.phase_transform_tensor=0 Pa", "material.thermal_expansion_factor=0 Pa/K"],
)
def test_zero_force_law_coefficient_is_allowed(scenario_file, capsys, override):
    # a zero transformation or thermal coefficient scales a zero material
    # constant; only the stiffness must stay away from zero
    code = main(["validate-config", "--scenario", str(scenario_file), "--set", override])
    assert code == 0
    captured = capsys.readouterr()
    assert "ok" in captured.out
    assert captured.err == ""


def test_overflowing_heat_balance_is_not_blamed_on_dt(scenario_file, tmp_path, capsys):
    # the heat capacity is a normal float, so validation passes; the first
    # RK4 stage then overflows, and no step size would cure that
    code = main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path),
                 "--set", "material.specific_heat=1e-300 J/(kg K)", *FAST])
    assert code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        err.splitlines()[0]
    ]
    assert err.startswith("error: solver: at t=0.002 s (step 1): heat balance overflowed")
    assert "dt" not in err
    assert "Traceback" not in err


def test_degenerate_calibration_bound_names_the_bound(scenario_file, capsys):
    # the bound builds a subnormal convective conductance; the build check
    # that rejects it must say which bound was at fault
    code = main([
        "validate-config", "--scenario", str(scenario_file), "--set",
        "calibration.bounds.convection_coefficient=[1e-320 W/(m^2 K), 98 W/(m^2 K)]",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        err.splitlines()[0]
    ]
    assert err.startswith(
        "error: validation: calibration.bounds.convection_coefficient: spring: "
        "convective conductance"
    )


@pytest.mark.parametrize(
    "override, field",
    [
        # 6e300, 1e12 and 5e11 steps: each once ran until it was killed
        ("simulation.dt=1e-300 s", "simulation"),
        ("simulation.duration=1e9 s", "simulation"),
        ("calibration.hold=1e9 s", "calibration.hold"),
    ],
)
@pytest.mark.parametrize(
    "command, argv",
    [
        ("validate-config", []),
        ("simulate", []),
        ("sweep", ["--currents", "5", "--hold", "1"]),
        ("calibrate", []),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_run_past_the_step_cap_fails_validation(
    scenario_file, tmp_path, capsys, command, argv, override, field
):
    code = main([command, "--scenario", str(scenario_file), "--out", str(tmp_path),
                 *argv, "--set", override])
    assert code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        err.splitlines()[0]
    ]
    assert err.startswith(f"error: validation: {field}: ")
    assert "at most 1000000" in err


def test_sweep_hold_past_the_step_cap_fails_validation(scenario_file, tmp_path, capsys):
    code = main(["sweep", "--scenario", str(scenario_file), "--out", str(tmp_path),
                 "--currents", "5", "--hold", "1e9"])
    assert code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        err.splitlines()[0]
    ]
    assert err.startswith("error: validation: --hold: ")
    assert "at most 1000000" in err


def test_cli_import_leaves_out_numpy_and_the_network_stack():
    # numpy's import about doubles the start-up time of every command, and
    # xml.sax.saxutils would pull in urllib.request and http.client
    probe = (
        "import sys, sma_neck.cli; "
        "print(sorted(m for m in ('numpy', 'urllib.request', 'http.client') "
        "if m in sys.modules))"
    )
    src = str(Path(sma_neck.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {probe}"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "run_id",
    ["../x", "{tmp}/abs", "a/b", "a\\b", ".", "..", "''", '"a\\0b"'],
)
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_run_id_outside_the_output_directory_fails_validation(
    scenario_file, tmp_path, capsys, command, run_id
):
    # outputs are named <run_id>_trace.csv etc.; a run_id that names another
    # directory once wrote there and exited 0
    argv = ["--currents", "5", "--hold", "0.3"] if command == "sweep" else []
    code = main([command, "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "a" / "out"), *argv, *FAST,
                 "--set", f"output.run_id={run_id.format(tmp=tmp_path)}"])
    assert code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        err.splitlines()[0]
    ]
    assert err.startswith("error: validation: output.run_id: ")
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize(
    "run_id",
    ["a" * 240, "\u00e9" * 120, "a" * 100 + "\u20ac" * 47, '"a\\ud800b"'],
    ids=["240 ascii", "240 bytes of 2", "241 bytes of 3", "lone surrogate"],
)
def test_run_id_too_long_for_a_file_name_fails_validation(
    scenario_file, tmp_path, capsys, run_id
):
    # a file name holds 255 bytes and the longest output suffix takes 16; a
    # longer run_id once ran the whole simulation, then failed to write
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(scenario_file), "--out", str(out),
                 *FAST, "--set", f"output.run_id={run_id}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation: output.run_id: ")
    assert "at most 239 UTF-8 bytes" in err
    assert not out.exists()


@pytest.mark.parametrize("run_id", ["a" * 239, "a" + "\u00e9" * 119])
def test_run_id_of_239_bytes_names_every_output(scenario_file, tmp_path, run_id):
    code = main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path),
                 "--plots", "--quiet", *FAST, "--set", f"output.run_id={run_id}"])
    assert code == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"{run_id}_{name}" for name in
        ["trace.csv", "phi.svg", "theta.svg", "force.svg", "temperature.svg", "xi.svg"]
    )


def test_azimuths_not_120_deg_apart_fail_validation(scenario_file, capsys):
    code = main(["validate-config", "--scenario", str(scenario_file),
                 "--set", "pennate.azimuths=[60 deg, 150 deg, 300 deg]"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == (
        "error: validation: pennate.azimuths: must be mutually 120 deg apart"
    )


@pytest.mark.parametrize(
    "overrides, first",
    [
        (
            ("profile=[{unit: 1, start: 0 s, end: 5 s, current: 5 A}, "
             "{unit: 1, start: 1 s, end: 3 s, current: 8 A}]",),
            "profile: segments for unit 1 overlap at 1 s",
        ),
        (("calibration.dt=0 s",), "calibration.dt: must be positive"),
        (("calibration.dt=-1 ms",), "calibration.dt: must be positive"),
        (
            ("backbone.length=1e-12 m",),
            "scenario: unit 1: head and base attachments coincide at rest",
        ),
        (
            # the spring constants are checked before the rest geometry
            ("backbone.length=1e-12 m", "spring.wire_diameter=1e-200 m"),
            "spring: shear stress per newton (wire_diameter, coil_diameter) is inf Pa; "
            "it must be finite and at least 2.23e-308 in magnitude",
        ),
    ],
    ids=["overlap", "dt_zero", "dt_negative", "coincident", "spring_first"],
)
def test_run_rule_fails_validation_naming_its_field(
    scenario_file, capsys, overrides, first
):
    sets = [arg for assignment in overrides for arg in ("--set", assignment)]
    code = main(["validate-config", "--scenario", str(scenario_file), *sets])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == f"error: validation: {first}"
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1


def test_max_force_combination_solves_every_step(scenario_file, tmp_path):
    code = main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path),
                 "--quiet", "--set", "pennate.force_combination=max",
                 "--set", "simulation.duration=1 s", "--set", "simulation.dt=2 ms",
                 "--set", "profile=[{unit: 1, start: 0 s, end: 1 s, current: 8 A}]"])
    assert code == 0
    residuals = read_csv(tmp_path / "neck_trace.csv")["residual_Nm"]
    assert len(residuals) == 500
    assert all(r < 1e-9 for r in residuals)


def test_scenario_file_that_is_not_utf8_fails_to_parse(tmp_path, capsys):
    path = tmp_path / "utf16.yaml"
    path.write_bytes(b"\xff\xfe" + default_scenario_text().encode("utf-16-le"))
    code = main(["validate-config", "--scenario", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: cannot read scenario {path}: 'utf-8' codec")
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1


@pytest.mark.parametrize(
    "source, detail",
    [
        # RecursionError inside PyYAML
        ("file", "malformed scenario document: nested too deeply"),
        ("material", "override 'material': nested too deeply"),
        # ValueError from int() past its 4300-digit limit
        ("pennate.springs_per_unit", "override 'pennate.springs_per_unit': Exceeds"),
    ],
)
def test_oversized_yaml_fails_to_parse(tmp_path, capsys, source, detail):
    if source == "file":
        path = tmp_path / "deep.yaml"
        path.write_text("[" * 20_000 + "]" * 20_000)
        argv = ["--scenario", str(path)]
    elif source == "material":
        argv = ["--set", "material=" + "[" * 5_000 + "]" * 5_000]
    else:
        argv = ["--set", f"{source}=1" + "0" * 5_000]
    code = main(["validate-config", *argv])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: {detail}")
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
    assert "Traceback" not in err


# the most bytes one line of stderr may take, whatever the size of the input
# value its error message quotes
MAX_ERROR_LINE = 1024
_MEGABYTE = "x" * 1_000_000


def _alias_chain(depth: int) -> str:
    """A YAML flow list whose item i is a pair of item i-1, by alias: its
    last item repr()s to 2^(depth+1) leaves."""
    items = ["&a0 [x, x]"] + [f"&a{i} [*a{i - 1}, *a{i - 1}]" for i in range(1, depth + 1)]
    return "[" + ", ".join(items) + "]"


def _assert_one_bounded_error(code, err, kind):
    assert code == 1
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("error: ")] == [lines[0]]
    assert lines[0].startswith(f"error: {kind}: ")
    assert max(len(line.encode()) for line in lines) <= MAX_ERROR_LINE
    assert "Traceback" not in err


_LEAVES = {"poisson": "material", "wire_diameter": "spring",
           "force_combination": "pennate", "run_id": "output", "free": "calibration"}


@pytest.mark.parametrize("route", ["file", "set"])
@pytest.mark.parametrize(
    "leaf, value, kind",
    [
        *(
            (leaf, _alias_chain(depth), kind)
            for depth in (1, 18, 30)
            for leaf, kind in (
                ("poisson", "units"), ("wire_diameter", "units"), ("free", "validation")
            )
        ),
        ("poisson", _MEGABYTE, "units"),
        ("wire_diameter", "1 " + _MEGABYTE, "units"),
        ("wire_diameter", "1" + "0" * 4000, "units"),  # no unit, 4001 digits
        ("force_combination", _MEGABYTE, "validation"),
        ("run_id", _MEGABYTE, "validation"),
        ("free", f"[{_MEGABYTE}]", "validation"),
        (None, _MEGABYTE, "validation"),  # an unknown key
    ],
    ids=[
        *(f"{leaf}-chain{depth}" for depth in (1, 18, 30)
          for leaf in ("poisson", "wire_diameter", "free")),
        "poisson-1MB", "wire_diameter-unit-1MB", "wire_diameter-4001-digits", "force_combination-1MB",
        "run_id-1MB", "free-1MB", "unknown-key-1MB",
    ],
)
def test_huge_input_value_gives_one_bounded_error_line(
    tmp_path, capsys, route, leaf, value, kind
):
    """An input value is quoted in at most a few hundred characters: a YAML
    alias chain 18 levels deep once printed a 5.2 MB line, and one of 30
    levels would need gigabytes to quote."""
    code = main(["validate-config", *_validate_argv(tmp_path, route, leaf, value)])
    _assert_one_bounded_error(code, capsys.readouterr().err, kind)


def _validate_argv(tmp_path, route, leaf, value):
    """``validate-config`` arguments that put ``value`` at ``leaf`` of the
    bundled document (or under a new key ``value`` when ``leaf`` is None),
    in a scenario file or by ``--set``."""
    if route == "set":
        return ["--set", f"{value}=1" if leaf is None else f"{_LEAVES[leaf]}.{leaf}={value}"]
    lines = default_scenario_text().splitlines()
    if leaf is None:
        # an explicit key: a simple key holds at most 1024 characters
        lines += [f"? {value}", ": 1"]
    else:
        (row,) = [i for i, line in enumerate(lines) if line.startswith(f"  {leaf}:")]
        lines[row] = f"  {leaf}: {value}"
    path = tmp_path / "huge.yaml"
    path.write_text("\n".join(lines) + "\n")
    return ["--scenario", str(path)]


@pytest.mark.parametrize("route, kind", [("file", "parse"), ("set", "validation")])
@pytest.mark.parametrize(
    "value", ["*" + _MEGABYTE, "!!python/name:" + _MEGABYTE], ids=["alias", "tag"]
)
def test_yaml_error_quoting_a_huge_name_gives_bounded_lines(
    tmp_path, capsys, route, kind, value
):
    # PyYAML's message quotes the whole undefined alias or unknown tag
    code = main(["validate-config", *_validate_argv(tmp_path, route, "poisson", value)])
    _assert_one_bounded_error(code, capsys.readouterr().err, kind)


@pytest.mark.parametrize(
    "currents", [_MEGABYTE, "1,-" + "1" * 1_000_000], ids=["unparsed", "negative"]
)
def test_huge_currents_give_one_bounded_error_line(tmp_path, capsys, currents):
    code = main(["sweep", "--out", str(tmp_path), "--currents", currents, "--hold", "1"])
    _assert_one_bounded_error(code, capsys.readouterr().err, "validation")
    assert list(tmp_path.iterdir()) == []


def test_huge_out_path_gives_one_bounded_error_line(tmp_path, capsys):
    # the operating system refuses the name; its message quoted it whole
    out = tmp_path / ("x" * 300_000)
    code = main(["sweep", "--currents", "4", "--hold", "0.01", "--set", "simulation.dt=2 ms",
                 "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("error: io: [Errno ")
    assert "File name too long: '" in lines[0]
    assert max(len(line.encode()) for line in lines) <= MAX_ERROR_LINE


@pytest.mark.parametrize(
    "argv, first",
    [
        (["--set", "material.poisson=[1, a, {b: 2, a: 3}]"],
         "units: material.poisson: expected a plain number, got [1, 'a', {'b': 2, 'a': 3}]"),
        (["--set", "spring.wire_diameter=1 furlong"],
         "units: spring.wire_diameter: unknown unit 'furlong' (accepted: cm, m, mm)"),
        (["--set", "pennate.force_combination=mean"],
         "validation: pennate.force_combination: must be one of ['additive', 'max'], "
         "got 'mean'"),
        (["--set", "schema_version=2"], "validation: scenario.schema_version: expected 1, got 2"),
        (["--set", "calibration.free=[poisson]"],
         "validation: calibration.free: 'poisson' is not calibratable (allowed: "
         "convection_coefficient, pennation_angle, phase_transform_tensor, "
         "tendon_stiffness)"),
        (["--set", "nope"], "validation: override 'nope': expected key=value"),
        (["--set", "profile.7.current=1 A"],
         "validation: override 'profile.7.current': no list item '7'"),
    ],
    ids=["list", "unit", "choice", "schema", "free", "no_equals", "list_item"],
)
def test_short_values_are_quoted_as_repr_quotes_them(capsys, argv, first):
    code = main(["validate-config", *argv])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[0] == f"error: {first}"


def test_long_path_under_an_unset_field_names_the_field(capsys):
    """A long override path under an unset field nests one mapping per key.
    Its message quotes four levels of them; the full repr once recursed past
    the interpreter's limit."""
    code = main(["validate-config", "--set", f"spring.initial_temperature.{_DEEP_PATH}=1 K"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == (
        "error: units: spring.initial_temperature: expected '<number> <unit>', "
        "got {'x': {'x': {'x': {'x': {...}}}}}"
    )
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1

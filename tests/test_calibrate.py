import math
import re
import struct
from dataclasses import replace

import pytest

from sma_neck import NonImprovement, calibrate
from sma_neck.calibrate import (
    _GOLDEN,
    _golden,
    apply_parameters,
    current_parameters,
    evaluate_targets,
)
from sma_neck.scenario import CalibrationSpec, ValidationError, load_default_scenario


@pytest.fixture(scope="module")
def base_scenario():
    return load_default_scenario()


def quick_spec(targets, **kw):
    defaults = dict(
        free=("convection_coefficient", "phase_transform_tensor"),
        bounds={
            "convection_coefficient": (85.0, 98.0),
            "phase_transform_tensor": (-1.5e9, -0.3e9),
        },
        targets=tuple(targets),
        hold=2.0,
        dt=5e-3,
        passes=2,
        golden_iterations=8,
    )
    defaults.update(kw)
    return CalibrationSpec(**defaults)


def test_already_optimal_returns_start(base_scenario):
    # target equals the model's own output: loss starts at ~0 and the
    # starting parameters come back unchanged
    probe = quick_spec([(6.0, 10.0)])
    start = current_parameters(base_scenario, probe.free)
    _, achieved = evaluate_targets(base_scenario, probe, start)
    spec = quick_spec([achieved[0]], passes=1, golden_iterations=4)
    result = calibrate(base_scenario, spec)
    assert result.loss == pytest.approx(0.0, abs=1e-12)
    assert result.parameters == start


def test_synthetic_recovery(base_scenario):
    # self-consistency: targets generated from a known parameter set are
    # recovered within 5% per parameter
    truth = {"convection_coefficient": 92.0, "phase_transform_tensor": -0.75e9}
    probe = quick_spec([(5.0, 1.0), (8.0, 1.0)])
    _, achieved = evaluate_targets(base_scenario, probe, truth)
    spec = quick_spec(achieved, passes=3, golden_iterations=12)
    result = calibrate(base_scenario, spec)
    assert result.loss < 1e-4
    for name, value in truth.items():
        assert result.parameters[name] == pytest.approx(value, rel=0.05)


def test_parameters_stay_inside_bounds(base_scenario):
    # absurdly large targets drive the fit to the bounds, never past them
    spec = quick_spec([(8.0, 70.0)], passes=1, golden_iterations=6)
    result = calibrate(base_scenario, spec)
    for name, value in result.parameters.items():
        lo, hi = spec.bounds[name]
        assert lo <= value <= hi


def test_non_improvement_reports_diagnostics(base_scenario):
    # a time step far beyond the stability bound fails every run, so the
    # loss is a flat failure penalty and cannot improve
    spec = quick_spec([(5.0, 5.0)], dt=0.5, hold=1.0, passes=1, golden_iterations=4)
    with pytest.raises(NonImprovement) as err:
        calibrate(base_scenario, spec)
    assert err.value.start_loss >= 1e12
    assert err.value.evaluations > 0


def test_apply_parameters_round_trip(base_scenario):
    updated = apply_parameters(
        base_scenario,
        {
            "convection_coefficient": 90.0,
            "phase_transform_tensor": -0.8e9,
            "tendon_stiffness": 1500.0,
            "pennation_angle": math.radians(25.0),
        },
    )
    assert updated.environment.convection_coefficient == 90.0
    assert updated.material.phase_transform_tensor == -0.8e9
    assert updated.tendon_stiffness == 1500.0
    assert updated.pennation_angle == pytest.approx(math.radians(25.0))
    assert current_parameters(
        updated,
        (
            "convection_coefficient",
            "phase_transform_tensor",
            "tendon_stiffness",
            "pennation_angle",
        ),
    ) == {
        "convection_coefficient": 90.0,
        "phase_transform_tensor": -0.8e9,
        "tendon_stiffness": 1500.0,
        "pennation_angle": math.radians(25.0),
    }


def test_spec_validation():
    with pytest.raises(Exception):
        CalibrationSpec(free=(), bounds={}, targets=((4.0, 4.73),))
    with pytest.raises(Exception):
        CalibrationSpec(
            free=("ambient_temperature",),
            bounds={"ambient_temperature": (1.0, 2.0)},
            targets=((4.0, 4.73),),
        )
    with pytest.raises(Exception):
        CalibrationSpec(
            free=("convection_coefficient",),
            bounds={"convection_coefficient": (98.0, 85.0)},
            targets=((4.0, 4.73),),
        )


@pytest.mark.parametrize(
    "changes, message",
    [
        # a fractional count ended the search in a TypeError
        ({"passes": 1.5}, "calibration.passes: expected an integer"),
        ({"golden_iterations": 2.5}, "calibration.golden_iterations: expected an integer"),
        # no pass ended in a NonImprovement after the start evaluation
        ({"passes": 0}, "calibration.passes: must be at least 1"),
        ({"golden_iterations": 2}, "calibration.golden_iterations: must be at least 3"),
    ],
)
def test_spec_rejects_counts_the_schema_rejects(changes, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        quick_spec([(8.0, 30.0)], **changes)


_TARGETS_MESSAGE = (
    "calibration.targets: currents must be non-negative and target angles "
    "strictly positive"
)


@pytest.mark.parametrize(
    "targets, changes, message",
    [
        # calibrate returned loss NaN with the starting parameters
        ([(5.0, math.nan)], {}, _TARGETS_MESSAGE),
        ([(5.0, math.inf)], {}, _TARGETS_MESSAGE),
        # ended in a bare "segment current ..." error
        ([(math.nan, 5.0)], {}, _TARGETS_MESSAGE),
        ([(math.inf, 5.0)], {}, _TARGETS_MESSAGE),
        # ended in a bare "duration must cover at least one step"
        ([(8.0, 30.0)], {"hold": math.nan}, "calibration.hold: must be positive"),
        ([(8.0, 30.0)], {"hold": math.inf}, "calibration.hold: must be positive"),
    ],
    ids=["nan_angle", "inf_angle", "nan_current", "inf_current", "nan_hold", "inf_hold"],
)
def test_spec_rejects_nan_and_infinite_values(targets, changes, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        quick_spec(targets, **changes)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
def test_spec_rejects_a_step_that_is_not_positive_and_finite(dt):
    # only the schema checked it: a library spec reached calibrate, which
    # failed with a bare "dt must be positive and finite"
    spec = quick_spec([(8.0, 30.0)])
    with pytest.raises(ValidationError, match="^calibration.dt: must be positive$"):
        replace(spec, dt=dt)


def test_unit_the_system_lacks_is_rejected(base_scenario):
    # fitting rows that had no current would report a converged fit
    spec = quick_spec([(8.0, 30.0)], unit_index=4, passes=1, golden_iterations=3)
    with pytest.raises(ValueError, match="unit 4, which the system does not have"):
        calibrate(base_scenario, spec)


def _full_golden(loss, lo, hi, iterations):
    """The golden-section loop as ``calibrate`` ran it before it could end
    early: every one of ``iterations`` steps."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = loss(x1)
    f2 = loss(x2)
    for _ in range(iterations):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = loss(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = loss(x2)
    return (x1, f1), (x2, f2)


def _cached(fn):
    cache = {}

    def loss(x):
        if x not in cache:
            cache[x] = fn(x)
        return cache[x]

    return loss, cache


@pytest.mark.parametrize(
    "fn, lo, hi",
    [
        # the bracket shrinks through subnormals for 1,550 iterations
        (lambda x: x * x, 0.0, 1.0),
        (lambda x: -x, -1.0, 0.0),
        (lambda x: x, 0.0, 1e-300),
        # minimum at the upper bound, at the lower bound, inside; flat
        (lambda x: (x - 98.0) ** 2, 85.0, 98.0),
        (lambda x: (x - 85.0) ** 2, 85.0, 98.0),
        (lambda x: abs(x - 91.3), 85.0, 98.0),
        (lambda x: 1.0, 85.0, 98.0),
        (lambda x: -x, -3e9, -0.55e9),
        (lambda x: (x + 0.75e9) ** 2, -1.5e9, -0.3e9),
    ],
)
@pytest.mark.parametrize("iterations", [0, 3, 72, 73, 79, 80, 200, 201, 1550, 1551, 3000, 3001])
def test_golden_returns_what_the_full_loop_returns(fn, lo, hi, iterations):
    loss, cache = _cached(fn)
    full_loss, full_cache = _cached(fn)
    got = _golden(loss, lo, hi, iterations)
    want = _full_golden(full_loss, lo, hi, iterations)
    assert struct.pack("4d", *got[0], *got[1]) == struct.pack("4d", *want[0], *want[1])
    # the same candidates, so calibrate's evaluation count is the same
    assert cache.keys() == full_cache.keys()


def test_golden_ends_on_a_repeated_state():
    loss, cache = _cached(lambda x: x * x)
    assert _golden(loss, 0.0, 1.0, 10**12) == _golden(loss, 0.0, 1.0, 1552)
    assert len(cache) < 1600


def test_huge_pass_count_returns_the_result_of_40_passes(base_scenario):
    # every interval is a single point well before pass 40
    spec = quick_spec([(8.0, 4.0)], hold=0.5, passes=40, golden_iterations=8)
    modest = calibrate(base_scenario, spec)
    huge = calibrate(base_scenario, replace(spec, passes=10**12))
    assert huge == modest


def test_huge_golden_iteration_count_returns_the_result_of_200(base_scenario):
    spec = quick_spec([(8.0, 4.0)], hold=0.5, passes=2, golden_iterations=200)
    modest = calibrate(base_scenario, spec)
    huge = calibrate(base_scenario, replace(spec, golden_iterations=10**12))
    assert huge == modest

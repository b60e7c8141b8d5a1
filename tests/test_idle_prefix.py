"""A run that continues from a stored idle prefix against the same run from
the start, bit for bit.

``simulate(..., prefixes=d)`` stores each run's idle prefix (the loop state
at the top of the first step in which a spring leaves the idle path) under
its config, and a later run of the same config whose system differs only in
the size of ``phase_transform_tensor`` continues from it.  Each case here
compares every column and marker of the continued trace with a run from the
start (``struct`` bits, so that -0.0 and 0.0 differ) and counts the pose
solves the continued run made, to show that it did continue: one per step
it ran, plus the rest solve of a run from the start.
"""

from __future__ import annotations

import math
import struct
from dataclasses import replace

import pytest

import sma_neck.engine as engine
from sma_neck import CurrentProfile, SimTrace, load_default_scenario, simulate
from sma_neck.scenario import apply_parameters

# inside the bundled calibration bounds, [-3 GPa, -0.55 GPa]
TENSORS = (-0.55e9, -1.2e9, -2.1e9, -3e9)


def _bits(value):
    if isinstance(value, int):
        return value
    assert type(value) is float, value
    return struct.pack("<d", value)


def assert_same_trace(got: SimTrace, want: SimTrace) -> None:
    pairs = zip(got._arrays(), want._arrays(), strict=True)
    for (name, rows_got), (_, rows_want) in pairs:
        assert rows_got.typecode == rows_want.typecode, name
        assert len(rows_got) == len(rows_want), name
        for i, (x, y) in enumerate(zip(rows_got, rows_want)):
            assert type(x) is type(y), (name, i, x, y)
            assert _bits(x) == _bits(y), (name, i, x, y)
    assert list(got.markers) == list(want.markers)
    for name, value in want.markers.items():
        assert _bits(got.markers[name]) == _bits(value), name


@pytest.fixture(scope="module")
def scenario():
    return load_default_scenario()


def _system(scenario, **parameters):
    return apply_parameters(scenario, parameters).build_system()


def _row_config(scenario, amps, hold):
    """A calibration row's run settings: dt 2 ms, ``amps`` on unit 1."""
    config = scenario.calibration_config(scenario.calibration)
    return replace(
        config, duration=hold, current_profile=CurrentProfile.constant(1, amps, hold)
    )


def _counted(monkeypatch):
    """Count the engine's pose solves: one per step a run takes, and the rest
    solve of a run that does not continue from a prefix.  (Spring steps
    would not do: a cold, undriven spring is carried without one.)"""
    calls = []
    solve = engine._solve_pose_statics

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(engine, "_solve_pose_statics", counting)
    return calls


@pytest.mark.parametrize(
    "amps, hold, idle_steps",
    [(4.0, 5.0, 2500), (6.0, 3.0, 1173), (8.0, 1.5, 612)],
    ids=["4A-never-leaves-idle", "6A", "8A"],
)
def test_tensor_candidates_continue_from_the_prefix(
    scenario, monkeypatch, amps, hold, idle_steps
):
    config = _row_config(scenario, amps, hold)
    steps = round(hold / config.dt)
    prefixes = {}
    calls = _counted(monkeypatch)
    for i, tensor in enumerate(TENSORS):
        system = _system(scenario, phase_transform_tensor=tensor)
        want = simulate(system, config)
        del calls[:]
        got = simulate(system, config, prefixes=prefixes)
        assert_same_trace(got, want)
        assert prefixes[config].step == idle_steps
        # the first candidate runs from the start; the others skip the prefix
        assert len(calls) == (1 + steps if i == 0 else steps - idle_steps)


def test_crossing_marker_set_at_the_first_step_is_restored(scenario, monkeypatch):
    """Springs that start at 45 degC below full martensite set the crossing
    marker at step 1, inside the prefix; the continued run carries it over."""
    start = replace(
        scenario, spring_initial_fraction=0.9, spring_initial_temperature=318.15
    )
    config = _row_config(start, 6.0, 2.0)
    prefixes = {}
    simulate(_system(start, phase_transform_tensor=-1e9), config, prefixes=prefixes)
    system = _system(start, phase_transform_tensor=-2e9)
    want = simulate(system, config)
    assert want.markers["crossing_t_s"] == config.dt
    calls = _counted(monkeypatch)
    assert_same_trace(simulate(system, config, prefixes=prefixes), want)
    assert prefixes[config].step == 469
    assert len(calls) == 1000 - 469


def test_arc_entered_and_completed_in_one_step_ends_the_prefix(scenario, monkeypatch):
    """With no latent heat, a 0.01 K austenite band and a tensor too small to
    shift it, the heated spring passes the whole band within one step and
    returns IDLE at fraction 0 (trace row 612).  Its force took the
    transformation term, so that step is where the prefix ends."""
    material = scenario.material
    narrow = replace(scenario, material=replace(
        material, latent_heat=0.0, austenite_finish=material.austenite_start + 0.01
    ))
    config = _row_config(narrow, 8.0, 1.5)
    prefixes = {}
    simulate(_system(narrow, phase_transform_tensor=-1e3), config, prefixes=prefixes)
    system = _system(narrow, phase_transform_tensor=-2e3)
    want = simulate(system, config)
    assert list(want.spring_fractions[0][611:613]) == [1.0, 0.0]
    calls = _counted(monkeypatch)
    assert_same_trace(simulate(system, config, prefixes=prefixes), want)
    assert prefixes[config].step == 612
    assert len(calls) == 750 - 612


def test_opposite_signs_do_not_share_an_entry(scenario, monkeypatch):
    config = _row_config(scenario, 8.0, 1.5)
    prefixes = {}
    simulate(_system(scenario, phase_transform_tensor=-0.55e9), config, prefixes=prefixes)
    negative = prefixes[config]
    system = _system(scenario, phase_transform_tensor=0.55e9)
    want = simulate(system, config)
    calls = _counted(monkeypatch)
    assert_same_trace(simulate(system, config, prefixes=prefixes), want)
    assert len(calls) == 1 + 750
    assert negative.key.material.phase_transform_tensor == -1.0
    assert prefixes[config].key.material.phase_transform_tensor == 1.0


def test_changed_convection_misses_and_replaces_the_entry(scenario, monkeypatch):
    config = _row_config(scenario, 8.0, 1.5)
    prefixes = {}
    simulate(_system(scenario, convection_coefficient=95.0), config, prefixes=prefixes)
    system = _system(scenario, convection_coefficient=90.0)
    want = simulate(system, config)
    calls = _counted(monkeypatch)
    assert_same_trace(simulate(system, config, prefixes=prefixes), want)
    assert len(calls) == 1 + 750
    assert list(prefixes) == [config]
    assert prefixes[config].key.env.convection_coefficient == 90.0


def test_mutating_a_returned_trace_leaves_the_entry_intact(scenario):
    config = _row_config(scenario, 8.0, 1.5)
    prefixes = {}
    first = simulate(_system(scenario, phase_transform_tensor=-1e9), config,
                     prefixes=prefixes)
    system = _system(scenario, phase_transform_tensor=-2e9)
    want = simulate(system, config)
    for _ in range(2):
        # the run that stored the entry, then one that continued from it:
        # write into a scalar column and a per-unit one, then every array
        first.kappa[0] = math.nan
        first.unit_forces[1][0] = math.nan
        for _, column in first._arrays():
            column[1] = column[-1]
            del column[2:10]
        first.markers["crossing_t_s"] = -1.0
        first = simulate(system, config, prefixes=prefixes)
        assert_same_trace(first, want)


def test_failure_in_the_prefix_stores_nothing(scenario):
    config = replace(_row_config(scenario, 8.0, 1.5), max_temperature_step=1e-6)
    system = _system(scenario, phase_transform_tensor=-1e9)
    with pytest.raises(engine.StepTooLarge) as fresh:
        simulate(system, config)
    prefixes = {}
    for _ in range(2):
        with pytest.raises(engine.StepTooLarge) as failed:
            simulate(system, config, prefixes=prefixes)
        assert str(failed.value) == str(fresh.value)
        assert "(step 1)" in str(failed.value)
    assert prefixes == {}


def test_prefix_that_ends_at_the_first_step(scenario, monkeypatch):
    """Springs that start at 340 K leave the idle path in the first step, so
    the stored prefix is the rest solve alone with an empty trace; the run
    continued from it still sets the crossing marker at step 1."""
    start = replace(scenario, spring_initial_temperature=340.0)
    config = replace(_row_config(start, 8.0, 0.5), max_temperature_step=5.0)
    prefixes = {}
    simulate(_system(start, phase_transform_tensor=-1e9), config, prefixes=prefixes)
    assert prefixes[config].step == 0
    system = _system(start, phase_transform_tensor=-2e9)
    want = simulate(system, config)
    assert want.markers["crossing_t_s"] == config.dt
    calls = _counted(monkeypatch)
    assert_same_trace(simulate(system, config, prefixes=prefixes), want)
    assert prefixes[config].step == 0
    assert len(calls) == 250

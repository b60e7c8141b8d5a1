"""The peak record a sweep row takes against the trace, bit for bit.

``sweep`` runs each row as ``simulate(..., _peak=True)``, which keeps only
the row count and a running maximum of the bending angle.  Its
``max_bending_angle()`` must be the float ``max(trace.theta)`` of the same
run (``struct`` bits) and its ``len()`` the trace's row count, from the
start and when the run continues from an idle prefix.  A ``prefixes`` dict
shared by ``simulate`` and ``sweep`` keeps the two kinds of entry apart, in
either order, and each call returns what it returns without the dict.
"""

from __future__ import annotations

import struct
from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings, strategies as st

import sma_neck.engine as engine
from sma_neck import CurrentProfile, SimTrace, load_default_scenario, simulate, sweep
from sma_neck.scenario import apply_parameters
from test_idle_prefix import assert_same_trace

_SCENARIO = load_default_scenario()
# the prefix run's system differs from the drawn run's only in the size of
# the transformation coefficient, as a calibration candidate's does
_PREFIX_SYSTEM = apply_parameters(
    _SCENARIO, {"phase_transform_tensor": -1.2e9}
).build_system()
_SYSTEM = _SCENARIO.build_system()


def _bits(value: float) -> bytes:
    assert type(value) is float, value
    return struct.pack("<d", value)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except engine.SOLVER_FAILURES as exc:
        return None, exc


def _row_config(amps: float, unit: int, hold: float, dt: float):
    return _SCENARIO.build_config(
        dt=dt, duration=hold, current_profile=CurrentProfile.constant(unit, amps, hold)
    )


def _counted(patch):
    """Count the pose solves: one per step run, plus the rest solve of a run
    that does not continue from a prefix."""
    calls = []
    solve = engine._solve_pose_statics

    def counting(*args):
        calls.append(1)
        return solve(*args)

    patch.setattr(engine, "_solve_pose_statics", counting)
    return calls


def assert_same_peak(record, trace) -> None:
    assert type(record) is engine._PeakRecord
    assert len(record) == len(trace)
    assert _bits(record.max_bending_angle()) == _bits(max(trace.theta))


# each example runs up to 1500 steps five times; shrinking would take minutes
@settings(
    max_examples=25, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.generate),
)
@given(
    amps=st.integers(0, 80).map(lambda a: a / 10.0),
    unit=st.integers(1, 3),
    hold=st.integers(50, 1500).map(lambda h: h / 1000.0),
    dt=st.sampled_from((1e-3, 2e-3)),
)
def test_peak_record_equals_the_trace(amps, unit, hold, dt):
    config = _row_config(amps, unit, hold, dt)
    trace, trace_exc = _outcome(simulate, _SYSTEM, config)
    record, record_exc = _outcome(simulate, _SYSTEM, config, _peak=True)
    if trace_exc is not None or record_exc is not None:
        assert type(record_exc) is type(trace_exc), (record_exc, trace_exc)
        assert str(record_exc) == str(trace_exc)
        return
    assert_same_peak(record, trace)

    # continued from the prefix another system's run stored
    prefixes = {}
    # a failure after the prefix still leaves the entry; one inside it
    # would have failed the drawn run too, as the idle path is the same
    _outcome(simulate, _PREFIX_SYSTEM, config, prefixes=prefixes, _peak=True)
    entry = prefixes[(config, engine._PeakRecord)]
    assert type(entry.loop[-1]) is float
    with pytest.MonkeyPatch.context() as patch:
        calls = _counted(patch)
        continued = simulate(_SYSTEM, config, prefixes=prefixes, _peak=True)
    assert len(calls) == len(trace) - entry.step
    assert_same_peak(continued, trace)


def _shared_case(amps, hold=1.5):
    """A calibration row's base config, and the config of its sweep row at
    ``amps``, which a ``simulate`` can take too."""
    base = _SCENARIO.calibration_config(_SCENARIO.calibration)
    base = replace(base, duration=hold)
    row = replace(base, current_profile=CurrentProfile.constant(1, amps, hold))
    return base, row


@pytest.mark.parametrize("amps", [8.0, 4.0], ids=["8A", "4A-never-leaves-idle"])
@pytest.mark.parametrize("first", ["simulate", "sweep"])
def test_simulate_and_sweep_share_a_prefix_dict(monkeypatch, first, amps):
    base, row = _shared_case(amps)
    steps = round(row.duration / row.dt)
    want_trace = simulate(_SYSTEM, row)
    (want_row,) = sweep(_SYSTEM, [amps], base)
    prefixes = {}

    def run_simulate():
        got = simulate(_SYSTEM, row, prefixes=prefixes)
        assert_same_trace(got, want_trace)

    def run_sweep():
        (got,) = sweep(_SYSTEM, [amps], base, prefixes=prefixes)
        assert got.error is None
        assert _bits(got.max_bending_angle) == _bits(want_row.max_bending_angle)

    order = [run_simulate, run_sweep]
    if first == "sweep":
        order.reverse()
    calls = _counted(monkeypatch)
    for run in order:
        del calls[:]
        run()
        # the other kind's entry is a miss: each runs from the start
        assert len(calls) == 1 + steps
    kinds = [row, (row, engine._PeakRecord)]
    assert list(prefixes) == (kinds if first == "simulate" else kinds[::-1])
    assert isinstance(prefixes[row].loop[-1], SimTrace)
    assert type(prefixes[(row, engine._PeakRecord)].loop[-1]) is float
    assert prefixes[row].step == prefixes[(row, engine._PeakRecord)].step

    # and each kind continues from its own entry
    idle = prefixes[row].step
    for run in order:
        del calls[:]
        run()
        assert len(calls) == steps - idle

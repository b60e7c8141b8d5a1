"""Oracle for the step loop of ``engine.simulate``.

``reference_simulate`` below is the loop as it stood before the per-run
constants were hoisted out of it, kept verbatim: each step calls
``pennate_force`` and ``tendon_force_from_stretch`` through
``_combined_force`` for every unit and takes ``cos(pennation)`` anew.
``simulate`` must return the same trace to the bit, markers included, and
fail with the same exception and message.  The loop still computes each
row's ``phi_defined`` flag, which ``SimTrace`` derives from ``theta``, and
the flags must agree.  Four things are threaded through it since, as
``simulate`` has them: the ``SpringConstants`` built once per run for every
``step_spring`` call, the Jacobian each pose solve hands to the next, the
last pose as the start where the predicted one is bent past 180 degrees, and
the chord-corrected poses the solves return as the history the start is
predicted from.  ``denoised=False`` predicts from the accepted poses
instead, as the loop did before; ``tests/test_engine.py`` compares
``simulate`` with that variant.  ``simulate`` carries a spring that starts
cold as its force alone until its unit is driven; the reference steps it
with ``step_spring`` throughout, so the draws include the coefficients'
signs and springs that start off ambient.
"""

import math
import struct
from array import array
from dataclasses import replace

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from sma_neck import engine
from sma_neck.backbone import STRAIGHT_THRESHOLD
from sma_neck.engine import (
    SOLVER_FAILURES,
    NeckSystem,
    PennateUnit,
    SimConfig,
    SimTrace,
    _annotate_failure,
    _solve_pose_statics,
    _Statics,
    simulate,
)
from sma_neck.scenario import default_scenario_text, load_with_overrides
from sma_neck.sma import SpringConstants, _reverse_band, shear_stress, step_spring
from reference_model import pennate_force, tendon_force_from_stretch


# --- the loop, verbatim --------------------------------------------------------


class _FlaggedTrace(SimTrace):
    """The oracle's trace: it stores the ``phi_defined`` flags the loop
    computes in place of the property that derives them."""

    phi_defined = None

    def __init__(self):
        super().__init__()
        self.phi_defined = array("b")


def _combined_force(
    system: NeckSystem, unit: PennateUnit, spring_force: float, contraction: float
) -> float:
    active = pennate_force(unit, spring_force)
    passive = tendon_force_from_stretch(unit, contraction)
    if system.force_combination == "max":
        return max(active, passive)
    return active + passive


def reference_simulate(
    system: NeckSystem, config: SimConfig, *, denoised: bool = True
) -> _FlaggedTrace:
    statics = _Statics(system)
    profile = config.current_profile
    dt = config.dt
    n_steps = int(round(config.duration / dt))

    units = system.units
    states = [u.spring for u in units]
    constants = SpringConstants(system.material, system.spring_geometry, system.env)

    def unit_forces(dx):
        return tuple(
            _combined_force(system, u, s.force, x) for u, s, x in zip(units, states, dx)
        )

    # resolve the initial equilibrium so pretension imbalances are not
    # attributed to the first step; the straight pose is where each rest
    # chord was measured, so every chord contraction there is zero
    rest_forces = unit_forces((0.0, 0.0, 0.0))
    try:
        kappa, phi, eps, _, dx_prev, jacobian, corrected = _solve_pose_statics(
            statics, rest_forces, 0.0, 0.0, 0.0, config
        )
    except SOLVER_FAILURES as exc:
        _annotate_failure(exc, 0, 0.0)
        raise
    dx_prev2 = dx_prev
    # the last three corrected (or accepted) poses a, b, c as (u_x, u_y,
    # twist); each solve starts from their quadratic extrapolation along the
    # solution path (predictor-corrector continuation), or from c while fewer
    # exist
    if not denoised:
        corrected = (kappa * math.cos(phi), kappa * math.sin(phi), eps)
    a = b = c = corrected

    trace = _FlaggedTrace()
    last_phi = phi
    crossing_recorded = False

    for step_index in range(n_steps):
        t_prev = step_index * dt
        t = t_prev + dt
        try:
            for k, unit in enumerate(units):
                amps = profile.current(unit.index, t_prev)
                rate = (dx_prev[k] - dx_prev2[k]) / dt
                stretch_rate = -math.cos(unit.pennation_angle) * rate
                states[k] = step_spring(
                    constants,
                    states[k],
                    amps,
                    stretch_rate,
                    dt,
                    config.max_temperature_step,
                )
            forces = unit_forces(dx_prev)
            start = c
            if step_index >= 2:
                predicted = (
                    3.0 * (c[0] - b[0]) + a[0],
                    3.0 * (c[1] - b[1]) + a[1],
                    3.0 * (c[2] - b[2]) + a[2],
                )
                if math.hypot(predicted[0], predicted[1]) * statics.length <= math.pi:
                    start = predicted
            kappa, phi, eps, res_norm, dx, jacobian, corrected = _solve_pose_statics(
                statics, forces, *start, config, jacobian
            )
        except SOLVER_FAILURES as exc:
            _annotate_failure(exc, step_index + 1, t)
            raise

        dx_prev2, dx_prev = dx_prev, dx
        if not denoised:
            corrected = (kappa * math.cos(phi), kappa * math.sin(phi), eps)
        a, b, c = b, c, corrected

        theta = kappa * statics.length
        if theta >= STRAIGHT_THRESHOLD:
            last_phi = phi
            phi_defined = True
        else:
            phi_defined = False

        if not crossing_recorded:
            for s in states:
                if s.martensite_fraction < 1.0:
                    crossing_recorded = True
                    sigma = shear_stress(system.spring_geometry, s.force)
                    as_prime, af_prime = _reverse_band(system.material, sigma)
                    trace.markers["crossing_t_s"] = t
                    trace.markers["as_prime_K"] = as_prime
                    trace.markers["af_prime_K"] = af_prime
                    break

        trace.append(
            t,
            kappa,
            last_phi,
            theta,
            tuple(s.temperature for s in states),
            tuple(s.martensite_fraction for s in states),
            forces,
            res_norm,
        )
        trace.phi_defined.append(phi_defined)

    return trace


# --- comparison ----------------------------------------------------------------

def _bits(value):
    """Exact bit pattern of a float."""
    assert type(value) is float, value
    return struct.pack("<d", value)


def _outcome(fn, system, config):
    try:
        return fn(system, config), None
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return None, exc


def assert_same_run(system, config):
    """Run both loops and require bit-identical traces, markers included, or
    the same exception; return the trace (None when both raised)."""
    want, want_exc = _outcome(reference_simulate, system, config)
    got, got_exc = _outcome(simulate, system, config)
    if want_exc is not None or got_exc is not None:
        assert type(got_exc) is type(want_exc), (got_exc, want_exc)
        assert str(got_exc) == str(want_exc)
        return None
    for (column, rows_got), (_, rows_want) in zip(
        got._arrays(), want._arrays(), strict=True
    ):
        assert rows_got.typecode == rows_want.typecode, column
        assert len(rows_got) == len(rows_want), column
        for i, (x, y) in enumerate(zip(rows_got, rows_want)):
            assert type(x) is type(y), (column, i, x, y)
            assert _bits(x) == _bits(y), (column, i, x, y)
    assert got.phi_defined.typecode == "b"
    assert got.phi_defined == want.phi_defined
    assert list(got.markers) == list(want.markers)
    for name, value in want.markers.items():
        assert _bits(got.markers[name]) == _bits(value), name
    return got


def _scenario(segments, dt_ms, duration, gravity, combination, springs,
              tendon_stiffness):
    profile = ", ".join(
        f"{{unit: {unit}, start: {start:g} s, end: {end:g} s, current: {amps:g} A}}"
        for unit, start, end, amps in segments
    )
    return load_with_overrides(
        default_scenario_text(),
        [
            f"simulation.dt={dt_ms} ms",
            f"simulation.duration={duration:g} s",
            f"profile=[{profile}]",
            f"head.gravity={'true' if gravity else 'false'}",
            f"pennate.force_combination={combination}",
            f"pennate.springs_per_unit={springs}",
            f"pennate.tendon_stiffness={tendon_stiffness:g} N/m",
        ],
    )


@st.composite
def _segments(draw):
    """Zero to three current segments of 3-9 A within the first 0.9 s, each
    unit at most once; a segment may be switched off before the run ends so
    that the springs cool back through the forward band."""
    units = draw(st.lists(st.sampled_from((1, 2, 3)), max_size=3, unique=True))
    segments = []
    for unit in units:
        start = draw(st.integers(0, 50)) / 100.0
        end = start + draw(st.integers(5, 40)) / 100.0
        segments.append((unit, start, end, draw(st.integers(30, 90)) / 10.0))
    return segments


def _start(system, tensor, expansion, force, warmer):
    """``system`` with the force-law coefficients ``tensor`` and
    ``expansion``, every spring starting at ``force`` (None keeps the
    scenario's) and unit k's spring ``warmer[k]`` kelvin off ambient."""
    ambient = system.env.ambient_temperature
    units = []
    for unit, offset in zip(system.units, warmer):
        spring = replace(unit.spring, temperature=ambient + offset)
        if force is not None:
            spring = replace(spring, force=force)
        units.append(replace(unit, spring=spring))
    material = replace(
        system.material, phase_transform_tensor=tensor,
        thermal_expansion_factor=expansion,
    )
    return replace(system, material=material, units=tuple(units))


# a failing draw is reported as drawn, without shrinking: each example runs
# two simulations of up to 1.2 s of model time, so shrinking takes minutes
@settings(
    max_examples=25, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.generate),
)
@given(
    segments=_segments(),
    dt_ms=st.sampled_from((1, 2)),
    duration=st.integers(3, 12).map(lambda d: d / 10.0),
    gravity=st.booleans(),
    combination=st.sampled_from(("additive", "max")),
    springs=st.integers(1, 4),
    tendon_stiffness=st.sampled_from((1000.0, 6000.0)),
    # the signs reach the trace through the zero terms of an idle spring's
    # force law, where a spring starts at a force of -0.0
    tensor=st.sampled_from((-0.55e9, 0.55e9, 0.0, -0.0)),
    expansion=st.sampled_from((2.85e6, -2.85e6, 0.0, -0.0)),
    force=st.sampled_from((None, 0.0, -0.0)),
    # a spring off ambient is not carried cold: it takes step_spring from
    # the first step; 35 K up starts inside the austenite band
    warmer=st.lists(st.sampled_from((0.0, 0.0, 3.0, -3.0, 35.0)), min_size=3, max_size=3),
)
# undriven springs at a force of -0.0 under "max", which keeps its sign in
# the trace: the force stays -0.0 with both coefficients -0.0, and a +0.0
# term turns it to 0.0
@example(segments=[], dt_ms=2, duration=0.3, gravity=False, combination="max",
         springs=2, tendon_stiffness=1000.0, tensor=-0.0, expansion=-0.0,
         force=-0.0, warmer=[0.0, 0.0, 0.0])
@example(segments=[], dt_ms=2, duration=0.3, gravity=False, combination="max",
         springs=2, tendon_stiffness=1000.0, tensor=-0.0, expansion=0.0,
         force=-0.0, warmer=[0.0, 0.0, 0.0])
@example(segments=[], dt_ms=2, duration=0.3, gravity=False, combination="max",
         springs=2, tendon_stiffness=1000.0, tensor=0.0, expansion=-0.0,
         force=-0.0, warmer=[0.0, 0.0, 0.0])
# a carried spring driven after 0.1 s beside one that starts warm
@example(segments=[(2, 0.1, 0.4, 8.0)], dt_ms=1, duration=0.5, gravity=True,
         combination="additive", springs=2, tendon_stiffness=1000.0,
         tensor=-0.55e9, expansion=2.85e6, force=None, warmer=[35.0, 0.0, 0.0])
def test_loop_equals_reference(
    segments, dt_ms, duration, gravity, combination, springs, tendon_stiffness,
    tensor, expansion, force, warmer,
):
    scenario = _scenario(
        segments, dt_ms, duration, gravity, combination, springs, tendon_stiffness
    )
    system = _start(scenario.build_system(), tensor, expansion, force, warmer)
    assert_same_run(system, scenario.build_config())


@pytest.mark.parametrize("combination", ["additive", "max"])
def test_bundled_run_equals_reference(combination):
    """The bundled scenario, whole: five seconds of heating through the
    crossing markers, then a second of cooling after the switch-off."""
    scenario = load_with_overrides(
        default_scenario_text(), [f"pennate.force_combination={combination}"]
    )
    trace = assert_same_run(scenario.build_system(), scenario.build_config())
    assert set(trace.markers) == {"crossing_t_s", "as_prime_K", "af_prime_K"}


@pytest.mark.parametrize(
    "overrides, raises",
    [
        # a tolerance at the residual's rounding floor: a solve of the heated
        # run stalls
        (["simulation.solver_tolerance=1e-17 N m"], engine.NoConvergence),
        # the temperature bound fails on the first heated step
        (["simulation.max_temperature_step=0.01 K"], engine.StepTooLarge),
        # a stretch-force runaway: at step 7 unit 1 pulls 1375 N and the
        # solve lands on a pose beyond 180 degrees
        (["pennate.tendon_stiffness=20000 N/m"], engine.PoseOutOfRange),
    ],
)
def test_failures_equal_reference(overrides, raises):
    scenario = load_with_overrides(
        default_scenario_text(),
        [
            "simulation.dt=2 ms",
            "simulation.duration=1 s",
            "profile=[{unit: 1, start: 0 s, end: 1 s, current: 8 A}]",
            *overrides,
        ],
    )
    system, config = scenario.build_system(), scenario.build_config()
    assert assert_same_run(system, config) is None
    with pytest.raises(raises):
        simulate(system, config)


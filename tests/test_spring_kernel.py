"""Oracle for the spring step.

``sma.step_spring`` is a hand-fused kernel.  The functions kept below are the
plain composition of the documented laws (``heating_rate``,
``reverse_fraction``, ``forward_fraction``, ``force_coefficients``,
``shear_stress`` and the entry latches) that it replaces, kept verbatim, with
the step's closure solved by Brent's zeroin.  The kernel solves it by
safeguarded Newton, which returns the same change where none is needed and
at the exact end of a completed transformation, and another float within the
root tolerance where the root lies inside the bracket.  So every field of the
returned state must match to the bit, except on a step whose composition
searched its bracket for a root: there the temperature, fraction and force
may differ by what the root tolerance moves them.  Every exception must match
in type and message.  Constants that the reference check in
``tests/reference_model.py`` refuses are refused by ``SpringConstants``,
with its message, before any step.
"""

import math
import pickle
import random
import struct
import sys
from dataclasses import FrozenInstanceError, fields, replace
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sma_neck import sma
from sma_neck.scenario import load_default_scenario
from sma_neck.sma import (
    Branch,
    SmaMaterial,
    SpringConstants,
    SpringGeometry,
    SpringState,
    StepTooLarge,
    ThermalEnvironment,
    ValidationError,
    _forward_band,
    _reverse_band,
    shear_stress,
    step_spring,
)
from reference_model import (
    _check_spring_constants as reference_check,
    _forward_entry_latch,
    _reverse_entry_latch,
    _zeroin,
    force_coefficients,
    forward_fraction,
    heating_rate,
    reverse_fraction,
)


# --- the composed step, verbatim --------------------------------------------


class _TwoLatchState(NamedTuple):
    """The state the composition steps: one arc anchor per branch."""

    temperature: float
    martensite_fraction: float
    force: float
    fraction_at_reverse_start: float
    fraction_at_forward_start: float
    branch: Branch


def _fraction_on_branch(
    material: SmaMaterial,
    branch: Branch,
    temperature: float,
    stress: float,
    reverse_latch: float,
    forward_latch: float,
    idle_fraction: float,
) -> float:
    if branch is Branch.REVERSE:
        return reverse_fraction(material, temperature, stress, reverse_latch)
    if branch is Branch.FORWARD:
        return forward_fraction(material, temperature, stress, forward_latch)
    return idle_fraction


def _integrate_temperature(
    material: SmaMaterial,
    geometry: SpringGeometry,
    env: ThermalEnvironment,
    branch: Branch,
    temperature: float,
    stress: float,
    reverse_latch: float,
    forward_latch: float,
    idle_fraction: float,
    current: float,
    dt: float,
) -> float:
    """Classic RK4 on the heat balance with the phase fraction (and hence the
    resistance) evaluated algebraically at every stage.  Latent heat is not in
    the stage function; it is applied by the coupled correction afterwards."""

    def rate(t: float) -> float:
        xi = _fraction_on_branch(
            material, branch, t, stress, reverse_latch, forward_latch, idle_fraction
        )
        return heating_rate(material, geometry, env, t, xi, current)

    k1 = rate(temperature)
    k2 = rate(temperature + 0.5 * dt * k1)
    k3 = rate(temperature + 0.5 * dt * k2)
    k4 = rate(temperature + dt * k3)
    return temperature + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _composed_two_latch_step(
    material: SmaMaterial,
    geometry: SpringGeometry,
    env: ThermalEnvironment,
    state: _TwoLatchState,
    current: float,
    stretch_rate: float,
    dt: float,
    max_temperature_step: float = 1.0,
    roots: list | None = None,
) -> _TwoLatchState:
    """One step of the composition.  Where its closure searches the bracket
    for a root, the root is appended to ``roots``, if given."""
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive")
    if not 0.0 <= current < math.inf:
        raise ValueError("current must be non-negative")
    if not math.isfinite(stretch_rate):
        raise ValueError("stretch_rate must be finite")

    t0 = state.temperature
    xi0 = state.martensite_fraction
    f0 = state.force
    stress0 = shear_stress(geometry, f0)
    reverse_latch = state.fraction_at_reverse_start
    forward_latch = state.fraction_at_forward_start

    branch = state.branch
    t_star = _integrate_temperature(
        material, geometry, env, branch, t0, stress0,
        reverse_latch, forward_latch, xi0, current, dt,
    )
    heating = t_star > t0

    # Branch exits: direction reversed or the transformation has completed.
    if branch is Branch.REVERSE and (not heating or xi0 <= 0.0):
        branch = Branch.IDLE
    elif branch is Branch.FORWARD and (heating or xi0 >= 1.0):
        branch = Branch.IDLE

    # Branch entries latch the current fraction as the cosine-arc anchor.
    if branch is Branch.IDLE:
        if heating and xi0 > 0.0 and t_star > _reverse_band(material, stress0)[0]:
            branch = Branch.REVERSE
            reverse_latch = _reverse_entry_latch(material, t0, stress0, xi0)
        elif not heating and xi0 < 1.0 and t_star < _forward_band(material, stress0)[0]:
            branch = Branch.FORWARD
            forward_latch = _forward_entry_latch(material, t0, stress0, xi0)
        if branch is not state.branch:
            t_star = _integrate_temperature(
                material, geometry, env, branch, t0, stress0,
                reverse_latch, forward_latch, xi0, current, dt,
            )

    stiffness, transform, thermal = force_coefficients(material, geometry, xi0)
    latent_gain = material.latent_heat / material.specific_heat
    elastic_force = f0 + stiffness * stretch_rate * dt

    def force_after(d_xi: float, delta_t: float) -> float:
        """The rate-form force law integrated over the step."""
        return elastic_force + transform * d_xi + thermal * delta_t

    if branch is Branch.IDLE:
        t_new = t_star
        xi_new = xi0
        d_xi = 0.0
    else:
        # Joint per-step closure: the fraction change feeds back on the
        # temperature (latent heat) and on the band edges (stress shift).
        # Both couplings are affine in d_xi, so the residual below is strictly
        # decreasing: its root in the bracket is unique, and zeroin finds it.
        def residual(d_xi: float) -> float:
            t_cand = t_star + latent_gain * d_xi
            force_cand = force_after(d_xi, t_cand - t0)
            stress_cand = shear_stress(geometry, max(force_cand, 0.0))
            xi_cand = _fraction_on_branch(
                material, branch, t_cand, stress_cand,
                reverse_latch, forward_latch, xi0,
            )
            return xi_cand - xi0 - d_xi

        if branch is Branch.REVERSE:
            lo, hi = -xi0, 0.0
        else:
            lo, hi = 0.0, 1.0 - xi0
        r_lo = residual(lo)
        r_hi = residual(hi)
        if branch is Branch.REVERSE:
            # residual(0) >= 0 means the band edge outran the temperature.
            d_xi = 0.0 if r_hi >= 0.0 else _zeroin(residual, lo, hi, r_lo, r_hi)
        else:
            d_xi = 0.0 if r_lo <= 0.0 else _zeroin(residual, lo, hi, r_lo, r_hi)
        if roots is not None and not (r_lo <= 0.0 or r_hi >= 0.0):
            # zeroin searched the bracket: its root is one float of the
            # tolerance interval, not an exact end
            roots.append(d_xi)
        t_new = t_star + latent_gain * d_xi
        xi_new = min(max(xi0 + d_xi, 0.0), 1.0)
        d_xi = xi_new - xi0

    delta_t = t_new - t0
    # written so that a NaN step fails the guard too
    if not abs(delta_t) <= max_temperature_step:
        raise StepTooLarge(delta_t, max_temperature_step)

    force_new = max(force_after(d_xi, delta_t), 0.0)

    # Transformation completed: park the branch until conditions re-enter it.
    if branch is Branch.REVERSE and xi_new <= 0.0:
        xi_new = 0.0
        branch = Branch.IDLE
    elif branch is Branch.FORWARD and xi_new >= 1.0:
        xi_new = 1.0
        branch = Branch.IDLE

    # every field is new, so build the state directly (in field order)
    return _TwoLatchState(t_new, xi_new, force_new, reverse_latch, forward_latch, branch)


def composed_step_spring(
    material: SmaMaterial,
    geometry: SpringGeometry,
    env: ThermalEnvironment,
    state: SpringState,
    current: float,
    stretch_rate: float,
    dt: float,
    max_temperature_step: float = 1.0,
    roots: list | None = None,
) -> SpringState:
    """The composition with ``state``'s one latch in both slots.  The result
    keeps the latch of the branch it returns; an idle result keeps the slot
    the step changed (a branch entered and completed), or else the input
    latch.  A root the closure searched for is appended to ``roots``."""
    latch = state.fraction_at_branch_start
    new = _composed_two_latch_step(
        material, geometry, env,
        _TwoLatchState(state.temperature, state.martensite_fraction, state.force,
                       latch, latch, state.branch),
        current, stretch_rate, dt, max_temperature_step, roots,
    )
    slots = (new.fraction_at_reverse_start, new.fraction_at_forward_start)
    if new.branch is Branch.REVERSE:
        kept = slots[0]
    elif new.branch is Branch.FORWARD:
        kept = slots[1]
    else:
        changed = [slot for slot in slots if _bits(slot) != _bits(latch)]
        kept = changed[0] if changed else latch
    return SpringState(
        new.temperature, new.martensite_fraction, new.force, kept, new.branch
    )


# --- inputs ------------------------------------------------------------------

_BUNDLED = load_default_scenario().build_system()
_MATERIALS = (
    _BUNDLED.material,
    # a heavier latent heat and a stronger stress shift load the closure
    replace(
        _BUNDLED.material,
        latent_heat=120e3,
        stress_influence_reverse=3e6,
        stress_influence_forward=4e6,
        resistance_austenite=0.75,
    ),
)
_GEOMETRIES = (
    _BUNDLED.spring_geometry,
    replace(
        _BUNDLED.spring_geometry, wire_diameter=0.75e-3, active_coils=12, spring_mass=1.4e-3
    ),
)
_ENVS = (
    _BUNDLED.env,
    ThermalEnvironment(ambient_temperature=305.0, convection_coefficient=60.0),
)
TRIPLES = [(m, g, e) for m in _MATERIALS for g in _GEOMETRIES for e in _ENVS]

_FIELDS = [f.name for f in fields(SpringState)]


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return None, exc


def _bits(x):
    return struct.pack("<d", x)


def fused_step(material, geometry, env, *step_args):
    """``step_spring`` with the composition's arguments: the constants of
    the triple are built on every call, so constants that the constructor
    refuses raise here."""
    return step_spring(SpringConstants(material, geometry, env), *step_args)


# Both steps' roots lie within zeroin's tolerance, _ROOT_TOLERANCE + 4 eps
# |d_xi| with |d_xi| <= 1, of the closure's root, so their fraction changes
# differ by at most this.
_ROOT_SLACK = 2.0 * (sma._ROOT_TOLERANCE + 4.0 * sys.float_info.epsilon)


def _root_gains(material, geometry, env):
    """How much a change of the root moves each field of the step's state
    that it moves: the temperature by the latent gain, the fraction one for
    one, the force by the force law's d_xi and d_T terms.  The latch and the
    branch do not move."""
    k = SpringConstants(material, geometry, env)
    return {
        "temperature": k.latent_gain,
        "martensite_fraction": 1.0,
        "force": abs(k.transform) + abs(k.thermal) * k.latent_gain,
    }


def _within_root_tolerance(a, b, gain):
    """Whether two floats differ by at most what a root moved by
    _ROOT_SLACK moves a field of that gain, plus a few ulps of rounding."""
    return abs(a - b) <= gain * _ROOT_SLACK + 4.0 * math.ulp(max(abs(a), abs(b)))


def assert_same_step(material, geometry, env, state, current, stretch_rate, dt, bound=1.0):
    """Run both steps on one input and require the same state or the same
    exception; return the fused step's state (None when both raised).  The
    bits must match, except where the composition's closure searched its
    bracket for a root: there each float must match within the root
    tolerance.  Constants that the reference check refuses are refused by
    ``SpringConstants`` with its message before any step, and the
    composition is not run on them."""
    args = (material, geometry, env, state, current, stretch_rate, dt, bound)
    _, refusal = _outcome(reference_check, material, geometry, env)
    if refusal is not None:
        _, got_exc = _outcome(fused_step, *args)
        assert type(got_exc) is ValidationError, (got_exc, refusal)
        assert str(got_exc) == str(refusal)
        return None
    roots = []
    want, want_exc = _outcome(composed_step_spring, *args, roots)
    got, got_exc = _outcome(fused_step, *args)
    gains = _root_gains(material, geometry, env) if roots else None
    if want_exc is not None or got_exc is not None:
        assert type(got_exc) is type(want_exc), (got_exc, want_exc)
        assert str(got_exc) == str(want_exc)
        if isinstance(want_exc, StepTooLarge):
            assert got_exc.overflowed is want_exc.overflowed
            a, b = got_exc.delta, want_exc.delta
            if gains is None or not math.isfinite(b):
                assert _bits(a) == _bits(b)
            else:
                assert _within_root_tolerance(a, b, gains["temperature"]), (a, b)
        return None
    assert got.branch is want.branch
    for name in _FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if gains is not None and name in gains:
            assert _within_root_tolerance(a, b, gains[name]), (name, a, b)
            continue
        assert a == b or (a != a and b != b), (name, a, b)
        if isinstance(a, float):
            assert _bits(a) == _bits(b), (name, a, b)  # sign of zero too
    assert_checked_state(got)
    return got


def assert_checked_state(state):
    """``step_spring`` builds its result without running the dataclass
    constructor; it must be the state the checked constructor builds from the
    same fields, and behave like one."""
    values = {name: getattr(state, name) for name in _FIELDS}
    checked = SpringState(**values)
    assert type(state) is SpringState
    assert state == checked
    assert hash(state) == hash(checked)
    assert repr(state) == repr(checked)
    assert list(vars(state)) == list(vars(checked))
    with pytest.raises(FrozenInstanceError):
        state.temperature = 1.0
    with pytest.raises(FrozenInstanceError):
        del state.force
    assert replace(state) == checked
    assert pickle.loads(pickle.dumps(state)) == checked


_ANCHORS = ("as", "af", "ms", "mf", "mid_reverse", "mid_forward", "free")


def make_state(material, geometry, branch, force, anchor, offset, free_t,
               reverse_latch, forward_latch, on_arc, fraction):
    """A state near one of the stress-shifted band edges, mid-band or free,
    with its fraction on its branch's arc or drawn independently."""
    stress = shear_stress(geometry, force)
    a_start, a_finish = _reverse_band(material, stress)
    m_start, m_finish = _forward_band(material, stress)
    temperature = {
        "as": a_start,
        "af": a_finish,
        "ms": m_start,
        "mf": m_finish,
        "mid_reverse": 0.5 * (a_start + a_finish),
        "mid_forward": 0.5 * (m_start + m_finish),
        "free": free_t,
    }[anchor] + offset
    if on_arc and branch is Branch.REVERSE:
        fraction = reverse_fraction(material, temperature, stress, reverse_latch)
    elif on_arc and branch is Branch.FORWARD:
        fraction = forward_fraction(material, temperature, stress, forward_latch)
    latch = forward_latch if branch is Branch.FORWARD else reverse_latch
    return SpringState(temperature, fraction, force, latch, branch)


_UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)

STEP_INPUTS = dict(
    triple=st.integers(0, len(TRIPLES) - 1),
    branch=st.sampled_from(list(Branch)),
    force=st.just(0.0) | st.floats(0.0, 2e-3) | st.floats(0.0, 8.0),
    anchor=st.sampled_from(_ANCHORS),
    offset=st.just(0.0) | st.floats(-1e-9, 1e-9) | st.floats(-3.0, 3.0),
    free_t=st.floats(285.0, 380.0),
    reverse_latch=_UNIT,
    forward_latch=_UNIT,
    on_arc=st.booleans(),
    fraction=_UNIT,
    current=st.just(0.0) | st.floats(0.0, 12.0),
    stretch_rate=st.sampled_from([-2e-3, 2e-3]) | st.floats(-2e-3, 2e-3),
    dt=st.sampled_from([1e-4, 5e-3]) | st.floats(1e-4, 5e-3),
)


def _step_case(triple, branch, force, anchor, offset, free_t, reverse_latch,
               forward_latch, on_arc, fraction, current, stretch_rate, dt):
    material, geometry, env = TRIPLES[triple]
    state = make_state(material, geometry, branch, force, anchor, offset, free_t,
                       reverse_latch, forward_latch, on_arc, fraction)
    return material, geometry, env, state, current, stretch_rate, dt


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(**STEP_INPUTS)
@example(triple=0, branch=Branch.IDLE, force=2.0, anchor="free", offset=0.0,
         free_t=298.15, reverse_latch=1.0, forward_latch=0.0, on_arc=False,
         fraction=1.0, current=5.0, stretch_rate=0.0, dt=1e-3)
@example(triple=1, branch=Branch.REVERSE, force=1e-4, anchor="mid_reverse",
         offset=0.0, free_t=300.0, reverse_latch=1.0, forward_latch=0.0,
         on_arc=True, fraction=0.0, current=12.0, stretch_rate=-2e-3, dt=5e-3)
@example(triple=6, branch=Branch.FORWARD, force=1e-4, anchor="mid_forward",
         offset=0.0, free_t=300.0, reverse_latch=1.0, forward_latch=0.0,
         on_arc=True, fraction=0.0, current=0.0, stretch_rate=-2e-3, dt=5e-3)
# a finite stretch rate whose force overflows to inf, which the state refuses
@example(triple=0, branch=Branch.IDLE, force=2.0, anchor="free", offset=0.0,
         free_t=298.15, reverse_latch=1.0, forward_latch=0.0, on_arc=False,
         fraction=1.0, current=0.0, stretch_rate=1e308, dt=1e-3)
# a cold spring: idle at the ambient temperature, fully martensite, no current
@example(triple=0, branch=Branch.IDLE, force=2.0, anchor="free", offset=0.0,
         free_t=298.15, reverse_latch=0.5, forward_latch=0.0, on_arc=False,
         fraction=1.0, current=0.0, stretch_rate=-2e-3, dt=1e-3)
# a reverse arc entered at a fraction narrower than the root tolerance: zeroin
# returns the bracket's end 0, Newton a float inside it
@example(triple=0, branch=Branch.IDLE, force=0.0, anchor="as", offset=0.0,
         free_t=285.0, reverse_latch=0.0, forward_latch=0.0, on_arc=False,
         fraction=1e-14, current=3.0, stretch_rate=-2e-3, dt=1e-4)
def test_step_equals_composition(**draw):
    assert_same_step(*_step_case(**draw))


def test_draws_reach_every_path():
    """The same inputs, drawn by a seeded loop, reach every path of the step:
    idle, cold, entries into both arcs, both arcs with a root, exits,
    completions and a force floored at zero.  Each reached state must match
    the oracle.  Every eighth draw is made cold: at the ambient temperature,
    fully martensite and without current."""
    rng = random.Random(20231018)
    seen = set()

    def unit():
        return rng.choice([0.0, 1.0, rng.random()])

    for draw in range(4000):
        triple = rng.randrange(len(TRIPLES))
        inputs = dict(
            triple=triple,
            branch=rng.choice(list(Branch)),
            force=rng.choice([0.0, rng.uniform(0.0, 2e-3), rng.uniform(0.0, 8.0)]),
            anchor=rng.choice(_ANCHORS),
            offset=rng.choice([0.0, rng.uniform(-1e-9, 1e-9), rng.uniform(-3.0, 3.0)]),
            free_t=rng.uniform(285.0, 380.0),
            reverse_latch=unit(),
            forward_latch=unit(),
            on_arc=rng.random() < 0.5,
            fraction=unit(),
            current=rng.choice([0.0, rng.uniform(0.0, 12.0)]),
            stretch_rate=rng.choice([-2e-3, 2e-3, rng.uniform(-2e-3, 2e-3)]),
            dt=rng.choice([1e-4, 5e-3, rng.uniform(1e-4, 5e-3)]),
        )
        ambient = TRIPLES[triple][2].ambient_temperature
        if draw % 8 == 0:
            inputs.update(anchor="free", offset=0.0, free_t=ambient, on_arc=False,
                          fraction=1.0, current=0.0)
        case = _step_case(**inputs)
        state = case[3]
        new = assert_same_step(*case)
        if new is None:
            seen.add("raised")
            continue
        seen.add((state.branch.name, new.branch.name))
        if (
            state.branch is Branch.IDLE
            and state.temperature == ambient
            and state.martensite_fraction == 1.0
            and inputs["current"] == 0.0
        ):
            assert _bits(new.temperature) == _bits(ambient)
            assert new.martensite_fraction == 1.0 and new.branch is Branch.IDLE
            seen.add("cold")
        if new.force == 0.0 and state.force > 0.0:
            seen.add("floored")
        moved = new.martensite_fraction != state.martensite_fraction
        if new.branch is not Branch.IDLE and moved:
            seen.add(("moved", new.branch.name))
        if state.branch is not Branch.IDLE and new.branch is Branch.IDLE and not moved:
            # an arc left without a completion: the step is redone idle
            seen.add(("left", state.branch.name))
    for path in [
        ("IDLE", "IDLE"), ("IDLE", "REVERSE"), ("IDLE", "FORWARD"),
        ("REVERSE", "REVERSE"), ("REVERSE", "IDLE"),
        ("FORWARD", "FORWARD"), ("FORWARD", "IDLE"),
        ("moved", "REVERSE"), ("moved", "FORWARD"), "floored", "cold",
        ("left", "REVERSE"), ("left", "FORWARD"),
    ]:
        assert path in seen, path


# --- the cold spring ----------------------------------------------------------

_MATERIAL, _GEOMETRY, _ENV = TRIPLES[0]
_COLD_TRIPLES = {"bundled": TRIPLES[0], "other": TRIPLES[-1]}
# one input moved off the cold state at a time: the temperature or the
# fraction by one ulp, the current to 1 mA (a subnormal one squares to 0.0)
_COLD_PERTURBATIONS = (
    None, "temperature", "fraction", "current", Branch.REVERSE, Branch.FORWARD,
)


def _not_normal(what, value, unit):
    """The message of a spring constant that is not a finite normal float."""
    return (
        f"spring: {what} is {value} {unit}; it must be finite and at least "
        f"{sys.float_info.min:.3g} in magnitude"
    )


# Constants under which a cold spring's full step was not still: its heat
# balance was NaN, or the step raised before its end.  Each is now refused
# where it is built, so that the heat balance of a cold step is exactly zero
# and simulate's carried update, its force law alone, needs no guard.
_REFUSED_COLD_CONSTANTS = {
    # the convection term was inf * 0: "heat balance overflowed"
    "convection_inf": (
        lambda: ThermalEnvironment(298.15, math.inf),
        ValueError, "convection_coefficient must be finite",
    ),
    # the Joule power was 0 * inf: "heat balance overflowed"
    "resistance_inf": (
        lambda: replace(_MATERIAL, resistance_austenite=math.inf),
        ValueError, "resistance_austenite must be finite",
    ),
    # the latent term was (m L) * 0.0 with m L = inf: "heat balance overflowed"
    "latent_inf": (
        lambda: SpringConstants(replace(_MATERIAL, latent_heat=1e308),
                                replace(_GEOMETRY, spring_mass=10.0), _ENV),
        ValidationError,
        "spring: latent heat per spring (spring_mass, material.latent_heat) "
        "is inf J; it must be finite",
    ),
    # the heat capacity underflows to 0: a ZeroDivisionError in the RK4
    "capacity_zero": (
        lambda: SpringConstants(replace(_MATERIAL, specific_heat=1e-200),
                                replace(_GEOMETRY, spring_mass=1e-200), _ENV),
        ValidationError,
        _not_normal("heat capacity (spring_mass, material.specific_heat)", "0", "J/K"),
    ),
    # the shear modulus's divisor 2 (1 + poisson) is 0: a ZeroDivisionError
    # in the stiffness, which a cold step computes too
    "poisson_minus_one": (
        lambda: SpringConstants(replace(_MATERIAL, poisson=-1.0), _GEOMETRY, _ENV),
        ValidationError,
        _not_normal("force-law stiffness at martensite fraction 0 (wire_diameter, "
                    "coil_diameter, active_coils, material moduli)", "inf", "N/m"),
    ),
    # pi d^3 underflows to 0: a ZeroDivisionError in the shear stress
    "wire_cube_zero": (
        lambda: SpringConstants(_MATERIAL, replace(_GEOMETRY, wire_diameter=1e-200), _ENV),
        ValidationError,
        _not_normal("shear stress per newton (wire_diameter, coil_diameter)", "inf", "Pa"),
    ),
}


@pytest.mark.parametrize("name", sorted(_REFUSED_COLD_CONSTANTS))
def test_constants_a_cold_step_cannot_take_are_refused(name):
    """Each set of constants under which a cold step raised or went NaN is
    refused by the constructor named, with its message.  The last three
    built a ``SpringConstants`` whose first step raised a bare
    ``ZeroDivisionError``."""
    build, error, message = _REFUSED_COLD_CONSTANTS[name]
    with pytest.raises(error) as refused:
        build()
    assert type(refused.value) is error
    assert str(refused.value) == message


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(
    constants=st.sampled_from(sorted(_COLD_TRIPLES)),
    tensor=st.sampled_from([-0.55e9, 0.55e9, 0.0, -0.0]) | st.floats(-1e12, 1e12),
    expansion=st.sampled_from([2.85e6, -2.85e6, 0.0, -0.0]) | st.floats(-1e9, 1e9),
    force=st.sampled_from([0.0, -0.0]) | st.floats(0.0, 8.0),
    latch=_UNIT,
    current=st.sampled_from([0.0, -0.0]),
    stretch_rate=st.sampled_from([0.0, -0.0, -2e-3, 2e-3, -1e308, 1e308])
    | st.floats(-2e-3, 2e-3),
    dt=st.sampled_from([1e-4, 1e-3, 5e-3]) | st.floats(1e-6, 10.0),
    bound=st.sampled_from([1.0, math.nan, -1.0, 0.0, math.inf]),
    perturb=st.sampled_from(_COLD_PERTURBATIONS),
)
# the force law's d_xi term turns a force of -0.0 into 0.0, and with the
# bundled signs its d_T term does
@example(constants="bundled", tensor=0.55e9, expansion=-2.85e6, force=-0.0, latch=1.0,
         current=0.0, stretch_rate=-0.0, dt=1e-3, bound=1.0, perturb=None)
@example(constants="bundled", tensor=-0.55e9, expansion=2.85e6, force=-0.0, latch=1.0,
         current=0.0, stretch_rate=-0.0, dt=1e-3, bound=1.0, perturb=None)
def test_cold_step_equals_the_idle_path(constants, tensor, expansion, force, latch,
                                        current, stretch_rate, dt, bound, perturb):
    """A cold spring, idle at the ambient temperature, fully martensite and
    without current, takes the idle path, whose heat balance is exactly
    zero there, and returns the state of the composed laws bit for bit, or
    raises the same exception with the same message: zero forces of both
    signs, overflowing stretch rates, coefficients of both signs and bounds
    that refuse even a zero change.  Draws that move one input off the cold
    state take the full path.  A coefficient that the constructor refuses
    (a subnormal one) is refused with the reference check's message."""
    material, geometry, env = _COLD_TRIPLES[constants]
    material = replace(material, phase_transform_tensor=tensor,
                       thermal_expansion_factor=expansion)
    temperature, fraction, branch = env.ambient_temperature, 1.0, Branch.IDLE
    if perturb == "temperature":
        temperature = math.nextafter(temperature, math.inf)
    elif perturb == "fraction":
        fraction = math.nextafter(1.0, 0.0)
    elif perturb == "current":
        current = 1e-3
    elif perturb is not None:
        branch = perturb
    state = SpringState(temperature, fraction, force, latch, branch)
    assert_same_step(material, geometry, env, state, current, stretch_rate, dt, bound)


# --- the band kinetics -------------------------------------------------------


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    triple=st.integers(0, len(TRIPLES) - 1),
    anchor=st.sampled_from(_ANCHORS),
    offset=st.just(0.0) | st.floats(-1e-9, 1e-9) | st.floats(-3.0, 3.0),
    free_t=st.floats(285.0, 380.0),
    stress=st.just(0.0) | st.floats(-1.0, 5e7),
    latch=_UNIT | st.sampled_from([-0.5, 1.5]),
    fraction=_UNIT,
)
def test_kinetics_equal_the_plain_laws(triple, anchor, offset, free_t, stress, latch,
                                       fraction):
    """``reverse_fraction``, ``forward_fraction`` and the kernel's entry
    latches are ``sma._fraction`` and its slopes; each must return the bits,
    or raise the exception, of the plain law in ``tests/reference_model.py``.
    ``_reverse_arc`` and ``_forward_arc``, which the step runs without
    ``_fraction``'s checks, must return ``_fraction``'s bits wherever those
    checks pass, and the checks must raise their own messages."""
    material = TRIPLES[triple][0]
    a_start, a_finish = _reverse_band(material, max(stress, 0.0))
    m_start, m_finish = _forward_band(material, max(stress, 0.0))
    temperature = {
        "as": a_start,
        "af": a_finish,
        "ms": m_start,
        "mf": m_finish,
        "mid_reverse": 0.5 * (a_start + a_finish),
        "mid_forward": 0.5 * (m_start + m_finish),
        "free": free_t,
    }[anchor] + offset
    kinetics = sma._Kinetics(material)
    pairs = [
        (sma.reverse_fraction, reverse_fraction, material, latch),
        (sma.forward_fraction, forward_fraction, material, latch),
        (sma._reverse_entry_latch, _reverse_entry_latch, kinetics, fraction),
        (sma._forward_entry_latch, _forward_entry_latch, kinetics, fraction),
    ]
    for fused, plain, first, last in pairs:
        got, got_exc = _outcome(fused, first, temperature, stress, last)
        want, want_exc = _outcome(plain, material, temperature, stress, last)
        assert type(got_exc) is type(want_exc), (fused, got_exc, want_exc)
        assert str(got_exc) == str(want_exc)
        if want_exc is None:
            assert _bits(got) == _bits(want), (fused, got, want)
    for branch, arc in ((Branch.REVERSE, sma._reverse_arc), (Branch.FORWARD, sma._forward_arc)):
        checked, exc = _outcome(sma._fraction, kinetics, branch, temperature, stress, latch)
        if not 0.0 <= latch <= 1.0:
            assert str(exc) == "fraction_at_start must lie in [0, 1]"
        elif stress < 0.0:
            assert str(exc) == "stress must be non-negative"
        else:
            assert exc is None
            assert _bits(arc(kinetics, temperature, stress, latch)) == _bits(checked)
        assert exc is None or type(exc) is ValueError


# --- the force-law constants -------------------------------------------------

# a positive float anywhere in the range, subnormals included
_MAGNITUDE = st.floats(-323.0, 308.0).map(lambda e: 10.0**e) | st.floats(
    min_value=5e-324, max_value=1.7e308
)
_SIGNED = st.just(0.0) | _MAGNITUDE | _MAGNITUDE.map(lambda v: -v)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    moduli=st.tuples(_MAGNITUDE, _MAGNITUDE),
    poisson=st.just(-1.0) | st.floats(-1.0, 0.5),
    tensor=_SIGNED,
    expansion=_SIGNED,
    diameters=st.tuples(_MAGNITUDE, _MAGNITUDE),
    coils=st.just(1.0) | st.floats(0.0, 308.0).map(lambda e: 10.0**e),
    fraction=_UNIT,
)
@example(moduli=(28e9, 75e9), poisson=-1.0, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-3, 8e-3), coils=20.0, fraction=0.5)
@example(moduli=(1e-300, 75e9), poisson=0.33, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-3, 8e-3), coils=20.0, fraction=0.5)
@example(moduli=(28e9, 75e9), poisson=0.33, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-3, 1e200), coils=20.0, fraction=0.5)
@example(moduli=(28e9, 75e9), poisson=0.33, tensor=0.0, expansion=0.0,
         diameters=(1e-200, 8e-3), coils=20.0, fraction=0.5)
@example(moduli=(28e9, 75e9), poisson=-1.0, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-3, 1e200), coils=20.0, fraction=0.5)
def test_spring_constants_equal_the_force_law(moduli, poisson, tensor, expansion,
                                              diameters, coils, fraction):
    """``SpringConstants`` is the package's only derivation of the force
    law's coefficients, and its constructor checks them: it refuses what the
    reference check refuses, with its message, and otherwise its stiffness
    at fractions 0, 1 and one between, its transformation and its thermal
    coefficient must be the bits of ``force_coefficients``."""
    young_m, young_a = sorted(moduli)
    wire, coil = sorted(diameters)
    assume(young_m < young_a and wire < coil)
    material = replace(
        _BUNDLED.material, young_martensite=young_m, young_austenite=young_a,
        poisson=poisson, phase_transform_tensor=tensor,
        thermal_expansion_factor=expansion,
    )
    geometry = replace(
        _BUNDLED.spring_geometry, wire_diameter=wire, coil_diameter=coil,
        active_coils=coils,
    )

    k, got_exc = _outcome(SpringConstants, material, geometry, _BUNDLED.env)
    _, refusal = _outcome(reference_check, material, geometry, _BUNDLED.env)
    if refusal is not None:
        assert type(got_exc) is ValidationError, (got_exc, refusal)
        assert str(got_exc) == str(refusal)
        return
    assert got_exc is None, got_exc
    for xi in (0.0, 1.0, fraction):
        got = k.stiffness(xi), k.transform, k.thermal
        want = force_coefficients(material, geometry, xi)
        assert list(map(_bits, got)) == list(map(_bits, want)), (xi, got, want)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    moduli=st.tuples(_MAGNITUDE, _MAGNITUDE),
    poisson=st.just(-1.0) | st.floats(-1.0, 0.5),
    tensor=_SIGNED,
    expansion=_SIGNED,
    diameters=st.tuples(_MAGNITUDE, _MAGNITUDE),
    coils=st.just(1.0) | st.floats(0.0, 308.0).map(lambda e: 10.0**e),
    masses=st.tuples(_MAGNITUDE, _MAGNITUDE),
    specific_heat=_MAGNITUDE,
    convection=_MAGNITUDE,
    latent_heat=st.just(0.0) | _MAGNITUDE,
)
# one example per check that can fail, in the order they are made
@example(moduli=(28e9, 75e9), poisson=0.33, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-200, 8e-3), coils=20.0, masses=(1e-3, 1e-4),
         specific_heat=837.0, convection=90.0, latent_heat=32e3)
@example(moduli=(28e9, 75e9), poisson=-1.0, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(1e-3, 1e-4),
         specific_heat=837.0, convection=90.0, latent_heat=32e3)
@example(moduli=(28e9, 75e9), poisson=0.33, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-3, 1e200), coils=20.0, masses=(1e-3, 1e-4),
         specific_heat=837.0, convection=90.0, latent_heat=32e3)
@example(moduli=(28e9, 75e9), poisson=0.33, tensor=-1e-305, expansion=2.85e6,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(1e-3, 1e-4),
         specific_heat=837.0, convection=90.0, latent_heat=32e3)
@example(moduli=(28e9, 75e9), poisson=0.33, tensor=-0.55e9, expansion=1e-305,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(1e-3, 1e-4),
         specific_heat=837.0, convection=90.0, latent_heat=32e3)
@example(moduli=(1e-300, 75e9), poisson=0.33, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(1e-3, 1e-4),
         specific_heat=837.0, convection=90.0, latent_heat=32e3)
@example(moduli=(28e9, 75e9), poisson=0.33, tensor=0.0, expansion=0.0,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(1e200, 1e-4),
         specific_heat=1e200, convection=90.0, latent_heat=32e3)
@example(moduli=(28e9, 75e9), poisson=0.33, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(1e-3, 1e-320),
         specific_heat=837.0, convection=1e-10, latent_heat=32e3)
@example(moduli=(28e9, 75e9), poisson=0.33, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(10.0, 1e-4),
         specific_heat=837.0, convection=90.0, latent_heat=1e308)
# two checks that fail at once, for each pair the order could swap
@example(moduli=(1e-300, 75e9), poisson=0.33, tensor=-1e-305, expansion=2.85e6,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(1e-3, 1e-4),
         specific_heat=837.0, convection=90.0, latent_heat=32e3)
@example(moduli=(1e-300, 75e9), poisson=0.33, tensor=-0.55e9, expansion=1e-305,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(1e-3, 1e-4),
         specific_heat=837.0, convection=90.0, latent_heat=32e3)
@example(moduli=(28e9, 75e9), poisson=0.33, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(1e200, 1e-320),
         specific_heat=1e200, convection=1e-10, latent_heat=32e3)
@example(moduli=(28e9, 75e9), poisson=0.33, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(1e200, 1e-320),
         specific_heat=1e-200, convection=1e-10, latent_heat=1e308)
# accepted at the ends of the range: a cold step takes the composition's bits
@example(moduli=(1e300, 1.5e300), poisson=0.5, tensor=1e-200, expansion=-1e-200,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(1e-150, 1e150),
         specific_heat=1e-150, convection=1e-150, latent_heat=1e300)
# a subnormal latent heat per spring is allowed
@example(moduli=(28e9, 75e9), poisson=0.33, tensor=-0.55e9, expansion=2.85e6,
         diameters=(1e-3, 8e-3), coils=20.0, masses=(1e-3, 1e-4),
         specific_heat=837.0, convection=90.0, latent_heat=1e-320)
def test_spring_constant_validation_equals_the_reference(
    moduli, poisson, tensor, expansion, diameters, coils, masses, specific_heat,
    convection, latent_heat,
):
    """``SpringConstants`` gives the verdict of the check in
    ``tests/reference_model.py``, which composes the plain laws: both pass,
    or both raise the same ``ValidationError`` message.  Where both pass, a
    cold spring steps to the composition's bits.  Drawn over the whole float
    range, few constants pass; the near-bundled variant below draws where
    most do."""
    _assert_spring_constant_validation(
        moduli, poisson, tensor, expansion, diameters, coils, masses, specific_heat,
        convection, latent_heat,
    )


def _near(value):
    """A float within three decades of ``value``, log-uniformly."""
    return st.floats(-3.0, 3.0).map(lambda e: value * 10.0**e)


def _near_signed(value):
    return st.sampled_from([0.0, -0.0]) | _near(value) | _near(-value)


_GEOMETRY_BUNDLED = _BUNDLED.spring_geometry


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    moduli=st.tuples(_near(_BUNDLED.material.young_martensite),
                     _near(_BUNDLED.material.young_austenite)),
    poisson=st.floats(-1.0, 0.5),
    tensor=_near_signed(_BUNDLED.material.phase_transform_tensor),
    expansion=_near_signed(_BUNDLED.material.thermal_expansion_factor),
    diameters=st.tuples(_near(_GEOMETRY_BUNDLED.wire_diameter),
                        _near(_GEOMETRY_BUNDLED.coil_diameter)),
    coils=st.floats(1.0, 1e3),
    masses=st.tuples(_near(_GEOMETRY_BUNDLED.spring_mass),
                     _near(_GEOMETRY_BUNDLED.surface_area)),
    specific_heat=_near(_BUNDLED.material.specific_heat),
    convection=_near(_BUNDLED.env.convection_coefficient),
    latent_heat=st.just(0.0) | _near(_BUNDLED.material.latent_heat),
)
def test_near_spring_constant_validation_equals_the_reference(
    moduli, poisson, tensor, expansion, diameters, coils, masses, specific_heat,
    convection, latent_heat,
):
    """As ``test_spring_constant_validation_equals_the_reference``, with
    every constant drawn within three decades of the bundled one (the
    coefficients of either sign or zero), so that most draws build a
    spring and its cold step is held to the composition's bits."""
    _assert_spring_constant_validation(
        moduli, poisson, tensor, expansion, diameters, coils, masses, specific_heat,
        convection, latent_heat,
    )


def _assert_spring_constant_validation(
    moduli, poisson, tensor, expansion, diameters, coils, masses, specific_heat,
    convection, latent_heat,
):
    young_m, young_a = sorted(moduli)
    wire, coil = sorted(diameters)
    assume(young_m < young_a and wire < coil)
    material = replace(
        _BUNDLED.material, young_martensite=young_m, young_austenite=young_a,
        poisson=poisson, phase_transform_tensor=tensor,
        thermal_expansion_factor=expansion, specific_heat=specific_heat,
        latent_heat=latent_heat,
    )
    geometry = replace(
        _BUNDLED.spring_geometry, wire_diameter=wire, coil_diameter=coil,
        active_coils=coils, spring_mass=masses[0], surface_area=masses[1],
    )
    env = replace(_BUNDLED.env, convection_coefficient=convection)
    _, got_exc = _outcome(SpringConstants, material, geometry, env)
    _, want_exc = _outcome(reference_check, material, geometry, env)
    assert type(got_exc) is type(want_exc), (got_exc, want_exc)
    assert str(got_exc) == str(want_exc)
    if want_exc is None:
        cold = SpringState(env.ambient_temperature, 1.0, 2.0)
        new = assert_same_step(material, geometry, env, cold, 0.0, 2e-3, 1e-3)
        assert new is not None
        assert _bits(new.temperature) == _bits(env.ambient_temperature)


# --- exceptions ---------------------------------------------------------------


def _states(material, geometry):
    stress = shear_stress(geometry, 2.0)
    a_start, a_finish = _reverse_band(material, stress)
    m_start, m_finish = _forward_band(material, stress)
    mid_r = 0.5 * (a_start + a_finish)
    mid_f = 0.5 * (m_start + m_finish)
    return [
        SpringState(300.0, 1.0, 2.0),
        SpringState(mid_r, reverse_fraction(material, mid_r, stress, 1.0), 2.0,
                    branch=Branch.REVERSE),
        SpringState(mid_f, forward_fraction(material, mid_f, stress, 0.0), 2.0,
                    fraction_at_branch_start=0.0, branch=Branch.FORWARD),
    ]


@pytest.mark.parametrize("triple", [0, len(TRIPLES) - 1])
@pytest.mark.parametrize(
    "current, dt, bound, raises",
    [
        (1e153, 1e-3, 1.0, StepTooLarge),  # a huge finite step
        (1e154, 1e-3, 1.0, StepTooLarge),
        (1e155, 1e-3, 1.0, StepTooLarge),  # the heat balance overflows to NaN
        # the heat balance overflows to inf, which an infinite bound lets
        # through to the state's temperature check
        (1e154, 1e-3, math.inf, ValueError),
        (8.0, 1e-3, 1e-4, StepTooLarge),  # an ordinary step over a tight bound
        (8.0, 0.0, 1.0, ValueError),
        (8.0, -1e-3, 1.0, ValueError),
        (-1.0, 1e-3, 1.0, ValueError),
        (-0.0, 1e-3, 1.0, None),
    ],
)
def test_same_exceptions(triple, current, dt, bound, raises):
    material, geometry, env = TRIPLES[triple]
    for state in _states(material, geometry):
        assert_same_step(material, geometry, env, state, current, 0.0, dt, bound)
        _, exc = _outcome(
            fused_step, material, geometry, env, state, current, 0.0, dt, bound
        )
        assert type(exc) is (raises or type(None))


@pytest.mark.parametrize(
    "fraction, transforms",
    [
        (1.0, False),  # the idle return: no arc can be entered
        (0.0, True),  # the closure's return: the forward arc runs to its end
    ],
)
def test_step_to_a_non_positive_temperature_raises(fraction, transforms):
    """RK4 overshoots a stiff heat balance: from 1 K under a 298 K ambient,
    a 30 s step lands below zero kelvin.  With the temperature bound lifted,
    both return paths reject the state as the checked constructor did."""
    material, geometry, env = TRIPLES[0]
    state = SpringState(1.0, fraction, 2.0)
    args = (material, geometry, env, state, 0.0, 0.0, 30.0, 1e9)
    assert assert_same_step(*args) is None
    with pytest.raises(ValueError, match=r"^temperature must be positive \(kelvin\)$"):
        fused_step(*args)
    # the composition, which builds no SpringState, shows the path taken
    landed = _composed_two_latch_step(
        material, geometry, env, _TwoLatchState(1.0, fraction, 2.0, 1.0, 1.0, Branch.IDLE),
        0.0, 0.0, 30.0, 1e9,
    )
    assert landed.temperature <= 0.0
    assert (landed.martensite_fraction != fraction) is transforms


@pytest.mark.parametrize(
    "current, stretch_rate, dt, message",
    [
        (math.nan, 0.0, 1e-3, "current must be non-negative"),
        (math.inf, 0.0, 1e-3, "current must be non-negative"),
        (8.0, 0.0, math.nan, "dt must be positive"),
        (8.0, 0.0, math.inf, "dt must be positive"),
        (8.0, math.nan, 1e-3, "stretch_rate must be finite"),
        (8.0, math.inf, 1e-3, "stretch_rate must be finite"),
        (8.0, -math.inf, 1e-3, "stretch_rate must be finite"),
    ],
)
def test_non_finite_argument_is_refused(current, stretch_rate, dt, message):
    """A NaN or infinite argument raises its check's ValueError at entry,
    not a state with a NaN or infinite force, nor a StepTooLarge."""
    material, geometry, env = TRIPLES[0]
    for state in _states(material, geometry):
        args = (material, geometry, env, state, current, stretch_rate, dt)
        assert assert_same_step(*args) is None
        with pytest.raises(ValueError, match=f"^{message}$"):
            fused_step(*args)


def test_overflow_is_reported_as_overflow():
    material, geometry, env = TRIPLES[0]
    state = _states(material, geometry)[0]
    with pytest.raises(StepTooLarge) as err:
        step_spring(SpringConstants(material, geometry, env), state, 1e155, 0.0, 1e-3)
    assert err.value.overflowed


def test_overflowing_coil_cube_is_refused_at_construction():
    """A coil whose cube overflows is refused as an infinite stiffness where
    its constants are built; the composition, which cubes it in the force
    law, still raises ``OverflowError``."""
    material, geometry, env = TRIPLES[0]
    huge_coil = replace(geometry, coil_diameter=1e200)
    for state in _states(material, geometry):
        args = (material, huge_coil, env, state, 5.0, 0.0, 1e-3)
        assert assert_same_step(*args) is None
        with pytest.raises(ValidationError) as refused:
            fused_step(*args)
        assert str(refused.value).startswith(
            "spring: force-law stiffness at martensite fraction 0 (wire_diameter, "
            "coil_diameter, active_coils, material moduli) is inf N/m;"
        )
        with pytest.raises(OverflowError):
            composed_step_spring(*args)


# --- the constants follow their inputs ---------------------------------------


def test_alternating_inputs_never_reuse_stale_constants():
    """Each call passes a triple that differs from the last call's in one
    object; a kernel that kept the last call's constants would drift."""
    order = [0, 4, 6, 7, 3, 1, 0, 2, 6, 4, 5, 1, 3, 7, 5, 4]
    # even triples heat from below the austenite band, odd ones cool from
    # above the martensite band
    states = []
    for index, (material, geometry, env) in enumerate(TRIPLES):
        stress = shear_stress(geometry, 2.0)
        if index % 2 == 0:
            states.append(SpringState(_reverse_band(material, stress)[0] - 2.0, 1.0, 2.0))
        else:
            states.append(SpringState(_forward_band(material, stress)[0] + 0.5, 0.0, 2.0))
    seen = set()
    for step in range(3000):
        index = order[step % len(order)]
        material, geometry, env = TRIPLES[index]
        current = 9.0 if index % 2 == 0 else 0.0
        new = assert_same_step(
            material, geometry, env, states[index], current, 1e-4 * math.sin(step), 2e-3
        )
        states[index] = new
        seen.add(new.branch)
    assert seen == set(Branch)
    # value-equal copies are new objects: the kernel must accept them too
    material, geometry, env = TRIPLES[1]
    copies = replace(material), replace(geometry), replace(env)
    for triple in (TRIPLES[1], copies, TRIPLES[1]):
        assert_same_step(*triple, states[1], 7.0, 0.0, 2e-3)

"""Electro-thermo-mechanical model of a shape-memory-alloy spring.

One spring couples three rates: Joule heating drives temperature, temperature
drives the martensite fraction through cosine transformation kinetics with
stress-shifted band edges, and both feed a rate-form force law whose stiffness
coefficient depends on the phase mix.  ``step_spring`` advances all three
states over one explicit time step, from the constants a ``SpringConstants``
derives once from the alloy, the coil and its environment.  Everything here is
a pure function of its inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

_SQRT3 = math.sqrt(3.0)
_EPS = sys.float_info.epsilon
# step_spring's closure root lies within this, plus 4 eps |x|, of the true
# root: the length of the last Newton step, or half the bisected bracket
_ROOT_TOLERANCE = 1e-14


class Branch(Enum):
    """Which transformation the spring is currently riding."""

    IDLE = "idle"
    REVERSE = "reverse"  # martensite -> austenite while heating
    FORWARD = "forward"  # austenite -> martensite while cooling


# the members as module globals: the step loop tests and sets the branch many
# times a step, and a global read costs a fraction of an enum attribute read
_IDLE, _REVERSE, _FORWARD = Branch.IDLE, Branch.REVERSE, Branch.FORWARD


class ValidationError(ValueError):
    """A field violates an invariant; the message names the field path."""


class StepTooLarge(RuntimeError):
    """Per-step temperature change exceeded the stability bound (reduce dt),
    or the heat balance overflowed, which no dt cures."""

    def __init__(self, delta: float, bound: float):
        self.overflowed = not math.isfinite(delta)
        if self.overflowed:
            message = (
                f"heat balance overflowed: temperature moved {delta:.3g} K in one "
                "step; the current or the spring's thermal constants are out of range"
            )
        else:
            message = (
                f"temperature moved {delta:.3g} K in one step "
                f"(bound {bound:.3g} K); reduce dt"
            )
        super().__init__(message)
        self.delta = delta
        self.bound = bound


@dataclass(frozen=True)
class SmaMaterial:
    """Alloy constants: phase moduli, transformation band, kinetic and
    thermal coefficients.

    All temperatures in K, moduli and stress-influence coefficients in Pa and
    Pa/K, resistances in ohm, specific heat in J/(kg K), latent heat in J/kg.
    ``phase_transform_tensor`` is negative by convention so that the reverse
    transformation (fraction falling) raises spring force.
    """

    young_martensite: float
    young_austenite: float
    poisson: float
    phase_transform_tensor: float
    thermal_expansion_factor: float
    austenite_start: float
    austenite_finish: float
    martensite_start: float
    martensite_finish: float
    stress_influence_reverse: float
    stress_influence_forward: float
    resistance_martensite: float
    resistance_austenite: float
    specific_heat: float
    latent_heat: float

    def __post_init__(self):
        if not (
            self.martensite_finish
            < self.martensite_start
            <= self.austenite_start
            < self.austenite_finish
        ):
            raise ValueError(
                "transformation temperatures must satisfy "
                "martensite_finish < martensite_start <= austenite_start "
                "< austenite_finish"
            )
        if not (self.young_austenite > self.young_martensite > 0.0):
            raise ValueError("moduli must satisfy young_austenite > young_martensite > 0")
        # written so that NaN fails each check
        if not (
            self.stress_influence_reverse > 0.0 and self.stress_influence_forward > 0.0
        ):
            raise ValueError("stress influence coefficients must be positive")
        if not self.specific_heat > 0.0:
            raise ValueError("specific_heat must be positive")
        if not (self.resistance_martensite > 0.0 and self.resistance_austenite > 0.0):
            raise ValueError("resistances must be positive")
        if not self.latent_heat >= 0.0:
            raise ValueError("latent_heat must be non-negative")
        # the chain above holds for an infinite band end, NaN and inf pass no
        # check of the force-law constants, and the positive constants above
        # may be inf: each is refused by name.  An infinite stress influence
        # is allowed: the band edges then do not shift with stress.
        if not -math.inf < self.martensite_finish:
            raise ValueError("martensite_finish must be finite")
        if not self.austenite_finish < math.inf:
            raise ValueError("austenite_finish must be finite")
        for name in (
            "young_austenite", "poisson", "phase_transform_tensor",
            "thermal_expansion_factor", "resistance_martensite",
            "resistance_austenite", "specific_heat", "latent_heat",
        ):
            if not -math.inf < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class SpringGeometry:
    """Helical spring dimensions: wire diameter, mean coil diameter, active
    coil count, plus the mass and convective surface area used by the heat
    balance.  All SI."""

    wire_diameter: float
    coil_diameter: float
    active_coils: float
    spring_mass: float
    surface_area: float

    def __post_init__(self):
        # written so that NaN and inf fail each check
        if not 0.0 < self.wire_diameter < math.inf:
            raise ValueError("wire_diameter must be positive")
        if not self.wire_diameter < self.coil_diameter < math.inf:
            raise ValueError("coil_diameter must exceed wire_diameter")
        if not 1.0 <= self.active_coils < math.inf:
            raise ValueError("active_coils must be at least 1")
        if not (0.0 < self.spring_mass < math.inf and 0.0 < self.surface_area < math.inf):
            raise ValueError("spring_mass and surface_area must be positive")


@dataclass(frozen=True)
class ThermalEnvironment:
    """Ambient temperature (K) and convective film coefficient (W/(m^2 K))."""

    ambient_temperature: float
    convection_coefficient: float

    def __post_init__(self):
        # written so that NaN fails each check
        if not self.ambient_temperature > 0.0:
            raise ValueError("ambient_temperature must be positive (kelvin)")
        if not self.convection_coefficient > 0.0:
            raise ValueError("convection_coefficient must be positive")
        for name in ("ambient_temperature", "convection_coefficient"):
            if not getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class SpringState:
    """Dynamic state of one spring.

    ``fraction_at_branch_start`` is latched when the state enters the heating
    or cooling transformation band and anchors the cosine arc of ``branch``.
    An idle state carries it unread; the next branch entry overwrites it.
    """

    temperature: float
    martensite_fraction: float
    force: float
    fraction_at_branch_start: float = 1.0
    branch: Branch = Branch.IDLE

    def __post_init__(self):
        if not self.temperature > 0.0:
            raise ValueError("temperature must be positive (kelvin)")
        if not self.temperature < math.inf:
            raise ValueError("temperature must be finite")
        for name in ("martensite_fraction", "fraction_at_branch_start"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not 0.0 <= self.force < math.inf:
            raise ValueError("force must be non-negative (tendon cannot push)")


_new_object = object.__new__


def _state(
    temperature: float,
    fraction: float,
    force: float,
    latch: float,
    branch: Branch,
) -> SpringState:
    """The ``SpringState`` that ``step_spring`` returns, built without
    ``__init__`` and ``__post_init__``: equal to, and hashing like, the one
    the checked constructor builds from the same fields.

    The temperature, and the force's upper end, are checked with the
    constructor's messages: a finite stretch rate can overflow the force to
    inf, and inf - inf to NaN, and an infinite temperature bound lets the
    temperature reach inf.  The other invariants hold by construction on
    both return paths of the step: the fraction is clamped to [0, 1] or
    carried from the input state, the latch comes from an entry-latch helper
    or is carried, and the force is ``max(..., 0.0)``.  A NaN fraction change
    makes the temperature change NaN, so ``StepTooLarge`` is raised before a
    NaN fraction could get here.
    """
    if not 0.0 < temperature < math.inf:
        raise ValueError(
            "temperature must be finite"
            if temperature > 0.0
            else "temperature must be positive (kelvin)"
        )
    if not force < math.inf:
        raise ValueError("force must be non-negative (tendon cannot push)")
    state = _new_object(SpringState)
    fields = state.__dict__
    fields["temperature"] = temperature
    fields["martensite_fraction"] = fraction
    fields["force"] = force
    fields["fraction_at_branch_start"] = latch
    fields["branch"] = branch
    return state


def shear_stress(geometry: SpringGeometry, force: float) -> float:
    """Nominal shear stress in the wire for a coil carrying ``force`` (N)."""
    if force < 0.0:
        raise ValueError("force must be non-negative")
    d = geometry.wire_diameter
    return 8.0 * force * geometry.coil_diameter / (math.pi * d * d * d)


def _reverse_band(material: SmaMaterial, stress: float) -> tuple[float, float]:
    """Austenite start and finish temperatures (K) shifted by ``stress`` (Pa)."""
    shift = stress / material.stress_influence_reverse
    return material.austenite_start + shift, material.austenite_finish + shift


def _forward_band(material: SmaMaterial, stress: float) -> tuple[float, float]:
    """Martensite start and finish temperatures (K) shifted by ``stress`` (Pa)."""
    shift = stress / material.stress_influence_forward
    return material.martensite_start + shift, material.martensite_finish + shift


def reverse_fraction(
    material: SmaMaterial, temperature: float, stress: float, fraction_at_start: float
) -> float:
    """Martensite fraction while heating through the austenite band.

    Below the stress-shifted band the latched starting fraction is returned,
    above it the spring is fully austenite.  Continuous at both edges and
    non-increasing in temperature.
    """
    return _fraction(
        _Kinetics(material), _REVERSE, temperature, stress, fraction_at_start
    )


def forward_fraction(
    material: SmaMaterial, temperature: float, stress: float, fraction_at_start: float
) -> float:
    """Martensite fraction while cooling through the martensite band.

    Above the stress-shifted band the latched starting fraction is returned,
    below it the spring is fully martensite.
    """
    return _fraction(
        _Kinetics(material), _FORWARD, temperature, stress, fraction_at_start
    )


def _reverse_entry_latch(
    k: _Kinetics, temperature: float, stress: float, fraction: float
) -> float:
    """Anchor fraction for a reverse arc entered at the given state.

    Entering at the band edge this is just the current fraction; re-entering
    mid-band (heating resumed after an interruption) the anchor is chosen so
    the cosine arc passes through the current (T, fraction) point, keeping
    the fraction continuous.  The arc is linear in its anchor, so the anchor
    is the fraction over the arc anchored at 1.
    """
    start, finish = _reverse_band(k.material, stress)
    if temperature <= start or fraction <= 0.0 or temperature >= finish:
        return fraction
    full_arc = _fraction(k, _REVERSE, temperature, stress, 1.0)
    if full_arc < 0.5e-12:
        return 1.0
    return min(max(fraction / full_arc, fraction), 1.0)


def _forward_entry_latch(
    k: _Kinetics, temperature: float, stress: float, fraction: float
) -> float:
    """Anchor fraction for a forward arc entered at the given state; the
    mid-band form keeps the fraction continuous on re-entry.

    The cosine is taken directly rather than read back from ``_fraction``,
    whose affine form rounds it away when the anchor is solved for.
    """
    m = k.material
    start, finish = _forward_band(m, stress)
    if temperature >= start or fraction >= 1.0 or temperature <= finish:
        return fraction
    c = math.cos(
        k.forward_slope * (temperature - m.martensite_finish)
        - k.forward_slope_c * stress
    )
    if 1.0 - c < 1e-12:
        return min(fraction, 1.0)
    value = (2.0 * fraction - c - 1.0) / (1.0 - c)
    return min(max(value, 0.0), fraction)


class _Kinetics:
    """The slopes of one material's cosine band kinetics: pi over the band
    width, and that over the stress influence, for each band."""

    __slots__ = (
        "material", "reverse_slope", "reverse_slope_c", "forward_slope",
        "forward_slope_c",
    )

    def __init__(self, material: SmaMaterial):
        self.material = material
        self.reverse_slope = math.pi / (
            material.austenite_finish - material.austenite_start
        )
        self.reverse_slope_c = self.reverse_slope / material.stress_influence_reverse
        self.forward_slope = math.pi / (
            material.martensite_start - material.martensite_finish
        )
        self.forward_slope_c = self.forward_slope / material.stress_influence_forward


def _require_normal(what: str, unit: str, compute, may_be_zero: bool = False):
    """A derived spring constant must be a finite, normal float: a zero or
    subnormal one has underflowed, and dividing by it overflows."""
    try:
        value = compute()
    except ZeroDivisionError:  # a divisor underflowed to 0
        value = math.inf
    if math.isfinite(value) and (
        abs(value) >= sys.float_info.min or (may_be_zero and value == 0.0)
    ):
        return
    raise ValidationError(
        f"spring: {what} is {value:.3g} {unit}; it must be finite and at least "
        f"{sys.float_info.min:.3g} in magnitude"
    )


class SpringConstants(_Kinetics):
    """The products ``step_spring`` reads, derived once from one spring's
    alloy, coil and environment, with the slopes of ``_Kinetics``: build one
    and pass it to every step of that spring.  Each entry uses the operands
    and the left-to-right order of its law in ``tests/reference_model.py``
    or of ``shear_stress``, so that every product rounds as it does there.
    Raw fields are read from the three objects themselves.

    The constructor checks what it derives, since fields that pass their own
    checks can leave the float range together: a 1e-200 m wire cubed is 0,
    and a 1e200 m coil cubed overflows.  The shear stress per newton, the
    force law's coefficients at fractions 0 and 1, the heat capacity and the
    convective conductance must be finite normal floats (the transformation
    and thermal coefficients may be zero where their material constant is),
    and the latent heat per spring must be finite.  Anything else raises a
    ``ValidationError`` naming the product and its fields; a coil whose cube
    overflows is refused as an infinite stiffness.
    """

    __slots__ = (
        "geometry", "env", "conductance", "heat_capacity", "shear_divisor", "d4",
        "stiffness_divisor", "transform", "thermal", "latent_gain", "pi_d3",
    )

    def __init__(
        self, material: SmaMaterial, geometry: SpringGeometry, env: ThermalEnvironment
    ):
        super().__init__(material)
        self.geometry, self.env = geometry, env
        # heating_rate
        self.conductance = geometry.surface_area * env.convection_coefficient
        self.heat_capacity = geometry.spring_mass * material.specific_heat
        # the phase-mixture shear modulus's divisor, as in effective_modulus
        self.shear_divisor = 2.0 * (1.0 + material.poisson)
        # the force law's coefficients, as in force_coefficients
        d = geometry.wire_diameter
        big_d = geometry.coil_diameter
        d3 = d * d * d
        self.d4 = d3 * d
        try:
            self.stiffness_divisor = 8.0 * geometry.active_coils * big_d**3
        except OverflowError:
            # the stiffness check below divides by this zero, and so reads
            # the stiffness of a coil whose cube overflows as inf
            self.stiffness_divisor = 0.0
        self.transform = (
            math.pi * d3 * material.phase_transform_tensor / (8.0 * _SQRT3 * big_d)
        )
        self.thermal = (
            math.pi * d3 * material.thermal_expansion_factor / (8.0 * _SQRT3 * big_d)
        )
        self.latent_gain = material.latent_heat / material.specific_heat
        # as in shear_stress
        self.pi_d3 = math.pi * d * d * d

        # the transformation and thermal coefficients do not depend on the
        # fraction, so they are checked at fraction 0 alone
        for what, unit, compute, may_be_zero in (
            ("shear stress per newton (wire_diameter, coil_diameter)", "Pa",
             lambda: shear_stress(geometry, 1.0), False),
            ("force-law stiffness at martensite fraction 0 (wire_diameter, "
             "coil_diameter, active_coils, material moduli)", "N/m",
             lambda: self.stiffness(0.0), False),
            ("force-law transformation coefficient at martensite fraction 0 "
             "(wire_diameter, coil_diameter, material.phase_transform_tensor)", "N",
             lambda: self.transform, material.phase_transform_tensor == 0.0),
            ("force-law thermal coefficient at martensite fraction 0 "
             "(wire_diameter, coil_diameter, material.thermal_expansion_factor)", "N/K",
             lambda: self.thermal, material.thermal_expansion_factor == 0.0),
            ("force-law stiffness at martensite fraction 1 (wire_diameter, "
             "coil_diameter, active_coils, material moduli)", "N/m",
             lambda: self.stiffness(1.0), False),
            ("heat capacity (spring_mass, material.specific_heat)", "J/K",
             lambda: self.heat_capacity, False),
            ("convective conductance (surface_area, "
             "environment.convection_coefficient)", "W/K",
             lambda: self.conductance, False),
        ):
            _require_normal(what, unit, compute, may_be_zero)
        # zero and subnormal are fine: the heat balance multiplies by it
        latent = geometry.spring_mass * material.latent_heat
        if not latent < math.inf:
            raise ValidationError(
                "spring: latent heat per spring (spring_mass, material.latent_heat) "
                f"is {latent:.3g} J; it must be finite"
            )

    def stiffness(self, fraction: float) -> float:
        """The force law's stiffness (N/m) at martensite fraction ``fraction``."""
        m = self.material
        young = m.young_martensite * fraction + m.young_austenite * (1.0 - fraction)
        return self.d4 * (young / self.shear_divisor) / self.stiffness_divisor


def _fraction(
    k: _Kinetics,
    branch: Branch,
    temperature: float,
    stress: float,
    latch: float,
) -> float:
    """The martensite fraction on the active ``branch``'s cosine arc anchored
    at ``latch``: the band kinetics of the public laws and the entry latches.
    ``step_spring`` runs the same arcs, ``_reverse_arc`` and
    ``_forward_arc``, with these checks made once per step."""
    if not 0.0 <= latch <= 1.0:
        raise ValueError("fraction_at_start must lie in [0, 1]")
    if stress < 0.0:
        raise ValueError("stress must be non-negative")
    if branch is _REVERSE:
        return _reverse_arc(k, temperature, stress, latch)
    return _forward_arc(k, temperature, stress, latch)


def _reverse_arc(k: _Kinetics, temperature: float, stress: float, latch: float) -> float:
    """The reverse branch's arc of ``_fraction``, without its checks."""
    m = k.material
    a_start = m.austenite_start
    shift = stress / m.stress_influence_reverse
    if temperature <= a_start + shift:
        return latch
    if temperature >= m.austenite_finish + shift:
        return 0.0
    arg = k.reverse_slope * (temperature - a_start) - k.reverse_slope_c * stress
    value = 0.5 * latch * (math.cos(arg) + 1.0)
    return min(max(value, 0.0), latch)


def _forward_arc(k: _Kinetics, temperature: float, stress: float, latch: float) -> float:
    """The forward branch's arc of ``_fraction``, without its checks."""
    m = k.material
    m_finish = m.martensite_finish
    shift = stress / m.stress_influence_forward
    if temperature >= m.martensite_start + shift:
        return latch
    if temperature <= m_finish + shift:
        return 1.0
    arg = k.forward_slope * (temperature - m_finish) - k.forward_slope_c * stress
    value = 0.5 * (1.0 - latch) * math.cos(arg) + 0.5 * (1.0 + latch)
    return min(max(value, latch), 1.0)


def _idle_temperature(
    k: SpringConstants, temperature: float, fraction: float, current: float, dt: float
) -> float:
    """Classic RK4 on the heat balance with the phase fraction held, so the
    Joule power is one number for all four stages.  The composition's latent
    term, (m L) * 0.0, is +0.0 for the finite m L a ``SpringConstants``
    holds, and adding it moves no numerator (the Joule power is never -0.0),
    so neither RK4 adds it."""
    m = k.material
    power = current * current * (
        m.resistance_martensite * fraction + m.resistance_austenite * (1.0 - fraction)
    )
    g, ambient, capacity = k.conductance, k.env.ambient_temperature, k.heat_capacity
    k1 = (power - g * (temperature - ambient)) / capacity
    k2 = (power - g * (temperature + 0.5 * dt * k1 - ambient)) / capacity
    k3 = (power - g * (temperature + 0.5 * dt * k2 - ambient)) / capacity
    k4 = (power - g * (temperature + dt * k3 - ambient)) / capacity
    return temperature + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _temperature_on_branch(
    k: SpringConstants,
    branch: Branch,
    temperature: float,
    stress: float,
    latch: float,
    current: float,
    dt: float,
) -> float:
    """Classic RK4 on the heat balance with the phase fraction (and hence the
    resistance) evaluated on the active ``branch``'s arc at every stage.
    Latent heat is not in the stage function; it is applied by the coupled
    correction afterwards.

    ``_fraction``'s latch check is made once, here, with its message; the
    step's closure runs only after a call with the same latch.  Its stress
    check cannot fail on this path: stress0 = 8 f0 D / (pi d^3) with
    f0 >= 0, and the closure's stress is 8 max(F, 0) D / (pi d^3).
    """
    if not 0.0 <= latch <= 1.0:
        raise ValueError("fraction_at_start must lie in [0, 1]")
    m = k.material
    r_m, r_a = m.resistance_martensite, m.resistance_austenite
    g, ambient, capacity = k.conductance, k.env.ambient_temperature, k.heat_capacity
    arc = _reverse_arc if branch is _REVERSE else _forward_arc

    def rate(t: float) -> float:
        xi = arc(k, t, stress, latch)
        power = current * current * (r_m * xi + r_a * (1.0 - xi))
        return (power - g * (t - ambient)) / capacity

    k1 = rate(temperature)
    k2 = rate(temperature + 0.5 * dt * k1)
    k3 = rate(temperature + 0.5 * dt * k2)
    k4 = rate(temperature + dt * k3)
    return temperature + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def step_spring(
    constants: SpringConstants,
    state: SpringState,
    current: float,
    stretch_rate: float,
    dt: float,
    max_temperature_step: float = 1.0,
) -> SpringState:
    """Advance one spring by ``dt`` seconds and return the new state.

    The temperature advances by RK4 on the heat balance; the branch is then
    chosen (reverse while heating through the austenite band, forward while
    cooling through the martensite band, idle otherwise) with the starting
    fraction latched on entry.  On an active branch the fraction change, the
    latent-heat temperature correction and the stress feedback on the band
    edges are solved together as one monotone scalar root, found by
    safeguarded Newton from a zero change (``_closure_root``), so that the
    update is stable for physically large latent heats.
    The force then advances by the rate law using the realized discrete
    rates, floored at zero.

    This is a fused kernel: it reads the products of ``constants``, the
    spring's ``SpringConstants``, and an idle spring's RK4 takes the Joule
    power once per step.  The RK4 stages and the closure of an active step
    call the branch's arc routine directly, with the latch checked once.
    A cold spring (idle at the ambient temperature, fully martensite,
    without current) takes the idle path like any other: for the finite
    constants that ``SpringConstants`` admits, every stage of its heat
    balance is exactly zero, so only its force moves.  ``engine.simulate``
    carries such a spring as that force alone while it stays undriven.
    The step computes what the plain ``heating_rate``, band kinetics, entry
    latches and ``force_coefficients`` of ``tests/reference_model.py`` and
    ``shear_stress`` compose to, with the closure solved by that module's
    Brent zeroin;
    ``tests/test_spring_kernel.py`` pins every exception, and every bit of
    the result, to that composition, except where the root lies inside the
    closure's bracket: there the two roots agree within the root tolerance.

    Raises StepTooLarge when the temperature moves more than
    ``max_temperature_step`` in a single step.
    """
    # written so that NaN fails each check
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive")
    if not 0.0 <= current < math.inf:
        raise ValueError("current must be non-negative")
    if not math.isfinite(stretch_rate):
        raise ValueError("stretch_rate must be finite")
    k = constants
    t0 = state.temperature
    xi0 = state.martensite_fraction
    f0 = state.force
    latch = state.fraction_at_branch_start
    branch = state.branch

    material, geometry = k.material, k.geometry
    stress0 = 8.0 * f0 * geometry.coil_diameter / k.pi_d3
    if branch is _IDLE:
        t_star = _idle_temperature(k, t0, xi0, current, dt)
    else:
        t_star = _temperature_on_branch(k, branch, t0, stress0, latch, current, dt)
    heating = t_star > t0

    # Branch exits: direction reversed or the transformation has completed.
    if branch is _REVERSE and (not heating or xi0 <= 0.0):
        branch = _IDLE
    elif branch is _FORWARD and (heating or xi0 >= 1.0):
        branch = _IDLE

    elastic_force = f0 + k.stiffness(xi0) * stretch_rate * dt
    transform, thermal = k.transform, k.thermal

    # Branch entries latch the current fraction as the cosine-arc anchor.
    if branch is _IDLE:
        if (
            heating
            and xi0 > 0.0
            and t_star > material.austenite_start
            + stress0 / material.stress_influence_reverse
        ):
            branch = _REVERSE
            latch = _reverse_entry_latch(k, t0, stress0, xi0)
        elif (
            not heating
            and xi0 < 1.0
            and t_star < material.martensite_start
            + stress0 / material.stress_influence_forward
        ):
            branch = _FORWARD
            latch = _forward_entry_latch(k, t0, stress0, xi0)
        else:
            # Idle: the fraction holds and no closure is needed.
            if state.branch is not _IDLE:
                # an arc was left, so the step is redone with the fraction held
                t_star = _idle_temperature(k, t0, xi0, current, dt)
            delta_t = t_star - t0
            # written so that a NaN step fails the guard too
            if not abs(delta_t) <= max_temperature_step:
                raise StepTooLarge(delta_t, max_temperature_step)
            # the law's d_xi term stays: it keeps the sign of a zero force
            # and the NaN of an infinite coefficient
            force_new = max(elastic_force + transform * 0.0 + thermal * delta_t, 0.0)
            return _state(t_star, xi0, force_new, latch, branch)
        t_star = _temperature_on_branch(k, branch, t0, stress0, latch, current, dt)

    # Joint per-step closure: the fraction change feeds back on the
    # temperature (latent heat) and on the band edges (stress shift).
    # Both couplings are affine in d_xi, so the residual below is strictly
    # decreasing: its root in the bracket is unique, and _closure_root
    # finds it.
    latent_gain, coil_diameter, pi_d3 = k.latent_gain, geometry.coil_diameter, k.pi_d3
    if branch is _REVERSE:
        arc, lower, upper, far = _reverse_arc, 0.0, latch, -xi0
        slope, slope_c = k.reverse_slope, k.reverse_slope_c
    else:
        arc, lower, upper, far = _forward_arc, latch, 1.0, 1.0 - xi0
        slope, slope_c = k.forward_slope, k.forward_slope_c
    # the arc argument's slope in d_xi: through the temperature, and through
    # the stress too while the candidate force is positive
    slack_gain = slope * latent_gain
    taut_gain = slack_gain - slope_c * (
        8.0 * coil_diameter / pi_d3 * (transform + thermal * latent_gain)
    )

    def residual(d_xi: float) -> tuple[float, float]:
        t_cand = t_star + latent_gain * d_xi
        force_cand = elastic_force + transform * d_xi + thermal * (t_cand - t0)
        stress_cand = 8.0 * max(force_cand, 0.0) * coil_diameter / pi_d3
        xi_cand = arc(k, t_cand, stress_cand, latch)
        # The arc is lower + (upper - lower) (1 + cos(arg)) / 2 inside its
        # band, with arg in (0, pi), so its slope in arg, -(upper - lower)
        # sin(arg) / 2, is -sqrt((xi - lower) (upper - xi)).  That is 0
        # where the arc returns an end: outside the band, or clamped.
        arc_slope = -math.sqrt((xi_cand - lower) * (upper - xi_cand)) * (
            taut_gain if force_cand > 0.0 else slack_gain
        )
        return xi_cand - xi0 - d_xi, arc_slope - 1.0

    d_xi = _closure_root(residual, far)
    t_new = t_star + latent_gain * d_xi
    xi_new = min(max(xi0 + d_xi, 0.0), 1.0)
    d_xi = xi_new - xi0

    delta_t = t_new - t0
    if not abs(delta_t) <= max_temperature_step:
        raise StepTooLarge(delta_t, max_temperature_step)

    force_new = max(elastic_force + transform * d_xi + thermal * delta_t, 0.0)

    # Transformation completed: park the branch until conditions re-enter it.
    if branch is _REVERSE and xi_new <= 0.0:
        xi_new = 0.0
        branch = _IDLE
    elif branch is _FORWARD and xi_new >= 1.0:
        xi_new = 1.0
        branch = _IDLE

    return _state(t_new, xi_new, force_new, latch, branch)


def _closure_root(residual, far: float) -> float:
    """The active step's fraction change: the root of the decreasing
    ``residual`` between 0 and ``far``, the change that completes the
    transformation (-xi0 on the reverse branch, 1 - xi0 on the forward one).
    ``residual(d_xi)`` returns the residual and its slope in d_xi.

    Where the residual at 0 already has the sign of the far side (the band
    edge outran the temperature), the change is 0.  Otherwise safeguarded
    Newton from 0 (rtsafe: Press et al., Numerical Recipes, sec. 9.4) keeps
    a sign bracket and bisects it where a Newton step would leave it, would
    not halve the last step, or the slope is not negative.  ``far`` is
    evaluated only when a step would leave through it or end within the
    tolerance of it; where its residual has the sign of the side beyond the
    root, the transformation completes and ``far`` is returned exactly.  The
    iteration stops at a step no longer than _ROOT_TOLERANCE + 4 eps |x|,
    zeroin's tolerance: a bisected bracket then holds the root within it,
    and a Newton step, where the residual is smooth, much closer."""
    f, slope = residual(0.0)
    reverse = far < 0.0
    if f >= 0.0 if reverse else f <= 0.0:
        return 0.0
    lo, hi = (far, 0.0) if reverse else (0.0, far)
    x, step, far_known = 0.0, math.inf, False
    while True:
        tol = _ROOT_TOLERANCE + 4.0 * _EPS * abs(x)
        last, step = step, -f / slope if slope < 0.0 else math.nan
        target = x + step
        newton = lo < target < hi and abs(step) <= 0.5 * abs(last)
        if not far_known and not (newton and abs(far - target) > tol):
            f_far = residual(far)[0]
            if f_far <= 0.0 if reverse else f_far >= 0.0:
                return far
            far_known = True
        if not newton:
            target = 0.5 * (lo + hi)
            step = target - x
        if abs(step) <= tol:
            return target
        x = target
        f, slope = residual(x)
        if f == 0.0:
            return x
        if f > 0.0:
            lo = x
        else:
            hi = x

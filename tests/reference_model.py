"""The paper's laws written one formula at a time: the oracles the fused
kernels in ``sma_neck`` are pinned to.

``sma.step_spring``, ``engine._Statics.residual`` and the tendon forces in
``engine.simulate`` each compute several of these laws in one pass.  The
oracle tests compose the functions below and compare the kernels' results
with theirs bit for bit, so each law has one implementation in the package
and one plain reference here.  The band kinetics are also public
(``sma.reverse_fraction`` and ``sma.forward_fraction`` call the kernel's
``sma._fraction``); the plain copies below are what the spring oracle
composes.  ``effective_modulus`` and ``force_coefficients`` are the force
law's coefficients that the package derives only in ``sma.SpringConstants``,
whose constructor checks them and the heat balance's products;
``_check_spring_constants`` below is that check composed from these laws.
``_zeroin`` is the bracketing root the spring oracle solves the step's
closure with, where ``sma._closure_root`` runs Newton.  No run path calls
this module.
"""

from __future__ import annotations

import math
import sys

from sma_neck.backbone import ArcPose, BackboneGeometry, _frame_t, _Vec3
from sma_neck.pennate import PennateUnit, rest_chord_length
from sma_neck.sma import (
    SmaMaterial,
    SpringGeometry,
    ThermalEnvironment,
    ValidationError,
    _EPS,
    _ROOT_TOLERANCE,
    _forward_band,
    _reverse_band,
    shear_stress,
)


# --- spring heat balance (sma) ---------------------------------------------


def phase_resistance(material: SmaMaterial, fraction: float) -> float:
    """Electrical resistance of the spring at the given phase mix (ohm)."""
    return material.resistance_martensite * fraction + material.resistance_austenite * (
        1.0 - fraction
    )


def heating_rate(
    material: SmaMaterial,
    geometry: SpringGeometry,
    env: ThermalEnvironment,
    temperature: float,
    fraction: float,
    current: float,
    fraction_rate: float = 0.0,
) -> float:
    """Temperature rate (K/s) from the energy balance: Joule input, convective
    loss and latent heat of the active transformation (zero when idle)."""
    if current < 0.0:
        raise ValueError("current must be non-negative")
    resistance = phase_resistance(material, fraction)
    power = current * current * resistance
    loss = geometry.surface_area * env.convection_coefficient * (
        temperature - env.ambient_temperature
    )
    latent = geometry.spring_mass * material.latent_heat * fraction_rate
    return (power - loss + latent) / (geometry.spring_mass * material.specific_heat)


# --- spring force law (sma) ------------------------------------------------

_SQRT3 = math.sqrt(3.0)


def effective_modulus(material: SmaMaterial, fraction: float) -> tuple[float, float]:
    """Phase-mixture Young's and shear moduli at martensite fraction ``fraction``."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"martensite fraction must lie in [0, 1], got {fraction}")
    young = material.young_martensite * fraction + material.young_austenite * (
        1.0 - fraction
    )
    shear = young / (2.0 * (1.0 + material.poisson))
    return young, shear


def force_coefficients(
    material: SmaMaterial, geometry: SpringGeometry, fraction: float
) -> tuple[float, float, float]:
    """Coefficients of the rate-form force law.

    Returns (stiffness N/m, transformation coefficient N, thermal coefficient
    N/K): force rate = stiffness * stretch rate + transformation * fraction
    rate + thermal * temperature rate.
    """
    d = geometry.wire_diameter
    big_d = geometry.coil_diameter
    _, shear = effective_modulus(material, fraction)
    d3 = d * d * d
    stiffness = d3 * d * shear / (8.0 * geometry.active_coils * big_d**3)
    transform = math.pi * d3 * material.phase_transform_tensor / (8.0 * _SQRT3 * big_d)
    thermal = math.pi * d3 * material.thermal_expansion_factor / (8.0 * _SQRT3 * big_d)
    return stiffness, transform, thermal


# --- spring-constant validation (sma) ---------------------------------------
# The checks ``sma.SpringConstants`` makes of what it derives, composed from
# the plain force law and the plain products of the heat balance: the
# constructor must give the same verdict and message.


def _require_normal(what: str, unit: str, compute, may_be_zero: bool = False):
    """A derived spring constant must be a finite, normal float."""
    try:
        value = compute()
    except (ZeroDivisionError, OverflowError):  # an intermediate left the range
        value = math.inf
    if math.isfinite(value) and (
        abs(value) >= sys.float_info.min or (may_be_zero and value == 0.0)
    ):
        return
    raise ValidationError(
        f"spring: {what} is {value:.3g} {unit}; it must be finite and at least "
        f"{sys.float_info.min:.3g} in magnitude"
    )


def _check_spring_constants(
    material: SmaMaterial, spring: SpringGeometry, env: ThermalEnvironment
) -> None:
    """Reject fields whose derived per-spring constants leave the float
    range: the shear stress per newton, the force law's coefficients at both
    fractions, the heat capacity and the convective conductance must be
    finite normal floats, and the latent heat per spring finite.  Each field
    passes its own check, yet a 1e-200 m wire cubed is 0 and a 1e200 m coil
    cubed overflows; a step would then raise or return NaN."""
    _require_normal(
        "shear stress per newton (wire_diameter, coil_diameter)", "Pa",
        lambda: shear_stress(spring, 1.0),
    )
    force_law = (
        ("stiffness", "N/m", "active_coils, material moduli", 1.0, 0),
        ("transformation coefficient", "N", "material.phase_transform_tensor",
         material.phase_transform_tensor, 1),
        ("thermal coefficient", "N/K", "material.thermal_expansion_factor",
         material.thermal_expansion_factor, 2),
    )
    for xi in (0.0, 1.0):
        for name, unit, fields, factor, index in force_law:
            # zero only where the material constant it scales is zero
            _require_normal(
                f"force-law {name} at martensite fraction {xi:g} "
                f"(wire_diameter, coil_diameter, {fields})", unit,
                lambda: force_coefficients(material, spring, xi)[index],
                factor == 0.0,
            )
    _require_normal(
        "heat capacity (spring_mass, material.specific_heat)", "J/K",
        lambda: spring.spring_mass * material.specific_heat,
    )
    _require_normal(
        "convective conductance (surface_area, "
        "environment.convection_coefficient)", "W/K",
        lambda: spring.surface_area * env.convection_coefficient,
    )
    latent = spring.spring_mass * material.latent_heat
    if not math.isfinite(latent):
        raise ValidationError(
            "spring: latent heat per spring (spring_mass, material.latent_heat) "
            f"is {latent:.3g} J; it must be finite"
        )


# --- the step's closure root (sma) ------------------------------------------
# Brent's zeroin on the closure's whole bracket: the root the spring
# composition solves its closure with, where sma._closure_root runs
# safeguarded Newton from d_xi = 0.


def _zeroin(fn, a: float, b: float, fa: float, fb: float) -> float:
    """Root of a decreasing scalar ``fn`` on [a, b], given fa = fn(a) and
    fb = fn(b), by Brent's zeroin (Algorithms for Minimization without
    Derivatives, 1973, ch. 4): inverse quadratic or secant steps, with a
    bisection step whenever they would not shrink the bracket fast enough.
    The root lies within _ROOT_TOLERANCE + 4 eps |x| of the returned x."""
    if fa <= 0.0:
        return a
    if fb >= 0.0:
        return b
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * _ROOT_TOLERANCE
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * xm * s
                q = 1.0 - s
            else:  # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < 3.0 * xm * q - abs(tol1 * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = fn(b)
        if (fb > 0.0) == (fc > 0.0) and fb != 0.0:
            c, fc = a, fa
            d = e = b - a


# --- band kinetics and the arc anchors (sma) -------------------------------


def reverse_fraction(
    material: SmaMaterial, temperature: float, stress: float, fraction_at_start: float
) -> float:
    """Martensite fraction while heating through the austenite band.

    Below the stress-shifted band the latched starting fraction is returned,
    above it the spring is fully austenite.  Continuous at both edges and
    non-increasing in temperature.
    """
    if not 0.0 <= fraction_at_start <= 1.0:
        raise ValueError("fraction_at_start must lie in [0, 1]")
    if stress < 0.0:
        raise ValueError("stress must be non-negative")
    start, finish = _reverse_band(material, stress)
    if temperature <= start:
        return fraction_at_start
    if temperature >= finish:
        return 0.0
    slope = math.pi / (material.austenite_finish - material.austenite_start)
    arg = slope * (temperature - material.austenite_start) - (
        slope / material.stress_influence_reverse
    ) * stress
    value = 0.5 * fraction_at_start * (math.cos(arg) + 1.0)
    return min(max(value, 0.0), fraction_at_start)


def forward_fraction(
    material: SmaMaterial, temperature: float, stress: float, fraction_at_start: float
) -> float:
    """Martensite fraction while cooling through the martensite band.

    Above the stress-shifted band the latched starting fraction is returned,
    below it the spring is fully martensite.
    """
    if not 0.0 <= fraction_at_start <= 1.0:
        raise ValueError("fraction_at_start must lie in [0, 1]")
    if stress < 0.0:
        raise ValueError("stress must be non-negative")
    start, finish = _forward_band(material, stress)
    if temperature >= start:
        return fraction_at_start
    if temperature <= finish:
        return 1.0
    slope = math.pi / (material.martensite_start - material.martensite_finish)
    arg = slope * (temperature - material.martensite_finish) - (
        slope / material.stress_influence_forward
    ) * stress
    value = 0.5 * (1.0 - fraction_at_start) * math.cos(arg) + 0.5 * (
        1.0 + fraction_at_start
    )
    return min(max(value, fraction_at_start), 1.0)


def _reverse_entry_latch(
    material: SmaMaterial, temperature: float, stress: float, fraction: float
) -> float:
    """Anchor fraction for a reverse arc entered at the given state.

    Entering at the band edge this is just the current fraction; re-entering
    mid-band (heating resumed after an interruption) the anchor is chosen so
    the cosine arc passes through the current (T, fraction) point, keeping
    the fraction continuous.  The arc is linear in its anchor, so the anchor
    is the fraction over the arc anchored at 1.
    """
    start, finish = _reverse_band(material, stress)
    if temperature <= start or fraction <= 0.0 or temperature >= finish:
        return fraction
    full_arc = reverse_fraction(material, temperature, stress, 1.0)
    if full_arc < 0.5e-12:
        return 1.0
    return min(max(fraction / full_arc, fraction), 1.0)


def _forward_entry_latch(
    material: SmaMaterial, temperature: float, stress: float, fraction: float
) -> float:
    """Anchor fraction for a forward arc entered at the given state; the
    mid-band form keeps the fraction continuous on re-entry.

    The cosine is taken directly rather than read back from forward_fraction,
    whose affine form rounds it away when the anchor is solved for.
    """
    start, finish = _forward_band(material, stress)
    if temperature >= start or fraction >= 1.0 or temperature <= finish:
        return fraction
    slope = math.pi / (material.martensite_start - material.martensite_finish)
    arg = slope * (temperature - material.martensite_finish) - (
        slope / material.stress_influence_forward
    ) * stress
    c = math.cos(arg)
    if 1.0 - c < 1e-12:
        return min(fraction, 1.0)
    value = (2.0 * fraction - c - 1.0) / (1.0 - c)
    return min(max(value, 0.0), fraction)


# --- backbone restoring moment (backbone) ----------------------------------


def _rotate_t(rot, v):
    x, y, z = v
    return (
        rot[0] * x + rot[1] * y + rot[2] * z,
        rot[3] * x + rot[4] * y + rot[5] * z,
        rot[6] * x + rot[7] * y + rot[8] * z,
    )


def _elastic_moment_t(
    kappa: float, phi: float, twist: float, ei_y: float, gj_over_l: float, length: float
) -> tuple[float, float, float]:
    # diag(EIxx, EIyy, GJ/l) . [0, kappa, twist] has no x component, so the
    # EIxx entry never contributes under the constant-curvature assumption.
    local_y = ei_y * kappa
    local_z = gj_over_l * twist
    theta = kappa * length
    cb, sb = math.cos(theta), math.sin(theta)
    # Rz(phi) . Ry(theta) . (0, local_y, local_z)
    x1, y1, z1 = sb * local_z, local_y, cb * local_z
    ca, sa = math.cos(phi), math.sin(phi)
    return ca * x1 - sa * y1, sa * x1 + ca * y1, z1


def elastic_moment(pose: ArcPose, geometry: BackboneGeometry) -> _Vec3:
    """Restoring moment (N m, base frame) stored in the bent, twisted backbone."""
    return _elastic_moment_t(
        pose.curvature,
        pose.bending_plane_angle,
        pose.twist,
        geometry.bending_stiffness_y,
        geometry.torsional_stiffness / geometry.length,
        geometry.length,
    )


# --- pennate force transfer and tendon moments (pennate) -------------------


def pennate_force(unit: PennateUnit, spring_force: float) -> float:
    """Tendon force (N) produced by the unit's springs each pulling
    ``spring_force`` at the pennation angle."""
    if spring_force < 0.0:
        raise ValueError("spring_force must be non-negative")
    return unit.fibers * spring_force * math.cos(unit.pennation_angle)


def tendon_force_from_stretch(unit: PennateUnit, contraction: float) -> float:
    """Stiffness-model tendon force (N) for a unit contracted by
    ``contraction`` metres; zero when slack (contraction <= 0)."""
    if contraction <= 0.0:
        return 0.0
    return unit.tendon_stiffness * contraction


def _line_of_action_t(
    head_local: _Vec3,
    base: _Vec3,
    rest_chord: float,
    tip: _Vec3,
    rot,
) -> tuple[_Vec3, _Vec3, float]:
    """(attachment point, unit pull direction, chord contraction) for a pose
    given the tip position and rotation of the head mount."""
    ax, ay, az = _rotate_t(rot, head_local)
    px, py, pz = tip[0] + ax, tip[1] + ay, tip[2] + az
    cx, cy, cz = base[0] - px, base[1] - py, base[2] - pz
    chord = math.sqrt(cx * cx + cy * cy + cz * cz)
    if chord < 1e-12:
        raise ValueError("degenerate muscle geometry: attachment reached the anchor")
    inv = 1.0 / chord
    return (px, py, pz), (cx * inv, cy * inv, cz * inv), rest_chord - chord


def _tendon_moment_t(tip: _Vec3, lines, forces) -> _Vec3:
    """Summed moment about the tip of tendons pulling ``forces`` along
    ``lines`` (as from ``_line_of_action_t``): each lever from the tip
    crossed with its force vector."""
    mx = my = mz = 0.0
    for (point, direction, _), force in zip(lines, forces):
        lx, ly, lz = point[0] - tip[0], point[1] - tip[1], point[2] - tip[2]
        fx, fy, fz = force * direction[0], force * direction[1], force * direction[2]
        mx += ly * fz - lz * fy
        my += lz * fx - lx * fz
        mz += lx * fy - ly * fx
    return mx, my, mz


def _unit_line(unit: PennateUnit, pose: ArcPose, geometry: BackboneGeometry):
    """Tip position and the unit's line of action at ``pose``."""
    tip, rot = _frame_t(
        pose.curvature, pose.bending_plane_angle, pose.twist, geometry.length
    )
    line = _line_of_action_t(
        unit.head_attachment_local,
        unit.base_attachment,
        rest_chord_length(unit, geometry),
        tip,
        rot,
    )
    return tip, line


def unit_line_of_action(
    unit: PennateUnit, pose: ArcPose, geometry: BackboneGeometry
) -> tuple[_Vec3, _Vec3, float]:
    """Attachment point (m), unit direction of pull (toward the base anchor)
    and chord contraction relative to rest (m, positive = shortened)."""
    return _unit_line(unit, pose, geometry)[1]


def unit_moment(
    unit: PennateUnit, pose: ArcPose, geometry: BackboneGeometry, tendon_force: float
) -> _Vec3:
    """Moment (N m, base frame) the unit applies about the backbone tip when
    pulling with ``tendon_force`` along its chord."""
    if tendon_force < 0.0:
        raise ValueError("tendon_force must be non-negative")
    tip, line = _unit_line(unit, pose, geometry)
    return _tendon_moment_t(tip, (line,), (tendon_force,))

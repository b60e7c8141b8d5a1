"""Geometry and mechanics of one two-spring pennate muscle unit.

A unit runs from a base-plate anchor to an attachment on the head mount; its
two SMA springs meet the tendon line at the pennation angle.  Spring force
maps to tendon force through the pennation cosine; the unit's moment on the
head mount is the lever from the backbone tip to the attachment crossed with
the tendon force along the chord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .backbone import ArcPose, BackboneGeometry, _frame_t, _rotate_t, _Vec3
from .sma import SpringState


@dataclass(frozen=True)
class PennateUnit:
    """One muscle unit: anchor points, pennation angle (rad), tendon stiffness
    (N/m) and the dynamic state of its springs.

    The unit's ``fibers`` springs get the same current at the same pennation
    angle, so they share one ``spring`` state.  ``head_attachment_local`` is
    expressed in the head-mount (tip) frame; ``base_attachment`` in the base
    frame.
    """

    index: int
    base_attachment: _Vec3
    head_attachment_local: _Vec3
    pennation_angle: float
    tendon_stiffness: float
    spring: SpringState
    fibers: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("unit index starts at 1")
        if not 0.0 <= self.pennation_angle < 0.5 * math.pi:
            raise ValueError("pennation_angle must lie in [0, pi/2)")
        if self.tendon_stiffness <= 0.0:
            raise ValueError("tendon_stiffness must be positive")
        if self.fibers < 1:
            raise ValueError("a pennate unit needs at least one spring")
        object.__setattr__(self, "base_attachment", tuple(map(float, self.base_attachment)))
        object.__setattr__(
            self, "head_attachment_local", tuple(map(float, self.head_attachment_local))
        )


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


def rest_chord_length(unit: PennateUnit, geometry: BackboneGeometry) -> float:
    """Anchor-to-attachment distance with the backbone straight and untwisted."""
    hx, hy, hz = unit.head_attachment_local
    bx, by, bz = unit.base_attachment
    dx, dy, dz = hx - bx, hy - by, hz + geometry.length - bz
    chord = math.sqrt(dx * dx + dy * dy + dz * dz)
    if chord < 1e-9:
        raise ValueError(
            f"unit {unit.index}: head and base attachments coincide at rest"
        )
    return chord


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

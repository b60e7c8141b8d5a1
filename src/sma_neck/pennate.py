"""Geometry and mechanics of one two-spring pennate muscle unit.

A unit runs from a base-plate anchor to an attachment on the head mount; its
two SMA springs meet the tendon line at the pennation angle.  Spring force
maps to tendon force through the pennation cosine; the unit's moment on the
head mount is the lever from the backbone tip to the attachment crossed with
the tendon force along the chord.  The engine computes both inline
(``engine.simulate`` and ``engine._Statics``); ``tests/reference_model.py``
holds them written one law at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .backbone import BackboneGeometry, _Vec3
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
        if not 0.0 < self.tendon_stiffness < math.inf:  # NaN and inf fail it too
            raise ValueError("tendon_stiffness must be positive")
        if self.fibers < 1:
            raise ValueError("a pennate unit needs at least one spring")
        for name in ("base_attachment", "head_attachment_local"):
            point = tuple(map(float, getattr(self, name)))
            # written so that NaN fails it too
            if not all(-math.inf < v < math.inf for v in point):
                raise ValueError(f"{name} coordinates must be finite")
            object.__setattr__(self, name, point)


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

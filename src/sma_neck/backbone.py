"""Constant-curvature arc model of the flexible backbone.

The backbone is a circular arc parameterized by curvature, bending-plane
angle and twist; the bending angle is curvature times length.  Positions and
frames follow the usual arc geometry.

Scalar helpers (suffix ``_t``) operate on plain floats/tuples; the public
functions check their arguments and return tuples.  The engine's pose kernel
(``engine._Statics``) writes the same formulas out in one pass, bit-identical
to these scalar forms, together with the elastic restoring moment (the
Euler-Bernoulli bending/torsion law rotated into the base frame), whose
one-formula-at-a-time reference is ``tests/reference_model.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# kappa * s below this switches the arc formulas to their series limit
STRAIGHT_THRESHOLD = 1e-7

_TWO_PI = 2.0 * math.pi

_Vec3 = tuple[float, float, float]


@dataclass(frozen=True)
class BackboneGeometry:
    """Length (m), bending stiffness about the local y axis (N m^2) and
    torsional stiffness (N m^2) of the backbone.  A constant-curvature arc
    never bends about x, so no x stiffness is kept."""

    length: float
    bending_stiffness_y: float
    torsional_stiffness: float

    def __post_init__(self):
        for name in ("length", "bending_stiffness_y", "torsional_stiffness"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN and inf fail it too
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ArcPose:
    """Arc configuration (curvature 1/m, bending-plane angle rad, twist rad).

    Negative curvature is normalized to positive curvature with the bending
    plane rotated by pi, and the plane angle is wrapped to [0, 2*pi), so a
    bent pose has one representation.
    """

    curvature: float
    bending_plane_angle: float = 0.0
    twist: float = 0.0

    def __post_init__(self):
        kappa = self.curvature
        phi = self.bending_plane_angle
        if not (math.isfinite(kappa) and math.isfinite(phi) and math.isfinite(self.twist)):
            raise ValueError("pose components must be finite")
        if kappa < 0.0:
            kappa = -kappa
            phi = phi + math.pi
        object.__setattr__(self, "curvature", kappa)
        object.__setattr__(self, "bending_plane_angle", _wrap_angle(phi))


def _wrap_angle(phi: float) -> float:
    """``phi`` wrapped to [0, 2 pi).  A tiny negative angle's ``% 2 pi``
    rounds up to exactly 2 pi, which is taken as 0."""
    phi %= _TWO_PI
    return 0.0 if phi == _TWO_PI else phi


def _position_t(kappa: float, phi: float, s: float) -> tuple[float, float, float]:
    ks = kappa * s
    if ks < STRAIGHT_THRESHOLD:
        # 4th-order series keeps the solver residual smooth through zero
        radial = 0.5 * kappa * s * s * (1.0 - ks * ks / 12.0)
        axial = s * (1.0 - ks * ks / 6.0)
    else:
        radial = (1.0 - math.cos(ks)) / kappa
        axial = math.sin(ks) / kappa
    return math.cos(phi) * radial, math.sin(phi) * radial, axial


def _rotation_t(
    phi: float, theta: float, twist: float
) -> tuple[float, float, float, float, float, float, float, float, float]:
    """Row-major 3x3 rotation Rz(phi) . Ry(theta) . Rz(twist - phi)."""
    ca, sa = math.cos(phi), math.sin(phi)
    cb, sb = math.cos(theta), math.sin(theta)
    psi = twist - phi
    cc, sc = math.cos(psi), math.sin(psi)
    # Rz(phi) . Ry(theta)
    r00, r01, r02 = ca * cb, -sa, ca * sb
    r10, r11, r12 = sa * cb, ca, sa * sb
    r20, r21, r22 = -sb, 0.0, cb
    # . Rz(psi)
    return (
        r00 * cc + r01 * sc, -r00 * sc + r01 * cc, r02,
        r10 * cc + r11 * sc, -r10 * sc + r11 * cc, r12,
        r20 * cc + r21 * sc, -r20 * sc + r21 * cc, r22,
    )


def _frame_t(kappa: float, phi: float, twist: float, s: float):
    """Position and row-major rotation of the cross-section at arc length ``s``."""
    return _position_t(kappa, phi, s), _rotation_t(phi, kappa * s, twist)


def _check_arc_coordinate(s: float, length: float) -> None:
    if not 0.0 <= s <= length * (1.0 + 1e-12):
        raise ValueError(f"arc coordinate {s} outside [0, {length}]")


def arc_position(pose: ArcPose, geometry: BackboneGeometry, s: float) -> _Vec3:
    """Position (m) of the backbone point at arc length ``s`` from the base."""
    _check_arc_coordinate(s, geometry.length)
    return _position_t(pose.curvature, pose.bending_plane_angle, s)


def arc_frame(pose: ArcPose, geometry: BackboneGeometry, s: float):
    """Homogeneous transform (4x4) of the arc cross-section at ``s``, as four
    row tuples."""
    _check_arc_coordinate(s, geometry.length)
    (px, py, pz), rot = _frame_t(pose.curvature, pose.bending_plane_angle, pose.twist, s)
    return (
        (rot[0], rot[1], rot[2], px),
        (rot[3], rot[4], rot[5], py),
        (rot[6], rot[7], rot[8], pz),
        (0.0, 0.0, 0.0, 1.0),
    )

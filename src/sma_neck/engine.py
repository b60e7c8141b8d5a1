"""Coupled simulation engine.

Each time step advances the three units' spring states through their
electro-thermal dynamics (the springs of one unit share a state), aggregates
the three tendon forces, and solves the quasi-static moment balance on the
backbone (muscle moments + gravity - elastic restoring moment = 0) for the
arc pose by damped Newton iteration.  The Jacobian is exact: it is
assembled from the closed-form derivatives of the constant-curvature arc
(tip velocity, angular velocity of the head mount and elastic moment rate)
and of each tendon's moment.  The solve runs in the Cartesian curvature
components u = kappa (cos phi, sin phi), which have one value at every pose,
the straight one included, where the bending-plane angle has none.  Each
step's solve starts from the quadratic extrapolation of the last three poses
and first takes chord (simplified-Newton) steps with the Jacobian the run's
previous solve ended with; it forms a fresh Jacobian only when those do not
meet the tolerance.  ``simulate`` hands that Jacobian from solve to solve
within one run, so no run sees another's.

Spring stretch rates are fed back from the pose change of the previous
accepted step (one-step lag), which breaks the algebraic loop between the
force law and the pose solve.
"""

from __future__ import annotations

import copy
import math
from array import array
from dataclasses import dataclass, field, replace

from .backbone import (
    STRAIGHT_THRESHOLD,
    ArcPose,
    BackboneGeometry,
    _arc_coefficients,
    _Vec3,
    _wrap_angle,
)
from .pennate import PennateUnit, rest_chord_length
from .sma import (
    Branch,
    SmaMaterial,
    SpringGeometry,
    SpringState,
    StepTooLarge,
    ThermalEnvironment,
    _reverse_band,
    force_coefficients,
    shear_stress,
    step_spring,
)

GRAVITY = 9.80665  # m/s^2

_TWO_PI = 2.0 * math.pi

# most time steps one run may take (duration / dt); the bundled scenario
# takes 6000
MAX_STEPS = 1_000_000


class NoConvergence(RuntimeError):
    """Newton iteration exhausted its budget; carries the best pose found."""

    def __init__(self, best_pose: ArcPose, best_residual: float, tolerance: float):
        super().__init__(
            f"pose solve stalled at residual {best_residual:.3e} N m "
            f"(tolerance {tolerance:.3e} N m)"
        )
        self.best_pose = best_pose
        self.best_residual = best_residual


class PoseOutOfRange(RuntimeError):
    """The solved bending angle left the workspace bound [0, pi]."""


# the failures a run can end in; a sweep records them per row
SOLVER_FAILURES = (NoConvergence, PoseOutOfRange, StepTooLarge)


@dataclass(frozen=True)
class Segment:
    """Piecewise-constant current command: ``unit`` gets ``current`` amps on
    [start, end) seconds."""

    unit: int
    start: float
    end: float
    current: float

    def __post_init__(self):
        if self.start < 0.0 or self.end <= self.start:
            raise ValueError("segment times must satisfy 0 <= start < end")
        if self.current < 0.0:
            raise ValueError("segment current must be non-negative")


@dataclass(frozen=True)
class CurrentProfile:
    """Per-unit piecewise-constant current schedule."""

    segments: tuple[Segment, ...] = ()

    def current(self, unit_index: int, t: float) -> float:
        for seg in self.segments:
            if seg.unit == unit_index and seg.start <= t < seg.end:
                return seg.current
        return 0.0

    @staticmethod
    def constant(unit_index: int, current: float, hold: float) -> "CurrentProfile":
        return CurrentProfile((Segment(unit_index, 0.0, hold, current),))


@dataclass(frozen=True)
class NeckSystem:
    """The assembled neck: alloy, spring geometry, environment, backbone and
    the three pennate units, plus head mass (kg) for the optional gravity
    moment."""

    material: SmaMaterial
    spring_geometry: SpringGeometry
    env: ThermalEnvironment
    backbone: BackboneGeometry
    units: tuple[PennateUnit, PennateUnit, PennateUnit]
    head_mass: float = 0.0
    gravity_enabled: bool = False
    force_combination: str = "additive"  # or "max"

    def __post_init__(self):
        if len(self.units) != 3:
            raise ValueError("a neck system needs exactly 3 pennate units")
        if self.head_mass < 0.0:
            raise ValueError("head_mass must be non-negative")
        if self.force_combination not in ("additive", "max"):
            raise ValueError("force_combination must be 'additive' or 'max'")


@dataclass(frozen=True)
class SimConfig:
    """Time stepping and solver settings for one run."""

    dt: float
    duration: float
    current_profile: CurrentProfile = field(default_factory=CurrentProfile)
    solver_tolerance: float = 1e-9  # N m
    max_newton_iterations: int = 60  # chord and Newton steps per pose solve
    max_temperature_step: float = 1.0  # K

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.duration >= self.dt:
            raise ValueError("duration must cover at least one step")
        steps = self.duration / self.dt
        if steps > MAX_STEPS:
            raise ValueError(
                f"duration {self.duration:g} s at dt {self.dt:g} s is {steps:.3g} "
                f"steps; at most {MAX_STEPS} are allowed"
            )
        if self.solver_tolerance <= 0.0:
            raise ValueError("solver_tolerance must be positive")
        if self.max_newton_iterations < 1:
            raise ValueError("max_newton_iterations must be at least 1")


class SimTrace:
    """Time-indexed record of every observable quantity of a run.

    Columns are stdlib arrays, one entry per row: ``t``, ``kappa``, ``phi``,
    ``theta`` and ``residual_norm`` are ``array('d')`` and ``phi_defined`` is
    ``array('b')`` (1 where the backbone was bent, 0 where it was effectively
    straight and the reported bending-plane angle is carried over from the
    last bent row).  ``spring_temperatures``, ``spring_fractions`` and
    ``unit_forces`` (the ``PER_UNIT`` columns) are each a tuple of three
    ``array('d')``, one per unit, indexed ``[unit][row]``.  A row thus takes
    14 doubles and 1 byte.  ``COLUMNS`` names every column.
    """

    COLUMNS = (
        "t", "kappa", "phi", "theta", "spring_temperatures", "spring_fractions",
        "unit_forces", "residual_norm", "phi_defined",
    )
    PER_UNIT = ("spring_temperatures", "spring_fractions", "unit_forces")

    def __init__(self):
        self.t = array("d")
        self.kappa = array("d")
        self.phi = array("d")
        self.theta = array("d")
        self.spring_temperatures = (array("d"), array("d"), array("d"))
        self.spring_fractions = (array("d"), array("d"), array("d"))
        self.unit_forces = (array("d"), array("d"), array("d"))
        self.residual_norm = array("d")
        self.phi_defined = array("b")
        self.markers: dict[str, float] = {}

    def append(
        self,
        t: float,
        kappa: float,
        phi: float,
        theta: float,
        temperatures: tuple[float, float, float],
        fractions: tuple[float, float, float],
        forces: tuple[float, float, float],
        residual_norm: float,
        phi_defined: bool,
    ) -> None:
        if self.t and t <= self.t[-1]:
            raise ValueError("trace times must be strictly increasing")
        self.t.append(t)
        self.kappa.append(kappa)
        self.phi.append(phi)
        self.theta.append(theta)
        a, b, c = self.spring_temperatures
        a.append(temperatures[0])
        b.append(temperatures[1])
        c.append(temperatures[2])
        a, b, c = self.spring_fractions
        a.append(fractions[0])
        b.append(fractions[1])
        c.append(fractions[2])
        a, b, c = self.unit_forces
        a.append(forces[0])
        b.append(forces[1])
        c.append(forces[2])
        self.residual_norm.append(residual_norm)
        self.phi_defined.append(phi_defined)

    def __len__(self) -> int:
        return len(self.t)

    def _arrays(self):
        """(column name, array) for each of the 15 column arrays, a per-unit
        column unit by unit."""
        for name in self.COLUMNS:
            column = getattr(self, name)
            if name in self.PER_UNIT:
                for unit in column:
                    yield name, unit
            else:
                yield name, column

    def check_columns(self) -> None:
        """Raise ValueError naming the first per-unit column that does not
        hold three units, or else the first column array whose length is not
        ``len(t)``; the writers call it before they write anything."""
        for name in self.PER_UNIT:
            units = len(getattr(self, name))
            if units != 3:
                raise ValueError(f"trace column {name!r} has {units} units, not 3")
        rows = len(self.t)
        for name, column in self._arrays():
            if len(column) != rows:
                raise ValueError(
                    f"trace column {name!r} has {len(column)} rows, 't' has {rows}"
                )

    def _copy(self) -> "SimTrace":
        """A trace with its own copy of every column array and of the
        markers."""
        return copy.deepcopy(self)

    def max_bending_angle(self) -> float:
        """Largest bending angle over the run (rad)."""
        if not self.theta:
            raise ValueError("empty trace")
        return max(self.theta)

    def final_phi(self) -> float:
        if not self.phi:
            raise ValueError("empty trace")
        return self.phi[-1]


@dataclass(frozen=True)
class SweepRow:
    """One sweep result; ``error`` is set instead of the angle when the run
    failed."""

    current: float
    max_bending_angle: float | None
    error: str | None = None


class _Statics:
    """Precomputed constants and the fused kernels of the pose solve.

    ``residual`` writes out in one pass what the public helpers compose
    (``backbone._frame_t``, ``pennate._line_of_action_t``,
    ``pennate._tendon_moment_t`` and ``backbone._elastic_moment_t``), taking
    each angle's cosine and sine once.  ``jacobian`` reuses its levers and
    pull directions; it takes its own angles from the Cartesian curvature
    components, whose rounding differs from the (kappa, phi) the residual
    sees.
    Every floating-point operation keeps its order and operands, so both are
    bit-identical to the compositions they replace
    (``tests/test_pose_kernel.py``).
    """

    __slots__ = (
        "length", "ei_y", "gj_over_l", "bases", "heads", "rest_chords",
        "attachments", "head_weight", "gravity_on",
    )

    def __init__(self, system: NeckSystem):
        bb = system.backbone
        self.length = bb.length
        self.ei_y = bb.bending_stiffness_y
        self.gj_over_l = bb.torsional_stiffness / bb.length
        self.bases = tuple(u.base_attachment for u in system.units)
        self.heads = tuple(u.head_attachment_local for u in system.units)
        self.rest_chords = tuple(
            rest_chord_length(u, bb) for u in system.units
        )
        self.attachments = tuple(
            head + base + (rest,)
            for head, base, rest in zip(self.heads, self.bases, self.rest_chords)
        )
        self.head_weight = system.head_mass * GRAVITY
        self.gravity_on = system.gravity_enabled and system.head_mass > 0.0

    def residual(self, kappa: float, phi: float, eps: float, forces):
        """Net moment at the pose, the tip position and one frame row per
        unit: (lever from the tip to the attachment, unit pull direction,
        chord contraction), which ``jacobian`` reuses."""
        length = self.length
        theta = kappa * length
        ca, sa = math.cos(phi), math.sin(phi)
        cb, sb = math.cos(theta), math.sin(theta)
        psi = eps - phi
        cc, sc = math.cos(psi), math.sin(psi)
        if theta < STRAIGHT_THRESHOLD:
            # 4th-order series keeps the residual smooth through zero
            radial = 0.5 * kappa * length * length * (1.0 - theta * theta / 12.0)
            tz = length * (1.0 - theta * theta / 6.0)
        else:
            radial = (1.0 - cb) / kappa
            tz = sb / kappa
        tx, ty = ca * radial, sa * radial
        # rotation Rz(phi) . Ry(theta) . Rz(psi), row-major
        r00, r10 = ca * cb, sa * cb
        q00, q01, q02 = r00 * cc - sa * sc, -r00 * sc - sa * cc, ca * sb
        q10, q11, q12 = r10 * cc + ca * sc, -r10 * sc + ca * cc, sa * sb
        q20, q21 = -sb * cc, sb * sc

        mx = my = mz = 0.0
        rows = []
        for (hx, hy, hz, bx, by, bz, rest), force in zip(self.attachments, forces):
            px = tx + (q00 * hx + q01 * hy + q02 * hz)
            py = ty + (q10 * hx + q11 * hy + q12 * hz)
            pz = tz + (q20 * hx + q21 * hy + cb * hz)
            cx, cy, cz = bx - px, by - py, bz - pz
            chord = math.sqrt(cx * cx + cy * cy + cz * cz)
            if chord < 1e-12:
                raise ValueError(
                    "degenerate muscle geometry: attachment reached the anchor"
                )
            inv = 1.0 / chord
            dx, dy, dz = cx * inv, cy * inv, cz * inv
            lx, ly, lz = px - tx, py - ty, pz - tz
            fx, fy, fz = force * dx, force * dy, force * dz
            mx += ly * fz - lz * fy
            my += lz * fx - lx * fz
            mz += lx * fy - ly * fx
            rows.append((lx, ly, lz, dx, dy, dz, rest - chord))
        if self.gravity_on:
            # head weight acting at the tip: tip x (0, 0, -w)
            mx += -self.head_weight * ty
            my += self.head_weight * tx
        # elastic moment Rz(phi) . Ry(theta) . (0, EI kappa, GJ/l twist)
        local_y = self.ei_y * kappa
        local_z = self.gj_over_l * eps
        x1 = sb * local_z
        ex, ey, ez = ca * x1 - sa * local_y, sa * x1 + ca * local_y, cb * local_z
        return (mx - ex, my - ey, mz - ez), (tx, ty, tz), rows

    def jacobian(self, x, forces, tip, rows):
        """Row-major 3x3 derivative of ``residual`` with respect to
        ``x`` = (u_x, u_y, twist), with u = kappa (cos phi, sin phi).
        ``tip`` and ``rows`` are what ``residual`` returned at ``x``.

        Per variable it takes the tip velocity t, the angular velocity w of
        the head mount and the rate of the elastic moment.  The rotation is
        exp([v]x) . Rz(twist) with v = length (-u_y, u_x, 0) (Webster & Jones
        2010, constant curvature), so w is the left Jacobian of SO(3) applied
        to dv.  Each lever a turns with the mount (da = w x a); its chord
        changes by -(t + da) and the pull direction by the part of that
        normal to itself, over the chord length.
        """
        ux, uy = x[0], x[1]
        length = self.length
        ll = length * length
        ka, kb, kc, kd, ke, cos_t = _arc_coefficients(length * math.hypot(ux, uy))
        vx, vy = -length * uy, length * ux
        gx, gy = ll * ux, ll * uy
        # tip = (L^2 B u_x, L^2 B u_y, L A); t2 = 0
        exy = ll * ll * ke * ux * uy
        d3 = ll * length * kd
        t0x, t0y, t0z = ll * (kb + ke * gx * ux), exy, d3 * ux
        t1x, t1y, t1z = exy, ll * (kb + ke * gy * uy), d3 * uy
        la = length * ka
        w0x, w0y, w0z = kc * vx * gx, la + kc * vy * gx, -kb * gy
        w1x, w1y, w1z = -la + kc * vx * gy, kc * vy * gy, kb * gx
        w2x, w2y, w2z = la * ux, la * uy, cos_t

        # summed tendon moment rate m_i = sum F (da x d + a x dd)
        m0x = m0y = m0z = m1x = m1y = m1z = m2x = m2y = m2z = 0.0
        for (ax, ay, az, dx, dy, dz, contraction), rest, force in zip(
            rows, self.rest_chords, forces
        ):
            inv = 1.0 / (rest - contraction)
            px, py, pz = w0y * az - w0z * ay, w0z * ax - w0x * az, w0x * ay - w0y * ax
            cx, cy, cz = -t0x - px, -t0y - py, -t0z - pz
            along = dx * cx + dy * cy + dz * cz
            ex = (cx - dx * along) * inv
            ey = (cy - dy * along) * inv
            ez = (cz - dz * along) * inv
            m0x += force * (py * dz - pz * dy + ay * ez - az * ey)
            m0y += force * (pz * dx - px * dz + az * ex - ax * ez)
            m0z += force * (px * dy - py * dx + ax * ey - ay * ex)

            px, py, pz = w1y * az - w1z * ay, w1z * ax - w1x * az, w1x * ay - w1y * ax
            cx, cy, cz = -t1x - px, -t1y - py, -t1z - pz
            along = dx * cx + dy * cy + dz * cz
            ex = (cx - dx * along) * inv
            ey = (cy - dy * along) * inv
            ez = (cz - dz * along) * inv
            m1x += force * (py * dz - pz * dy + ay * ez - az * ey)
            m1y += force * (pz * dx - px * dz + az * ex - ax * ez)
            m1z += force * (px * dy - py * dx + ax * ey - ay * ex)

            # twist: the tip does not move
            px, py, pz = w2y * az - w2z * ay, w2z * ax - w2x * az, w2x * ay - w2y * ax
            cx, cy, cz = -px, -py, -pz
            along = dx * cx + dy * cy + dz * cz
            ex = (cx - dx * along) * inv
            ey = (cy - dy * along) * inv
            ez = (cz - dz * along) * inv
            m2x += force * (py * dz - pz * dy + ay * ez - az * ey)
            m2y += force * (pz * dx - px * dz + az * ex - ax * ez)
            m2z += force * (px * dy - py * dx + ax * ey - ay * ex)

        # minus the elastic moment rate; elastic =
        # (L A u_x g_z - EI u_y, L A u_y g_z + EI u_x, cos(theta) g_z)
        ei_y, gj_over_l = self.ei_y, self.gj_over_l
        g_z = gj_over_l * x[2]
        lgz = length * g_z
        dxy = lgz * kd * gx * uy
        a0 = m0x - lgz * (ka + kd * gx * ux)
        a1 = m0y - (dxy + ei_y)
        a2 = m0z + ll * ka * ux * g_z
        b0 = m1x - (dxy - ei_y)
        b1 = m1y - lgz * (ka + kd * gy * uy)
        b2 = m1z + ll * ka * uy * g_z
        c0 = m2x - la * ux * gj_over_l
        c1 = m2y - la * uy * gj_over_l
        c2 = m2z - cos_t * gj_over_l
        if self.gravity_on:
            # head weight at the tip: tip x (0, 0, -w)
            w = self.head_weight
            a0 -= w * t0y
            a1 += w * t0x
            b0 -= w * t1y
            b1 += w * t1x
        return (a0, b0, c0), (a1, b1, c1), (a2, b2, c2)


def _tendon_forces(unit_forces) -> tuple[float, float, float]:
    forces = tuple(float(f) for f in unit_forces)
    if len(forces) != 3:
        raise ValueError("unit_forces must have exactly 3 entries")
    if not all(map(math.isfinite, forces)):
        raise ValueError(f"unit forces must be finite, got {forces}")
    if any(f < 0.0 for f in forces):
        raise ValueError("unit forces must be non-negative")
    return forces


def residual(system: NeckSystem, pose: ArcPose, unit_forces) -> _Vec3:
    """Net moment (N m) on the head mount: muscle moments plus gravity minus
    the backbone's elastic restoring moment.  Zero at equilibrium."""
    forces = _tendon_forces(unit_forces)
    moment, _, _ = _Statics(system).residual(
        pose.curvature, pose.bending_plane_angle, pose.twist, forces
    )
    return moment


def _solve3(j, r):
    """Solve the 3x3 system j . x = -r by Gaussian elimination with partial
    pivoting; returns None when singular.

    Unrolled on scalars.  The first of equal pivot magnitudes wins and a row
    whose elimination factor is zero is left as it is."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = j
    b0, b1, b2 = -r[0], -r[1], -r[2]
    if abs(a10) > abs(a00):
        if abs(a20) > abs(a10):
            a00, a01, a02, b0, a20, a21, a22, b2 = a20, a21, a22, b2, a00, a01, a02, b0
        else:
            a00, a01, a02, b0, a10, a11, a12, b1 = a10, a11, a12, b1, a00, a01, a02, b0
    elif abs(a20) > abs(a00):
        a00, a01, a02, b0, a20, a21, a22, b2 = a20, a21, a22, b2, a00, a01, a02, b0
    if abs(a00) < 1e-300:
        return None
    inv = 1.0 / a00
    factor = a10 * inv
    if factor != 0.0:
        a11 -= factor * a01
        a12 -= factor * a02
        b1 -= factor * b0
    factor = a20 * inv
    if factor != 0.0:
        a21 -= factor * a01
        a22 -= factor * a02
        b2 -= factor * b0
    if abs(a21) > abs(a11):
        a11, a12, b1, a21, a22, b2 = a21, a22, b2, a11, a12, b1
    if abs(a11) < 1e-300:
        return None
    factor = a21 * (1.0 / a11)
    if factor != 0.0:
        a22 -= factor * a12
        b2 -= factor * b1
    if abs(a22) < 1e-300:
        return None
    x2 = b2 / a22
    x1 = (b1 - a12 * x2) / a11
    return (b0 - a01 * x1 - a02 * x2) / a00, x1, x2


def _accepted(kappa: float, phi: float, eps: float, norm: float, rows, jacobian,
              length: float):
    """The result of a pose solve that met the tolerance, once its bending
    angle is checked against the workspace bound [0, pi]."""
    theta = kappa * length
    if theta > math.pi:
        raise PoseOutOfRange(
            f"bending angle {math.degrees(theta):.1f} deg exceeds 180 deg"
        )
    contractions = (rows[0][6], rows[1][6], rows[2][6])
    return kappa, _wrap_angle(phi), eps, norm, contractions, jacobian


def _capped(s0: float, s1: float, s2: float, max_move: float):
    """The step scaled down so that no component moves more than
    ``max_move``."""
    move = max(abs(s0), abs(s1), abs(s2))
    if move > max_move:
        shrink = max_move / move
        return s0 * shrink, s1 * shrink, s2 * shrink
    return s0, s1, s2


# most chord steps a solve takes with a kept Jacobian before it forms its own
_CHORD_STEPS = 2


def _solve_pose_statics(
    statics: _Statics,
    forces,
    x0: float,
    x1: float,
    x2: float,
    config: SimConfig,
    jacobian=None,
):
    """Equilibrium pose (kappa, phi in [0, 2 pi), twist), its residual norm,
    the unit chord contractions at that pose and the last Jacobian used, by
    damped Newton on (u_x, u_y, twist) started at (``x0``, ``x1``, ``x2``).

    ``jacobian`` is one kept from an earlier solve (what this function
    returned last), or None.  With one, the solve first takes up to two chord
    (simplified-Newton) steps with it, each capped like a Newton step and
    kept only while the residual falls; it returns as soon as the residual
    meets the tolerance, handing the same Jacobian back.  Otherwise, and
    always without one, it runs damped Newton with a fresh exact Jacobian
    per step and returns the last of them.  Chord and Newton steps together
    number at most ``config.max_newton_iterations``.  Every pose returned
    has passed the range check; a solve that stalls raises NoConvergence.
    """
    length = statics.length
    kappa, phi, eps = math.hypot(x0, x1), math.atan2(x1, x0) % _TWO_PI, x2

    tol = config.solver_tolerance
    res, tip, rows = statics.residual(kappa, phi, eps, forces)
    norm = math.sqrt(res[0] * res[0] + res[1] * res[1] + res[2] * res[2])
    # cap on per-iteration curvature-variable moves (keeps theta steps <= ~29 deg)
    max_move = 0.5 / length
    iterations = config.max_newton_iterations

    if jacobian is not None and not norm < tol:
        # chord steps: a step that does not lower the residual is dropped,
        # and a second one from the same point would repeat it
        for _ in range(min(_CHORD_STEPS, iterations)):
            step = _solve3(jacobian, res)
            if step is None:
                break
            iterations -= 1
            s0, s1, s2 = _capped(*step, max_move)
            c0, c1, c2 = x0 + s0, x1 + s1, x2 + s2
            c_kappa, c_phi = math.hypot(c0, c1), math.atan2(c1, c0) % _TWO_PI
            cand_res, cand_tip, cand_rows = statics.residual(c_kappa, c_phi, c2, forces)
            r0, r1, r2 = cand_res
            cand_norm = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
            if not cand_norm < norm:
                break
            x0, x1, x2, kappa, phi, eps = c0, c1, c2, c_kappa, c_phi, c2
            res, tip, rows, norm = cand_res, cand_tip, cand_rows, cand_norm
            if norm < tol:
                break

    best = (kappa, phi, eps, rows)
    best_norm = norm

    for _ in range(iterations):
        if norm < tol:
            return _accepted(kappa, phi, eps, norm, rows, jacobian, length)
        jacobian = statics.jacobian((x0, x1, x2), forces, tip, rows)
        step = _solve3(jacobian, res)
        if step is None:
            # singular Jacobian: nudge along the residual direction
            scale = max_move / max(norm, 1e-300)
            s0, s1, s2 = -res[0] * scale, -res[1] * scale, -res[2] * scale
        else:
            s0, s1, s2 = step
        s0, s1, s2 = _capped(s0, s1, s2, max_move)
        # damped update: halve the step until the residual falls; after nine
        # tries the tenth, smallest candidate is taken anyway to escape flat
        # spots
        for halving in range(10):
            c0, c1, eps = x0 + s0, x1 + s1, x2 + s2
            kappa, phi = math.hypot(c0, c1), math.atan2(c1, c0) % _TWO_PI
            cand_res, cand_tip, cand_rows = statics.residual(kappa, phi, eps, forces)
            r0, r1, r2 = cand_res
            cand_norm = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
            if cand_norm < norm or cand_norm == 0.0 or halving == 9:
                break
            s0, s1, s2 = 0.5 * s0, 0.5 * s1, 0.5 * s2
        x0, x1, x2 = c0, c1, eps
        res, tip, rows, norm = cand_res, cand_tip, cand_rows, cand_norm
        if norm < best_norm:
            best, best_norm = (kappa, phi, eps, rows), norm

    kappa, phi, eps, rows = best
    if best_norm < tol:
        return _accepted(kappa, phi, eps, best_norm, rows, jacobian, length)
    raise NoConvergence(ArcPose(kappa, phi, eps), best_norm, tol)


def solve_pose(
    system: NeckSystem, unit_forces, initial_guess: ArcPose, config: SimConfig
) -> ArcPose:
    """Equilibrium pose for fixed tendon force magnitudes.

    Damped Newton iteration in Cartesian curvature components, warm-started
    from ``initial_guess``.  Raises NoConvergence or PoseOutOfRange.
    """
    forces = _tendon_forces(unit_forces)
    kappa, phi = initial_guess.curvature, initial_guess.bending_plane_angle
    kappa, phi, eps, _, _, _ = _solve_pose_statics(
        _Statics(system), forces, kappa * math.cos(phi), kappa * math.sin(phi),
        initial_guess.twist, config,
    )
    return ArcPose(kappa, phi, eps)


def _annotate_failure(exc: Exception, step: int, t: float) -> None:
    """Prefix a solver failure's message with the step (0 is the rest solve)
    and time it happened at; a stalled solve also names its best pose."""
    message = f"at t={t:.6g} s (step {step}): {exc}"
    if isinstance(exc, NoConvergence):
        pose = exc.best_pose
        message += (
            f"; best pose kappa={pose.curvature:.6g} 1/m, "
            f"phi={pose.bending_plane_angle:.6g} rad, twist={pose.twist:.6g} rad"
        )
    exc.args = (message,)


def _prefix_key(system: NeckSystem) -> NeckSystem:
    """``system`` as far as the idle prefix of a run can tell it apart:
    ``phase_transform_tensor`` is replaced by its sign.

    Until a spring leaves the idle path, ``step_spring`` reads the
    transformation coefficient only as ``transform * 0.0`` in its idle force
    update, which is a zero with the coefficient's sign, and the rest solve
    does not read it at all.  So the loop state after the prefix is the same
    for every tensor of one sign.  A coefficient that overflowed makes that
    product NaN, so such a tensor is kept as it is.  Keys compare with
    ``==``, which does not tell 0.0 from -0.0; of the other calibratable
    fields only a zero pennation angle can be either, and the engine reads
    it only through its cosine.
    """
    material = system.material
    tensor = material.phase_transform_tensor
    _, transform, _ = force_coefficients(material, system.spring_geometry, 1.0)
    if math.isfinite(transform):
        tensor = math.copysign(1.0, tensor)
    return replace(system, material=replace(material, phase_transform_tensor=tensor))


@dataclass(frozen=True)
class _IdlePrefix:
    """The loop state of a run at the top of the first step in which a
    spring leaves the idle path, or at the end of a run that never does."""

    key: NeckSystem  # _prefix_key of the run's system
    step: int
    states: tuple[SpringState, SpringState, SpringState]
    dx_prev: tuple[float, float, float]
    dx_prev2: tuple[float, float, float]
    poses: tuple  # the last three accepted poses a, b, c
    jacobian: tuple
    last_phi: float
    crossing_recorded: bool
    trace: SimTrace  # a copy, never handed out


def simulate(
    system: NeckSystem, config: SimConfig, *, prefixes: dict | None = None
) -> SimTrace:
    """Run the coupled spring/pose dynamics and return the full trace.

    Deterministic: identical inputs produce identical traces.  Solver
    failures are re-raised with the failing step and time attached, plus the
    best pose when the pose solve stalled.

    ``prefixes`` is a dict the caller owns (calibration passes one per
    search).  A run given one continues from the idle prefix stored under
    ``config`` when that prefix came from the same system up to the sign of
    ``phase_transform_tensor`` (see ``_prefix_key``); otherwise it stores its
    own, replacing the entry.  A run that fails inside its prefix stores
    nothing.  The trace is the same, bit for bit, either way.
    """
    statics = _Statics(system)
    profile = config.current_profile
    dt = config.dt
    n_steps = int(round(config.duration / dt))
    material, geometry, env = system.material, system.spring_geometry, system.env
    bound = config.max_temperature_step
    take_max = system.force_combination == "max"

    # per unit, taken once per run: its profile index, cos(pennation) and its
    # negative, its spring count and its tendon stiffness
    constants = [
        (
            u.index,
            math.cos(u.pennation_angle),
            -math.cos(u.pennation_angle),
            u.fibers,
            u.tendon_stiffness,
        )
        for u in system.units
    ]

    prefix = key = None
    if prefixes is not None:
        key = _prefix_key(system)
        prefix = prefixes.get(config)
        if prefix is not None and prefix.key != key:
            prefix = None
    if prefix is not None:
        first = prefix.step
        states = list(prefix.states)
        dx_prev, dx_prev2, jacobian = prefix.dx_prev, prefix.dx_prev2, prefix.jacobian
        a, b, c = prefix.poses
        last_phi, crossing_recorded = prefix.last_phi, prefix.crossing_recorded
        trace = prefix.trace._copy()
    else:
        first = 0
        states = [u.spring for u in system.units]
        # resolve the initial equilibrium so pretension imbalances are not
        # attributed to the first step; the straight pose is where each rest
        # chord was measured, so every chord contraction there is zero and so
        # is each tendon's stiffness force (see the step below)
        rest_forces = []
        for (_, cos_p, _, fibers, _), state in zip(constants, states):
            active = fibers * state.force * cos_p
            rest_forces.append(max(active, 0.0) if take_max else active + 0.0)
        try:
            kappa, phi, eps, _, dx_prev, jacobian = _solve_pose_statics(
                statics, tuple(rest_forces), 0.0, 0.0, 0.0, config
            )
        except SOLVER_FAILURES as exc:
            _annotate_failure(exc, 0, 0.0)
            raise
        dx_prev2 = dx_prev
        # the last three accepted poses a, b, c as (u_x, u_y, twist); each
        # solve starts from their quadratic extrapolation along the solution
        # path (predictor-corrector continuation), or from c while fewer exist
        a = b = c = (kappa * math.cos(phi), kappa * math.sin(phi), eps)
        trace = SimTrace()
        last_phi = phi
        crossing_recorded = False
    # a run that starts afresh with a dict stores its idle prefix: the state
    # at the top of the first step in which a spring leaves the idle path
    recording = key is not None and prefix is None

    for step_index in range(first, n_steps):
        t_prev = step_index * dt
        t = t_prev + dt
        if recording:
            top = tuple(states)
        try:
            forces = []
            for k, (index, cos_p, neg_cos_p, fibers, stiffness) in enumerate(constants):
                contraction = dx_prev[k]
                state = states[k] = step_spring(
                    material,
                    geometry,
                    env,
                    states[k],
                    profile.current(index, t_prev),
                    neg_cos_p * ((contraction - dx_prev2[k]) / dt),
                    dt,
                    bound,
                )
                # the tendon force: the springs' pull along the tendon
                # (pennate_force) with the stiffness force of the last chord
                # contraction (tendon_force_from_stretch), combined
                active = fibers * state.force * cos_p
                passive = 0.0 if contraction <= 0.0 else stiffness * contraction
                forces.append(max(active, passive) if take_max else active + passive)
            if recording and any(
                new.branch is not Branch.IDLE
                or new.martensite_fraction != old.martensite_fraction
                for old, new in zip(top, states)
            ):
                # an arc entered and completed within the step returns IDLE
                # with a moved fraction, hence the second test
                prefixes[config] = _IdlePrefix(
                    key, step_index, top, dx_prev, dx_prev2, (a, b, c), jacobian,
                    last_phi, crossing_recorded, trace._copy(),
                )
                recording = False
            forces = tuple(forces)
            if step_index < 2:
                start = c
            else:
                start = (
                    3.0 * (c[0] - b[0]) + a[0],
                    3.0 * (c[1] - b[1]) + a[1],
                    3.0 * (c[2] - b[2]) + a[2],
                )
            kappa, phi, eps, res_norm, dx, jacobian = _solve_pose_statics(
                statics, forces, *start, config, jacobian
            )
        except SOLVER_FAILURES as exc:
            _annotate_failure(exc, step_index + 1, t)
            raise

        dx_prev2, dx_prev = dx_prev, dx
        a, b, c = b, c, (kappa * math.cos(phi), kappa * math.sin(phi), eps)

        theta = kappa * statics.length
        if theta >= STRAIGHT_THRESHOLD:
            last_phi = phi
            phi_defined = True
        else:
            phi_defined = False

        s0, s1, s2 = states
        if not crossing_recorded:
            for s in states:
                if s.martensite_fraction < 1.0:
                    crossing_recorded = True
                    sigma = shear_stress(geometry, s.force)
                    as_prime, af_prime = _reverse_band(material, sigma)
                    trace.markers["crossing_t_s"] = t
                    trace.markers["as_prime_K"] = as_prime
                    trace.markers["af_prime_K"] = af_prime
                    break

        trace.append(
            t,
            kappa,
            last_phi,
            theta,
            (s0.temperature, s1.temperature, s2.temperature),
            (s0.martensite_fraction, s1.martensite_fraction, s2.martensite_fraction),
            forces,
            res_norm,
            phi_defined,
        )

    if recording:
        # idle to the end: the whole run is the prefix
        prefixes[config] = _IdlePrefix(
            key, n_steps, tuple(states), dx_prev, dx_prev2, (a, b, c), jacobian,
            last_phi, crossing_recorded, trace._copy(),
        )
    return trace


def sweep(
    system: NeckSystem,
    currents,
    hold: float,
    config: SimConfig,
    unit_index: int = 1,
    *,
    prefixes: dict | None = None,
) -> list[SweepRow]:
    """Run one simulation per current (applied to ``unit_index`` for ``hold``
    seconds each, from the same initial system, with ``config``'s other
    settings) and report the peak bending angle.  Failures are reported per
    row; the sweep continues.  ``prefixes`` goes to every row's ``simulate``
    (each row has its own config, so its own entry)."""
    currents = list(currents)
    if not currents:
        raise ValueError("currents must be non-empty")
    if hold <= 0.0:
        raise ValueError("hold must be positive")
    rows: list[SweepRow] = []
    for amps in currents:
        run_cfg = replace(
            config,
            duration=hold,
            current_profile=CurrentProfile.constant(unit_index, float(amps), hold),
        )
        try:
            trace = simulate(system, run_cfg, prefixes=prefixes)
            rows.append(SweepRow(float(amps), trace.max_bending_angle()))
        except SOLVER_FAILURES as exc:
            rows.append(SweepRow(float(amps), None, str(exc)))
    return rows

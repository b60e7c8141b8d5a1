"""Coupled simulation engine.

Each time step advances the three units' spring states through their
electro-thermal dynamics (the springs of one unit share a state), aggregates
the three tendon forces, and solves the quasi-static moment balance on the
backbone (muscle moments + gravity - elastic restoring moment = 0) for the
arc pose by damped Newton iteration.  The Jacobian is taken by central
differences of the residual.  The solve runs in the Cartesian curvature
components u = kappa (cos phi, sin phi), which have one value at every pose,
the straight one included, where the bending-plane angle has none.  Each
step's solve starts from the quadratic extrapolation of the last three poses,
each corrected by one chord step at no extra residual evaluation, or from the
last pose where that extrapolation is bent past 180 degrees, and first takes
chord (simplified-Newton) steps with the Jacobian the run's previous solve
ended with; it forms a fresh Jacobian only when those do not meet the
tolerance.  Each Jacobian is factored once, so each chord step and each
correction is one substitution (the chord method keeps its factorisation,
Kelley 1995, ch. 5).  ``simulate`` hands that factorisation from solve to
solve within one run, so no run sees another's.

Spring stretch rates are fed back from the pose change of the previous
accepted step (one-step lag), which breaks the algebraic loop between the
force law and the pose solve.  A spring that starts a run cold (idle at the
ambient temperature, fully martensite) is carried as its force alone until
its unit is first driven: its temperature and fraction cannot move.

Each step's row goes to the run's record: the ``SimTrace`` that ``simulate``
returns, or, for a ``sweep`` row, a running maximum of the bending angle,
which is all a row reports.  The idle prefix a run stores for later runs of
its config (see ``simulate``) holds that record as it stood.
"""

from __future__ import annotations

import copy
import math
import sys
from array import array
from dataclasses import dataclass, field, replace

from .backbone import STRAIGHT_THRESHOLD, ArcPose, BackboneGeometry, _Vec3, _wrap_angle
from .pennate import PennateUnit, rest_chord_length
from .sma import (
    _IDLE,
    SmaMaterial,
    SpringConstants,
    SpringGeometry,
    StepTooLarge,
    ThermalEnvironment,
    ValidationError,  # re-exported: the scenario layer imports it from here
    _reverse_band,
    _state,
    shear_stress,
    step_spring,
)

GRAVITY = 9.80665  # m/s^2

_TWO_PI = 2.0 * math.pi

# relative step of the Jacobian's central differences: eps^(1/3) balances
# their O(h^2) truncation against rounding of O(eps / h)
_DIFFERENCE_STEP = sys.float_info.epsilon ** (1.0 / 3.0)

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
    """The solved bending angle left the workspace bound [0, pi], or a unit's
    chord at the solved pose left the float range."""


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
        if not 0.0 <= self.start < self.end < math.inf:
            raise ValueError("segment times must be finite and satisfy 0 <= start < end")
        if not 0.0 <= self.current < math.inf:
            raise ValueError("segment current must be finite and non-negative")


@dataclass(frozen=True)
class CurrentProfile:
    """Per-unit piecewise-constant current schedule; a unit's segments may not overlap."""

    segments: tuple[Segment, ...] = ()

    def __post_init__(self):
        ordered = sorted(self.segments, key=lambda s: (s.unit, s.start))
        for a, b in zip(ordered, ordered[1:]):
            if a.unit == b.unit and b.start < a.end:
                raise ValueError(f"segments for unit {a.unit} overlap at {b.start:.6g} s")

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
    moment.  Building one builds, and so checks, its springs'
    ``SpringConstants``, which it keeps as ``spring_constants``."""

    material: SmaMaterial
    spring_geometry: SpringGeometry
    env: ThermalEnvironment
    backbone: BackboneGeometry
    units: tuple[PennateUnit, PennateUnit, PennateUnit]
    head_mass: float = 0.0
    gravity_enabled: bool = False
    force_combination: str = "additive"  # or "max"
    spring_constants: SpringConstants = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.units) != 3:
            raise ValueError("a neck system needs exactly 3 pennate units")
        if not 0.0 <= self.head_mass < math.inf:  # NaN and inf fail it too
            raise ValueError("head_mass must be non-negative")
        if self.force_combination not in ("additive", "max"):
            raise ValueError("force_combination must be 'additive' or 'max'")
        constants = SpringConstants(self.material, self.spring_geometry, self.env)
        object.__setattr__(self, "spring_constants", constants)
        for unit in self.units:
            rest_chord_length(unit, self.backbone)  # rejects coincident attachments


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
        # written so that NaN fails each check; with dt finite, an infinite
        # duration fails the step cap
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not self.duration >= self.dt:
            raise ValueError("duration must cover at least one step")
        steps = self.duration / self.dt
        if steps > MAX_STEPS:
            raise ValueError(
                f"duration {self.duration:g} s at dt {self.dt:g} s is {steps:.3g} "
                f"steps; at most {MAX_STEPS} are allowed"
            )
        if not 0.0 < self.solver_tolerance < math.inf:
            raise ValueError("solver_tolerance must be positive and finite")
        if not (
            isinstance(self.max_newton_iterations, int)
            and self.max_newton_iterations >= 1
        ):
            raise ValueError("max_newton_iterations must be an integer of at least 1")
        if not 0.0 < self.max_temperature_step < math.inf:
            raise ValueError("max_temperature_step must be positive and finite")


class SimTrace:
    """Time-indexed record of every observable quantity of a run.

    Columns are stdlib arrays, one entry per row: ``t``, ``kappa``, ``phi``,
    ``theta`` and ``residual_norm`` are ``array('d')``.
    ``spring_temperatures``, ``spring_fractions`` and ``unit_forces`` (the
    ``PER_UNIT`` columns) are each a tuple of three ``array('d')``, one per
    unit, indexed ``[unit][row]``.  A row thus takes 14 doubles.  ``COLUMNS``
    names every column.
    """

    COLUMNS = (
        "t", "kappa", "phi", "theta", "spring_temperatures", "spring_fractions",
        "unit_forces", "residual_norm",
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
    ) -> None:
        # one chain that NaN fails too; every earlier time passed it, so is finite
        if not (self.t[-1] if self.t else -math.inf) < t < math.inf:
            if not math.isfinite(t):
                raise ValueError("trace times must be finite")
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

    def __len__(self) -> int:
        return len(self.t)

    def _arrays(self):
        """(column name, array) for each of the 14 column arrays, a per-unit
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

    @property
    def phi_defined(self) -> array:
        """``array('b')`` of each row's ``theta >= STRAIGHT_THRESHOLD``: 0 where
        the backbone was straight and ``phi`` carries the last bent row's."""
        return array("b", [theta >= STRAIGHT_THRESHOLD for theta in self.theta])

    def max_bending_angle(self) -> float:
        """Largest bending angle over the run (rad)."""
        if not self.theta:
            raise ValueError("empty trace")
        return max(self.theta)

    def final_phi(self) -> float:
        if not self.phi:
            raise ValueError("empty trace")
        return self.phi[-1]


class _PeakRecord:
    """What a sweep row keeps of a run: its row count and its largest bending
    angle (rad).  ``simulate(..., _peak=True)`` returns one in place of the
    trace; its ``len()`` and ``max_bending_angle()`` read as the trace's
    would, to the bit."""

    __slots__ = ("rows", "peak")

    def __init__(self, rows: int, peak: float):
        self.rows = rows
        self.peak = peak

    def __len__(self) -> int:
        return self.rows

    def max_bending_angle(self) -> float:
        """Largest bending angle over the run (rad)."""
        return self.peak


@dataclass(frozen=True)
class SweepRow:
    """One sweep result; ``error`` is set instead of the angle when the run
    failed."""

    current: float
    max_bending_angle: float | None
    error: str | None = None


class _Statics:
    """Precomputed constants and the fused kernels of the pose solve.

    ``residual`` writes out in one pass what ``backbone._frame_t`` and the
    reference laws ``_line_of_action_t``, ``_tendon_moment_t`` and
    ``_elastic_moment_t`` of ``tests/reference_model.py`` compose to, taking
    each angle's cosine and sine once.  Every floating-point operation keeps
    its order and operands, so it is bit-identical to that composition
    (``tests/test_pose_kernel.py``).  ``jacobian`` differences it.
    """

    __slots__ = (
        "length", "ei_y", "gj_over_l", "attachments", "head_weight", "gravity_on",
    )

    def __init__(self, system: NeckSystem):
        bb = system.backbone
        self.length = bb.length
        self.ei_y = bb.bending_stiffness_y
        self.gj_over_l = bb.torsional_stiffness / bb.length
        # per unit: head attachment (local), base attachment, rest chord
        self.attachments = tuple(
            u.head_attachment_local + u.base_attachment + (rest_chord_length(u, bb),)
            for u in system.units
        )
        self.head_weight = system.head_mass * GRAVITY
        self.gravity_on = system.gravity_enabled and system.head_mass > 0.0

    def residual(self, kappa: float, phi: float, eps: float, forces):
        """Net moment at the pose and the three unit chord contractions."""
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
        contractions = []
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
            contractions.append(rest - chord)
        if self.gravity_on:
            # head weight acting at the tip: tip x (0, 0, -w)
            mx += -self.head_weight * ty
            my += self.head_weight * tx
        # elastic moment Rz(phi) . Ry(theta) . (0, EI kappa, GJ/l twist)
        local_y = self.ei_y * kappa
        local_z = self.gj_over_l * eps
        x1 = sb * local_z
        ex, ey, ez = ca * x1 - sa * local_y, sa * x1 + ca * local_y, cb * local_z
        return (mx - ex, my - ey, mz - ez), tuple(contractions)

    def jacobian(self, x, forces):
        """Row-major 3x3 derivative of ``residual`` with respect to
        ``x`` = (u_x, u_y, twist), with u = kappa (cos phi, sin phi), by
        central differences: 6 residual evaluations (Dennis & Schnabel 1983,
        sec. 5.6).  Variable i steps by eps^(1/3) max(|x_i|, typical), where
        the typical size is 1 / length for u and 1 rad for the twist."""
        columns = []
        for i, typical in enumerate((1.0 / self.length, 1.0 / self.length, 1.0)):
            h = _DIFFERENCE_STEP * max(abs(x[i]), typical)
            plus, minus = list(x), list(x)
            plus[i] += h
            minus[i] -= h
            (p0, p1, p2), _ = self.residual(*_polar(plus[0], plus[1]), plus[2], forces)
            (m0, m1, m2), _ = self.residual(
                *_polar(minus[0], minus[1]), minus[2], forces
            )
            # the step as represented, not as asked for
            inv = 1.0 / (plus[i] - minus[i])
            columns.append(((p0 - m0) * inv, (p1 - m1) * inv, (p2 - m2) * inv))
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = columns
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
    moment, _ = _Statics(system).residual(
        pose.curvature, pose.bending_plane_angle, pose.twist, forces
    )
    return moment


def _factor3(j):
    """Gaussian elimination with partial pivoting of the row-major 3x3
    matrix ``j``: the pivot row order, the three elimination factors and the
    reduced rows, which ``_substitute3`` solves with; None when singular.

    Unrolled on scalars.  The first of equal pivot magnitudes wins and a row
    whose elimination factor is zero is left as it is."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = j
    i0, i1, i2 = 0, 1, 2
    if abs(a10) > abs(a00):
        if abs(a20) > abs(a10):
            a00, a01, a02, a20, a21, a22, i0, i2 = a20, a21, a22, a00, a01, a02, 2, 0
        else:
            a00, a01, a02, a10, a11, a12, i0, i1 = a10, a11, a12, a00, a01, a02, 1, 0
    elif abs(a20) > abs(a00):
        a00, a01, a02, a20, a21, a22, i0, i2 = a20, a21, a22, a00, a01, a02, 2, 0
    if abs(a00) < 1e-300:
        return None
    inv = 1.0 / a00
    f1 = a10 * inv
    if f1 != 0.0:
        a11 -= f1 * a01
        a12 -= f1 * a02
    f2 = a20 * inv
    if f2 != 0.0:
        a21 -= f2 * a01
        a22 -= f2 * a02
    if abs(a21) > abs(a11):
        a11, a12, a21, a22, i1, i2, f1, f2 = a21, a22, a11, a12, i2, i1, f2, f1
    if abs(a11) < 1e-300:
        return None
    f3 = a21 * (1.0 / a11)
    if f3 != 0.0:
        a22 -= f3 * a12
    if abs(a22) < 1e-300:
        return None
    return i0, i1, i2, f1, f2, f3, a00, a01, a02, a11, a12, a22


def _substitute3(lu, r):
    """The solution x of j . x = -r, given ``lu = _factor3(j)``: the
    elimination's operations on -r, then back substitution."""
    i0, i1, i2, f1, f2, f3, a00, a01, a02, a11, a12, a22 = lu
    b0, b1, b2 = -r[i0], -r[i1], -r[i2]
    if f1 != 0.0:
        b1 -= f1 * b0
    if f2 != 0.0:
        b2 -= f2 * b0
    if f3 != 0.0:
        b2 -= f3 * b1
    x2 = b2 / a22
    x1 = (b1 - a12 * x2) / a11
    return (b0 - a01 * x1 - a02 * x2) / a00, x1, x2


def _polar(u_x: float, u_y: float) -> tuple[float, float]:
    """Curvature and bending-plane angle in [0, 2 pi] of the Cartesian
    curvature components (u_x, u_y)."""
    return math.hypot(u_x, u_y), math.atan2(u_y, u_x) % _TWO_PI


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
    factors=None,
):
    """Equilibrium pose (kappa, phi in [0, 2 pi), twist), its residual norm,
    the unit chord contractions at that pose, the ``_factor3`` factorisation
    of the last Jacobian used (None if that was singular) and the corrected
    pose, by damped Newton on (u_x, u_y, twist) started at (``x0``, ``x1``,
    ``x2``).

    The corrected pose is the accepted one in (u_x, u_y, twist) plus the
    chord step its residual and the returned factorisation give, capped like
    the others; it is the accepted pose itself without a factorisation.  It
    costs no residual evaluation, and it lies closer to the exact root than
    the accepted pose, whose error is anywhere below the tolerance;
    ``simulate`` extrapolates the next start from these.

    ``factors`` is the factorisation of a Jacobian kept from an earlier
    solve (what this function returned last), or None.  Each of at most
    ``config.max_newton_iterations`` iterations takes one step, capped so
    that no variable moves more than 0.5 / length.  The first (at most
    ``_CHORD_STEPS``) are chord (simplified-Newton) steps with the kept
    Jacobian, one substitution each, each tried once and kept only if the
    residual falls; a dropped one ends them, and without ``factors`` there
    are none.  Every later step is a Newton step with a fresh Jacobian,
    factored once and halved until the residual falls.  The solve returns
    as soon as the residual meets the tolerance, with the last
    factorisation.
    Every pose returned has passed the range check; a solve that stalls
    raises NoConvergence with the best pose it met.
    """
    length = statics.length
    (kappa, phi), eps = _polar(x0, x1), x2

    tol = config.solver_tolerance
    res, contractions = statics.residual(kappa, phi, eps, forces)
    norm = math.sqrt(res[0] * res[0] + res[1] * res[1] + res[2] * res[2])
    # cap on per-iteration curvature-variable moves (keeps theta steps <= ~29 deg)
    max_move = 0.5 / length
    chords = 0 if factors is None else _CHORD_STEPS
    best_kappa, best_phi, best_eps = kappa, phi, eps
    best_norm = norm

    for _ in range(config.max_newton_iterations):
        if norm < tol:
            break
        halvings = 0
        if chords:
            step = _substitute3(factors, res)
        else:
            factors = _factor3(statics.jacobian((x0, x1, x2), forces))
            if factors is None:
                # singular Jacobian: nudge along the residual direction
                scale = max_move / max(norm, 1e-300)
                step = -res[0] * scale, -res[1] * scale, -res[2] * scale
            else:
                step = _substitute3(factors, res)
            # damped update: after nine halvings the tenth, smallest
            # candidate is taken anyway to escape flat spots
            halvings = 9
        s0, s1, s2 = _capped(*step, max_move)
        while True:
            c0, c1, c2 = x0 + s0, x1 + s1, x2 + s2
            c_kappa, c_phi = _polar(c0, c1)
            cand_res, cand_contractions = statics.residual(c_kappa, c_phi, c2, forces)
            r0, r1, r2 = cand_res
            cand_norm = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
            if cand_norm < norm or cand_norm == 0.0 or not halvings:
                break
            halvings -= 1
            s0, s1, s2 = 0.5 * s0, 0.5 * s1, 0.5 * s2
        if chords:
            if not cand_norm < norm:
                # dropped; a second chord step from here would repeat it
                chords = 0
                continue
            chords -= 1
        x0, x1, x2, kappa, phi, eps = c0, c1, c2, c_kappa, c_phi, c2
        res, contractions, norm = cand_res, cand_contractions, cand_norm
        if norm < best_norm:
            best_kappa, best_phi, best_eps = kappa, phi, eps
            best_norm = norm

    if not norm < tol:
        raise NoConvergence(ArcPose(best_kappa, best_phi, best_eps), best_norm, tol)
    # the last pose is the best: had an earlier one met the tolerance, the
    # loop would have stopped there
    theta = kappa * length
    if theta > math.pi:
        raise PoseOutOfRange(
            f"bending angle {math.degrees(theta):.1f} deg exceeds 180 deg"
        )
    # an overflowed chord leaves a non-finite contraction for the next step's
    # stretch rate; finite ones are under 1.4e154 m, so their sum is finite
    if not math.isfinite(contractions[0] + contractions[1] + contractions[2]):
        raise PoseOutOfRange(f"unit chord contractions {contractions} m are not finite")
    corrected = (x0, x1, x2)
    if factors is not None:
        s0, s1, s2 = _capped(*_substitute3(factors, res), max_move)
        corrected = (x0 + s0, x1 + s1, x2 + s2)
    return kappa, _wrap_angle(phi), x2, norm, contractions, factors, corrected


def solve_pose(
    system: NeckSystem, unit_forces, initial_guess: ArcPose, config: SimConfig
) -> ArcPose:
    """Equilibrium pose for fixed tendon force magnitudes.

    Damped Newton iteration in Cartesian curvature components, warm-started
    from ``initial_guess``.  Raises NoConvergence or PoseOutOfRange.
    """
    forces = _tendon_forces(unit_forces)
    kappa, phi = initial_guess.curvature, initial_guess.bending_plane_angle
    kappa, phi, eps, _, _, _, _ = _solve_pose_statics(
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

    Until a spring leaves the idle path, ``step_spring`` and the carried
    force update of ``simulate`` read the transformation coefficient only as
    ``transform * 0.0`` in the idle force law, which is a zero with the
    coefficient's sign (``NeckSystem`` refuses a coefficient that is not
    finite, whose product would be NaN), and the rest solve does not read
    it at all.  So the loop state after the
    prefix is the same for every tensor of one sign.  Keys compare with
    ``==``, which does not tell 0.0 from -0.0; of the other calibratable
    fields only a zero pennation angle can be either, and the engine reads it
    only through its cosine.
    """
    material = system.material
    tensor = math.copysign(1.0, material.phase_transform_tensor)
    # set on a copy rather than by replace, which would run the
    # spring-constant checks on a tensor of magnitude 1; the copy keeps the
    # system's spring_constants, which no key comparison reads and no run
    # of a key uses
    key = copy.copy(system)
    object.__setattr__(key, "material", replace(material, phase_transform_tensor=tensor))
    return key


@dataclass(frozen=True)
class _IdlePrefix:
    """The loop state of a run at the top of the first step in which a
    spring leaves the idle path, or at the end of a run that never does.

    The state ends in the run's record of its ``step`` rows so far: the
    ``SimTrace`` of a trace run, or the largest bending angle of a peak run
    (a float, ``-inf`` before the first row)."""

    key: NeckSystem  # _prefix_key of the run's system
    step: int
    # (states, carried, dx_prev, dx_prev2, a, b, c, factors, last_phi,
    # record) as simulate's loop carries them; a deep copy, never handed out
    loop: tuple


def simulate(
    system: NeckSystem,
    config: SimConfig,
    *,
    prefixes: dict | None = None,
    _peak: bool = False,
) -> SimTrace:
    """Run the coupled spring/pose dynamics and return the full trace.

    Deterministic: identical inputs produce identical traces.  Solver
    failures are re-raised with the failing step and time attached, plus the
    best pose when the pose solve stalled.

    Each step hands its row to the run's record.  That is the ``SimTrace``
    returned, with its crossing markers.  ``sweep`` passes the private
    ``_peak=True``: the record is then the largest bending angle so far, a
    float that each row updates with one comparison, and the run returns it
    as a ``_PeakRecord`` whose ``len()`` and ``max_bending_angle()`` equal
    the trace's.

    ``prefixes`` is a dict the caller owns (calibration passes one per
    search).  A run given one continues from the idle prefix stored under
    ``config`` when that prefix came from the same system up to the sign of
    ``phase_transform_tensor`` (see ``_prefix_key``); otherwise it stores its
    own, replacing the entry.  The prefix holds the run's record so far.  A
    peak run keeps its entries under ``(config, _PeakRecord)``, apart from a
    trace run's, so one dict serves ``simulate`` and ``sweep`` and neither
    kind of run continues from the other's record.  A run that fails inside
    its prefix stores nothing.  The result is the same, bit for bit, either
    way.

    A unit whose spring starts the run cold (idle, fraction 1.0, at exactly
    the ambient temperature) is carried as its force alone while its current
    is 0.0: each step applies the idle path's force law of ``step_spring``,
    whose heat balance is exactly zero there, with its checks and messages.
    At the first step the unit is driven, its ``SpringState`` is rebuilt
    and it takes ``step_spring`` from then on.
    """
    statics = _Statics(system)
    profile = config.current_profile
    dt = config.dt
    n_steps = int(round(config.duration / dt))
    spring_constants = system.spring_constants
    bound = config.max_temperature_step
    take_max = system.force_combination == "max"
    # a cold spring's force law, as step_spring's idle path has it at
    # fraction 1 with a zero temperature change; its two zero terms are
    # added up once, which leaves every sum as it was: a sum of signed zeros
    # is -0.0 only when every term is
    cold_stiffness = spring_constants.stiffness(1.0)
    cold_zero = spring_constants.transform * 0.0 + spring_constants.thermal * 0.0

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

    indices = [u.index for u in system.units]
    for seg in profile.segments:
        if seg.unit not in indices:
            raise ValueError(
                f"current profile drives unit {seg.unit}, which the system does "
                f"not have (its units are {', '.join(map(str, indices))})"
            )

    prefix = key = None
    if prefixes is not None:
        key = _prefix_key(system)
        slot = (config, _PeakRecord) if _peak else config
        prefix = prefixes.get(slot)
        if prefix is not None and prefix.key != key:
            prefix = None
    if prefix is not None:
        first, loop = prefix.step, copy.deepcopy(prefix.loop)
    else:
        first = 0
        springs = [u.spring for u in system.units]
        ambient = system.env.ambient_temperature
        # per unit, the force of a spring carried cold, or None
        carried = [
            s.force
            if s.branch is _IDLE
            and s.martensite_fraction == 1.0
            and s.temperature == ambient
            else None
            for s in springs
        ]
        # resolve the initial equilibrium so pretension imbalances are not
        # attributed to the first step; the straight pose is where each rest
        # chord was measured, so every chord contraction there is zero and so
        # is each tendon's stiffness force (see the step below)
        rest_forces = []
        for (_, cos_p, _, fibers, _), state in zip(constants, springs):
            active = fibers * state.force * cos_p
            rest_forces.append(max(active, 0.0) if take_max else active + 0.0)
        try:
            _, phi, _, _, dx, factors, c = _solve_pose_statics(
                statics, tuple(rest_forces), 0.0, 0.0, 0.0, config
            )
        except SOLVER_FAILURES as exc:
            _annotate_failure(exc, 0, 0.0)
            raise
        # the last three corrected poses a, b, c as (u_x, u_y, twist); each
        # solve starts from their quadratic extrapolation along the solution
        # path (predictor-corrector continuation), or from c while fewer
        # exist.  Extrapolated, the accepted poses' tolerance-level errors
        # would grow by sqrt(19) in root mean square.
        record = -math.inf if _peak else SimTrace()
        loop = (springs, carried, dx, dx, c, c, c, factors, phi, record)
    states, carried, dx_prev, dx_prev2, a, b, c, factors, last_phi, record = loop
    crossing_recorded = _peak or "crossing_t_s" in record.markers
    # a run that starts afresh with a dict stores its idle prefix: the state
    # at the top of the first step in which a spring leaves the idle path
    recording = key is not None and prefix is None

    for step_index in range(first, n_steps):
        t_prev = step_index * dt
        t = t_prev + dt
        if recording:
            top = list(states), list(carried)
        try:
            forces = []
            for k, (index, cos_p, neg_cos_p, fibers, stiffness) in enumerate(constants):
                contraction = dx_prev[k]
                amps = profile.current(index, t_prev)
                rate = neg_cos_p * ((contraction - dx_prev2[k]) / dt)
                force = carried[k]
                if force is not None and amps == 0.0:
                    # step_spring's checks, with its messages
                    if not math.isfinite(rate):
                        raise ValueError("stretch_rate must be finite")
                    force = carried[k] = max(
                        force + cold_stiffness * rate * dt + cold_zero, 0.0
                    )
                    if not force < math.inf:
                        raise ValueError("force must be non-negative (tendon cannot push)")
                else:
                    if force is not None:
                        # first driven: the cold state with the carried force
                        cold = states[k]
                        states[k] = _state(
                            cold.temperature, cold.martensite_fraction, force,
                            cold.fraction_at_branch_start, cold.branch,
                        )
                        carried[k] = None
                    state = states[k] = step_spring(
                        spring_constants, states[k], amps, rate, dt, bound
                    )
                    force = state.force
                # the tendon force: the springs' pull along the tendon
                # (pennate_force) with the stiffness force of the last chord
                # contraction (tendon_force_from_stretch), combined; both
                # laws' references are in tests/reference_model.py
                active = fibers * force * cos_p
                passive = 0.0 if contraction <= 0.0 else stiffness * contraction
                forces.append(max(active, passive) if take_max else active + passive)
            if recording and any(
                new.branch is not _IDLE
                or new.martensite_fraction != old.martensite_fraction
                for old, new in zip(top[0], states)
            ):
                # an arc entered and completed within the step returns IDLE
                # with a moved fraction, hence the second test
                prefixes[slot] = _IdlePrefix(key, step_index, copy.deepcopy(
                    (*top, dx_prev, dx_prev2, a, b, c, factors, last_phi, record)
                ))
                recording = False
            forces = tuple(forces)
            start = c
            if step_index >= 2:
                predicted = (
                    3.0 * (c[0] - b[0]) + a[0],
                    3.0 * (c[1] - b[1]) + a[1],
                    3.0 * (c[2] - b[2]) + a[2],
                )
                # a start bent past 180 deg can lead the solve to a root
                # beyond it although one inside the workspace balances
                if math.hypot(predicted[0], predicted[1]) * statics.length <= math.pi:
                    start = predicted
            kappa, phi, _, res_norm, dx, factors, corrected = _solve_pose_statics(
                statics, forces, *start, config, factors
            )
        except SOLVER_FAILURES as exc:
            _annotate_failure(exc, step_index + 1, t)
            raise

        dx_prev2, dx_prev = dx_prev, dx
        a, b, c = b, c, corrected

        theta = kappa * statics.length
        if _peak:
            # running maximum: the float max(trace.theta) returns, as max
            # keeps the first of equal values and theta is never NaN
            if theta > record:
                record = theta
            continue
        if theta >= STRAIGHT_THRESHOLD:
            last_phi = phi

        s0, s1, s2 = states
        if not crossing_recorded:
            for s in states:
                if s.martensite_fraction < 1.0:
                    crossing_recorded = True
                    sigma = shear_stress(system.spring_geometry, s.force)
                    as_prime, af_prime = _reverse_band(system.material, sigma)
                    record.markers["crossing_t_s"] = t
                    record.markers["as_prime_K"] = as_prime
                    record.markers["af_prime_K"] = af_prime
                    break

        record.append(
            t,
            kappa,
            last_phi,
            theta,
            (s0.temperature, s1.temperature, s2.temperature),
            (s0.martensite_fraction, s1.martensite_fraction, s2.martensite_fraction),
            forces,
            res_norm,
        )

    if recording:
        # idle to the end: the whole run is the prefix
        prefixes[slot] = _IdlePrefix(key, n_steps, copy.deepcopy(
            (states, carried, dx_prev, dx_prev2, a, b, c, factors, last_phi, record)
        ))
    return _PeakRecord(n_steps, record) if _peak else record


def sweep(
    system: NeckSystem,
    currents,
    config: SimConfig,
    unit_index: int = 1,
    *,
    prefixes: dict | None = None,
) -> list[SweepRow]:
    """Run one simulation per current (applied to ``unit_index`` for the
    whole of ``config.duration``, from the same initial system, with
    ``config``'s other settings) and report the peak bending angle.  Failures
    are reported per row; the sweep continues.  Each row's ``simulate``
    records only that peak (``_peak=True``): no trace, no crossing markers.
    ``prefixes`` goes to every row's ``simulate`` (each row has its own
    config, so its own entry, apart from a trace run's of that config)."""
    currents = list(currents)
    if not currents:
        raise ValueError("currents must be non-empty")
    rows: list[SweepRow] = []
    for amps in currents:
        profile = CurrentProfile.constant(unit_index, float(amps), config.duration)
        run_cfg = replace(config, current_profile=profile)
        try:
            record = simulate(system, run_cfg, prefixes=prefixes, _peak=True)
            rows.append(SweepRow(float(amps), record.max_bending_angle()))
        except SOLVER_FAILURES as exc:
            rows.append(SweepRow(float(amps), None, str(exc)))
    return rows

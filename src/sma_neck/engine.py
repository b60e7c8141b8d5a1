"""Coupled simulation engine.

Each time step advances the three units' spring states through their
electro-thermal dynamics (the springs of one unit share a state), aggregates
the three tendon forces, and solves the quasi-static moment balance on the
backbone (muscle moments + gravity - elastic restoring moment = 0) for the
arc pose by damped Newton iteration.  The Jacobian is exact: it is
assembled from the closed-form derivatives of the constant-curvature arc
(tip velocity, angular velocity of the head mount and elastic moment rate)
and of each tendon's moment.  Near the straight configuration the solve runs
in Cartesian curvature components to remove the bending-plane
indeterminacy.

Spring stretch rates are fed back from the pose change of the previous
accepted step (one-step lag), which breaks the algebraic loop between the
force law and the pose solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .backbone import (
    STRAIGHT_THRESHOLD,
    ArcPose,
    BackboneGeometry,
    _arc_rates_t,
    _elastic_moment_t,
    _frame_t,
)
from .pennate import (
    PennateUnit,
    _line_of_action_t,
    _tendon_moment_rates_t,
    _tendon_moment_t,
    pennate_force,
    rest_chord_length,
    tendon_force_from_stretch,
)
from .sma import (
    SmaMaterial,
    SpringGeometry,
    StepTooLarge,
    ThermalEnvironment,
    _reverse_band,
    shear_stress,
    step_spring,
)

GRAVITY = 9.80665  # m/s^2

_TWO_PI = 2.0 * math.pi

# warm-start bending angle below which the Cartesian curvature chart is used
_CHART_SWITCH_ANGLE = 1e-2


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
        azimuths = sorted(u.azimuth % _TWO_PI for u in self.units)
        gaps = [
            (azimuths[1] - azimuths[0]),
            (azimuths[2] - azimuths[1]),
            _TWO_PI - (azimuths[2] - azimuths[0]),
        ]
        if any(abs(g - _TWO_PI / 3.0) > 1e-9 for g in gaps):
            raise ValueError("unit azimuths must be mutually 120 degrees apart")
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
    max_newton_iterations: int = 60
    max_temperature_step: float = 1.0  # K

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.duration < self.dt:
            raise ValueError("duration must cover at least one step")
        if self.solver_tolerance <= 0.0:
            raise ValueError("solver_tolerance must be positive")
        if self.max_newton_iterations < 1:
            raise ValueError("max_newton_iterations must be at least 1")


class SimTrace:
    """Time-indexed record of every observable quantity of a run.

    Columns are plain float lists; the spring temperature and martensite
    fraction rows hold one value per unit.  ``phi_defined`` flags rows where
    the backbone was effectively straight and the reported bending-plane angle
    is carried over from the last bent row.
    """

    def __init__(self):
        self.t: list[float] = []
        self.kappa: list[float] = []
        self.phi: list[float] = []
        self.theta: list[float] = []
        self.spring_temperatures: list[tuple[float, float, float]] = []
        self.spring_fractions: list[tuple[float, float, float]] = []
        self.unit_forces: list[tuple[float, float, float]] = []
        self.residual_norm: list[float] = []
        self.phi_defined: list[bool] = []
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
        self.spring_temperatures.append(temperatures)
        self.spring_fractions.append(fractions)
        self.unit_forces.append(forces)
        self.residual_norm.append(residual_norm)
        self.phi_defined.append(phi_defined)

    def __len__(self) -> int:
        return len(self.t)

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
    """Precomputed constants for fast pose-residual evaluation."""

    __slots__ = (
        "length", "ei_y", "gj_over_l", "bases", "heads", "rest_chords",
        "head_weight", "gravity_on",
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
        self.head_weight = system.head_mass * GRAVITY
        self.gravity_on = system.gravity_enabled and system.head_mass > 0.0

    def geometry(self, kappa: float, phi: float, eps: float):
        """Per-unit (attachment point, pull direction, contraction) plus the
        tip position for the given pose."""
        tip, rot = _frame_t(kappa, phi, eps, self.length)
        rows = []
        for head, base, rest in zip(self.heads, self.bases, self.rest_chords):
            rows.append(_line_of_action_t(head, base, rest, tip, rot))
        return tip, rows

    def residual(self, kappa: float, phi: float, eps: float, forces):
        """Net moment at the pose, plus the tip position and the per-unit
        geometry rows it was computed from."""
        tip, rows = self.geometry(kappa, phi, eps)
        mx, my, mz = _tendon_moment_t(tip, rows, forces)
        if self.gravity_on:
            # head weight acting at the tip: tip x (0, 0, -w)
            mx += -self.head_weight * tip[1]
            my += self.head_weight * tip[0]
        ex, ey, ez = _elastic_moment_t(
            kappa, phi, eps, self.ei_y, self.gj_over_l, self.length
        )
        return (mx - ex, my - ey, mz - ez), tip, rows

    def jacobian(self, x, chart: str, forces, tip, rows):
        """Row-major 3x3 derivative of ``residual`` with respect to the chart
        variables ``x``: (u_x, u_y, twist) in the Cartesian chart, (kappa,
        phi, twist) in the polar one, with u = kappa (cos phi, sin phi).
        ``tip`` and ``rows`` are what ``residual`` returned at ``x``."""
        if chart == "polar":
            kappa, phi = x[0], x[1]
            cos_p, sin_p = math.cos(phi), math.sin(phi)
            ux, uy = kappa * cos_p, kappa * sin_p
        else:
            ux, uy = x[0], x[1]
        tip_rates, spins, elastic_rates = _arc_rates_t(
            ux, uy, x[2], self.ei_y, self.gj_over_l, self.length
        )
        moment_rates = _tendon_moment_rates_t(
            tip, rows, self.rest_chords, forces, tip_rates, spins
        )
        a, b, c = [
            [mx - ex, my - ey, mz - ez]
            for (mx, my, mz), (ex, ey, ez) in zip(moment_rates, elastic_rates)
        ]
        if self.gravity_on:
            # head weight at the tip: tip x (0, 0, -w)
            w = self.head_weight
            for col, (tx, ty, _) in zip((a, b), tip_rates):
                col[0] -= w * ty
                col[1] += w * tx
        if chart == "polar":
            # d/dkappa = (cos phi, sin phi) . d/du, d/dphi = (-u_y, u_x) . d/du
            a, b = (
                [cos_p * a[0] + sin_p * b[0], cos_p * a[1] + sin_p * b[1],
                 cos_p * a[2] + sin_p * b[2]],
                [ux * b[0] - uy * a[0], ux * b[1] - uy * a[1], ux * b[2] - uy * a[2]],
            )
        return [[a[0], b[0], c[0]], [a[1], b[1], c[1]], [a[2], b[2], c[2]]]


def _tendon_forces(unit_forces) -> tuple[float, float, float]:
    forces = tuple(float(f) for f in unit_forces)
    if len(forces) != 3:
        raise ValueError("unit_forces must have exactly 3 entries")
    if any(f < 0.0 for f in forces):
        raise ValueError("unit forces must be non-negative")
    return forces


def residual(system: NeckSystem, pose: ArcPose, unit_forces) -> np.ndarray:
    """Net moment (N m) on the head mount: muscle moments plus gravity minus
    the backbone's elastic restoring moment.  Zero at equilibrium."""
    forces = _tendon_forces(unit_forces)
    moment, _, _ = _Statics(system).residual(
        pose.curvature, pose.bending_plane_angle, pose.twist, forces
    )
    return np.array(moment)


def _solve3(j, r):
    """Solve the 3x3 system j . x = -r by Gaussian elimination with partial
    pivoting; returns None when singular."""
    a = [
        [j[0][0], j[0][1], j[0][2], -r[0]],
        [j[1][0], j[1][1], j[1][2], -r[1]],
        [j[2][0], j[2][1], j[2][2], -r[2]],
    ]
    for col in range(3):
        pivot = max(range(col, 3), key=lambda i: abs(a[i][col]))
        if abs(a[pivot][col]) < 1e-300:
            return None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
        inv = 1.0 / a[col][col]
        for row in range(col + 1, 3):
            factor = a[row][col] * inv
            if factor != 0.0:
                for k in range(col, 4):
                    a[row][k] -= factor * a[col][k]
    x = [0.0, 0.0, 0.0]
    for row in (2, 1, 0):
        acc = a[row][3]
        for k in range(row + 1, 3):
            acc -= a[row][k] * x[k]
        x[row] = acc / a[row][row]
    return x


def _norm3(v) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _pose_from_vars(x, chart: str):
    if chart == "polar":
        kappa, phi, eps = x
        if kappa < 0.0:
            kappa, phi = -kappa, phi + math.pi
    else:
        kx, ky, eps = x
        kappa = math.hypot(kx, ky)
        phi = math.atan2(ky, kx)
    return kappa, phi % _TWO_PI, eps


def _solve_pose_statics(
    statics: _Statics, forces, initial_guess: ArcPose, config: SimConfig
) -> tuple[ArcPose, float, tuple[float, float, float]]:
    """Equilibrium pose, its residual norm and the unit chord contractions
    at that pose."""
    length = statics.length
    if initial_guess.curvature * length < _CHART_SWITCH_ANGLE:
        chart = "cartesian"
        k0, p0 = initial_guess.curvature, initial_guess.bending_plane_angle
        x = [k0 * math.cos(p0), k0 * math.sin(p0), initial_guess.twist]
    else:
        chart = "polar"
        x = [
            initial_guess.curvature,
            initial_guess.bending_plane_angle,
            initial_guess.twist,
        ]

    def eval_res(vars_):
        kappa, phi, eps = _pose_from_vars(vars_, chart)
        return statics.residual(kappa, phi, eps, forces)

    def contractions(rows):
        return tuple(row[2] for row in rows)

    tol = config.solver_tolerance
    res, tip, rows = eval_res(x)
    norm = _norm3(res)
    best_x, best_norm, best_rows = list(x), norm, rows
    # cap on per-iteration curvature-variable moves (keeps theta steps <= ~29 deg)
    max_move = 0.5 / length

    for _ in range(config.max_newton_iterations):
        if norm < tol:
            kappa, phi, eps = _pose_from_vars(x, chart)
            theta = kappa * length
            if theta > math.pi:
                raise PoseOutOfRange(
                    f"bending angle {math.degrees(theta):.1f} deg exceeds 180 deg"
                )
            return ArcPose(kappa, phi, eps), norm, contractions(rows)
        step = _solve3(statics.jacobian(x, chart, forces, tip, rows), res)
        if step is None:
            # singular Jacobian: nudge along the residual direction
            scale = max_move / max(norm, 1e-300)
            step = [-res[0] * scale, -res[1] * scale, -res[2] * scale]
        move = max(abs(step[0]), abs(step[1]), abs(step[2]))
        if move > max_move:
            shrink = max_move / move
            step = [s * shrink for s in step]
        # damped update: halve on residual increase, up to 8 times
        accepted = False
        for _halving in range(9):
            cand = [x[0] + step[0], x[1] + step[1], x[2] + step[2]]
            cand_res, cand_tip, cand_rows = eval_res(cand)
            cand_norm = _norm3(cand_res)
            if cand_norm < norm or math.isclose(cand_norm, 0.0):
                x, res, norm, tip, rows = cand, cand_res, cand_norm, cand_tip, cand_rows
                accepted = True
                break
            step = [0.5 * s for s in step]
        if not accepted:
            # take the least-bad candidate to escape flat spots
            x = [x[0] + step[0], x[1] + step[1], x[2] + step[2]]
            res, tip, rows = eval_res(x)
            norm = _norm3(res)
        if norm < best_norm:
            best_x, best_norm, best_rows = list(x), norm, rows

    if best_norm < tol:
        kappa, phi, eps = _pose_from_vars(best_x, chart)
        return ArcPose(kappa, phi, eps), best_norm, contractions(best_rows)
    kappa, phi, eps = _pose_from_vars(best_x, chart)
    raise NoConvergence(ArcPose(kappa, phi, eps), best_norm, tol)


def solve_pose(
    system: NeckSystem, unit_forces, initial_guess: ArcPose, config: SimConfig
) -> ArcPose:
    """Equilibrium pose for fixed tendon force magnitudes.

    Damped Newton iteration, warm-started from ``initial_guess``, in Cartesian
    curvature components when the guess is near straight and in polar ones
    otherwise.  Raises NoConvergence or PoseOutOfRange.
    """
    forces = _tendon_forces(unit_forces)
    pose, _, _ = _solve_pose_statics(_Statics(system), forces, initial_guess, config)
    return pose


def _combined_force(
    system: NeckSystem, unit: PennateUnit, spring_force: float, contraction: float
) -> float:
    active = pennate_force(unit, spring_force)
    passive = tendon_force_from_stretch(unit, contraction)
    if system.force_combination == "max":
        return max(active, passive)
    return active + passive


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


def simulate(system: NeckSystem, config: SimConfig) -> SimTrace:
    """Run the coupled spring/pose dynamics and return the full trace.

    Deterministic: identical inputs produce identical traces.  Solver
    failures are re-raised with the failing step and time attached, plus the
    best pose when the pose solve stalled.
    """
    statics = _Statics(system)
    profile = config.current_profile
    dt = config.dt
    n_steps = int(round(config.duration / dt))

    units = system.units
    states = [u.spring for u in units]
    pose = ArcPose(0.0, 0.0, 0.0)

    def unit_forces(dx):
        return tuple(
            _combined_force(system, u, s.force, x) for u, s, x in zip(units, states, dx)
        )

    # resolve the initial equilibrium so pretension imbalances are not
    # attributed to the first step
    _, rest_rows = statics.geometry(0.0, 0.0, 0.0)
    rest_forces = unit_forces([row[2] for row in rest_rows])
    try:
        pose, _, dx_prev = _solve_pose_statics(statics, rest_forces, pose, config)
    except SOLVER_FAILURES as exc:
        _annotate_failure(exc, 0, 0.0)
        raise
    dx_prev2 = dx_prev

    trace = SimTrace()
    last_phi = pose.bending_plane_angle
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
                    system.material,
                    system.spring_geometry,
                    system.env,
                    states[k],
                    amps,
                    stretch_rate,
                    dt,
                    config.max_temperature_step,
                )
            forces = unit_forces(dx_prev)
            pose, res_norm, dx = _solve_pose_statics(statics, forces, pose, config)
        except SOLVER_FAILURES as exc:
            _annotate_failure(exc, step_index + 1, t)
            raise

        dx_prev2, dx_prev = dx_prev, dx

        theta = pose.curvature * statics.length
        if theta >= STRAIGHT_THRESHOLD:
            last_phi = pose.bending_plane_angle
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
            pose.curvature,
            last_phi,
            theta,
            tuple(s.temperature for s in states),
            tuple(s.martensite_fraction for s in states),
            forces,
            res_norm,
            phi_defined,
        )

    return trace


def sweep(
    system: NeckSystem,
    currents,
    hold: float,
    config: SimConfig | None = None,
    unit_index: int = 1,
) -> list[SweepRow]:
    """Run one simulation per current (applied to ``unit_index`` for ``hold``
    seconds each, from the same initial system) and report the peak bending
    angle.  Failures are reported per row; the sweep continues."""
    currents = list(currents)
    if not currents:
        raise ValueError("currents must be non-empty")
    if hold <= 0.0:
        raise ValueError("hold must be positive")
    base = config or SimConfig(dt=1e-3, duration=hold)
    rows: list[SweepRow] = []
    for amps in currents:
        run_cfg = replace(
            base,
            duration=hold,
            current_profile=CurrentProfile.constant(unit_index, float(amps), hold),
        )
        try:
            trace = simulate(system, run_cfg)
            rows.append(SweepRow(float(amps), trace.max_bending_angle()))
        except SOLVER_FAILURES as exc:
            rows.append(SweepRow(float(amps), None, str(exc)))
    return rows

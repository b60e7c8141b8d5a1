import math
import random
import re
import tracemalloc
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from sma_neck import (
    ArcPose,
    CurrentProfile,
    NoConvergence,
    PoseOutOfRange,
    Segment,
    SimConfig,
    SimTrace,
    residual,
    simulate,
    solve_pose,
    sweep,
)
from sma_neck import engine, sma
from sma_neck.backbone import STRAIGHT_THRESHOLD
from sma_neck.engine import MAX_STEPS, _factor3, _solve_pose_statics, _Statics
from sma_neck.scenario import (
    ValidationError,
    default_scenario_text,
    load_default_scenario,
    load_with_overrides,
)
import test_step_loop
from conftest import make_system, pose_from_vars
from reference_model import (
    elastic_moment,
    pennate_force,
    tendon_force_from_stretch,
    unit_line_of_action,
    unit_moment,
)


def quick_config(**kw):
    defaults = dict(dt=1e-3, duration=1.0)
    defaults.update(kw)
    return SimConfig(**defaults)


def arc_frame_tip(pose, backbone):
    from sma_neck import arc_position

    return arc_position(pose, backbone, backbone.length)


class TestResidual:
    def test_rest_is_equilibrium(self, system, straight_pose):
        r = residual(system, straight_pose, (0.0, 0.0, 0.0))
        assert np.linalg.norm(r) < 1e-15

    def test_unloaded_bend_leaves_elastic_moment(self, system):
        pose = ArcPose(2.0, 0.4, 0.0)
        r = residual(system, pose, (0.0, 0.0, 0.0))
        assert r == pytest.approx(-np.array(elastic_moment(pose, system.backbone)))

    def test_single_unit_superposition(self, system, straight_pose):
        r = residual(system, straight_pose, (5.0, 0.0, 0.0))
        m = unit_moment(system.units[0], straight_pose, system.backbone, 5.0)
        assert r == pytest.approx(m)

    # the system fixture is frozen, so sharing it across examples is safe
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        theta=st.floats(1e-3, 3.0),
        phi=st.floats(0.0, 2 * math.pi),
        twist=st.floats(-0.3, 0.3),
        force=st.floats(0.01, 50.0),
    )
    def test_superposition_over_bent_poses(self, system, theta, phi, twist, force):
        # each unit's share of the residual is its unit moment, and the
        # engine's chord contractions are the unit lines of action
        backbone = system.backbone
        pose = ArcPose(theta / backbone.length, phi, twist)
        unloaded = np.array(residual(system, pose, (0.0, 0.0, 0.0)))
        _, contractions = _Statics(system).residual(
            pose.curvature, pose.bending_plane_angle, pose.twist, (0.0, 0.0, 0.0)
        )
        for k, unit in enumerate(system.units):
            forces = [0.0, 0.0, 0.0]
            forces[k] = force
            share = np.array(residual(system, pose, forces)) - unloaded
            m = unit_moment(unit, pose, backbone, force)
            scale = np.linalg.norm(m) + np.linalg.norm(unloaded)
            assert np.linalg.norm(share - m) <= 1e-9 * scale
            assert contractions[k] == unit_line_of_action(unit, pose, backbone)[2]

    def test_rejects_negative_force(self, system, straight_pose):
        with pytest.raises(ValueError):
            residual(system, straight_pose, (-1.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 2])
    def test_rejects_non_finite_force(self, system, straight_pose, bad, slot):
        forces = [1.0, 0.0, 0.0]
        forces[slot] = bad
        with pytest.raises(ValueError, match="unit forces must be finite"):
            residual(system, straight_pose, forces)

    def test_gravity_moment_when_enabled(self, system):
        heavy = replace(system, gravity_enabled=True)
        pose = ArcPose(2.0, 0.0, 0.0)
        with_gravity = residual(heavy, pose, (0.0, 0.0, 0.0))
        without = residual(system, pose, (0.0, 0.0, 0.0))
        tip = arc_frame_tip(pose, system.backbone)
        expected = np.cross(tip, [0.0, 0.0, -system.head_mass * 9.80665])
        assert np.array(with_gravity) - without == pytest.approx(expected, rel=1e-12)

    def test_gravity_vanishes_on_straight_backbone(self, system, straight_pose):
        heavy = replace(system, gravity_enabled=True)
        r = residual(heavy, straight_pose, (0.0, 0.0, 0.0))
        assert np.linalg.norm(r) < 1e-15


def _central_jacobian(statics, x, forces):
    def f(v):
        return statics.residual(*pose_from_vars(v), forces)[0]

    jac = [[0.0] * 3 for _ in range(3)]
    for col in range(3):
        h = 1e-6 * max(1.0, abs(x[col]))
        plus, minus = list(x), list(x)
        plus[col] += h
        minus[col] -= h
        r_plus, r_minus = f(plus), f(minus)
        for row in range(3):
            jac[row][col] = (r_plus[row] - r_minus[row]) / (2.0 * h)
    return np.array(jac)


class TestJacobian:
    # the system fixture is frozen, so sharing it across examples is safe
    @pytest.mark.parametrize("gravity", [False, True], ids=["no_gravity", "gravity"])
    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        theta=st.just(0.0) | st.floats(-4.0, math.log10(3.0)).map(lambda e: 10.0**e),
        phi=st.floats(-7.0, 7.0),
        twist=st.floats(-0.3, 0.3),
        forces=st.tuples(*[st.just(0.0) | st.floats(0.01, 50.0)] * 3),
    )
    @example(theta=0.0, phi=0.0, twist=0.0, forces=(2.0, 2.0, 2.0))
    @example(theta=1e-2 * (1 - 1e-6), phi=1.0, twist=0.1, forces=(9.0, 2.0, 0.0))
    @example(theta=1e-2 * (1 + 1e-6), phi=1.0, twist=0.1, forces=(9.0, 2.0, 0.0))
    def test_matches_central_differences(self, system, gravity, theta, phi, twist, forces):
        statics = _Statics(replace(system, gravity_enabled=gravity))
        kappa = theta / statics.length
        x = [kappa * math.cos(phi), kappa * math.sin(phi), twist]
        jac = np.array(statics.jacobian(x, forces))
        fd = _central_jacobian(statics, x, forces)
        # below 1e-2 rad the differences carry the rounding of (1 - cos ks) / k
        tol = 1e-8 if theta >= 1e-2 else 1e-6
        assert np.max(np.abs(jac - fd)) <= tol * np.max(np.abs(jac))


class TestSolvePose:
    def test_unloaded_equilibrium_is_straight(self, system, straight_pose):
        pose = solve_pose(system, (0.0, 0.0, 0.0), straight_pose, quick_config())
        assert pose.curvature == pytest.approx(0.0, abs=1e-12)
        assert pose.twist == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("unit_index,azimuth_deg", [(0, 60.0), (1, 180.0), (2, 300.0)])
    def test_single_unit_sets_bending_plane(self, system, straight_pose, unit_index, azimuth_deg):
        forces = [0.0, 0.0, 0.0]
        forces[unit_index] = 6.0
        pose = solve_pose(system, forces, straight_pose, quick_config())
        assert pose.curvature > 0.0
        delta = (pose.bending_plane_angle - math.radians(azimuth_deg) + math.pi) % (
            2 * math.pi
        ) - math.pi
        assert abs(delta) < 1e-6

    def test_linearized_beam_oracle(self, material, geometry, env, backbone):
        # small tip force at radius r: theta ~ r*F*l/EI
        rng = random.Random(42)
        for _ in range(25):
            ei = rng.uniform(0.05, 2.0)
            length = rng.uniform(0.05, 0.2)
            radius = rng.uniform(0.02, 0.06)
            bb = replace(
                backbone,
                length=length,
                bending_stiffness_y=ei,
                torsional_stiffness=ei,
            )
            system = make_system(material, geometry, env, bb, radius=radius)
            theta_target = rng.uniform(math.radians(0.3), math.radians(2.8))
            force = theta_target * ei / (radius * length)
            pose = solve_pose(system, (force, 0.0, 0.0), ArcPose(0.0), quick_config())
            theta = pose.curvature * length
            assert theta == pytest.approx(theta_target, rel=0.05)

    def test_warm_start_independence(self, system):
        cfg = quick_config()
        forces = (8.0, 1.0, 2.0)
        reference = solve_pose(system, forces, ArcPose(0.0), cfg)
        rng = random.Random(3)
        for _ in range(5):
            guess = ArcPose(
                rng.uniform(0.0, 3.0), rng.uniform(0.0, 2 * math.pi), rng.uniform(-0.1, 0.1)
            )
            pose = solve_pose(system, forces, guess, cfg)
            assert pose.curvature == pytest.approx(reference.curvature, abs=1e-6)
            delta = (pose.bending_plane_angle - reference.bending_plane_angle + math.pi) % (
                2 * math.pi
            ) - math.pi
            assert abs(delta) < 1e-6

    def test_straight_and_bent_warm_starts_agree(self, system):
        # a straight warm start and a bent one reach the same pose
        cfg = quick_config()
        forces = (6.0, 0.0, 1.0)
        bent = solve_pose(system, forces, ArcPose(1.0, 1.0), cfg)
        straight = solve_pose(system, forces, ArcPose(0.0), cfg)
        assert bent.curvature == pytest.approx(straight.curvature, abs=1e-8)
        delta = (bent.bending_plane_angle - straight.bending_plane_angle + math.pi) % (
            2 * math.pi
        ) - math.pi
        assert abs(delta) < 1e-8

    # the system fixture is frozen, so sharing it across examples is safe
    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        forces=st.tuples(*[st.floats(0.0, 40.0)] * 3),
        phi=st.floats(0.0, 2 * math.pi),
    )
    def test_straight_and_bent_warm_starts_reach_one_pose(self, system, forces, phi):
        # unequal forces bend the backbone by at least ~3 degrees, so the
        # plane angle is well defined at the solution
        assume(max(forces) - min(forces) >= 5.0)
        statics = _Statics(system)
        cfg = quick_config()
        straight = _solve_pose_statics(statics, forces, 0.0, 0.0, 0.0, cfg)
        bent = _solve_pose_statics(statics, forces, math.cos(phi), math.sin(phi), 0.0, cfg)
        assert straight[3] < cfg.solver_tolerance
        assert bent[3] < cfg.solver_tolerance
        assert bent[0] == pytest.approx(straight[0], abs=1e-8)
        delta = (bent[1] - straight[1] + math.pi) % (2 * math.pi) - math.pi
        assert abs(delta) < 1e-8

    def test_rejects_negative_force(self, system, straight_pose):
        # the same force check as the residual
        with pytest.raises(ValueError):
            solve_pose(system, (-3.0, 0.0, 0.0), straight_pose, quick_config())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_force(self, system, straight_pose, bad):
        # rejected before the Newton loop, not reported as a stalled solve
        with pytest.raises(ValueError, match="unit forces must be finite"):
            solve_pose(system, (1.0, bad, 0.0), straight_pose, quick_config())

    def test_no_convergence_reports_best(self, system, straight_pose):
        cfg = quick_config(solver_tolerance=1e-30, max_newton_iterations=2)
        with pytest.raises(NoConvergence) as err:
            solve_pose(system, (5.0, 0.0, 0.0), straight_pose, cfg)
        assert err.value.best_residual > 0.0
        assert err.value.best_pose.curvature >= 0.0

    def test_pose_out_of_range(self, system, straight_pose):
        with pytest.raises(PoseOutOfRange):
            solve_pose(system, (5000.0, 0.0, 0.0), straight_pose, quick_config())

    def test_pose_out_of_range_on_the_last_allowed_iteration(self, straight_pose):
        # 1000 N on unit 1 of the bundled system first meets the tolerance
        # on the 16th Newton step, at 223.6 degrees; 15 steps stall
        system = load_default_scenario().build_system()
        cfg = SimConfig(dt=1e-3, duration=1e-3, max_newton_iterations=15)
        with pytest.raises(NoConvergence):
            solve_pose(system, (1000.0, 0.0, 0.0), straight_pose, cfg)
        cfg = replace(cfg, max_newton_iterations=16)
        with pytest.raises(PoseOutOfRange, match="223.6 deg exceeds 180 deg"):
            solve_pose(system, (1000.0, 0.0, 0.0), straight_pose, cfg)

    def test_pose_out_of_range_after_chord_steps(self, monkeypatch):
        # started at the best pose of the stalled 15-step solve above with
        # the Jacobian there, chord steps alone reach the tolerance
        system = load_default_scenario().build_system()
        statics, forces = _Statics(system), (1000.0, 0.0, 0.0)
        cfg = SimConfig(dt=1e-3, duration=1e-3, max_newton_iterations=15)
        with pytest.raises(NoConvergence) as err:
            _solve_pose_statics(statics, forces, 0.0, 0.0, 0.0, cfg)
        best = err.value.best_pose
        kappa, phi, eps = best.curvature, best.bending_plane_angle, best.twist
        x = (kappa * math.cos(phi), kappa * math.sin(phi), eps)
        kept = _factor3(statics.jacobian(x, forces))
        jacobians, jacobian_fn = 0, _Statics.jacobian

        def counted(self, *args):
            nonlocal jacobians
            jacobians += 1
            return jacobian_fn(self, *args)

        monkeypatch.setattr(_Statics, "jacobian", counted)
        with pytest.raises(PoseOutOfRange, match="223.6 deg exceeds 180 deg"):
            _solve_pose_statics(statics, forces, *x, cfg, kept)
        assert jacobians == 0

    def test_plane_angle_rounding_up_to_two_pi_is_handed_on_as_zero(self, system):
        # the Cartesian start (1e-12, -1e-32) has phi = atan2(-1e-32, 1e-12)
        # = -1e-20, whose % 2 pi rounds up to exactly 2 pi; the residual is
        # already below tolerance, so that angle is the solution.  The angle
        # handed on must be the one ArcPose would hold.
        cfg = quick_config()
        kappa, phi, eps, norm, _, jacobian, corrected = _solve_pose_statics(
            _Statics(system), (0.0, 0.0, 0.0), 1e-12, -1e-32, 0.0, cfg
        )
        assert norm < cfg.solver_tolerance
        # no Jacobian was formed, so the pose extrapolated from is the start
        assert jacobian is None
        assert corrected == (1e-12, -1e-32, 0.0)
        assert -1e-20 % (2 * math.pi) == 2 * math.pi
        assert phi == 0.0
        assert ArcPose(kappa, 2 * math.pi, eps).bending_plane_angle == phi

    @pytest.mark.parametrize("tolerance", [1e-3, 1e-5])
    @pytest.mark.parametrize(
        "forces", [(5.0, 0.0, 0.0), (20.0, 3.0, 0.0), (8.0, 8.0, 1.0)]
    )
    def test_corrected_pose_lies_closer_to_the_root(self, tolerance, forces):
        # one chord step from the accepted pose with the returned Jacobian:
        # its residual is at least 100 times smaller than the accepted one's
        # (740 to 6.9e5 times on these solves from the straight pose)
        system = load_default_scenario().build_system()
        statics = _Statics(system)
        cfg = quick_config(solver_tolerance=tolerance)
        _, _, _, norm, _, jacobian, corrected = _solve_pose_statics(
            statics, forces, 0.0, 0.0, 0.0, cfg
        )
        assert jacobian is not None
        (r0, r1, r2), _ = statics.residual(
            *engine._polar(corrected[0], corrected[1]), corrected[2], forces
        )
        assert math.sqrt(r0 * r0 + r1 * r1 + r2 * r2) < 1e-2 * norm


def _count_solver_calls(monkeypatch, system, config):
    """(``_Statics.residual`` calls, ``_Statics.jacobian`` calls, trace) of
    one ``simulate`` run."""
    calls = {"residual": 0, "jacobian": 0}

    def counted(name):
        method = getattr(_Statics, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(_Statics, name, wrapper)

    counted("residual")
    counted("jacobian")
    trace = simulate(system, config)
    return calls["residual"], calls["jacobian"], trace


def _plane_swing_scenario():
    """Each unit heated at 8 A in turn for 0.5 s, at dt 2 ms: the bending
    plane swings by 120 degrees at a time."""
    profile = ", ".join(
        f"{{unit: {unit}, start: {start:g} s, end: {start + 0.5:g} s, current: 8 A}}"
        for unit, start in ((1, 0.0), (2, 0.5), (3, 1.0))
    )
    return load_with_overrides(
        default_scenario_text(),
        [
            "simulation.dt=2 ms",
            "simulation.duration=2.5 s",
            f"profile=[{profile}]",
        ],
    )


class TestSimulate:
    def test_zero_current_stays_straight(self, system):
        cfg = quick_config(duration=0.5)
        trace = simulate(system, cfg)
        assert len(trace) == 500
        assert max(trace.theta) == pytest.approx(0.0, abs=1e-10)
        assert all(not flag for flag in trace.phi_defined)

    def test_deterministic_repeat(self, system):
        cfg = quick_config(
            duration=0.8,
            current_profile=CurrentProfile.constant(1, 6.0, 0.8),
        )
        a = simulate(system, cfg)
        b = simulate(system, cfg)
        assert a.t == b.t
        assert a.kappa == b.kappa
        assert a.spring_temperatures == b.spring_temperatures
        assert a.unit_forces == b.unit_forces

    def test_residual_below_tolerance_every_row(self, system):
        cfg = quick_config(
            duration=0.5, current_profile=CurrentProfile.constant(1, 7.0, 0.5)
        )
        trace = simulate(system, cfg)
        assert all(r < cfg.solver_tolerance for r in trace.residual_norm)

    def test_units_never_push(self, system):
        # unilateral tendons: every reachable state carries non-negative
        # unit forces, including the stretched far units
        cfg = quick_config(
            duration=1.5, current_profile=CurrentProfile.constant(1, 8.0, 1.5)
        )
        trace = simulate(system, cfg)
        assert all(f >= 0.0 for row in trace.unit_forces for f in row)

    def test_elastic_recovery_after_power_off(self, system):
        # currents off from a deformed state: the backbone must relax back
        # monotonically (elastic moment always opposes deformation)
        cfg = quick_config(
            duration=4.0, current_profile=CurrentProfile.constant(1, 7.0, 2.0)
        )
        trace = simulate(system, cfg)
        i_off = int(2.0 / cfg.dt)
        peak = max(trace.theta)
        assert trace.theta[i_off] > math.radians(1.0)
        cooling = trace.theta[i_off + 5 :]
        assert all(b <= a + 1e-12 for a, b in zip(cooling, cooling[1:]))
        assert cooling[-1] < 0.9 * peak

    def test_profile_segments_gate_current(self, system):
        profile = CurrentProfile((Segment(1, 0.2, 0.4, 6.0),))
        cfg = quick_config(duration=0.3, current_profile=profile)
        trace = simulate(system, cfg)
        i_before = int(0.15 / cfg.dt)
        temp_before = trace.spring_temperatures[0][i_before]
        assert temp_before == pytest.approx(system.env.ambient_temperature, abs=1e-6)
        assert trace.spring_temperatures[0][-1] > temp_before

    @pytest.mark.parametrize("unit", [0, 4, 7])
    def test_profile_unit_the_system_lacks_is_rejected(self, system, monkeypatch, unit):
        # rejected before the rest solve and before the idle prefixes are read
        def fail(*args):
            raise AssertionError("the run went past the profile check")

        class Unread(dict):
            get = fail

        monkeypatch.setattr(engine, "_solve_pose_statics", fail)
        profile = CurrentProfile((Segment(2, 0.0, 1.0, 5.0), Segment(unit, 0.0, 1.0, 5.0)))
        cfg = quick_config(current_profile=profile)
        message = rf"unit {unit}, which the system does not have \(its units are 1, 2, 3\)"
        for prefixes in (None, Unread()):
            with pytest.raises(ValueError, match=message):
                simulate(system, cfg, prefixes=prefixes)

    def test_residual_evaluations_per_step(self, monkeypatch):
        # one evaluation for the start and one per chord or Newton step; the
        # start extrapolated from the last three chord-corrected poses mostly
        # meets the tolerance on its own, and most other steps need one chord
        # step with the Jacobian kept from an earlier solve (1.249 a step
        # here)
        scenario = load_default_scenario()
        calls, _, trace = _count_solver_calls(
            monkeypatch, scenario.build_system(), scenario.build_config(duration=1.0)
        )
        assert len(trace) == 1000
        assert calls / len(trace) < 1.4

    def test_residual_evaluations_per_step_as_the_plane_swings(self, monkeypatch):
        # in Cartesian curvature components a bending plane that swings by
        # 120 degrees at a time costs about as much as a fixed one (1.378 a
        # step here)
        scenario = _plane_swing_scenario()
        calls, _, trace = _count_solver_calls(
            monkeypatch, scenario.build_system(), scenario.build_config()
        )
        assert len(trace) == 1250
        assert calls / len(trace) <= 1.5

    def test_jacobians_per_step(self, monkeypatch):
        # the Jacobian of an earlier solve serves the chord steps of the
        # next ones, so a run forms one only where chord steps stop lowering
        # the residual (1 in this run's 1000 steps; a fresh Jacobian for
        # every Newton step formed 0.515 a step)
        scenario = load_default_scenario()
        _, calls, trace = _count_solver_calls(
            monkeypatch, scenario.build_system(), scenario.build_config(duration=1.0)
        )
        assert len(trace) == 1000
        assert calls / len(trace) <= 0.01

    def test_jacobians_per_step_as_the_plane_swings(self, monkeypatch):
        # 6 in 1250 steps, where a fresh Jacobian per Newton step formed
        # 0.586 a step
        scenario = _plane_swing_scenario()
        _, calls, trace = _count_solver_calls(
            monkeypatch, scenario.build_system(), scenario.build_config()
        )
        assert len(trace) == 1250
        assert calls / len(trace) <= 0.05

    def test_closure_evaluations_per_phase_solve(self, monkeypatch):
        # Newton from d_xi = 0 needs about four closure evaluations per
        # active spring step, the one at 0 included, where Brent's zeroin
        # took about seven (both bracket ends and five of its own) and
        # bisection to 1e-14 takes 44-47.  A 0.5 g spring heats through the
        # austenite band at 8 A within 0.5 s and cools back into the
        # martensite band within 2 s, so both branches are counted.
        scenario = load_with_overrides(
            default_scenario_text(),
            [
                "spring.spring_mass=0.5 g",
                "simulation.dt=2 ms",
                "simulation.duration=2 s",
                "profile=[{unit: 1, start: 0 s, end: 0.5 s, current: 8 A}]",
            ],
        )
        counts = {"reverse": [], "forward": []}
        closure_root = sma._closure_root

        def counted(residual, far):
            calls = 0

            def closure(d_xi):
                nonlocal calls
                calls += 1
                return residual(d_xi)

            root = closure_root(closure, far)
            counts["reverse" if far < 0.0 else "forward"].append(calls)
            return root

        monkeypatch.setattr(sma, "_closure_root", counted)
        simulate(scenario.build_system(), scenario.build_config())
        assert len(counts["reverse"]) >= 50 and len(counts["forward"]) >= 50
        evaluations = counts["reverse"] + counts["forward"]
        # measured 3.97 (3.97 reverse, 3.96 forward); the bound allows half
        # an evaluation more
        assert sum(evaluations) / len(evaluations) <= 4.5

    def test_solver_failure_names_step_and_best_pose(self):
        # the bundled rest pose balances exactly; the first heated step
        # cannot reach a tolerance below rounding
        scenario = load_default_scenario()
        cfg = scenario.build_config(duration=0.01, solver_tolerance=1e-30)
        with pytest.raises(NoConvergence) as err:
            simulate(scenario.build_system(), cfg)
        message = str(err.value)
        best = err.value.best_pose
        assert message.startswith("at t=0.001 s (step 1): pose solve stalled")
        assert f"residual {err.value.best_residual:.3e} N m" in message
        assert f"best pose kappa={best.curvature:.6g} 1/m" in message
        assert f"phi={best.bending_plane_angle:.6g} rad" in message
        assert f"twist={best.twist:.6g} rad" in message

    def test_predicted_start_past_180_deg_falls_back_to_the_last_pose(self):
        # with a stiff tendon the neck folds so fast that a step's quadratic
        # prediction lies past 180 degrees; a solve started there landed at
        # 270.3 degrees and ended the run, although a pose near 145 degrees
        # balances the moments
        scenario = load_with_overrides(
            default_scenario_text(),
            [
                "pennate.tendon_stiffness=9200 N/m",
                "simulation.dt=2 ms",
                "simulation.duration=0.1 s",
                "profile=[{unit: 1, start: 0 s, end: 0.1 s, current: 8 A}]",
            ],
        )
        system = scenario.build_system()
        poses = []
        solve_fn = engine._solve_pose_statics

        def recorded_solve(*args):
            result = solve_fn(*args)
            kappa, phi = result[0], result[1]
            poses.append((kappa * math.cos(phi), kappa * math.sin(phi)))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_solve_pose_statics", recorded_solve)
            trace = simulate(system, scenario.build_config())
        length = system.backbone.length
        predicted = [
            length * math.hypot(3.0 * (c[0] - b[0]) + a[0], 3.0 * (c[1] - b[1]) + a[1])
            for a, b, c in zip(poses, poses[1:], poses[2:])
        ]
        assert max(predicted) > math.pi
        assert len(trace) == 50
        assert math.degrees(max(trace.theta)) == pytest.approx(145.4, abs=0.05)

    def test_phi_defined_flags(self, system):
        # straight rows carry the last well-defined plane angle and a flag
        profile = CurrentProfile((Segment(2, 0.1, 0.5, 7.0),))
        cfg = quick_config(duration=0.5, current_profile=profile)
        trace = simulate(system, cfg)
        i_on = int(0.1 / cfg.dt)
        assert not any(trace.phi_defined[: i_on - 1])
        assert trace.phi_defined[-1]

    @pytest.mark.parametrize("radius", [1e200, 1e300])
    def test_chord_past_the_float_range_is_out_of_range(
        self, material, geometry, env, backbone, radius
    ):
        """Attachments so far out that a chord's squared length overflows end
        the run at the rest solve, instead of handing the next spring step a
        NaN or infinite stretch rate."""
        system = make_system(material, geometry, env, backbone, radius=radius)
        with pytest.raises(PoseOutOfRange, match=r"^at t=0 s \(step 0\): unit chord"):
            simulate(system, quick_config(duration=0.01))

    def test_phi_defined_is_theta_past_the_straight_threshold(self):
        """Each row's flag is ``theta >= STRAIGHT_THRESHOLD``, on the bundled
        run and on rows built by hand one ulp either side of the threshold."""
        scenario = load_default_scenario()
        trace = simulate(scenario.build_system(), scenario.build_config())
        flags = trace.phi_defined
        assert flags.typecode == "b"
        assert list(flags) == [theta >= STRAIGHT_THRESHOLD for theta in trace.theta]

        by_hand = SimTrace()
        below = math.nextafter(STRAIGHT_THRESHOLD, 0.0)
        for i, theta in enumerate((0.0, below, STRAIGHT_THRESHOLD, 0.5, below)):
            by_hand.append(
                (i + 1) * 1e-3, 1.0, 0.5, theta, (300.0,) * 3, (1.0,) * 3,
                (1.0,) * 3, 0.0,
            )
        assert by_hand.phi_defined == array("b", [0, 0, 1, 1, 0])

    def test_trace_memory_per_step(self):
        """A 2,000-step run of the bundled system holds at most 150 B of
        trace a step: 14 doubles a row in growable arrays (rows of float
        objects in lists and tuples held over 500 B).  A row takes the same
        memory at any current, and the fixed part (14 array headers, the
        markers) is under 1 kB, so 2,000 steps at zero current give the
        per-step figure of a long run."""
        scenario = load_default_scenario()
        system = scenario.build_system()
        config = scenario.build_config(duration=2.0, current_profile=CurrentProfile())
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            trace = simulate(system, config)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == 2_000
        assert held / len(trace) <= 150.0, held / len(trace)


@st.composite
def _segments(draw):
    """One to three current segments, each on its own unit, of 4-8 A within
    the first 0.8 s of a run."""
    units = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=3, unique=True))
    segments = []
    for unit in units:
        start = draw(st.integers(0, 40)) / 100.0
        end = start + draw(st.integers(5, 40)) / 100.0
        segments.append((unit, start, end, draw(st.integers(40, 80)) / 10.0))
    return segments


def _continuation_run(segments, dt_ms, duration, gravity, combination):
    """The system and run settings of one ``TestContinuation`` draw."""
    profile = ", ".join(
        f"{{unit: {unit}, start: {start:g} s, end: {end:g} s, current: {amps:g} A}}"
        for unit, start, end, amps in segments
    )
    scenario = load_with_overrides(
        default_scenario_text(),
        [
            f"simulation.dt={dt_ms} ms",
            f"simulation.duration={duration:g} s",
            f"profile=[{profile}]",
            f"head.gravity={'true' if gravity else 'false'}",
            f"pennate.force_combination={combination}",
        ],
    )
    return scenario.build_system(), scenario.build_config()


def _stiffness_bounds(system, config):
    """How far apart two poses that both meet the tolerance may lie, in
    curvature components and in twist (see ``TestContinuation``)."""
    tol = config.solver_tolerance
    bb = system.backbone
    du_bound = 10.0 * 2.0 * tol / bb.bending_stiffness_y
    dtwist_bound = 10.0 * 2.0 * tol * bb.length / bb.torsional_stiffness
    return du_bound, dtwist_bound


def _pose_gap(a, b):
    """|du| and |dtwist| between two (kappa, phi, twist) poses."""
    dux = a[0] * math.cos(a[1]) - b[0] * math.cos(b[1])
    duy = a[0] * math.sin(a[1]) - b[0] * math.sin(b[1])
    return math.hypot(dux, duy), abs(a[2] - b[2])


_continuation_draws = given(
    segments=_segments(),
    dt_ms=st.sampled_from((1, 2)),
    duration=st.integers(3, 10).map(lambda d: d / 10.0),
    gravity=st.booleans(),
    combination=st.sampled_from(("additive", "max")),
)


class TestContinuation:
    """Both properties compare two poses that each leave a net moment below
    the tolerance, so their residuals differ by at most 2 tol.  The backbone
    resists a change of curvature u with EI and a change of twist with
    GJ / L, so the poses differ by about 2 tol / EI in u and 2 tol L / GJ in
    twist; the factor 10 leaves room for the tendon moments' share of the
    Jacobian: |du| <= 10 * 2 tol / EI and |dtwist| <= 10 * 2 tol L / GJ.
    """

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @_continuation_draws
    def test_every_row_is_the_warm_started_solution(
        self, segments, dt_ms, duration, gravity, combination
    ):
        """Each accepted pose is the equilibrium ``solve_pose`` finds for the
        row's forces from the previous row's pose, whatever point the step's
        own solve starts from."""
        system, config = _continuation_run(
            segments, dt_ms, duration, gravity, combination
        )
        poses = []
        solve_fn = engine._solve_pose_statics

        def recorded_solve(*args):
            result = solve_fn(*args)
            poses.append(result[:3])
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_solve_pose_statics", recorded_solve)
            trace = simulate(system, config)
        assert len(poses) == len(trace) + 1

        du_bound, dtwist_bound = _stiffness_bounds(system, config)
        assert all(r < config.solver_tolerance for r in trace.residual_norm)
        rows = zip(poses, poses[1:], zip(*trace.unit_forces))
        for previous, pose, forces in rows:
            want = solve_pose(system, forces, ArcPose(*previous), config)
            du, dtwist = _pose_gap(
                pose, (want.curvature, want.bending_plane_angle, want.twist)
            )
            assert du <= du_bound
            assert dtwist <= dtwist_bound

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @_continuation_draws
    def test_kept_jacobian_lands_where_full_newton_does(
        self, segments, dt_ms, duration, gravity, combination
    ):
        """From the start each step's solve was given, the solve that got the
        Jacobian kept from the nearby previous pose and a full Newton solve
        from the same start land within the stiffness bounds of each other."""
        system, config = _continuation_run(
            segments, dt_ms, duration, gravity, combination
        )
        solves = []
        solve_fn = engine._solve_pose_statics

        def recorded_solve(*args):
            result = solve_fn(*args)
            solves.append((args, result))
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_solve_pose_statics", recorded_solve)
            simulate(system, config)

        du_bound, dtwist_bound = _stiffness_bounds(system, config)
        for args, result in solves:
            if len(args) < 7 or args[6] is None:
                continue
            full = solve_fn(*args[:6])
            du, dtwist = _pose_gap(result[:3], full[:3])
            assert du <= du_bound
            assert dtwist <= dtwist_bound

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @_continuation_draws
    def test_denoised_history_lands_where_the_plain_predictor_does(
        self, segments, dt_ms, duration, gravity, combination
    ):
        """Each row's pose lies within the stiffness bounds of the same row
        of the loop that predicts each start from the accepted poses, not
        from the chord-corrected ones: the history the start is predicted
        from changes where a solve begins, not where it ends."""
        system, config = _continuation_run(
            segments, dt_ms, duration, gravity, combination
        )

        def solved_poses(module, run):
            """The pose of every solve ``run`` makes through ``module``."""
            poses = []
            solve_fn = module._solve_pose_statics

            def recorded_solve(*args):
                result = solve_fn(*args)
                poses.append(result[:3])
                return result

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(module, "_solve_pose_statics", recorded_solve)
                trace = run(system, config)
            assert len(poses) == len(trace) + 1
            return poses

        denoised = solved_poses(engine, simulate)
        plain = solved_poses(
            test_step_loop,
            lambda s, c: test_step_loop.reference_simulate(s, c, denoised=False),
        )
        du_bound, dtwist_bound = _stiffness_bounds(system, config)
        assert len(denoised) == len(plain)
        for got, want in zip(denoised, plain):
            du, dtwist = _pose_gap(got, want)
            assert du <= du_bound
            assert dtwist <= dtwist_bound


class TestForceCombination:
    @pytest.mark.parametrize(
        "combination, combine", [("additive", lambda a, b: a + b), ("max", max)]
    )
    def test_tendon_force_combines_active_and_passive(
        self, monkeypatch, combination, combine
    ):
        # each step's tendon force combines the pennate force of the stepped
        # spring with the stiffness force of the contraction the previous
        # solve returned (the rest solve, before the first step).  The
        # springs are stepped here by sma.step_spring on those contractions,
        # as the reference loop of tests/test_step_loop.py steps them, so
        # the two undriven units, which simulate carries as a force alone,
        # are checked as the driven one is
        scenario = load_with_overrides(
            default_scenario_text(),
            [
                f"pennate.force_combination={combination}",
                "pennate.tendon_stiffness=6000 N/m",
                "simulation.dt=2 ms",
                "simulation.duration=1 s",
                "profile=[{unit: 1, start: 0 s, end: 1 s, current: 8 A}]",
            ],
        )
        system = scenario.build_system()
        config = scenario.build_config()
        contractions = []
        solve_fn = engine._solve_pose_statics

        def recorded_solve(*args):
            result = solve_fn(*args)
            contractions.append(result[4])
            return result

        monkeypatch.setattr(engine, "_solve_pose_statics", recorded_solve)
        trace = simulate(system, config)
        assert len(contractions) == len(trace) + 1
        states = [unit.spring for unit in system.units]
        dx_prev2 = contractions[0]
        passive_wins = active_wins = 0
        for i, forces in enumerate(zip(*trace.unit_forces)):
            dx_prev = contractions[i]
            for k, unit in enumerate(system.units):
                rate = (dx_prev[k] - dx_prev2[k]) / config.dt
                states[k] = sma.step_spring(
                    system.spring_constants,
                    states[k],
                    config.current_profile.current(unit.index, i * config.dt),
                    -math.cos(unit.pennation_angle) * rate,
                    config.dt,
                    config.max_temperature_step,
                )
                active = pennate_force(unit, states[k].force)
                passive = tendon_force_from_stretch(unit, dx_prev[k])
                assert forces[k] == combine(active, passive)
                passive_wins += passive > active
                active_wins += active > passive
            dx_prev2 = dx_prev
        # the tendon is stiff enough that the heated unit's stretch force
        # outgrows its spring pull, so each operand of "max" wins somewhere
        assert passive_wins and active_wins


class TestSimConfig:
    def test_step_cap(self):
        SimConfig(dt=1.0, duration=float(MAX_STEPS))
        with pytest.raises(ValueError, match="at most 1000000"):
            SimConfig(dt=1.0, duration=float(MAX_STEPS + 1))

    @pytest.mark.parametrize(
        "dt, duration", [(1e-300, 6.0), (1e-3, 1e9), (1e-3, math.inf), (1e-3, math.nan)]
    )
    def test_rejects_runs_past_the_cap(self, dt, duration):
        with pytest.raises(ValueError):
            SimConfig(dt=dt, duration=duration)

    @pytest.mark.parametrize(
        "changes",
        [
            # an infinite tolerance accepts every predicted start
            {"solver_tolerance": math.inf},
            {"solver_tolerance": math.nan},
            {"solver_tolerance": 0.0},
            # a bound no step meets, whatever dt
            {"max_temperature_step": 0.0},
            {"max_temperature_step": math.nan},
            {"max_temperature_step": math.inf},
            # inf / inf steps is NaN, which passed the step cap
            {"dt": math.inf, "duration": math.inf},
            {"dt": math.inf},
            {"dt": math.nan},
            {"duration": math.nan},
            {"max_newton_iterations": math.nan},
            {"max_newton_iterations": math.inf},
            {"max_newton_iterations": 0},
            # a fractional count ended the first solve in a TypeError
            {"max_newton_iterations": 2.5},
            {"max_newton_iterations": 60.0},
        ],
        ids=repr,
    )
    def test_rejects_zero_nan_and_infinite_settings(self, changes):
        name = next(iter(changes))
        with pytest.raises(ValueError, match=f"^{name} must"):
            SimConfig(**{"dt": 1e-3, "duration": 1.0, **changes})
        with pytest.raises(ValueError, match=f"^{name} must"):
            load_default_scenario().build_config(**changes)


@pytest.mark.parametrize(
    "start, end, current",
    [
        # a NaN time fails every comparison, so the segment never applied
        (math.nan, 1.0, 5.0),
        (0.0, math.nan, 5.0),
        (0.0, math.inf, 5.0),
        (math.inf, math.inf, 5.0),
        (-1.0, 1.0, 5.0),
        (1.0, 1.0, 5.0),
        # a NaN or infinite current overflowed the heat balance
        (0.0, 1.0, math.nan),
        (0.0, 1.0, math.inf),
        (0.0, 1.0, -1.0),
    ],
)
def test_segment_rejects_non_finite_and_out_of_order_values(start, end, current):
    with pytest.raises(ValueError, match="^segment "):
        Segment(1, start, end, current)


@pytest.mark.parametrize("reverse", [False, True], ids=["listed_in_order", "reversed"])
def test_overlapping_segments_are_rejected(reverse):
    # the first segment listed that covers t set the current, so these two
    # peaked at 7.89 or at 12.47 deg depending on their order
    segments = (Segment(1, 0.0, 2.0, 5.0), Segment(1, 1.0, 3.0, 8.0))
    with pytest.raises(ValueError, match="^segments for unit 1 overlap at 1 s$"):
        CurrentProfile(segments[::-1] if reverse else segments)


def test_touching_segments_and_other_units_may_share_times():
    profile = CurrentProfile((
        Segment(2, 0.0, 2.0, 4.0),
        Segment(1, 1.0, 3.0, 8.0),
        Segment(1, 0.0, 1.0, 5.0),
    ))
    assert [profile.current(1, t) for t in (0.5, 1.0, 3.0)] == [5.0, 8.0, 0.0]
    assert profile.current(2, 1.0) == 4.0


class TestSweep:
    def test_single_current_matches_simulate(self, system):
        cfg = quick_config(duration=1.0)
        rows = sweep(system, [6.0], cfg)
        direct = simulate(
            system,
            replace(cfg, current_profile=CurrentProfile.constant(1, 6.0, 1.0)),
        )
        assert rows[0].max_bending_angle == direct.max_bending_angle()

    def test_duplicate_currents_identical(self, system):
        cfg = quick_config(duration=0.6)
        rows = sweep(system, [5.0, 5.0], cfg)
        assert rows[0].max_bending_angle == rows[1].max_bending_angle

    def test_monotone_in_current(self, system):
        cfg = quick_config(duration=1.2)
        rows = sweep(system, [4.0, 6.0, 8.0], cfg)
        angles = [row.max_bending_angle for row in rows]
        assert angles[0] < angles[1] < angles[2]

    def test_row_failures_do_not_stop_the_sweep(self, system):
        cfg = quick_config(duration=0.4, max_temperature_step=1e-6)
        rows = sweep(system, [0.0, 8.0], cfg)
        assert rows[0].error is None
        assert rows[1].error is not None and rows[1].max_bending_angle is None

    def test_rejects_empty_currents(self, system):
        with pytest.raises(ValueError):
            sweep(system, [], quick_config())

    @pytest.mark.parametrize("unit_index", [0, 4])
    def test_unit_the_system_lacks_is_rejected(self, system, unit_index):
        # a row on a missing unit would run with no current at all
        with pytest.raises(ValueError, match=f"unit {unit_index}, which the system"):
            sweep(system, [8.0], quick_config(dt=2e-3), unit_index=unit_index)

    def test_each_row_runs_the_whole_duration(self, system, monkeypatch):
        traces = []

        def recording_simulate(*args, **kwargs):
            traces.append(simulate(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(engine, "simulate", recording_simulate)
        cfg = quick_config(dt=2e-3, duration=0.3)
        rows = sweep(system, [4.0, 8.0], cfg)
        assert len(traces) == len(rows) == 2
        # a row records its peak alone; its len() is its row count
        assert [len(record) for record in traces] == [round(cfg.duration / cfg.dt)] * 2

    def test_rows_keep_their_own_jacobian(self):
        # each run hands its pose solves' Jacobian on within the run only,
        # so a row's peak does not depend on the rows before it
        scenario = load_default_scenario()
        system, cfg = scenario.build_system(), scenario.build_config(dt=2e-3, duration=1.0)
        both = sweep(system, [8.0, 4.0], cfg)
        alone = sweep(system, [4.0], cfg) + sweep(system, [8.0], cfg)
        assert [row.max_bending_angle for row in both] == [
            alone[1].max_bending_angle, alone[0].max_bending_angle
        ]


class TestSystemValidation:
    def test_head_mass_non_negative(self, system):
        with pytest.raises(ValueError):
            replace(system, head_mass=-0.1)

    @pytest.mark.parametrize(
        "part, change",
        [
            # simulate ended in a bare ZeroDivisionError at the first step
            ("material", {"poisson": -1.0}),
            # and here in a bare OverflowError: the coil's cube overflows
            ("spring_geometry", {"coil_diameter": 1e200}),
        ],
        ids=["poisson_minus_one", "huge_coil"],
    )
    def test_library_built_system_meets_the_spring_constant_checks(self, part, change):
        bundled = load_default_scenario().build_system()
        message = (
            "spring: force-law stiffness at martensite fraction 0 (wire_diameter, "
            "coil_diameter, active_coils, material moduli) is inf N/m"
        )
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            replace(bundled, **{part: replace(getattr(bundled, part), **change)})

    def test_coincident_rest_attachments_are_rejected(self):
        # only Scenario.build_system checked it; a library-built system
        # reached simulate
        bundled = load_default_scenario().build_system()
        unit = bundled.units[0]
        hx, hy, hz = unit.head_attachment_local
        on_anchor = replace(
            unit, base_attachment=(hx, hy, hz + bundled.backbone.length)
        )
        with pytest.raises(
            ValueError, match="^unit 1: head and base attachments coincide at rest$"
        ):
            replace(bundled, units=(on_anchor, *bundled.units[1:]))

    @pytest.mark.parametrize(
        "part, name, message",
        [
            # NaN and inf: a bare ZeroDivisionError inside simulate
            ("backbone", "length", "length must be positive"),
            # NaN and inf: NoConvergence at residual nan at step 0
            ("backbone", "bending_stiffness_y", "bending_stiffness_y must be positive"),
            ("backbone", "torsional_stiffness", "torsional_stiffness must be positive"),
            # NaN and inf: NoConvergence at step 2
            ("unit", "tendon_stiffness", "tendon_stiffness must be positive"),
            # NaN ran to the end with gravity off, since nan > 0.0 is false;
            # inf with gravity on: NoConvergence at residual nan at step 0
            (None, "head_mass", "head_mass must be non-negative"),
        ],
    )
    def test_nan_field_is_rejected(self, part, name, message):
        bundled = load_default_scenario().build_system()
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{message}$"):
                if part is None:
                    replace(bundled, **{name: value})
                elif part == "unit":
                    replace(bundled.units[0], **{name: value})
                else:
                    replace(getattr(bundled, part), **{name: value})

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The calibration run
(criterion 7) dominates the runtime at a few minutes; everything else is
seconds.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from sma_neck import (
    ArcPose,
    CurrentProfile,
    SimConfig,
    arc_frame,
    arc_position,
    calibrate,
    forward_fraction,
    reverse_fraction,
    simulate,
    solve_pose,
    sweep,
    write_trace,
)
from sma_neck.calibrate import apply_parameters
from sma_neck.scenario import load_default_scenario
from sma_neck.sma import SpringConstants, SpringState, step_spring
from reference_model import phase_resistance

TABLE_CURRENTS = (4.0, 5.0, 6.0, 7.0, 8.0)
TABLE_ANGLES_DEG = (4.73, 5.89, 11.34, 24.92, 32.41)


@pytest.fixture(scope="module")
def scenario():
    return load_default_scenario()


@pytest.fixture(scope="module")
def system(scenario):
    return scenario.build_system()


@pytest.fixture(scope="module")
def calibration_result(scenario):
    started = time.perf_counter()
    result = calibrate(scenario, scenario.calibration)
    return result, time.perf_counter() - started


def report(number, failures, elapsed, budget, detail=""):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {number}] {status} ({elapsed:.1f} s / budget {budget:.0f} s) {detail}")
    assert not failures, "; ".join(failures)
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def hold_profile(unit_index, amps, hold=5.0):
    return SimConfig(
        dt=1e-3,
        duration=hold,
        current_profile=CurrentProfile.constant(unit_index, amps, hold),
    )


def test_criterion_1_phase_kinetics_endpoints(scenario):
    started = time.perf_counter()
    material = scenario.material
    failures = []
    tol = 1e-9
    for sigma in (0.0, 150e6):
        shift_r = sigma / material.stress_influence_reverse
        shift_f = sigma / material.stress_influence_forward
        for latch in (1.0, 0.63):
            start = material.austenite_start + shift_r
            finish = material.austenite_finish + shift_r
            if abs(reverse_fraction(material, start, sigma, latch) - latch) > tol:
                failures.append("reverse entry edge")
            if abs(reverse_fraction(material, finish, sigma, latch)) > tol:
                failures.append("reverse exit edge")
            for edge, expected in ((start, latch), (finish, 0.0)):
                for side in (edge - 1e-9, edge + 1e-9):
                    if abs(reverse_fraction(material, side, sigma, latch) - expected) > 1e-7:
                        failures.append("reverse edge continuity")
            grid = np.linspace(start - 5.0, finish + 5.0, 1000)
            values = [reverse_fraction(material, t, sigma, latch) for t in grid]
            if any(b > a + tol for a, b in zip(values, values[1:])):
                failures.append("reverse monotonicity")

            m_start = material.martensite_start + shift_f
            m_finish = material.martensite_finish + shift_f
            if abs(forward_fraction(material, m_finish, sigma, latch) - 1.0) > tol:
                failures.append("forward full-martensite edge")
            if abs(forward_fraction(material, m_start, sigma, latch) - latch) > tol:
                failures.append("forward entry edge")
            for edge, expected in ((m_finish, 1.0), (m_start, latch)):
                for side in (edge - 1e-9, edge + 1e-9):
                    if abs(forward_fraction(material, side, sigma, latch) - expected) > 1e-7:
                        failures.append("forward edge continuity")
            grid = np.linspace(m_finish - 5.0, m_start + 5.0, 1000)
            values = [forward_fraction(material, t, sigma, latch) for t in grid]
            if any(b > a + tol for a, b in zip(values, values[1:])):
                failures.append("forward monotonicity")
    report(1, sorted(set(failures)), time.perf_counter() - started, 1.0)


def test_criterion_2_thermal_steady_state(scenario):
    started = time.perf_counter()
    material = scenario.material
    geometry = scenario.spring
    failures = []
    details = []
    for current, h_value in ((2.0, 95.0), (2.2, 70.0), (3.0, 140.0)):
        env = replace(scenario.environment, convection_coefficient=h_value)
        resistance = phase_resistance(material, 1.0)
        t_ss = env.ambient_temperature + current**2 * resistance / (
            geometry.surface_area * h_value
        )
        tau = geometry.spring_mass * material.specific_heat / (
            geometry.surface_area * h_value
        )
        state = SpringState(
            temperature=env.ambient_temperature,
            martensite_fraction=1.0,
            force=0.0,
        )
        constants = SpringConstants(material, geometry, env)
        dt = 2e-3
        for _ in range(int(14.0 * tau / dt)):
            state = step_spring(constants, state, current, 0.0, dt)
        if state.martensite_fraction != 1.0:
            failures.append(f"kinetics not frozen at I={current}")
        error = abs(state.temperature - t_ss)
        details.append(f"I={current} h={h_value}: |dT|={error:.2e} K")
        if error > 0.1:
            failures.append(f"steady state off by {error:.3f} K at I={current}")
    report(2, failures, time.perf_counter() - started, 5.0, "; ".join(details))


def test_criterion_3_kinematics(scenario):
    started = time.perf_counter()
    backbone = scenario.backbone
    length = backbone.length
    failures = []
    rng = random.Random(2024)

    worst_ortho = 0.0
    worst_circle = 0.0
    for _ in range(1000):
        pose = ArcPose(
            rng.uniform(0.0, math.pi / length),
            rng.uniform(0.0, 2 * math.pi),
            rng.uniform(-0.5, 0.5),
        )
        s = rng.uniform(0.0, length)
        rot = np.array(arc_frame(pose, backbone, s))[:3, :3]
        worst_ortho = max(worst_ortho, np.max(np.abs(rot.T @ rot - np.eye(3))))
        if pose.curvature * s > 1e-4:
            p = arc_position(pose, backbone, s)
            center = np.array(
                [
                    math.cos(pose.bending_plane_angle) / pose.curvature,
                    math.sin(pose.bending_plane_angle) / pose.curvature,
                    0.0,
                ]
            )
            radius = 1.0 / pose.curvature
            worst_circle = max(
                worst_circle, abs(np.linalg.norm(p - center) - radius) / radius
            )
    if worst_ortho > 1e-12:
        failures.append(f"orthonormality {worst_ortho:.2e}")
    if worst_circle > 1e-9:
        failures.append(f"circle membership {worst_circle:.2e}")

    for theta in (0.5, math.pi):
        pose = ArcPose(theta / length, 1.0, 0.0)
        samples = np.linspace(0.0, length, 10_001)
        points = np.array([arc_position(pose, backbone, s) for s in samples])
        poly = float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))
        if abs(poly - length) > 1e-6 * length:
            failures.append(f"arc length at theta={theta:.2f}")

    kappa_edge = 1e-7 / length
    for s in (0.3 * length, length):
        hi = np.array(arc_position(ArcPose(kappa_edge, 0.8), backbone, s))
        lo = np.array(
            arc_position(ArcPose(kappa_edge * (1 - 1e-6), 0.8), backbone, s)
        )
        if np.max(np.abs(hi - lo)) > 1e-10 * length:
            failures.append("straight-limit continuity")

    report(3, failures, time.perf_counter() - started, 1.0,
           f"ortho {worst_ortho:.1e}, circle {worst_circle:.1e}")


def test_criterion_4_equilibrium_oracle(scenario):
    started = time.perf_counter()
    failures = []
    rng = random.Random(77)
    worst = 0.0
    config = SimConfig(dt=1e-3, duration=1.0)
    for draw in range(50):
        ei = rng.uniform(0.05, 2.0)
        length = rng.uniform(0.05, 0.2)
        radius = rng.uniform(0.02, 0.06)
        candidate = replace(
            scenario,
            backbone=replace(
                scenario.backbone,
                length=length,
                bending_stiffness_y=ei,
                torsional_stiffness=ei,
            ),
            attachment_radius=radius,
            base_radius=radius,
        )
        system = candidate.build_system()
        theta_target = rng.uniform(math.radians(0.3), math.radians(2.9))
        force = theta_target * ei / (radius * length)
        pose = solve_pose(system, (force, 0.0, 0.0), ArcPose(0.0), config)
        theta = pose.curvature * length
        rel = abs(theta - theta_target) / theta_target
        worst = max(worst, rel)
        if rel > 0.05:
            failures.append(f"draw {draw}: {rel:.3f}")
    report(4, failures, time.perf_counter() - started, 30.0, f"worst rel err {worst:.4f}")


def test_criterion_5_azimuth_lock(scenario, system):
    started = time.perf_counter()
    failures = []
    worst = 0.0
    for unit_index, azimuth in enumerate(scenario.azimuths, start=1):
        trace = simulate(system, hold_profile(unit_index, 5.0))
        for theta, phi, defined in zip(trace.theta, trace.phi, trace.phi_defined):
            if theta > math.radians(0.1):
                if not defined:
                    failures.append(f"unit {unit_index}: phi undefined while bent")
                    break
                delta = (phi - azimuth + math.pi) % (2 * math.pi) - math.pi
                worst = max(worst, abs(delta))
                if abs(delta) > 1e-6:
                    failures.append(f"unit {unit_index}: |dphi|={abs(delta):.2e}")
                    break
    report(5, failures, time.perf_counter() - started, 30.0, f"worst |dphi| {worst:.2e} rad")


def test_criterion_6_transient_shape(scenario, system):
    started = time.perf_counter()
    failures = []
    trace = simulate(system, hold_profile(1, 5.0))
    fractions = list(trace.spring_fractions[0])
    temperatures = list(trace.spring_temperatures[0])

    if "crossing_t_s" not in trace.markers:
        failures.append("band edge never crossed at 5 A")
        report(6, failures, time.perf_counter() - started, 30.0)
        return
    crossing_t = trace.markers["crossing_t_s"]
    i_cross = trace.t.index(crossing_t)

    if any(f != 1.0 for f in fractions[:i_cross]):
        failures.append("fraction moved before the band edge crossing")
    if temperatures[i_cross] < trace.markers["as_prime_K"] - 0.2:
        failures.append("crossing recorded below the shifted band edge")
    after = fractions[i_cross:]
    if not all(b < a for a, b in zip(after, after[1:])):
        failures.append("fraction not strictly decreasing after crossing")

    steps_per_second = int(round(1.0 / 1e-3))
    i_pre = i_cross - steps_per_second
    i_post = i_cross + steps_per_second
    if i_pre < 0 or i_post >= len(trace):
        failures.append(
            f"crossing at {crossing_t:.2f} s leaves no room for the window comparison"
        )
    else:
        d_pre = trace.theta[i_cross] - trace.theta[i_pre]
        d_post = trace.theta[i_post] - trace.theta[i_cross]
        if not d_post > d_pre:
            failures.append(f"no post-crossing acceleration ({d_post:.4f} <= {d_pre:.4f})")
    report(
        6,
        failures,
        time.perf_counter() - started,
        30.0,
        f"crossing at {crossing_t:.2f} s, xi(5 s)={fractions[-1]:.3f}",
    )


def test_criterion_7_table_reproduction(scenario, calibration_result):
    started = time.perf_counter()
    result, calibration_elapsed = calibration_result
    failures = []
    if calibration_elapsed > 600.0:
        failures.append(f"calibration took {calibration_elapsed:.0f} s (> 10 min)")
    fitted = apply_parameters(scenario, result.parameters)
    system = fitted.build_system()
    config = SimConfig(dt=scenario.simulation.dt, duration=5.0)
    rows = sweep(system, TABLE_CURRENTS, config)
    achieved = []
    for row, target_deg in zip(rows, TABLE_ANGLES_DEG):
        if row.max_bending_angle is None:
            failures.append(f"run at {row.current} A failed: {row.error}")
            continue
        got = math.degrees(row.max_bending_angle)
        achieved.append(got)
        rel = abs(got - target_deg) / target_deg
        if rel > 0.20:
            failures.append(f"I={row.current}: {got:.2f} vs {target_deg} ({rel:.1%})")
    if len(achieved) == len(TABLE_ANGLES_DEG):
        if not all(b > a for a, b in zip(achieved, achieved[1:])):
            failures.append("bending angle not strictly monotone in current")
    detail = (
        f"calibration {calibration_elapsed:.0f} s, achieved deg: "
        + ", ".join(f"{v:.2f}" for v in achieved)
    )
    # budget: < 10 min for the calibration itself, < 1 min for this sweep
    report(7, failures, time.perf_counter() - started, 60.0, detail)


def test_criterion_8_determinism_and_convergence(scenario, system, tmp_path):
    started = time.perf_counter()
    failures = []

    config = scenario.build_config()
    trace_a = simulate(system, config)
    trace_b = simulate(system, config)
    path_a = write_trace(trace_a, tmp_path / "a.csv")
    path_b = write_trace(trace_b, tmp_path / "b.csv")
    if path_a.read_bytes() != path_b.read_bytes():
        failures.append("repeated runs are not byte-identical")

    worst = 0.0
    for amps, coarse_row, fine_row in zip(
        TABLE_CURRENTS,
        sweep(system, TABLE_CURRENTS, SimConfig(dt=1e-3, duration=5.0)),
        sweep(system, TABLE_CURRENTS, SimConfig(dt=0.5e-3, duration=5.0)),
    ):
        coarse = coarse_row.max_bending_angle
        fine = fine_row.max_bending_angle
        rel = abs(fine - coarse) / fine
        worst = max(worst, rel)
        if rel > 0.005:
            failures.append(f"dt halving moved theta at {amps} A by {rel:.2%}")
    report(8, failures, time.perf_counter() - started, 300.0, f"worst dt shift {worst:.2%}")


def test_criterion_9_range_of_motion(scenario, calibration_result):
    started = time.perf_counter()
    result, _ = calibration_result
    failures = []
    fitted = apply_parameters(scenario, result.parameters)
    system = fitted.build_system()
    trace = simulate(system, hold_profile(1, 8.0))
    peak = math.degrees(trace.max_bending_angle())
    if peak < 30.0:
        failures.append(f"calibrated 8 A run peaks at {peak:.2f} deg < 30 deg")
    report(9, failures, time.perf_counter() - started, 120.0, f"peak {peak:.2f} deg")

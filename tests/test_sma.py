import math
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from sma_neck import (
    Branch,
    SpringState,
    StepTooLarge,
    forward_fraction,
    reverse_fraction,
    shear_stress,
    step_spring,
)
from sma_neck import sma
from sma_neck.sma import SmaMaterial

from conftest import make_spring
from reference_model import (
    effective_modulus,
    force_coefficients,
    heating_rate,
    phase_resistance,
)


class TestEffectiveModulus:
    def test_pure_martensite(self, material):
        young, _ = effective_modulus(material, 1.0)
        assert young == material.young_martensite

    def test_pure_austenite(self, material):
        young, _ = effective_modulus(material, 0.0)
        assert young == material.young_austenite

    def test_midpoint_is_arithmetic_mean(self, material):
        # oracle: direct evaluation of the mixture rule at 0.5
        young, shear = effective_modulus(material, 0.5)
        assert young == pytest.approx(51.5e9, rel=1e-12)
        assert shear == pytest.approx(young / (2 * 1.33), rel=1e-12)

    def test_rejects_out_of_range(self, material):
        with pytest.raises(ValueError):
            effective_modulus(material, -0.01)
        with pytest.raises(ValueError):
            effective_modulus(material, 1.01)


class TestShearStress:
    def test_unloaded(self, geometry):
        assert shear_stress(geometry, 0.0) == 0.0

    def test_frozen_value(self, geometry):
        # hand arithmetic: 8 * 10 N * 6 mm / (pi * (0.5 mm)^3)
        from dataclasses import replace

        g = replace(geometry, wire_diameter=0.5e-3, coil_diameter=6e-3)
        assert shear_stress(g, 10.0) == pytest.approx(1.2223e9, rel=1e-4)

    def test_linearity(self, geometry):
        assert shear_stress(geometry, 8.0) == pytest.approx(
            2 * shear_stress(geometry, 4.0), rel=1e-12
        )

    def test_rejects_negative_force(self, geometry):
        with pytest.raises(ValueError):
            shear_stress(geometry, -1.0)


class TestReverseFraction:
    def test_band_entry_edge(self, material):
        sigma = 50e6
        start = material.austenite_start + sigma / material.stress_influence_reverse
        assert reverse_fraction(material, start, sigma, 0.8) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_band_exit_edge(self, material):
        sigma = 50e6
        finish = material.austenite_finish + sigma / material.stress_influence_reverse
        assert reverse_fraction(material, finish, sigma, 0.8) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_midpoint(self, material):
        mid = 0.5 * (material.austenite_start + material.austenite_finish)
        assert reverse_fraction(material, mid, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_continuity_at_edges(self, material):
        sigma = 120e6
        shift = sigma / material.stress_influence_reverse
        for edge, expected in [
            (material.austenite_start + shift, 0.7),
            (material.austenite_finish + shift, 0.0),
        ]:
            below = reverse_fraction(material, edge - 1e-7, sigma, 0.7)
            above = reverse_fraction(material, edge + 1e-7, sigma, 0.7)
            assert below == pytest.approx(expected, abs=1e-7)
            assert above == pytest.approx(expected, abs=1e-7)

    def test_monotone_in_temperature(self, material):
        temps = [280.0 + 0.1 * i for i in range(1000)]
        values = [reverse_fraction(material, t, 30e6, 1.0) for t in temps]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_stress_shift_is_exact(self, material):
        # raising sigma shifts both band edges by sigma/C_a exactly
        sigma = 200e6
        shift = sigma / material.stress_influence_reverse
        for t in (330.0, 340.0, 350.0, 358.0):
            assert reverse_fraction(material, t + shift, sigma, 1.0) == pytest.approx(
                reverse_fraction(material, t, 0.0, 1.0), abs=1e-12
            )


class TestForwardFraction:
    def test_full_martensite_edge(self, material):
        sigma = 40e6
        finish = material.martensite_finish + sigma / material.stress_influence_forward
        assert forward_fraction(material, finish, sigma, 0.2) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_not_yet_started_edge(self, material):
        sigma = 40e6
        start = material.martensite_start + sigma / material.stress_influence_forward
        assert forward_fraction(material, start, sigma, 0.2) == pytest.approx(
            0.2, abs=1e-12
        )

    def test_midpoint(self, material):
        mid = 0.5 * (material.martensite_start + material.martensite_finish)
        assert forward_fraction(material, mid, 0.0, 0.0) == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_temperature(self, material):
        temps = [270.0 + 0.05 * i for i in range(1000)]
        values = [forward_fraction(material, t, 20e6, 0.1) for t in temps]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_stress_shift_is_exact(self, material):
        sigma = 150e6
        shift = sigma / material.stress_influence_forward
        for t in (299.0, 302.0, 305.0):
            assert forward_fraction(material, t + shift, sigma, 0.0) == pytest.approx(
                forward_fraction(material, t, 0.0, 0.0), abs=1e-12
            )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    temperature=st.floats(250.0, 500.0),
    sigma=st.floats(0.0, 1e9),
    latch=st.floats(0.0, 1.0),
)
def test_fraction_bounds_property(temperature, sigma, latch):
    material = SmaMaterial(
        young_martensite=28e9,
        young_austenite=75e9,
        poisson=0.33,
        phase_transform_tensor=-0.55e9,
        thermal_expansion_factor=3e6,
        austenite_start=329.15,
        austenite_finish=359.15,
        martensite_start=308.15,
        martensite_finish=298.15,
        stress_influence_reverse=11e6,
        stress_influence_forward=11e6,
        resistance_martensite=0.6,
        resistance_austenite=0.75,
        specific_heat=460.0,
        latent_heat=21e3,
    )
    rev = reverse_fraction(material, temperature, sigma, latch)
    fwd = forward_fraction(material, temperature, sigma, latch)
    assert 0.0 <= rev <= latch
    assert latch <= fwd <= 1.0


class TestHeatingRate:
    def test_thermal_equilibrium(self, material, geometry, env):
        state = make_spring(temperature=env.ambient_temperature, force=0.0)
        assert (
            heating_rate(
                material, geometry, env, state.temperature, state.martensite_fraction, 0.0
            )
            == 0.0
        )

    def test_pure_convective_cooling(self, material, geometry, env):
        state = make_spring(temperature=env.ambient_temperature + 40.0, force=0.0)
        assert (
            heating_rate(
                material, geometry, env, state.temperature, state.martensite_fraction, 0.0
            )
            < 0.0
        )

    def test_latent_term_sign(self, material, geometry, env):
        state = make_spring(temperature=env.ambient_temperature, force=0.0)
        # fraction falling while heating absorbs heat
        t, xi = state.temperature, state.martensite_fraction
        assert heating_rate(material, geometry, env, t, xi, 3.0, -0.1) < heating_rate(
            material, geometry, env, t, xi, 3.0, 0.0
        )

    def test_matches_finite_difference_of_trajectory(
        self, constants, material, geometry, env
    ):
        # Richardson check: (T(t+h) - T(t))/h converges to the reported rate
        # with observed order >= 1 as h shrinks
        state = make_spring(temperature=env.ambient_temperature + 5.0, force=0.0)
        current = 2.5
        rate = heating_rate(
            material, geometry, env, state.temperature, state.martensite_fraction, current
        )
        errors = []
        for h in (2e-3, 1e-3):
            stepped = step_spring(constants, state, current, 0.0, h)
            fd = (stepped.temperature - state.temperature) / h
            errors.append(abs(fd - rate))
        assert errors[1] < errors[0]
        order = math.log2(errors[0] / errors[1])
        assert order >= 0.99

    def test_integrated_steady_state_matches_analytic(
        self, constants, material, geometry, env
    ):
        # oracle: set the rate to zero and solve for temperature
        current = 2.0
        resistance = phase_resistance(material, 1.0)
        t_ss = env.ambient_temperature + current**2 * resistance / (
            geometry.surface_area * env.convection_coefficient
        )
        state = make_spring(temperature=env.ambient_temperature, force=0.0)
        for _ in range(90_000):
            state = step_spring(constants, state, current, 0.0, 1e-3)
        assert state.temperature == pytest.approx(t_ss, abs=0.05)
        assert state.martensite_fraction == 1.0


class TestEnergyBalance:
    def test_reverse_transformation_conserves_energy(
        self, constants, material, geometry, env
    ):
        # oracle: over a full heating run the stored heat (sensible plus the
        # latent heat of the fraction that transformed) equals the
        # trapezoid integral of Joule input minus convective loss
        current, dt = 7.0, 1e-3

        def powers(state):
            joule = current * current * phase_resistance(material, state.martensite_fraction)
            loss = geometry.surface_area * env.convection_coefficient * (
                state.temperature - env.ambient_temperature
            )
            return joule, joule - loss

        start = state = make_spring(temperature=env.ambient_temperature, force=2.0)
        joule_in = net_in = 0.0
        for _ in range(14000):
            stepped = step_spring(constants, state, current, 0.0, dt)
            (j0, n0), (j1, n1) = powers(state), powers(stepped)
            joule_in += 0.5 * dt * (j0 + j1)
            net_in += 0.5 * dt * (n0 + n1)
            state = stepped
        assert state.martensite_fraction == 0.0
        mass = geometry.spring_mass
        stored = mass * material.specific_heat * (
            state.temperature - start.temperature
        ) + mass * material.latent_heat * (
            start.martensite_fraction - state.martensite_fraction
        )
        assert abs(stored - net_in) <= 1e-3 * joule_in


class TestForceRate:
    def test_transformation_raises_force(self, material, geometry):
        # fraction falling with a negative transformation tensor pulls harder
        assert force_coefficients(material, geometry, 1.0)[1] < 0.0

    def test_stiffness_coefficient_frozen_value(self, material, geometry):
        # hand arithmetic with G = 25 GPa, d = 0.5 mm, D = 6 mm, n = 20
        from dataclasses import replace

        mat = replace(material, young_martensite=66.5e9)
        geo = replace(geometry, wire_diameter=0.5e-3, coil_diameter=6e-3)
        stiffness, _, _ = force_coefficients(mat, geo, 1.0)
        assert stiffness == pytest.approx(45.21, rel=1e-3)


class TestStepSpring:
    def test_branch_constants_are_the_members(self):
        # the kernel tests and sets branches through these globals; a copy
        # or a plain string would break the identity tests of the callers
        assert sma._IDLE is Branch.IDLE
        assert sma._REVERSE is Branch.REVERSE
        assert sma._FORWARD is Branch.FORWARD

    def test_fixed_point(self, constants, env):
        state = make_spring(temperature=env.ambient_temperature, force=0.0)
        out = step_spring(constants, state, 0.0, 0.0, 1e-3)
        assert out.temperature == state.temperature
        assert out.martensite_fraction == state.martensite_fraction
        assert out.force == state.force

    def test_fraction_falls_only_after_band_entry(
        self, constants, material, geometry, env
    ):
        # hold a constant current; the fraction must stay put until the
        # stress-shifted band edge is crossed, then fall
        state = make_spring(temperature=env.ambient_temperature, force=2.0)
        crossed_at = None
        for i in range(6000):
            state = step_spring(constants, state, 5.0, 0.0, 1e-3)
            sigma = shear_stress(geometry, state.force)
            edge = material.austenite_start + sigma / material.stress_influence_reverse
            if state.martensite_fraction < 1.0 and crossed_at is None:
                crossed_at = i
                assert state.temperature > edge - 0.1
        assert crossed_at is not None
        assert state.martensite_fraction < 1.0

    def test_step_too_large(self, constants, env):
        state = make_spring(temperature=env.ambient_temperature, force=0.0)
        with pytest.raises(StepTooLarge):
            step_spring(constants, state, 8.0, 0.0, 0.5)

    def test_overflowing_step_is_too_large(self, constants, env):
        # I^2 overflows to inf and the RK4 stages to NaN; NaN must not pass
        # the temperature guard
        state = make_spring(temperature=env.ambient_temperature, force=0.0)
        with pytest.raises(StepTooLarge):
            step_spring(constants, state, 1e155, 0.0, 1e-3)

    def test_force_floors_at_zero(self, constants, env):
        state = make_spring(temperature=env.ambient_temperature, force=0.05)
        # rapid shortening would drive the force negative; it must clamp
        out = step_spring(constants, state, 0.0, -0.5, 1e-3)
        assert out.force == 0.0

    def test_fraction_bounds_under_random_currents(self, constants, env):
        # invariant: fraction stays in [0, 1] for any admissible input sequence
        rng = random.Random(20240811)
        state = make_spring(temperature=env.ambient_temperature, force=2.0)
        current = 0.0
        for i in range(100_000):
            if i % 200 == 0:
                current = rng.uniform(0.0, 8.0)
            stretch_rate = 2e-4 * math.sin(2e-3 * i)
            state = step_spring(constants, state, current, stretch_rate, 1e-3)
            assert 0.0 <= state.martensite_fraction <= 1.0
            assert state.force >= 0.0

    def test_hysteresis_loop(self, constants, env):
        # heat through the austenite band, cool back through the martensite
        # band: fraction returns to 1 and the (T, xi) loop has nonzero area
        state = make_spring(temperature=env.ambient_temperature, force=2.0)
        path = []
        for _ in range(14000):
            state = step_spring(constants, state, 7.0, 0.0, 1e-3)
            path.append((state.temperature, state.martensite_fraction))
        assert state.martensite_fraction < 0.05
        for _ in range(120_000):
            state = step_spring(constants, state, 0.0, 0.0, 1e-3)
            path.append((state.temperature, state.martensite_fraction))
        assert state.martensite_fraction == pytest.approx(1.0, abs=1e-9)
        area = 0.0
        for (t0, x0), (t1, x1) in zip(path, path[1:]):
            area += 0.5 * (x0 + x1) * (t1 - t0)
        assert abs(area) > 1.0  # kelvin * fraction units

    def test_branch_bookkeeping(self, constants, env):
        state = make_spring(temperature=env.ambient_temperature, force=2.0)
        assert state.branch is Branch.IDLE
        for _ in range(5000):
            state = step_spring(constants, state, 6.0, 0.0, 1e-3)
        assert state.branch is Branch.REVERSE
        assert state.fraction_at_branch_start == 1.0


def _bisection_root(fn, lo, hi, f_lo, f_hi):
    """Oracle: the sign change of a decreasing ``fn`` on [lo, hi], halved
    until the bracket holds two adjacent floats."""
    if f_lo <= 0.0:
        return lo
    if f_hi >= 0.0:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    branch=st.sampled_from([Branch.REVERSE, Branch.FORWARD]),
    band_position=st.floats(0.0, 1.0),
    latch=st.floats(0.05, 1.0),
    force=st.floats(0.0, 8.0),
    drive=st.floats(0.0, 1.0),
    stretch_rate=st.floats(-2e-3, 2e-3),
)
def test_phase_root_matches_bisection_oracle(
    constants, material, geometry, branch, band_position, latch, force, drive, stretch_rate
):
    # A state on its branch's cosine arc, inside the stress-shifted band:
    # 6-12 A heats a reverse state, 0-1 A lets a forward state cool.
    stress = shear_stress(geometry, force)
    if branch is Branch.REVERSE:
        start, finish = sma._reverse_band(material, stress)
        temperature = start + band_position * (finish - start)
        fraction = reverse_fraction(material, temperature, stress, latch)
        latches = dict(fraction_at_branch_start=latch)
        current = 6.0 + 6.0 * drive
    else:
        latch = 1.0 - latch
        start, finish = sma._forward_band(material, stress)
        temperature = finish + band_position * (start - finish)
        fraction = forward_fraction(material, temperature, stress, latch)
        latches = dict(fraction_at_branch_start=latch)
        current = drive
    state = SpringState(
        temperature=temperature,
        martensite_fraction=fraction,
        force=force,
        branch=branch,
        **latches,
    )
    solves = []
    closure_root = sma._closure_root

    def recorded(residual, far):
        root = closure_root(residual, far)
        solves.append((residual, far, root))
        return root

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sma, "_closure_root", recorded)
        step_spring(constants, state, current, stretch_rate, 1e-3)
    # a branch left or not entered needs no root
    assume(solves)
    (residual, far, root), = solves

    def fn(d_xi):
        return residual(d_xi)[0]

    lo, hi = sorted((0.0, far))
    assert abs(root - _bisection_root(fn, lo, hi, fn(lo), fn(hi))) <= 1e-13
    if root not in (lo, hi):
        step = 1e-14
        assert fn(root) == 0.0 or fn(root - step) > 0.0 > fn(root + step)


@pytest.mark.parametrize("far", [-0.3, 0.3])
def test_closure_root_returns_a_completed_end_exactly(far):
    """A residual that reaches 0 exactly at the completed transformation's
    end, with a slope 1.5 times too steep: each Newton step covers two
    thirds of the distance left, so the steps end within the tolerance of
    the end without leaving the bracket.  The end is returned exactly, not
    a float beside it, so the fraction lands on exactly 0 or 1."""
    calls = []

    def residual(d_xi):
        calls.append(d_xi)
        return far - d_xi, -1.5

    assert sma._closure_root(residual, far) == far
    assert calls[0] == 0.0 and far in calls


class TestInvariantValidation:
    def test_material_ordering(self, material):
        with pytest.raises(ValueError):
            replace(material, austenite_finish=material.austenite_start - 1.0)
        with pytest.raises(ValueError):
            replace(material, young_martensite=80e9)

    def test_spring_state_bounds(self):
        with pytest.raises(ValueError):
            SpringState(temperature=300.0, martensite_fraction=1.2, force=0.0)
        with pytest.raises(ValueError):
            SpringState(temperature=300.0, martensite_fraction=0.5, force=-1.0)
        with pytest.raises(ValueError):
            SpringState(temperature=-5.0, martensite_fraction=0.5, force=0.0)

    def test_spring_state_rejects_nan(self):
        # a NaN compares false both ways, so the checks are written to fail
        # on it: such a state would step with a NaN shear stress
        with pytest.raises(ValueError, match="force must be non-negative"):
            SpringState(300.0, 1.0, math.nan)
        with pytest.raises(ValueError, match="temperature must be positive"):
            SpringState(math.nan, 1.0, 0.0)

    def test_spring_state_rejects_infinite_force(self):
        with pytest.raises(ValueError, match="force must be non-negative"):
            SpringState(300.0, 1.0, math.inf)

    def test_spring_state_rejects_infinite_temperature(self):
        # it constructed, and the run ended in StepTooLarge at step 1
        with pytest.raises(ValueError, match=r"^temperature must be finite$"):
            SpringState(math.inf, 1.0, 0.0)
        with pytest.raises(ValueError, match=r"^temperature must be positive \(kelvin\)$"):
            SpringState(-math.inf, 1.0, 0.0)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("stress_influence_reverse", "stress influence coefficients must be positive"),
            ("stress_influence_forward", "stress influence coefficients must be positive"),
            ("resistance_martensite", "resistances must be positive"),
            ("resistance_austenite", "resistances must be positive"),
            ("specific_heat", "specific_heat must be positive"),
            ("latent_heat", "latent_heat must be non-negative"),
        ],
    )
    def test_material_rejects_nan(self, material, name, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(material, **{name: math.nan})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["poisson", "phase_transform_tensor", "thermal_expansion_factor"]
    )
    def test_material_rejects_non_finite_force_law_constants(self, material, name, value):
        # each constructed, and NeckSystem then refused it without naming the
        # field ("force-law ... at martensite fraction 0")
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            replace(material, **{name: value})

    @pytest.mark.parametrize(
        "name", ["resistance_martensite", "resistance_austenite", "latent_heat"]
    )
    def test_material_rejects_an_infinite_heat_balance_constant(self, material, name):
        # each constructed, and every run ended at step 1 in StepTooLarge
        # ("heat balance overflowed")
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            replace(material, **{name: math.inf})

    @pytest.mark.parametrize(
        "name, value",
        [("austenite_finish", math.inf), ("martensite_finish", -math.inf)],
    )
    def test_material_rejects_an_infinite_band_end(self, material, name, value):
        # the ordering holds, so each constructed and the bundled run exited
        # 0; with austenite_finish=inf no fraction left 1
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            replace(material, **{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            (name, value)
            for name in (
                "martensite_finish", "martensite_start", "austenite_start",
                "austenite_finish",
            )
            for value in (math.nan, math.inf, -math.inf)
            if (name, value)
            not in (("martensite_finish", -math.inf), ("austenite_finish", math.inf))
        ],
    )
    def test_material_band_keeps_its_ordering_message(self, material, name, value):
        """A non-finite transformation temperature that breaks the ordering
        fails with the ordering's message, as before."""
        with pytest.raises(ValueError, match="^transformation temperatures must satisfy "):
            replace(material, **{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name, message",
        [
            # NaN failed the first step with "force must be non-negative
            # (tendon cannot push)"; an infinite coil_diameter stepped
            ("wire_diameter", "wire_diameter must be positive"),
            ("coil_diameter", "coil_diameter must exceed wire_diameter"),
            ("active_coils", "active_coils must be at least 1"),
            # NaN and inf: "heat balance overflowed"
            ("spring_mass", "spring_mass and surface_area must be positive"),
            ("surface_area", "spring_mass and surface_area must be positive"),
        ],
    )
    def test_geometry_rejects_nan_and_inf(self, geometry, name, message, value):
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(geometry, **{name: value})

    @pytest.mark.parametrize(
        "name, message",
        [
            ("ambient_temperature", r"ambient_temperature must be positive \(kelvin\)"),
            ("convection_coefficient", "convection_coefficient must be positive"),
        ],
    )
    def test_environment_rejects_nan(self, env, name, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(env, **{name: math.nan})

    @pytest.mark.parametrize("name", ["ambient_temperature", "convection_coefficient"])
    def test_environment_rejects_inf(self, env, name):
        # an infinite ambient ended a run at step 1 in StepTooLarge; an
        # infinite coefficient was refused only as an infinite conductance
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            replace(env, **{name: math.inf})

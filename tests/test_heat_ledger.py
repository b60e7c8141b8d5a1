"""Heat ledger of a run: a physics oracle for the spring step.

Each spring's heat balance is m c dT/dt = I^2 R(xi) - h A (T - T_amb)
+ m L dxi/dt.  Integrated over a run, the Joule energy in, minus the energy
convected away, plus the latent energy of the transformation, minus the
sensible energy stored, is zero.  A run's trace gives each term: the Joule
and convected energies by the trapezoid rule over the rows, with the current
held over each step at its value at the step's start as ``simulate`` holds
it; the latent and sensible energies from the end states alone.  What is
left, the gap, is the step's error in energy, and it falls with dt in
proportion to the order of the coupled step.
"""

from typing import NamedTuple

import pytest

from sma_neck.engine import simulate
from sma_neck.scenario import default_scenario_text, load_with_overrides
from sma_neck.sma import SpringConstants


class Ledger(NamedTuple):
    """One spring's energies over a run (J)."""

    joule: float
    convected: float
    latent: float
    sensible: float

    @property
    def gap(self) -> float:
        return self.joule - self.convected + self.latent - self.sensible


def heat_ledger(trace, profile, constants: SpringConstants, springs, indices):
    """The ``Ledger`` of each unit's spring, in the trace's unit order.

    ``springs`` are the states the run started from and ``indices`` the
    units' profile indices; row k of the trace is the state at (k + 1) dt."""
    m = constants.material
    mass = constants.geometry.spring_mass
    ambient = constants.env.ambient_temperature
    times = [0.0, *trace.t]
    ledgers = []
    for unit, (spring, index) in enumerate(zip(springs, indices)):
        temperatures = [spring.temperature, *trace.spring_temperatures[unit]]
        fractions = [spring.martensite_fraction, *trace.spring_fractions[unit]]
        resistances = [
            m.resistance_martensite * xi + m.resistance_austenite * (1.0 - xi)
            for xi in fractions
        ]
        joule = convected = 0.0
        for k in range(len(times) - 1):
            dt = times[k + 1] - times[k]
            current = profile.current(index, times[k])
            joule += dt * current * current * 0.5 * (resistances[k] + resistances[k + 1])
            convected += dt * constants.conductance * (
                0.5 * (temperatures[k] + temperatures[k + 1]) - ambient
            )
        latent = mass * m.latent_heat * (fractions[-1] - fractions[0])
        sensible = constants.heat_capacity * (temperatures[-1] - temperatures[0])
        ledgers.append(Ledger(joule, convected, latent, sensible))
    return ledgers


def _bundled_run(amps, dt):
    """The bundled scenario, 5 s of ``amps`` on unit 1 and 1 s of cooling,
    at step ``dt``: its trace, profile, spring constants, initial springs and
    unit indices."""
    scenario = load_with_overrides(
        default_scenario_text(),
        [
            f"simulation.dt={dt}",
            f"profile=[{{unit: 1, start: 0 s, end: 5 s, current: {amps} A}}]",
        ],
    )
    system, config = scenario.build_system(), scenario.build_config()
    trace = simulate(system, config)
    constants = SpringConstants(system.material, system.spring_geometry, system.env)
    units = system.units
    return (
        trace, config.current_profile, constants,
        [u.spring for u in units], [u.index for u in units],
    )


# |gap| / Joule at dt 2 ms, measured at 3.9e-6 (5 A) and 3.9e-4 (8 A), with a
# margin of 25 % for solver noise and for roots that move within tolerance
GAP_BOUNDS = {5.0: 3.9e-6 * 1.25, 8.0: 3.9e-4 * 1.25}


@pytest.mark.parametrize("amps", sorted(GAP_BOUNDS))
def test_heat_ledger_closes_at_first_order(amps):
    """The driven spring's gap halves with dt: the coupled step is first
    order in energy.  Its size at the calibration step is bounded, and the
    undriven springs, which stay at ambient, close exactly."""
    gaps = {}
    for dt in ("2 ms", "1 ms"):
        ledgers = heat_ledger(*_bundled_run(amps, dt))
        driven, *undriven = ledgers
        gaps[dt] = driven.gap
        for ledger in undriven:
            assert ledger == Ledger(0.0, 0.0, 0.0, 0.0)
        if dt == "2 ms":
            assert driven.joule > 0.0 and driven.latent < 0.0
            assert abs(driven.gap) / driven.joule <= GAP_BOUNDS[amps]
    assert 1.9 <= gaps["2 ms"] / gaps["1 ms"] <= 2.1

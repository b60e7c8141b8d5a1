"""Golden trace of the bundled scenario.

The rows at each whole second of ``simulate`` on the bundled scenario (5 A
on unit 1 for 5 s, then 1 s of cooling) are pinned in all 20 CSV columns.
Any change to the physics, the step loop or the column contract that moves
a written value shows here.  The residual column is solver noise below the
tolerance, so each pinned row is also checked against the bundled tolerance.
"""

import pytest

from sma_neck.cli import main
from sma_neck.engine import simulate
from sma_neck.scenario import load_default_scenario
from sma_neck.traceio import HEADER
from conftest import read_csv

GOLDEN_ROWS = (
    "1,0.309436338,1.04719755,1.59564566,311.373705,311.373705,298.15,298.15,"
    "298.15,298.15,1,1,1,1,1,1,6.52116974,3.86860114,3.86860114,8.55899005e-10",
    "2,0.578808005,1.04719755,2.98469302,322.858655,322.858655,298.15,298.15,"
    "298.15,298.15,1,1,1,1,1,1,8.92611771,3.96322291,3.96322291,7.94465897e-10",
    "3,0.813023187,1.04719755,4.19245175,332.833475,332.833475,298.15,298.15,"
    "298.15,298.15,1,1,1,1,1,1,11.0180949,4.04465812,4.04465812,2.29526578e-10",
    "4,1.03532724,1.04719755,5.33878932,341.065461,341.065461,298.15,298.15,"
    "298.15,298.15,0.99360813,0.99360813,1,1,1,1,13.0050626,4.12118912,"
    "4.12118912,5.94833173e-10",
    "5,1.34512324,1.04719755,6.9362896,346.070487,346.070487,298.15,298.15,"
    "298.15,298.15,0.950859675,0.950859675,1,1,1,1,15.7774437,4.22666164,"
    "4.22666164,4.0085182e-10",
    "6,1.19862442,1.04719755,6.18085085,339.769532,339.769532,298.15,298.15,"
    "298.15,298.15,0.950859675,0.950859675,1,1,1,1,14.4659967,4.17710989,"
    "4.17710989,7.64503312e-10",
)


@pytest.fixture(scope="module")
def default_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main(["simulate", "--out", str(out), "--quiet"]) == 0
    return read_csv(out / "neck_trace.csv")


@pytest.mark.parametrize("line", GOLDEN_ROWS, ids=lambda line: f"t={line.split(',')[0]}s")
def test_whole_second_rows(default_trace, line):
    want = [float(v) for v in line.split(",")]
    assert len(want) == len(HEADER) == 20
    row = round(want[0] * 1000) - 1  # dt 1 ms, first row at t = dt
    got = [default_trace[name][row] for name in HEADER]
    for name, g, w in zip(HEADER, got, want):
        assert g == pytest.approx(w, rel=1e-8), name
    assert got[-1] < load_default_scenario().simulation.solver_tolerance


def test_undriven_units_stay_cold():
    """The bundled run drives unit 1 only.  In every row units 2 and 3 stay
    at exactly the ambient temperature and fully martensite."""
    scenario = load_default_scenario()
    system = scenario.build_system()
    trace = simulate(system, scenario.build_config())
    assert len(trace.t) == 6000
    for unit in (1, 2):
        assert set(trace.spring_temperatures[unit]) == {system.env.ambient_temperature}
        assert set(trace.spring_fractions[unit]) == {1.0}

import math
import xml.etree.ElementTree as ET

import pytest

from sma_neck import CurrentProfile, SimConfig, emit_plots, simulate, write_trace
from sma_neck.engine import SimTrace
from sma_neck.plots import _ML, PANELS


def run_trace(system, amps, steps=300):
    cfg = SimConfig(
        dt=1e-3,
        duration=steps * 1e-3,
        current_profile=CurrentProfile.constant(1, amps, steps * 1e-3),
    )
    return simulate(system, cfg)


def test_five_well_formed_svg_files(system, tmp_path):
    trace = run_trace(system, 7.0)
    paths = emit_plots(trace, tmp_path, run_id="run")
    assert sorted(p.name for p in paths) == sorted(
        f"run_{panel}.svg" for panel in PANELS
    )
    for path in paths:
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")


def test_axis_labels_carry_units(system, tmp_path):
    trace = run_trace(system, 6.0)
    for path in emit_plots(trace, tmp_path):
        text = path.read_text()
        assert "[s]" in text
        assert "[deg]" in text or "[N]" in text or "[degC]" in text or "[1]" in text


def test_crossing_markers_in_temperature_panel(system, tmp_path):
    # long 5 A hold: fraction starts to fall, markers must appear
    cfg = SimConfig(
        dt=1e-3, duration=5.0, current_profile=CurrentProfile.constant(1, 5.0, 5.0)
    )
    trace = simulate(system, cfg)
    assert "as_prime_K" in trace.markers
    paths = emit_plots(trace, tmp_path, run_id="x")
    temp_panel = (tmp_path / "x_temperature.svg").read_text()
    assert "A_s'" in temp_panel
    assert "crossing" in temp_panel
    # marker sits where the fraction first drops
    first_drop = next(
        t for t, xi in zip(trace.t, trace.spring_fractions[0]) if xi < 1.0
    )
    assert trace.markers["crossing_t_s"] == pytest.approx(first_drop)


def test_flat_zero_trace_plots_fine(system, tmp_path):
    cfg = SimConfig(dt=1e-3, duration=0.1)
    trace = simulate(system, cfg)
    assert max(trace.theta) == 0.0
    for path in emit_plots(trace, tmp_path, run_id="flat"):
        ET.parse(path)  # well-formed


def test_empty_trace_refused(tmp_path):
    with pytest.raises(ValueError):
        emit_plots(SimTrace(), tmp_path)


def _y_tick_labels(svg):
    """The y axis tick labels of one panel, bottom to top: the text elements
    right-aligned just left of the plot frame."""
    root = ET.fromstring(svg)
    return [
        el.text for el in root.iter()
        if el.tag.endswith("text") and el.get("text-anchor") == "end"
        and el.get("x") == str(_ML - 8)
    ]


@pytest.mark.parametrize("noise", [0.0, 5e-6])
def test_near_constant_panel_gets_distinct_tick_labels(tmp_path, noise):
    """A bending-plane angle held at 60 deg to within solver noise is drawn
    flat: its five y tick labels all differ, as they do for an exact 60."""
    trace = SimTrace()
    for i in range(50):
        phi = math.radians(60.0 + (i % 3 - 1) * noise)
        trace.append(
            (i + 1) * 1e-3, 1.0, phi, 0.1, (300.0,) * 3, (1.0,) * 3, (1.0,) * 3,
            0.0,
        )
    emit_plots(trace, tmp_path, run_id="held")
    labels = _y_tick_labels((tmp_path / "held_phi.svg").read_text())
    assert len(labels) == 5
    assert len(set(labels)) == 5, labels
    assert "60" in labels


def test_ragged_trace_refused_like_the_csv(tmp_path):
    """A column cut short is refused with the CSV writer's error, before any
    panel is drawn, instead of polylines silently cut to the short column."""
    trace = SimTrace()
    for i in range(5):
        trace.append(
            (i + 1) * 1e-3, 1.0, 0.5, 0.1, (300.0,) * 3, (1.0,) * 3, (1.0,) * 3,
            0.0,
        )
    del trace.unit_forces[1][3:]
    message = "trace column 'unit_forces' has 3 rows, 't' has 5"
    with pytest.raises(ValueError, match=message):
        write_trace(trace, tmp_path / "t.csv")
    with pytest.raises(ValueError, match=message):
        emit_plots(trace, tmp_path / "plots")
    assert not (tmp_path / "plots").exists()

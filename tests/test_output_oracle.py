"""The trace CSV and the SVG panels against a frozen copy of the output layer.

The functions below are the straightforward output layer, kept verbatim as an
oracle but for reading the per-unit columns as ``[unit][row]``: one ``_fmt``
call per CSV field with the whole file joined in memory, and per-series pixel
arithmetic for every panel.  The package's writers must produce the same
bytes, on the bundled run and on traces drawn to hit the formatting edges:
signed zeros, subnormals, magnitudes near 1e+-300, points on a ``%.2f``
rounding tie, constant columns (the flat-panel branch), and markers absent,
present or outside the time range.  Where a flat range sits at a
magnitude that the oracle's ``+ 1.0`` does not move, the oracle divides by
zero; there the package must write every file, the CSV with the oracle's
bytes.
"""

from __future__ import annotations

import math
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sma_neck import load_default_scenario, simulate
from sma_neck import plots as new_plots
from sma_neck import traceio as new_traceio
from sma_neck.engine import SimTrace
from sma_neck.traceio import HEADER
from sma_neck.units import celsius_from_kelvin

# --- the oracle: the trace writer, verbatim ---------------------------------


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_trace(trace: SimTrace, destination) -> Path:
    """Write the trace as CSV to ``destination`` (path-like); returns the path."""
    if len(trace) == 0:
        raise ValueError("refusing to write an empty trace")
    path = Path(destination)
    lines = [",".join(HEADER)]
    for i in range(len(trace)):
        row = [
            _fmt(trace.t[i]),
            _fmt(trace.kappa[i]),
            _fmt(trace.phi[i]),
            _fmt(math.degrees(trace.theta[i])),
        ]
        for per_unit in (trace.spring_temperatures, trace.spring_fractions):
            for column in per_unit:
                text = _fmt(column[i])
                row.extend((text, text))
        row.extend(_fmt(column[i]) for column in trace.unit_forces)
        row.append(_fmt(trace.residual_norm[i]))
        lines.append(",".join(row))
    try:
        path.write_text("\n".join(lines) + "\n", newline="\n")
    except OSError as exc:
        raise OSError(f"writing trace to {path}: {exc}") from exc
    return path


# --- the oracle: the SVG panels, verbatim -----------------------------------

_WIDTH, _HEIGHT = 640, 400
_ML, _MR, _MT, _MB = 64, 16, 32, 44
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` as XML entities (``&`` first)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    return [lo + span * i / (n - 1) for i in range(n)]


def _line_plot(
    path: Path,
    title: str,
    x_label: str,
    y_label: str,
    series: list[tuple[str, list[float], list[float]]],
    h_lines: list[tuple[str, float]] = (),
    v_lines: list[tuple[str, float]] = (),
) -> None:
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    ys_all += [y for _, y in h_lines]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    pad = 0.05 * (y_hi - y_lo)
    # a range too narrow for its tick labels to tell apart (solver noise on
    # a held value) is drawn as flat, not stretched over the panel
    labels = {f"{tick:.4g}" for tick in _ticks(y_lo - pad, y_hi + pad)}
    if math.isclose(y_lo, y_hi, abs_tol=1e-12) or len(labels) < 5:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    else:
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if math.isclose(x_lo, x_hi):
        x_hi = x_lo + 1.0

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MT + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_MT + plot_h}" x2="{px:.1f}" '
            f'y2="{_MT + plot_h + 4}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_MT + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.4g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{_ML - 4}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" '
            'stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.4g}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MT + plot_h / 2:.1f})">{escape(y_label)}</text>'
    )
    for label, y in h_lines:
        py = sy(y)
        parts.append(
            f'<line x1="{_ML}" y1="{py:.1f}" x2="{_ML + plot_w}" y2="{py:.1f}" '
            'stroke="#888888" stroke-dasharray="6 3"/>'
        )
        parts.append(
            f'<text x="{_ML + plot_w - 4}" y="{py - 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="#555555">'
            f"{escape(label)}</text>"
        )
    for label, x in v_lines:
        if not x_lo <= x <= x_hi:
            continue
        px = sx(x)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" y2="{_MT + plot_h}" '
            'stroke="#888888" stroke-dasharray="6 3"/>'
        )
        parts.append(
            f'<text x="{px + 4:.1f}" y="{_MT + 12}" font-family="sans-serif" '
            f'font-size="10" fill="#555555">{escape(label)}</text>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{_ML + plot_w - 4}" y="{_MT + 14 + 13 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{color}">{escape(label)}</text>'
        )
    parts.append("</svg>")
    try:
        path.write_text("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"writing plot to {path}: {exc}") from exc


def _per_unit(columns, convert=lambda v: v):
    return [(f"unit {k + 1}", [convert(v) for v in columns[k]]) for k in range(3)]


# panel -> (title, y label, series of a trace as (label, values), whether the
# band-edge lines and the crossing line are drawn); the x axis is time
_PANEL_TABLE = {
    "phi": (
        "bending-plane angle", "phi [deg]",
        lambda trace: [("phi", [math.degrees(v) for v in trace.phi])], False, False,
    ),
    "theta": (
        "bending angle", "theta [deg]",
        lambda trace: [("theta", [math.degrees(v) for v in trace.theta])], False, False,
    ),
    "force": (
        "tendon forces", "force [N]",
        lambda trace: _per_unit(trace.unit_forces), False, False,
    ),
    "temperature": (
        "spring temperatures", "temperature [degC]",
        lambda trace: _per_unit(trace.spring_temperatures, celsius_from_kelvin),
        True, True,
    ),
    "xi": (
        "martensite fractions", "fraction [1]",
        lambda trace: _per_unit(trace.spring_fractions), False, True,
    ),
}
PANELS = tuple(_PANEL_TABLE)


def emit_plots(trace: SimTrace, out_dir, run_id: str = "neck") -> list[Path]:
    """Write the five trace panels as ``<run-id>_<panel>.svg``; returns paths."""
    if len(trace) == 0:
        raise ValueError("refusing to plot an empty trace")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    markers = trace.markers
    band_edges = [
        (label, celsius_from_kelvin(markers[key]))
        for key, label in (("as_prime_K", "A_s' [degC]"), ("af_prime_K", "A_f' [degC]"))
        if key in markers
    ]
    crossing = (
        [("crossing [s]", markers["crossing_t_s"])] if "crossing_t_s" in markers else []
    )
    written: list[Path] = []
    for panel in PANELS:
        title, y_label, series, with_band_edges, with_crossing = _PANEL_TABLE[panel]
        path = out / f"{run_id}_{panel}.svg"
        _line_plot(
            path,
            title,
            "time [s]",
            y_label,
            [(label, trace.t, values) for label, values in series(trace)],
            h_lines=band_edges if with_band_edges else [],
            v_lines=crossing if with_crossing else [],
        )
        written.append(path)
    return written


# --- the comparison ----------------------------------------------------------


def _outputs(write, plot, trace, out: Path):
    """Every file the two writers leave in ``out``, by name, or the type of
    the exception one of them raised."""
    out.mkdir()
    try:
        write(trace, out / "run_trace.csv")
        plot(trace, out, "run")
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def assert_same_bytes(trace: SimTrace, root: Path) -> None:
    want = _outputs(write_trace, emit_plots, trace, root / "oracle")
    got = _outputs(new_traceio.write_trace, new_plots.emit_plots, trace, root / "new")
    if want is ZeroDivisionError:
        # a flat range where adding 1 does not move it: the oracle divides by
        # zero after writing the CSV; the package widens the range instead
        assert isinstance(got, dict), got
        assert sorted(got) == sorted(["run_trace.csv"] + [f"run_{p}.svg" for p in PANELS])
        assert got["run_trace.csv"] == (root / "oracle" / "run_trace.csv").read_bytes()
        return
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], name
    else:
        assert got is want


def test_bundled_run_writes_the_oracle_bytes(tmp_path):
    scenario = load_default_scenario()
    trace = simulate(scenario.build_system(), scenario.build_config())
    assert {"as_prime_K", "af_prime_K", "crossing_t_s"} <= set(trace.markers)
    assert_same_bytes(trace, tmp_path)


_EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 0.125, 0.375, 2.625, 100.875, 1.005, 60.0, 273.15,
)
_values = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)
_COLUMNS = ("kappa", "phi", "theta", "residual_norm")
_ROWS = ("spring_temperatures", "spring_fractions", "unit_forces")


def _trace(t, columns, rows, markers) -> SimTrace:
    trace = SimTrace()
    trace.t = array("d", t)
    for name, values in columns.items():
        setattr(trace, name, array("d", values))
    for name, values in rows.items():
        setattr(trace, name, tuple(array("d", unit) for unit in zip(*values)))
    trace.phi_defined = array("b", [1] * len(t))
    trace.markers = dict(markers)
    return trace


@st.composite
def traces(draw):
    # time is strictly increasing; some draws end at 560 s, where a pixel x of
    # 64 + t lands on the ``%.2f`` ties that t = 0.125, 0.375, ... give
    times = sorted(set(draw(st.lists(
        st.one_of(st.sampled_from((0.0, 0.125, 0.375, 2.625, 560.0)), _values),
        min_size=1, max_size=12,
    ))))
    n = len(times)

    def column():
        if draw(st.booleans()):  # a constant column: the flat-panel branch
            return [draw(_values)] * n
        return draw(st.lists(_values, min_size=n, max_size=n))

    columns = {name: column() for name in _COLUMNS}
    rows = {name: list(zip(column(), column(), column())) for name in _ROWS}
    marker_time = st.one_of(
        st.sampled_from(times),                             # on a row
        st.floats(min_value=times[0], max_value=times[-1]),  # inside the range
        _values,                                            # possibly outside
    )
    markers = {}
    for key, value in (
        ("as_prime_K", _values), ("af_prime_K", _values), ("crossing_t_s", marker_time),
    ):
        if draw(st.booleans()):
            markers[key] = draw(value)
    return _trace(times, columns, rows, markers)


def _tie_trace() -> SimTrace:
    times = [0.0, 0.125, 0.375, 2.625, 100.875, 560.0]
    same = [1.0] * len(times)
    return _trace(
        times,
        {"kappa": same, "phi": same, "theta": [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0],
         "residual_norm": same},
        {name: [(300.0, 2.5, 0.125)] * len(times) for name in _ROWS},
        {"crossing_t_s": 600.0, "as_prime_K": 273.15},
    )


def _far_trace(times, phi) -> SimTrace:
    """Unit rows and a constant ``phi`` column over ``times``: at 1e300 a
    flat range is one the oracle's ``+ 1.0`` does not move."""
    same = [1.0] * len(times)
    return _trace(
        times,
        {"kappa": same, "phi": [phi] * len(times), "theta": same, "residual_norm": same},
        {name: [(300.0, 1.0, 0.5)] * len(times) for name in _ROWS},
        {},
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(trace=_tie_trace())
@example(trace=_far_trace([1e300], 0.5))
@example(trace=_far_trace([0.0, 1.0], 1e300))
@given(trace=traces())
def test_drawn_traces_write_the_oracle_bytes(trace):
    with tempfile.TemporaryDirectory() as root:
        assert_same_bytes(trace, Path(root))


@pytest.mark.parametrize("markers", [{}, {"crossing_t_s": -1.0}, {"af_prime_K": 1e300}])
def test_marker_cases_write_the_oracle_bytes(tmp_path, markers):
    trace = _tie_trace()
    trace.markers = markers
    assert_same_bytes(trace, tmp_path)

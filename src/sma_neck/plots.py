"""Static SVG line plots of a simulation trace.

Pure text output, no renderer dependency: one file per panel (bending-plane
angle, bending angle, tendon forces, spring temperatures with the
stress-shifted band-edge markers, martensite fractions).

Every panel plots against time, so ``emit_plots`` works out the time range
and each point's pixel x text once for all five panels; a series then formats
only its y values, about one number format per point.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from .engine import SimTrace
from .units import celsius_from_kelvin

_WIDTH, _HEIGHT = 640, 400
_ML, _MR, _MT, _MB = 64, 16, 32, 44
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` as XML entities (``&`` first)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _widened(value: float) -> tuple[float, float]:
    """The drawn range of a flat series at ``value`` where adding 1 does not
    move it (beyond 2**53): 1/1024 of its magnitude each way, kept finite."""
    step = abs(value) / 1024.0
    return max(value - step, -sys.float_info.max), min(value + step, sys.float_info.max)


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
    x_range: tuple[float, float],
    x_texts: list[str],
    series: list[tuple[str, list[float]]],
    h_lines: list[tuple[str, float]] = (),
    v_lines: list[tuple[str, float]] = (),
) -> None:
    """Write one panel.  Every series is drawn against the same x values:
    ``x_range`` is their drawn range and ``x_texts`` each one's pixel x as
    ``%.2f`` text (see ``emit_plots``)."""
    x_lo, x_hi = x_range
    y_lo = min([min(ys) for _, ys in series] + [y for _, y in h_lines])
    y_hi = max([max(ys) for _, ys in series] + [y for _, y in h_lines])
    pad = 0.05 * (y_hi - y_lo)
    # a range too narrow for its tick labels to tell apart (solver noise on
    # a held value) is drawn as flat, not stretched over the panel
    labels = {f"{tick:.4g}" for tick in _ticks(y_lo - pad, y_hi + pad)}
    if math.isclose(y_lo, y_hi, abs_tol=1e-12) or len(labels) < 5:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        if y_hi - y_lo == 0.0:
            y_lo, y_hi = _widened(y_lo)
    else:
        y_lo, y_hi = y_lo - pad, y_hi + pad

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
    for idx, (label, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        # sy inline: one format per point, the same arithmetic in the same order
        points = " ".join([
            f"{x_text},{_MT + (y_hi - y) / (y_hi - y_lo) * plot_h:.2f}"
            for x_text, y in zip(x_texts, ys)
        ])
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


def _per_unit(columns, convert=None):
    if convert is not None:
        columns = [list(map(convert, column)) for column in columns]
    return [(f"unit {k + 1}", column) for k, column in enumerate(columns)]


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
    trace.check_columns()
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
    # every panel plots against time: its range and each point's pixel x
    # are worked out once for all five
    x_lo, x_hi = min(trace.t), max(trace.t)
    if math.isclose(x_lo, x_hi):
        x_hi = x_lo + 1.0
        if x_hi - x_lo == 0.0:
            x_lo, x_hi = _widened(x_lo)
    plot_w = _WIDTH - _ML - _MR
    x_texts = [f"{_ML + (x - x_lo) / (x_hi - x_lo) * plot_w:.2f}" for x in trace.t]
    written: list[Path] = []
    for panel in PANELS:
        title, y_label, series, with_band_edges, with_crossing = _PANEL_TABLE[panel]
        path = out / f"{run_id}_{panel}.svg"
        _line_plot(
            path,
            title,
            "time [s]",
            y_label,
            (x_lo, x_hi),
            x_texts,
            series(trace),
            h_lines=band_edges if with_band_edges else [],
            v_lines=crossing if with_crossing else [],
        )
        written.append(path)
    return written

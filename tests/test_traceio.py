import math
import struct
import tracemalloc
from array import array

import pytest

from sma_neck import CurrentProfile, SimConfig, simulate, write_trace
from sma_neck.engine import SimTrace
from sma_neck.traceio import HEADER, holds_one_value
from conftest import read_csv


def make_trace(system, steps=200, amps=7.0):
    cfg = SimConfig(
        dt=1e-3,
        duration=steps * 1e-3,
        current_profile=CurrentProfile.constant(1, amps, steps * 1e-3),
    )
    return simulate(system, cfg)


def test_header_contract():
    assert HEADER[:4] == ["t_s", "kappa_per_m", "phi_rad", "theta_deg"]
    assert HEADER[4:10] == [f"T{i}_K" for i in range(1, 7)]
    assert HEADER[10:16] == [f"xi{i}" for i in range(1, 7)]
    assert HEADER[16:19] == ["Fk1_N", "Fk2_N", "Fk3_N"]
    assert HEADER[19] == "residual_Nm"
    assert len(HEADER) == 20


def test_row_count_is_header_plus_steps(system, tmp_path):
    trace = make_trace(system, steps=150)
    path = write_trace(trace, tmp_path / "t.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 151
    assert lines[0] == ",".join(HEADER)


def test_round_trip_within_serialization_precision(system, tmp_path):
    trace = make_trace(system, steps=120)
    path = write_trace(trace, tmp_path / "t.csv")
    columns = read_csv(path)
    assert columns["t_s"] == pytest.approx(list(trace.t), rel=1e-8)
    assert columns["kappa_per_m"] == pytest.approx(list(trace.kappa), rel=1e-8, abs=1e-12)
    assert columns["theta_deg"] == pytest.approx(
        [math.degrees(v) for v in trace.theta], rel=1e-8, abs=1e-12
    )
    assert columns["T3_K"] == pytest.approx(list(trace.spring_temperatures[1]), rel=1e-8)
    assert columns["xi6"] == pytest.approx(list(trace.spring_fractions[2]), rel=1e-8)
    assert columns["Fk1_N"] == pytest.approx(list(trace.unit_forces[0]), rel=1e-8)


def test_empty_trace_refused(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        write_trace(SimTrace(), tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


def test_nine_significant_digits(system, tmp_path):
    trace = make_trace(system, steps=50)
    path = write_trace(trace, tmp_path / "t.csv")
    first_row = path.read_text().splitlines()[1].split(",")
    for token in first_row:
        mantissa = token.lstrip("-").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) <= 9


def test_byte_determinism(system, tmp_path):
    trace_a = make_trace(system, steps=100)
    trace_b = make_trace(system, steps=100)
    path_a = write_trace(trace_a, tmp_path / "a.csv")
    path_b = write_trace(trace_b, tmp_path / "b.csv")
    assert path_a.read_bytes() == path_b.read_bytes()


def test_io_error_carries_path(system, tmp_path):
    trace = make_trace(system, steps=10)
    bad = tmp_path / "missing_dir" / "t.csv"
    with pytest.raises(OSError, match="missing_dir"):
        write_trace(trace, bad)


def _synthetic_trace(rows):
    trace = SimTrace()
    for i in range(rows):
        x = math.pi + i / 7  # nine significant digits in every field
        trace.append(
            (i + 1) * 1e-3, x, -x, x / 3, (300.0 + x, 301.0 + x, 302.0 + x),
            (1 / x, 2 / x, 3 / x), (2.0 * x, 3.0 * x, 5.0 * x), 1e-11 * x,
        )
    return trace


def test_write_memory_does_not_grow_with_the_run(tmp_path):
    """The rows go to the file in chunks: writing 20,000 rows (a ~4.8 MB file)
    allocates well under the file's size."""
    trace = _synthetic_trace(20_000)
    tracemalloc.start()
    try:
        path = write_trace(trace, tmp_path / "t.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 4_000_000
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("rows", [4, 6])
@pytest.mark.parametrize("column", ["kappa", "theta", "unit_forces", "residual_norm"])
def test_ragged_trace_refused_naming_the_column(tmp_path, column, rows):
    """A column shorter or longer than ``t`` is refused before the file is
    opened, instead of an IndexError or a silently cut CSV.  Of a per-unit
    column, one unit's array is changed."""
    trace = _synthetic_trace(5)
    values = getattr(trace, column)
    if column in SimTrace.PER_UNIT:
        values = values[1]
    values[:] = (values * 2)[:rows]
    with pytest.raises(ValueError, match=f"'{column}' has {rows} rows, 't' has 5"):
        write_trace(trace, tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("units", [2, 4])
def test_per_unit_column_without_three_units_refused(tmp_path, units):
    trace = _synthetic_trace(5)
    trace.spring_fractions = (trace.spring_fractions * 2)[:units]
    with pytest.raises(ValueError, match=f"'spring_fractions' has {units} units, not 3"):
        write_trace(trace, tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


def _append_row(trace, t):
    trace.append(t, 1.0, 0.5, 0.25, (300.0,) * 3, (1.0,) * 3, (0.0,) * 3, 1e-12)


@pytest.mark.parametrize("rows", [0, 3])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_trace_time_refused(tmp_path, t, rows):
    """A NaN or infinite time is refused as the first row or a later one; NaN
    once passed the order check, and so did every time after it."""
    trace = _synthetic_trace(rows)
    with pytest.raises(ValueError, match="trace times must be finite"):
        _append_row(trace, t)
    assert len(trace) == rows and all(len(column) == rows for _, column in trace._arrays())
    _append_row(trace, 1.0)
    text = write_trace(trace, tmp_path / "t.csv").read_text()
    assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("t", [0.003, 0.002])
def test_trace_time_not_after_the_last_refused(t):
    trace = _synthetic_trace(3)
    with pytest.raises(ValueError, match="trace times must be strictly increasing"):
        _append_row(trace, t)


def _column(*bits):
    column = array("d")
    column.frombytes(struct.pack(f"={len(bits)}Q", *bits))
    return column


def test_one_value_means_the_same_bits():
    nan, other_nan = 0x7FF8000000000000, 0x7FF8000000000001
    assert holds_one_value(array("d", [2.5]))
    assert holds_one_value(array("d", [-0.0] * 4))
    assert holds_one_value(_column(nan, nan, nan))
    assert not holds_one_value(array("d", [0.0, -0.0, 0.0]))
    assert not holds_one_value(_column(nan, other_nan))
    assert not holds_one_value(array("d", [1.0, 1.0, 1.0, 2.0]))


def test_one_value_columns_keep_their_text(tmp_path):
    """Unit 2's fraction, -0.0 in every row, prints -0 in both of its columns;
    unit 3's force, mixing 0.0 and -0.0, prints each row's own sign."""
    trace = _synthetic_trace(4)
    trace.spring_fractions[1][:] = array("d", [-0.0] * 4)
    trace.unit_forces[2][:] = array("d", [0.0, -0.0, -0.0, 0.0])
    lines = write_trace(trace, tmp_path / "t.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [row[HEADER.index("xi3")] for row in rows] == ["-0"] * 4
    assert [row[HEADER.index("xi4")] for row in rows] == ["-0"] * 4
    assert [row[HEADER.index("Fk3_N")] for row in rows] == ["0", "-0", "-0", "0"]

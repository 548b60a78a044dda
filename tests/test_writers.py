"""The CSV and SVG writers against slow per-value oracles.

Both writers look their text up in tables and fall back to formatting a
value only where the tables could be wrong; every byte is unchanged.
The CSV writer cuts each cell's "%.9g" text from a 24-byte slot filled
from digit tables: with e = floor(log10 |v|), x = |v| 10**(8 - e) is one
correctly rounded product, so for |v| in [1e-4, 1e6) and x not within
1e-6 of a half, rint(x) is the nine-digit mantissa "%.9g" writes; +-0.0
is on the table, and every other cell (near-ties, exponent form, 1e6 or
more, nan, +-inf) falls back to "%.9g" % v.  The SVG writer looks each
coordinate's "%.1f" text up in two small tables (whole part below 1000,
then the tenth) from k = rint(10 v), and falls back to "%.1f" % v for
negatives, -0.0, 1000 or more, nan, +-inf and values whose 10 v is
within 1e-6 of a half.  The oracles below are the per-value forms they
replaced: one ``format(v, ".9g")`` per CSV cell and one
``f"{x:.1f},{y:.1f}"`` per polyline point, with the coordinates computed
in Python floats.  The text must be equal, not close.  The CSV table is
checked at its edges, the coordinate table at every tenth and half-tenth
below 1000, and the seven ``compare`` runs must take at least 99% of
their CSV cells and every coordinate from the tables.
"""

import html
import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from heatloop import cli, svgplot
from heatloop.cli import _CSV_BLOCK_ROWS, comparison_scenarios, write_timeseries_csv
from heatloop.engine import Trace, default_scenario, run
from heatloop.svgplot import (
    _GAP, _MARGIN_L, _MARGIN_R, _MARGIN_T, _PANEL_H, _WIDTH, _Panel, _bounds, _one_decimal, render_svg, write_svg,
)


def oracle_timeseries_csv(trace: Trace) -> str:
    columns = [[""] * len(trace.t) if col is None else [format(v, ".9g") for v in col.tolist()] for col in trace]
    lines = [",".join(Trace._fields)] + [",".join(row) for row in zip(*columns)]
    return "".join(line + "\n" for line in lines)


def oracle_points(panel: _Panel, ts: list[float], vs: list[float]) -> str:
    def x(t):
        return _MARGIN_L + (t - panel.t0) / (panel.t1 - panel.t0) * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def y(v):
        return panel.top + (panel.hi - v) / (panel.hi - panel.lo) * _PANEL_H

    return " ".join(f"{x(t):.1f},{y(v):.1f}" for t, v in zip(ts, vs))


def oracle_bounds(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _points_of(polyline: str) -> str:
    return polyline.split(' points="', 1)[1].rsplit('"/>', 1)[0]


# ---------------------------------------------------------------------------
# drawn values


def _ulp_step(v: float, steps: int) -> float:
    for _ in range(abs(steps)):
        v = math.nextafter(v, math.copysign(math.inf, steps))
    return v


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1e308,
           1.7976931348623157e308, 0.05, 0.15, 0.25, 2.5, 1e16, 123456789.5]

# a tie of the ".9g" format (nine significant digits and a 5) or of the
# ".1f" format (x.x5), then up to one ulp either side of it
ROUNDING_EDGES = st.builds(
    lambda m, k, steps: _ulp_step((m + 0.5) * 10.0 ** k, steps),
    st.integers(-(10**9), 10**9),
    st.integers(-12, 8),
    st.integers(-1, 1),
)

VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(),                                        # nan, ±inf, subnormals, ±0 included
    st.integers(-(2**60), 2**60).map(float),            # whole numbers, below and above 2**53
    ROUNDING_EDGES,
    ROUNDING_EDGES.map(lambda v: v / 10.0**8),
)


# the edges of the CSV writer's table (|v| in [1e-4, 1e6), ties at nine
# digits, -0.0) and of "%.9g"'s fixed notation, each with one ulp either side
TABLE_EDGES = [_ulp_step(v, steps)
               for v in (1e-4, 0.00009999999995, 1e-3, 0.00099999999995, 9.9999999995, 999999.9995, 1e6, 1e7, -0.0)
               for steps in (-1, 0, 1)]


@st.composite
def traces(draw):
    n = draw(st.integers(0, 12))
    cols = [np.array(draw(st.lists(VALUES, min_size=n, max_size=n)), dtype=float) for _ in Trace._fields]
    if draw(st.booleans()):
        cols[-1] = None
    return Trace(*cols)


# ---------------------------------------------------------------------------
# CSV


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(traces())
@example(Trace(*([np.array([0.0, -0.0, 5e-324, 1e308, -1e308, 2.0, 0.1234567885])] * 9), None))
@example(Trace(*([np.array([_ulp_step(0.1234567885, 1), _ulp_step(0.1234567885, -1)])] * 10)))
@example(Trace(*([np.array(TABLE_EDGES)] * 10)))
@example(Trace(*([-np.array(TABLE_EDGES)] * 9), None))
def test_csv_writer_matches_per_value_oracle(tmp_path, trace):
    path = tmp_path / "t.csv"
    write_timeseries_csv(str(path), trace)
    assert path.read_text(encoding="utf-8") == oracle_timeseries_csv(trace)


@pytest.mark.parametrize("name", ["ip_heat", "pi_step", "flat_pi_fast"])
def test_csv_writer_matches_oracle_on_runs(tmp_path, name):
    trace = run(dict(comparison_scenarios(default_scenario()))[name])
    path = tmp_path / "t.csv"
    write_timeseries_csv(str(path), trace)
    assert path.read_bytes() == oracle_timeseries_csv(trace).encode("utf-8")


# the lengths around one and two blocks, and fixed lengths (255..512) that
# keep their case names when the block size changes
@pytest.mark.parametrize("n", sorted({_CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
                                      2 * _CSV_BLOCK_ROWS, 255, 256, 257, 512}))
@pytest.mark.parametrize("f_estim", [True, False], ids=["f_estim", "no_f_estim"])
def test_csv_writer_matches_oracle_across_row_blocks(tmp_path, n, f_estim):
    values = np.random.default_rng(n).standard_normal((len(Trace._fields), n)) * 1e3
    trace = Trace(*values[:-1], values[-1] if f_estim else None)
    path = tmp_path / "t.csv"
    write_timeseries_csv(str(path), trace)
    assert path.read_bytes() == oracle_timeseries_csv(trace).encode("utf-8")


def test_compare_runs_take_their_csv_cells_from_the_tables(monkeypatch, tmp_path):
    # the fast path must carry the files it exists for: a change that sends
    # cells to the "%.9g" fallback keeps the bytes but must fail here; the
    # few it may miss are near-ties, and y_star_dot and f_estim below 1e-4
    seen, on_table = [], cli._on_table

    def recording(v):
        n, e4, fast = on_table(v)
        seen.append(fast.copy())
        return n, e4, fast

    monkeypatch.setattr(cli, "_on_table", recording)
    runs = comparison_scenarios(default_scenario())
    assert len(runs) == 7
    for name, scenario in runs:
        seen.clear()
        trace = run(scenario)
        write_timeseries_csv(str(tmp_path / "t.csv"), trace)
        columns = sum(col is not None for col in trace)    # a blank f_estim is no cell
        cells = np.concatenate(seen)[:, :columns]
        assert cells.shape == (len(trace.t), columns), name
        assert cells.sum() >= 0.99 * cells.size, (name, int((~cells).sum()))


def test_csv_writer_peak_stays_below_one_trace(tmp_path):
    # the writer holds a block of rows as floats and text, never the whole
    # body: about 147 kB on the default trace, whose ten columns take 230,400 B
    trace = run(default_scenario())
    path = str(tmp_path / "t.csv")
    write_timeseries_csv(path, trace)    # first-call setup is not the writer's
    tracemalloc.start()
    try:
        write_timeseries_csv(path, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(Trace._fields) * trace.t.nbytes


# ---------------------------------------------------------------------------
# SVG


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def panels(draw):
    t0, t1 = draw(FINITE), draw(FINITE)
    lo, hi = draw(FINITE), draw(FINITE)
    # the writer never builds a panel with an empty range
    if t1 == t0:
        t1 = _ulp_step(t0, 1)
    if hi == lo:
        hi = _ulp_step(lo, 1)
    return _Panel(draw(st.sampled_from([40, 310, 40.5])), t0, t1, lo, hi)


@pytest.mark.filterwarnings("error::RuntimeWarning")    # Python floats overflow quietly; so must the columns
@settings(deadline=None, max_examples=300)
@given(panels(), st.data())
@example(_Panel(40, 0.0, 48.0, 13.2, 21.5), None)
def test_polyline_matches_per_point_oracle(panel, data):
    if data is None:
        ts = [0.0, 0.0166666667, 24.0, 47.9833333, 48.0]
        vs = [13.2, 21.5, -0.0, 16.05, _ulp_step(16.05, 1)]
    else:
        n = data.draw(st.integers(0, 12))
        ts = data.draw(st.lists(VALUES, min_size=n, max_size=n))
        vs = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    line = panel.polyline(np.array(ts, dtype=float), np.array(vs, dtype=float), "#000")
    assert _points_of(line) == oracle_points(panel, ts, vs)


def one_decimal_text(values) -> list[str]:
    v = np.array(values, dtype=float)
    out = np.empty((len(v), 2), dtype=object)
    _one_decimal(v, out)
    return ["".join(cells) for cells in out.tolist()]


def _tenths_and_halves() -> np.ndarray:
    # every k/10 and (2k+1)/20 below 1000, each with 1-3 ulps either side
    centres = np.concatenate((np.arange(10000) / 10.0, (2.0 * np.arange(10000) + 1.0) / 20.0))
    shifted, down, up = [centres], centres, centres
    for _ in range(3):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        shifted += [down, up]
    return np.concatenate(shifted)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_decimal_matches_percent_format_at_tenths_and_halves():
    values = _tenths_and_halves()
    values = np.concatenate((values, -values))
    assert one_decimal_text(values) == ["%.1f" % v for v in values.tolist()]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_decimal_matches_percent_format_at_edges():
    values = [999.95, _ulp_step(999.95, -1), _ulp_step(999.95, 1), 999.9499999, 1000.0, _ulp_step(1000.0, -1),
              0.0, -0.0, -0.04, -0.05, -0.06, -1.0, -999.95, 5e-324, -5e-324, 2.2250738585072014e-308,
              math.inf, -math.inf, math.nan, -math.nan, 1e300, -1e300, 1.7976931348623157e308, 0.05, 0.25]
    assert one_decimal_text(values) == ["%.1f" % v for v in values]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.floats(), st.floats(0.0, 1000.0), ROUNDING_EDGES), max_size=12))
def test_one_decimal_matches_percent_format(values):
    assert one_decimal_text(values) == ["%.1f" % v for v in values]


def test_compare_runs_draw_every_coordinate_from_the_tables(monkeypatch):
    # the fast path must carry the plots it exists for: a change that sends
    # values to the "%.1f" fallback keeps the bytes but must fail here
    seen, on_table = [], svgplot._on_table

    def recording(v):
        k, fast = on_table(v)
        seen.append(fast)
        return k, fast

    monkeypatch.setattr(svgplot, "_on_table", recording)
    runs = comparison_scenarios(default_scenario())
    assert len(runs) == 7
    for name, scenario in runs:
        seen.clear()
        trace = run(scenario)
        render_svg(trace, name)
        coords = np.concatenate(seen)
        assert len(coords) == 8 * len(trace.t), name    # four polylines, x and y a point
        assert coords.all(), (name, int((~coords).sum()))


@settings(deadline=None, max_examples=300)
@given(st.text())
@example("A & B <b>bold</b> &amp; \"q\" 'q' >")
def test_title_escape_is_html_escape_without_quotes(text):
    assert svgplot._escape(text) == html.escape(text, quote=False)


@pytest.mark.parametrize("title", ["A & B", "<b>bold</b>", "x < y > z & w", 'say "hi" & \'bye\''])
def test_svg_title_is_escaped(tmp_path, title):
    path = tmp_path / "plot.svg"
    write_svg(str(path), _flat_trace([0.0, 60.0], 16.0), title=title)
    root = ET.parse(path).getroot()
    assert root.find("{http://www.w3.org/2000/svg}text").text == title


def test_plain_title_keeps_its_bytes():
    trace = _flat_trace([0.0, 60.0], 16.0)
    assert '>ip_heat "quoted" \'too\'</text>' in render_svg(trace, 'ip_heat "quoted" \'too\'')


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(FINITE, ROUNDING_EDGES), min_size=1, max_size=12))
@example([16.0])
@example([-0.0, 0.0])
def test_bounds_match_oracle(values):
    lo, hi = min(values), max(values)
    # the oracle's +-1 widening vanishes beyond 2**53, and its span can
    # overflow; there it divides by zero or yields nan, so no text to match
    if hi - lo < 1e-12 and (lo - 1.0 == lo or hi + 1.0 == hi):
        return
    assert _bounds(np.array(values)) == oracle_bounds(values)


@pytest.mark.parametrize("name", ["ip_heat", "pi_step", "flat_pi_fast"])
def test_svg_polylines_match_oracle_on_runs(name):
    trace = run(dict(comparison_scenarios(default_scenario()))[name])
    svg = render_svg(trace, name)
    hours = (trace.t / 3600.0).tolist()
    lo1, hi1 = oracle_bounds(trace.t_int_true.tolist() + trace.y_star.tolist() + trace.t_ext.tolist())
    lo2, hi2 = oracle_bounds(trace.q_applied.tolist())
    top = _Panel(_MARGIN_T, hours[0], hours[-1], lo1, hi1)
    bottom = _Panel(_MARGIN_T + _PANEL_H + _GAP, hours[0], hours[-1], lo2, hi2)
    expected = [oracle_points(top, hours, col.tolist()) for col in (trace.t_ext, trace.y_star, trace.t_int_true)]
    expected.append(oracle_points(bottom, hours, trace.q_applied.tolist()))
    assert [_points_of(line) for line in svg.splitlines() if line.startswith("<polyline")] == expected


# ---------------------------------------------------------------------------
# degenerate axes


def _flat_trace(t, value):
    n = len(t)
    return Trace(np.array(t), *(np.full(n, value) for _ in range(8)), None)


@pytest.mark.parametrize(
    "t, value",
    [
        ([0.0, 5e-324], 16.0),          # t / 3600 underflows to one value
        ([0.0, 60.0, 120.0], 1e20),     # a flat line where +-1 does not register
        ([0.0, 60.0], -1e300),
    ],
    ids=["collapsed_time_axis", "flat_huge_values", "flat_huge_negative"],
)
def test_degenerate_axes_render_without_error(t, value):
    svg = render_svg(_flat_trace(t, value))
    assert "nan" not in svg and "inf" not in svg
    points = [_points_of(line).split() for line in svg.splitlines() if line.startswith("<polyline")]
    # a flat line sits mid-panel: three lines in the top panel, one below
    mid = ["150.0"] * 3 + ["420.0"]
    assert [{p.split(",")[1] for p in line} for line in points] == [{m} for m in mid]
    if t[-1] / 3600.0 == 0.0:    # and a collapsed time axis puts it mid-width
        assert {p.split(",")[0] for line in points for p in line} == {"475.0"}


def test_svg_that_cannot_be_rendered_leaves_no_file(tmp_path):
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match="nothing to plot"):
        write_svg(str(path), _flat_trace([], 16.0))
    assert not path.exists()

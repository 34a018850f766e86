"""SVG emission: well-formedness, series structure, determinism.

``reference_svg_line_chart`` is the chart before it formatted each
distinct x position once and grouped series with numpy, kept here as an
oracle: on tables whose series keys are finite the bytes must match.
"""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfm import (
    CircuitNonIdealities,
    SweepTable,
    frequency_sweep,
    svg_line_chart,
    theoretical_error_sweep,
    worst_case_sweep,
    write_svg,
)
from qfm.charts import (
    _HEIGHT,
    _MARGIN_B,
    _MARGIN_L,
    _MARGIN_R,
    _MARGIN_T,
    _PALETTE,
    _WIDTH,
    _Y,
    _cents,
    _escape,
    _x_ticks,
)


def polylines(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(".//{http://www.w3.org/2000/svg}polyline")


class TestSvgChart:
    def test_well_formed_with_series(self):
        table = theoretical_error_sweep([2.0, 6.0, 16.0], (100.0, 200.0, 5.0))
        svg = svg_line_chart(table, x="q_true", series="k", title="ripple")
        assert len(polylines(svg)) == 3

    def test_single_series_log_axis(self):
        ni = CircuitNonIdealities(comparator_offset=10e-3, divider_error=0.01)
        table = frequency_sweep(300.0, 6.0, [1e3, 1e4, 1e5, 1e6], ni)
        svg = svg_line_chart(table, x="f0", log_x=True)
        assert len(polylines(svg)) == 1
        assert "1.0e+06" in svg or "1e+06" in svg

    def test_log_axis_refuses_non_positive_x(self):
        table = SweepTable(("f0", "rel_error"))
        table.extend(np.array([0.0, 1.0]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError) as err:
            svg_line_chart(table, x="f0", log_x=True)
        assert str(err.value) == "log x axis needs positive x values"

    def test_deterministic(self):
        table = theoretical_error_sweep([6.0], (100.0, 150.0, 1.0))
        a = svg_line_chart(table, x="q_true", series="k")
        b = svg_line_chart(table, x="q_true", series="k")
        assert a == b

    def test_na_rows_skipped(self):
        table = SweepTable(columns=("f0", "n", "q_measured", "rel_error"))
        table.append(1e3, 100, 250.0, -0.01)
        table.append(2e3, None, None, None)
        table.append(4e3, 90, 220.0, -0.02)
        svg = svg_line_chart(table, x="f0")
        pts = polylines(svg)[0].get("points").split()
        assert len(pts) == 2

    def test_all_rows_missing_raises(self):
        table = SweepTable(columns=("f0", "rel_error"))
        table.append(1e3, None)
        with pytest.raises(ValueError):
            svg_line_chart(table, x="f0")

    def test_write_to_path(self, tmp_path):
        table = theoretical_error_sweep([6.0], (100.0, 120.0, 1.0))
        out = tmp_path / "chart.svg"
        write_svg(table, out, x="q_true", series="k", title="t")
        ET.fromstring(out.read_text())

    def test_title_escaped(self):
        table = theoretical_error_sweep([6.0], (100.0, 110.0, 1.0))
        svg = svg_line_chart(table, x="q_true", title="a < b & c")
        ET.fromstring(svg)

    def test_nan_series_values_share_one_polyline(self):
        table = SweepTable(columns=("q_true", "k", "rel_error"))
        for q, k in ((100.0, float("nan")), (110.0, 6.0), (120.0, float("nan")), (130.0, 6.0)):
            table.append(q, k, -0.01)
        svg = svg_line_chart(table, x="q_true", series="k")
        assert len(polylines(svg)) == 2
        assert svg.count(">k=nan<") == 1 and svg.count(">k=6<") == 1
        assert len(polylines(svg)[0].get("points").split()) == 2

    def test_na_series_cells_share_one_polyline_labelled_na(self):
        table = SweepTable(columns=("q_true", "k", "rel_error"))
        for q, k in ((100.0, None), (110.0, 6.0), (120.0, None), (130.0, 0.0)):
            table.append(q, k, -0.01)
        svg = svg_line_chart(table, x="q_true", series="k")
        assert len(polylines(svg)) == 3
        assert svg.count(">k=NA<") == 1 and ">k=None<" not in svg
        # the NA group is the NA cells, not the zeros stored under them
        assert [len(p.get("points").split()) for p in polylines(svg)] == [2, 1, 1]
        assert svg.index(">k=NA<") < svg.index(">k=6<") < svg.index(">k=0<")


def reference_svg_line_chart(
    table: SweepTable,
    x: str,
    series: str | None = None,
    log_x: bool = False,
    title: str = "",
) -> str:
    """The chart as it was before each distinct x position was formatted
    once: grouped by a dict over ``table.cells``, every point formatted."""
    xs, ys = table.column(x), table.column(_Y)
    plotted = np.flatnonzero(~(np.isnan(xs) | np.isnan(ys)))
    if not plotted.size:
        raise ValueError("nothing to plot: every row has missing cells")
    xs, ys = xs[plotted], np.abs(ys[plotted]) * 100.0
    # positions in the plotted arrays, grouped by series value
    groups: dict = {}
    if series is None:
        groups[""] = np.arange(plotted.size)
    else:
        keys = table.cells(series)
        for pos, i in enumerate(plotted.tolist()):
            groups.setdefault(keys[i], []).append(pos)

    if log_x and xs.min() <= 0:
        raise ValueError("log x axis needs positive x values")

    def xt(v):
        return math.log10(v) if log_x else v

    xts = np.array([xt(v) for v in xs.tolist()]) if log_x else xs
    x_lo, x_hi = float(xts.min()), float(xts.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_hi = float(ys.max()) * 1.08 or 1e-9
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(t):  # t on the (log-)transformed x axis
        return _MARGIN_L + (t - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return _MARGIN_T + (1.0 - v / y_hi) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" font-family="sans-serif" font-size="14" '
            f'text-anchor="middle">{_escape(title)}</text>'
        )

    # axes
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    parts.append(f'<line x1="{x0}" y1="{_MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>')

    for xv in _x_ticks(x_lo, x_hi, log_x):
        p = px(xt(xv))
        parts.append(f'<line x1="{p:.2f}" y1="{y0}" x2="{p:.2f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{p:.2f}" y="{y0 + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{reference_fmt_tick(xv)}</text>'
        )
    for frac in np.linspace(0.0, 1.0, 6):
        yv = frac * y_hi
        p = py(yv)
        parts.append(f'<line x1="{x0 - 5}" y1="{p:.2f}" x2="{x0}" y2="{p:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{p + 4:.2f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{reference_fmt_tick(yv)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 8}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{_escape(x)}{" (log)" if log_x else ""}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">'
        f"|{_Y}| [%]</text>"
    )

    for idx, (key, at) in enumerate(groups.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px(xts[at]).tolist(), py(ys[at]).tolist()))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if series is not None:
            ly = _MARGIN_T + 14 + 16 * idx
            lx = _MARGIN_L + plot_w - 120
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">'
                f"{_escape(series)}={reference_fmt_tick(key)}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def reference_fmt_tick(v) -> str:
    try:
        v = float(v)
    except (TypeError, ValueError):
        return _escape(str(v))
    if v != 0 and (abs(v) >= 1e4 or abs(v) < 1e-2):
        return f"{v:.1e}"
    return f"{v:g}"


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        return ValueError, str(err)


# few distinct values, so x positions repeat across series and series
# keys repeat across rows; -0.0 beside 0.0
X_POOL = (0.0, -0.0, -3.0, 1e-3, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6, 123.456)
Y_POOL = (0.0, -0.0, 0.01, -0.01, 1 / 3, -2.5, 1e-9, 0.02)
K_POOL = (0.0, -0.0, 4.0, 4.25, 6.0, -1.5, 1e5, 1e-3)


@st.composite
def chart_tables(draw):
    """A (table, series, log_x) triple: x and y drawn from small pools or
    any finite float, NA or NaN in x or y, series keys finite (float or
    int) and never NA."""
    log_x = draw(st.booleans())
    series = draw(st.sampled_from([None, "k"]))
    x_cell = st.one_of(
        st.sampled_from([v for v in X_POOL if v > 0] if log_x else X_POOL),
        st.floats(1e-6 if log_x else -1e6, 1e6),
        st.sampled_from([None, float("nan")]),
    )
    y_cell = st.one_of(
        st.sampled_from(Y_POOL), st.floats(-10.0, 10.0), st.sampled_from([None, float("nan")])
    )
    k_cell = draw(st.sampled_from([st.sampled_from(K_POOL), st.integers(-3, 3)]))
    rows = draw(st.lists(st.tuples(x_cell, k_cell, y_cell), min_size=1, max_size=40))
    table = SweepTable(columns=("x", "k", "rel_error"))
    for row in rows:
        table.append(*row)
    return table, series, log_x


class TestChartAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(chart_tables(), st.sampled_from(["", "a < b"]))
    def test_same_bytes_as_the_reference(self, drawn, title):
        table, series, log_x = drawn
        kwargs = dict(x="x", series=series, log_x=log_x, title=title)
        assert outcome(svg_line_chart, table, **kwargs) == outcome(
            reference_svg_line_chart, table, **kwargs
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: theoretical_error_sweep([2.0, 6.0, 16.0], (10.0, 300.0, 1.0)),
            lambda: worst_case_sweep(
                [4.0, 6.0, 6.25], (100.0, 400.0, 1.0), CircuitNonIdealities(10e-3, 0.01), f0=50e3
            ),
        ],
        ids=["theoretical", "worstcase"],
    )
    def test_sweep_charts_match_the_reference(self, make):
        table = make()
        assert svg_line_chart(table, x="q_true", series="k") == reference_svg_line_chart(
            table, x="q_true", series="k"
        )
        assert svg_line_chart(table, x="q_true", log_x=True) == reference_svg_line_chart(
            table, x="q_true", log_x=True
        )


class TestLogAxisAgainstMathLog10:
    """The log x axis takes ``np.log10``, which differs from ``math.log10``
    in the last bit for some x; no pixel text may differ."""

    def test_pixel_text_of_a_million_points(self):
        # ranges within 1e-3..1e4, where the two differ most often (about
        # 44,000 of these x, and 16 axis bounds, with numpy 2.4)
        rng = np.random.default_rng(20_261_021)
        points = 0
        for _ in range(200):
            lo = rng.uniform(-3.0, 3.0)
            xs = 10.0 ** rng.uniform(lo, lo + 10.0 ** rng.uniform(-6.0, 1.0), 5_000)
            table = SweepTable(columns=("x", "rel_error"))
            table.extend(xs, rng.uniform(-1.0, 1.0, xs.size))
            assert svg_line_chart(table, x="x", log_x=True) == reference_svg_line_chart(
                table, x="x", log_x=True
            )
            points += xs.size
        assert points >= 10**6


def _either_side(v):
    return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])


class TestCentsKernel:
    """The polyline coordinate kernel against ``f"{v:.2f}"``."""

    def test_against_the_f_string(self):
        rng = np.random.default_rng(20_261_020)
        n = 250_000
        values = np.concatenate([
            rng.uniform(0.0, 1e3, n),
            rng.uniform(0.0, 1e7, n),
            10.0 ** rng.uniform(-30.0, 7.0, n),
            rng.integers(0, 10**9, n) / 100.0,
            # every tie k/200 and k/8 below 1e4 (only k/8 is one exactly), one ulp either side
            _either_side(np.arange(2_000_000) / 200.0),
            _either_side(np.arange(80_000) / 8.0),
            # the top of the fast path, and values the f-string writes
            _either_side(np.array([9999999.995, 9999999.99, 1e7])),
            [0.0, -0.0, np.nan, np.inf, -np.inf, -1.0, -0.001, 5e-324],
        ])
        assert values.size > 10**6
        for chunk in np.array_split(values, 16):  # about 400,000 values at a time
            cells = _cents(chunk)
            assert cells.shape[1] == 16
            text = cells.tobytes().translate(None, b"\0").decode("ascii")
            assert text == "".join([f"{v:.2f}" for v in chunk.tolist()])

    def test_a_long_f_string_widens_the_rows(self):
        values = np.array([1.5, -1e300, np.nan, 1e300, 123.456])
        cells = _cents(values)
        assert cells.shape[1] == len(f"{-1e300:.2f}")
        assert [row.tobytes().replace(b"\0", b"").decode() for row in cells] == [f"{v:.2f}" for v in values]

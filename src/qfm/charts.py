"""Minimal SVG line charts for sweep tables.

Presentation only: one polyline per series, absolute error in percent on
the y axis.  Output is a deterministic string so rendered charts can be
compared byte for byte.  Every polyline coordinate is ``f"{v:.2f}"``,
written by one array kernel over all the points (x positions are not
deduplicated) and joined a polyline at a time as one byte matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .tables import _BYTES, _QUAD, _SPLIT, NA_MARKER, SweepTable, _fill, write_text

__all__ = ["svg_line_chart", "write_svg"]

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
)

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 18, 34, 46
_WIDTH, _HEIGHT, _Y = 720, 460, "rel_error"


def svg_line_chart(
    table: SweepTable,
    x: str,
    series: str | None = None,
    log_x: bool = False,
    title: str = "",
) -> str:
    """Render |rel_error| in percent against x, one polyline per distinct
    value of the ``series`` column (single polyline when ``series`` is
    None); NaN series values share one polyline, as do NA series cells,
    labelled ``NA``.  Rows with missing (NA or NaN) x or y cells are skipped.
    """
    xs, ys = table.column(x), table.column(_Y)
    plotted = np.flatnonzero(~(np.isnan(xs) | np.isnan(ys)))
    if not plotted.size:
        raise ValueError("nothing to plot: every row has missing cells")
    xs, ys = xs[plotted], np.abs(ys[plotted]) * 100.0
    if series is None:
        groups = [("", np.arange(plotted.size))]
    else:
        groups = _groups(*(a[plotted] for a in table._pair(series)))

    if log_x and xs.min() <= 0:
        raise ValueError("log x axis needs positive x values")

    xts = np.log10(xs) if log_x else xs
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
        p = px(math.log10(xv) if log_x else xv)
        parts.append(f'<line x1="{p:.2f}" y1="{y0}" x2="{p:.2f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{p:.2f}" y="{y0 + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{_fmt_tick(xv)}</text>'
        )
    for frac in np.linspace(0.0, 1.0, 6):
        yv = frac * y_hi
        p = py(yv)
        parts.append(f'<line x1="{x0 - 5}" y1="{p:.2f}" x2="{x0}" y2="{p:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{p + 4:.2f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{_fmt_tick(yv)}</text>'
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

    xcells, ycells = _cents(px(xts)), _cents(py(ys))
    for idx, (label, at) in enumerate(groups):
        color = _PALETTE[idx % len(_PALETTE)]
        # a row per point: x, ",", y, " "; NUL padding and the last space dropped
        sep = np.full((at.size, 2), [ord(","), ord(" ")], np.uint8)
        points = np.hstack((xcells[at], sep[:, :1], ycells[at], sep[:, 1:]))
        coords = points.tobytes().translate(None, b"\0")[:-1].decode("ascii")
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
                f"{_escape(series)}={label}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_TENS = 10 ** np.arange(1, 7)
_FRAC = np.take(_QUAD, np.arange(100)) >> 16 << 8 | ord(".")  # "." and 2 digits


def _cents(v: np.ndarray) -> np.ndarray:
    """``f"{x:.2f}"`` of each float64 of ``v`` as a row of at least 16
    bytes, NUL-padded.  Dekker's product gives v * 100 = prod + err
    exactly, so floor(prod), its fraction and err round half to even
    exactly; nan, inf, -0.0 and values outside [0, 1e7) take the
    f-string."""
    fast = (v >= 0) & (v < 1e7) & ~np.signbit(v)
    a = np.where(fast, v, 0.0)
    prod = a * 100.0
    a_hi = a * _SPLIT - (a * _SPLIT - a)
    err = (a_hi * 100.0 - prod) + (a - a_hi) * 100.0
    whole = np.floor(prod)
    half = (prod - whole - 0.5) + err  # the sign of the exact remainder past one half
    r = whole.astype(np.int64)
    r += (half > 0) | ((half == 0) & (r % 2 == 1))
    fast &= r < 10**9
    units, frac = np.divmod(np.where(fast, r, 0), 100)
    words = np.empty((v.size, 2), np.int64)
    # 8 digits, less the leading zeros past the first
    words[:, 0] = np.take(_QUAD, units // 10**4) | np.take(_QUAD, units % 10**4) << 32
    words[:, 0] &= ~np.take(_BYTES, 7 - np.searchsorted(_TENS, units, side="right"))
    words[:, 1] = np.take(_FRAC, frac)
    slow = np.flatnonzero(~fast)
    return _fill(words.view(np.uint8), slow, [f"{x:.2f}" for x in v[slow].tolist()])


def _groups(keys: np.ndarray, na: np.ndarray) -> list:
    """(legend label, positions) per distinct key, in order of first
    appearance: -0.0 joins 0.0, every NaN one group, every NA cell one."""
    ids = np.full(keys.size, -1)
    ids[~na] = np.unique(keys[~na], return_inverse=True)[1]
    order = np.argsort(ids, kind="stable")
    runs = np.split(order, np.flatnonzero(np.diff(ids[order])) + 1)
    runs.sort(key=lambda at: at[0])
    return [(NA_MARKER if na[at[0]] else _fmt_tick(keys[at[0]]), at) for at in runs]


def write_svg(table: SweepTable, dest, **kwargs) -> None:
    write_text(dest, svg_line_chart(table, **kwargs))


def _x_ticks(lo, hi, log_x):
    if log_x:
        return [10.0**e for e in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)]
    return list(np.linspace(lo, hi, 6))


def _escape(text: str) -> str:
    """XML character data: ``&`` first, then ``>`` and ``<``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt_tick(v) -> str:
    v = float(v)
    if v != 0 and (abs(v) >= 1e4 or abs(v) < 1e-2):
        return f"{v:.1e}"
    return f"{v:g}"

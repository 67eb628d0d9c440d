"""Minimal SVG line charts (axes, optional log scales, legend), drawn with numpy.

The CSV outputs are authoritative; the charts are a convenience.  Pixels and M4
thinning work on whole arrays.  Output is deterministic: same data, same bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import MaterialError

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 55
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_exp = math.floor(math.log10(lo))
        hi_exp = math.ceil(math.log10(hi))
        return [10.0 ** e for e in range(int(lo_exp), int(hi_exp) + 1)
                if lo <= 10.0 ** e <= hi] or [lo, hi]
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks, t = [], first
    # the step leaves room for at most 7 ticks; the cap also ends the loop
    # where the range sits so far from 0 that t + step rounds to t
    while t <= hi + 1e-12 * span and len(ticks) < 8:
        ticks.append(t)
        t += step
    return ticks


def _axis_range(lo: float, hi: float, log: bool) -> tuple[float, float]:
    """[lo, hi], widened where it maps to one point of the axis.

    The range becomes [lo, lo + 1], or [lo - |lo|/2, lo] where lo + 1
    still maps to the point of lo (far from 0, or on a log axis).
    """
    scale = math.log10 if log else float
    if scale(hi) == scale(lo):
        hi = lo + 1.0
    if scale(hi) == scale(lo):
        lo, hi = lo - 0.5 * abs(lo), lo
    return lo, hi


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _pixels(values, lo: float, hi: float, log: bool, start: float, length: float):
    """Pixels of values (a float or an array) on an axis mapping [lo, hi] to start + [0, length]."""
    if log:
        values, lo, hi = np.log10(values), np.log10(lo), np.log10(hi)
    return start + (values - lo) / (hi - lo) * length


def _m4(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Indices, in order, of the points a polyline needs to look the same.

    M4 (Jugel et al., VLDB 2014): of each run of consecutive points in one pixel column, the
    first, last, first lowest and first highest; a run of at most 4 points is kept whole.
    """
    starts = np.flatnonzero(np.diff(np.floor(px), prepend=np.nan))   # nan: point 0 starts a run
    lengths = np.diff(np.append(starts, len(px)))
    run = np.repeat(np.arange(len(starts)), lengths)
    keep = (lengths <= 4)[run]
    keep[starts] = keep[starts + lengths - 1] = True
    for extreme in (np.minimum, np.maximum):
        hits = np.flatnonzero(py == extreme.reduceat(py, starts)[run])
        keep[hits[np.unique(run[hits], return_index=True)[1]]] = True    # first hit of a run
    return np.flatnonzero(keep)


def line_chart(series: Sequence[tuple[Sequence[float], Sequence[float], str]],
               xlabel: str, ylabel: str, title: str,
               logx: bool = False, logy: bool = False) -> str:
    """Render labelled (x, y) series to an SVG document string.

    A polyline keeps at most 4 points per run in one pixel column (:func:`_m4`).
    """
    if not series:
        raise MaterialError("nothing to plot")
    data = [(np.asarray(x, float), np.asarray(y, float), label) for x, y, label in series]
    xs = np.concatenate([x for x, _, _ in data])
    if logx and xs.min() <= 0.0:
        raise MaterialError("log x axis needs positive values")
    if logy:
        data = [(x[y > 0.0], y[y > 0.0], label) for x, y, label in data]
    ys = np.concatenate([y for _, y, _ in data])
    if logy and not ys.size:
        raise MaterialError("log y axis needs positive values")
    x_lo, x_hi = _axis_range(float(xs.min()), float(xs.max()), logx)
    y_lo, y_hi = _axis_range(float(ys.min()), float(ys.max()), logy)
    x_axis = (x_lo, x_hi, logx, _MARGIN_L, _WIDTH - _MARGIN_L - _MARGIN_R)
    y_axis = (y_lo, y_hi, logy, _HEIGHT - _MARGIN_B, -(_HEIGHT - _MARGIN_T - _MARGIN_B))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    axis_box = (f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" '
                f'width="{_WIDTH - _MARGIN_L - _MARGIN_R}" '
                f'height="{_HEIGHT - _MARGIN_T - _MARGIN_B}" '
                f'fill="none" stroke="black" stroke-width="1"/>')
    parts.append(axis_box)
    for t in _ticks(x_lo, x_hi, logx):
        px = _pixels(t, *x_axis)
        parts.append(f'<line x1="{px:.1f}" y1="{_HEIGHT - _MARGIN_B}" '
                     f'x2="{px:.1f}" y2="{_HEIGHT - _MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_HEIGHT - _MARGIN_B + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi, logy):
        py = _pixels(t, *y_axis)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.1f}" '
                     f'x2="{_MARGIN_L}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{_fmt(t)}</text>')
    parts.append(f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) // 2}" '
                 f'y="{_HEIGHT - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="18" y="{(_MARGIN_T + _HEIGHT - _MARGIN_B) // 2}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {(_MARGIN_T + _HEIGHT - _MARGIN_B) // 2})">'
                 f'{ylabel}</text>')
    for i, (x_data, y_data, label) in enumerate(data):
        color = _COLORS[i % len(_COLORS)]
        px, py = _pixels(x_data, *x_axis), _pixels(y_data, *y_axis)
        kept = _m4(px, py)
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px[kept].tolist(), py[kept].tolist()))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        ly = _MARGIN_T + 16 + 18 * i
        lx = _WIDTH - _MARGIN_R + 10
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

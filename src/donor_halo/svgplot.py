"""Minimal self-contained SVG line charts.

The CSV outputs are authoritative; these charts are a dependency-free
convenience rendering (axes, optional log scales, legend).  Output is
deterministic: same data, byte-identical markup.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

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


def _m4(pixels: Iterable[tuple[float, float]]) -> Iterator[tuple[float, float]]:
    """The (px, py) points a polyline needs to look the same.

    Of each run of consecutive points in one pixel column, the first,
    last, lowest and highest, in their order (M4: Jugel et al., "M4: A
    Visualization-Oriented Time Series Data Aggregation", VLDB 2014).  A
    run of at most 4 points is kept whole.
    """
    for _, run in itertools.groupby(pixels, key=lambda p: math.floor(p[0])):
        run = list(run)
        if len(run) > 4:
            ys = [py for _, py in run]
            run = [run[i] for i in sorted({0, len(run) - 1, ys.index(min(ys)), ys.index(max(ys))})]
        yield from run


def line_chart(series: Sequence[tuple[Sequence[float], Sequence[float], str]],
               xlabel: str, ylabel: str, title: str,
               logx: bool = False, logy: bool = False) -> str:
    """Render labelled (x, y) series to an SVG document string.

    A polyline keeps at most 4 points per run in one pixel column (:func:`_m4`).
    """
    if not series:
        raise MaterialError("nothing to plot")
    xs = [x for s in series for x in s[0]]
    ys = [y for s in series for y in s[1]]
    if logx and min(xs) <= 0.0:
        raise MaterialError("log x axis needs positive values")
    if logy:
        ys = [y for y in ys if y > 0.0]
        if not ys:
            raise MaterialError("log y axis needs positive values")
    x_lo, x_hi = _axis_range(min(xs), max(xs), logx)
    y_lo, y_hi = _axis_range(min(ys), max(ys), logy)

    def tx(x: float) -> float:
        if logx:
            frac = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            frac = (x - x_lo) / (x_hi - x_lo)
        return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def ty(y: float) -> float:
        if logy:
            frac = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        else:
            frac = (y - y_lo) / (y_hi - y_lo)
        return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)

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
        px = tx(t)
        parts.append(f'<line x1="{px:.1f}" y1="{_HEIGHT - _MARGIN_B}" '
                     f'x2="{px:.1f}" y2="{_HEIGHT - _MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_HEIGHT - _MARGIN_B + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi, logy):
        py = ty(t)
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
    for i, (x_data, y_data, label) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join(f"{px:.2f},{py:.2f}" for px, py in _m4(
            (tx(float(x)), ty(float(y))) for x, y in zip(x_data, y_data)
            if not (logy and float(y) <= 0.0)))
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

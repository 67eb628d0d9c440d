import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donor_halo.errors import MaterialError
from donor_halo.svgplot import (_COLORS, _HEIGHT, _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T,
                                _WIDTH, _axis_range, _fmt, _m4, _ticks, line_chart)


def _polyline(svg: str) -> list[tuple[float, float]]:
    (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
    return [tuple(map(float, point.split(","))) for point in points.split()]


def _reference_m4(pixels):
    """M4 one (px, py) point at a time, as line_chart once applied it."""
    for _, run in itertools.groupby(pixels, key=lambda p: math.floor(p[0])):
        run = list(run)
        if len(run) > 4:
            ys = [py for _, py in run]
            run = [run[i] for i in sorted({0, len(run) - 1, ys.index(min(ys)), ys.index(max(ys))})]
        yield from run


def _reference_chart(series, xlabel, ylabel, title, logx=False, logy=False):
    """line_chart as it was before it worked on arrays: every point through
    Python closures, then M4 on tuples.  The array path must match it byte
    for byte."""
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

    def tx(x):
        if logx:
            frac = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            frac = (x - x_lo) / (x_hi - x_lo)
        return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def ty(y):
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
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_WIDTH - _MARGIN_L - _MARGIN_R}" '
        f'height="{_HEIGHT - _MARGIN_T - _MARGIN_B}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
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
        points = " ".join(f"{px:.2f},{py:.2f}" for px, py in _reference_m4(
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


def test_m4_keeps_first_last_lowest_and_highest_of_a_column_run():
    def kept(pixels):
        px, py = np.array(pixels).T
        return _m4(px, py).tolist()

    # column 10 holds five points, column 11 one, column 12 four
    pixels = [(10.1, 5.0), (10.2, 1.0), (10.3, 9.0), (10.4, 3.0), (10.5, 4.0),
              (11.0, 2.0), (12.1, 1.0), (12.2, 2.0), (12.3, 3.0), (12.4, 4.0)]
    assert kept(pixels) == [0, 1, 2, 4, 5, 6, 7, 8, 9]
    # where the extremes are the first and last point, two points stand for the run
    assert kept([(3.0, 1.0), (3.2, 2.0), (3.4, 2.0), (3.6, 2.0), (3.8, 3.0)]) == [0, 4]
    # a column visited again later is a new run
    assert kept([(1.0, 0.0)] * 3 + [(2.0, 0.0)] + [(1.0, 0.0)] * 3) == list(range(7))


def _raw_series(rng, n, layout, ties):
    """n points (x, y); x runs over 0..490, one unit a pixel column once mapped."""
    if layout == "columns":
        # runs of exactly 4 or 5 points inside one pixel column, between the axis ends
        counts = rng.integers(4, 6, size=max(1, min(488, n // 5)))
        x = np.concatenate([[0.0], *(k + 1 + np.linspace(0.1, 0.9, c)
                                     for k, c in enumerate(counts)), [490.0]])
    else:
        x = np.sort(rng.uniform(0.0, 490.0, n))
        if layout == "shuffled":
            x = rng.permutation(x)
    # small integers tie the lowest and the highest y of a run
    y = rng.integers(-2, 3, x.size).astype(float) if ties else rng.normal(size=x.size)
    return x, y


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=4),
       layout=st.sampled_from(["increasing", "shuffled", "columns"]), ties=st.booleans(),
       logx=st.booleans(), logy=st.booleans(), drop=st.booleans())
def test_line_chart_matches_the_per_point_renderer(seed, sizes, layout, ties, logx, logy, drop):
    rng = np.random.default_rng(seed)
    x_scale, y_scale = 10.0 ** rng.uniform(-6.0, 6.0, 2)
    x_shift = rng.normal() * x_scale
    series = []
    for i, n in enumerate(sizes):
        x, y = _raw_series(rng, n, layout, ties)
        x = 10.0 ** (x / 49.0) if logx else x * x_scale - x_shift
        y = 10.0 ** y if logy else y * y_scale
        if drop:    # points a log y axis leaves out
            y[rng.random(y.size) < 0.2] = -y_scale
        series.append((x, y, f"s{i}"))
    try:
        expected = _reference_chart(series, "x", "y", "t", logx, logy)
    except MaterialError as exc:
        with pytest.raises(MaterialError, match=re.escape(str(exc))):
            line_chart(series, "x", "y", "t", logx, logy)
    else:
        assert line_chart(series, "x", "y", "t", logx, logy) == expected


def test_a_sparse_series_keeps_every_point():
    x = np.geomspace(1e-2, 1e3, 200)
    assert len(_polyline(line_chart([(x, np.sqrt(x), "y")], "x", "y", "t",
                                    logx=True, logy=True))) == 200


def test_a_dense_series_keeps_its_ends_and_extremes_within_four_points_a_column():
    # 10^6 points, the --points bound
    x = np.linspace(0.0, 1.0, 1_000_000)
    y = np.sin(40.0 * math.pi * x) * (1.0 + x)
    points = _polyline(line_chart([(x, y, "y")], "x", "y", "t"))
    assert len(points) <= 4 * 491
    # the first and last points are the plot's left and right edges
    assert points[0][0] == 70.0 and points[-1][0] == 560.0
    # the highest and the lowest y sit on the top and bottom edges of the plot
    assert min(py for _, py in points) == 40.0 and max(py for _, py in points) == 425.0
    assert [px for px, _ in points] == sorted(px for px, _ in points)

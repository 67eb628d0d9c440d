import math
import re

import numpy as np

from donor_halo.svgplot import _m4, line_chart


def _polyline(svg: str) -> list[tuple[float, float]]:
    (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
    return [tuple(map(float, point.split(","))) for point in points.split()]


def test_m4_keeps_first_last_lowest_and_highest_of_a_column_run():
    # column 10 holds five points, column 11 one, column 12 four
    pixels = [(10.1, 5.0), (10.2, 1.0), (10.3, 9.0), (10.4, 3.0), (10.5, 4.0),
              (11.0, 2.0), (12.1, 1.0), (12.2, 2.0), (12.3, 3.0), (12.4, 4.0)]
    assert list(_m4(pixels)) == [(10.1, 5.0), (10.2, 1.0), (10.3, 9.0), (10.5, 4.0),
                                 (11.0, 2.0), (12.1, 1.0), (12.2, 2.0), (12.3, 3.0), (12.4, 4.0)]
    # where the extremes are the first and last point, two points stand for the run
    assert list(_m4([(3.0, 1.0), (3.2, 2.0), (3.4, 2.0), (3.6, 2.0), (3.8, 3.0)])) == [
        (3.0, 1.0), (3.8, 3.0)]
    # a column visited again later is a new run
    assert len(list(_m4([(1.0, 0.0)] * 3 + [(2.0, 0.0)] + [(1.0, 0.0)] * 3))) == 7


def test_a_sparse_series_keeps_every_point():
    x = np.geomspace(1e-2, 1e3, 200)
    assert len(_polyline(line_chart([(x, np.sqrt(x), "y")], "x", "y", "t",
                                    logx=True, logy=True))) == 200


def test_a_dense_series_keeps_its_ends_and_extremes_within_four_points_a_column():
    x = np.linspace(0.0, 1.0, 100_000)
    y = np.sin(40.0 * math.pi * x) * (1.0 + x)
    points = _polyline(line_chart([(x, y, "y")], "x", "y", "t"))
    assert len(points) <= 4 * 491
    # the first and last points are the plot's left and right edges
    assert points[0][0] == 70.0 and points[-1][0] == 560.0
    # the highest and the lowest y sit on the top and bottom edges of the plot
    assert min(py for _, py in points) == 40.0 and max(py for _, py in points) == 425.0
    assert [px for px, _ in points] == sorted(px for px, _ in points)

"""What ``line_chart`` draws: the points it keeps, the ranges it spans, the text it escapes,
and the empty chart."""

import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from iterreg.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, line_chart

NS = {"svg": "http://www.w3.org/2000/svg"}
# the centre of the plot area, where the one point of a one-value range lands
MID_X = MARGIN_L + (WIDTH - MARGIN_R - MARGIN_L) / 2
MID_Y = (HEIGHT - MARGIN_B) - (HEIGHT - MARGIN_B - MARGIN_T) / 2


def chart(tmp_path, series, **kwargs):
    path = tmp_path / "c.svg"
    line_chart(path, series, **kwargs)
    return ET.parse(path).getroot()


def polyline_points(root):
    """The (x, y) pixel pairs of each polyline."""
    return [[tuple(map(float, p.split(","))) for p in line.get("points").split()]
            for line in root.iterfind("svg:polyline", NS)]


def texts(root):
    return [t.text for t in root.iterfind("svg:text", NS)]


@pytest.mark.parametrize("logx, logy", [(False, False), (True, False), (False, True), (True, True)])
def test_non_finite_and_log_non_positive_points_are_not_drawn(tmp_path, logx, logy):
    xs = [1.0, 2.0, math.nan, 4.0, math.inf, 6.0, 7.0, 8.0]
    ys = [1.0, 2.0, 3.0, -math.inf, 5.0, 0.0, 7.0, -1.0]
    drawable = [(x, y) for x, y in zip(xs, ys)
                if math.isfinite(x) and math.isfinite(y) and (y > 0 or not logy)]
    markers = [("nan", math.nan, 1.0), ("inf", 1.0, math.inf), ("zero", 0.0, 1.0),
               ("negative", 1.0, -2.0), ("kept", 2.0, 2.0)]
    root = chart(tmp_path, [("s", xs, ys)], markers=markers, logx=logx, logy=logy)
    (points,) = polyline_points(root)
    assert len(points) == len(drawable)
    kept = {"nan": False, "inf": False, "zero": not logx, "negative": not logy, "kept": True}
    assert len(root.findall("svg:circle", NS)) == sum(kept.values())
    assert {label for label in kept if label in texts(root)} == {k for k, v in kept.items() if v}


@pytest.mark.parametrize("log, value, ticks", [
    (False, 3.0, ["2", "2.5", "3", "3.5", "4"]),  # widened by 1 each way
    (True, 100.0, ["10", "100", "1000"]),  # widened by a factor of 10 each way
])
def test_a_one_value_range_widens(tmp_path, log, value, ticks):
    root = chart(tmp_path, [("s", [value, value], [value, value])], logx=log, logy=log)
    (points,) = polyline_points(root)
    assert points == [(MID_X, MID_Y)] * 2
    labels = texts(root)
    for tick in ticks:
        assert labels.count(tick) == 2, tick  # once on each axis


@pytest.mark.parametrize("xs, ys, tick", [
    ([1e20], [1.0], "1e+20"),  # 1e20 - 1 == 1e20: widened by its float spacing instead
    ([1.0], [-1e300], "-1e+300"),
])
def test_a_one_value_range_beyond_the_spacing_of_one_widens(tmp_path, xs, ys, tick):
    root = chart(tmp_path, [("s", xs, ys)])
    assert polyline_points(root) == [[(MID_X, MID_Y)]]
    assert texts(root).count(tick) == 5


@pytest.mark.parametrize("xs, ys, logx, point, ticks", [
    # 10 v overflows, so the top end widens by the float spacing of v, and v lands on it
    ([1e308], [1.0], True, (WIDTH - MARGIN_R, MID_Y), ["1e+307", "1e+308"]),
    ([1.7e308], [1.0], True, (WIDTH - MARGIN_R, MID_Y), ["1e+308"]),
    ([1.0], [1e308], False, (MID_X, MARGIN_T), ["1e+307", "1e+308"]),
    # v / 10 rounds to 0 and v is the least positive float, so the bottom end stays at v
    ([5e-324], [1.0], True, (MARGIN_L, MID_Y), ["9.881e-324"]),
])
def test_a_one_value_log_range_at_the_ends_of_the_floats_widens(tmp_path, xs, ys, logx,
                                                                 point, ticks):
    root = chart(tmp_path, [("s", xs, ys)], logx=logx, logy=not logx)
    assert polyline_points(root) == [[point]]
    for tick in ticks:
        assert tick in texts(root)


def test_text_is_escaped_as_saxutils_escapes_it(tmp_path):
    text = """a & b < c > d "e" 'f' &amp;"""
    path = tmp_path / "c.svg"
    line_chart(path, [(text + " series", [1.0, 2.0], [1.0, 2.0])], title=text + " title",
               xlabel=text + " x", ylabel=text + " y", markers=[(text + " marker", 1.0, 1.0)])
    svg = path.read_text()
    for part in ("title", "x", "y", "series", "marker"):
        assert f">{escape(f'{text} {part}')}</text>" in svg, part
    assert {f"{text} {part}" for part in ("title", "x", "y", "series", "marker")} <= set(
        texts(ET.parse(path).getroot()))


@pytest.mark.parametrize("logx, logy", [(False, False), (True, True)])
def test_lists_and_arrays_draw_the_same_bytes(tmp_path, logx, logy):
    xs = [0.5, 1.0, math.nan, 2.0, -1.0, 4.0, 0.0, 8.0]
    ys = [3.0, -0.0, 1.0, math.inf, 2.0, 0.25, 5.0, 1.5]
    markers = [("m", 2.0, 1.0), ("zero", 0.0, 1.0)]
    as_lists, as_arrays = tmp_path / "lists.svg", tmp_path / "arrays.svg"
    line_chart(as_lists, [("s", xs, ys), ("t", ys, xs)], markers=markers, logx=logx, logy=logy)
    line_chart(as_arrays, [("s", np.array(xs), np.array(ys)), ("t", np.array(ys), np.array(xs))],
               markers=markers, logx=logx, logy=logy)
    assert as_lists.read_bytes() == as_arrays.read_bytes()


@pytest.mark.parametrize("series, logy", [
    ([], False),
    ([("empty", [], [])], False),
    ([("nan", [1.0, 2.0], [math.nan, math.inf])], False),
    ([("non-positive", [1.0, 2.0], [0.0, -3.0])], True),
])
def test_no_drawable_point_says_no_data(tmp_path, series, logy):
    root = chart(tmp_path, series, markers=[("m", 1.0, 1.0)], logy=logy)
    assert "no data" in texts(root)
    assert not root.findall("svg:polyline", NS) and not root.findall("svg:circle", NS)

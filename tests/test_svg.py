import hashlib
import re
import sys
import warnings

import numpy as np
import pytest

from spinoeqc.svg import HEIGHT, WIDTH, line_chart

FMAX = sys.float_info.max


def chart(tmp_path, x, series, **labels) -> str:
    """The SVG text `line_chart` writes, drawn with warnings as errors."""
    path = tmp_path / "chart.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line_chart(path, x, series, **labels)
    return path.read_text()


def points(text: str) -> list[tuple[float, float]]:
    """Every polyline vertex of a chart, as floats."""
    return [tuple(map(float, pair.split(",")))
            for line in re.findall(r'points="([^"]*)"', text) for pair in line.split()]


def labels(text: str) -> list[str]:
    return re.findall(r">([^<]*)</text>", text)


def test_fixed_chart_bytes(tmp_path):
    # a title, both axis labels, a series that crosses zero (so the dashed
    # zero line is drawn) and one that does not
    text = chart(
        tmp_path,
        [0.0, 0.5, 1.0, 1.5, 2.0],
        {"crossing": [1.0, -0.5, 0.25, 2.0, -1.0], "positive": [0.1, 0.2, 0.3, 0.4, 0.5]},
        title="fixed chart", x_label="x (s)", y_label="signal",
    )
    assert labels(text) == ["crossing", "positive", "fixed chart", "x (s)", "signal",
                            "0.000", "2.000", "-1.150", "2.150"]
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d2ceb9e7c187f0af36d784abcae522ce082e9f18ede5974d4f8b73f674dc6eda"
    )


@pytest.mark.parametrize("x,series", [([], {"a": []}), ([1.0, 2.0], {})], ids=["no-x", "no-series"])
def test_empty_chart_is_refused(tmp_path, x, series):
    with pytest.raises(ValueError, match="^need x values and at least one series$"):
        line_chart(tmp_path / "chart.svg", x, series)
    assert not (tmp_path / "chart.svg").exists()


def test_flat_ranges_are_widened_by_one(tmp_path):
    text = chart(tmp_path, [3.0, 3.0], {"flat": [2.0, 2.0]})
    # x spans [3, 4]; y spans [2, 3], padded by 5% each way
    assert labels(text) == ["flat", "3.000", "4.000", "1.950", "3.050"]
    assert points(text) == [(60.0, 346.364), (60.0, 346.364)]


@pytest.mark.parametrize("value", [1e20, 2.0**54, -(2.0**60), FMAX, -FMAX],
                         ids=["1e20", "2**54", "-2**60", "max", "-max"])
def test_flat_ranges_past_2_53_are_widened(tmp_path, value):
    # adding 1 leaves such a value unchanged; the range takes its neighbour
    text = chart(tmp_path, [value, value], {"flat": [value, value]})
    x_lo, x_hi, y_lo, y_hi = map(float, labels(text)[1:])
    assert x_lo < x_hi and y_lo < y_hi
    assert "nan" not in text and "inf" not in text
    assert all(60 <= px <= WIDTH - 60 and 60 <= py <= HEIGHT - 60 for px, py in points(text))


@pytest.mark.parametrize(
    "x,ys",
    [
        # a y span past the float range (an enhancement trace between
        # -1.7e308 and 1.7e308)
        ([0.0, 10.0, 20.0], [-1.7e308, 0.0, 1.7e308]),
        # an x span past the float range (a frequency axis of a subnormal dwell)
        ([-1.7e308, 0.0, 1.7e308], [0.0, 1.0, -1.0]),
        # a finite y span whose 5% pad leaves the float range
        ([0.0, 1.0, 2.0], [-FMAX, 0.0, 1.0]),
        ([0.0, 1.0, 2.0], [-1.0, 0.0, FMAX]),
        # both spans past the float range, every value at an end
        ([-FMAX, FMAX], [FMAX, -FMAX]),
    ],
    ids=["y-span", "x-span", "low-pad", "high-pad", "both"],
)
def test_spans_past_the_float_range_draw_finite_charts(tmp_path, x, ys):
    text = chart(tmp_path, x, {"s": ys})
    assert "nan" not in text and "inf" not in text
    ticks = [float(label) for label in labels(text)[1:]]
    assert all(abs(tick) <= FMAX for tick in ticks)
    # the data's ends are inside the plot, the x ends on its edges
    margin = 60
    vertices = points(text)
    assert len(vertices) == len(x)
    assert vertices[int(np.argmin(x))][0] == margin
    assert vertices[int(np.argmax(x))][0] == WIDTH - margin
    assert all(margin <= py <= HEIGHT - margin for _, py in vertices)

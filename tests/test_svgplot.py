"""Unit tests for the dependency-free SVG plotting helpers."""

from xml.etree import ElementTree

import numpy as np
import pytest

from kktgen.datasets import circle_dataset
from kktgen.svgplot import PALETTE, svg_image_grid, svg_scatter

SVG_NS = "http://www.w3.org/2000/svg"

# no points and no labels, for either side of a scatter
NONE = np.zeros((0, 2)), np.zeros(0, dtype=int)


def well_formed(svg):
    return (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
            and svg.count("<svg") == 1)


def test_scatter_basic_structure():
    circle = circle_dataset()
    samples = circle.x * 0.9
    svg = svg_scatter(circle.x, circle.labels, samples, circle.labels,
                      title="demo")
    assert well_formed(svg)
    assert svg.count("<circle") == 18
    assert svg.count("<path") == 18  # crosses
    assert ">demo</text>" in svg
    # all three class colors appear
    for color in PALETTE[:3]:
        assert color in svg


def test_scatter_deterministic():
    circle = circle_dataset()
    a = svg_scatter(circle.x, circle.labels, circle.x, circle.labels)
    b = svg_scatter(circle.x, circle.labels, circle.x, circle.labels)
    assert a == b


def test_scatter_empty_inputs_still_draw_axes():
    svg = svg_scatter(*NONE, *NONE)
    assert well_formed(svg)
    assert svg.count("<line") == 2  # the two axes
    assert "<circle" not in svg and "<path" not in svg


def test_scatter_samples_only():
    samples = np.array([[0.0, 0.0], [1.0, 1.0]])
    svg = svg_scatter(*NONE, samples, np.array([0, 1]))
    assert well_formed(svg)
    assert svg.count("<path") == 2


def test_image_grid_renders_cells(patterns):
    data = patterns(2, 0.0, 0)
    svg = svg_image_grid(data.x, 8, data.x, title="patterns")
    assert well_formed(svg)
    # background + 4 images and their neighbours
    assert svg.count("<rect") == 1 + 2 * 4 * 64
    assert ">patterns</text>" in svg


def test_image_grid_with_neighbors_doubles_cells(patterns):
    data = patterns(1, 0.0, 0)
    svg = svg_image_grid(data.x, 8, neighbors=data.x[::-1])
    assert svg.count("<rect") == 1 + 2 * 2 * 64


def test_image_grid_empty():
    svg = svg_image_grid(np.zeros((0, 64)), 8, np.zeros((0, 64)))
    assert well_formed(svg)


def test_image_grid_clips_values():
    img = np.array([[-1.0, 0.5, 2.0, 0.0]])
    svg = svg_image_grid(img, 2, img)
    assert "#000000" in svg  # clipped low
    assert "#ffffff" in svg  # clipped high


@pytest.mark.parametrize("mode", ["scatter", "grid"])
def test_title_is_escaped(patterns, mode):
    title = "a<b&c>d"
    if mode == "scatter":
        circle = circle_dataset()
        svg = svg_scatter(circle.x, circle.labels, *NONE, title=title)
    else:
        images = patterns(1, 0.02, 0).x
        svg = svg_image_grid(images, 8, images, title=title)
    root = ElementTree.fromstring(svg)
    assert title in [t.text for t in root.iter(f"{{{SVG_NS}}}text")]

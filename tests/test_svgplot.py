"""Unit tests for the dependency-free SVG plotting helpers."""

from itertools import chain
from xml.etree import ElementTree

import numpy as np
import pytest

from kktgen.datasets import FORMAT_BLOCK_ROWS, circle_dataset, format_rows
from kktgen.svgplot import (_CELL, _COLUMNS, _ESCAPES, _GRAYS, PALETTE, _fmt,
                            svg_image_grid, svg_scatter)

SVG_NS = "http://www.w3.org/2000/svg"

# no points and no labels, for either side of a scatter
NONE = np.zeros((0, 2)), np.zeros(0, dtype=int)


def well_formed(svg):
    return (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
            and svg.count("<svg") == 1)


def test_scatter_basic_structure():
    circle = circle_dataset()
    samples = circle.x * 0.9
    svg = "".join(svg_scatter(circle.x, circle.labels, samples,
                              circle.labels, title="demo"))
    assert well_formed(svg)
    assert svg.count("<circle") == 18
    assert svg.count("<path") == 18  # crosses
    assert ">demo</text>" in svg
    # all three class colors appear
    for color in PALETTE[:3]:
        assert color in svg


def test_scatter_deterministic():
    circle = circle_dataset()
    a, b = ("".join(svg_scatter(circle.x, circle.labels, circle.x,
                                circle.labels)) for _ in range(2))
    assert a == b


def test_scatter_empty_inputs_still_draw_axes():
    svg = "".join(svg_scatter(*NONE, *NONE))
    assert well_formed(svg)
    assert svg.count("<line") == 2  # the two axes
    assert "<circle" not in svg and "<path" not in svg


def test_scatter_samples_only():
    samples = np.array([[0.0, 0.0], [1.0, 1.0]])
    svg = "".join(svg_scatter(*NONE, samples, np.array([0, 1])))
    assert well_formed(svg)
    assert svg.count("<path") == 2


def test_image_grid_renders_cells(patterns):
    data = patterns(2, 0.0, 0)
    svg = "".join(svg_image_grid(data.x, 8, data.x, title="patterns"))
    assert well_formed(svg)
    # background + 4 images and their neighbours
    assert svg.count("<rect") == 1 + 2 * 4 * 64
    assert ">patterns</text>" in svg


def test_image_grid_with_neighbors_doubles_cells(patterns):
    data = patterns(1, 0.0, 0)
    svg = "".join(svg_image_grid(data.x, 8, neighbors=data.x[::-1]))
    assert svg.count("<rect") == 1 + 2 * 2 * 64


def test_image_grid_empty():
    svg = "".join(svg_image_grid(np.zeros((0, 64)), 8, np.zeros((0, 64))))
    assert well_formed(svg)


def test_image_grid_clips_values():
    img = np.array([[-1.0, 0.5, 2.0, 0.0]])
    svg = "".join(svg_image_grid(img, 2, img))
    assert "#000000" in svg  # clipped low
    assert "#ffffff" in svg  # clipped high


def test_plots_come_in_blocks_of_whole_lines(patterns):
    """A plot is written a block at a time: the head, one block per
    ``FORMAT_BLOCK_ROWS`` elements, the closing tag, each of whole lines."""
    data = patterns(10, 0.02, 0)
    rects = 2 * data.size * 64
    grid = list(svg_image_grid(data.x, 8, data.x))
    assert rects > 2 * FORMAT_BLOCK_ROWS
    assert len(grid) == 2 + -(-rects // FORMAT_BLOCK_ROWS)
    scatter = list(svg_scatter(data.x[:, :2], data.labels, data.x[:, :2],
                               data.labels))
    assert len(scatter) == 4
    for blocks in (grid, scatter):
        assert all(block.endswith("\n") for block in blocks)
        assert blocks[-1] == "</svg>\n"


def test_scatter_memory_stays_at_one_block(traced):
    """A 12 000-point scatter, consumed block by block, holds one block's
    matrix and text at a time, not the coordinates or lines of every
    point: its traced peak stays below 1.5 MB (the plot is about 1.1 MB
    of text)."""
    circle = circle_dataset()
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((12_000, 2))
    labels = rng.integers(0, 3, len(samples))

    def consume():
        for _ in svg_scatter(circle.x, circle.labels, samples, labels):
            pass

    peak, _ = traced(consume)
    assert peak < 1.5e6


@pytest.mark.parametrize("mode", ["scatter", "grid"])
def test_title_is_escaped(patterns, mode):
    title = "a<b&c>d"
    if mode == "scatter":
        circle = circle_dataset()
        svg = "".join(svg_scatter(circle.x, circle.labels, *NONE,
                                  title=title))
    else:
        images = patterns(1, 0.02, 0).x
        svg = "".join(svg_image_grid(images, 8, images, title=title))
    root = ElementTree.fromstring(svg)
    assert title in [t.text for t in root.iter(f"{{{SVG_NS}}}text")]


def format_rows_image_grid(images, side, neighbors, title=""):
    """:func:`svg_image_grid` with each rect's coordinates and gray level
    formatted by one ``format_rows`` template per rect."""
    images = np.asarray(images, dtype=np.float64).reshape(-1, side, side)
    neighbors = np.asarray(neighbors,
                           dtype=np.float64).reshape(len(images), side, side)
    n = len(images)
    columns = min(_COLUMNS, max(n, 1))
    rows = (n + columns - 1) // columns
    band = 2
    pad = 8
    width = columns * (_CELL + pad) + pad
    height = max(rows * band * (_CELL + pad) + pad + (20 if title else 0),
                 _CELL)
    px = _CELL / side
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_fmt(width / 2)}" y="14" font-size="12" '
                     f'text-anchor="middle">'
                     f'{title.translate(_ESCAPES)}</text>')
    y_base = 20 if title else 0
    stack = np.stack([images, neighbors], axis=1)
    row, col = np.divmod(np.arange(n), columns)
    x0 = pad + col * (_CELL + pad)
    y0 = y_base + pad + row * band * (_CELL + pad)
    yk = y0[:, None] + np.arange(band) * (_CELL + 2)
    cells = np.arange(side) * px
    x = np.broadcast_to(x0[:, None, None, None] + cells,
                        (n, band, side, side))
    y = np.broadcast_to(yk[:, :, None, None] + cells[:, None],
                        (n, band, side, side))
    level = np.rint(255 * np.clip(stack, 0.0, 1.0)).astype(np.intp)
    parts.extend(chain.from_iterable(format_rows(
        f'<rect x="%.2f" y="%.2f" width="{_fmt(px)}" '
        f'height="{_fmt(px)}" fill="%s"/>',
        [x.ravel(), y.ravel(), _GRAYS[level].ravel()])))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("n,title", [(0, ""), (1, ""), (11, "a<b"),
                                     (200, "")])
def test_image_grid_matches_per_rect_formatting(n, title):
    """The same bytes as one template per rect, over 0, 1 and several
    grid rows and several format blocks, with values outside [0, 1]."""
    rng = np.random.default_rng(n)
    images, neighbors = rng.random((2, n, 64)) * 1.6 - 0.3
    got = "".join(svg_image_grid(images, 8, neighbors, title=title))
    want = format_rows_image_grid(images, 8, neighbors, title=title)
    # as lines, so that a failure reports the first line that differs
    assert got.split("\n") == want.split("\n")

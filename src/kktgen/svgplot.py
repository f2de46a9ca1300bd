"""Hand-rolled SVG emission for scatter plots and image grids.

No plotting dependency: the output is deterministic text, so plots can
be diffed and golden-tested.  Training points are circles colored by
class, generated points are crosses; image grids render 8-bit grayscale
cells, each image above its nearest dataset image.  A plot is returned as
an iterator of text blocks, each of whole lines, so that it can be
written a block at a time; the elements of a block are formatted when the
block is reached.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .datasets import FORMAT_BLOCK_ROWS, format_rows

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_PALETTE = np.array(PALETTE)

_MARGIN = 40.0

# the side of a scatter plot, and the side and the number per row of a
# grid's image cells
_SIZE = 480
_CELL = 48
_COLUMNS = 10

# "#llllll" for each 8-bit gray level
_GRAYS = np.array([f"#{level:02x}{level:02x}{level:02x}"
                   for level in range(256)])

# a title as SVG character data
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt(value):
    return f"{float(value):.2f}"


def _blocks(head, blocks):
    """The text of an SVG document: the lines of ``head``, then each
    list of lines of ``blocks``, then the closing tag, one string each."""
    yield "\n".join(head) + "\n"
    for lines in blocks:
        yield "\n".join(lines) + "\n"
    yield "</svg>\n"


def _axis_bounds(arrays):
    allpts = np.vstack(arrays)
    if not len(allpts):
        return -1.0, 1.0, -1.0, 1.0
    x_lo, y_lo = allpts.min(axis=0)
    x_hi, y_hi = allpts.max(axis=0)
    pad_x = 0.1 * max(x_hi - x_lo, 1e-9)
    pad_y = 0.1 * max(y_hi - y_lo, 1e-9)
    return x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y


def svg_scatter(train_points, train_labels, samples, sample_labels,
                title=""):
    """Scatter SVG: dataset points as circles, generated as crosses.

    The points are ``(n, 2)`` arrays, either of them possibly empty, each
    with an array of its class labels.  Returns the text blocks.
    """
    train_points = np.asarray(train_points, dtype=np.float64)
    samples = np.asarray(samples, dtype=np.float64)
    x_lo, x_hi, y_lo, y_hi = _axis_bounds([train_points, samples])
    size = _SIZE
    span = size - 2 * _MARGIN

    def sx(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * span

    def sy(y):
        return size - _MARGIN - (y - y_lo) / (y_hi - y_lo) * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        # axes
        f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(size - _MARGIN)}" '
        f'x2="{_fmt(size - _MARGIN)}" y2="{_fmt(size - _MARGIN)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(_MARGIN)}" '
        f'x2="{_fmt(_MARGIN)}" y2="{_fmt(size - _MARGIN)}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(size - _MARGIN + 16)}" '
        f'font-size="10">{_fmt(x_lo)}</text>',
        f'<text x="{_fmt(size - _MARGIN)}" y="{_fmt(size - _MARGIN + 16)}" '
        f'font-size="10" text-anchor="end">{_fmt(x_hi)}</text>',
        f'<text x="{_fmt(_MARGIN - 4)}" y="{_fmt(size - _MARGIN)}" '
        f'font-size="10" text-anchor="end">{_fmt(y_lo)}</text>',
        f'<text x="{_fmt(_MARGIN - 4)}" y="{_fmt(_MARGIN)}" '
        f'font-size="10" text-anchor="end">{_fmt(y_hi)}</text>',
    ]
    if title:
        parts.append(f'<text x="{_fmt(size / 2)}" y="20" font-size="14" '
                     f'text-anchor="middle">'
                     f'{title.translate(_ESCAPES)}</text>')
    crosses = _emit_crosses(sx(samples[:, 0]), sy(samples[:, 1]),
                            _colors(sample_labels))
    circles = format_rows(
        '<circle cx="%.2f" cy="%.2f" r="5" fill="none" stroke="%s" '
        'stroke-width="2"/>', [sx(train_points[:, 0]),
                               sy(train_points[:, 1]),
                               _colors(train_labels)])
    return _blocks(parts, chain(crosses, circles))


def _colors(labels):
    """Palette color of each label."""
    return _PALETTE[np.asarray(labels, dtype=int) % len(PALETTE)]


def _emit_crosses(cx, cy, colors):
    """One path per cross centred on (cx, cy), arms 3 long, one list of
    lines per block of ``FORMAT_BLOCK_ROWS``.  Each of a cross's four
    distinct coordinates (cx - 3, cy - 3, cx + 3, cy + 3) is formatted
    once, as ``_fmt`` does, and used twice."""
    corners = (cx - 3, cy - 3, cx + 3, cy + 3)
    for start in range(0, len(cx), FORMAT_BLOCK_ROWS):
        block = slice(start, start + FORMAT_BLOCK_ROWS)
        x0, y0, x1, y1 = (["%.2f" % v for v in c[block].tolist()]
                          for c in corners)
        yield [f'<path d="M {a} {b} L {c} {d} M {a} {d} L {c} {b}" '
               f'stroke="{k}" stroke-width="1" opacity="0.6"/>'
               for a, b, c, d, k in zip(x0, y0, x1, y1,
                                        colors[block].tolist())]


def svg_image_grid(images, side, neighbors, title=""):
    """Grid of grayscale images; ``neighbors`` renders beneath each image.

    ``images`` and ``neighbors`` are (n, side*side), flat square images;
    values clipped to [0, 1].  Returns the text blocks.
    """
    images = np.asarray(images, dtype=np.float64).reshape(-1, side, side)
    neighbors = np.asarray(neighbors,
                           dtype=np.float64).reshape(len(images), side, side)
    n = len(images)
    columns = min(_COLUMNS, max(n, 1))
    rows = (n + columns - 1) // columns
    band = 2  # an image and its neighbour
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
    if np.isnan(stack).any():
        raise ValueError("image values must not be NaN")
    # each distinct coordinate is formatted once, as "%.2f": x by grid
    # column and pixel column, y by grid row, band and pixel row; a rect
    # joins the text of its x, of its y and of its gray level
    cells = np.arange(side) * px
    xs = (pad + np.arange(columns) * (_CELL + pad))[:, None] + cells
    yk = ((y_base + pad + np.arange(rows) * band * (_CELL + pad))[:, None]
          + np.arange(band) * (_CELL + 2))
    ys = yk[:, :, None] + cells
    heads = np.array(['<rect x="%.2f" y="' % v for v in xs.ravel().tolist()],
                     dtype=object)
    size = _fmt(px)
    mids = np.array(['%.2f" width="%s" height="%s" fill="' % (v, size, size)
                     for v in ys.ravel().tolist()], dtype=object)
    tails = np.array([f'{gray}"/>' for gray in _GRAYS.tolist()],
                     dtype=object)
    # (n, band, side, side) in the order the cells are drawn
    row, col = np.divmod(np.arange(n), columns)
    shape = (n, band, side, side)
    x_of = np.broadcast_to((col * side)[:, None, None, None]
                           + np.arange(side), shape).ravel()
    y_of = np.broadcast_to(
        (((row * band)[:, None] + np.arange(band)) * side)[:, :, None, None]
        + np.arange(side)[:, None], shape).ravel()
    level = np.rint(255 * np.clip(stack, 0.0, 1.0)).astype(np.intp).ravel()
    blocks = (slice(start, start + FORMAT_BLOCK_ROWS)
              for start in range(0, level.size, FORMAT_BLOCK_ROWS))
    return _blocks(parts, ((heads[x_of[block]] + mids[y_of[block]]
                            + tails[level[block]]).tolist()
                           for block in blocks))

"""Hand-rolled SVG emission for scatter plots and image grids.

No plotting dependency: the output is deterministic text, so plots can
be diffed and golden-tested.  Training points are circles colored by
class, generated points are crosses; image grids render 8-bit grayscale
cells, each image above its nearest dataset image.  A plot is returned as
an iterator of text blocks, each of whole lines, so that it can be
written a block at a time; the elements of a block are formatted when the
block is reached.  A scatter's elements are written as bytes, a block of
``FORMAT_BLOCK_ROWS`` lines at a time, into a matrix that holds the
constant text of its element (:func:`_rows`); a grid joins the texts of
its distinct coordinates and gray levels.
"""

from __future__ import annotations

import re
from itertools import chain

import numpy as np

from .datasets import FORMAT_BLOCK_ROWS

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

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

# a scatter's elements; {c} is the label's color, {i} a coordinate
_CROSS = ('<path d="M {0} {1} L {2} {3} M {0} {3} L {2} {1}" stroke="{c}" '
          'stroke-width="1" opacity="0.6"/>\n')
_CIRCLE = ('<circle cx="{0}" cy="{1}" r="5" fill="none" stroke="{c}" '
           'stroke-width="2"/>\n')


def _field_codes(texts, at):
    """Each of ``texts`` from byte ``at`` of an 8-byte field of
    :func:`_rows`, NUL elsewhere, as one uint64, so that the parts of a
    field are joined by ``|``."""
    fields = np.zeros((len(texts), 8), dtype=np.uint8)
    fields[:, at:at + len(texts[0])] = np.frombuffer(
        b"".join(texts), dtype=np.uint8).reshape(len(texts), -1)
    return fields.view(np.uint64)[:, 0]


# a coordinate's field: the sign, then the integer part 0-999 with NUL
# where no digit prints and the point, then the two decimals
_SIGNS = _field_codes([b"\0", b"-"], 0)
_INTEGERS = _field_codes([(b"%d." % i).rjust(4, b"\0")
                          for i in range(1000)], 1)
_DECIMALS = _field_codes([b"%02d" % i for i in range(100)], 5)
# a color's field, by label % len(PALETTE)
_COLORS = _field_codes([color.encode() for color in PALETTE], 0)


def _fmt(value):
    return f"{float(value):.2f}"


def _blocks(head, blocks):
    """The text of an SVG document: the lines of ``head``, then each
    block of whole lines of ``blocks``, then the closing tag, one string
    each."""
    yield "\n".join(head) + "\n"
    yield from blocks
    yield "</svg>\n"


def _axis_bounds(arrays):
    """Each axis from its least to its greatest coordinate, padded by a
    tenth of its span.  A span under 1e-9 of the axis's largest
    magnitude (and of 1) counts as that much, so points that share a
    coordinate still leave a pad that is not lost beside it."""
    allpts = np.vstack(arrays)
    if not len(allpts):
        return -1.0, 1.0, -1.0, 1.0
    lo, hi = allpts.min(axis=0), allpts.max(axis=0)
    floor = 1e-9 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    pad = 0.1 * np.maximum(hi - lo, floor)
    (x_lo, y_lo), (x_hi, y_hi) = lo - pad, hi + pad
    return x_lo, x_hi, y_lo, y_hi


def svg_scatter(train_points, train_labels, samples, sample_labels,
                title=""):
    """Scatter SVG: dataset points as circles, generated as crosses.

    The points are ``(n, 2)`` arrays, either of them possibly empty, each
    with an array of its class labels.  Returns the text blocks.
    """
    train_points = np.asarray(train_points, dtype=np.float64)
    samples = np.asarray(samples, dtype=np.float64)
    if not (np.isfinite(train_points).all() and np.isfinite(samples).all()):
        raise ValueError("scatter points must be finite")
    if (len(train_labels), len(sample_labels)) != (len(train_points),
                                                   len(samples)):
        raise ValueError("scatter points need one label each")
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

    def screen(points):
        return sx(points[:, 0]), sy(points[:, 1])

    def corners(points):
        cx, cy = screen(points)
        return cx - 3, cy - 3, cx + 3, cy + 3

    return _blocks(parts, chain(
        _rows(_CROSS, corners, samples, sample_labels),
        _rows(_CIRCLE, screen, train_points, train_labels)))


def _rows(template, coordinates, points, labels):
    """``template`` for each of ``points`` and ``labels``, one string per
    block of ``FORMAT_BLOCK_ROWS`` lines: ``{c}`` is the label's palette
    color, and ``{i}`` the i-th array of ``coordinates(points[block])``,
    each value as ``"%.2f"`` prints it.

    A block is written as bytes, its lines the rows of a uint8 matrix
    whose constant bytes are laid out once.  Each field is 8 bytes,
    written as one uint64: for a coordinate, the sign from
    ``np.signbit`` (so ``-0.00`` stays), the integer digits and the
    point, and the two decimals, from tables indexed by the count of
    hundredths.  NUL pads a field where no character prints, and the
    text drops it.  The count is ``rint(|v| * 100)``, the count
    ``"%.2f"`` rounds to, except within one ulp of a half-hundredth,
    where Python's ``"%.2f"`` gives it (:func:`_coordinate_codes`).  A
    block with a value past the tables is formatted by Python line by
    line.  So every byte is the one ``"%.2f"`` prints.

    The image grid keeps its tables of distinct texts: it has few
    distinct coordinates and gray levels, each in many rects, and on
    patterns-tv's 200 images it measured faster that way (5.1 ms
    against 6.7 ms through this writer).
    """
    pieces = re.split(r"\{(\w)\}", template)
    names = pieces[1::2]
    line, starts = bytearray(), []
    for literal, name in zip(pieces[::2], names):
        line += literal.encode()
        starts.append(len(line))
        line += bytes(8)
    line += pieces[-1].encode()
    matrix = np.empty((FORMAT_BLOCK_ROWS, len(line)), dtype=np.uint8)
    matrix[:] = np.frombuffer(line, dtype=np.uint8)
    fields = [(name, matrix[:, at:at + 8].view(np.uint64)[:, 0])
              for at, name in zip(starts, names)]
    colors = np.asarray(labels, dtype=int) % len(PALETTE)
    for start in range(0, len(points), FORMAT_BLOCK_ROWS):
        block = slice(start, start + FORMAT_BLOCK_ROWS)
        values = coordinates(points[block])
        codes = {str(i): _coordinate_codes(v) for i, v in enumerate(values)}
        if any(c is None for c in codes.values()):
            yield "".join(
                template.format(*("%.2f" % v for v in row), c=PALETTE[k])
                for *row, k in zip(*(v.tolist() for v in values),
                                   colors[block].tolist()))
            continue
        codes["c"] = _COLORS[colors[block]]
        n = len(codes["c"])
        for name, field in fields:
            field[:n] = codes[name]
        yield matrix[:n].tobytes().translate(None, b"\0").decode("ascii")


def _coordinate_codes(values):
    """The fields of ``values`` for :func:`_rows`, or None if one is past
    the tables: 999.99 or more in magnitude, or not finite.

    The count of hundredths of ``|v|`` is ``rint(|v| * 100)``, except
    where the product lies within one ulp of a half-hundredth: its
    rounding may have crossed the half, and ``"%.2f"`` rounds a half of
    the exact value to even.  There the count is read from Python's own
    ``"%.2f"``.
    """
    p = np.abs(values) * 100
    if not (p < 99999).all():  # also false on NaN
        return None
    h = np.rint(p)
    near = np.flatnonzero(np.abs(p - h) >= 0.5 - np.spacing(p))
    h[near] = [int(("%.2f" % v).replace(".", ""))
               for v in np.abs(values[near]).tolist()]
    whole, cents = np.divmod(h.astype(np.intp), 100)
    codes = _INTEGERS[whole]
    codes |= _DECIMALS[cents]
    # a bool array would select, not index
    codes |= _SIGNS[np.signbit(values).view(np.uint8)]
    return codes


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
    tails = np.array([f'{gray}"/>\n' for gray in _GRAYS.tolist()],
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
    return _blocks(parts, ("".join((heads[x_of[block]] + mids[y_of[block]]
                                    + tails[level[block]]).tolist())
                           for block in blocks))

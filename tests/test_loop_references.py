"""The post-training stage against the per-sample loops it replaced.

``nearest_neighbor``, the Euclidean nearest neighbours and the per-point
minimum of ``coverage_report``, the CSV writer and reader and the two
SVG emitters work on whole arrays.
The loops below are the code they replaced, kept as references: every
index and distance must be equal, and every text equal byte for byte.
"""

import numpy as np
import pytest

from kktgen import cli, kernels
from kktgen import datasets as ds
from kktgen import models as km
from kktgen.svgplot import PALETTE, _axis_bounds, svg_image_grid, svg_scatter

# ---------------------------------------------------------------------------
# references: the replaced loops


def loop_nearest_neighbor(samples, dataset, metric="euclidean"):
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    out = []
    if metric == "euclidean":
        for s in samples:
            d = np.linalg.norm(dataset.x - s, axis=1)
            idx = int(np.argmin(d))
            out.append((idx, float(d[idx])))
    else:
        side = int(round(np.sqrt(dataset.dim)))
        for s in samples:
            scores = kernels.ssim_uniform(
                s.reshape(1, side, side), dataset.x.reshape(-1, side, side),
                min(8, side), ds.SSIM_K1 ** 2, ds.SSIM_K2 ** 2)[0]
            idx = int(np.argmax(scores))
            out.append((idx, float(scores[idx])))
    return out


def loop_per_point_min(samples, dataset):
    return np.array([float(np.min(np.linalg.norm(samples - p, axis=1)))
                     for p in dataset.x])


def loop_write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                f"{v:.17g}" if isinstance(v, float) else str(v)
                for v in row) + "\n")


def loop_read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows, dtype=np.float64).reshape(len(rows),
                                                            len(header))


def _fmt(value):
    return f"{float(value):.2f}"


def _gray(value):
    level = int(round(255 * min(max(float(value), 0.0), 1.0)))
    return f"#{level:02x}{level:02x}{level:02x}"


def loop_svg_scatter(train_points=None, train_labels=None, samples=None,
                     sample_labels=None, size=480, title=""):
    margin = 40.0
    x_lo, x_hi, y_lo, y_hi = _axis_bounds([train_points, samples])
    span = size - 2 * margin

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * span

    def sy(y):
        return size - margin - (y - y_lo) / (y_hi - y_lo) * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{_fmt(margin)}" y1="{_fmt(size - margin)}" '
        f'x2="{_fmt(size - margin)}" y2="{_fmt(size - margin)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(margin)}" y1="{_fmt(margin)}" '
        f'x2="{_fmt(margin)}" y2="{_fmt(size - margin)}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{_fmt(margin)}" y="{_fmt(size - margin + 16)}" '
        f'font-size="10">{_fmt(x_lo)}</text>',
        f'<text x="{_fmt(size - margin)}" y="{_fmt(size - margin + 16)}" '
        f'font-size="10" text-anchor="end">{_fmt(x_hi)}</text>',
        f'<text x="{_fmt(margin - 4)}" y="{_fmt(size - margin)}" '
        f'font-size="10" text-anchor="end">{_fmt(y_lo)}</text>',
        f'<text x="{_fmt(margin - 4)}" y="{_fmt(margin)}" '
        f'font-size="10" text-anchor="end">{_fmt(y_hi)}</text>',
    ]
    if title:
        parts.append(f'<text x="{_fmt(size / 2)}" y="20" font-size="14" '
                     f'text-anchor="middle">{title}</text>')
    if samples is not None and np.size(samples):
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        labels = (np.zeros(len(samples), dtype=int) if sample_labels is None
                  else np.asarray(sample_labels, dtype=int))
        for p, lab in zip(samples, labels):
            cx, cy = sx(p[0]), sy(p[1])
            color = PALETTE[int(lab) % len(PALETTE)]
            parts.append(
                f'<path d="M {_fmt(cx - 3)} {_fmt(cy - 3)} '
                f'L {_fmt(cx + 3)} {_fmt(cy + 3)} '
                f'M {_fmt(cx - 3)} {_fmt(cy + 3)} '
                f'L {_fmt(cx + 3)} {_fmt(cy - 3)}" '
                f'stroke="{color}" stroke-width="1" opacity="0.6"/>')
    if train_points is not None and np.size(train_points):
        train_points = np.atleast_2d(
            np.asarray(train_points, dtype=np.float64))
        labels = (np.zeros(len(train_points), dtype=int)
                  if train_labels is None
                  else np.asarray(train_labels, dtype=int))
        for p, lab in zip(train_points, labels):
            color = PALETTE[int(lab) % len(PALETTE)]
            parts.append(
                f'<circle cx="{_fmt(sx(p[0]))}" cy="{_fmt(sy(p[1]))}" '
                f'r="5" fill="none" stroke="{color}" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def loop_svg_image_grid(images, neighbors=None, side=None, cell=48,
                        columns=10, title=""):
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 2 and side is None:
        side = int(round(np.sqrt(images.shape[1])))
    if images.ndim == 3:
        side = images.shape[1]
    images = images.reshape(len(images), side, side) if len(images) else \
        images.reshape(0, side or 1, side or 1)
    if neighbors is not None:
        neighbors = np.asarray(neighbors,
                               dtype=np.float64).reshape(len(images), side,
                                                         side)
    n = len(images)
    columns = max(1, min(columns, max(n, 1)))
    rows = (n + columns - 1) // columns if n else 0
    band = 2 if neighbors is not None else 1
    pad = 8
    width = columns * (cell + pad) + pad
    height = max(rows * band * (cell + pad) + pad + (20 if title else 0),
                 cell)
    px = cell / side if side else cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_fmt(width / 2)}" y="14" font-size="12" '
                     f'text-anchor="middle">{title}</text>')
    y_base = 20 if title else 0
    for i in range(n):
        row, col = divmod(i, columns)
        x0 = pad + col * (cell + pad)
        y0 = y_base + pad + row * band * (cell + pad)
        stack = [images[i]] if neighbors is None else [images[i],
                                                       neighbors[i]]
        for k, img in enumerate(stack):
            yk = y0 + k * (cell + 2)
            for r in range(side):
                for c in range(side):
                    parts.append(
                        f'<rect x="{_fmt(x0 + c * px)}" '
                        f'y="{_fmt(yk + r * px)}" width="{_fmt(px)}" '
                        f'height="{_fmt(px)}" fill="{_gray(img[r, c])}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# inputs


def odd_values(rng, n):
    """Values a formatter or a rounding can get wrong: signed zeros,
    subnormals, extremes and exact decimal halves, among random ones."""
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1e-300, -1e300, 1.7976931348623157e308, 0.125,
                        -0.375, 2.5, 1e16 + 2, 0.1, 1.0 / 3.0])
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    values[:special.size] = special[:n]
    return values


def with_ties(rng, n):
    """A 3x3 integer lattice and n samples; the first ones sit at exact
    distance ties (half-integer points, between two or four lattice
    points) or on a lattice point, with a ``-0.0`` coordinate."""
    grid = np.stack(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]),
                    axis=-1).reshape(9, 2)
    lattice = ds.LabeledDataset(grid, np.arange(9) % 3)
    special = np.array([[0.5, 0.5], [-0.5, 0.0], [0.0, -0.0], [1.0, -1.0],
                        [0.5, -0.5], [2.0, 0.5]])
    samples = rng.standard_normal((n, 2))
    k = min(n, len(special))
    samples[:k] = special[:k]
    return lattice, samples


def small_blocks(monkeypatch, rows):
    """Make blocked passes take ``rows`` samples per block."""
    monkeypatch.setattr(km, "_block_rows", lambda row_bytes: rows)


def assert_coverage_finds_nearest(samples, data):
    """``coverage_report``'s Euclidean nearest neighbours against the
    loop's: the mean distance, and with every point labelled by its own
    index, agreement 1 for the loop's indices as sample labels."""
    nn = loop_nearest_neighbor(samples, data)
    indexed = ds.LabeledDataset(data.x, np.arange(data.size))
    report = ds.coverage_report(samples, [i for i, _ in nn], indexed, None,
                                None)
    assert report.label_agreement == 1.0
    assert report.mean_nn_distance == float(np.mean([d for _, d in nn]))


# ---------------------------------------------------------------------------
# datasets


@pytest.mark.parametrize("n", [0, 1, 7, 8000])
@pytest.mark.parametrize("block", [None, 3])
def test_nearest_neighbor_euclidean_matches_loop(monkeypatch, n, block):
    """The Euclidean search of ``coverage_report``; 8000 circle samples
    fill more than two default blocks."""
    assert 8000 > 2 * km._block_rows(ds.circle_dataset().x.size * 8)
    rng = np.random.default_rng(n)
    lattice, samples = with_ties(rng, n)
    if block:
        small_blocks(monkeypatch, block)
    if not n:
        with pytest.raises(ValueError, match="at least one sample"):
            ds.coverage_report(samples, np.zeros(0), lattice, None, None)
        return
    for data in (lattice, ds.circle_dataset()):
        assert_coverage_finds_nearest(samples, data)
    # (0.5, 0.5) ties lattice points 4, 5, 7 and 8: the lowest wins
    assert loop_nearest_neighbor(samples[:1], lattice)[0][0] == 4


def test_nearest_neighbor_64d_matches_loop(monkeypatch, patterns):
    rng = np.random.default_rng(64)
    data = patterns(20, 0.05, 3)
    samples = rng.random((45, 64))
    samples[:5] = data.x[:5]
    samples[5, :] = -0.0
    small_blocks(monkeypatch, 4)
    assert_coverage_finds_nearest(samples, data)


@pytest.mark.parametrize("side", [8, 10])
@pytest.mark.parametrize("block", [None, 4])
def test_nearest_neighbor_ssim_matches_loop(monkeypatch, patterns, side,
                                           block):
    """64-d (one 8x8 window) and 100-d (9 windows of 8x8) stacks; the
    jitter-free patterns hold equal images, so scores tie."""
    rng = np.random.default_rng(side)
    if side == 8:
        data = patterns(6, 0.0, 0)
    else:
        x = rng.random((12, side * side))
        x[7] = x[3]
        data = ds.LabeledDataset(x, np.arange(12) % 2)
    samples = rng.random((23, side * side))
    samples[:3] = data.x[[0, 3, 7]]
    if block:
        small_blocks(monkeypatch, block)
    got = ds.nearest_neighbor(samples, data)
    assert got.dtype == np.intp
    assert got.tolist() == [i for i, _ in loop_nearest_neighbor(
        samples, data, metric="ssim")]
    assert got[0] == 0


@pytest.mark.parametrize("n", [1, 5, 600])
@pytest.mark.parametrize("block", [None, 2])
def test_coverage_report_per_point_minimum_matches_loop(monkeypatch, n,
                                                        block):
    rng = np.random.default_rng(n + 1)
    lattice, samples = with_ties(rng, n)
    labels = rng.integers(0, 3, n)
    if block:
        small_blocks(monkeypatch, block)
    for data in (lattice, ds.circle_dataset()):
        report = ds.coverage_report(samples, labels, data, None, None)
        want = loop_per_point_min(samples, data)
        assert report.per_point_min_distance.tobytes() == want.tobytes()
        nn = loop_nearest_neighbor(samples, data)
        assert report.mean_nn_distance == float(np.mean([d for _, d in nn]))
        assert report.label_agreement == float(np.mean(
            labels == data.labels[[i for i, _ in nn]]))


def test_coverage_report_needs_samples():
    with pytest.raises(ValueError, match="at least one sample"):
        ds.coverage_report(np.zeros((0, 2)), np.zeros(0), ds.circle_dataset(),
                           None, None)


def test_block_rows_keep_temporaries_under_the_cap():
    row_bytes = 18 * 2 * 8
    assert km._block_rows(row_bytes) * row_bytes <= km.BLOCK_BYTES
    assert km._block_rows(km.BLOCK_BYTES * 3) == 1


# ---------------------------------------------------------------------------
# CSV


def test_write_csv_matches_loop(tmp_path):
    rng = np.random.default_rng(7)
    n = 300
    x = odd_values(rng, 2 * n).reshape(n, 2)
    x[-3:] = [[np.inf, -np.inf], [np.nan, 0.5], [-0.0, 5e-324]]
    y = rng.integers(0, 3, n)
    t = rng.integers(0, 2, n)
    tables = {
        "samples": (["x0", "x1", "y", "t"],
                    [[float(v) for v in xi] + [int(yi), int(ti)]
                     for xi, yi, ti in zip(x, y, t)],
                    [x[:, 0], x[:, 1], y, t]),
        "report": (["metric", "value"],
                   [["mean_nn_distance", 0.1], ["label_agreement", 1.0],
                    ["point0_min_distance", 5e-324]],
                   [["mean_nn_distance", "label_agreement",
                     "point0_min_distance"], [0.1, 1.0, 5e-324]]),
        "history": (["step", "t", "loss"],
                    [[k, -1, v] for k, v in enumerate(x[:, 0].tolist())],
                    [np.arange(n), [-1] * n, x[:, 0].tolist()]),
        "empty": (["x0", "y", "t"], [], [np.zeros(0), np.zeros(0, int),
                                         np.zeros(0, int)]),
    }
    for name, (header, rows, columns) in tables.items():
        want, got = tmp_path / f"{name}_loop.csv", tmp_path / f"{name}.csv"
        loop_write_csv(want, header, rows)
        cli._write_csv(got, header, columns)
        assert got.read_bytes() == want.read_bytes(), name


@pytest.mark.parametrize("n", [0, 1, 250])
def test_read_csv_matches_loop(tmp_path, n):
    rng = np.random.default_rng(n + 11)
    values = odd_values(rng, 3 * n).reshape(n, 3)
    path = tmp_path / "rows.csv"
    loop_write_csv(path, ["x0", "x1", "y"], values.tolist())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")  # a trailing blank line is no row
    header, rows = ds.read_csv(path)
    want_header, want = loop_read_rows(path)
    assert header == want_header
    assert rows.shape == want.shape == (n, 3)
    assert rows.tobytes() == want.tobytes()


def test_samples_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    x = odd_values(rng, 40).reshape(20, 2)
    y, t = rng.integers(0, 3, 20), rng.integers(0, 2, 20)
    path = tmp_path / "samples.csv"
    cli._write_csv(path, ["x0", "x1", "y", "t"], [*x.T, y, t])
    got_x, got_y = cli._read_samples_csv(str(path), ds.circle_dataset())
    assert got_x.tobytes() == x.tobytes()
    assert np.array_equal(got_y, y)


# ---------------------------------------------------------------------------
# SVG


def scatter_inputs(rng, n):
    """Samples in [0, 10]^2; the first ones are the points k/64 of that
    range, whose crosses land on exact ``%.2f`` halves, and ``-0.0``."""
    samples = rng.random((n, 2)) * 10.0
    special = np.vstack([[[0.0, -0.0], [10.0, 10.0]],
                         np.repeat(10.0 * np.arange(65)[:, None] / 64.0, 2,
                                   axis=1)])
    k = min(n, len(special))
    samples[:k] = special[:k]
    return samples


def lines(svg):
    """An SVG text as its lines: on a mismatch pytest diffs the lists in
    about a second, where its diff of two whole texts of this size takes
    minutes."""
    return svg.split("\n")


@pytest.mark.parametrize("n", [0, 1, 2, 500])
def test_svg_scatter_matches_loop(n):
    rng = np.random.default_rng(n + 3)
    circle = ds.circle_dataset()
    samples = scatter_inputs(rng, n) if n else np.zeros((0, 2))
    labels = rng.integers(-2, 14, n)  # negative and past the palette
    none = np.zeros((0, 2)), np.zeros(0, dtype=int)
    for args in [(circle.x * 5, circle.labels, samples, labels),
                 (*none, samples, np.zeros(n, dtype=int)),
                 (circle.x, np.zeros(circle.size, dtype=int), *none)]:
        got = "".join(svg_scatter(*args, title="t"))
        assert lines(got) == lines(loop_svg_scatter(*args, title="t"))


def test_svg_scatter_crosses_hit_decimal_halves():
    """The grid points of scatter_inputs do exercise ``%.2f`` ties."""
    from fractions import Fraction

    samples = scatter_inputs(np.random.default_rng(0), 100)
    x_lo, x_hi, _, _ = _axis_bounds([samples])
    cx = 40.0 + (samples[:, 0] - x_lo) / (x_hi - x_lo) * 400.0
    ties = [v for v in np.concatenate([cx - 3, cx + 3]).tolist()
            if (Fraction(v) * 100).denominator == 2]
    assert ties
    labels = np.zeros(len(samples), dtype=int)
    none = np.zeros((0, 2)), np.zeros(0, dtype=int)
    got = "".join(svg_scatter(*none, samples, labels))
    assert lines(got) == lines(
        loop_svg_scatter(*none, samples, labels))


def gray_halves():
    """Values v with 255 v exactly k + 1/2: the level rounds half to even."""
    return np.array([v for v in ((np.arange(255) + 0.5) / 255).tolist()
                     if 255 * v == int(255 * v) + 0.5])


@pytest.mark.parametrize("n", [0, 1, 13])
# the grid's cell size, which the loop reference takes as an argument
@pytest.mark.parametrize("cell", [48])
def test_svg_image_grid_matches_loop(n, cell):
    rng = np.random.default_rng(n + cell)
    images = rng.random((n, 64)) * 1.4 - 0.2
    halves = gray_halves()
    assert halves.size > 50
    flat = images.reshape(-1)
    flat[:min(flat.size, halves.size)] = halves[:flat.size]
    flat[halves.size:halves.size + 4] = [-0.0, 5e-324, np.inf, -np.inf][
        :max(0, min(4, flat.size - halves.size))]
    neighbors = rng.random((n, 64))
    for kwargs in [{"neighbors": neighbors},
                   {"neighbors": neighbors, "title": "grid"}]:
        got = "".join(svg_image_grid(images, 8, **kwargs))
        assert lines(got) == lines(loop_svg_image_grid(
            images, side=8, cell=cell, **kwargs))


def test_svg_image_grid_cells_at_decimal_halves_match_loop():
    """128x128 images in 48-unit cells put every other pixel at an exact
    ``%.2f`` half (multiples of 0.375)."""
    rng = np.random.default_rng(128)
    images, neighbors = rng.random((2, 2, 128 * 128))
    got = "".join(svg_image_grid(images, 128, neighbors))
    assert lines(got) == lines(
        loop_svg_image_grid(images, neighbors=neighbors, side=128))


def test_svg_image_grid_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        svg_image_grid(np.full((1, 64), np.nan), 8, np.zeros((1, 64)))

"""Synthetic datasets and evaluation metrics for the desk-scale experiments.

The 2-d circle dataset is the reference benchmark: 18 points evenly
spaced on the unit circle, three contiguous 120-degree arcs as classes.
The 8x8 stripes-vs-checkerboard patterns stand in for image data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels, models
from .models import mlp_apply_np

SSIM_K1 = 0.01
SSIM_K2 = 0.03

# rows formatted per block of text: bounds the Python numbers alive at once
FORMAT_BLOCK_ROWS = 1024

# the 8x8 patterns: images per class, pixel flip chance, seed of the flips
PATTERN_PER_CLASS = 50
PATTERN_JITTER = 0.02
PATTERN_SEED = 0


@dataclass
class LabeledDataset:
    x: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,)
    name: str = ""
    num_classes: int = 0

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.x.shape[0] != self.labels.size:
            raise ValueError("points and labels must have equal length")
        if self.num_classes == 0:
            self.num_classes = int(self.labels.max()) + 1 if self.labels.size else 0
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise ValueError("label out of range")

    @property
    def size(self):
        return self.x.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]

    def subset(self, idx, name):
        return LabeledDataset(self.x[idx], self.labels[idx], name,
                              self.num_classes)


@dataclass
class CoverageReport:
    """Distance-based summary of how generated samples cover a dataset."""

    mean_nn_distance: float
    per_point_min_distance: np.ndarray
    label_agreement: float

    def __post_init__(self):
        if not 0.0 <= self.label_agreement <= 1.0:
            raise ValueError("label agreement must lie in [0, 1]")


def circle_dataset():
    """18 unit-circle points at angles 2*pi*k/18, three contiguous arcs."""
    angles = 2.0 * np.pi * np.arange(18) / 18.0
    x = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    labels = np.repeat(np.arange(3), 6)
    return LabeledDataset(x, labels, num_classes=3)


def split_dataset(dataset):
    """Split each class in half into two balanced datasets: the arc split,
    which gives the first half of each class to the first."""
    idx_a, idx_b = [], []
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        if members.size % 2 != 0:
            raise ValueError(f"class {c} has odd size {members.size}")
        half = members.size // 2
        idx_a.extend(members[:half])
        idx_b.extend(members[half:])
    idx_a, idx_b = sorted(idx_a), sorted(idx_b)
    return (dataset.subset(idx_a, dataset.name + "_split1"),
            dataset.subset(idx_b, dataset.name + "_split2"))


def pattern_dataset():
    """8x8 binary patterns: horizontal stripes (class 0) vs checkerboard
    (class 1), with seeded bit-flip jitter."""
    rows, cols = np.indices((8, 8))
    stripes = (rows % 2 == 0).astype(np.float64)
    checks = ((rows + cols) % 2 == 0).astype(np.float64)
    rng = np.random.default_rng(PATTERN_SEED)
    samples, labels = [], []
    for label, base in enumerate((stripes, checks)):
        for _ in range(PATTERN_PER_CLASS):
            img = base.copy()
            flips = rng.random((8, 8)) < PATTERN_JITTER
            img[flips] = 1.0 - img[flips]
            samples.append(img.reshape(-1))
            labels.append(label)
    return LabeledDataset(np.array(samples), np.array(labels),
                          num_classes=2)


# the built-in datasets by config kind, which is also the dataset's name
BUILTIN_DATASETS = {"circle18": circle_dataset,
                    "stripes-vs-checks-8x8": pattern_dataset}


def _distance_blocks(samples, points):
    """``(start, d)`` for blocks of samples, ``d[i, j]`` the euclidean
    distance from sample ``start + i`` to point ``j``.

    The operations are those of ``np.linalg.norm(points - s, axis=1)``
    (``sqrt(add.reduce(diff * diff, axis=-1))``), so every distance has
    the same bits; ``s - p`` is exactly ``-(p - s)``.  They write into
    two buffers bound once per call, so ``d`` is valid until the next
    block.
    """
    step = models._block_rows(points.size * 8)
    diff = np.empty((min(step, samples.shape[0]), *points.shape))
    dist = np.empty(diff.shape[:2])
    for start in range(0, samples.shape[0], step):
        block = samples[start:start + step, None, :]
        d, sq = dist[:block.shape[0]], diff[:block.shape[0]]
        np.subtract(block, points, out=sq)
        np.multiply(sq, sq, out=sq)
        np.add.reduce(sq, axis=-1, out=d)
        yield start, np.sqrt(d, out=d)


def _ssim_blocks(samples, dataset):
    """``(start, scores)`` for blocks of samples, ``scores[i, j]`` the
    SSIM of sample ``start + i`` against dataset image ``j``, one
    :func:`kernels.ssim_uniform` call per block."""
    side = int(round(np.sqrt(dataset.dim)))
    if side * side != dataset.dim:
        raise ValueError("ssim metric requires square image data")
    images = dataset.x.reshape(dataset.size, side, side)
    # the SSIM constants (K * data range)^2 at data range 1
    c1, c2 = SSIM_K1 ** 2, SSIM_K2 ** 2
    step = models._block_rows(dataset.x.size * 8)
    for start in range(0, samples.shape[0], step):
        block = samples[start:start + step].reshape(-1, side, side)
        yield start, kernels.ssim_uniform(block, images, min(8, side), c1,
                                          c2)


def nearest_neighbor(samples, dataset):
    """Per-sample index of the most similar dataset image by SSIM.

    Ties go to the lowest index.  Samples are scored a block at a time
    against the whole dataset.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if dataset.size == 0:
        raise ValueError("dataset must be nonempty")
    idx = np.empty(samples.shape[0], dtype=np.intp)
    for start, scores in _ssim_blocks(samples, dataset):
        np.argmax(scores, axis=1, out=idx[start:start + scores.shape[0]])
    return idx


def coverage_report(samples, sample_labels, dataset, spec, zeta):
    """Coverage summary; label agreement uses the classifier when given
    (``spec`` and ``zeta`` not None), else the nearest point's label."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[1] != dataset.dim:
        raise ValueError("dimension mismatch between samples and dataset")
    if samples.shape[0] == 0:
        raise ValueError("coverage needs at least one sample")
    # each sample's nearest point and distance, and each point's nearest
    # sample distance, from one pass over the distances
    nn_idx = np.empty(samples.shape[0], dtype=np.intp)
    nn_dist = np.empty(samples.shape[0])
    per_point = np.full(dataset.size, np.inf)
    for start, d in _distance_blocks(samples, dataset.x):
        block = slice(start, start + d.shape[0])
        nn_idx[block] = np.argmin(d, axis=1)
        nn_dist[block] = d[np.arange(d.shape[0]), nn_idx[block]]
        np.minimum(per_point, d.min(axis=0), out=per_point)
    mean_nn = float(np.mean(nn_dist))
    if spec is not None and zeta is not None:
        pred = np.argmax(mlp_apply_np(spec, zeta, samples), axis=1)
    else:
        pred = dataset.labels[nn_idx]
    agreement = float(np.mean(pred == np.asarray(sample_labels)))
    return CoverageReport(mean_nn_distance=mean_nn,
                          per_point_min_distance=per_point,
                          label_agreement=agreement)


class CsvError(ValueError):
    """A CSV file that cannot be used; the message names the file, and
    the data row (1-based, empty lines not counted) where there is one."""

    def __init__(self, path, what, row=None):
        where = f"{path}" if row is None else f"{path}, row {row}"
        super().__init__(f"{where}: {what}")


def reject_rows(path, bad, what):
    """Raise :class:`CsvError` at the first row where ``bad`` is set."""
    if bad.any():
        raise CsvError(path, what, int(np.argmax(bad)) + 1)


def integer_column(path, values, name):
    """A float column as int64; a row whose value is not an integer is a
    :class:`CsvError`."""
    exact = (np.abs(values) < 2.0 ** 53) & (values == np.rint(values))
    reject_rows(path, ~exact, f"{name} is not an integer")
    return values.astype(np.int64)


def format_rows(template, columns):
    """``template % row`` for each row of the equal-length columns, one
    list of lines per block of ``FORMAT_BLOCK_ROWS`` rows: the text of
    the CSV files and of the SVG elements."""
    columns = [np.asarray(c) for c in columns]
    for start in range(0, len(columns[0]), FORMAT_BLOCK_ROWS):
        rows = zip(*(c[start:start + FORMAT_BLOCK_ROWS].tolist()
                     for c in columns))
        yield [template % row for row in rows]


def _first_bad_row(path, width):
    """(row, reason) of the first data row ``np.loadtxt`` rejects."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.readlines()[1:] if ln.rstrip("\r\n")]
    for row, line in enumerate(lines, start=1):
        fields = line.count(",") + 1
        if fields != width:
            return row, f"has {fields} fields, the header {width}"
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            return row, "has a field that is not a number"
    return None, "is not a CSV file of numbers"


def read_csv(path):
    """Header names and float rows ``(n, len(header))`` of a CSV file.

    The first line is the header; every further nonempty line is a row
    of as many numbers as the header has names.  A file that breaks
    this raises :class:`CsvError`; a missing file raises ``OSError``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header:
                raise CsvError(path, "empty file (no header line)")
            names = header.split(",")
            with warnings.catch_warnings():
                # a header-only file is zero rows, not a warning
                warnings.simplefilter("ignore", UserWarning)
                try:
                    rows = np.loadtxt(fh, delimiter=",", ndmin=2,
                                      comments=None)
                except ValueError:
                    rows = None
        if rows is None:
            row, what = _first_bad_row(path, len(names))
            raise CsvError(path, what, row)
    except UnicodeDecodeError:
        raise CsvError(path, "is not UTF-8 text") from None
    if rows.size == 0:
        return names, np.empty((0, len(names)))
    if rows.shape[1] != len(names):
        raise CsvError(path, f"has {rows.shape[1]} fields, the header "
                       f"{len(names)}", 1)
    return names, rows


def dataset_from_csv(path, name, num_classes):
    """Points ``x0..x{d-1}`` and an integer label in the last column;
    ``num_classes`` 0 counts the classes from the labels."""
    names, rows = read_csv(path)
    if len(names) < 2:
        raise CsvError(path, "expected columns x0,...,label")
    if rows.shape[0] == 0:
        raise CsvError(path, "no data rows")
    x, labels = rows[:, :-1], integer_column(path, rows[:, -1], "label")
    reject_rows(path, ~np.isfinite(x).all(axis=1),
                "has a coordinate that is not finite")
    out_of_range = labels < 0
    if num_classes:
        out_of_range |= labels >= num_classes
    reject_rows(path, out_of_range, "label out of range")
    return LabeledDataset(x, labels, name, num_classes)

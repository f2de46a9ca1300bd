"""Synthetic datasets and evaluation metrics for the desk-scale experiments.

The 2-d circle dataset is the reference benchmark: 18 points evenly
spaced on the unit circle, three contiguous 120-degree arcs as classes.
The 8x8 stripes-vs-checkerboard patterns stand in for image data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .models import mlp_apply_np

SSIM_K1 = 0.01
SSIM_K2 = 0.03


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

    def subset(self, idx, name=None):
        return LabeledDataset(self.x[idx], self.labels[idx],
                              name or self.name, self.num_classes)


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
    return LabeledDataset(x, labels, name="circle18", num_classes=3)


def split_dataset(dataset, mode="alternating"):
    """Split each class in half into two balanced datasets.

    ``alternating`` interleaves by index within each class; ``arc`` gives
    the first half of each class to the first split.
    """
    if mode not in ("alternating", "arc"):
        raise ValueError(f"unknown split mode {mode!r}")
    idx_a, idx_b = [], []
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        if members.size % 2 != 0:
            raise ValueError(f"class {c} has odd size {members.size}")
        if mode == "alternating":
            idx_a.extend(members[0::2])
            idx_b.extend(members[1::2])
        else:
            half = members.size // 2
            idx_a.extend(members[:half])
            idx_b.extend(members[half:])
    idx_a, idx_b = sorted(idx_a), sorted(idx_b)
    return (dataset.subset(idx_a, dataset.name + "_split1"),
            dataset.subset(idx_b, dataset.name + "_split2"))


def pattern_dataset(kind="stripes-vs-checks-8x8", per_class=50,
                    jitter=0.02, seed=0):
    """8x8 binary patterns: horizontal stripes (class 0) vs checkerboard
    (class 1), with seeded bit-flip jitter."""
    if kind != "stripes-vs-checks-8x8":
        raise ValueError(f"unknown pattern kind {kind!r}")
    rows, cols = np.indices((8, 8))
    stripes = (rows % 2 == 0).astype(np.float64)
    checks = ((rows + cols) % 2 == 0).astype(np.float64)
    rng = np.random.default_rng(seed)
    samples, labels = [], []
    for label, base in enumerate((stripes, checks)):
        for _ in range(per_class):
            img = base.copy()
            if jitter > 0:
                flips = rng.random((8, 8)) < jitter
                img[flips] = 1.0 - img[flips]
            samples.append(img.reshape(-1))
            labels.append(label)
    return LabeledDataset(np.array(samples), np.array(labels),
                          name=kind, num_classes=2)


def ssim(a, b, window=8, k1=SSIM_K1, k2=SSIM_K2, data_range=1.0):
    """Single-scale SSIM with a uniform window; ssim(a, a) = 1.

    ``a`` is one image, flat (square) or 2-d; ``b`` is one image of the
    same shape, giving a float, or a stack of them, giving one score each.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if b.shape[b.ndim - a.ndim:] != a.shape or b.ndim > a.ndim + 1:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        side = int(round(np.sqrt(a.size)))
        if side * side != a.size:
            raise ValueError("flat image length is not a perfect square")
        a = a.reshape(side, side)
        b = b.reshape(*b.shape[:-1], side, side)
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    return kernels.ssim_uniform(a, b, window, c1, c2)


def nearest_neighbor(samples, dataset, metric="euclidean"):
    """Per-sample (index, score) of the closest dataset point.

    Euclidean minimizes distance; SSIM maximizes similarity.  Ties go to
    the lowest index.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if dataset.size == 0:
        raise ValueError("dataset must be nonempty")
    out = []
    if metric == "euclidean":
        for s in samples:
            d = np.linalg.norm(dataset.x - s, axis=1)
            idx = int(np.argmin(d))
            out.append((idx, float(d[idx])))
    elif metric == "ssim":
        side = int(round(np.sqrt(dataset.dim)))
        if side * side != dataset.dim:
            raise ValueError("ssim metric requires square image data")
        for s in samples:
            scores = ssim(s, dataset.x, window=min(8, side))
            idx = int(np.argmax(scores))
            out.append((idx, float(scores[idx])))
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return out


def coverage_report(samples, sample_labels, dataset, spec=None, zeta=None):
    """Coverage summary; label agreement uses the classifier when given."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[1] != dataset.dim:
        raise ValueError("dimension mismatch between samples and dataset")
    nn = nearest_neighbor(samples, dataset)
    mean_nn = float(np.mean([d for _, d in nn])) if len(nn) else 0.0
    per_point = np.array([
        float(np.min(np.linalg.norm(samples - p, axis=1)))
        for p in dataset.x])
    if spec is not None and zeta is not None:
        pred = np.argmax(mlp_apply_np(spec, zeta, samples), axis=1)
        agreement = float(np.mean(pred == np.asarray(sample_labels)))
    else:
        agreement = 1.0 if samples.shape[0] == 0 else float(
            np.mean(np.asarray(sample_labels)
                    == dataset.labels[[i for i, _ in nn]]))
    return CoverageReport(mean_nn_distance=mean_nn,
                          per_point_min_distance=per_point,
                          label_agreement=agreement)


def dataset_from_csv(path, name="", num_classes=0):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    body = lines[1:]
    pts, labels = [], []
    for ln in body:
        parts = ln.split(",")
        pts.append([float(v) for v in parts[:-1]])
        labels.append(int(parts[-1]))
    return LabeledDataset(np.array(pts), np.array(labels), name,
                          num_classes)

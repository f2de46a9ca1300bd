"""Unit tests for datasets, splits and coverage metrics."""

import numpy as np
import pytest

import kktgen.datasets as ds
import kktgen.kernels as kernels
import kktgen.models as km
import kktgen.training as tr
from kktgen.config import RunConfig
from kktgen.datasets import LabeledDataset


def test_circle_dataset_geometry():
    circle = ds.circle_dataset()
    assert circle.size == 18 and circle.dim == 2
    assert circle.num_classes == 3
    assert np.allclose(np.linalg.norm(circle.x, axis=1), 1.0)
    assert np.array_equal(circle.labels, np.repeat([0, 1, 2], 6))
    want = 2 * np.pi * np.arange(18) / 18
    assert np.allclose(circle.x[:, 0], np.cos(want))
    assert np.allclose(circle.x[:, 1], np.sin(want))


def test_labeled_dataset_validation():
    with pytest.raises(ValueError, match="equal length"):
        LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError, match="out of range"):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 5]), num_classes=2)


def test_split_arc():
    circle = ds.circle_dataset()
    a, b = ds.split_dataset(circle)
    assert a.size == b.size == 9
    assert np.array_equal(a.labels, np.repeat([0, 1, 2], 3))
    assert np.allclose(a.x[:3], circle.x[[0, 1, 2]])
    assert np.allclose(b.x[:3], circle.x[[3, 4, 5]])
    assert a.num_classes == 3


def test_split_validation():
    odd = ds.circle_dataset().subset(np.arange(17), "odd")
    with pytest.raises(ValueError, match="odd size"):
        ds.split_dataset(odd)


def test_pattern_dataset(patterns):
    data = patterns(10, 0.0, 0)
    assert data.size == 20 and data.dim == 64
    stripes = data.x[0].reshape(8, 8)
    assert np.array_equal(stripes[0], np.ones(8))
    assert np.array_equal(stripes[1], np.zeros(8))
    checks = data.x[10].reshape(8, 8)
    assert checks[0, 0] == 1.0 and checks[0, 1] == 0.0
    jit_a = patterns(10, 0.1, 4)
    jit_b = patterns(10, 0.1, 4)
    assert np.array_equal(jit_a.x, jit_b.x)
    assert not np.array_equal(jit_a.x, data.x)


def test_ssim_metric_properties(patterns):
    """The SSIM of the nearest-neighbour search, with the dataset's
    constants: 1 for an image against itself, low for stripes against
    checks; flat images that are not square are refused."""
    a, b = patterns(1, 0.0, 0).x.reshape(2, 1, 8, 8)
    c1, c2 = ds.SSIM_K1 ** 2, ds.SSIM_K2 ** 2
    assert kernels.ssim_uniform(a, a, 8, c1, c2) == pytest.approx(1.0)
    assert kernels.ssim_uniform(a, b, 8, c1, c2) < 0.5
    data = LabeledDataset(np.zeros((2, 5)), np.array([0, 1]))
    with pytest.raises(ValueError, match="square image data"):
        ds.nearest_neighbor(np.zeros((1, 5)), data)


def test_nearest_neighbor_euclidean():
    """The Euclidean nearest neighbour of ``coverage_report``: each
    sample's distance to its nearest point, and that point's label."""
    data = LabeledDataset(np.array([[0.0, 0.0], [1.0, 0.0]]),
                          np.array([0, 1]))
    report = ds.coverage_report(np.array([[0.1, 0.0], [0.9, 0.0]]),
                                np.array([0, 1]), data, None, None)
    assert report.mean_nn_distance == pytest.approx(0.1)
    assert report.label_agreement == 1.0
    # ties go to the lowest index
    for label, agreement in ((0, 1.0), (1, 0.0)):
        tie = ds.coverage_report(np.array([[0.5, 0.0]]), np.array([label]),
                                 data, None, None)
        assert tie.label_agreement == agreement


def test_nearest_neighbor_ssim(patterns):
    data = patterns(1, 0.0, 0)
    assert ds.nearest_neighbor(data.x[:1], data).tolist() == [0]


def test_coverage_report_perfect_coverage():
    circle = ds.circle_dataset()
    report = ds.coverage_report(circle.x, circle.labels, circle, None, None)
    assert report.mean_nn_distance == 0.0
    assert np.array_equal(report.per_point_min_distance, np.zeros(18))
    assert report.label_agreement == 1.0


def test_coverage_report_with_classifier():
    circle = ds.circle_dataset()
    spec = km.MlpSpec((2, 8, 3), False)
    zeta = km.init_kaiming(spec, seed=0)
    pred = np.argmax(km.mlp_apply_np(spec, zeta, circle.x), axis=1)
    report = ds.coverage_report(circle.x, pred, circle, spec=spec,
                                zeta=zeta)
    assert report.label_agreement == 1.0
    wrong = (pred + 1) % 3
    report2 = ds.coverage_report(circle.x, wrong, circle, spec=spec,
                                 zeta=zeta)
    assert report2.label_agreement == 0.0


def test_coverage_report_dimension_check():
    circle = ds.circle_dataset()
    with pytest.raises(ValueError, match="dimension mismatch"):
        ds.coverage_report(np.zeros((2, 3)), np.zeros(2), circle, None,
                           None)


def test_csv_roundtrip_exact(tmp_path):
    circle = ds.circle_dataset()
    path = tmp_path / "circle.csv"
    path.write_text("x0,x1,y\n" + "".join(
        f"{x0:.17g},{x1:.17g},{y}\n"
        for (x0, x1), y in zip(circle.x, circle.labels)))
    back = ds.dataset_from_csv(path, name="circle18", num_classes=3)
    assert np.array_equal(back.x, circle.x)  # 17 significant digits
    assert np.array_equal(back.labels, circle.labels)


def test_sample_and_coverage_hold_blocks_not_every_row(traced):
    """On 50 000 rows, ``training.sample`` and ``coverage_report`` with
    the default circle classifier hold their per-sample arrays and at
    most two ``BLOCK_BYTES`` of blocks.  With the forwards over every row
    at once their traced peaks were 31.3 and 15.3 MB."""
    cfg = RunConfig.from_text("")
    n, f8 = 50_000, 8
    gen_spec = cfg.generator_spec(3, 2, 1)
    gen_params = km.init_kaiming(gen_spec, 0)
    peak, _ = traced(lambda: tr.sample(gen_spec, gen_params, 1, n))
    # the draws (noise and classifier index), the conditioned input and
    # the output
    per_sample = n * f8 * (gen_spec.noise_dim + 1 + gen_spec.in_dim
                           + gen_spec.out_dim)
    assert peak < per_sample + 2 * km.BLOCK_BYTES

    spec = cfg.classifier_spec()
    zeta = km.init_kaiming(spec, 0)
    samples = np.random.default_rng(0).standard_normal((n, 2))
    labels = np.zeros(n, dtype=np.int64)
    peak, _ = traced(lambda: ds.coverage_report(
        samples, labels, ds.circle_dataset(), spec, zeta))
    # the logits, and each sample's nearest point, distance and class
    per_sample = n * f8 * (spec.out_dim + 3)
    assert peak < per_sample + 2 * km.BLOCK_BYTES

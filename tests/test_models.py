"""Unit tests for MLP specs, flat parameters and forward passes."""

import numpy as np
import pytest

import kktgen.autodiff as ad
import kktgen.models as km
from kktgen.models import (GeneratorSpec, MlpSpec, MultiplierSpec,
                           ParameterVector)


def test_spec_validation():
    with pytest.raises(ValueError, match="at least"):
        MlpSpec((4,))
    with pytest.raises(ValueError, match="positive"):
        MlpSpec((4, 0, 2))
    with pytest.raises(ValueError, match="bias flags"):
        MlpSpec((4, 3, 2), (True,))


def test_group_shapes_order_and_bias_flags():
    spec = MlpSpec((2, 5, 3), (False, True))
    assert spec.group_shapes() == [
        ("layer0.weight", (2, 5)),
        ("layer1.weight", (5, 3)),
        ("layer1.bias", (3,)),
    ]
    assert spec.n_layers == 2
    assert spec.in_dim == 2 and spec.out_dim == 3


def test_spec_json_roundtrip_and_hash():
    spec = MlpSpec((2, 16, 16, 3), False)
    again = MlpSpec.from_json(spec.to_json())
    assert again == spec
    assert again.hash() == spec.hash()
    assert MlpSpec((2, 16, 16, 3), True).hash() != spec.hash()


def test_parameter_vector_partition_checks():
    with pytest.raises(ValueError, match="partition"):
        ParameterVector(np.zeros(5), {"a": (0, 3)})
    with pytest.raises(ValueError, match="breaks the partition"):
        ParameterVector(np.zeros(5), {"a": (0, 3), "b": (4, 1)})


def test_zeros_for_and_group_views_share_storage():
    spec = MlpSpec((3, 4, 2), True)
    pv = ParameterVector.zeros_for(spec)
    assert len(pv) == 3 * 4 + 4 + 4 * 2 + 2
    pv.group("layer0.bias")[:] = 7.0
    assert np.count_nonzero(pv.values) == 4
    other = pv.copy()
    other.group("layer0.bias")[:] = 0.0
    assert np.count_nonzero(pv.values) == 4  # copy is independent
    assert pv != other


def test_forward_matches_manual_arithmetic():
    spec = MlpSpec((2, 3, 2), True)
    rng = np.random.default_rng(3)
    pv = ParameterVector.zeros_for(spec)
    pv.values[:] = rng.standard_normal(len(pv))
    x = rng.standard_normal((5, 2))
    w0 = pv.group("layer0.weight").reshape(2, 3)
    b0 = pv.group("layer0.bias")
    w1 = pv.group("layer1.weight").reshape(3, 2)
    b1 = pv.group("layer1.bias")
    want = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
    got_np = km.mlp_apply_np(spec, pv, x)
    got_graph = km.mlp_apply(spec, km.make_leaves(spec, pv),
                             ad.tensor(x)).value
    assert np.allclose(got_np, want, atol=1e-12)
    assert np.allclose(got_graph, want, atol=1e-12)


def test_forward_input_dim_check():
    spec = MlpSpec((2, 3, 2), True)
    pv = ParameterVector.zeros_for(spec)
    with pytest.raises(ValueError, match="input dimension"):
        km.mlp_apply_np(spec, pv, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="input dimension"):
        km.mlp_apply(spec, km.make_leaves(spec, pv),
                     ad.tensor(np.zeros((4, 3))))


def test_zero_params_zero_logits():
    spec = MlpSpec((2, 8, 3), False)
    pv = ParameterVector.zeros_for(spec)
    out = km.mlp_apply_np(spec, pv, np.ones((4, 2)))
    assert np.array_equal(out, np.zeros((4, 3)))


def logit_gradients(spec, params, x, c):
    """Flat gradient of logit c at each row of x, one row per sample.

    The numpy core with a leading batch axis: each sample is its own
    one-row batch entry.
    """
    out, cache = km.mlp_forward(spec, params, np.atleast_2d(x)[:, None, :])
    dout = np.zeros_like(out)
    dout[..., c] = 1.0
    deltas, _ = km.mlp_backprop(cache, dout)
    return km.mlp_param_grad(spec, cache, deltas)


def test_param_gradient_linear_case_is_input():
    """For a single linear layer, d logit_c / d W[:, c] = x."""
    spec = MlpSpec((3, 2), False)
    pv = ParameterVector.zeros_for(spec)
    pv.values[:] = np.arange(6.0)
    x = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    grads = logit_gradients(spec, pv, x, 1)
    assert grads.shape == (2, 6)
    for g, xi in zip(grads, x):
        grad_w = g.reshape(3, 2)
        assert np.array_equal(grad_w[:, 1], xi)
        assert np.array_equal(grad_w[:, 0], np.zeros(3))


def test_param_gradient_matches_finite_difference():
    spec = MlpSpec((2, 6, 3), (True, False))
    pv = km.init_kaiming(spec, seed=5)
    x = np.array([[0.4, -0.9], [-0.3, 0.7]])
    grads = logit_gradients(spec, pv, x, 2)
    step = 1e-6
    for flat, xi in zip(grads, x):
        fd = np.empty_like(flat)
        for i in range(len(pv)):
            plus = pv.copy()
            plus.values[i] += step
            minus = pv.copy()
            minus.values[i] -= step
            fd[i] = (km.mlp_apply_np(spec, plus, xi)[2]
                     - km.mlp_apply_np(spec, minus, xi)[2]) / (2 * step)
        assert np.max(np.abs(flat - fd)) < 1e-5
    # the batch axis gives each row's gradient; without it rows are summed
    out, cache = km.mlp_forward(spec, pv, x)
    dout = np.zeros_like(out)
    dout[:, 2] = 1.0
    deltas, _ = km.mlp_backprop(cache, dout)
    assert np.allclose(km.mlp_param_grad(spec, cache, deltas),
                       grads.sum(axis=0), rtol=1e-14, atol=1e-15)


def test_relu_net_positively_homogeneous_in_input():
    """Bias-free ReLU nets satisfy Phi(a x) = a Phi(x) for a > 0."""
    spec = MlpSpec((2, 16, 16, 3), False)
    pv = km.init_kaiming(spec, seed=1)
    x = np.random.default_rng(2).standard_normal((6, 2))
    base = km.mlp_apply_np(spec, pv, x)
    assert np.allclose(km.mlp_apply_np(spec, pv, 3.5 * x), 3.5 * base,
                       rtol=1e-12)


def test_generator_spec_input_layout():
    spec = GeneratorSpec(noise_dim=4, num_classes=3, hidden=(8,), out_dim=2)
    assert spec.in_dim == 7
    assert not spec.conditions_on_classifier
    two = GeneratorSpec(4, 3, (8,), 2, num_classifiers=2)
    assert two.in_dim == 9
    assert two.conditions_on_classifier


def test_generator_forward_conditioning_rules():
    """The conditional input: [first, onehot(y)(, onehot(t))]."""
    spec = GeneratorSpec(3, 2, (5,), 2)
    eps = np.random.default_rng(0).standard_normal((4, 3))
    labels = np.array([1, 0, 1, 1])
    inp = km.condition(eps, labels, None, spec)
    assert inp.shape == (4, spec.in_dim)
    assert np.array_equal(inp[:, :3], eps)
    assert np.array_equal(inp[:, 3:], np.eye(2)[labels])
    # a single-classifier spec has no t slot, whatever t is passed
    assert np.array_equal(km.condition(eps, labels, 0, spec), inp)
    two = GeneratorSpec(3, 2, (5,), 2, num_classifiers=2)
    with pytest.raises(ValueError, match="classifier index"):
        km.condition(eps, labels, None, two)
    per_row = km.condition(eps, labels, np.array([0, 1, 1, 0]), two)
    assert per_row.shape == (4, two.in_dim)
    assert np.array_equal(per_row[:, 5:], np.eye(2)[[0, 1, 1, 0]])
    assert np.array_equal(km.condition(eps, labels, 1, two)[:, 5:],
                          np.eye(2)[[1, 1, 1, 1]])


def test_generator_label_changes_output():
    spec = GeneratorSpec(3, 2, (8,), 2)
    pv = km.init_kaiming(spec, seed=7)
    eps = np.random.default_rng(1).standard_normal((4, 3))
    a = km.mlp_apply_np(spec, pv, km.condition(eps, np.zeros(4, int), None,
                                               spec))
    b = km.mlp_apply_np(spec, pv, km.condition(eps, np.ones(4, int), None,
                                               spec))
    assert not np.allclose(a, b)


def test_generator_single_sample_shape():
    spec = GeneratorSpec(3, 2, (5,), 2)
    pv = km.init_kaiming(spec, seed=0)
    out = km.mlp_apply_np(spec, pv, km.condition(np.zeros((1, 3)),
                                                 np.array([0]), None, spec))
    assert out.shape == (1, 2)


def test_multiplier_forward_shapes():
    for n_classes in (2, 3, 10):
        spec = MultiplierSpec(in_dim=2, num_classes=n_classes, hidden=(6,))
        pv = km.init_kaiming(spec, seed=0)
        x = np.zeros((5, 2))
        out = km.mlp_apply_np(spec, pv,
                              km.condition(x, np.zeros(5, int), None, spec))
        assert out.shape == (5, n_classes)


def test_init_kaiming_statistics_and_determinism():
    spec = MlpSpec((100, 50), True)
    pv = km.init_kaiming(spec, seed=11)
    again = km.init_kaiming(spec, seed=11)
    assert np.array_equal(pv.values, again.values)
    assert not np.array_equal(pv.values,
                              km.init_kaiming(spec, seed=12).values)
    w = pv.group("layer0.weight")
    assert abs(np.std(w) - np.sqrt(2.0 / 100)) < 0.15 * np.sqrt(2.0 / 100)
    assert np.array_equal(pv.group("layer0.bias"), np.zeros(50))


def test_serialize_roundtrip_bit_exact():
    spec = MlpSpec((2, 7, 3), (True, False))
    pv = km.init_kaiming(spec, seed=3)
    pv.values[0] = np.nextafter(1.0, 2.0)  # exercise full precision
    blob = km.serialize_params(spec, pv)
    back = km.deserialize_params(blob, expected_spec=spec)
    assert back == pv


def test_deserialize_rejects_bad_blobs():
    spec = MlpSpec((2, 3), False)
    pv = ParameterVector.zeros_for(spec)
    blob = km.serialize_params(spec, pv)
    with pytest.raises(ValueError, match="magic"):
        km.deserialize_params(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="does not match"):
        km.deserialize_params(blob, expected_spec=MlpSpec((2, 3), True))
    # a cut anywhere in the header: version, hash, group table, count
    for cut in (6, 20, 41, 45, 50, 70, 80):
        with pytest.raises(ValueError, match="truncated"):
            km.deserialize_params(blob[:cut])


def test_spec_from_json_dispatch():
    for spec in (MlpSpec((2, 3), False),
                 GeneratorSpec(3, 2, (4,), 2),
                 MultiplierSpec(2, 3, (4,))):
        assert km.spec_from_json(spec.to_json()) == spec
    with pytest.raises(ValueError, match="unknown spec kind"):
        km.spec_from_json({"kind": "bogus"})

"""Unit tests for the reverse-mode autodiff engine."""

import gc
import weakref

import numpy as np
import pytest

import kktgen.autodiff as ad


def test_forward_values_basic_ops():
    a = ad.tensor(np.array([1.0, -2.0, 3.0]))
    b = ad.tensor(np.array([4.0, 5.0, -6.0]))
    assert np.array_equal(ad.add(a, b).value, [5.0, 3.0, -3.0])
    assert np.array_equal(ad.sub(a, b).value, [-3.0, -7.0, 9.0])
    assert np.array_equal(ad.mul(a, b).value, [4.0, -10.0, -18.0])
    assert np.allclose(ad.div(a, b).value, [0.25, -0.4, -0.5])
    assert np.array_equal(ad.neg(a).value, [-1.0, 2.0, -3.0])
    assert np.array_equal(ad.relu(a).value, [1.0, 0.0, 3.0])
    assert np.array_equal(ad.square(a).value, [1.0, 4.0, 9.0])
    assert np.array_equal(ad.absval(a).value, [1.0, 2.0, 3.0])
    assert np.allclose(ad.exp(a).value, np.exp(a.value))
    assert np.allclose(ad.sqrt(ad.absval(a)).value,
                       np.sqrt(np.abs(a.value)))


def test_operator_sugar():
    a = ad.tensor(2.0)
    out = (a * 3.0 + 1.0 - 0.5) / 2.0
    assert out.item() == pytest.approx(3.25)
    assert (-a).item() == -2.0
    assert (1.0 + a).item() == 3.0


def test_grad_simple_polynomial():
    x = ad.tensor(np.array(3.0))
    y = ad.mul(x, ad.mul(x, x))  # x^3
    (g,) = ad.grad(y, [x])
    assert g.value == pytest.approx(27.0)
    # second derivative through the gradient graph: 6x = 18
    (g2,) = ad.grad(g, [x])
    assert g2.value == pytest.approx(18.0)


def test_grad_requires_scalar_root():
    x = ad.tensor(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="scalar"):
        ad.grad(ad.mul(x, x), [x])


def test_grad_non_ancestor_raises_and_allow_unused():
    x = ad.tensor(np.array(1.0))
    z = ad.tensor(np.array([5.0, 6.0]))
    y = ad.mul(x, x)
    with pytest.raises(ValueError, match="ancestor"):
        ad.grad(y, [z])
    (gz,) = ad.grad(y, [z], allow_unused=True)
    assert np.array_equal(gz.value, np.zeros(2))


def test_broadcast_add_gradient():
    w = ad.tensor(np.ones((3, 2)))
    b = ad.tensor(np.array([1.0, 2.0]))
    out = ad.tsum(ad.mul(ad.add(w, b), ad.constant(np.arange(6.0)
                                                   .reshape(3, 2))))
    gw, gb = ad.grad(out, [w, b])
    assert gw.value.shape == (3, 2)
    assert np.array_equal(gb.value, [0.0 + 2.0 + 4.0, 1.0 + 3.0 + 5.0])


def test_matmul_gradients_match_finite_difference():
    rng = np.random.default_rng(0)
    a_val = rng.standard_normal((3, 4))
    b_val = rng.standard_normal((4, 2))

    def fn(x):
        return ad.tsum(ad.square(ad.matmul(x, ad.constant(b_val))))

    assert ad.finite_difference_check(fn, a_val) < 1e-7

    def fn_b(x):
        return ad.tsum(ad.square(ad.matmul(ad.constant(a_val), x)))

    assert ad.finite_difference_check(fn_b, b_val) < 1e-7


def test_matmul_vector_cases():
    m = ad.tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    v = ad.tensor(np.array([1.0, -1.0]))
    out = ad.tsum(ad.matmul(m, v))
    gm, gv = ad.grad(out, [m, v])
    assert np.array_equal(gm.value, [[1.0, -1.0], [1.0, -1.0]])
    assert np.array_equal(gv.value, [4.0, 6.0])


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError, match="matmul"):
        ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))


def test_relu_derivative_zero_at_kink():
    x = ad.tensor(np.array([0.0, -1.0, 2.0]))
    (g,) = ad.grad(ad.tsum(ad.relu(x)), [x])
    assert np.array_equal(g.value, [0.0, 0.0, 1.0])


def test_max_min_with_constant_tie_derivative_zero():
    x = ad.tensor(np.array([0.5, 1.0, 2.0]))
    (g,) = ad.grad(ad.tsum(ad.maximum(x, 1.0)), [x])
    assert np.array_equal(g.value, [0.0, 0.0, 1.0])
    (g,) = ad.grad(ad.tsum(ad.minimum(x, 1.0)), [x])
    assert np.array_equal(g.value, [1.0, 0.0, 0.0])


def test_tsum_axis_and_keepdims_gradients():
    x = ad.tensor(np.arange(6.0).reshape(2, 3))
    out = ad.tsum(ad.mul(ad.tsum(x, axis=1, keepdims=True),
                         ad.constant(np.array([[2.0], [3.0]]))))
    (g,) = ad.grad(out, [x])
    assert np.array_equal(g.value, [[2.0] * 3, [3.0] * 3])


def test_tmean():
    x = ad.tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    out = ad.tmean(x)
    assert out.item() == pytest.approx(2.5)
    (g,) = ad.grad(out, [x])
    assert np.allclose(g.value, 0.25)


def test_concat_slice_roundtrip_gradients():
    a = ad.tensor(np.ones((2, 2)))
    b = ad.tensor(np.full((2, 3), 2.0))
    cat = ad.concat([a, b], axis=1)
    assert cat.value.shape == (2, 5)
    piece = ad.slice_axis(cat, 1, 2, 5)
    out = ad.tsum(ad.mul(piece, piece))
    ga, gb = ad.grad(out, [a, b])
    assert np.array_equal(ga.value, np.zeros((2, 2)))
    assert np.allclose(gb.value, 4.0)


def test_transpose_and_reshape():
    x = ad.tensor(np.arange(6.0).reshape(2, 3))
    out = ad.tsum(ad.mul(ad.transpose(x),
                         ad.constant(np.arange(6.0).reshape(3, 2))))
    (g,) = ad.grad(out, [x])
    assert g.value.shape == (2, 3)
    r = ad.reshape(x, (3, 2))
    (g2,) = ad.grad(ad.tsum(ad.square(r)), [x])
    assert np.array_equal(g2.value, 2.0 * x.value)


def test_one_hot():
    oh = ad.one_hot(np.array([0, 2]), 3)
    assert np.array_equal(oh.value, [[1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="out of range"):
        ad.one_hot(np.array([3]), 3)


def test_non_finite_leaf_rejected_constant_allowed():
    with pytest.raises(ValueError, match="non-finite"):
        ad.tensor(np.array([1.0, np.nan]))
    c = ad.constant(np.array([np.inf]))
    assert np.isinf(c.value[0])


def test_gradient_graph_is_differentiable_again():
    """Graph-of-graph closure: grad outputs support another grad pass."""
    x = ad.tensor(np.array([1.0, 2.0]))
    y = ad.tsum(ad.mul(ad.square(x), ad.exp(x)))
    (g,) = ad.grad(y, [x])
    (h,) = ad.grad(ad.tsum(g), [x])
    # d/dx (x^2 e^x) = (2x + x^2) e^x; second: (2 + 4x + x^2) e^x
    want = (2 + 4 * x.value + x.value ** 2) * np.exp(x.value)
    assert np.allclose(h.value, want)


def test_exp_sqrt_division_gradients():
    def fn(x):
        return ad.tsum(ad.div(ad.exp(x), ad.sqrt(ad.add(ad.square(x),
                                                        1.0))))
    assert ad.finite_difference_check(fn, np.array([0.3, -0.7])) < 1e-7


@pytest.mark.parametrize("op", [ad.exp, ad.sqrt])
def test_exp_sqrt_graphs_are_freed_without_the_cycle_collector(op):
    """Dropped exp/sqrt graphs, gradients included, die by refcount."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        x = ad.tensor(np.array([0.3, 1.7]))
        out = op(x)
        root = ad.tsum(ad.mul(out, out))
        (g,) = ad.grad(root, [x])
        (gg,) = ad.grad(ad.tsum(g), [x])
        probes = [weakref.ref(t.value) for t in (out, root, g, gg)]
        del out, root, g, gg
        assert [p() for p in probes] == [None] * 4
    finally:
        if enabled:
            gc.enable()


def test_finite_difference_check_rejects_bad_step():
    with pytest.raises(ValueError, match="positive"):
        ad.finite_difference_check(lambda x: ad.tsum(x), np.ones(2),
                                   step=0.0)

"""Unit tests for the numpy kernels."""

import tracemalloc

import numpy as np
import pytest
import scipy.optimize

import kktgen.autodiff as ad
import kktgen.homogeneity as hg
import kktgen.kkt as kk
import kktgen.models as km
from kktgen import kernels
from kktgen.config import RunConfig
from kktgen.training import train_classifier
from graph_reference import tv_value_grad


def reference_adam(values, grads, m, v, t, lr, beta1, beta2, eps):
    m_new = beta1 * m + (1 - beta1) * grads
    v_new = beta2 * v + (1 - beta2) * grads ** 2
    m_hat = m_new / (1 - beta1 ** t)
    v_hat = v_new / (1 - beta2 ** t)
    return values - lr * m_hat / (np.sqrt(v_hat) + eps), m_new, v_new


def test_adam_update_matches_reference():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(64)
    adam = kernels.Adam(64, 1e-2)
    want = values.copy()
    wm, wv = np.zeros(64), np.zeros(64)
    for t in range(1, 6):
        grads = rng.standard_normal(64)
        adam.t = t
        kernels.adam_update(values, grads, adam)
        want, wm, wv = reference_adam(want, grads, wm, wv, t, 1e-2, 0.9,
                                      0.999, 1e-8)
    assert np.allclose(values, want, rtol=1e-12, atol=1e-15)
    assert np.allclose(adam.m, wm) and np.allclose(adam.v, wv)


def out_of_place_adam(values, grads, m, v, t, lr, beta1=0.9, beta2=0.999,
                      eps=1e-8):
    """The out-of-place Adam step, the bit-level reference for the kernel."""
    t = float(t)
    m[:] = beta1 * m + (1.0 - beta1) * grads
    v[:] = beta2 * v + (1.0 - beta2) * grads * grads
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    values -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# (lr, beta1, beta2, eps): the betas and eps are the kernel's constants,
# which the out-of-place reference takes as arguments
@pytest.mark.parametrize("lr,beta1,beta2,eps", [(1e-2, 0.9, 0.999, 1e-8)])
def test_adam_update_is_bit_identical_to_out_of_place_steps(lr, beta1, beta2,
                                                            eps):
    rng = np.random.default_rng(3)
    values = rng.standard_normal(97)
    adam = kernels.Adam(97, lr)
    want, wm, wv = values.copy(), np.zeros(97), np.zeros(97)
    for t in range(1, 12):
        grads = rng.standard_normal(97) * 10.0 ** rng.integers(-6, 3)
        grads[t] = 0.0
        kept = grads.copy()
        adam.step(values, grads)
        out_of_place_adam(want, grads, wm, wv, t, lr, beta1, beta2, eps)
        assert adam.t == t
        assert np.array_equal(grads, kept)
        assert np.array_equal(values, want)
        assert np.array_equal(adam.m, wm) and np.array_equal(adam.v, wv)


# every lr the kernel tests above run, with the kernel's constants
ADAM_CASES = [(lr, 0.9, 0.999, 1e-8) for lr in (1e-2, 0.0, 1e-3, 0.05)]


@pytest.mark.parametrize("size", [1, 336, 3136])
@pytest.mark.parametrize("lr,beta1,beta2,eps", ADAM_CASES)
def test_bound_adam_operands_match_out_of_place_steps(size, lr, beta1, beta2,
                                                      eps):
    """100 steps of :class:`kernels.Adam`, on the operands and scratch
    vectors it binds once, against the out-of-place formula."""
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size)
    want, wm, wv = values.copy(), np.zeros(size), np.zeros(size)
    adam = kernels.Adam(size, lr)
    for t in range(1, 101):
        grads = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 3)
        grads[t % size] = 0.0
        kept = grads.copy()
        adam.step(values, grads)
        out_of_place_adam(want, grads, wm, wv, t, lr, beta1, beta2, eps)
        assert grads.tobytes() == kept.tobytes()
        assert values.tobytes() == want.tobytes()
        assert adam.m.tobytes() == wm.tobytes()
        assert adam.v.tobytes() == wv.tobytes()


def assert_tv_matches_reference(tv, x, height, width):
    """The bound kernel's value equals the strided reference's, and its
    gradient too, sign bits of its zeros included."""
    value, grad = tv(x)
    want_value, want_grad = tv_value_grad(x, height, width)
    assert value == want_value
    assert np.array_equal(grad, want_grad)
    assert np.array_equal(np.signbit(grad), np.signbit(want_grad))


# (m, height, width): h != w, h = 1, w = 1, m = 1, and a batch whose
# difference arrays are longer than numpy's 8192-entry reduction buffer
TV_SHAPES = [(2, 2, 3), (3, 4, 2), (2, 1, 5), (2, 5, 1), (1, 3, 3),
             (1, 1, 1), (4, 1, 1), (300, 8, 8)]


@pytest.mark.parametrize("m,height,width", TV_SHAPES)
def test_total_variation_matches_strided_reference(m, height, width):
    """Exact ties and +-0.0 entries, drawn often, on one kernel per shape
    called 25 times, so that each call starts from the last one's
    buffers; then Gaussian batches."""
    rng = np.random.default_rng(m * 100 + height * 10 + width)
    tv = kernels.TotalVariation(m, height, width)
    levels = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
    for _ in range(25):
        x = rng.choice(levels, size=(m, height * width))
        assert_tv_matches_reference(tv, x, height, width)
    for _ in range(3):
        x = rng.standard_normal((m, height * width))
        assert_tv_matches_reference(tv, x, height, width)


def test_total_variation_of_signed_zeros_and_ties():
    """All +-0.0, so every difference is a tie of either sign; and the
    2x3 batch of exact ties of the graph test."""
    x = np.array([[0.0, -0.0, -0.0, 0.0, 0.0, -0.0],
                  [-0.0, -0.0, 0.0, 0.0, -0.0, 0.0]])
    tv = kernels.TotalVariation(2, 2, 3)
    assert_tv_matches_reference(tv, x, 2, 3)
    assert tv(x)[0] == 0.0 and not np.signbit(tv(x)[1]).any()
    x = np.array([[0.0, 1.0, 1.0, 0.0, 2.0, 2.0],
                  [1.0, 1.0, 1.0, 1.0, 0.0, 3.0]])
    assert_tv_matches_reference(tv, x, 2, 3)


def test_ssim_uniform_identity_and_symmetry():
    rng = np.random.default_rng(1)
    a = rng.random((1, 12, 12))
    b = rng.random((1, 12, 12))
    c1, c2 = 1e-4, 9e-4
    assert kernels.ssim_uniform(a, a, 8, c1, c2) == pytest.approx(1.0)
    assert kernels.ssim_uniform(a, b, 8, c1, c2) == pytest.approx(
        kernels.ssim_uniform(b, a, 8, c1, c2))
    assert kernels.ssim_uniform(a, b, 8, c1, c2) < 1.0


def test_ssim_uniform_validation():
    """Two stacks of images of one shape, and a window that fits."""
    for a, b in [((1, 4, 4), (1, 5, 5)), ((1, 4, 4), (2, 3, 4, 4)),
                 ((4, 4), (1, 4, 4)), ((4, 4), (4, 4))]:
        with pytest.raises(ValueError, match="equal-shape"):
            kernels.ssim_uniform(np.zeros(a), np.zeros(b), 2, 1e-4, 9e-4)
    with pytest.raises(ValueError, match="window"):
        kernels.ssim_uniform(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)), 8,
                             1e-4, 9e-4)


def loop_ssim(a, b, window, c1, c2):
    """Mean SSIM of two images, one window at a time: the reference."""
    h, w = a.shape
    scores = []
    for r in range(h - window + 1):
        for c in range(w - window + 1):
            pa = a[r:r + window, c:c + window]
            pb = b[r:r + window, c:c + window]
            mu_a = pa.mean()
            mu_b = pb.mean()
            var_a = (pa * pa).mean() - mu_a * mu_a
            var_b = (pb * pb).mean() - mu_b * mu_b
            cov = (pa * pb).mean() - mu_a * mu_b
            scores.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                          / ((mu_a * mu_a + mu_b * mu_b + c1)
                             * (var_a + var_b + c2)))
    return float(np.mean(np.array(scores)))


@pytest.mark.parametrize("shape,window,k_a,k_b", [
    ((8, 8), 8, 2, 6), ((8, 8), 3, 2, 6), ((12, 9), 4, 2, 6),
    ((5, 5), 1, 2, 6),
    # nine windows at the grid's window size
    ((10, 10), 8, 2, 6),
    # many pairs per product: a block of samples against the patterns
    ((8, 8), 8, 37, 100)],
    ids=["shape0-8", "shape1-3", "shape2-4", "shape3-1", "shape4-8",
         "37x100-8"])
def test_ssim_uniform_matches_window_loop(shape, window, k_a, k_b):
    """Window sums as products over two stacks against the loop."""
    rng = np.random.default_rng(sum(shape) + window)
    a = rng.random((k_a, *shape))
    stack = rng.random((k_b, *shape))
    stack[2] = a[0]
    c1, c2 = 1e-4, 9e-4
    got = kernels.ssim_uniform(a, stack, window, c1, c2)
    want = np.array([[loop_ssim(x, b, window, c1, c2) for b in stack]
                     for x in a])
    assert got.shape == (k_a, k_b)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert got[0, 2] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# nonnegative least squares against scipy.optimize.nnls, the reference


def ridge_rows(a, b):
    """The rows :func:`homogeneity.solve_lambda` appends to its system."""
    ridge = np.sqrt(hg.RIDGE) * np.max(np.abs(a))
    return (np.vstack([a, ridge * np.eye(a.shape[1])]),
            np.concatenate([b, np.zeros(a.shape[1])]))


def sparse_fit(rng, m, share):
    """(a, b): an (m, 100) Gaussian matrix, and a combination of its
    columns, positive in about ``share`` of them and negative in the
    rest, plus noise that puts part of b outside the range of a."""
    a = rng.standard_normal((m, 100))
    signs = np.where(rng.random(100) < share, 1.0, -1.0)
    x = signs * rng.uniform(0.5, 1.5, 100)
    return a, a @ x + 5.0 * rng.standard_normal(m)


def nnls_case(name, seed):
    """(a, b, unique): a problem of kind ``name``; ``unique`` says whether
    its minimizer is unique, so that x can be compared."""
    rng = np.random.default_rng(seed)
    if name == "tall":
        return rng.standard_normal((40, 10)), rng.standard_normal(40), True
    if name == "tall-many-entries":
        # inconsistent, and about 30 of the 100 columns enter
        return (*sparse_fit(rng, 2000, 0.3), True)
    if name == "wide":
        return rng.standard_normal((8, 20)), rng.standard_normal(8), False
    if name == "rank-deficient-ridge":
        # rank 6 in 10 unknowns, consistent as a profile system is; the
        # ridge rows select the minimum-norm point
        a = rng.standard_normal((40, 6)) @ rng.standard_normal((6, 10))
        return (*ridge_rows(a, a @ np.abs(rng.standard_normal(10))), True)
    if name == "negative-cone":
        # a^T b < 0 for every column, so x = 0
        return (np.abs(rng.standard_normal((30, 6))),
                -np.abs(rng.standard_normal(30)), True)
    if name == "zero-column":
        a = rng.standard_normal((40, 10))
        a[:, 3] = 0.0
        return a, rng.standard_normal(40), True
    raise ValueError(name)


def assert_matches_scipy(a, b, unique):
    """x to 1e-12 relative where the minimizer is unique; rnorm to 1e-12
    of ||b||, since a small residual is known to no better than the
    rounding of b itself."""
    want_x, want_rnorm = scipy.optimize.nnls(a, b)
    x, rnorm = kernels.nnls(a, b)
    assert x.shape == want_x.shape and np.all(x >= 0.0)
    if unique:
        assert (np.max(np.abs(x - want_x))
                <= 1e-12 * max(np.max(np.abs(want_x)), 1e-300))
    assert abs(rnorm - want_rnorm) <= 1e-12 * np.linalg.norm(b)
    assert abs(rnorm - np.linalg.norm(a @ x - b)) <= 1e-12 * np.linalg.norm(b)
    again = kernels.nnls(a, b)
    assert again[0].tobytes() == x.tobytes() and again[1] == rnorm
    return x


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["tall", "tall-many-entries", "wide",
                                  "rank-deficient-ridge", "negative-cone",
                                  "zero-column"])
def test_nnls_matches_scipy(name, seed):
    x = assert_matches_scipy(*nnls_case(name, seed))
    if name == "tall-many-entries":
        assert 10 <= np.count_nonzero(x) <= 60
    if name == "negative-cone":
        assert not np.any(x)
    if name == "zero-column":
        assert x[3] == 0.0


def test_nnls_memory_grows_with_the_columns_that_enter():
    """The solver keeps one reflector per column that enters, not a copy
    of ``a``: on a tall problem where 30 of 100 columns or fewer enter,
    its traced peak stays below half of ``a``."""
    a, b = sparse_fit(np.random.default_rng(0), 3000, 0.2)
    want_x, want_rnorm = scipy.optimize.nnls(a, b)
    assert np.count_nonzero(want_x) <= 30
    assert want_rnorm > 0.1 * np.linalg.norm(b)
    tracemalloc.start()
    try:
        x, _ = kernels.nnls(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(x) == np.count_nonzero(want_x)
    assert peak < 0.5 * a.nbytes


def dependent_columns(kind, seed):
    """(a, b): independent columns and twice as many more, each a copy
    of one (``repeated``), a positive multiple of one (``scaled``) or a
    nonnegative combination of several (``conic``), in shuffled order;
    b is a nonnegative combination of the columns."""
    rng = np.random.default_rng(seed)
    m, base = rng.choice([(40, 12), (120, 16), (30, 20)])
    g = rng.standard_normal((m, base))
    pick = rng.integers(base, size=2 * base)
    if kind == "repeated":
        extra = g[:, pick]
    elif kind == "scaled":
        extra = g[:, pick] * rng.uniform(0.1, 10.0, 2 * base)
    else:
        extra = g @ (rng.random((base, 2 * base)) < 0.3)
    a = np.column_stack([g, extra])[:, rng.permutation(3 * base)]
    return a, a @ (rng.random(3 * base) < 0.5)


# seeds 22, 96 and 108 cycle through columns dependent to rounding unless
# an entry that does not lower the residual ends the solve
@pytest.mark.parametrize("kind,seed", [
    ("repeated", 0), ("repeated", 22), ("scaled", 0), ("scaled", 96),
    ("conic", 0), ("conic", 108)])
def test_nnls_matches_scipy_on_dependent_columns(kind, seed):
    a, b = dependent_columns(kind, seed)
    x = assert_matches_scipy(a, b, unique=False)
    # x is not unique, but the fit a x, the projection of b onto the cone
    # of the columns, is
    want_x, _ = scipy.optimize.nnls(a, b)
    assert np.linalg.norm(a @ x - a @ want_x) <= 1e-12 * np.linalg.norm(b)


def pair_jacobian(spec, params, x, labels, pairs):
    """The KKT oracle's matrix G built pair by pair with autodiff: column
    (i, c) is the gradient of Phi_{y_i} - Phi_c at x_i."""
    names = [name for name, _ in spec.mlp().group_shapes()]
    columns = []
    for i, c in pairs:
        leaves = km.make_leaves(spec, params)
        logits = km.mlp_apply(spec, leaves, ad.tensor(x[i]))
        y = int(labels[i])
        margin = ad.sub(ad.tsum(ad.slice_axis(logits, 0, y, y + 1)),
                        ad.tsum(ad.slice_axis(logits, 0, c, c + 1)))
        grads = ad.grad(margin, [leaves[n] for n in names])
        columns.append(np.concatenate([g.value.reshape(-1) for g in grads]))
    return np.column_stack(columns)


def oracle_operator(args):
    """(operator, b, pairs): what :func:`kkt.kkt_residual_oracle` called
    with ``args`` hands to NNLS, and its (i, c) pairs in column order."""
    calls = []

    def recording(a, b):
        calls.append((a, b.copy()))
        return kernels.nnls(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kk, "nnls", recording)
        _, mu = kk.kkt_residual_oracle(*args)
    ((a, b),) = calls
    return a, b, list(mu)


def assert_operator_is_the_matrix(a, g, seed=0, tol=1e-13):
    """The operator's products with a nonnegative x and a residual-like r
    and each of its columns equal those of the dense matrix ``g`` to
    ``tol`` of their largest entry."""
    rng = np.random.default_rng(seed)
    x = rng.random(g.shape[1])
    r = rng.standard_normal(g.shape[0])
    assert a.shape == g.shape
    products = [(a.matvec(x).copy(), g @ x, "G x"),
                (a.rmatvec(r), g.T @ r, "G^T r")]
    products += [(a.column(j), g[:, j], f"column {j}")
                 for j in range(g.shape[1])]
    for got, want, what in products:
        err = np.max(np.abs(got - want))
        assert err <= tol * np.max(np.abs(want)), f"{what}: error {err:.3g}"


def recorded_solves(config_text):
    """Both NNLS solves on the classifier a config trains, as (a, b): the
    profile system with its ridge rows under "profile", and under
    "oracle" the KKT oracle's margin gradients against Lbar zeta, its
    operator's columns stacked.  "operator" is the oracle's operator
    with "jacobian", its matrix built by :func:`pair_jacobian`, and
    "args" the oracle's arguments."""
    config = RunConfig.from_text(config_text)
    (dataset,) = config.dataset()
    spec = config.classifier_spec()
    params, _ = train_classifier(dataset, spec,
                                 config.classifier_train_config())
    solves = []

    def recording(a, b):
        solves.append((a.copy(), b.copy()))
        return kernels.nnls(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hg, "nnls", recording)
        profile, _ = hg.estimate_profile(spec, params)
    margins = kk.margins_np(spec, params, dataset.x, dataset.labels)
    q = np.min(margins[margins != 0.0])
    args = (spec, params, profile, dataset.x, dataset.labels,
            float(-np.log(q)))
    a, b, pairs = oracle_operator(args)
    stacked = np.column_stack([a.column(j) for j in range(a.shape[1])])
    return {"profile": solves[0], "oracle": (stacked, b), "operator": a,
            "jacobian": pair_jacobian(spec, params, dataset.x,
                                      dataset.labels, pairs),
            "args": args}


@pytest.fixture(scope="module")
def circle_solves():
    """Both NNLS solves on the default circle classifier."""
    return recorded_solves("")


@pytest.mark.parametrize("which", ["profile", "oracle"])
def test_nnls_matches_scipy_on_the_circle_classifier(circle_solves, which):
    a, b = circle_solves[which]
    x = assert_matches_scipy(a, b, unique=True)
    assert np.count_nonzero(x) > 1


# the patterns-tv benchmark workload's classifier
PATTERNS_CLASSIFIER = """
[dataset]
kind = stripes-vs-checks-8x8

[classifier]
widths = 64,32,32,2
learning_rate = 0.001
refine_iters = 1000
"""


@pytest.fixture(scope="module")
def patterns_solves():
    """Both NNLS solves on the patterns-tv classifier."""
    return recorded_solves(PATTERNS_CLASSIFIER)


@pytest.mark.parametrize("classifier", ["circle", "patterns"])
def test_nnls_meets_the_optimality_conditions_on_the_oracle(
        request, classifier):
    """The KKT conditions of min ||a x - b|| s.t. x >= 0 on the oracle
    systems, which hold whichever of several near-optimal supports the
    rounding selects: x >= 0, every dual w = a^T (b - a x) <= tol where
    x = 0 and |w| <= tol where x > 0, and rnorm no larger than scipy's
    but for tol.  tol is m eps ||a||_F ||b||, the rounding bound of a
    length-m dot product of a column with a residual no longer than b;
    rnorm's is 1e-12 ||b||, that of the comparison with scipy."""
    a, b = request.getfixturevalue(f"{classifier}_solves")["oracle"]
    x, rnorm = kernels.nnls(a, b)
    _, want_rnorm = scipy.optimize.nnls(a, b)
    tol = a.shape[0] * np.finfo(np.float64).eps \
        * np.linalg.norm(a) * np.linalg.norm(b)
    w = a.T @ (b - a @ x)
    assert np.all(x >= 0.0) and np.count_nonzero(x) > 1
    assert np.all(w[x == 0.0] <= tol)
    assert np.all(np.abs(w[x > 0.0]) <= tol)
    assert rnorm <= want_rnorm + 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("classifier", ["circle", "patterns"])
def test_oracle_operator_is_its_pair_jacobian(request, classifier):
    solves = request.getfixturevalue(f"{classifier}_solves")
    assert_operator_is_the_matrix(solves["operator"], solves["jacobian"])


@pytest.mark.parametrize("classifier", ["circle", "patterns"])
def test_nnls_on_the_oracle_operator_solves_its_matrix(request, classifier):
    """The solve through the operator fits b as the solve on its stacked
    columns does: the fit a x, the projection of b onto the cone of the
    columns, and rnorm agree but for rounding."""
    solves = request.getfixturevalue(f"{classifier}_solves")
    a, b = solves["oracle"]
    want_x, want_rnorm = kernels.nnls(a, b)
    x, rnorm = kernels.nnls(solves["operator"], b)
    assert np.all(x >= 0.0) and np.count_nonzero(x) > 1
    assert np.linalg.norm(a @ x - a @ want_x) <= 1e-12 * np.linalg.norm(b)
    assert abs(rnorm - want_rnorm) <= 1e-12 * np.linalg.norm(b)


def test_oracle_memory_stays_below_its_pair_jacobian(patterns_solves):
    """The oracle never holds G, nor every column of it: on the
    patterns-tv classifier its traced peak stays below three quarters of
    the dense matrix.  About 0.6 of it is held, most of it by what grows
    with the columns that enter (26 of 100 here, 0.26 of G as NNLS's
    reflectors, 0.03 as its R) and with the pair rows (the binding's
    layer and pass buffers, 0.2)."""
    args = patterns_solves["args"]
    dense = patterns_solves["jacobian"]
    kk.kkt_residual_oracle(*args)
    tracemalloc.start()
    try:
        kk.kkt_residual_oracle(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dense.shape == (3136, 100)
    assert peak < 0.75 * dense.nbytes


def test_nnls_iteration_cap(monkeypatch):
    a, b, _ = nnls_case("tall", 0)
    x, _ = kernels.nnls(a, b)
    assert np.count_nonzero(x) > 1
    monkeypatch.setattr(kernels, "_ITERATIONS_PER_COLUMN", 0)
    with pytest.raises(kernels.NnlsIterationLimit, match="0 iterations"):
        kernels.nnls(a, b)
    with pytest.raises(ValueError, match="m-vector"):
        kernels.nnls(a, b[:-1])

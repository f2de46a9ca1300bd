"""Classifier pre-training and data-free generator training.

The classifier is driven into the max-margin regime with plain full-batch
gradient descent on the summed cross-entropy until the loss drops below
log(2)/N, then for a configurable number of extra epochs so the margins
keep growing.  The generator, multiplier network and the per-classifier
alpha are then trained with Adam on

    L = L_stationarity + beta * L_duality (+ tv_weight * TV),

where every step draws labels and noise from a per-step seeded stream so
runs are bit-reproducible and resumable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import kernels
from .homogeneity import lambda_bar, verify_lambda, default_probe_samples
from .kkt import kkt_loss_grads
from .models import (MlpSpec, ParameterVector, condition, init_kaiming,
                     mlp_apply_np, mlp_backprop, mlp_forward, mlp_param_grad)

PROFILE_DEVIATION_LIMIT = 1e-4


class ConvergenceError(RuntimeError):
    """Classifier training failed to reach the loss threshold."""

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


class TrainingAborted(RuntimeError):
    """Generator training hit a non-finite loss."""

    def __init__(self, message, step, state):
        super().__init__(message)
        self.step = step
        self.state = state


@dataclass(frozen=True)
class ClassifierTrainConfig:
    learning_rate: float = 0.1
    max_epochs: int = 200_000
    extra_epochs: int = 0
    seed: int = 0
    # Margin refinement: after GD convergence, ascend the normalized
    # minimum margin (softmin surrogate with annealed temperature) so the
    # classifier parameters actually satisfy the max-margin KKT conditions
    # instead of merely drifting toward them.  Requires a bias-free spec.
    refine_margins: bool = True
    refine_temperatures: tuple[float, ...] = (3.0, 6.0, 12.0, 25.0, 50.0,
                                              100.0, 200.0, 400.0)
    refine_iters: int = 6000
    refine_lr: float = 1e-3
    refine_final_lrs: tuple[float, ...] = (3e-4, 1e-4, 3e-5, 1e-5, 3e-6)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.extra_epochs < 0:
            raise ValueError("extra epochs must be nonnegative")
        if self.refine_iters < 0:
            raise ValueError("refine iters must be nonnegative")


@dataclass(frozen=True)
class GeneratorTrainConfig:
    batch_size: int = 64  # M
    beta: float = 3.0
    delta: float = 0.05  # used only when margin_band is empty
    lr_theta: float = 1e-4
    lr_eta: float = 1e-3
    lr_alpha: float = 0.0
    steps: int = 20_000
    tv_weight: float = 0.0
    tv_shape: tuple[int, ...] = ()  # (height, width) when tv_weight > 0
    label_distribution: tuple[float, ...] = ()  # empty = uniform
    seed: int = 0
    full_sum: bool = False  # sum all classifier losses each step
    # Duality band placement as fractions of the classifier's peak margin
    # probed on random unit directions: e^{-alpha} = lo * peak and
    # e^{-alpha} + delta = hi * peak.  Empty tuple falls back to the
    # probe-batch minimum-margin alpha init with the explicit delta.
    margin_band: tuple[float, ...] = (0.677, 1.03)
    probe_count: int = 256
    init_output_scale: float = 2.0  # generator output layer at init

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.margin_band:
            lo, hi = self.margin_band
            if not 0.0 < lo < hi:
                raise ValueError("margin band must satisfy 0 < lo < hi")
        if self.probe_count < 1:
            raise ValueError("probe count must be >= 1")
        if self.init_output_scale <= 0:
            raise ValueError("init output scale must be positive")

    def alpha_lr(self, t):
        """lr_alpha may be a scalar or one rate per classifier."""
        if np.isscalar(self.lr_alpha):
            return float(self.lr_alpha)
        return float(self.lr_alpha[t])

    def label_probs(self, num_classes):
        if not self.label_distribution:
            return np.full(num_classes, 1.0 / num_classes)
        p = np.asarray(self.label_distribution, dtype=np.float64)
        if p.size != num_classes or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("label distribution must be a length-C "
                             "probability vector")
        return p


@dataclass
class ClassifierBundle:
    """A pre-trained classifier with its scaling profile."""

    spec: MlpSpec
    params: ParameterVector
    profile: object
    virtual_n: int

    def __post_init__(self):
        if self.virtual_n < 1:
            raise ValueError("virtual dataset size must be >= 1")


class Adam:
    """Adam over a flat parameter array, backed by the fused kernel."""

    def __init__(self, size, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, values, grads):
        self.t += 1
        kernels.adam_update(values, grads, self.m, self.v, self.t, self.lr,
                            self.beta1, self.beta2, self.eps)

    def state(self):
        return {"m": self.m.copy(), "v": self.v.copy(), "t": self.t}

    def load_state(self, state):
        self.m[:] = state["m"]
        self.v[:] = state["v"]
        self.t = int(state["t"])


@dataclass
class GeneratorTrainState:
    gen_params: ParameterVector
    mult_params: ParameterVector
    alphas: np.ndarray  # one trainable alpha per classifier
    deltas: np.ndarray = None  # duality band width per classifier
    step: int = 0
    history: list = field(default_factory=list)
    optimizers: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# classifier training (plain numpy backprop; no double backward needed)


def _ce_loss_and_grad(spec, params, x, labels):
    """Summed cross-entropy and its flat parameter gradient."""
    mlp = spec if isinstance(spec, MlpSpec) else spec.mlp()
    logits, cache = mlp_forward(mlp, params, x)
    shift = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shift).sum(axis=1))
    n = len(labels)
    loss = float(np.sum(logz - shift[np.arange(n), labels]))
    dlogits = np.exp(shift) / np.exp(logz)[:, None]
    dlogits[np.arange(n), labels] -= 1.0
    deltas, _ = mlp_backprop(cache, dlogits)
    return loss, mlp_param_grad(mlp, cache, deltas)


def classifier_accuracy(spec, params, x, labels):
    pred = np.argmax(mlp_apply_np(spec, params, x), axis=1)
    return float(np.mean(pred == np.asarray(labels)))


def _margin_ascent_grad(spec, params, x, labels, rival, temperature):
    """Gradient of the softmin surrogate of the normalized minimum margin.

    With mhat = (Phi_y - Phi_c) / ||zeta||^L over the rival pairs and
    tau = temperature / min mhat held fixed, this is the zeta gradient of
    -(1/tau) log sum exp(-tau mhat): the softmin weights W backpropagated
    as the logit cotangent of sum W (Phi_y - Phi_c), plus the norm term.
    """
    deg = spec.n_layers
    rows = np.arange(len(labels))
    rho = np.linalg.norm(params.values)
    logits, cache = mlp_forward(spec, params, x)
    mm = logits[rows, labels][:, None] - logits
    mhat = mm / rho ** deg
    q_hat = np.where(rival, mhat, np.inf).min()
    tau = temperature / max(q_hat, 1e-9)
    z = np.where(rival, -tau * mhat, -np.inf)
    w = np.exp(z - z.max())
    w[~rival] = 0.0
    w /= w.sum()
    dlogits = -w
    dlogits[rows, labels] += w.sum(axis=1)
    deltas, _ = mlp_backprop(cache, dlogits)
    return (mlp_param_grad(spec, cache, deltas) / rho ** deg
            - deg * (w * mm)[rival].sum() * params.values
            / rho ** (deg + 2))


def refine_margins(dataset, spec, params, config):
    """Ascend the scale-normalized minimum margin in place.

    Maximizes softmin_{i,c} (Phi_y - Phi_c) / ||zeta||^L with the softmin
    temperature annealed upward (``refine_temperatures``, relative to the
    current minimum), then re-polishes at the final temperature with
    decreasing Adam rates.  At convergence the survivors of the softmin
    are the binding max-margin constraints, which is what makes the
    NNLS-fitted KKT multipliers consistent.  Bias-free specs only: with
    biases the parameter norm is not a pure scale direction.
    """
    if any(spec.bias):
        raise ValueError("margin refinement requires a bias-free spec")
    n = dataset.size
    rival = np.ones((n, spec.widths[-1]), dtype=bool)
    rival[np.arange(n), dataset.labels] = False

    def ascend(temperature, adam):
        for _ in range(config.refine_iters):
            adam.step(params.values,
                      -_margin_ascent_grad(spec, params, dataset.x,
                                           dataset.labels, rival,
                                           temperature))

    # the annealing stages share one Adam; each polish stage starts afresh
    annealing = Adam(len(params), config.refine_lr)
    for temperature in config.refine_temperatures:
        ascend(temperature, annealing)
    final_t = (config.refine_temperatures[-1]
               if config.refine_temperatures else 400.0)
    for lr in config.refine_final_lrs:
        ascend(final_t, Adam(len(params), lr))
    return params


def train_classifier(dataset, spec, config):
    """Full-batch gradient descent into the max-margin regime.

    Runs until the summed cross-entropy drops below log(2)/N, then for
    ``extra_epochs`` more; with ``refine_margins`` enabled (the default
    for bias-free specs) the parameters are then polished into an actual
    max-margin KKT point.  Returns (params, trajectory) where the
    trajectory is the cross-entropy history of the GD phase.  Raises
    :class:`ConvergenceError` (carrying the trajectory) if the threshold
    is never reached, or as soon as the gradient is exactly zero before
    it is.
    """
    params = init_kaiming(spec, config.seed)
    threshold = np.log(2.0) / dataset.size
    trajectory = []
    converged_at = None
    epoch = 0
    while epoch < config.max_epochs:
        loss, grad = _ce_loss_and_grad(spec, params, dataset.x,
                                       dataset.labels)
        trajectory.append(loss)
        if converged_at is None and loss < threshold:
            converged_at = epoch
        if (converged_at is not None
                and epoch - converged_at >= config.extra_epochs):
            break
        if converged_at is None and not grad.any():
            # a GD fixed point: every later epoch would repeat this one
            raise ConvergenceError(
                f"gradient is exactly zero at epoch {epoch} with loss "
                f"{loss:.6g} above threshold {threshold:.6g} (every ReLU "
                f"dead?); gradient descent cannot move", trajectory)
        params.values -= config.learning_rate * grad
        epoch += 1
    if converged_at is None:
        raise ConvergenceError(
            f"loss {trajectory[-1]:.6g} never dropped below threshold "
            f"{threshold:.6g} within {config.max_epochs} epochs",
            trajectory)
    if config.refine_margins and not any(spec.bias):
        refine_margins(dataset, spec, params, config)
    return params, trajectory


# ---------------------------------------------------------------------------
# generator training


def _step_rng(seed, step, stream=0):
    return np.random.default_rng([int(seed), int(stream), int(step)])


def tv_loss(x, height, width):
    """Mean anisotropic total variation of a batch of flat images.

    Graph form, the reference for :func:`_tv_value_grad`.
    """
    x_t = x if isinstance(x, ad.Tensor) else ad.tensor(np.atleast_2d(x))
    m, d = x_t.value.shape
    if d != height * width:
        raise ValueError(f"flat dimension {d} != {height}x{width}")
    imgs = ad.reshape(x_t, (m, height, width))
    down = ad.absval(ad.sub(ad.slice_axis(imgs, 1, 1, height),
                            ad.slice_axis(imgs, 1, 0, height - 1)))
    right = ad.absval(ad.sub(ad.slice_axis(imgs, 2, 1, width),
                             ad.slice_axis(imgs, 2, 0, width - 1)))
    return ad.mul(ad.add(ad.tsum(down), ad.tsum(right)),
                  ad.constant(1.0 / m))


def _tv_value_grad(x, height, width):
    """:func:`tv_loss` and its x gradient in numpy (|.|' = 0 at ties)."""
    m, d = x.shape
    if d != height * width:
        raise ValueError(f"flat dimension {d} != {height}x{width}")
    imgs = x.reshape(m, height, width)
    down = imgs[:, 1:, :] - imgs[:, :-1, :]
    right = imgs[:, :, 1:] - imgs[:, :, :-1]
    value = (np.sum(np.abs(down)) + np.sum(np.abs(right))) * (1.0 / m)
    sign_down, sign_right = np.sign(down), np.sign(right)
    grad = np.zeros_like(imgs)
    grad[:, 1:, :] += sign_down
    grad[:, :-1, :] -= sign_down
    grad[:, :, 1:] += sign_right
    grad[:, :, :-1] -= sign_right
    return float(value), grad.reshape(m, d) * (1.0 / m)


def _classifier_step(classifier, gen_spec, mult_spec, state, t, labels, eps,
                     config):
    """One classifier's loss terms and their closed-form gradients.

    Runs the generator, multiplier and classifier forwards once, takes
    L_stat + beta L_dual and its x/mu/alpha gradients from
    :func:`kkt.kkt_loss_grads`, adds the TV term, then backpropagates
    through the multiplier and the generator.  Returns
    (total, l_stat, l_dual, l_tv, g_theta, g_eta, g_alpha).
    """
    gen_mlp, mult_mlp = gen_spec.mlp(), mult_spec.mlp()
    x, gen_cache = mlp_forward(gen_mlp, state.gen_params,
                               condition(eps, labels, t, gen_spec))
    if not np.isfinite(x).all():
        raise TrainingAborted(
            f"non-finite generated sample at step {state.step}",
            state.step, state)
    mu_pre, mult_cache = mlp_forward(mult_mlp, state.mult_params,
                                     condition(x, labels, t, mult_spec))
    alpha = float(state.alphas[t])
    l_stat, l_dual, dx, dmu, g_alpha = kkt_loss_grads(
        classifier.spec, classifier.params,
        lambda_bar(classifier.profile, alpha), classifier.virtual_n, x,
        labels, np.maximum(mu_pre, 0.0), alpha, float(state.deltas[t]),
        config.beta)
    total = l_stat + l_dual * config.beta
    l_tv = 0.0
    if config.tv_weight > 0:
        l_tv, dtv = _tv_value_grad(x, *config.tv_shape)
        total = total + l_tv * config.tv_weight
        dx = dx + dtv * config.tv_weight
    mult_deltas, dcond = mlp_backprop(mult_cache, dmu * (mu_pre > 0.0))
    gen_deltas, _ = mlp_backprop(gen_cache, dx + dcond[:, :x.shape[1]])
    return (total, l_stat, l_dual, l_tv,
            mlp_param_grad(gen_mlp, gen_cache, gen_deltas),
            mlp_param_grad(mult_mlp, mult_cache, mult_deltas), g_alpha)


def probe_peak_margin(classifier, config, t):
    """Largest predicted-class margin over random unit input directions.

    Data-free proxy for the classifier's margin scale: ReLU nets are
    1-homogeneous in the input, so the margin along any ray is the unit-
    sphere margin times the radius, and the peak over random directions
    estimates the top of the margin landscape at radius 1.
    """
    d = classifier.spec.widths[0]
    rng = _step_rng(config.seed, t, stream=9)
    u = rng.standard_normal((config.probe_count, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    logits = mlp_apply_np(classifier.spec, classifier.params, u)
    top2 = np.sort(logits, axis=1)
    return float((top2[:, -1] - top2[:, -2]).max())


def init_alpha(classifier, gen_spec, config, t):
    """Start e^{-alpha} at the classifier's min margin on a probe batch."""
    rng = _step_rng(config.seed, t, stream=9)
    labels = rng.integers(0, gen_spec.num_classes, size=64)
    eps = rng.standard_normal((64, gen_spec.noise_dim))
    theta = init_kaiming(gen_spec.mlp(), _spawn_seed(config.seed, 1))
    x = mlp_apply_np(gen_spec, theta, condition(eps, labels, t, gen_spec))
    logits = mlp_apply_np(classifier.spec, classifier.params, x)
    phi_y = logits[np.arange(labels.size), labels]
    rival = logits.copy()
    rival[np.arange(labels.size), labels] = -np.inf
    margins = phi_y - rival.max(axis=1)
    floor = max(float(margins.min()), 1e-3)
    return float(-np.log(floor))


def duality_band(classifier, gen_spec, config, t):
    """(alpha, delta) for classifier t under the configured band policy."""
    if config.margin_band:
        lo, hi = config.margin_band
        peak = probe_peak_margin(classifier, config, t)
        return float(-np.log(lo * peak)), float((hi - lo) * peak)
    return init_alpha(classifier, gen_spec, config, t), float(config.delta)


def _spawn_seed(seed, k):
    return int(np.random.SeedSequence([int(seed), k]).generate_state(1)[0])


def train_generator(classifiers, gen_spec, mult_spec, config,
                    state=None, callback=None):
    """Train the generator/multiplier/alpha state against T classifiers.

    With T > 1 the per-step objective cycles the classifiers round-robin
    from a seeded random offset (set ``config.full_sum`` to sum all T
    losses each step instead).  Returns the final
    :class:`GeneratorTrainState` with the full loss history.
    """
    t_count = len(classifiers)
    if t_count < 1:
        raise ValueError("at least one classifier is required")
    for k, cb in enumerate(classifiers):
        dev = verify_lambda(cb.spec, cb.params, cb.profile,
                            [-0.5, 0.5], default_probe_samples(cb.spec, 8,
                                                               seed=k))
        if dev > PROFILE_DEVIATION_LIMIT:
            raise ValueError(
                f"classifier {k} profile fails verification "
                f"(deviation {dev:.3g} > {PROFILE_DEVIATION_LIMIT})")
    if gen_spec.num_classifiers != (t_count if t_count > 1 else 1):
        raise ValueError("generator spec does not match classifier count")

    if state is None:
        theta = init_kaiming(gen_spec.mlp(), _spawn_seed(config.seed, 1))
        gen_mlp = gen_spec.mlp()
        theta.group(f"layer{gen_mlp.n_layers - 1}.weight")[:] *= \
            config.init_output_scale
        eta = init_kaiming(mult_spec.mlp(), _spawn_seed(config.seed, 2))
        bands = [duality_band(classifiers[t], gen_spec, config, t)
                 for t in range(t_count)]
        alphas = np.array([b[0] for b in bands])
        deltas = np.array([b[1] for b in bands])
        state = GeneratorTrainState(theta, eta, alphas, deltas)
        state.optimizers = {
            "theta": Adam(len(theta), config.lr_theta),
            "eta": Adam(len(eta), config.lr_eta),
            # one optimizer per alpha so the trajectories stay independent
            "alpha": [Adam(1, config.alpha_lr(t)) for t in range(t_count)],
        }
    if state.deltas is None:
        state.deltas = np.full(t_count, float(config.delta))
    offset = int(_step_rng(config.seed, 0, stream=7).integers(t_count))
    probs = config.label_probs(gen_spec.num_classes)

    while state.step < config.steps:
        step = state.step
        rng = _step_rng(config.seed, step)
        if config.full_sum:
            active = list(range(t_count))
        else:
            active = [(offset + step) % t_count]

        if not (np.isfinite(state.gen_params.values).all()
                and np.isfinite(state.mult_params.values).all()):
            raise TrainingAborted(
                f"non-finite generator or multiplier parameters at step "
                f"{step}", step, state)

        total = 0.0
        g_theta = g_eta = 0.0
        g_alphas = {}
        parts = {"stat": 0.0, "dual": 0.0, "tv": 0.0}
        for t in active:
            labels = rng.choice(gen_spec.num_classes,
                                size=config.batch_size, p=probs)
            eps = rng.standard_normal((config.batch_size,
                                       gen_spec.noise_dim))
            loss_t, l_stat, l_dual, l_tv, g_th, g_et, g_alphas[t] = \
                _classifier_step(classifiers[t], gen_spec, mult_spec, state,
                                 t, labels, eps, config)
            total = total + loss_t
            g_theta = g_theta + g_th
            g_eta = g_eta + g_et
            parts["stat"] += l_stat
            parts["dual"] += l_dual
            parts["tv"] += l_tv

        if not np.isfinite(total):
            raise TrainingAborted(
                f"non-finite loss at step {step}", step, state)

        state.optimizers["theta"].step(state.gen_params.values, g_theta)
        state.optimizers["eta"].step(state.mult_params.values, g_eta)
        for t in active:
            slot = state.alphas[t:t + 1]
            state.optimizers["alpha"][t].step(slot,
                                              np.array([g_alphas[t]]))

        row = {"step": step, "t": active[0] if len(active) == 1 else -1,
               "l_stat": parts["stat"], "l_dual": parts["dual"],
               "tv": parts["tv"],
               "total": float(total)}
        for t in range(t_count):
            row[f"alpha_{t}"] = float(state.alphas[t])
        state.history.append(row)
        state.step += 1
        if callback is not None:
            callback(state)
    return state


def sample(gen_spec, gen_params, y, n, t=None, seed=0, t_table=None):
    """Draw n conditional samples; returns (x, classifier_indices).

    For a multi-classifier generator with ``t`` omitted, classifier
    indices are drawn uniformly from ``t_table[y]``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= int(y) < gen_spec.num_classes:
        raise ValueError(f"label {y} out of range")
    rng = np.random.default_rng([int(seed), int(y)])
    multi = gen_spec.conditions_on_classifier
    if multi and t is None:
        if t_table is None or y not in t_table or not t_table[y]:
            raise ValueError(f"no classifier index available for label {y}")
        choices = sorted(t_table[y])
        ts = np.array([choices[i] for i in
                       rng.integers(0, len(choices), size=n)])
    else:
        ts = np.full(n, int(t) if t is not None else 0)
    eps = rng.standard_normal((n, gen_spec.noise_dim))
    if not n:
        return np.zeros((0, gen_spec.out_dim)), ts
    return mlp_apply_np(gen_spec, gen_params,
                        condition(eps, np.full(n, int(y)), ts,
                                   gen_spec)), ts

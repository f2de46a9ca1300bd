"""Classifier pre-training and data-free generator training.

The classifier is driven into the max-margin regime with plain full-batch
gradient descent on the summed cross-entropy until the loss drops below
log(2)/N, then for a configurable number of extra epochs so the margins
keep growing.  The generator and the multiplier network are then trained
with Adam on

    L = L_stationarity + beta * L_duality (+ tv_weight * TV),

where every step draws labels and noise from a per-step seeded stream so
runs are bit-reproducible and resumable.  Each classifier's alpha is
fixed by its duality band (:func:`duality_band`).
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .homogeneity import (VERIFY_ALPHAS, VERIFY_DEVIATION_LIMIT,
                          VerificationError, default_probe_samples,
                          lambda_bar, verify_lambda)
from .kernels import Adam, TotalVariation
from .kkt import KktTerms, stationarity_target
from .models import (BoundMlp, MlpSpec, ParameterVector, condition,
                     init_kaiming, mlp_apply_np)


# classifier GD checks for a plateau every this many epochs, on the
# loss's rate of fall over the last this many
PLATEAU_WINDOW = 1000

# margin refinement anneals through these softmin temperatures with one
# Adam, then polishes at the last one with a fresh Adam per final rate
REFINE_TEMPERATURES = (3.0, 6.0, 12.0, 25.0, 50.0, 100.0, 200.0, 400.0)
REFINE_LR = 1e-3
REFINE_FINAL_LRS = (3e-4, 1e-4, 3e-5, 1e-5, 3e-6)
# random unit inputs the duality band probes the peak margin on
MARGIN_PROBES = 256
# the generator's output layer at init is Kaiming's times this
INIT_OUTPUT_SCALE = 2.0


class ConvergenceError(RuntimeError):
    """Classifier training failed to reach the loss threshold."""

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory

    def __reduce__(self):
        return type(self), (self.args[0], self.trajectory)


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
    # iterations per stage of refine_margins (bias-free specs); 0 skips it
    refine_iters: int = 6000

    def __post_init__(self):
        # each range check is "not <in range>", which NaN fails too
        if not self.learning_rate > 0:
            raise ValueError("learning rate must be positive")
        if not self.max_epochs >= 1:
            raise ValueError("max epochs must be >= 1")
        for key in ("extra_epochs", "refine_iters", "seed"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key.replace('_', ' ')} must be "
                                 f"nonnegative")


@dataclass(frozen=True)
class GeneratorTrainConfig:
    batch_size: int = 64  # M
    beta: float = 3.0
    lr_theta: float = 1e-4
    lr_eta: float = 1e-3
    steps: int = 20_000
    tv_weight: float = 0.0
    tv_shape: tuple[int, ...] = ()  # (height, width) when tv_weight > 0
    label_distribution: tuple[float, ...] = ()  # empty = uniform
    seed: int = 0
    full_sum: bool = False  # sum all classifier losses each step
    # Duality band placement as fractions of the classifier's peak margin
    # probed on random unit directions: e^{-alpha} = lo * peak and
    # e^{-alpha} + delta = hi * peak.
    margin_band: tuple[float, ...] = (0.677, 1.03)

    def __post_init__(self):
        # each range check is "not <in range>", which NaN fails too
        if not self.batch_size >= 1:
            raise ValueError("batch size must be >= 1")
        for key in ("seed", "beta", "lr_theta", "lr_eta", "steps",
                    "tv_weight"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key.replace('_', ' ')} must be "
                                 f"nonnegative")
        if len(self.margin_band) != 2:
            raise ValueError(f"margin band must be two entries lo,hi, not "
                             f"{len(self.margin_band)}")
        lo, hi = self.margin_band
        if not 0.0 < lo < hi:
            raise ValueError("margin band must satisfy 0 < lo < hi")
        if self.tv_weight > 0 and not (len(self.tv_shape) == 2
                                       and min(self.tv_shape) > 0):
            raise ValueError("tv weight > 0 needs a tv shape of two "
                             "positive entries height,width")
        if self.label_distribution:
            p = np.asarray(self.label_distribution, dtype=np.float64)
            if not (np.isfinite(p).all() and (p >= 0.0).all()
                    and abs(p.sum() - 1.0) <= 1e-9):
                raise ValueError("label distribution must be a finite, "
                                 "nonnegative probability vector summing "
                                 "to 1")

    def label_probs(self, num_classes):
        if not self.label_distribution:
            return np.full(num_classes, 1.0 / num_classes)
        if len(self.label_distribution) != num_classes:
            raise ValueError(f"label distribution must be a length-"
                             f"{num_classes} probability vector, not "
                             f"{len(self.label_distribution)} entries")
        return np.asarray(self.label_distribution, dtype=np.float64)


@dataclass
class ClassifierBundle:
    """A pre-trained classifier with its scaling profile.

    ``name`` stands for it in error messages, such as the checkpoint it
    was read from; by default it is "classifier k", its position.
    """

    spec: MlpSpec
    params: ParameterVector
    profile: object
    virtual_n: int
    name: str = ""

    def __post_init__(self):
        if self.virtual_n < 1:
            raise ValueError("virtual dataset size must be >= 1")


@dataclass
class GeneratorTrainState:
    gen_params: ParameterVector
    mult_params: ParameterVector
    alphas: np.ndarray  # one alpha per classifier, set by its band
    deltas: np.ndarray  # duality band width per classifier
    step: int = 0
    history: list = field(default_factory=list)  # one row per step
    optimizers: dict = field(default_factory=dict)


# the fields of a row of GeneratorTrainState.history, a tuple, in order:
# the columns of the loss CSV.  t is the step's classifier, -1 under
# full_sum
HISTORY_KEYS = ("step", "t", "l_stat", "l_dual", "tv", "total")


def generator_optimizers(state, config):
    """Fresh Adam states for ``state``'s theta and eta at ``config``'s
    learning rates."""
    return {"theta": Adam(len(state.gen_params), config.lr_theta),
            "eta": Adam(len(state.mult_params), config.lr_eta)}


# ---------------------------------------------------------------------------
# classifier training (plain numpy backprop; no double backward needed)


def _ce_loss_and_grad(net, x, labels):
    """Summed cross-entropy and its flat parameter gradient.

    ``net`` is a :class:`BoundMlp`; the gradient is its buffer.
    """
    logits = net.forward(x)
    shift = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shift)
    logz = np.log(e.sum(axis=1))
    n = len(labels)
    loss = float(np.sum(logz - shift[np.arange(n), labels]))
    dlogits = e / np.exp(logz)[:, None]
    dlogits[np.arange(n), labels] -= 1.0
    return loss, net.param_grad(net.backprop(dlogits))


def refine_margins(dataset, spec, params, config):
    """Ascend the scale-normalized minimum margin in place.

    Maximizes softmin_{i,c} (Phi_y - Phi_c) / ||zeta||^L with the softmin
    temperature annealed upward (``REFINE_TEMPERATURES``, relative to the
    current minimum), then re-polishes at the final temperature with
    decreasing Adam rates (``REFINE_FINAL_LRS``).  At convergence the
    survivors of the softmin are the binding max-margin constraints,
    which is what makes the NNLS-fitted KKT multipliers consistent.
    Bias-free specs only: with biases the parameter norm is not a pure
    scale direction.

    Each iteration takes the zeta gradient of the surrogate
    -(1/tau) log sum exp(-tau mhat) over the n(C-1) rival pairs, with
    mhat = m / ||zeta||^L, m = Phi_y - Phi_c and tau = temperature /
    min mhat held fixed.  The rival margins m are one vector.
    ||zeta||^L cancels in the exponent: the unnormalized softmin weights
    are w = exp(c (m_min - m)) with c = temperature / max(m_min,
    1e-9 ||zeta||^L), which is -tau mhat less its maximum.  The logit
    cotangent is built pre-scaled by 1 / (sum w ||zeta||^L) and with the
    sign Adam descends, so the backprop gives Adam's input but for the
    norm term L (sum w m) / (sum w ||zeta||^(L+2)) zeta, one
    multiply-add.  Every buffer is bound once per call, the network's
    and Adam's included (:class:`models.BoundMlp`, :class:`kernels.Adam`).
    On the default circle classifier an iteration makes 45 numpy calls:
    5 in the forward, 4 for the ReLU masks, 7 in the backprop and
    parameter gradient, 14 in the Adam step and 15 on the margin vector
    and the norm term.
    """
    if any(spec.bias):
        raise ValueError("margin refinement requires a bias-free spec")
    net = BoundMlp(spec, params)
    values = params.values
    x = dataset.x
    deg = spec.n_layers
    n, num_classes = dataset.size, spec.widths[-1]
    # flat (i, y_i) indices, and the flat rival pairs (i, c != y_i) in
    # row order, C - 1 of them per row
    own = np.arange(n) * num_classes + dataset.labels
    rival = np.ones(n * num_classes, dtype=bool)
    rival[own] = False
    rivals = np.flatnonzero(rival)
    pairs = np.stack([own.repeat(num_classes - 1), rivals])
    gathered = np.empty(pairs.shape)  # (Phi_y, Phi_c) per rival pair
    phi_own, phi_rival = gathered
    # row 0 holds the margins m, row 1 ones: one product gives
    # (sum w m, sum w)
    margins_ones = np.ones(pairs.shape)
    m = margins_ones[0]
    w = np.empty(rivals.size)
    sums = np.empty(2)
    # the cotangent's rival entries, then its own-class entries, in the
    # order of ``cot_index``
    cot_index = np.concatenate([rivals, own])
    cot = np.empty(cot_index.size)
    cot_rival, cot_own = cot[:rivals.size], cot[rivals.size:]
    cot_rival_rows = cot_rival.reshape(n, num_classes - 1)
    minus_ones = np.full(num_classes - 1, -1.0)
    dlogits = np.empty((n, num_classes))
    norm_term = np.empty_like(values)
    # the per-iteration scalars, as 0-d arrays: a ufunc takes one with
    # less per-call work than a Python float, for the same bits
    shift, rate, cot_scale, norm_coef = (np.empty(()) for _ in range(4))

    def ascend(temperature, adam):
        for _ in range(config.refine_iters):
            rho = math.sqrt(values.dot(values))  # np.linalg.norm's bits
            scale = rho ** deg
            logits = net.forward(x)
            # the indices are in range; "clip" only skips a buffered copy
            logits.take(pairs, out=gathered, mode="clip")
            np.subtract(phi_own, phi_rival, out=m)
            m_min = m.item(m.argmin())
            shift[()] = m_min
            rate[()] = temperature / max(m_min, 1e-9 * scale)
            np.subtract(shift, m, out=w)
            np.multiply(w, rate, out=w)
            np.exp(w, out=w)
            margins_ones.dot(w, out=sums)
            margin_sum, w_sum = sums.tolist()
            cot_scale[()] = 1.0 / (w_sum * scale)
            np.multiply(w, cot_scale, out=cot_rival)
            cot_rival_rows.dot(minus_ones, out=cot_own)
            dlogits.put(cot_index, cot)
            grad = net.param_grad(net.backprop(dlogits))
            norm_coef[()] = deg * margin_sum / (w_sum * rho ** (deg + 2))
            np.multiply(values, norm_coef, out=norm_term)
            grad += norm_term
            adam.step(values, grad)

    # the annealing stages share one Adam; each polish stage starts afresh
    annealing = Adam(len(params), REFINE_LR)
    for temperature in REFINE_TEMPERATURES:
        ascend(temperature, annealing)
    for lr in REFINE_FINAL_LRS:
        ascend(REFINE_TEMPERATURES[-1], Adam(len(params), lr))
    return params


def train_classifier(dataset, spec, config):
    """Full-batch gradient descent into the max-margin regime.

    Runs until the summed cross-entropy drops below log(2)/N, then for
    ``extra_epochs`` more; a bias-free spec's parameters are then
    polished into an actual max-margin KKT point (:func:`refine_margins`,
    ``refine_iters`` steps per stage).  Returns (params, trajectory)
    where the trajectory is the cross-entropy history of the GD phase.  Raises
    :class:`ConvergenceError` (carrying the trajectory) if the threshold
    is never reached, as soon as the gradient is exactly zero before it
    is, or on a plateau: every ``PLATEAU_WINDOW`` epochs, if the loss
    did not fall over the last ``PLATEAU_WINDOW``, or would not reach
    the threshold within the epochs left at its rate of fall over them.
    """
    params = init_kaiming(spec, config.seed)
    net = BoundMlp(spec, params)
    threshold = np.log(2.0) / dataset.size
    trajectory = []
    converged_at = None
    epoch = 0
    while epoch < config.max_epochs:
        loss, grad = _ce_loss_and_grad(net, dataset.x, dataset.labels)
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
        if (converged_at is None and epoch
                and epoch % PLATEAU_WINDOW == 0):
            rate = (trajectory[epoch - PLATEAU_WINDOW] - loss) \
                / PLATEAU_WINDOW
            left = config.max_epochs - epoch
            if not rate > 0.0 or (loss - threshold) / rate > left:
                raise ConvergenceError(
                    f"loss plateau: {loss:.6g} at epoch {epoch}, down "
                    f"{rate:.3g} per epoch over the last {PLATEAU_WINDOW};"
                    f" at that rate it would not drop below threshold "
                    f"{threshold:.6g} within the {left} epochs left",
                    trajectory)
        params.values -= config.learning_rate * grad
        epoch += 1
    if converged_at is None:
        raise ConvergenceError(
            f"loss {trajectory[-1]:.6g} never dropped below threshold "
            f"{threshold:.6g} within {config.max_epochs} epochs",
            trajectory)
    if not any(spec.bias):
        refine_margins(dataset, spec, params, config)
    return params, trajectory


def train_classifiers(datasets, spec, config):
    """:func:`train_classifier` on each dataset, yielded in order as
    ``(params, trajectory)``.

    A failure is raised at its dataset's turn: its
    :class:`ConvergenceError`, or a ``ChildProcessError`` for a forked
    training that ended without sending its result.  Where ``os.fork``
    exists, every dataset after the first trains in a forked child
    while this process trains the first, with the bits it would have
    here.  A failure, or closing the generator
    (``contextlib.closing``), kills and reaps every child whose result
    was not read, so none outlives an exception in the consumer.
    """
    children = []
    try:
        if hasattr(os, "fork"):
            for dataset in datasets[1:]:
                children.append(_ForkedTraining(dataset, spec, config))
        for k, dataset in enumerate(datasets):
            yield (children[k - 1].result() if k and children
                   else train_classifier(dataset, spec, config))
    finally:
        for child in children:
            child.close()


class _ForkedTraining:
    """:func:`train_classifier` in a forked child, whose result or
    ConvergenceError comes back pickled down a pipe.  The child ends in
    ``os._exit``, so it runs no atexit handler and flushes no stdio
    buffer it inherited."""

    def __init__(self, dataset, spec, config):
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                try:
                    result = train_classifier(dataset, spec, config)
                except ConvergenceError as exc:
                    result = exc
                with open(write_fd, "wb") as pipe:
                    pickle.dump(result, pipe)
                status = 0
            except Exception:
                import traceback
                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(status)
        os.close(write_fd)
        self.fd = read_fd

    def result(self):
        """Read the result, reap the child; once.  The child's
        ConvergenceError is raised here."""
        fd, self.fd = self.fd, None
        with open(fd, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status == 0:
            result = pickle.loads(data)
            if isinstance(result, ConvergenceError):
                raise result
            return result
        code = os.waitstatus_to_exitcode(status)
        how = (f"was killed by signal {-code} ({signal.Signals(-code).name})"
               if code < 0 else f"exited with status {code}")
        raise ChildProcessError(
            f"training process {how} before it sent its result")

    def close(self):
        """Kill and reap the child unless its result was read."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


# ---------------------------------------------------------------------------
# generator training


# SeedSequence's mixing constants, which NEP 19 keeps fixed, and the
# multiplier of PCG64's 128-bit LCG
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# steps per seed table; its uint32 temporaries are 1 KB each
SEED_BLOCK = 256


def _uint32_words(n):
    """The uint32 words SeedSequence makes of a nonnegative int, low
    word first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_words(seed, stream, start, stop):
    """``np.random.SeedSequence([seed, stream, step]).generate_state(4,
    np.uint64)`` for each step of [start, stop), the rows of a uint64
    array.

    SeedSequence's entropy mixing and its state generation run on uint32
    arrays over the steps.  The steps must share every word but the low
    one, as they do within a multiple of 2**32.
    """
    n = stop - start
    if not (0 <= start < stop and (start ^ (stop - 1)) >> 32 == 0):
        raise ValueError(f"steps [{start}, {stop}) cross a multiple of "
                         f"2**32")
    step_words = _uint32_words(start)
    entropy = [np.full(n, word, dtype=np.uint32) for word in
               _uint32_words(seed) + _uint32_words(stream) + step_words]
    entropy[-len(step_words)] += np.arange(n, dtype=np.uint32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy)
                    else np.zeros(n, dtype=np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = np.empty((8, n), dtype=np.uint64)
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[i] = value ^ value >> 16
    # each uint64 is a pair of uint32 words, the low one first
    return (state[::2] | state[1::2] << np.uint64(32)).T


class _StepRng:
    """Step -> the Generator of ``np.random.default_rng([seed, stream,
    step])``, bit for bit: one PCG64 whose state each call seeds from the
    step's row of a table of :func:`_seed_words`, built ``SEED_BLOCK``
    steps at a time from the step asked for.  The Generator is the same
    object at every step, so a step's draws end at the next call."""

    def __init__(self, seed, stream):
        self.seed, self.stream = int(seed), int(stream)
        self.bit_generator = np.random.PCG64(0)
        self.generator = np.random.Generator(self.bit_generator)
        self.start = self.stop = 0
        self.table = None

    def __call__(self, step):
        if not self.start <= step < self.stop:
            self.start = step
            self.stop = min(step + SEED_BLOCK, (step | _MASK32) + 1)
            self.table = _seed_words(self.seed, self.stream, self.start,
                                     self.stop)
        # PCG64's seeding: its 128-bit LCG starts at 0, steps once with
        # the odd increment, adds the seed and steps again.  It is done
        # per step: a table of the 128-bit states as Python ints, made a
        # block at a time, raised patterns-tv's peak RSS by 1.5 MB in
        # most benchmark runs
        s_hi, s_lo, i_hi, i_lo = self.table[step - self.start].tolist()
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        self.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
        return self.generator


def _classifier_step(kkt, gen, mult, x, t, labels, config, mult_in, tv):
    """One classifier's loss terms and their closed-form gradients.

    ``kkt`` is classifier t's :class:`kkt.KktTerms`, and ``gen`` and
    ``mult`` are :class:`BoundMlp` bindings of the generator's and the
    multiplier's parameters; ``x`` is the output of ``gen``'s latest
    forward, on labels ``labels`` and classifier t.  Runs the multiplier
    and classifier forwards once, takes L_stat + beta L_dual and its x/mu
    gradients from ``kkt``, adds the TV term of ``tv`` (the run's
    :class:`kernels.TotalVariation`, or None without a TV term) into the
    x gradient in place, then backpropagates through the multiplier and
    the generator.  ``mult_in`` is the buffer :func:`condition` writes
    the multiplier's input into.  Returns (total, l_stat, l_dual, l_tv,
    g_theta, g_eta); g_theta and g_eta are the bindings' gradient
    buffers, valid until the next call.
    """
    mu_pre = mult.forward(condition(x, labels, t, mult.spec, mult_in))
    l_stat, l_dual, dx, dmu = kkt(x, labels, mu_pre)
    total = l_stat + l_dual * config.beta
    l_tv = 0.0
    if tv is not None:
        l_tv, dtv = tv(x)
        total = total + l_tv * config.tv_weight
        dtv *= config.tv_weight
        dx += dtv
    mult_deltas = mult.backprop(dmu)
    dx += mult.input_cotangent(mult_deltas)[:, :x.shape[1]]
    return (total, l_stat, l_dual, l_tv, gen.param_grad(gen.backprop(dx)),
            mult.param_grad(mult_deltas))


def probe_peak_margin(classifier, config, t):
    """Largest predicted-class margin over random unit input directions.

    Data-free proxy for the classifier's margin scale: ReLU nets are
    1-homogeneous in the input, so the margin along any ray is the unit-
    sphere margin times the radius, and the peak over random directions
    estimates the top of the margin landscape at radius 1.
    """
    d = classifier.spec.widths[0]
    u = _StepRng(config.seed, 9)(t).standard_normal((MARGIN_PROBES, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    logits = mlp_apply_np(classifier.spec, classifier.params, u)
    top2 = np.sort(logits, axis=1)
    return float((top2[:, -1] - top2[:, -2]).max())


def duality_band(classifier, config, t):
    """(alpha, delta) of classifier t: the band [e^{-alpha},
    e^{-alpha} + delta] spans ``margin_band`` times its probed peak
    margin.  A peak that is not finite and positive, as of a classifier
    whose logits all tie, leaves no band: it is refused."""
    lo, hi = config.margin_band
    peak = probe_peak_margin(classifier, config, t)
    if not (math.isfinite(peak) and peak > 0.0):
        raise ValueError(
            f"{classifier.name or f'classifier {t}'}: probed peak margin "
            f"{peak:.6g} is not finite and positive, so it places no "
            f"duality band")
    return float(-np.log(lo * peak)), float((hi - lo) * peak)


def _spawn_seed(seed, k):
    return int(np.random.SeedSequence([int(seed), k]).generate_state(1)[0])


def train_generator(classifiers, gen_spec, mult_spec, config,
                    state=None, callback=None):
    """Train the generator and multiplier against T classifiers.

    With T > 1 the per-step objective cycles the classifiers round-robin
    from a seeded random offset (set ``config.full_sum`` to sum all T
    losses each step instead).  Returns the final
    :class:`GeneratorTrainState` with the full loss history.

    What does not change between steps is bound once per run: the
    network bindings, the conditional-input buffers, the label CDF, each
    classifier's KKT terms (:class:`kkt.KktTerms`: its binding,
    stationarity target, band, beta and buffers), the TV kernel, the
    gradient sums of ``full_sum`` (one classifier's gradients go to Adam
    as the bindings' buffers), the bool buffers of the per-step
    finiteness checks and the step's random stream.  Step s draws its
    labels and noise from what ``np.random.default_rng([seed, 0, s])``
    would give, from one reused Generator whose state a seed table sets
    (:class:`_StepRng`), so a resumed run draws what a straight run
    does.
    """
    t_count = len(classifiers)
    if t_count < 1:
        raise ValueError("at least one classifier is required")
    # the config against the specs, before any profile is verified
    probs = config.label_probs(gen_spec.num_classes)
    if config.tv_weight > 0 and math.prod(config.tv_shape) != \
            gen_spec.out_dim:
        raise ValueError(f"tv shape {config.tv_shape[0]}x"
                         f"{config.tv_shape[1]} does not hold the "
                         f"generator's {gen_spec.out_dim} outputs")
    if gen_spec.num_classifiers != t_count:
        raise ValueError("generator spec does not match classifier count")
    # the step feeds the generator's output to each classifier and to the
    # multiplier, and indexes their outputs by the drawn labels unchecked
    for key, gen_key in (("in_dim", "out_dim"),
                         ("num_classes", "num_classes"),
                         ("num_classifiers", "num_classifiers")):
        got, want = getattr(mult_spec, key), getattr(gen_spec, gen_key)
        if got != want:
            raise ValueError(f"multiplier spec has {key} {got}, the "
                             f"generator spec {gen_key} {want}")
    names = [cb.name or f"classifier {k}"
             for k, cb in enumerate(classifiers)]
    for name, cb in zip(names, classifiers):
        if cb.spec.widths[0] != gen_spec.out_dim:
            raise ValueError(
                f"{name} has {cb.spec.widths[0]} inputs, the generator "
                f"spec {gen_spec.out_dim} outputs")
        if cb.spec.widths[-1] != gen_spec.num_classes:
            raise ValueError(
                f"{name} has {cb.spec.widths[-1]} classes, the generator "
                f"spec {gen_spec.num_classes}")
    for k, (name, cb) in enumerate(zip(names, classifiers)):
        dev = verify_lambda(cb.spec, cb.params, cb.profile, VERIFY_ALPHAS,
                            default_probe_samples(cb.spec, 8, seed=k))
        if not dev <= VERIFY_DEVIATION_LIMIT:
            raise VerificationError(
                f"{name}: profile fails verification "
                f"(deviation {dev:.3g}, limit {VERIFY_DEVIATION_LIMIT})")

    if state is None:
        theta = init_kaiming(gen_spec.mlp(), _spawn_seed(config.seed, 1))
        gen_mlp = gen_spec.mlp()
        theta.group(f"layer{gen_mlp.n_layers - 1}.weight")[:] *= \
            INIT_OUTPUT_SCALE
        eta = init_kaiming(mult_spec.mlp(), _spawn_seed(config.seed, 2))
        bands = [duality_band(classifiers[t], config, t)
                 for t in range(t_count)]
        alphas = np.array([b[0] for b in bands])
        deltas = np.array([b[1] for b in bands])
        state = GeneratorTrainState(theta, eta, alphas, deltas)
        state.optimizers = generator_optimizers(state, config)
    offset = int(_StepRng(config.seed, 7)(0).integers(t_count))
    # Generator.choice's draw: the searchsorted of uniforms in the cdf
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    m, noise_dim = config.batch_size, gen_spec.noise_dim
    gen = BoundMlp(gen_spec, state.gen_params)
    mult = BoundMlp(mult_spec, state.mult_params)
    gen_in = np.empty((m, gen.mlp.in_dim))
    mult_in = np.empty((m, mult.mlp.in_dim))
    kkts = [KktTerms(BoundMlp(cb.spec, cb.params),
                     stationarity_target(cb.params,
                                         lambda_bar(cb.profile, float(alpha)),
                                         cb.virtual_n),
                     m, float(alpha), float(delta), config.beta)
            for cb, alpha, delta in zip(classifiers, state.alphas,
                                        state.deltas)]
    tv = TotalVariation(m, *config.tv_shape) if config.tv_weight > 0 \
        else None
    theta, eta = state.gen_params.values, state.mult_params.values
    # under full_sum the classifiers' gradients are summed into these
    # from 0.0; one classifier's are Adam's input as they are
    sums = (np.empty_like(theta), np.empty_like(eta)) \
        if config.full_sum else None
    # the per-step finiteness checks write into these
    finite_theta, finite_eta = (np.empty(v.shape, dtype=bool)
                                for v in (theta, eta))
    finite_x = np.empty((m, gen_spec.out_dim), dtype=bool)
    step_rng = _StepRng(config.seed, 0)

    while state.step < config.steps:
        step = state.step
        rng = step_rng(step)
        if config.full_sum:
            active = list(range(t_count))
        else:
            active = [(offset + step) % t_count]

        if not (np.isfinite(theta, out=finite_theta).all()
                and np.isfinite(eta, out=finite_eta).all()):
            raise TrainingAborted(
                f"non-finite generator or multiplier parameters at step "
                f"{step}", step, state)

        total = 0.0
        l_stat = l_dual = l_tv = 0.0
        if sums is not None:
            g_theta, g_eta = sums
            g_theta.fill(0.0)
            g_eta.fill(0.0)
        for t in active:
            labels = cdf.searchsorted(rng.random(m), side="right")
            eps = rng.standard_normal((m, noise_dim))
            x = gen.forward(condition(eps, labels, t, gen_spec, gen_in))
            if not np.isfinite(x, out=finite_x).all():
                raise TrainingAborted(
                    f"non-finite generated sample at step {step}", step,
                    state)
            loss_t, stat_t, dual_t, tv_t, g_th, g_et = _classifier_step(
                kkts[t], gen, mult, x, t, labels, config, mult_in, tv)
            total = total + loss_t
            if sums is None:
                g_theta, g_eta = g_th, g_et
            else:
                g_theta += g_th
                g_eta += g_et
            l_stat += stat_t
            l_dual += dual_t
            l_tv += tv_t

        if not np.isfinite(total):
            raise TrainingAborted(
                f"non-finite loss at step {step}", step, state)

        state.optimizers["theta"].step(theta, g_theta)
        state.optimizers["eta"].step(eta, g_eta)

        state.history.append((step, active[0] if len(active) == 1 else -1,
                              l_stat, l_dual, l_tv, float(total)))
        state.step += 1
        if callback is not None:
            callback(state)
    return state


def sample(gen_spec, gen_params, y, n, t=None, seed=0):
    """Draw n conditional samples; returns (x, classifier_indices).

    For a multi-classifier generator with ``t`` omitted, classifier
    indices are drawn uniformly from all its classifiers.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= int(y) < gen_spec.num_classes:
        raise ValueError(f"label {y} out of range")
    if t is not None and not 0 <= int(t) < gen_spec.num_classifiers:
        raise ValueError(f"classifier index {t} out of range")
    rng = np.random.default_rng([int(seed), int(y)])
    if gen_spec.conditions_on_classifier and t is None:
        ts = rng.integers(0, gen_spec.num_classifiers, size=n)
    else:
        ts = np.full(n, int(t) if t is not None else 0)
    eps = rng.standard_normal((n, gen_spec.noise_dim))
    return mlp_apply_np(gen_spec, gen_params,
                        condition(eps, np.full(n, int(y)), ts,
                                   gen_spec)), ts

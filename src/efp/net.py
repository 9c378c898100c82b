"""The twin embedding network: MLP, contrastive loss, backprop, training.

Hidden layers are ReLU; the output layer is linear and each output row is
then divided by its L2 norm, so embeddings lie on the unit sphere (as in
FaceNet, arXiv 1503.03832). That keeps pair distances in [0, 2], so the
contrastive margin stays meaningful and the positive-pair pull cannot shrink
every embedding towards one point.

The two branches of the twin are one network with one parameter set, so a
batch of pairs (X1, X2) runs as one forward and one backward pass over the
stacked rows [X1; X2]: each weight gradient sums both sides' contributions in
one GEMM. All training math runs in float64; models are persisted (and
therefore quantized) at float32.

The parameters are one float64 vector, ``MlpParams.flat``, laid out w0, b0,
w1, b1, ... as a model file stores them; each layer's weight and bias are
views of it. So the gradient is a second ``MlpParams`` that the backward pass
writes into, the optimizers' ``step(grad)`` takes one flat gradient, and
copying, range-checking, quantizing, saving and loading the parameters are
each one operation on one array. The training step allocates no
parameter-sized array: ``train`` reuses one gradient for every batch, and
both optimizers update the vector in place, ``ADAM_BLOCK`` values at a time.
SGD and Adam's two moments are computed by the same operations in the same
order as the plain formulas with fresh temporaries, so they are bit-identical
to them. Adam's parameter step takes Kingma & Ba's reordering (arXiv
1412.6980, section 2), with one division per coordinate instead of three and
a square root: it equals the plain formula in exact arithmetic and differs
from it by rounding. The learning rate is a scalar, and layer 0's weights may
instead take one rate per input column.

A batch of pairs repeats clips: one clip is in several of its pairs, on
either side. The batch finds its distinct rows (keyed on a few leading
values, merged only when the whole rows are equal), and layer 0 multiplies
each of them once, in the forward pass and in its weight gradient, where the
deltas of equal rows are summed first. The loss, the gradients of the other
layers and every bias gradient are bit-identical to those of the full batch;
layer 0's weight gradient differs from it only in the order of its sums.

The feature pooling copies filled bands and time bins into empty ones, so
most input columns repeat another (3,363 distinct of 13,509 on the
acceptance corpus). ``train`` groups the equal columns of its standardized
rows and trains layer 0 on one column per group: the group's weight column
holds the sum of its columns' weights and steps with the learning rate times
the group's size n_c, which is how the sum moves when each of its columns
takes the same per-coordinate step. At the end it expands the groups back to
the full width, each column moved by 1/n_c of its group's move, so the model
file, ``forward_eval`` and ``embed`` see the full-width network. The
expansion draws, expands and rounds one full-width vector in place, which
the model then keeps, and gathers full-width columns a block of rows at a
time.
"""

from __future__ import annotations

import hashlib
import io
import logging
import math
import time
import types
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import binio
from .errors import DataError, NumericError
from .features import FeatureCache
from .pairs import PairSet

logger = logging.getLogger(__name__)

DEFAULT_LAYER_DIMS = (13509, 512, 256, 128)

MODEL_MAGIC = b"EFPM"
MODEL_VERSION = 2

_F32_MAX = float(np.finfo(np.float32).max)

# The optimizers walk each array in blocks of this many float64 values (256 KB),
# so the block slices one Adam update touches (parameter, gradient, two
# moments, two scratch) stay in L2 cache between its passes. On a Xeon with
# 4 MiB of L2 per core, an Adam step at the acceptance corpus's folded width
# took within 4% of the same time with blocks of 16K, 32K and 64K values.
ADAM_BLOCK = 32768

# A batch row's first values, as bytes, key it among the batch's rows; rows
# that share a key are merged only when they are equal as a whole
_ROW_KEY = 8


def _param_count(layer_dims: Sequence[int]) -> int:
    return sum(a * b + b for a, b in zip(layer_dims[:-1], layer_dims[1:]))


# Training runs in float64; a float32 vector is a model file's parameter
# block, which SiameseModel widens
_FLAT_DTYPES = (np.float64, np.float32)


class MlpParams:
    """Weights and biases in one C-contiguous float64 vector, ``flat``, laid
    out w0, b0, w1, b1, ... (each row-major). ``weights[l]``, of shape
    (out_dim, in_dim), and ``biases[l]`` are views of ``flat``.

    Built from per-layer arrays, the values are copied into a new ``flat``;
    ``from_flat`` wraps a vector as it is, which may also be float32.
    """

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must be non-empty parallel lists")
        for l, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {l}: weight {w.shape} and bias {b.shape} disagree")
            if l > 0 and w.shape[1] != weights[l - 1].shape[0]:
                raise ValueError(f"layer {l}: input dim breaks the layer chain")
        dims = (weights[0].shape[1],) + tuple(w.shape[0] for w in weights)
        layers = [a for pair in zip(weights, biases) for a in pair]
        self._adopt(dims, np.concatenate(layers, axis=None, dtype=np.float64))

    @classmethod
    def from_flat(cls, layer_dims: Sequence[int], flat: np.ndarray) -> "MlpParams":
        """The parameters of a network of these widths as views of ``flat``,
        a C-contiguous float64 vector of their count, which is not copied."""
        params = cls.__new__(cls)
        params._adopt(tuple(layer_dims), flat)
        return params

    def _adopt(self, dims: tuple[int, ...], flat: np.ndarray) -> None:
        if flat.shape != (_param_count(dims),) or flat.dtype not in _FLAT_DTYPES \
                or not flat.flags.c_contiguous:
            raise ValueError(f"{flat.dtype} vector of shape {flat.shape} cannot hold "
                             f"the parameters of layers {dims}")
        # a NaN or inf makes the min or the max non-finite; neither allocates
        if flat.size and not np.isfinite([flat.min(), flat.max()]).all():
            raise ValueError("non-finite parameters")
        self.layer_dims = dims
        self.flat = flat
        self.weights, self.biases = [], []
        start = 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            stop = start + fan_out * fan_in
            self.weights.append(flat[start:stop].reshape(fan_out, fan_in))
            self.biases.append(flat[stop : stop + fan_out])
            start = stop + fan_out

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpParams":
        return MlpParams.from_flat(self.layer_dims, self.flat.copy())


@dataclass(frozen=True)
class LossConfig:
    margin: float = 1.0

    def __post_init__(self):
        if not 0 < self.margin < np.inf:
            raise ValueError(f"margin must be positive and finite, got {self.margin}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    dropout: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def init_params(seed: int, layer_dims: Sequence[int] = DEFAULT_LAYER_DIMS) -> MlpParams:
    """Uniform init in +/- sqrt(6 / (fan_in + fan_out)), zero biases. Each
    weight matrix is drawn in place as ``rng.uniform(-limit, limit)`` draws
    it, low + (high - low) * u with the same roundings."""
    rng = np.random.default_rng([seed])
    params = MlpParams.from_flat(layer_dims, np.zeros(_param_count(layer_dims)))
    for w in params.weights:
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        rng.random(out=w)
        w *= limit - -limit
        w += -limit
    return params


@dataclass
class ForwardCache:
    """State needed to backpropagate one batch of rows."""

    inputs: list[np.ndarray]   # input to each layer, after previous dropout
    gates: list[np.ndarray]    # ReLU derivative per hidden layer (pre-activation > 0)
    masks: list[np.ndarray]    # inverted-dropout masks for the hidden layers
    embeddings: np.ndarray     # unit-norm output rows (zero where the raw row is zero)
    norms: np.ndarray          # L2 norm of each raw output row
    rows: np.ndarray | None    # each batch row's row of inputs[0]; None: row i is row i


def _unit_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each row by its L2 norm; an all-zero row stays the zero vector."""
    norms = np.sqrt(np.sum(np.square(u), axis=1))
    return u / np.where(norms > 0.0, norms, 1.0)[:, np.newaxis], norms


def forward_train(
    params: MlpParams,
    X: np.ndarray,
    dropout_rate: float,
    rng: np.random.Generator,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Training-mode forward pass: ReLU and dropout after every hidden layer
    (inverted scaling, so eval mode needs none), then a linear output layer
    whose rows are L2-normalized into the embeddings.

    With ``rows``, batch row i is row ``rows[i]`` of ``X``: layer 0 multiplies
    each row of ``X`` once, and its pre-activations are gathered into the
    batch rows before ReLU and dropout, so each batch row draws its own mask
    from ``rng`` as it would from the full batch."""
    h = np.asarray(X, dtype=np.float64)
    inputs, gates, masks = [], [], []
    keep = 1.0 - dropout_rate
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = h @ w.T + b
        if l == 0 and rows is not None:
            z = z[rows]
        if l == params.n_layers - 1:
            break
        gate = z > 0
        gates.append(gate)
        if dropout_rate > 0.0:
            mask = (rng.random(z.shape) >= dropout_rate) / keep
        else:
            mask = np.ones_like(z)
        masks.append(mask)
        h = np.where(gate, z, 0.0) * mask
    e, norms = _unit_rows(z)
    return e, ForwardCache(inputs=inputs, gates=gates, masks=masks,
                           embeddings=e, norms=norms, rows=rows)


def forward_eval(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """Eval-mode forward pass: no dropout, no scaling, deterministic."""
    h = np.asarray(X, dtype=np.float64)
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.maximum(h @ w.T + b, 0.0)
    return _unit_rows(h @ params.weights[-1].T + params.biases[-1])[0]


def _contrastive(y, d, margin: float):
    """Per-pair contrastive loss, 0.5*d^2 where y == 1 and 0.5*hinge^2
    elsewhere, and the hinge max(0, margin - d)."""
    hinge = np.maximum(0.0, margin - d)
    return np.where(y == 1, 0.5 * d * d, 0.5 * hinge * hinge), hinge


def _backprop_into(
    params: MlpParams,
    cache: ForwardCache,
    grad_out: np.ndarray,
    grads: MlpParams,
) -> None:
    """Write d(loss)/d(params), given d(loss)/d(embedding) for every row the
    forward pass saw, into grads.

    Through the normalization e = u/|u| the gradient is (g - e(e.g)) / |u|;
    a zero raw row (embedded as the zero vector) passes no gradient.
    """
    e = cache.embeddings
    radial = np.sum(e * grad_out, axis=1, keepdims=True)
    norms = np.where(cache.norms > 0.0, cache.norms, np.inf)
    delta = (grad_out - e * radial) / norms[:, np.newaxis]
    for l in range(params.n_layers - 1, -1, -1):
        np.sum(delta, axis=0, out=grads.biases[l])
        if l == 0 and cache.rows is not None:
            # the deltas of the batch rows that share a row of inputs[0],
            # summed in row order, so the product runs over its rows once
            summed = np.zeros((len(cache.inputs[0]), delta.shape[1]))
            for i, row in enumerate(cache.rows.tolist()):
                summed[row] += delta[i]
            delta = summed
        np.matmul(delta.T, cache.inputs[l], out=grads.weights[l])
        if l > 0:
            delta = (delta @ params.weights[l]) * cache.masks[l - 1] * cache.gates[l - 1]


def batch_loss_and_grads(
    params: MlpParams,
    X1: np.ndarray,
    X2: np.ndarray,
    y: np.ndarray,
    loss_cfg: LossConfig,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    grads: MlpParams | None = None,
) -> tuple[float, MlpParams]:
    """Mean contrastive loss over a batch of pairs plus its exact gradient.

    Subgradient conventions: at the hinge (d == margin, y=0) and at d == 0
    (y=0) the contribution is zero. Both sides of every pair go through one
    forward and one backward pass over the stacked rows [X1; X2], each row
    with its own dropout mask, so each gradient sums both sides'
    contributions. Layer 0 multiplies only the distinct rows of [X1; X2]
    (``_distinct_rows``).

    The gradient, shaped like ``params``, is written over whatever ``grads``
    holds and returned as it; without ``grads`` it is a fresh ``MlpParams``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = len(X1)
    distinct, rows = _distinct_rows(X1, X2)
    e, cache = forward_train(params, distinct, dropout_rate, rng, rows)
    y = np.asarray(y, dtype=np.float64)
    diff = e[:n] - e[n:]
    d = np.sqrt(np.sum(np.square(diff), axis=1))
    losses, hinge = _contrastive(y, d, loss_cfg.margin)
    loss = float(losses.mean())
    # d(loss_i)/d(e1_i) = coef_i * (e1_i - e2_i) = -d(loss_i)/d(e2_i); similar
    # pairs pull together (coef 1), dissimilar pairs inside the margin push apart
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_coef = np.where(d > 0.0, -hinge / d, 0.0)
    coef = np.where(y == 1.0, 1.0, neg_coef) / len(d)
    grad_e1 = coef[:, np.newaxis] * diff
    if grads is None:
        grads = MlpParams.from_flat(params.layer_dims, np.zeros_like(params.flat))
    _backprop_into(params, cache, np.concatenate((grad_e1, -grad_e1)), grads)
    return loss, grads


def _distinct_rows(X1: np.ndarray, X2: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct rows of [X1; X2] in the order they first appear, and each
    of the 2n rows' index among them; with no repeated row, [X1; X2] itself
    and None. A row's first ``_ROW_KEY`` values key it, and two rows with the
    same key are merged only when ``np.array_equal`` holds for the whole rows."""
    X1 = np.asarray(X1, dtype=np.float64)
    X2 = np.asarray(X2, dtype=np.float64)
    n = len(X1)
    lead = np.concatenate((X1[:, :_ROW_KEY], X2[:, :_ROW_KEY]))
    keys, width = lead.tobytes(), lead.itemsize * lead.shape[1]
    first: list[int] = []               # the batch row each distinct row is first seen at
    by_key: dict[bytes, list[int]] = {}  # the distinct rows with each key
    rows = np.empty(2 * n, dtype=np.intp)
    for i in range(2 * n):
        row = X1[i] if i < n else X2[i - n]
        same_key = by_key.setdefault(keys[i * width : (i + 1) * width], [])
        for g in same_key:
            j = first[g]
            if np.array_equal(X1[j] if j < n else X2[j - n], row):
                rows[i] = g
                break
        else:
            rows[i] = len(first)
            same_key.append(len(first))
            first.append(i)
    if len(first) == 2 * n:
        return np.concatenate((X1, X2)), None
    first = np.array(first)
    k = np.searchsorted(first, n)
    distinct = np.empty((first.size, X1.shape[1]))
    # "clip" writes into the out slices directly; every index is in range
    np.take(X1, first[:k], axis=0, out=distinct[:k], mode="clip")
    np.take(X2, first[k:] - n, axis=0, out=distinct[k:], mode="clip")
    return distinct, rows


def _blocks(size: int):
    """Slices that walk ``size`` values ``ADAM_BLOCK`` at a time."""
    return (slice(start, start + ADAM_BLOCK) for start in range(0, size, ADAM_BLOCK))


def _row_blocks(n_rows: int, width: int):
    """Slices of whole rows of a (n_rows, width) matrix, about ``ADAM_BLOCK``
    values (and at least one row) each."""
    step = max(1, ADAM_BLOCK // width)
    return (slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step))


def _rate_blocks(params: MlpParams, learning_rate: float | np.ndarray,
                 column_rates: np.ndarray | None) -> list[tuple[slice, tuple, object]]:
    """(slice of ``params.flat``, shape, learning rate) of each block an
    optimizer walks. With ``column_rates``, one per input column, layer 0's
    weights come first, in blocks of whole rows shaped (rows, in_dim) that the
    column rates broadcast over; the rest of the vector, or all of it, goes
    ``ADAM_BLOCK`` values at a time at the scalar ``learning_rate`` (a float,
    or a 0-d array that Adam rescales in place each step)."""
    out, start = [], 0
    if column_rates is not None:
        out_dim, in_dim = params.weights[0].shape
        if np.shape(column_rates) != (in_dim,):
            raise ValueError(f"column rates of shape {np.shape(column_rates)} for "
                             f"{in_dim} input columns")
        for rows in _row_blocks(out_dim, in_dim):
            out.append((slice(rows.start * in_dim, rows.stop * in_dim),
                        (rows.stop - rows.start, in_dim), column_rates))
        start = out_dim * in_dim
    size = params.flat.size
    for start in range(start, size, ADAM_BLOCK):
        stop = min(start + ADAM_BLOCK, size)
        out.append((slice(start, stop), (stop - start,), learning_rate))
    return out


class SgdOptimizer:
    """p -= lr * grad, with ``lr`` the scalar learning rate or, with
    ``column_rates``, each layer-0 weight's input column's rate."""

    def __init__(self, params: MlpParams, learning_rate: float,
                 column_rates: np.ndarray | None = None):
        self.params = params
        self._blocks = _rate_blocks(params, learning_rate, column_rates)
        self._scratch = np.empty(max(b.stop - b.start for b, _, _ in self._blocks))

    def step(self, grad: np.ndarray) -> None:
        """Update the parameters in place from a gradient shaped like ``flat``."""
        p = self.params.flat
        for block, shape, lr in self._blocks:
            pb = p[block].reshape(shape)
            s = self._scratch[: pb.size].reshape(shape)
            np.multiply(lr, grad[block].reshape(shape), out=s)
            pb -= s


class AdamOptimizer:
    """Adam (Kingma & Ba, arXiv 1412.6980) with bias-corrected moments ``m``
    and ``v``, each one vector shaped like ``params.flat``. The learning rate
    is a scalar; with ``column_rates``, each layer-0 weight steps at its input
    column's rate instead.

    The step is the paper's reordering (end of section 2),
    ``p -= lr * (sqrt(c2) / c1) * m / (sqrt(v) + eps * sqrt(c2))``, which in
    exact arithmetic is ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` with
    ``c1 = 1 - beta1**t`` and ``c2 = 1 - beta2**t``, and makes one division
    per coordinate instead of three. Each step scales the learning rate and
    the column rates by ``sqrt(c2) / c1`` once, into arrays kept for that,
    which the blocks read."""

    def __init__(
        self,
        params: MlpParams,
        learning_rate: float,
        column_rates: np.ndarray | None = None,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        # this step's scaled rates, which the blocks read, and the given ones
        scaled = np.empty(()), None if column_rates is None else np.empty(np.shape(column_rates))
        self._rates = [(given, out) for given, out in zip((learning_rate, column_rates), scaled)
                       if given is not None]
        self._blocks = _rate_blocks(params, *scaled)
        self._scratch = np.empty((2, max(b.stop - b.start for b, _, _ in self._blocks)))

    def step(self, grad: np.ndarray) -> None:
        """Update the parameters in place from a gradient shaped like ``flat``."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        root_c2 = math.sqrt(1.0 - self.beta2 ** self.t)
        for given, scaled in self._rates:
            np.multiply(given, root_c2 / c1, out=scaled)
        arrays = (self.params.flat, grad, self.m, self.v)
        for block, shape, rate in self._blocks:
            self._update(*(a[block].reshape(shape) for a in arrays), rate, self.eps * root_c2)

    def _update(self, p, g, m, v, rate, eps: float) -> None:
        """m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g^2, one operation at a
        time as the plain formulas make them; then p -= rate * m / (sqrt(v) +
        eps), with the rate and eps already scaled for this step."""
        s1, s2 = (s[: p.size].reshape(p.shape) for s in self._scratch)
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=s1)
        v *= self.beta2
        np.square(g, out=s1)
        v += np.multiply(1.0 - self.beta2, s1, out=s1)
        np.sqrt(v, out=s2)
        s2 += eps
        np.multiply(m, rate, out=s1)
        s1 /= s2
        p -= s1


OPTIMIZERS = {"sgd": SgdOptimizer, "adam": AdamOptimizer}


def _quantize_f32(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def _round_f32(a: np.ndarray) -> np.ndarray:
    """Round the float64 vector ``a`` to float32 values in place, a block at
    a time; returns ``a``."""
    for block in _blocks(a.size):
        a[block] = _quantize_f32(a[block])
    return a


@dataclass
class SiameseModel:
    """Trained network bundled with its margin and normalization stats.

    All arrays are quantized to float32-representable values on construction
    so that a model behaves identically before and after a save/load
    round-trip. The model adopts the float64 parameter vector it is given and
    rounds it in place (a float32 one is widened into a new vector first), so
    a caller that needs its parameters unchanged passes a copy. A model file
    stores, after the magic and version, the layer count and widths (u32),
    the margin (f64), the means and stds and then ``params.flat``, each as one
    float32 block.
    """

    params: MlpParams
    margin: float
    feature_means: np.ndarray
    feature_stds: np.ndarray

    def __post_init__(self):
        flat = _round_f32(self.params.flat.astype(np.float64, copy=False))
        self.params = MlpParams.from_flat(self.params.layer_dims, flat)
        self.feature_means = _quantize_f32(self.feature_means)
        self.feature_stds = _quantize_f32(self.feature_stds)
        if self.feature_means.shape != self.feature_stds.shape or self.feature_means.ndim != 1:
            raise ValueError("normalization stats must be 1-D and equally sized")
        if self.feature_means.shape[0] != self.params.layer_dims[0]:
            raise ValueError("normalization stats do not match network input dim")
        if np.any(self.feature_stds <= 0):
            raise ValueError("feature_stds must be positive")

    @property
    def input_dim(self) -> int:
        return self.params.layer_dims[0]

    def normalize(self, X: np.ndarray) -> np.ndarray:
        """(X - means) / stds in float64; X may be float32 rows, which are
        widened exactly, so the result does not depend on the input dtype."""
        Z = np.subtract(X, self.feature_means, dtype=np.float64)
        Z /= self.feature_stds
        return Z

    def embed(self, X: np.ndarray) -> np.ndarray:
        """Eval-mode embeddings for raw (unnormalized) feature rows."""
        X = np.asarray(X)
        single = X.ndim == 1
        E = forward_eval(self.params, self.normalize(np.atleast_2d(X)))
        return E[0] if single else E

    def _write(self, f) -> None:
        """The model file's bytes, in pieces, to ``f.write``."""
        f.write(MODEL_MAGIC)
        binio.write_u32(f, MODEL_VERSION)
        dims = self.params.layer_dims
        binio.write_u32(f, len(dims))
        for dim in dims:
            binio.write_u32(f, dim)
        binio.write_f64(f, self.margin)
        binio.write_f32_array(f, self.feature_means)
        binio.write_f32_array(f, self.feature_stds)
        binio.write_f32_array(f, self.params.flat)

    def to_bytes(self) -> bytes:
        """The model file's bytes in memory, for comparing two models."""
        buf = io.BytesIO()
        self._write(buf)
        return buf.getvalue()

    def fingerprint(self) -> bytes:
        """SHA-256 of the model file's bytes, hashed as they are made."""
        digest = hashlib.sha256()
        self._write(types.SimpleNamespace(write=digest.update))
        return digest.digest()

    def save(self, path) -> None:
        with binio.atomic_write(path) as f:
            self._write(f)

    @classmethod
    def load(cls, path) -> "SiameseModel":
        with binio.open_artifact(path, MODEL_MAGIC, MODEL_VERSION, "model") as f:
            n_dims = binio.read_u32(f)
            if not 2 <= n_dims <= 64:
                raise DataError(f"{path}: implausible layer count {n_dims}")
            dims = [binio.read_u32(f) for _ in range(n_dims)]
            margin = binio.read_f64(f)
            # stats, then the parameters in the order of MlpParams.flat, all float32
            binio.check_fits(f, 2 * dims[0] + _param_count(dims), 4, path)
            means = binio.read_f32_array(f, dims[0])
            stds = binio.read_f32_array(f, dims[0])
            flat = binio.read_f32_array(f, _param_count(dims))
        try:
            # float32 values already, so construction widens them and has no
            # rounding to do
            return cls(params=MlpParams.from_flat(dims, flat), margin=margin,
                       feature_means=means, feature_stds=stds)
        except ValueError as exc:
            raise DataError(f"{path}: inconsistent model contents ({exc})") from exc


@dataclass
class TrainResult:
    model: SiameseModel
    history: list[tuple[int, float, float]]
    best_epoch: int


def _feature_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    stds = np.where(stds > 0, stds, 1.0)
    # round to f32 up front so training sees the same normalization the
    # persisted model will apply
    return _quantize_f32(means), _quantize_f32(stds)


def _column_groups(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the equal columns of ``Z``. Returns each group's first column,
    each column's group and each group's size n_c, with the groups numbered
    in the order of their first columns, so a matrix with no repeated column
    has ``first`` = ``group`` = 0, 1, 2, ..."""
    _, first, group, counts = np.unique(Z, axis=1, return_index=True,
                                        return_inverse=True, return_counts=True)
    order = np.argsort(first)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.size)
    return first[order], renumber[group.reshape(-1)], counts[order]


def _group_sums(w: np.ndarray, group: np.ndarray, counts: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Write into column c of ``out`` the sum of ``w``'s columns in group c;
    returns ``out``."""
    # the columns sorted by group, each group's run summed, a block of rows
    # at a time
    order = np.argsort(group, kind="stable")
    starts = np.cumsum(counts) - counts
    for rows in _row_blocks(*w.shape):
        out[rows] = np.add.reduceat(w[rows][:, order], starts, axis=1)
    return out


def _fold(params: MlpParams, group: np.ndarray, counts: np.ndarray) -> MlpParams:
    """The network that reads one column per group: layer 0's weight column c
    is the sum of ``params``' columns in group c, the other layers are copied."""
    dims = (counts.size,) + params.layer_dims[1:]
    folded = MlpParams.from_flat(dims, np.zeros(_param_count(dims)))
    _group_sums(params.weights[0], group, counts, folded.weights[0])
    folded.flat[folded.weights[0].size :] = params.flat[params.weights[0].size :]
    return folded


def train(
    train_pairs: PairSet,
    val_pairs: PairSet,
    cache: FeatureCache,
    train_cfg: TrainConfig = TrainConfig(),
    loss_cfg: LossConfig = LossConfig(),
    layer_dims: Sequence[int] | None = None,
) -> TrainResult:
    """Minibatch training; returns the checkpoint with lowest validation loss.

    Deterministic given the config seed: shuffling, dropout, and
    initialization all derive from it.

    The rows are the clips of ``train_pairs.ids``, whose stats standardize them
    all, then of ``val_pairs.ids``; the arrays ``a`` and ``b`` index them as is.

    Layer 0 trains on the distinct input columns. After standardizing, the
    equal columns of the train and val rows form groups (``_column_groups``);
    the rows keep one column per group, and the network that reads them holds
    one layer-0 weight column per group, the sum of the init columns in it.
    The columns of a group get bit-equal gradients, and SGD and Adam update
    each coordinate on its own, so they would move in lockstep for the whole
    run: each group's weights step with the learning rate times its size n_c,
    which moves the sum as its n_c columns would move. At the end each
    column of a group of n_c > 1 is its init value plus 1/n_c of its group's
    move, and a column alone in its group is its group's column, so a matrix
    with no repeated column trains as a full-width network does, bit for bit.
    """
    if not train_pairs or not val_pairs:
        raise DataError("need non-empty train and validation pair lists")
    if layer_dims is None:
        layer_dims = (cache.dim,) + tuple(DEFAULT_LAYER_DIMS[1:])
    # the train rows, then the val rows, standardized in place by the train
    # rows' stats
    Z = cache.rows(train_pairs.ids + val_pairs.ids).astype(np.float64)
    n_rows = len(train_pairs.ids)
    means, stds = _feature_stats(Z[:n_rows])
    Z -= means
    Z /= stds
    first, group, counts = _column_groups(Z)
    logger.info("layer 0 trains on %d distinct input columns of %d", counts.size, group.size)
    # one column per group; take keeps the rows C-contiguous for the gathers
    Z = Z.take(first, axis=1)
    Z_train, Z_val = Z[:n_rows], Z[n_rows:]
    tr_a, tr_b, tr_y = train_pairs.a, train_pairs.b, train_pairs.y.astype(np.float64)
    va_a, va_b, va_y = val_pairs.a, val_pairs.b, val_pairs.y.astype(np.float64)

    params = _fold(init_params(train_cfg.seed, layer_dims), group, counts)
    # layer 0's weights in group c step at the learning rate times n_c; with
    # no repeated column that is the learning rate, which the scalar path
    # steps faster
    column_rates = None if counts.max() == 1 else train_cfg.learning_rate * counts
    optimizer = OPTIMIZERS[train_cfg.optimizer](params, train_cfg.learning_rate, column_rates)
    grads = None  # the first batch allocates the gradient, the others reuse it
    n = len(train_pairs)
    history: list[tuple[int, float, float]] = []
    best_val = np.inf
    best_params = params.copy()
    best_epoch = 0
    clock = time.perf_counter()
    for epoch in range(1, train_cfg.epochs + 1):
        perm = np.random.default_rng([train_cfg.seed, epoch]).permutation(n)
        dropout_rng = np.random.default_rng([train_cfg.seed, epoch, 1])
        loss_sum = 0.0
        for start in range(0, n, train_cfg.batch_size):
            idx = perm[start : start + train_cfg.batch_size]
            loss, grads = batch_loss_and_grads(
                params,
                Z_train[tr_a[idx]],
                Z_train[tr_b[idx]],
                tr_y[idx],
                loss_cfg,
                train_cfg.dropout,
                dropout_rng,
                grads,
            )
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, batch {start // train_cfg.batch_size}"
                )
            optimizer.step(grads.flat)
            loss_sum += loss * len(idx)
        train_loss = loss_sum / n
        # the embeddings are bounded, so a diverging run can keep a finite
        # loss while its parameters run past what a model file can hold
        # (NaN fails every comparison; min and max allocate nothing). A group's
        # weight moves n_c times as far as each of its columns, so the folded
        # vector leaves float32 range no later than the full-width one.
        if not -_F32_MAX <= params.flat.min() <= params.flat.max() <= _F32_MAX:
            raise NumericError(
                f"parameters non-finite or beyond float32 range at epoch {epoch}"
            )
        e_val = forward_eval(params, Z_val)
        d_val = np.sqrt(np.sum(np.square(e_val[va_a] - e_val[va_b]), axis=1))
        val_loss = float(np.mean(_contrastive(va_y, d_val, loss_cfg.margin)[0]))
        if not np.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        history.append((epoch, train_loss, val_loss))
        now = time.perf_counter()  # the one timer read of the epoch
        logger.info("epoch %d: train loss %.6g, val loss %.6g, %.2f s, %.0f pairs/s",
                    epoch, train_loss, val_loss, now - clock, n / (now - clock))
        clock = now
        if val_loss < best_val:
            best_val = val_loss
            np.copyto(best_params.flat, params.flat)
            best_epoch = epoch
    # free the training state, then expand the best epoch's groups into the
    # full-width init, drawn again: a column of a group of n_c > 1 is its init
    # value plus 1/n_c of its group's move, a column alone in its group is its
    # group's column
    del params, optimizer, grads
    full = init_params(train_cfg.seed, layer_dims)
    w0, w0g = full.weights[0], best_params.weights[0]
    move = _group_sums(w0, group, counts, np.empty(w0g.shape))
    np.subtract(w0g, move, out=move)
    move /= counts
    for rows in _row_blocks(*w0.shape):
        w0[rows] += move[rows][:, group]
    del move
    alone = counts == 1
    w0[:, first[alone]] = w0g[:, alone]
    full.flat[w0.size :] = best_params.flat[w0g.size :]
    # the model rounds the vector in place and keeps it
    del best_params, w0g
    model = SiameseModel(
        params=full,
        margin=loss_cfg.margin,
        feature_means=means,
        feature_stds=stds,
    )
    return TrainResult(model=model, history=history, best_epoch=best_epoch)


def save_history(history: Sequence[tuple[int, float, float]], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("epoch,train_loss,val_loss\n")
        for epoch, train_loss, val_loss in history:
            f.write(f"{epoch},{float(train_loss)!r},{float(val_loss)!r}\n")

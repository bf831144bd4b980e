"""Tiny convolutional classifier for "will this grid still be active?".

Fixed architecture on 32x32 inputs:

    conv 3x3 (1 -> 8 ch, valid) + tanh      30x30
    2x2 average pool                        15x15
    conv 3x3 (8 -> 8 ch, valid) + tanh      13x13
    global average pool                     8
    dense 8 -> 1 + logistic                 probability of "active"

673 parameters total. They live in one flat vector; `PredictorWeights`
views its slices under the layer names, so an in-place update of the
vector moves every layer. Forward pass and backprop are hand-rolled numpy
so gradients can be finite-difference checked; training is plain SGD with
momentum on binary cross-entropy, at a fixed learning rate and momentum.
Activations are channels-last, and each convolution is an im2col window
copy followed by one matmul (Chellapilla, Puri & Simard 2006). The conv1
windows depend only on the input, so `train` copies them once per dataset
and gathers each batch's rows from that copy. The conv2 input gradient is
one stacked matmul against the weights laid out per window offset, whose
nine blocks are scatter-added onto the pooled grid: the adjoint of the
window copy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import block_mean, substream

INPUT_SIDE = 32
N_CHANNELS = 8
LEARNING_RATE = 0.05
MOMENTUM = 0.9

# Layer shapes in packing order: the fields of PredictorWeights.
_SHAPES = (
    (N_CHANNELS, 1, 3, 3),
    (N_CHANNELS,),
    (N_CHANNELS, N_CHANNELS, 3, 3),
    (N_CHANNELS,),
    (N_CHANNELS,),
    (),
)
PARAM_COUNT = sum(int(np.prod(s)) for s in _SHAPES)  # 673


class PredictorWeights(NamedTuple):
    """The layers of one flat parameter vector, as reshaped views of it."""

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray

    @classmethod
    def unpack(cls, flat) -> "PredictorWeights":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (PARAM_COUNT,):
            raise ValueError(f"expected {PARAM_COUNT} parameters, got {flat.shape}")
        ends = np.cumsum([int(np.prod(s)) for s in _SHAPES])
        parts = np.split(flat, ends[:-1])
        return cls(*(part.reshape(shape) for part, shape in zip(parts, _SHAPES)))


def _im2col(x):
    """3x3 windows of channels-last x (B, H, W, C), copied to (B, H-2, W-2, C*9)."""
    n, h, wd, c = x.shape
    return sliding_window_view(x, (3, 3), axis=(1, 2)).reshape(n, h - 2, wd - 2, c * 9)


def _conv(cols, w, b):
    """Valid 3x3 correlation, given the input's im2col windows, with w (O, C, 3, 3)."""
    z = cols.reshape(-1, cols.shape[-1]) @ w.reshape(len(w), -1).T
    z += b
    return z.reshape(*cols.shape[:-1], len(w))


def _conv_param_grads(cols, w, gz):
    """Weight and bias gradients of _conv, given the gradient gz of its output."""
    gz = gz.reshape(-1, len(w))
    cols = cols.reshape(len(gz), -1)
    # einsum sums the rows in the same order as gz.sum(axis=0), but faster.
    return (gz.T @ cols).reshape(w.shape), np.einsum("ij->j", gz)


def _conv_input_grad(gz, w, shape):
    """Input gradient (B, H, W, C) of _conv, given the gradient gz of its output.

    Each window offset (u, v) contributes one contiguous block gz @ w[:, :, u, v];
    the blocks are added in (u, v) order onto the shifted input.
    """
    n, h, wd, c = shape
    per_offset = w.transpose(2, 3, 0, 1).reshape(9, len(w), c)
    blocks = np.matmul(gz.reshape(-1, len(w)), per_offset)
    gx = np.zeros(shape)
    for k, block in enumerate(blocks):
        u, v = divmod(k, 3)
        gx[:, u : u + h - 2, v : v + wd - 2] += block.reshape(n, h - 2, wd - 2, c)
    return gx


def _forward(w: PredictorWeights, cols1: np.ndarray) -> dict:
    """cols1: conv1 windows (B, 30, 30, 9). Returns every intermediate for backprop."""
    a1 = np.tanh(_conv(cols1, w.conv1_w, w.conv1_b))
    pooled = (
        a1[:, ::2, ::2] + a1[:, ::2, 1::2] + a1[:, 1::2, ::2] + a1[:, 1::2, 1::2]
    ) / 4.0
    cols2 = _im2col(pooled)
    a2 = np.tanh(_conv(cols2, w.conv2_w, w.conv2_b))
    feat = a2.mean(axis=(1, 2))
    logit = feat @ w.dense_w + w.dense_b
    return {
        "cols1": cols1, "a1": a1, "pooled": pooled, "cols2": cols2, "a2": a2,
        "feat": feat, "logit": logit,
    }


def sigmoid(z):
    """Logistic 1 / (1 + e^-z) as exp(-softplus(-z)): overflow-free on both tails."""
    return np.exp(-np.logaddexp(0.0, -z))


def predict_batch(w: PredictorWeights, grids: np.ndarray) -> np.ndarray:
    """Probability that each grid is "active"; grids pool to 32x32 if needed."""
    x = block_mean(grids, INPUT_SIDE)
    return sigmoid(_forward(w, _im2col(x[..., None]))["logit"])


def loss_and_grads(w: PredictorWeights, grids, labels):
    """Mean binary cross-entropy and its gradient, packed to (673,).

    grids: (B, 32, 32), or their conv1 windows (B, 30, 30, 9) as `train`
    gathers them; any other shape is rejected. labels: (B,) in {0, 1}.
    """
    x = np.asarray(grids, dtype=np.float64)
    side = INPUT_SIDE - 2
    if x.shape[1:] == (INPUT_SIDE, INPUT_SIDE):
        x = _im2col(x[..., None])
    elif x.shape[1:] != (side, side, 9):
        raise ValueError(
            f"expected grids (B, {INPUT_SIDE}, {INPUT_SIDE}) or conv1 windows"
            f" (B, {side}, {side}, 9), got shape {x.shape}"
        )
    y = np.asarray(labels, dtype=np.float64)
    batch = x.shape[0]
    cache = _forward(w, x)
    logit = cache["logit"]
    # softplus(l) - y*l is the numerically stable form of BCE on logits.
    loss = float(np.mean(np.logaddexp(0.0, logit) - y * logit))

    glogit = (sigmoid(logit) - y) / batch
    g_dense_w = glogit @ cache["feat"]
    g_dense_b = glogit.sum()
    gfeat = np.outer(glogit, w.dense_w)

    gz2 = (gfeat / (13 * 13))[:, None, None, :] * (1.0 - cache["a2"] ** 2)
    g_conv2_w, g_conv2_b = _conv_param_grads(cache["cols2"], w.conv2_w, gz2)
    gpooled = _conv_input_grad(gz2, w.conv2_w, cache["pooled"].shape)

    # Average-pool backward spreads each gradient over its 2x2 block; the
    # input gradient of conv1 is never needed, so it is not computed.
    b, h, wd, c = cache["a1"].shape
    gz1 = (1.0 - cache["a1"] ** 2).reshape(b, h // 2, 2, wd // 2, 2, c)
    gz1 *= (gpooled / 4.0)[:, :, None, :, None, :]
    g_conv1_w, g_conv1_b = _conv_param_grads(cache["cols1"], w.conv1_w, gz1)

    grads = (g_conv1_w, g_conv1_b, g_conv2_w, g_conv2_b, g_dense_w, g_dense_b)
    return loss, np.concatenate([np.ravel(g) for g in grads])


def accuracy(predictions, labels) -> float:
    """Fraction of examples where (prediction >= 0.5) matches the label."""
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if p.size == 0:
        raise ValueError("accuracy of empty prediction list is undefined")
    if p.shape != y.shape:
        raise ValueError("predictions and labels must have equal length")
    return float(np.mean((p >= 0.5) == y))


@dataclass
class TrainResult:
    params: np.ndarray  # the trained (673,) vector
    val_accuracy: float
    single_class_train: bool
    n_train: int
    n_val: int


def check_dataset(n_grids: int, grid_side: int, split: float) -> None:
    """Refuse a dataset `train` cannot use: a grid_side that is not a multiple
    of INPUT_SIDE, fewer than 4 grids, or a split that empties a set."""
    if grid_side % INPUT_SIDE:
        raise ValueError(f"grid_side {grid_side} must be a multiple of {INPUT_SIDE}")
    if n_grids < 4:
        raise ValueError(f"n_grids {n_grids} must be at least 4 to split")
    if not 0 < int(n_grids * split) < n_grids:
        raise ValueError(f"split {split} empties a train or validation set")


def train(
    grids,
    labels,
    *,
    epochs: int,
    seed,
    split: float = 0.75,
    batch_size: int = 16,
) -> TrainResult:
    """SGD-with-momentum training on a shuffled train/validation split.

    Everything random (split, init, batch order) comes from one stream
    seeded by `seed`, so results are reproducible. The training examples'
    conv1 windows are copied once, and each batch gathers its rows. The
    parameters live in one flat vector that each SGD step updates in place.
    """
    m = len(grids)
    check_dataset(m, np.shape(grids)[-1], split)
    x = block_mean(grids, INPUT_SIDE)
    y = np.asarray(labels, dtype=np.float64)
    n_train = int(m * split)

    rng = substream(seed)
    perm = rng.permutation(m)
    train_idx, val_idx = perm[:n_train], perm[n_train:]
    single_class = len(np.unique(y[train_idx])) < 2

    flat = rng.normal(0.0, 0.1, PARAM_COUNT)
    w = PredictorWeights.unpack(flat)  # views: the in-place steps move w too
    velocity = np.zeros_like(flat)
    cols, y_train = _im2col(x[train_idx][..., None]), y[train_idx]
    for _ in range(epochs):
        order = rng.permutation(n_train)
        for lo in range(0, n_train, batch_size):
            batch = order[lo : lo + batch_size]
            _, g = loss_and_grads(w, cols[batch], y_train[batch])
            velocity *= MOMENTUM
            velocity -= LEARNING_RATE * g
            flat += velocity

    if not np.all(np.isfinite(flat)):
        raise ValueError("training diverged: the weights are not finite")
    val_acc = accuracy(predict_batch(w, x[val_idx]), y[val_idx] > 0.5)
    return TrainResult(flat, val_acc, single_class, n_train, m - n_train)

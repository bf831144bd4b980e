"""Halting classifier: forward oracle, gradient checks, training loop."""
import math

import numpy as np
import pytest

import cellevo.predictor as predictor
from cellevo.grid import substream
from cellevo.predictor import (
    PARAM_COUNT,
    PredictorWeights,
    accuracy,
    loss_and_grads,
    predict_batch,
    train,
)


def init_weights(rng):
    """All 673 parameters drawn N(0, 0.1^2) in packing order, as `train` draws them."""
    return PredictorWeights.unpack(rng.normal(0.0, 0.1, PARAM_COUNT))


def pack(w):
    return np.concatenate([np.ravel(layer) for layer in w])


def predict(w, grid):
    """The probability predicted for one grid."""
    return float(predict_batch(w, grid[None])[0])


def loop_forward(w: PredictorWeights, grid):
    """Straight-line scalar reimplementation of the forward pass."""
    conv1 = np.zeros((8, 30, 30))
    for o in range(8):
        for i in range(30):
            for j in range(30):
                acc = w.conv1_b[o]
                for u in range(3):
                    for v in range(3):
                        acc += w.conv1_w[o, 0, u, v] * grid[i + u, j + v]
                conv1[o, i, j] = math.tanh(acc)
    pooled = np.zeros((8, 15, 15))
    for o in range(8):
        for i in range(15):
            for j in range(15):
                pooled[o, i, j] = conv1[o, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean()
    conv2 = np.zeros((8, 13, 13))
    for o in range(8):
        for i in range(13):
            for j in range(13):
                acc = w.conv2_b[o]
                for c in range(8):
                    for u in range(3):
                        for v in range(3):
                            acc += w.conv2_w[o, c, u, v] * pooled[c, i + u, j + v]
                conv2[o, i, j] = math.tanh(acc)
    feat = conv2.mean(axis=(1, 2))
    logit = float(feat @ w.dense_w + w.dense_b)
    return 1.0 / (1.0 + math.exp(-logit))


class TestShapes:
    def test_param_count(self):
        assert PARAM_COUNT == 673
        assert pack(init_weights(np.random.default_rng(0))).shape == (673,)

    def test_pack_unpack_round_trip(self):
        flat = np.random.default_rng(3).normal(size=673)
        w = PredictorWeights.unpack(flat)
        assert np.array_equal(pack(w), flat)
        assert all(np.shares_memory(layer, flat) for layer in w)

    def test_unpack_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="673"):
            PredictorWeights.unpack(np.zeros(672))

    def test_init_distribution(self):
        grids = np.random.default_rng(123).random((8, 32, 32))
        flat = train(grids, np.arange(8) % 2, epochs=0, seed=123).params
        assert abs(flat.mean()) < 0.02
        assert flat.std() == pytest.approx(0.1, rel=0.15)


class TestForward:
    def test_zero_weights_give_half(self):
        w = PredictorWeights.unpack(np.zeros(673))
        grid = np.random.default_rng(0).random((32, 32))
        assert predict(w, grid) == 0.5

    def test_dense_bias_shifts_logit(self):
        rng = np.random.default_rng(5)
        w = init_weights(rng)
        grid = rng.random((32, 32))
        p0 = predict(w, grid)
        shifted = pack(w)
        shifted[-1] += 0.7
        p1 = predict(PredictorWeights.unpack(shifted), grid)
        logit0 = math.log(p0 / (1 - p0))
        logit1 = math.log(p1 / (1 - p1))
        assert logit1 - logit0 == pytest.approx(0.7, abs=1e-9)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        w = init_weights(rng)
        grid = rng.random((32, 32))
        assert predict(w, grid) == pytest.approx(loop_forward(w, grid), abs=1e-10)

    def test_pools_larger_grids(self):
        rng = np.random.default_rng(2)
        w = init_weights(rng)
        grid64 = rng.random((64, 64))
        pooled = grid64.reshape(32, 2, 32, 2).mean(axis=(1, 3))
        assert predict(w, grid64) == pytest.approx(predict(w, pooled), abs=1e-15)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(8)
        w = init_weights(rng)
        grids = rng.random((4, 32, 32))
        batch = predict_batch(w, grids)
        for i in range(4):
            assert batch[i] == pytest.approx(predict(w, grids[i]), abs=1e-15)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        w = init_weights(rng)
        for _ in range(5):
            p = predict(w, rng.random((32, 32)))
            assert 0.0 < p < 1.0


class TestGradients:
    # 5 is odd, like the last partial batch of a train epoch.
    @pytest.mark.parametrize("batch", [6, 5])
    def test_matches_central_differences_all_layers(self, batch):
        rng = np.random.default_rng(99)
        w = init_weights(rng)
        x = rng.random((batch, 32, 32))
        y = rng.integers(0, 2, batch).astype(float)
        _, g = loss_and_grads(w, x, y)
        flat = pack(w)
        eps = 1e-5
        # Coordinates spanning conv1 (0..79), conv2 (80..663), dense (664..672).
        coords = [0, 11, 37, 72, 75, 101, 200, 333, 470, 599, 656, 660, 664, 668, 672]
        coords += list(rng.integers(0, 673, 10))
        for idx in coords:
            bumped = flat.copy()
            bumped[idx] = flat[idx] + eps
            lo_p, _ = loss_and_grads(PredictorWeights.unpack(bumped), x, y)
            bumped[idx] = flat[idx] - eps
            lo_m, _ = loss_and_grads(PredictorWeights.unpack(bumped), x, y)
            fd = (lo_p - lo_m) / (2 * eps)
            denom = max(abs(fd), abs(g[idx]), 1e-8)
            assert abs(g[idx] - fd) / denom < 1e-4, f"coord {idx}: {g[idx]} vs {fd}"

    def test_loss_decreases_along_negative_gradient(self):
        rng = np.random.default_rng(21)
        w = init_weights(rng)
        x = rng.random((8, 32, 32))
        y = rng.integers(0, 2, 8).astype(float)
        loss0, g = loss_and_grads(w, x, y)
        stepped = PredictorWeights.unpack(pack(w) - 0.1 * g)
        loss1, _ = loss_and_grads(stepped, x, y)
        assert loss1 < loss0


def col2im_input_grad(gz, w, shape):
    """The conv2 input gradient as one (B*h*w, C*9) matmul plus a col2im scatter-add."""
    n, h, wd, c = shape
    gcols = gz.reshape(-1, len(w)) @ w.reshape(len(w), -1)
    gwin = gcols.reshape(n, h - 2, wd - 2, c, 3, 3)
    gx = np.zeros(shape)
    for u in range(3):
        for v in range(3):
            gx[:, u : u + h - 2, v : v + wd - 2] += gwin[..., u, v]
    return gx


def per_batch_train(grids, labels, *, epochs, seed, batch_size, split=0.75,
                    lr=0.05, momentum=0.9):
    """`train`'s SGD loop with every batch's windows copied from its grids."""
    x, y = np.asarray(grids, dtype=np.float64), np.asarray(labels, dtype=np.float64)
    rng = substream(seed)
    n_train = int(len(x) * split)
    train_idx = rng.permutation(len(x))[:n_train]
    flat = rng.normal(0.0, 0.1, PARAM_COUNT)
    velocity = np.zeros_like(flat)
    for _ in range(epochs):
        order = train_idx[rng.permutation(n_train)]
        for lo in range(0, n_train, batch_size):
            batch = order[lo : lo + batch_size]
            _, g = loss_and_grads(PredictorWeights.unpack(flat), x[batch], y[batch])
            velocity = momentum * velocity - lr * g
            flat = flat + velocity
    return flat


class TestBitwiseFastPaths:
    """The reused conv1 windows and the stacked conv2 input gradient change no bit."""

    @pytest.mark.parametrize("batch_size", [5, 6, 16])
    def test_train_equals_per_batch_windows(self, batch_size):
        rng = np.random.default_rng(40 + batch_size)
        grids = rng.random((44, 32, 32))
        labels = rng.random(44) < 0.5
        got = train(grids, labels, epochs=2, seed=batch_size, batch_size=batch_size)
        expected = per_batch_train(grids, labels, epochs=2, seed=batch_size,
                                   batch_size=batch_size)
        assert got.params.tobytes() == expected.tobytes()

    def test_loss_and_grads_accepts_gathered_windows(self):
        rng = np.random.default_rng(41)
        w = init_weights(rng)
        grids = rng.random((12, 32, 32))
        y = rng.integers(0, 2, 5).astype(float)
        rows = np.array([7, 2, 11, 2, 0])
        cols = predictor._im2col(grids[..., None])
        assert cols.shape == (12, 30, 30, 9)
        loss_a, g_a = loss_and_grads(w, cols[rows], y)
        loss_b, g_b = loss_and_grads(w, grids[rows], y)
        assert loss_a == loss_b and g_a.tobytes() == g_b.tobytes()

    @pytest.mark.parametrize("chunk", [2, 4, 5, 16])
    def test_predict_batch_in_chunks_equals_whole_batch(self, chunk):
        # `train` validates in chunks. No chunk here is a single grid: a
        # 1-grid batch can come out one ulp away from the whole-batch result.
        rng = np.random.default_rng(45)
        w = init_weights(rng)
        grids = rng.random((34, 64, 64))
        parts = [predict_batch(w, grids[lo : lo + chunk])
                 for lo in range(0, len(grids), chunk)]
        assert min(len(p) for p in parts) >= 2
        assert np.concatenate(parts).tobytes() == predict_batch(w, grids).tobytes()

    @pytest.mark.parametrize("shape", [(4, 32, 32, 1), (4, 64, 64), (4, 30, 30, 8), (32, 32)])
    def test_loss_and_grads_rejects_other_shapes(self, shape):
        w = init_weights(np.random.default_rng(44))
        with pytest.raises(ValueError, match=r"\(B, 32, 32\) or conv1 windows"):
            loss_and_grads(w, np.zeros(shape), np.zeros(4))

    @pytest.mark.parametrize("batch", [1, 5, 16])
    def test_conv2_input_grad_equals_col2im(self, batch):
        rng = np.random.default_rng(42)
        w = rng.normal(size=(8, 8, 3, 3))
        gz = rng.normal(size=(batch, 13, 13, 8))
        shape = (batch, 15, 15, 8)
        got = predictor._conv_input_grad(gz, w, shape)
        assert got.tobytes() == col2im_input_grad(gz, w, shape).tobytes()

    def test_bias_grad_equals_row_sum(self):
        rng = np.random.default_rng(43)
        w = rng.normal(size=(8, 1, 3, 3))
        cols = rng.normal(size=(6, 30, 30, 9))
        # Magnitudes spread over 16 decades, so any other summation order rounds.
        shape = (6, 30, 30, 8)
        gz = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, shape)
        _, g_b = predictor._conv_param_grads(cols, w, gz)
        assert g_b.tobytes() == gz.reshape(-1, 8).sum(axis=0).tobytes()


class TestInputSafety:
    def test_caller_arrays_stay_unchanged_and_writeable(self):
        rng = np.random.default_rng(31)
        w = init_weights(rng)
        grids = rng.random((8, 32, 32))
        large = rng.random((8, 64, 64))
        labels = rng.integers(0, 2, 8).astype(float)
        arrays = [grids, large, labels, w.conv1_w, w.conv1_b, w.conv2_w,
                  w.conv2_b, w.dense_w, w.dense_b]
        before = [a.copy() for a in arrays]
        loss_and_grads(w, grids, labels)
        predict_batch(w, grids)
        predict_batch(w, large)
        train(grids, labels, epochs=1, seed=0)
        train(large, labels, epochs=1, seed=0)
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)
            assert a.flags.writeable


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0.9, 0.1], [True, False]) == 1.0

    def test_arithmetic_example(self):
        assert accuracy([0.6, 0.4, 0.9], [True, True, False]) == pytest.approx(1 / 3)

    def test_complement(self):
        p = [0.6, 0.2, 0.8, 0.4]
        y = np.array([True, False, False, True])
        assert accuracy(p, y) + accuracy(p, ~y) == pytest.approx(1.0)

    def test_threshold_is_half_inclusive(self):
        assert accuracy([0.5], [True]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])


class TestTrain:
    def linearly_separable(self, rng, m=64):
        # Label = grid mean above/below a gap; solvable from pooled features.
        labels = rng.integers(0, 2, m).astype(bool)
        levels = np.where(labels, 0.7, 0.3)
        grids = rng.random((m, 32, 32)) * 0.2 + levels[:, None, None]
        return grids, labels

    def test_learns_mean_level_task(self):
        rng = np.random.default_rng(1)
        grids, labels = self.linearly_separable(rng)
        res = train(grids, labels, epochs=50, seed=7)
        assert res.val_accuracy >= 0.9
        assert not res.single_class_train

    def test_zero_epochs_returns_untrained_accuracy(self):
        rng = np.random.default_rng(2)
        grids, labels = self.linearly_separable(rng, m=16)
        res = train(grids, labels, epochs=0, seed=3)
        preds = predict_batch(PredictorWeights.unpack(res.params), grids)
        assert 0.0 <= res.val_accuracy <= 1.0
        # Weights are the freshly initialized ones: re-derive and compare.
        assert np.all((preds > 0) & (preds < 1))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        grids, labels = self.linearly_separable(rng, m=32)
        a = train(grids, labels, epochs=3, seed=11)
        b = train(grids, labels, epochs=3, seed=11)
        assert np.array_equal(a.params, b.params)
        assert a.val_accuracy == b.val_accuracy

    def test_split_sizes(self):
        rng = np.random.default_rng(6)
        grids, labels = self.linearly_separable(rng, m=128)
        res = train(grids, labels, epochs=0, seed=0)
        assert (res.n_train, res.n_val) == (96, 32)

    def test_single_class_flagged(self):
        rng = np.random.default_rng(9)
        grids = rng.random((8, 32, 32))
        labels = np.ones(8, dtype=bool)
        res = train(grids, labels, epochs=1, seed=0)
        assert res.single_class_train

    def test_train_rejects_non_finite_weights(self):
        grids = np.random.default_rng(10).random((8, 32, 32))
        grids[:, 5, 7] = np.nan  # one NaN cell per grid makes every gradient NaN
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            train(grids, np.arange(8) % 2, epochs=1, seed=0)

    def test_too_few_examples_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            train(np.zeros((3, 32, 32)), [1, 0, 1], epochs=1, seed=0)

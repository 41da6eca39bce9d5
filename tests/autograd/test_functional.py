"""Differentiable layer tests: forward semantics + gradients."""

import numpy as np
import pytest
from scipy.signal import correlate2d

from repro.autograd import Tensor, functional as F
from repro.autograd.gradcheck import gradcheck


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestLinear:
    def test_matches_manual(self, rng):
        x = Tensor(rng.normal(size=(6, 4)))
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(3,)))
        out = F.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data)

    def test_no_bias(self, rng):
        x = Tensor(rng.normal(size=(2, 4)))
        w = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(F.linear(x, w).data, x.data @ w.data.T)

    def test_leading_batch_dims(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5, 4)))
        w = Tensor(rng.normal(size=(6, 4)))
        assert F.linear(x, w).shape == (2, 3, 5, 6)

    def test_gradcheck(self, rng):
        x = t(rng.normal(size=(3, 4)))
        w = t(rng.normal(size=(5, 4)))
        b = t(rng.normal(size=(5,)))
        gradcheck(lambda ts: F.linear(ts[0], ts[1], ts[2]), [x, w, b])


class TestConv2d:
    def test_matches_scipy(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        out = F.conv2d(x, w, stride=1, padding=1)
        for b in range(2):
            for o in range(4):
                ref = sum(
                    correlate2d(x.data[b, c], w.data[o, c], mode="same")
                    for c in range(3)
                )
                np.testing.assert_allclose(out.data[b, o], ref, atol=1e-10)

    def test_stride_output_shape(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 16, 16)))
        w = Tensor(rng.normal(size=(8, 3, 4, 4)))
        out = F.conv2d(x, w, stride=4)
        assert out.shape == (1, 8, 4, 4)

    def test_bias_added_per_channel(self, rng):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.5, -2.0]))
        out = F.conv2d(x, w, b, padding=1)
        np.testing.assert_allclose(out.data[0, 0], 1.5)
        np.testing.assert_allclose(out.data[0, 1], -2.0)

    def test_gradcheck(self, rng):
        x = t(rng.normal(size=(2, 2, 5, 5)))
        w = t(rng.normal(size=(3, 2, 3, 3)))
        b = t(rng.normal(size=(3,)))
        gradcheck(
            lambda ts: F.conv2d(ts[0], ts[1], ts[2], stride=2, padding=1),
            [x, w, b],
            atol=1e-4,
        )

    def test_patch_conv_gradcheck(self, rng):
        # The tokenizer's configuration: kernel == stride (patch embedding).
        x = t(rng.normal(size=(1, 3, 8, 8)))
        w = t(rng.normal(size=(4, 3, 4, 4)))
        gradcheck(lambda ts: F.conv2d(ts[0], ts[1], stride=4), [x, w], atol=1e-4)


class TestBatchNorm:
    def test_training_normalizes(self, rng):
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(64, 8)))
        gamma, beta = Tensor(np.ones(8)), Tensor(np.zeros(8))
        mean, var = np.zeros(8), np.ones(8)
        out = F.batch_norm(x, gamma, beta, mean, var, training=True)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.normal(loc=5.0, size=(128, 4)))
        mean, var = np.zeros(4), np.ones(4)
        F.batch_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), mean, var, training=True)
        assert (mean > 0.2).all()          # moved toward 5.0 by momentum

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.normal(size=(16, 4)))
        mean = np.full(4, 1.0)
        var = np.full(4, 4.0)
        out = F.batch_norm(
            x, Tensor(np.ones(4)), Tensor(np.zeros(4)), mean, var, training=False
        )
        np.testing.assert_allclose(out.data, (x.data - 1.0) / np.sqrt(4.0 + 1e-5))

    def test_gamma_beta_applied(self, rng):
        x = Tensor(rng.normal(size=(64, 2)))
        gamma = Tensor(np.array([2.0, 0.5]))
        beta = Tensor(np.array([1.0, -1.0]))
        out = F.batch_norm(
            x, gamma, beta, np.zeros(2), np.ones(2), training=True
        )
        np.testing.assert_allclose(out.data.mean(axis=0), beta.data, atol=1e-10)

    def test_gradcheck(self, rng):
        x = t(rng.normal(size=(8, 3)))
        gamma = t(np.ones(3) + 0.1 * rng.normal(size=3))
        beta = t(rng.normal(size=(3,)))

        def fn(ts):
            return F.batch_norm(
                ts[0], ts[1], ts[2], np.zeros(3), np.ones(3), training=True
            )

        gradcheck(fn, [x, gamma, beta], atol=1e-4)


class TestSoftmaxAndCE:
    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.normal(size=(5, 7)))
        out = F.softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0)

    def test_log_softmax_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, 0.0]]))
        out = F.log_softmax(x)
        assert np.isfinite(out.data).all()

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 10)), requires_grad=True)
        loss = F.cross_entropy(logits, np.zeros(4, dtype=np.int64))
        np.testing.assert_allclose(loss.item(), np.log(10.0))

    def test_cross_entropy_confident_correct_is_small(self):
        logits_np = np.full((2, 3), -20.0)
        logits_np[np.arange(2), [1, 2]] = 20.0
        loss = F.cross_entropy(Tensor(logits_np, requires_grad=True), np.array([1, 2]))
        assert loss.item() < 1e-6

    def test_cross_entropy_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3, 4)), requires_grad=True), np.zeros(2))

    def test_cross_entropy_gradcheck(self, rng):
        logits = t(rng.normal(size=(4, 5)))
        labels = np.array([0, 2, 4, 1])
        gradcheck(lambda ts: F.cross_entropy(ts[0], labels), [logits])

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])


class TestDropout:
    def test_identity_in_eval(self, rng):
        x = Tensor(rng.normal(size=(10,)))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        assert out is x

    def test_scales_in_train(self, rng):
        x = Tensor(np.ones(10000))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.4 < (out.data > 0).mean() < 0.6

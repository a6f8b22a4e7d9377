import io
import json
import math
import zipfile

import numpy as np
import pytest

from sampleflow.neural import (Adam, BatchNorm1d, CheckpointError, Conv1d,
                               DegenerateBatchError, Dense, Flatten,
                               MaxPool1d, Network, ReLU, ShapeError,
                               build_classifier, build_regressor,
                               cross_entropy_loss, init_params,
                               load_checkpoint, mse_loss, save_checkpoint,
                               softmax, transfer_trunk)
from sampleflow.neural.gradcheck import run_all
from sampleflow.neural.network import flatten_width
from sampleflow.pipeline import TrainConfig, retrain
from sampleflow.sampling import Fixed
from sampleflow.synth import generate


def assert_rel_close(actual, expected, rtol=1e-10):
    """max |actual - expected| within rtol of max |expected|."""
    assert actual.shape == expected.shape
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= rtol * scale


def conv_reference(x, weight, bias, dy):
    """Forward and gradients of a 'same' convolution, one tap and one output
    position at a time."""
    n, c, w = x.shape
    o, _, k = weight.shape
    p = k // 2
    x_pad = np.pad(x, ((0, 0), (0, 0), (p, p)))
    y = np.tile(bias[None, :, None], (n, 1, w))
    dx_pad = np.zeros_like(x_pad)
    dw = np.zeros_like(weight)
    for j in range(k):
        for t in range(w):
            y[:, :, t] += x_pad[:, :, t + j] @ weight[:, :, j].T
            dw[:, :, j] += dy[:, :, t].T @ x_pad[:, :, t + j]
            dx_pad[:, :, t + j] += dy[:, :, t] @ weight[:, :, j]
    return y, dx_pad[:, :, p:p + w], dw, dy.sum(axis=(0, 2))


class TestConv1d:
    @pytest.mark.parametrize("c, o, k, w", [(2, 32, 5, 45), (32, 32, 5, 45),
                                            (32, 64, 3, 15), (3, 4, 1, 7),
                                            (3, 4, 3, 7)],
                             ids=["L0", "L3", "L8", "k1", "k3"])
    def test_matches_per_tap_reference(self, c, o, k, w):
        rng = np.random.default_rng(c * o + k)
        layer = Conv1d(c, o, k)
        layer.weight.value[...] = rng.standard_normal((o, c, k))
        layer.bias.value[...] = rng.standard_normal(o)
        x = rng.standard_normal((6, c, w))
        dy = rng.standard_normal((6, o, w))
        y_ref, dx_ref, dw_ref, db_ref = conv_reference(
            x, layer.weight.value, layer.bias.value, dy)
        assert_rel_close(layer.forward(x, True), y_ref)
        assert_rel_close(layer.backward(dy), dx_ref)
        assert_rel_close(layer.weight.grad, dw_ref)
        assert_rel_close(layer.bias.grad, db_ref)

    def test_identity_kernel(self):
        layer = Conv1d(1, 1, 1)
        layer.weight.value[...] = 1.0
        x = np.arange(6, dtype=float).reshape(1, 1, 6)
        np.testing.assert_array_equal(layer.forward(x, True), x)

    def test_shift_kernel_with_zero_pad(self):
        layer = Conv1d(1, 1, 3)
        layer.weight.value[0, 0] = [0, 0, 1]  # picks the right neighbor
        x = np.array([[[1.0, 2.0, 3.0]]])
        np.testing.assert_array_equal(layer.forward(x, True),
                                      [[[2.0, 3.0, 0.0]]])

    def test_width_preserved(self):
        layer = Conv1d(2, 8, 5)
        y = layer.forward(np.zeros((3, 2, 45)), True)
        assert y.shape == (3, 8, 45)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            Conv1d(2, 4, 3).forward(np.zeros((1, 3, 10)), True)

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Conv1d(1, 1, 3).backward(np.zeros((1, 1, 4)))

    def test_zero_upstream_gives_zero_grads(self):
        layer = Conv1d(2, 3, 3)
        layer.weight.value[...] = np.random.default_rng(0).standard_normal(
            layer.weight.value.shape)
        layer.forward(np.ones((2, 2, 7)), True)
        dx = layer.backward(np.zeros((2, 3, 7)))
        assert not np.any(dx)
        assert not np.any(layer.weight.grad)
        assert not np.any(layer.bias.grad)

    def test_scalar_chain_rule(self):
        layer = Conv1d(1, 1, 1)
        layer.weight.value[...] = 2.0
        x = np.array([[[1.0, 2.0, 3.0]]])
        layer.forward(x, True)
        dy = np.array([[[0.5, 1.0, 1.5]]])
        layer.backward(dy)
        assert layer.weight.grad[0, 0, 0] == pytest.approx(float(
            np.sum(x * dy)))
        assert layer.bias.grad[0] == pytest.approx(3.0)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        layer = BatchNorm1d(3)
        x = np.random.default_rng(1).normal(5.0, 2.0, (8, 3, 7))
        y = layer.forward(x, True)
        np.testing.assert_allclose(y.mean(axis=(0, 2)), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=(0, 2)), 1.0, atol=1e-3)

    def test_eval_identity_stats(self):
        layer = BatchNorm1d(2)
        x = np.random.default_rng(2).standard_normal((4, 2, 5))
        y = layer.forward(x, False)
        np.testing.assert_allclose(y, x, atol=1e-4)

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatchError):
            BatchNorm1d(2).forward(np.zeros((1, 2, 1)), True)

    def test_2d_input_is_shape_error(self):
        with pytest.raises(ShapeError):
            BatchNorm1d(4).forward(np.ones((10, 4)), True)

    def test_running_stats_updated_in_train_only(self):
        layer = BatchNorm1d(1)
        x = np.full((4, 1, 2), 10.0) + np.random.default_rng(0).normal(
            0, 1, (4, 1, 2))
        layer.forward(x, True)
        after_train = layer.running_mean.copy()
        assert after_train[0] != 0.0
        layer.forward(x, False)
        np.testing.assert_array_equal(layer.running_mean, after_train)

    @pytest.mark.parametrize("shape", [(6, 3, 7)], ids=["batch-stats-3d"])
    def test_backward_matches_textbook(self, shape):
        rng = np.random.default_rng(len(shape))
        c = shape[1]
        layer = BatchNorm1d(c)
        layer.gamma.value[...] = rng.uniform(0.5, 1.5, c)
        layer.beta.value[...] = rng.standard_normal(c)
        layer.running_mean[...] = rng.standard_normal(c)
        layer.running_var[...] = rng.uniform(0.5, 2.0, c)
        x = rng.normal(1.0, 3.0, shape)
        dy = rng.standard_normal(shape)
        vec = (1, c, 1)
        axes = (0, 2)
        m = x.size // c
        mu = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        layer.forward(x, True)
        dx = layer.backward(dy)
        gamma = layer.gamma.value.reshape(vec)
        xhat = (x - mu) / np.sqrt(var + layer.eps)
        dxhat = dy * gamma
        # Ioffe & Szegedy (2015): through x-hat, the variance and the mean
        dvar = np.sum(dxhat * (x - mu) * -0.5 * (var + layer.eps) ** -1.5,
                      axis=axes, keepdims=True)
        dmu = np.sum(-dxhat / np.sqrt(var + layer.eps), axis=axes,
                     keepdims=True) \
            + dvar * np.sum(-2.0 * (x - mu), axis=axes, keepdims=True) / m
        dx_ref = dxhat / np.sqrt(var + layer.eps) \
            + dvar * 2.0 * (x - mu) / m + dmu / m
        assert_rel_close(dx, dx_ref, rtol=1e-9)
        assert_rel_close(layer.gamma.grad, np.sum(dy * xhat, axis=axes))
        assert_rel_close(layer.beta.grad, np.sum(dy, axis=axes))


class TestMaxPool:
    def test_hand_example_remainder_dropped(self):
        x = np.array([[[1.0, 3, 2, 5, 4, 6, 9]]])
        y = MaxPool1d(3).forward(x, True)
        np.testing.assert_array_equal(y, [[[3.0, 6.0]]])

    def test_tie_gradient_to_first_index(self):
        layer = MaxPool1d(3)
        x = np.ones((1, 1, 6))
        y = layer.forward(x, True)
        np.testing.assert_array_equal(y, [[[1.0, 1.0]]])
        dx = layer.backward(np.array([[[1.0, 2.0]]]))
        np.testing.assert_array_equal(dx, [[[1, 0, 0, 2, 0, 0]]])

    def test_too_narrow(self):
        with pytest.raises(ShapeError):
            MaxPool1d(3).forward(np.zeros((1, 1, 2)), True)

    def test_remainder_gets_zero_gradient(self):
        layer = MaxPool1d(3)
        layer.forward(np.array([[[1.0, 3, 2, 5, 4, 6, 9]]]), True)
        dx = layer.backward(np.array([[[10.0, 20.0]]]))
        np.testing.assert_array_equal(dx, [[[0, 10, 0, 0, 0, 20, 0]]])


@pytest.mark.parametrize("make, shape", [
    (lambda: Conv1d(2, 3, 3), (4, 2, 5)),
    (lambda: BatchNorm1d(2), (4, 2, 5)),
    (lambda: MaxPool1d(3), (4, 2, 6)),
    (lambda: ReLU(), (4, 2, 5)),
    (lambda: Flatten(), (4, 2, 5)),
    (lambda: Dense(5, 3), (4, 5)),
], ids=["Conv1d", "BatchNorm1d", "MaxPool1d", "ReLU", "Flatten", "Dense"])
def test_backward_after_eval_forward_raises(make, shape):
    layer = make()
    x = np.random.default_rng(0).standard_normal(shape)
    y = layer.forward(x, True)
    layer.backward(np.ones_like(y))  # a train forward keeps its cache
    layer.forward(x, False)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones_like(y))


class TestDenseRelu:
    def test_dense_identity(self):
        layer = Dense(4, 4)
        layer.weight.value[...] = np.eye(4)
        x = np.random.default_rng(4).standard_normal((3, 4))
        np.testing.assert_array_equal(layer.forward(x, True), x)

    def test_relu_clamps_negatives(self):
        y = ReLU().forward(np.array([[-2.0, -0.5, 0.0, 0.5]]), True)
        np.testing.assert_array_equal(y, [[0, 0, 0, 0.5]])

    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        y = layer.forward(x, True)
        assert y.shape == (2, 12)
        np.testing.assert_array_equal(layer.backward(y), x)


class TestLosses:
    def test_mse_zero_at_match(self):
        x = np.random.default_rng(0).standard_normal((2, 24))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        assert not np.any(grad)

    def test_mse_single_coordinate(self):
        pred = np.zeros((1, 24))
        target = np.zeros((1, 24))
        pred[0, 0] = 1.0
        loss, _ = mse_loss(pred, target)
        assert loss == pytest.approx(1 / 24)

    def test_cross_entropy_uniform(self):
        loss, _ = cross_entropy_loss(np.zeros((3, 5)), np.array([0, 2, 4]))
        assert loss == pytest.approx(math.log(5), rel=1e-12)

    def test_cross_entropy_huge_logit_stable(self):
        logits = np.zeros((1, 4))
        logits[0, 1] = 1000.0
        loss, grad = cross_entropy_loss(logits, np.array([1]))
        assert math.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_softmax_rows_sum_to_one(self):
        logits = np.random.default_rng(1).uniform(-1e4, 1e4, (5, 7))
        s = softmax(logits)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)


class ScalarAdamOracle:
    """Textbook Adam on a scalar, written independently of the optimizer."""

    def __init__(self, theta, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.theta, self.lr, self.b1, self.b2, self.eps = theta, lr, b1, b2, eps
        self.m = self.v = 0.0
        self.t = 0

    def step(self, grad):
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        m_hat = self.m / (1 - self.b1 ** self.t)
        v_hat = self.v / (1 - self.b2 ** self.t)
        self.theta -= self.lr * m_hat / (math.sqrt(v_hat) + self.eps)


class TestAdam:
    def test_zero_gradient_no_update(self):
        from sampleflow.neural.layers import Param
        p = Param(np.array([1.0, -2.0]))
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_first_step_approximates_signed_lr(self):
        from sampleflow.neural.layers import Param
        p = Param(np.array([0.0]))
        opt = Adam([p], lr=0.05)
        p.grad[...] = 3.0
        opt.step()
        # bias-corrected first step: lr * g / (|g| + eps)
        expected = 0.05 * 3.0 / (3.0 + 1e-8)
        assert p.value[0] == pytest.approx(-expected, rel=1e-9)

    def test_matches_scalar_oracle_on_quadratic(self):
        from sampleflow.neural.layers import Param
        p = Param(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        oracle = ScalarAdamOracle(1.0, lr=0.1)
        for _ in range(10):
            p.zero_grad()
            p.grad[...] = 2.0 * p.value  # d/dx x^2
            opt.step()
            oracle.step(2.0 * oracle.theta)
            assert p.value[0] == pytest.approx(oracle.theta, abs=1e-12)

    def test_in_place_step_matches_textbook_bit_for_bit(self):
        from sampleflow.neural.layers import Param
        rng = np.random.default_rng(7)
        shapes = [(3, 4), (5,), (2, 3, 2)]
        params = [Param(rng.standard_normal(s)) for s in shapes]
        opt = Adam(params, lr=0.01)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        value = [p.value.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        for t in range(1, 21):
            for i, p in enumerate(params):
                g = p.grad[...] = rng.standard_normal(p.value.shape)
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                m_hat = m[i] / (1 - b1 ** t)
                v_hat = v[i] / (1 - b2 ** t)
                value[i] = value[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            opt.step()
            for i, p in enumerate(params):
                assert np.array_equal(p.value, value[i])
                assert np.array_equal(opt.m[i], m[i])
                assert np.array_equal(opt.v[i], v[i])


class TestNetworkConstruction:
    def test_shape_ledger_window_45(self):
        assert flatten_width(45) == 320
        net = build_regressor(45)
        head = net.layers[net.trunk_len:]
        dense_sizes = [l.out_features for l in head if isinstance(l, Dense)]
        assert dense_sizes == [256, 128, 128, 24]
        first_dense = next(l for l in head if isinstance(l, Dense))
        assert first_dense.in_features == 320

    def test_classifier_head_output(self):
        net = build_classifier(45, 7)
        assert [l.out_features for l in net.layers[net.trunk_len:]
                if isinstance(l, Dense)] == [256, 128, 128, 7]

    def test_deviant_geometry_fails_construction(self):
        from sampleflow.neural.network import (_assert_shapes, _make_head,
                                               _make_trunk)
        trunk = _make_trunk()
        trunk[6] = MaxPool1d(5)  # wrong pool: flatten width no longer 320
        net = Network(trunk + _make_head(320, 24), trunk_len=len(trunk))
        with pytest.raises(ShapeError):
            _assert_shapes(net, 45, 24)

    def test_init_deterministic(self):
        a = init_params(build_regressor(45), 9)
        b = init_params(build_regressor(45), 9)
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa.value, pb.value)
        c = init_params(build_regressor(45), 10)
        assert any(not np.array_equal(pa.value, pc.value)
                   for pa, pc in zip(a.params(), c.params()))

    def test_init_activation_scale(self):
        net = init_params(build_regressor(45), 0)
        net.eval()
        x = np.random.default_rng(0).standard_normal((64, 2, 45))
        y = net.forward(x)
        # glorot keeps activations from exploding or collapsing to zero
        assert np.all(np.isfinite(y))
        assert 1e-6 < y.var() < 100

    def test_non_contiguous_input(self):
        net = init_params(build_regressor(45), 4)
        x = np.random.default_rng(5).standard_normal((2, 45, 8)) \
            .transpose(2, 0, 1)  # [8, 2, 45] view, batch innermost
        assert not x.flags.c_contiguous
        for train in (True, False):
            outs = []
            for inp in (np.ascontiguousarray(x), x):
                h = inp
                for layer in net.trunk:
                    h = layer.forward(h, train)
                outs.append(h)
            np.testing.assert_array_equal(outs[0], outs[1])

    def test_eval_forward_pure(self):
        net = init_params(build_regressor(45), 1)
        net.eval()
        x = np.random.default_rng(2).standard_normal((2, 2, 45))
        np.testing.assert_array_equal(net.forward(x), net.forward(x))

    def test_float32_eval_forward_stays_float32(self):
        # a silent upcast (say a float64 pad buffer) would pass every other
        # test and cost the float32 speed-up
        net = init_params(build_classifier(45, 3), 6)
        net.train()
        x = np.random.default_rng(3).standard_normal((16, 2, 45))
        net.forward(x)  # running stats away from their initial values
        net.eval()
        h = x.astype(np.float32)
        for i, layer in enumerate(net.layers):
            h = layer.forward(h, False)
            assert h.dtype == np.float32, (i, type(layer).__name__)
        np.testing.assert_allclose(h, net.forward(x), rtol=1e-4, atol=1e-5)
        assert all(p.value.dtype == np.float64 for p in net.params())

    def test_float64_train_pass_stays_float64(self):
        net = init_params(build_classifier(45, 3), 6)
        net.train()
        h = np.random.default_rng(3).standard_normal((16, 2, 45))
        for i, layer in enumerate(net.layers):
            h = layer.forward(h, True)
            assert h.dtype == np.float64, (i, type(layer).__name__)
        dy = np.ones_like(h)
        for i, layer in reversed(list(enumerate(net.layers))):
            dy = layer.backward(dy)
            assert dy.dtype == np.float64, (i, type(layer).__name__)
        for p in net.params():
            assert p.value.dtype == p.grad.dtype == np.float64
        for layer in net.layers:
            if isinstance(layer, BatchNorm1d):
                assert layer.running_mean.dtype == np.float64
                assert layer.running_var.dtype == np.float64


def randomized_stats(net, seed):
    """Random gamma and beta, and running stats from a few train forwards."""
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        if isinstance(layer, BatchNorm1d):
            layer.gamma.value[...] = rng.uniform(0.5, 2.0, layer.channels)
            layer.beta.value[...] = rng.standard_normal(layer.channels)
    net.train()
    for _ in range(3):
        net.forward(rng.standard_normal((16, 2, 45)))
    return net


def network_arrays(net):
    """Every parameter and running-stat array of net, in layer order."""
    out = []
    for layer in net.layers:
        out += [p.value for p in layer.params()]
        if isinstance(layer, BatchNorm1d):
            out += [layer.running_mean, layer.running_var]
    return out


class TestFoldBatchNorm:
    FOLDED = [Conv1d, ReLU, Conv1d, ReLU, MaxPool1d, BatchNorm1d, Conv1d,
              ReLU, MaxPool1d, Flatten, Dense, ReLU, Dense, ReLU, Dense,
              ReLU, Dense]

    @pytest.mark.parametrize("make", [lambda: build_regressor(45),
                                      lambda: build_classifier(45, 5)],
                             ids=["regressor", "classifier"])
    def test_folded_forward_matches_eval_forward(self, make):
        net = randomized_stats(init_params(make(), 3), 4)
        folded = net.fold_batch_norm()
        assert len(net.layers) == 21
        assert [type(l) for l in folded.layers] == self.FOLDED
        assert folded.mode == "eval"
        assert isinstance(folded.layers[folded.trunk_len], Dense)
        x = np.random.default_rng(5).standard_normal((64, 2, 45))
        np.testing.assert_allclose(folded.forward(x), net.eval().forward(x),
                                   rtol=1e-10, atol=1e-12)

    def test_source_network_untouched(self):
        net = randomized_stats(init_params(build_classifier(45, 3), 6), 7)
        before = [a.tobytes() for a in network_arrays(net)]
        folded = net.fold_batch_norm()
        folded.forward(np.ones((4, 2, 45)))
        assert [a.tobytes() for a in network_arrays(net)] == before
        assert net.mode == "train"
        assert not any(f is s for f in folded.layers for s in net.layers)
        # the folded parameters are new arrays, not views of the source's
        for index in (0, 2, 6, 10):
            assert not any(np.shares_memory(p.value, a)
                           for p in folded.layers[index].params()
                           for a in network_arrays(net))


def trunk_bytes(net):
    """The bytes of every trunk parameter and running-stat array of net."""
    return [a.tobytes()
            for a in network_arrays(Network(net.trunk, net.trunk_len))]


def frozen_retrain():
    """The trunk bytes of a regressor with nontrivial running stats, and the
    classifier a frozen-trunk retrain makes from it."""
    src = init_params(build_regressor(45), 1)
    src.train()
    src.forward(np.random.default_rng(0).standard_normal((8, 2, 45)))
    before = trunk_bytes(src)
    cfg = TrainConfig(sampling=Fixed(1), seed=3, window=45, copies=2,
                      retrain_epochs=3, batch_size=4, freeze_trunk=True)
    clf, _ = retrain(src, generate(3, 4, seed=5), ["c0", "c1", "c2"], cfg)
    return before, clf


class TestTransferTrunk:
    def test_copy_semantics(self):
        src = init_params(build_regressor(45), 1)
        # give the source nontrivial running stats
        src.train()
        src.forward(np.random.default_rng(0).standard_normal((8, 2, 45)))
        dst = init_params(build_classifier(45, 3), 2)
        transfer_trunk(src, dst)
        x = np.random.default_rng(1).standard_normal((4, 2, 45))
        src.eval(), dst.eval()

        def trunk_out(net):
            h = x
            for layer in net.trunk:
                h = layer.forward(h, False)
            return h

        np.testing.assert_array_equal(trunk_out(src), trunk_out(dst))

    def test_freeze_keeps_trunk_bit_identical(self):
        before, clf = frozen_retrain()
        assert trunk_bytes(clf) == before
        assert clf.mode == "eval"

    def test_unfrozen_trunk_trains(self):
        src = init_params(build_regressor(45), 1)
        dst = init_params(build_classifier(45, 3), 2)
        transfer_trunk(src, dst)
        snapshot = [p.value.copy() for l in dst.trunk for p in l.params()]
        opt = Adam(dst.params(), lr=1e-2)
        dst.train()
        rng = np.random.default_rng(3)
        opt.zero_grad()
        logits = dst.forward(rng.standard_normal((4, 2, 45)))
        _, d = cross_entropy_loss(logits, np.array([0, 1, 2, 0]))
        dst.backward(d)
        opt.step()
        after = [p.value for l in dst.trunk for p in l.params()]
        assert any(not np.array_equal(a, b) for a, b in zip(snapshot, after))


def rewrite_checkpoint(path, edit):
    """Apply edit(members) to the {name: npy bytes} of a checkpoint file."""
    with zipfile.ZipFile(path) as zf:
        members = {n: zf.read(n) for n in zf.namelist()}
    edit(members)
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            if not isinstance(data, bytes):
                buf = io.BytesIO()
                np.save(buf, data)
                data = buf.getvalue()
            zf.writestr(name, data)


def saved_meta_text(path):
    """The JSON text of a checkpoint file's meta, as stored."""
    with zipfile.ZipFile(path) as zf:
        return bytes(np.load(io.BytesIO(zf.read("meta.npy")))).decode()


def rewrite_meta_text(path, edit):
    """Replace the JSON text of a checkpoint's meta with edit(text)."""
    text = edit(saved_meta_text(path))
    rewrite_checkpoint(path, lambda m: m.update(
        {"meta.npy": np.frombuffer(text.encode(), dtype=np.uint8)}))


def with_meta(net, kind, classes=None):
    """net, with the meta that pretrain (kind "regressor") or retrain (kind
    "classifier") gives a network of window 45."""
    config = TrainConfig(sampling=Fixed(1), seed=0, window=45).to_dict()
    net.meta = {"kind": kind, "train_config": config}
    if kind == "classifier":
        net.meta.update(classes=list(classes), pretrained=True)
    return net


def regressor(seed=0):
    return with_meta(init_params(build_regressor(45), seed), "regressor")


def classifier(classes=("c0", "c1", "c2"), seed=0):
    return with_meta(init_params(build_classifier(45, len(classes)), seed),
                     "classifier", classes)


def edit_meta(path, edit):
    """Apply edit(meta) to the decoded JSON meta of a checkpoint file."""
    def rewrite(text):
        meta = json.loads(text)
        edit(meta)
        return json.dumps(meta)
    rewrite_meta_text(path, rewrite)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        net = classifier(["a", "b", "c", "d"], seed=5)
        net.train()
        net.forward(np.random.default_rng(0).standard_normal((8, 2, 45)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        loaded, meta = load_checkpoint(path)
        assert meta["classes"] == ["a", "b", "c", "d"]
        assert meta is loaded.meta and loaded.meta == net.meta
        x = np.random.default_rng(1).standard_normal((2, 2, 45))
        net.eval(), loaded.eval()
        np.testing.assert_array_equal(net.forward(x), loaded.forward(x))

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(regressor(), path)
        rewrite_meta_text(path, lambda t: json.dumps(
            {**json.loads(t), "checkpoint_version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_version_1_file_refused(self, tmp_path):
        # the metadata version 1 wrote: window and num_outputs beside
        # train_config, and a feature_order_version
        path = tmp_path / "m.ckpt"
        save_checkpoint(classifier(), path)
        edit_meta(path, lambda m: m.update(
            checkpoint_version=1, window=45, num_outputs=3,
            feature_order_version=1))
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 1$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", [lambda b: b[:len(b) // 2],
                                        lambda b: b"not a checkpoint\n"],
                             ids=["truncated", "garbage"])
    def test_unreadable_file(self, tmp_path, damage):
        path = tmp_path / "m.ckpt"
        save_checkpoint(regressor(), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_missing_array(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(regressor(), path)
        rewrite_checkpoint(path, lambda m: m.pop("p3_0.npy"))
        with pytest.raises(CheckpointError, match="p3_0"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda m: m.update(classes=[]), "ckpt: classes",
                     id="no-outputs"),
        pytest.param(lambda m: m["train_config"].update(window=5),
                     "bad metadata", id="window-too-small"),
        pytest.param(lambda m: m.update(kind="ranker"), "kind",
                     id="unknown-kind"),
        pytest.param(lambda m: m.pop("classes"), "ckpt: classes None",
                     id="no-classes"),
        pytest.param(lambda m: m["train_config"].pop("window"),
                     "train_config window None", id="no-window")])
    def test_bad_structure_metadata(self, tmp_path, edit, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(classifier(), path)
        edit_meta(path, edit)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["regressor", "classifier"])
    @pytest.mark.parametrize("config", [None, [], "fixed", 45], ids=[
        "missing", "list", "string", "number"])
    def test_train_config_not_object(self, tmp_path, kind, config):
        path = tmp_path / "m.ckpt"
        save_checkpoint(regressor() if kind == "regressor" else classifier(),
                        path)
        edit_meta(path, lambda m: m.pop("train_config") if config is None
                  else m.update(train_config=config))
        with pytest.raises(CheckpointError,
                           match="train_config .* is not an object"):
            load_checkpoint(path)

    # the head of a 45-wide classifier is 3 wide: a shorter or longer list
    # does not fit it
    @pytest.mark.parametrize("classes", [["c0", "c1"],
                                         ["c0", "c1", "c2", "c3"],
                                         ["c0", "c1", "c1"], ["c0", "c1", 2],
                                         "c0c1c2", [], None, 3.0, True,
                                         {"c0": 0}],
                             ids=["short", "long", "duplicate", "non-string",
                                  "not-a-list", "empty", "null", "number",
                                  "true", "object"])
    def test_bad_classes(self, tmp_path, classes):
        path = tmp_path / "m.ckpt"
        save_checkpoint(classifier(), path)
        edit_meta(path, lambda m: m.update(classes=classes))
        with pytest.raises(CheckpointError,
                           match=r"ckpt: classes .* is not a non-empty list"
                                 r"|and \d outputs needs 'p20_0'"):
            load_checkpoint(path)

    # (32, 2, 1) would broadcast into the (32, 2, 5) first conv weight
    @pytest.mark.parametrize("bad", [np.ones((32, 2, 1)),
                                     np.full((32, 2, 5), np.nan),
                                     np.full((32, 2, 5), "x")],
                             ids=["wrong-shape", "non-finite", "strings"])
    def test_invalid_array(self, tmp_path, bad):
        path = tmp_path / "m.ckpt"
        save_checkpoint(regressor(), path)
        rewrite_checkpoint(path, lambda m: m.update({"p0_0.npy": bad}))
        with pytest.raises(CheckpointError, match="p0_0"):
            load_checkpoint(path)

    # the window is train_config's; nothing else stores one. The output
    # count follows from kind and classes, so a num_outputs beside them is
    # refused whatever its value, a valid 3 too
    @pytest.mark.parametrize("field,value", [
        ("window", "1e400"), ("window", "45.0"), ("window", '"45"'),
        ("window", "true"), ("window", "null"), ("num_outputs", "1e400"),
        ("num_outputs", "3.0"), ("num_outputs", '"3"'),
        ("num_outputs", "true"), ("num_outputs", "3")])
    def test_integer_fields(self, tmp_path, field, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(classifier(), path)
        if field == "window":
            assert saved_meta_text(path).count('"window": 45') == 1
            rewrite_meta_text(path, lambda t: t.replace(
                '"window": 45', f'"window": {value}'))
            message = "bad metadata: train_config window"
        else:
            assert "num_outputs" not in saved_meta_text(path)
            rewrite_meta_text(path, lambda t: t.replace(
                "{", f'{{"num_outputs": {value}, ', 1))
            message = r"bad metadata: unknown keys \['num_outputs'\]$"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    # "window" is train_config's window; "num_outputs" builds the file's
    # network with that many outputs, which its kind and classes do not give
    @pytest.mark.parametrize("kind, field, value", [
        ("classifier", "window", 10 ** 12),
        ("classifier", "window", 54),
        ("classifier", "num_outputs", 4),
        ("regressor", "num_outputs", 3)])
    def test_head_shapes_checked_before_build(self, tmp_path, kind, field,
                                              value):
        # building from a window of 10**12 would ask for petabytes
        path = tmp_path / "m.ckpt"
        outputs = value if field == "num_outputs" else 3
        net = with_meta(init_params(build_classifier(45, outputs), 0), kind,
                        ["c0", "c1", "c2"])
        if field == "window":
            net.meta["train_config"]["window"] = value
        save_checkpoint(net, path)
        with pytest.raises(CheckpointError, match="bad metadata.*needs 'p"):
            load_checkpoint(path)

    def test_frozen_flags_not_saved(self, tmp_path):
        # the metadata of every checkpoint kind holds each fact once
        _, net = frozen_retrain()
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        assert list(json.loads(saved_meta_text(path))) == [
            "checkpoint_version", "kind", "train_config", "classes",
            "pretrained"]
        save_checkpoint(regressor(), path)
        assert list(json.loads(saved_meta_text(path))) == [
            "checkpoint_version", "kind", "train_config"]

    def test_compressed_checkpoint_refused(self, tmp_path):
        # a deflated entry could fail to inflate part way; a damaged one
        # is refused the same way as an intact one
        stored, deflated = tmp_path / "s.ckpt", tmp_path / "d.ckpt"
        save_checkpoint(classifier(seed=1), stored)
        with zipfile.ZipFile(stored) as src, \
                zipfile.ZipFile(deflated, "w", zipfile.ZIP_DEFLATED) as dst:
            for name in src.namelist():
                dst.writestr(name, src.read(name))
        with pytest.raises(CheckpointError,
                           match="not a checkpoint file .compressed entries"):
            load_checkpoint(deflated)
        data = bytearray(deflated.read_bytes())
        with zipfile.ZipFile(deflated) as zf:
            info = zf.getinfo("p14_0.npy")
        # the first bytes of the deflate stream, past the local header
        at = info.header_offset + 30 + len(info.filename) + 2
        data[at:at + 8] = bytes(8)
        deflated.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(deflated)

    def test_flipped_byte_in_stored_array(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(regressor(), path)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == \
                {zipfile.ZIP_STORED}
            member = zf.read("p14_0.npy")
        data = bytearray(path.read_bytes())
        at = data.index(member) + len(member) - 8  # inside the array values
        data[at] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path):
        import hashlib
        import time
        net = regressor(seed=3)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, a)
        time.sleep(1.1)  # would change zip timestamps if they were live
        save_checkpoint(net, b)
        assert hashlib.sha256(a.read_bytes()).digest() == \
            hashlib.sha256(b.read_bytes()).digest()


class TestTrainingSanity:
    def test_single_step_decreases_loss(self):
        failures = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            net = init_params(build_regressor(45), seed)
            x = rng.standard_normal((8, 2, 45))
            y = rng.standard_normal((8, 24))
            opt = Adam(net.params(), lr=1e-3)
            net.train()
            opt.zero_grad()
            before, d = mse_loss(net.forward(x), y)
            net.backward(d)
            opt.step()
            after, _ = mse_loss(net.forward(x), y)
            failures += after >= before
        assert failures <= 2


def test_gradcheck_quick():
    results = run_all(num_seeds=2)
    assert all(r.passed for r in results), results

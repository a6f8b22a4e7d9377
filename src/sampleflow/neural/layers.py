"""Layers with explicit forward/backward passes.

Parameters and running stats are float64. A forward computes in its input's
dtype, casting them to it, so a float32 input runs in float32 and a float64
input does exactly float64 arithmetic.

A forward with train=True keeps what backward needs in `_cache`; a forward
with train=False keeps nothing, so backward after it raises RuntimeError.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import DataError


class ShapeError(DataError):
    pass


class DegenerateBatchError(ValueError):
    pass


class Param:
    """A trainable array with its gradient accumulator."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad.fill(0.0)


class Layer:
    _cache = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _cached(self):
        if self._cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward needs a "
                               "forward with train=True first")
        return self._cache


class Conv1d(Layer):
    """Stride-1 convolution with zero 'same' padding (odd kernel), as im2col.

    The padded input is laid out [C, W + 2*pad, N] and its windows are copied
    into one cols[(c, k), (t, n)] matrix, so forward is one matmul and
    backward two. With the batch innermost, each tap of im2col and of col2im
    moves one contiguous block of W*N values per channel. The output is an
    [N, O, W] view of an [O, W, N] array.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int):
        if kernel % 2 != 1:
            raise ShapeError("kernel size must be odd for same padding")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.pad = kernel // 2
        self.weight = Param(np.zeros((out_channels, in_channels, kernel)))
        self.bias = Param(np.zeros(out_channels))

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train):
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ShapeError(f"Conv1d expected [N,{self.in_channels},W], "
                             f"got {x.shape}")
        n, c, w = x.shape
        x_pad = np.zeros((c, w + 2 * self.pad, n), dtype=x.dtype)
        x_pad[:, self.pad:self.pad + w] = x.transpose(1, 2, 0)
        # [C, K, N, W] windows -> [C, K, W, N] -> one (C*K, W*N) copy
        cols = sliding_window_view(x_pad, w, axis=1).transpose(0, 1, 3, 2) \
            .reshape(c * self.kernel, w * n)
        weight = self.weight.value.astype(x.dtype, copy=False)
        y = weight.reshape(self.out_channels, -1) @ cols
        y += self.bias.value.astype(x.dtype, copy=False)[:, None]
        self._cache = cols if train else None
        return y.reshape(self.out_channels, w, n).transpose(2, 0, 1)

    def backward(self, dy):
        cols = self._cached()
        n, o, w = dy.shape
        c, k = self.in_channels, self.kernel
        dy2 = dy.transpose(1, 2, 0).reshape(o, w * n)
        self.weight.grad += (dy2 @ cols.T).reshape(o, c, k)
        self.bias.grad += dy2.sum(axis=1)
        dcols = (self.weight.value.reshape(o, -1).T @ dy2).reshape(c, k, w, n)
        dx_pad = np.zeros((c, w + 2 * self.pad, n))
        for j in range(k):  # col2im: tap j read x_pad[:, j:j + w]
            dx_pad[:, j:j + w] += dcols[:, j]
        return dx_pad[:, self.pad:self.pad + w].transpose(2, 0, 1)


class BatchNorm1d(Layer):
    """Batch normalization over (N, W) per channel of an [N,C,W] input."""

    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Param(np.ones(channels))
        self.beta = Param(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def params(self):
        return [self.gamma, self.beta]

    def forward(self, x, train):
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise ShapeError(f"BatchNorm1d expected [N,{self.channels},W], "
                             f"got {x.shape}")
        if train:
            if x.size // self.channels < 2:
                raise DegenerateBatchError(
                    "batch norm needs at least 2 values per channel in train mode")
            mean = x.mean(axis=(0, 2))
            xc = x - mean[:, None]
            var = np.square(xc).mean(axis=(0, 2))
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var)
        else:
            xc = x - self.running_mean.astype(x.dtype, copy=False)[:, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        if not train:
            self._cache = None
            scale = self.gamma.value * inv_std
            xc *= scale.astype(x.dtype, copy=False)[:, None]
            xc += self.beta.value.astype(x.dtype, copy=False)[:, None]
            return xc
        xc *= inv_std[:, None]  # now x-hat
        self._cache = (xc, inv_std)
        y = xc * self.gamma.value[:, None]
        y += self.beta.value[:, None]
        return y

    def backward(self, dy):
        xhat, inv_std = self._cached()
        dgamma = (dy * xhat).sum(axis=(0, 2))
        dbeta = dy.sum(axis=(0, 2))
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        # gamma * inv_std * (dy - sum(dy)/m - xhat * sum(dy * xhat)/m)
        m = dy.size // self.channels
        dx = xhat * (-dgamma / m)[:, None]
        dx += dy
        dx -= (dbeta / m)[:, None]
        dx *= (self.gamma.value * inv_std)[:, None]
        return dx


class MaxPool1d(Layer):
    """Non-overlapping max pooling; trailing remainder is dropped.

    Backward sends each window's gradient to its first maximum.
    """

    def __init__(self, kernel: int):
        self.kernel = kernel

    def forward(self, x, train):
        if x.ndim != 3:
            raise ShapeError(f"MaxPool1d expected [N,C,W], got {x.shape}")
        n, c, w = x.shape
        k = self.kernel
        if w < k:
            raise ShapeError(f"width {w} smaller than pool kernel {k}")
        w_out = w // k
        windows = x[:, :, :w_out * k].reshape(n, c, w_out, k)
        y = windows[..., 0].copy(order="K")
        for j in range(1, k):
            np.maximum(y, windows[..., j], out=y)
        self._cache = (x, y) if train else None
        return y

    def backward(self, dy):
        x, y = self._cached()
        n, c, w_out = dy.shape
        k = self.kernel
        windows = x[:, :, :w_out * k].reshape(n, c, w_out, k)
        dx = np.zeros_like(x)
        routed = np.zeros_like(y, dtype=bool)
        for j in range(k):
            hit = windows[..., j] == y
            hit &= ~routed
            routed |= hit
            dx[:, :, j:w_out * k:k] = dy * hit
        return dx


class ReLU(Layer):
    def forward(self, x, train):
        self._cache = x > 0 if train else None
        return np.maximum(x, 0.0)

    def backward(self, dy):
        return dy * self._cached()


class Flatten(Layer):
    def forward(self, x, train):
        self._cache = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._cached())


class Dense(Layer):
    def __init__(self, in_features: int, out_features: int):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Param(np.zeros((in_features, out_features)))
        self.bias = Param(np.zeros(out_features))

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"Dense expected [N,{self.in_features}], "
                             f"got {x.shape}")
        self._cache = x if train else None
        return (x @ self.weight.value.astype(x.dtype, copy=False)
                + self.bias.value.astype(x.dtype, copy=False))

    def backward(self, dy):
        x = self._cached()
        self.weight.grad += x.T @ dy
        self.bias.grad += dy.sum(axis=0)
        return dy @ self.weight.value.T

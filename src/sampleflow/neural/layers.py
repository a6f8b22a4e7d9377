"""Layers with explicit forward/backward passes, double precision throughout."""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
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
    frozen = False

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _need_cache(self, name: str = "_cache"):
        if getattr(self, name, None) is None:
            raise RuntimeError(f"{type(self).__name__}.backward before forward")


class Conv1d(Layer):
    """Stride-1 convolution with zero 'same' padding (odd kernel)."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int):
        if kernel % 2 != 1:
            raise ShapeError("kernel size must be odd for same padding")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.pad = kernel // 2
        self.weight = Param(np.zeros((out_channels, in_channels, kernel)))
        self.bias = Param(np.zeros(out_channels))
        self._cache = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train):
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ShapeError(f"Conv1d expected [N,{self.in_channels},W], "
                             f"got {x.shape}")
        n, _, w = x.shape
        x_pad = np.pad(x, ((0, 0), (0, 0), (self.pad, self.pad)))
        y = np.tile(self.bias.value[None, :, None], (n, 1, w))
        wt = self.weight.value
        for k in range(self.kernel):
            y += np.einsum("oc,nct->not", wt[:, :, k], x_pad[:, :, k:k + w],
                           optimize=True)
        self._cache = x_pad
        return y

    def backward(self, dy):
        self._need_cache()
        x_pad = self._cache
        n, _, w = dy.shape
        wt = self.weight.value
        dx_pad = np.zeros_like(x_pad)
        for k in range(self.kernel):
            self.weight.grad[:, :, k] += np.einsum(
                "not,nct->oc", dy, x_pad[:, :, k:k + w], optimize=True)
            dx_pad[:, :, k:k + w] += np.einsum(
                "oc,not->nct", wt[:, :, k], dy, optimize=True)
        self.bias.grad += dy.sum(axis=(0, 2))
        if self.pad:
            return dx_pad[:, :, self.pad:-self.pad]
        return dx_pad


class BatchNorm1d(Layer):
    """Batch normalization over (N, W) per channel for [N,C,W] or [N,C]."""

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Param(np.ones(channels))
        self.beta = Param(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def params(self):
        return [self.gamma, self.beta]

    def _to3d(self, x):
        if x.ndim == 2:
            return x[:, :, None], True
        if x.ndim == 3:
            return x, False
        raise ShapeError(f"BatchNorm1d expected [N,C] or [N,C,W], got {x.shape}")

    def forward(self, x, train):
        x3, squeezed = self._to3d(x)
        if x3.shape[1] != self.channels:
            raise ShapeError(f"BatchNorm1d expected {self.channels} channels, "
                             f"got {x3.shape[1]}")
        use_batch_stats = train and not self.frozen
        if use_batch_stats:
            n_eff = x3.shape[0] * x3.shape[2]
            if n_eff < 2:
                raise DegenerateBatchError(
                    "batch norm needs at least 2 values per channel in train mode")
            mean = x3.mean(axis=(0, 2))
            var = x3.var(axis=(0, 2))
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x3 - mean[None, :, None]) * inv_std[None, :, None]
        y = self.gamma.value[None, :, None] * xhat + self.beta.value[None, :, None]
        self._cache = (xhat, inv_std, use_batch_stats, squeezed)
        return y[:, :, 0] if squeezed else y

    def backward(self, dy):
        self._need_cache()
        xhat, inv_std, batch_stats, squeezed = self._cache
        dy3 = dy[:, :, None] if squeezed else dy
        self.gamma.grad += (dy3 * xhat).sum(axis=(0, 2))
        self.beta.grad += dy3.sum(axis=(0, 2))
        g = self.gamma.value[None, :, None]
        dxhat = dy3 * g
        if batch_stats:
            mean_dxhat = dxhat.mean(axis=(0, 2))[None, :, None]
            mean_dxhat_xhat = (dxhat * xhat).mean(axis=(0, 2))[None, :, None]
            dx = inv_std[None, :, None] * (dxhat - mean_dxhat
                                           - xhat * mean_dxhat_xhat)
        else:
            dx = dxhat * inv_std[None, :, None]
        return dx[:, :, 0] if squeezed else dx


class MaxPool1d(Layer):
    """Non-overlapping max pooling; trailing remainder is dropped."""

    def __init__(self, kernel: int = 3):
        self.kernel = kernel
        self._cache = None

    def forward(self, x, train):
        if x.ndim != 3:
            raise ShapeError(f"MaxPool1d expected [N,C,W], got {x.shape}")
        n, c, w = x.shape
        if w < self.kernel:
            raise ShapeError(f"width {w} smaller than pool kernel {self.kernel}")
        w_out = w // self.kernel
        windows = x[:, :, :w_out * self.kernel].reshape(n, c, w_out, self.kernel)
        argmax = windows.argmax(axis=3)  # first index on ties
        y = np.take_along_axis(windows, argmax[..., None], axis=3)[..., 0]
        self._cache = (x.shape, argmax)
        return y

    def backward(self, dy):
        self._need_cache()
        (n, c, w), argmax = self._cache
        w_out = dy.shape[2]
        dwin = np.zeros((n, c, w_out, self.kernel))
        np.put_along_axis(dwin, argmax[..., None], dy[..., None], axis=3)
        dx = np.zeros((n, c, w))
        dx[:, :, :w_out * self.kernel] = dwin.reshape(n, c, w_out * self.kernel)
        return dx


class ReLU(Layer):
    def __init__(self):
        self._cache = None

    def forward(self, x, train):
        self._cache = x > 0
        return np.where(self._cache, x, 0.0)

    def backward(self, dy):
        self._need_cache()
        return np.where(self._cache, dy, 0.0)


class Flatten(Layer):
    def __init__(self):
        self._cache = None

    def forward(self, x, train):
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        self._need_cache()
        return dy.reshape(self._cache)


class Dense(Layer):
    def __init__(self, in_features: int, out_features: int):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Param(np.zeros((in_features, out_features)))
        self.bias = Param(np.zeros(out_features))
        self._cache = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"Dense expected [N,{self.in_features}], "
                             f"got {x.shape}")
        self._cache = x
        return x @ self.weight.value + self.bias.value

    def backward(self, dy):
        self._need_cache()
        x = self._cache
        self.weight.grad += x.T @ dy
        self.bias.grad += dy.sum(axis=0)
        return dy @ self.weight.value.T

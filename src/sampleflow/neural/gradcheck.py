"""Central finite-difference verification of every backward pass."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .layers import BatchNorm1d, Conv1d, Dense, MaxPool1d, ReLU
from .losses import cross_entropy_loss, mse_loss
from .network import build_regressor, init_params

H = 1e-5
TOLERANCE = 1e-4


def numeric_grad(f: Callable[[], float], x: np.ndarray,
                 idxs=None, h: float = H) -> np.ndarray:
    """Central differences of scalar f w.r.t. entries of x (mutated in place)."""
    flat = x.reshape(-1)
    if idxs is None:
        idxs = range(flat.size)
    grad = np.zeros(len(list(idxs)))
    idxs = list(idxs)
    for n, i in enumerate(idxs):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        grad[n] = (fp - fm) / (2 * h)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    num = np.linalg.norm(analytic - numeric)
    if num < 1e-9:
        # below finite-difference roundoff; covers analytically-zero gradients
        # (e.g. conv bias directly feeding batch norm)
        return float(num)
    den = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(num / den)


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    passed: bool


def _check_layer(layer, x: np.ndarray, rng: np.random.Generator) -> float:
    """Gradcheck dx and every parameter of one layer via sum(y * R), with
    train-mode forwards."""
    r = rng.standard_normal(layer.forward(x, True).shape)

    def f() -> float:
        return float(np.sum(layer.forward(x, True) * r))

    errs = []
    for p in layer.params():
        p.zero_grad()
    layer.forward(x, True)
    dx = layer.backward(r)
    errs.append(rel_error(dx.reshape(-1), numeric_grad(f, x)))
    for p in layer.params():
        errs.append(rel_error(p.grad.reshape(-1), numeric_grad(f, p.value)))
    return max(errs)


def check_conv1d(seed: int) -> float:
    rng = np.random.default_rng(seed)
    layer = Conv1d(3, 4, 5)
    layer.weight.value[...] = rng.standard_normal(layer.weight.value.shape)
    layer.bias.value[...] = rng.standard_normal(4)
    x = rng.standard_normal((2, 3, 7))
    return _check_layer(layer, x, rng)


def check_batchnorm(seed: int) -> float:
    rng = np.random.default_rng(seed)
    layer = BatchNorm1d(3)
    layer.gamma.value[...] = rng.uniform(0.5, 1.5, 3)
    layer.beta.value[...] = rng.standard_normal(3)
    x = rng.standard_normal((4, 3, 5))
    return _check_layer(layer, x, rng)


def check_dense(seed: int) -> float:
    rng = np.random.default_rng(seed)
    layer = Dense(6, 4)
    layer.weight.value[...] = rng.standard_normal((6, 4))
    layer.bias.value[...] = rng.standard_normal(4)
    x = rng.standard_normal((3, 6))
    return _check_layer(layer, x, rng)


def check_relu(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 8))
    x = np.where(np.abs(x) < 0.1, x + 0.2, x)  # keep clear of the kink
    return _check_layer(ReLU(), x, rng)


def check_maxpool(seed: int) -> float:
    rng = np.random.default_rng(seed)
    # distinct values keep the argmax stable under the probe step
    x = rng.permutation(2 * 3 * 9).astype(float).reshape(2, 3, 9)
    return _check_layer(MaxPool1d(3), x, rng)


def check_mse(seed: int) -> float:
    rng = np.random.default_rng(seed)
    pred = rng.standard_normal((3, 24))
    target = rng.standard_normal((3, 24))
    _, grad = mse_loss(pred, target)
    num = numeric_grad(lambda: mse_loss(pred, target)[0], pred)
    return rel_error(grad.reshape(-1), num)


def check_cross_entropy(seed: int) -> float:
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((4, 5))
    labels = rng.integers(0, 5, size=4)
    _, grad = cross_entropy_loss(logits, labels)
    num = numeric_grad(lambda: cross_entropy_loss(logits, labels)[0], logits)
    return rel_error(grad.reshape(-1), num)


def _filtered_check(f, arr, analytic_flat, idxs) -> float:
    """Compare analytic vs numeric on idxs, dropping coordinates where two
    probe step sizes disagree (the probe crossed a ReLU or pool kink)."""
    n1 = numeric_grad(f, arr, idxs=idxs, h=H)
    n2 = numeric_grad(f, arr, idxs=idxs, h=H / 2)
    smooth = np.abs(n1 - n2) <= 1e-7 + 1e-3 * np.abs(n1)
    if not smooth.any():
        return 0.0
    return rel_error(analytic_flat[np.asarray(idxs)[smooth]], n2[smooth])


def check_full_network(seed: int) -> float:
    """End-to-end check on the pretrain network: spot-checked input and
    parameter coordinates, skipping kink-crossing probe points."""
    rng = np.random.default_rng(seed)
    net = init_params(build_regressor(45), seed)
    net.train()
    x = rng.standard_normal((4, 2, 45))
    target = rng.standard_normal((4, 24))

    def loss() -> float:
        return mse_loss(net.forward(x), target)[0]

    net.zero_grad()
    _, dpred = mse_loss(net.forward(x), target)
    dx = net.backward(dpred)
    x_idxs = rng.choice(x.size, size=30, replace=False)
    errs = [_filtered_check(loss, x, dx.reshape(-1), x_idxs)]
    for p in net.params():
        k = min(3, p.value.size)
        idxs = rng.choice(p.value.size, size=k, replace=False)
        errs.append(_filtered_check(loss, p.value, p.grad.reshape(-1), idxs))
    return max(errs)


ALL_CHECKS: list[tuple[str, Callable[[int], float]]] = [
    ("conv1d", check_conv1d),
    ("batchnorm1d", check_batchnorm),
    ("dense", check_dense),
    ("relu", check_relu),
    ("maxpool1d", check_maxpool),
    ("mse_loss", check_mse),
    ("cross_entropy_loss", check_cross_entropy),
    ("full_network", check_full_network),
]


def run_all(num_seeds: int) -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        worst = max(fn(s) for s in range(num_seeds))
        results.append(CheckResult(name, worst, worst < TOLERANCE))
    return results

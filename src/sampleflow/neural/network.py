"""Network assembly, weight transfer, and checkpoint persistence."""

from __future__ import annotations

import io
import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .layers import (BatchNorm1d, Conv1d, Dense, Flatten, Layer, MaxPool1d,
                     Param, ReLU, ShapeError)

CHECKPOINT_VERSION = 1

# fixed architecture constants
CONV_FILTERS = (32, 32, 64)
CONV_KERNELS = (5, 5, 3)
POOL_KERNEL = 3
HEAD_SIZES = (256, 128, 128)
INPUT_CHANNELS = 2
REGRESSION_OUTPUTS = 24


class IncompatibleTrunkError(ValueError):
    pass


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read or does not fit its network."""


class Network:
    """Ordered layer stack with train/eval mode."""

    def __init__(self, layers: list[Layer], trunk_len: int):
        self.layers = layers
        self.trunk_len = trunk_len  # layers [0:trunk_len] form the conv trunk
        self.mode = "train"
        self.meta: dict = {}

    def train(self):
        self.mode = "train"
        return self

    def eval(self):
        self.mode = "eval"
        return self

    @property
    def trunk(self) -> list[Layer]:
        return self.layers[:self.trunk_len]

    def params(self, trainable_only: bool = False) -> list[Param]:
        out = []
        for layer in self.layers:
            if trainable_only and layer.frozen:
                continue
            out.extend(layer.params())
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        train = self.mode == "train"
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()


def _make_trunk() -> list[Layer]:
    return [
        Conv1d(INPUT_CHANNELS, CONV_FILTERS[0], CONV_KERNELS[0]),
        BatchNorm1d(CONV_FILTERS[0]),
        ReLU(),
        Conv1d(CONV_FILTERS[0], CONV_FILTERS[1], CONV_KERNELS[1]),
        BatchNorm1d(CONV_FILTERS[1]),
        ReLU(),
        MaxPool1d(POOL_KERNEL),
        BatchNorm1d(CONV_FILTERS[1]),
        Conv1d(CONV_FILTERS[1], CONV_FILTERS[2], CONV_KERNELS[2]),
        BatchNorm1d(CONV_FILTERS[2]),
        ReLU(),
        MaxPool1d(POOL_KERNEL),
        BatchNorm1d(CONV_FILTERS[2]),
        Flatten(),
    ]


def flatten_width(window: int) -> int:
    w = window           # conv layers preserve width (same padding, stride 1)
    w = w // POOL_KERNEL
    w = w // POOL_KERNEL
    if w < 1:
        raise ShapeError(f"window {window} too small for two pool-{POOL_KERNEL} "
                         "stages")
    return CONV_FILTERS[2] * w


def _make_head(in_features: int, out_features: int) -> list[Layer]:
    layers: list[Layer] = []
    prev = in_features
    for size in HEAD_SIZES:
        layers += [Dense(prev, size), ReLU()]
        prev = size
    layers.append(Dense(prev, out_features))
    return layers


def _build(window: int, out_features: int) -> Network:
    trunk = _make_trunk()
    net = Network(trunk + _make_head(flatten_width(window), out_features),
                  trunk_len=len(trunk))
    _assert_shapes(net, window, out_features)
    return net


def _assert_shapes(net: Network, window: int, out_features: int) -> None:
    net.eval()
    y = net.forward(np.zeros((1, INPUT_CHANNELS, window)))
    if y.shape != (1, out_features):
        raise ShapeError(f"network output {y.shape}, expected "
                         f"(1, {out_features})")
    net.train()


def build_regressor(window: int = 45) -> Network:
    net = _build(window, REGRESSION_OUTPUTS)
    net.meta = {"kind": "regressor", "window": window,
                "num_outputs": REGRESSION_OUTPUTS}
    return net


def build_classifier(window: int, num_classes: int) -> Network:
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    net = _build(window, num_classes)
    net.meta = {"kind": "classifier", "window": window,
                "num_outputs": num_classes}
    return net


def init_params(net: Network, seed: int) -> Network:
    """Glorot-uniform weights, zero biases, unit gamma; deterministic per seed."""
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        if isinstance(layer, Conv1d):
            fan_in = layer.in_channels * layer.kernel
            fan_out = layer.out_channels * layer.kernel
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            layer.weight.value[...] = rng.uniform(-bound, bound,
                                                  layer.weight.value.shape)
            layer.bias.value[...] = 0.0
        elif isinstance(layer, Dense):
            bound = np.sqrt(6.0 / (layer.in_features + layer.out_features))
            layer.weight.value[...] = rng.uniform(-bound, bound,
                                                  layer.weight.value.shape)
            layer.bias.value[...] = 0.0
        elif isinstance(layer, BatchNorm1d):
            layer.gamma.value[...] = 1.0
            layer.beta.value[...] = 0.0
            layer.running_mean[...] = 0.0
            layer.running_var[...] = 1.0
    return net


def trunk_signature(net: Network) -> list[tuple]:
    sig = []
    for layer in net.trunk:
        if isinstance(layer, Conv1d):
            sig.append(("conv", layer.in_channels, layer.out_channels,
                        layer.kernel))
        elif isinstance(layer, BatchNorm1d):
            sig.append(("bn", layer.channels))
        elif isinstance(layer, MaxPool1d):
            sig.append(("pool", layer.kernel))
        else:
            sig.append((type(layer).__name__.lower(),))
    return sig


def transfer_trunk(src: Network, dst: Network, freeze: bool = False) -> Network:
    """Copy trunk parameters and batch-norm running stats from src into dst."""
    if trunk_signature(src) != trunk_signature(dst):
        raise IncompatibleTrunkError("trunk layer specs do not match")
    for s_layer, d_layer in zip(src.trunk, dst.trunk):
        for s_p, d_p in zip(s_layer.params(), d_layer.params()):
            d_p.value[...] = s_p.value
        if isinstance(s_layer, BatchNorm1d):
            d_layer.running_mean[...] = s_layer.running_mean
            d_layer.running_var[...] = s_layer.running_var
        d_layer.frozen = freeze
    return dst


def save_checkpoint(net: Network, path: str | Path) -> None:
    """Write the parameters, batch-norm running stats and the whole of
    net.meta, so that load_checkpoint restores the same network and meta."""
    meta = {"checkpoint_version": CHECKPOINT_VERSION, **net.meta,
            "frozen": [bool(l.frozen) for l in net.layers]}
    arrays: dict[str, np.ndarray] = {}
    for i, layer in enumerate(net.layers):
        for j, p in enumerate(layer.params()):
            arrays[f"p{i}_{j}"] = p.value
        if isinstance(layer, BatchNorm1d):
            arrays[f"rm{i}"] = layer.running_mean
            arrays[f"rv{i}"] = layer.running_var
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    # hand-rolled npz with fixed zip timestamps so identical runs produce
    # byte-identical checkpoint files
    with zipfile.ZipFile(Path(path), "w", zipfile.ZIP_DEFLATED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.save(buf, np.ascontiguousarray(arr))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, buf.getvalue())


def load_checkpoint(path: str | Path) -> tuple[Network, dict]:
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
        except (OSError, EOFError, ValueError, zipfile.BadZipFile,
                zlib.error) as exc:
            raise CheckpointError(f"{path}: not a checkpoint file ({exc})") \
                from exc

    def take(name: str, into: np.ndarray) -> None:
        arr = arrays.get(name)
        if arr is None:
            raise CheckpointError(f"{path}: missing array {name!r}")
        if arr.shape != into.shape or arr.dtype.kind not in "fiu" \
                or not np.all(np.isfinite(arr)):
            raise CheckpointError(
                f"{path}: array {name!r} has shape {arr.shape} and dtype "
                f"{arr.dtype}, expected {into.shape} finite numbers")
        into[...] = arr

    try:
        meta = json.loads(bytes(arrays["meta"]).decode())
        version = meta.get("checkpoint_version")
    except (KeyError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"{path}: unreadable metadata ({exc!r})") \
            from exc
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version "
                              f"{version}")
    kind = meta.get("kind")
    if kind not in ("regressor", "classifier"):
        raise CheckpointError(f"{path}: unknown checkpoint kind {kind!r}")
    try:
        window = int(meta["window"])
        num_outputs = int(meta["num_outputs"])
        net = build_regressor(window) if kind == "regressor" \
            else build_classifier(window, num_outputs)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad metadata ({exc!r})") from exc
    classes = meta.get("classes")
    if kind == "classifier" and classes is not None and not (
            isinstance(classes, list) and len(classes) == num_outputs
            and all(isinstance(c, str) for c in classes)
            and len(set(classes)) == num_outputs):
        raise CheckpointError(f"{path}: classes {classes!r} is not a list of "
                              f"{num_outputs} distinct names")
    for i, layer in enumerate(net.layers):
        for j, p in enumerate(layer.params()):
            take(f"p{i}_{j}", p.value)
        if isinstance(layer, BatchNorm1d):
            take(f"rm{i}", layer.running_mean)
            take(f"rv{i}", layer.running_var)
    for layer, frozen in zip(net.layers, meta.get("frozen", [])):
        layer.frozen = bool(frozen)
    net.meta.update({k: v for k, v in meta.items()
                     if k not in ("checkpoint_version", "frozen")})
    return net, meta

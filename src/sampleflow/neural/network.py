"""Network assembly, weight transfer, and checkpoint persistence."""

from __future__ import annotations

import copy
import io
import json
import zipfile
from pathlib import Path

import numpy as np

from .. import DataError
from .layers import (BatchNorm1d, Conv1d, Dense, Flatten, Layer, MaxPool1d,
                     Param, ReLU, ShapeError)

CHECKPOINT_VERSION = 2

# fixed architecture constants
CONV_FILTERS = (32, 32, 64)
CONV_KERNELS = (5, 5, 3)
POOL_KERNEL = 3
HEAD_SIZES = (256, 128, 128)
INPUT_CHANNELS = 2
REGRESSION_OUTPUTS = 24


class CheckpointError(DataError):
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

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

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

    def fold_batch_norm(self) -> Network:
        """An eval-mode copy for inference, with the same outputs from fewer
        layers.

        In eval mode a BatchNorm1d is y = x*s + (beta - mean*s) per channel,
        s = gamma/sqrt(var + eps). One that follows a Conv1d folds into that
        conv's weight and bias; one that feeds a Dense through Flatten folds
        into that Dense's rows and bias. One that feeds a zero-padded conv
        stays, since its shift would change the padded border. The fold
        runs in float64 and makes new arrays for the parameters it changes;
        every layer is a shallow copy, so nothing of this network is
        written. Folded weights that overflow are inf or NaN, and so are the
        outputs they give."""
        layers = [copy.copy(layer) for layer in self.layers]
        folded = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for i, bn in enumerate(self.layers):
                if not isinstance(bn, BatchNorm1d):
                    continue
                s = bn.gamma.value * (1.0 / np.sqrt(bn.running_var + bn.eps))
                shift = bn.beta.value - bn.running_mean * s
                if i > 0 and isinstance(self.layers[i - 1], Conv1d):
                    conv = layers[i - 1]
                    conv.weight = Param(conv.weight.value * s[:, None, None])
                    conv.bias = Param(conv.bias.value * s + shift)
                elif [type(x) for x in self.layers[i + 1:i + 3]] \
                        == [Flatten, Dense]:
                    dense = layers[i + 2]
                    width = dense.in_features // bn.channels
                    w = dense.weight.value
                    dense.weight = Param(w * np.repeat(s, width)[:, None])
                    dense.bias = Param(dense.bias.value
                                       + np.repeat(shift, width) @ w)
                else:
                    continue
                folded.add(i)
        trunk_len = self.trunk_len - sum(i < self.trunk_len for i in folded)
        return Network([layer for i, layer in enumerate(layers)
                        if i not in folded], trunk_len).eval()


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
    # conv layers preserve width (same padding, stride 1)
    w = window // POOL_KERNEL // POOL_KERNEL
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


def build_regressor(window: int) -> Network:
    return _build(window, REGRESSION_OUTPUTS)


def build_classifier(window: int, num_classes: int) -> Network:
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    return _build(window, num_classes)


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


def transfer_trunk(src: Network, dst: Network) -> Network:
    """Copy trunk parameters and batch-norm running stats from src into dst.

    Every network's trunk comes from _make_trunk, so the two always match."""
    for s_layer, d_layer in zip(src.trunk, dst.trunk):
        for s_p, d_p in zip(s_layer.params(), d_layer.params()):
            d_p.value[...] = s_p.value
        if isinstance(s_layer, BatchNorm1d):
            d_layer.running_mean[...] = s_layer.running_mean
            d_layer.running_var[...] = s_layer.running_var
    return dst


def save_checkpoint(net: Network, path: str | Path) -> None:
    """Write the parameters, batch-norm running stats and the whole of
    net.meta, so that load_checkpoint restores the same network and meta."""
    meta = {"checkpoint_version": CHECKPOINT_VERSION, **net.meta}
    arrays: dict[str, np.ndarray] = {}
    for i, layer in enumerate(net.layers):
        for j, p in enumerate(layer.params()):
            arrays[f"p{i}_{j}"] = p.value
        if isinstance(layer, BatchNorm1d):
            arrays[f"rm{i}"] = layer.running_mean
            arrays[f"rv{i}"] = layer.running_var
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    # hand-rolled npz with fixed zip timestamps so identical runs produce
    # byte-identical checkpoint files; stored, not deflated, since deflate
    # saves under 5% on float64 weights
    with zipfile.ZipFile(Path(path), "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.save(buf, np.ascontiguousarray(arr))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def load_checkpoint(path: str | Path) -> tuple[Network, dict]:
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as npz:
                # only ZIP_STORED (0) entries: others could fail to inflate
                if any(info.compress_type for info in npz.zip.infolist()):
                    raise zipfile.BadZipFile("compressed entries")
                arrays = {name: npz[name] for name in npz.files}
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
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
        version = meta.pop("checkpoint_version", None)
    except (KeyError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"{path}: unreadable metadata ({exc!r})") \
            from exc
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version "
                              f"{version!r}")
    # each fact is stored once: a second copy of one (a top-level window, an
    # output count) could disagree with the first, so the file is refused
    unknown = sorted(set(meta) - {"kind", "train_config", "classes",
                                  "pretrained"})
    if unknown:
        raise CheckpointError(f"{path}: bad metadata: unknown keys {unknown}")
    kind, config, classes = map(meta.get, ("kind", "train_config", "classes"))
    if kind not in ("regressor", "classifier"):
        raise CheckpointError(f"{path}: unknown checkpoint kind {kind!r}")
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: train_config {config!r:.60} is not an "
                              "object")
    window = config.get("window")
    if type(window) is not int:
        raise CheckpointError(f"{path}: bad metadata: train_config window "
                              f"{window!r} is not an integer")
    if kind == "classifier" and not (
            isinstance(classes, list) and {type(c) for c in classes} == {str}
            and len(set(classes)) == len(classes)):
        raise CheckpointError(f"{path}: classes {classes!r:.60} is not a "
                              "non-empty list of distinct names")
    outputs = len(classes) if kind == "classifier" else REGRESSION_OUTPUTS
    # window and the output count fix the shapes of the head's first and
    # last weights; compare those with the file before any layer is allocated
    try:
        width = flatten_width(window)
    except ShapeError as exc:
        raise CheckpointError(f"{path}: bad metadata ({exc!r})") from exc
    first = len(_make_trunk())  # layer index of the head's first Dense
    for name, shape in ((f"p{first}_0", (width, HEAD_SIZES[0])),
                        (f"p{first + 2 * len(HEAD_SIZES)}_0",
                         (HEAD_SIZES[-1], outputs))):
        found = arrays[name].shape if name in arrays else "no array"
        if found != shape:
            raise CheckpointError(
                f"{path}: bad metadata: a {kind} of window {window} and "
                f"{outputs} outputs needs {name!r} of shape {shape}, found "
                f"{found}")
    net = build_regressor(window) if kind == "regressor" \
        else build_classifier(window, outputs)
    for i, layer in enumerate(net.layers):
        for j, p in enumerate(layer.params()):
            take(f"p{i}_{j}", p.value)
        if isinstance(layer, BatchNorm1d):
            take(f"rm{i}", layer.running_mean)
            take(f"rv{i}", layer.running_var)
            if (layer.running_var < 0).any():
                raise CheckpointError(f"{path}: array 'rv{i}' has a negative "
                                      "value; a variance is never below 0")
    net.meta = meta
    return net, net.meta

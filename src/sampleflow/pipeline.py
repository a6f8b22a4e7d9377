"""Two-stage semi-supervised training, evaluation, and the KNN baseline."""

from __future__ import annotations

import logging
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from . import DataError
from .features import input_matrix, normalize_targets, stat_features
from .flows import Flow
from .neural import (Adam, Network, build_classifier, build_regressor,
                     cross_entropy_loss, init_params, mse_loss, transfer_trunk)
from .neural.worker import WORKER
from .sampling import (Random, SamplingSpec, augment, derive_rng,
                       spec_from_dict, spec_to_dict)

logger = logging.getLogger(__name__)


class EmptyDatasetError(DataError):
    pass


class LabelError(DataError):
    pass


class CoverageError(DataError):
    pass


class NonFiniteLossError(DataError):
    pass


class NonFiniteOutputError(DataError):
    """A network whose evaluation output holds inf or NaN."""


class ConfigError(DataError):
    """A training config with a missing, unknown or ill-typed field."""


class DatasetSizeError(DataError):
    """A dataset of sampled copies whose input array cannot be allocated."""


# rows an inference forward takes at a time: small enough that conv L3's
# im2col matrix stays near one core's L2 cache. BLAS rounds a row's output
# differently in products of different sizes, so changing it changes
# --freeze-trunk checkpoint bytes and can flip an evaluate prediction at a
# tie.
INFER_BATCH = 128

_LEAST = {"seed": 0, "window": 1, "copies": 1, "pretrain_epochs": 1,
          "retrain_epochs": 1, "batch_size": 2}  # batch norm needs 2 copies


@dataclass(frozen=True)
class TrainConfig:
    sampling: SamplingSpec
    seed: int
    window: int = 45
    copies: int = 100
    pretrain_epochs: int = 300
    retrain_epochs: int = 100
    lr: float = 1e-3
    batch_size: int = 64
    freeze_trunk: bool = False

    def __post_init__(self):
        for name, least in _LEAST.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        if isinstance(self.lr, bool) or not isinstance(self.lr, Real) \
                or not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite number > 0, "
                              f"got {self.lr!r}")
        if not isinstance(self.freeze_trunk, bool):
            raise ConfigError(f"freeze_trunk must be true or false, "
                              f"got {self.freeze_trunk!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["sampling"] = spec_to_dict(self.sampling)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls) if f.default is MISSING}
        if set(d) - known:
            raise ConfigError(f"unknown config keys {sorted(set(d) - known)}")
        if required - set(d):
            raise ConfigError(
                f"missing config keys {sorted(required - set(d))}")
        if not isinstance(d["sampling"], dict):
            raise ConfigError("sampling must be an object, "
                              f"got {d['sampling']!r}")
        try:
            sampling = spec_from_dict(d["sampling"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad sampling spec {d['sampling']!r}: "
                              f"{exc!r}") from exc
        return cls(**{**d, "sampling": sampling})


def _sampled_copies(flows: list[Flow], cfg: TrainConfig
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Network inputs of every flow's sampled copies, seeded per flow, in
    one float64[copies, 2, window] array, and the position in flows of each
    copy's flow (int64), which tells apart flows that share an id.

    The flows are sampled first and the inputs filled in after, so no input
    is held twice; only the index matrices are held alongside."""
    if not flows:
        raise EmptyDatasetError("no sampled copies could be built")
    # only random sampling draws from a flow's generator
    seeded = isinstance(cfg.sampling, Random)
    rows = [augment(flow, cfg.sampling, cfg.window, cfg.copies,
                    derive_rng(cfg.seed, flow.id) if seeded else None)
            for flow in flows]
    counts = np.array([len(r) for r in rows], dtype=np.int64)
    ends = np.cumsum(counts)
    copies = int(ends[-1])
    try:
        x = np.empty((copies, 2, cfg.window))
    except MemoryError as exc:
        gib = copies * 2 * cfg.window * 8 / 2**30
        raise DatasetSizeError(
            f"{copies} sampled copies of window {cfg.window} need "
            f"{gib:.1f} GiB of network inputs, more than can be "
            "allocated") from exc
    for flow, idx, end in zip(flows, rows, ends.tolist()):
        x[end - len(idx):end] = input_matrix(flow, idx)
    return x, np.repeat(np.arange(len(flows), dtype=np.int64), counts)


def build_regression_dataset(flows: list[Flow], cfg: TrainConfig
                             ) -> tuple[np.ndarray, np.ndarray]:
    """(input matrix, normalized stat-vector target) pairs over sampled copies."""
    x, flow_of = _sampled_copies(flows, cfg)
    targets = np.stack([normalize_targets(stat_features(flow))
                        for flow in flows])
    return x, targets[flow_of]


def build_classification_dataset(flows: list[Flow], classes: list[str],
                                 cfg: TrainConfig
                                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled copies with inherited labels; also returns each copy's flow
    position in flows (int64), which tells apart flows that share an id.
    Every label is checked before any flow is sampled."""
    class_index = {c: i for i, c in enumerate(classes)}
    for flow in flows:
        if flow.label not in class_index:
            raise LabelError(f"flow {flow.id} has unknown label {flow.label!r}")
    codes = np.array([class_index[flow.label] for flow in flows])
    x, flow_of = _sampled_copies(flows, cfg)
    return x, codes[flow_of], flow_of


def _backward(net: Network, dy: np.ndarray, optimizer: Adam) -> None:
    """net.backward(dy) for a train step, on two threads.

    The caller computes each layer's input gradient; each layer's parameter
    gradients and Adam update are queued on the worker as soon as the caller
    is done with the layer, and optimizer.step() waits for them. The first
    layer's input gradient is not computed, since nothing reads it."""
    try:
        for i in range(len(net.layers) - 1, -1, -1):
            layer = net.layers[i]
            params = layer.params()
            if not params:
                dy = layer.backward(dy)
                continue
            dy = layer.backward(dy, WORKER.submit, i > 0)
            optimizer.update_later(params)
    except BaseException:
        WORKER.cancel()
        raise


def _forward_batches(net: Network, x: np.ndarray, dtype) -> list[np.ndarray]:
    """net.forward of each INFER_BATCH-row batch of x, cast to dtype, in
    order; net must be in eval mode.

    The calling thread forwards the even batches and the worker the odd
    ones, under the caller's numpy error state. Each batch is one whole
    forward of the same rows, and an eval-mode forward writes nothing a
    batch reads, so every output is bit-identical to a serial loop's."""
    starts = range(0, len(x), INFER_BATCH)
    out: list = [None] * len(starts)

    def forward(i):
        lo = starts[i]
        out[i] = net.forward(x[lo:lo + INFER_BATCH].astype(dtype, copy=False))

    try:
        for i in range(0, len(starts), 2):
            if i + 1 < len(starts):
                WORKER.submit(forward, i + 1)
            forward(i)
        WORKER.wait()
    except BaseException:
        WORKER.cancel()
        raise
    return out


def _train_network(net: Network, x: np.ndarray, y: np.ndarray, loss_fn,
                   epochs: int, cfg: TrainConfig, shuffle_seed: int
                   ) -> list[float]:
    optimizer = Adam(net.params(), lr=cfg.lr)
    rng = np.random.default_rng(shuffle_seed)
    history = []
    net.train()
    n = x.shape[0]
    if n < 2:
        raise EmptyDatasetError(f"at least 2 sampled copies needed, got {n}")
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for batch, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = order[lo:lo + cfg.batch_size]
            if len(idx) < 2:
                continue  # batch norm needs more than one value
            optimizer.zero_grad()
            pred = net.forward(x[idx])
            loss, dpred = loss_fn(pred, y[idx])
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"training loss is {loss} at epoch {epoch + 1}/{epochs}, "
                    f"batch {batch + 1}; lower lr (now {cfg.lr})")
            _backward(net, dpred, optimizer)
            optimizer.step()
            losses.append(loss)
        mean_loss = float(np.mean(losses))
        history.append(mean_loss)
        logger.info("epoch %d/%d loss %.6f", epoch + 1, epochs, mean_loss)
    net.eval()
    return history


def pretrain(unlabeled: list[Flow], cfg: TrainConfig
             ) -> tuple[Network, list[float]]:
    """Train the regressor to predict flow statistics from sampled windows.

    Returns the network and its mean training loss per epoch.
    """
    if not unlabeled:
        raise EmptyDatasetError("no flows to pretrain on")
    x, y = build_regression_dataset(unlabeled, cfg)
    net = init_params(build_regressor(cfg.window), cfg.seed)
    history = _train_network(net, x, y, mse_loss, cfg.pretrain_epochs, cfg,
                             shuffle_seed=cfg.seed + 1)
    net.meta = {"kind": "regressor", "train_config": cfg.to_dict()}
    return net, history


def _train_classifier(labeled: list[Flow], classes: list[str],
                      cfg: TrainConfig, pretrained: Network | None
                      ) -> tuple[Network, list[float]]:
    if len(set(classes)) != len(classes):
        raise LabelError("duplicate class names")
    have = {f.label for f in labeled}
    missing = [c for c in classes if c not in have]
    if missing:
        raise CoverageError(f"no labeled flows for classes {missing}")
    x, y, _ = build_classification_dataset(labeled, classes, cfg)
    net = init_params(build_classifier(cfg.window, len(classes)), cfg.seed + 2)
    trained = net
    if pretrained is not None:
        transfer_trunk(pretrained, net)
        if cfg.freeze_trunk:
            # a fixed trunk: forward each copy through it once, train the head
            trunk = Network(net.trunk, net.trunk_len).eval()
            x = np.concatenate(_forward_batches(trunk, x, np.float64))
            trained = Network(net.layers[net.trunk_len:], 0)
    history = _train_network(trained, x, y, cross_entropy_loss,
                             cfg.retrain_epochs, cfg,
                             shuffle_seed=cfg.seed + 3)
    net.eval()
    # freezing applies only to a transferred trunk: record what was trained
    if pretrained is None:
        cfg = replace(cfg, freeze_trunk=False)
    net.meta = {"kind": "classifier", "train_config": cfg.to_dict(),
                "classes": list(classes), "pretrained": pretrained is not None}
    return net, history


def retrain(pretrained: Network, labeled: list[Flow], classes: list[str],
            cfg: TrainConfig) -> tuple[Network, list[float]]:
    """Transfer the conv trunk and train a classifier head on labeled flows.

    Returns the network and its mean training loss per epoch.
    """
    return _train_classifier(labeled, classes, cfg, pretrained)


def train_supervised_baseline(labeled: list[Flow], classes: list[str],
                              cfg: TrainConfig) -> tuple[Network, list[float]]:
    """Same architecture and schedule as retrain, without weight transfer."""
    return _train_classifier(labeled, classes, cfg, None)


def _predict_batched(net: Network, x: np.ndarray) -> np.ndarray:
    """The arg-max class of each row of x, forwarded INFER_BATCH rows at a
    time.

    It forwards net.fold_batch_norm(), net's outputs from fewer layers, in
    float32; parameters stay float64 and each layer casts them to its
    input's dtype. Weights that overflow float32, or whose products do (in
    the fold too), give inf or NaN outputs, which are refused rather than
    turned into predictions."""
    net = net.fold_batch_norm()
    with np.errstate(over="ignore", invalid="ignore"):
        batches = _forward_batches(net, x, np.float32)
    out = []
    for lo, logits in zip(range(0, x.shape[0], INFER_BATCH), batches):
        if not np.isfinite(logits).all():
            raise NonFiniteOutputError(
                f"network output is not finite for sampled copies "
                f"{lo}..{lo + len(logits) - 1}: the checkpoint's weights are "
                "too large to evaluate in float32")
        out.append(logits.argmax(axis=1))
    return np.concatenate(out)


@dataclass
class EvalReport:
    classes: list[str]
    macro_accuracy: float
    per_class: dict
    confusion: list[list[int]]
    n_sampled: int
    n_flows: int
    flow_majority_accuracy: float

    def to_dict(self) -> dict:
        return asdict(self)


def confusion_matrix(true: np.ndarray, pred: np.ndarray, k: int
                     ) -> np.ndarray:
    """[k, k] counts of (true class, predicted class) index pairs."""
    confusion = np.zeros((k, k), dtype=int)
    np.add.at(confusion, (true, pred), 1)
    return confusion


def confusion_metrics(confusion: np.ndarray, classes: list[str]) -> tuple:
    """Per-class one-vs-rest metrics and macro accuracy (mean recall)."""
    total = int(confusion.sum())
    per_class = {}
    recalls = []

    def ratio(num, den):
        return (num / den, False) if den > 0 else (0.0, True)

    for i, name in enumerate(classes):
        tp = int(confusion[i, i])
        fn = int(confusion[i].sum()) - tp
        fp = int(confusion[:, i].sum()) - tp
        tn = total - tp - fn - fp
        precision, p_zero = ratio(tp, tp + fp)
        recall, r_zero = ratio(tp, tp + fn)
        f1, f_zero = ratio(2 * precision * recall, precision + recall)
        accuracy, _ = ratio(tp + tn, total)
        flags = [n for n, z in (("precision", p_zero), ("recall", r_zero),
                                ("f1", f_zero)) if z]
        per_class[name] = {"accuracy": accuracy, "precision": precision,
                           "recall": recall, "f1": f1,
                           "zero_division": flags}
        recalls.append(recall)
    return float(np.mean(recalls)), per_class


def evaluate(model: Network, test_flows: list[Flow], classes: list[str],
             cfg: TrainConfig) -> EvalReport:
    """Copy-level confusion and metrics, plus flow-level majority accuracy."""
    if not test_flows:
        raise EmptyDatasetError("empty test set")
    x, y, flow_of = build_classification_dataset(test_flows, classes, cfg)
    preds = _predict_batched(model, x)
    k = len(classes)
    confusion = confusion_matrix(y, preds, k)
    macro, per_class = confusion_metrics(confusion, classes)

    # flow-level vote: modal copy prediction (ties: lowest class index)
    # against the label of the flow's first copy
    n_flows = len(test_flows)
    first = np.searchsorted(flow_of, np.arange(n_flows))
    votes = np.zeros((n_flows, k), dtype=int)
    np.add.at(votes, (flow_of, preds), 1)
    votes_right = int((votes.argmax(axis=1) == y[first]).sum())
    return EvalReport(
        classes=list(classes),
        macro_accuracy=macro,
        per_class=per_class,
        confusion=confusion.tolist(),
        n_sampled=int(x.shape[0]),
        n_flows=n_flows,
        flow_majority_accuracy=votes_right / n_flows,
    )


def split_per_class(flows: list[Flow], n_train_per_class: int, seed: int
                    ) -> tuple[list[Flow], list[Flow]]:
    """Seeded per-class split: exactly n_train_per_class flows into train.

    Flows are told apart by position, so flows that share an id are not
    merged."""
    by_class: dict[str, list[int]] = {}
    for i, f in enumerate(flows):
        if f.label is None:
            raise LabelError(f"flow {f.id} has no label")
        by_class.setdefault(f.label, []).append(i)
    rng = np.random.default_rng(seed)
    train_pos = set()
    for label in sorted(by_class):
        group = by_class[label]
        if n_train_per_class > 0 and len(group) <= n_train_per_class:
            raise CoverageError(
                f"class {label!r} has only {len(group)} flows, need more than "
                f"{n_train_per_class}")
        chosen = rng.choice(len(group), size=n_train_per_class, replace=False)
        train_pos.update(group[i] for i in chosen)
    train = [f for i, f in enumerate(flows) if i in train_pos]
    test = [f for i, f in enumerate(flows) if i not in train_pos]
    return train, test


class KnnClassifier:
    """K-nearest-neighbor vote over normalized statistical feature vectors.

    Distance ties keep training insertion order; when more than one class
    has the top vote count, the answer is the nearest neighbor's class.
    """

    def __init__(self, train_stats: list[tuple[np.ndarray, str]], k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        if not train_stats:
            raise EmptyDatasetError("no training vectors")
        self.x = np.stack([v for v, _ in train_stats])
        self.classes = list(dict.fromkeys(lab for _, lab in train_stats))
        index = {c: i for i, c in enumerate(self.classes)}
        self.codes = np.array([index[lab] for _, lab in train_stats])
        self.k = min(k, len(self.codes))

    def predict(self, vecs: np.ndarray) -> list[str]:
        """The class of each row of an [m, d] matrix of query vectors."""
        vecs = np.asarray(vecs)
        if vecs.ndim != 2:
            raise ValueError(f"expected an [m, d] matrix, got {vecs.shape}")
        m = len(vecs)
        dist = np.empty((m, len(self.x)))
        for i, vec in enumerate(vecs):
            dist[i] = np.linalg.norm(self.x - vec, axis=1)
        order = np.argsort(dist, axis=1, kind="stable")[:, :self.k]
        nearest = self.codes[order]
        counts = np.zeros((m, len(self.classes)), dtype=np.int64)
        np.add.at(counts, (np.arange(m)[:, None], nearest), 1)
        tied = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1
        winner = np.where(tied, nearest[:, 0], counts.argmax(axis=1))
        return [self.classes[i] for i in winner.tolist()]


def knn_baseline(train_stats: list[tuple[np.ndarray, str]],
                 k: int) -> KnnClassifier:
    return KnnClassifier(train_stats, k)


def flow_stat_vectors(flows: list[Flow]) -> list[tuple[np.ndarray, str]]:
    """(normalized statistics, label) per flow; every flow must be labeled."""
    for f in flows:
        if f.label is None:
            raise LabelError(f"flow {f.id} has no label")
    return [(normalize_targets(stat_features(f)), f.label) for f in flows]

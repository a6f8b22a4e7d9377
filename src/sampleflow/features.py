"""Flow-level statistical features and normalized network input matrices."""

from __future__ import annotations

import numpy as np

from . import DataError
from .flows import Flow

MAX_LENGTH_BYTES = 1434.0
MAX_IAT_SECONDS = 1.0

DIRECTIONS = ("fwd", "bwd", "both")
QUANTITIES = ("len", "iat")
STATISTICS = ("min", "max", "mean", "std")

# canonical order: index = dir*8 + qty*4 + stat
FEATURE_NAMES = tuple(f"f_{d}_{q}_{s}"
                      for d in DIRECTIONS for q in QUANTITIES
                      for s in STATISTICS)
NUM_FEATURES = len(FEATURE_NAMES)
FEATURE_ORDER_VERSION = 1


class InconsistentSampleError(DataError):
    pass


def _block(values: np.ndarray) -> np.ndarray:
    """min, max, mean and population std of values; zeros when empty.

    One sum serves the mean and the std. The operations are those of
    numpy's mean and var, so both are bit-equal to values.mean() and
    values.std()."""
    n = values.size
    if n == 0:
        return np.zeros(4)
    mean = np.add.reduce(values) / n
    d = values - mean
    d *= d
    return np.array([values.min(), values.max(), mean,
                     np.sqrt(np.add.reduce(d) / n)])


def stat_features(flow: Flow) -> np.ndarray:
    """24 statistics: {fwd, bwd, both} x {length, IAT} x {min, max, mean, std}.

    IATs are differenced within each direction subset; subsets with fewer than
    two packets get all-zero IAT statistics. Units are bytes and seconds.
    """
    times, signed = flow.times, flow.signed
    lengths = np.abs(signed).astype(np.float64)
    out = np.empty(NUM_FEATURES)
    for d, mask in enumerate((signed > 0, signed < 0, slice(None))):
        out[d * 8:d * 8 + 4] = _block(lengths[mask])
        out[d * 8 + 4:d * 8 + 8] = _block(np.diff(times[mask]))
    return out


def normalize_targets(stats: np.ndarray) -> np.ndarray:
    """Scale length statistics by the 1434 B cap; IATs stay in seconds."""
    out = np.array(stats, dtype=float)
    for d in range(3):
        out[d * 8:d * 8 + 4] /= MAX_LENGTH_BYTES
    return out


def input_matrix(flow: Flow, idx: np.ndarray) -> np.ndarray:
    """Render a flow's sampled copies as normalized 2-channel network inputs.

    idx is augment's int64[copies, window] index matrix (rows padded with
    -1); the result is float64[copies, 2, window]. Channel 0: inter-arrival
    times of the sampled packets, clamped at 1 s, first slot 0. Channel 1:
    signed length / 1434, clamped to [-1, 1]. Padding slots stay zero.
    """
    idx = np.asarray(idx)
    if idx.ndim != 2:
        raise InconsistentSampleError("indices must be a 2-D copies x window "
                                      "matrix")
    valid = idx >= 0
    if np.any(idx < -1) or np.any(valid[:, 1:] & ~valid[:, :-1]):
        raise InconsistentSampleError("padding must be -1 after the last "
                                      "index")
    if np.any(valid[:, 1:] & (np.diff(idx, axis=1) <= 0)):
        raise InconsistentSampleError("indices must be strictly increasing")
    flow_len = len(flow)
    if idx.size and idx.max() >= flow_len:
        raise InconsistentSampleError(
            f"sample index {idx.max()} out of range for flow of {flow_len} "
            f"packets")
    safe = np.where(valid, idx, 0)
    data = np.zeros((idx.shape[0], 2, idx.shape[1]))
    data[:, 0, 1:] = np.minimum(np.diff(flow.times[safe], axis=1),
                                MAX_IAT_SECONDS)
    data[:, 1] = np.clip(flow.signed[safe] / MAX_LENGTH_BYTES, -1.0, 1.0)
    return np.where(valid[:, None, :], data, 0.0)

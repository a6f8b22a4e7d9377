"""Packet index sampling: fixed step, random, incremental; plus augmentation."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import astuple, dataclass
from numbers import Integral, Real
from typing import Iterable, Union

import numpy as np

from . import DataError
from .flows import Flow, Sink, _open_for

# most uniform draws random sampling takes in its first block; doubled
# while a copy needs more
_RANDOM_BLOCK = 1 << 16

# most indices augment samples from one flow (copies x window): 128 MiB of
# int64 indices, 256 MiB as the flow's float64 network inputs
MAX_SAMPLED_INDICES = 1 << 24


class InvalidStartError(DataError):
    pass


class SampleSizeError(DataError):
    """copies x window beyond MAX_SAMPLED_INDICES."""


@dataclass(frozen=True)
class Fixed:
    step: int

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("fixed step must be >= 1")


@dataclass(frozen=True)
class Random:
    probability: float

    def __post_init__(self):
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")


@dataclass(frozen=True)
class Incremental:
    initial_step: int
    growth: float        # step multiplier applied after each stage
    stage_len: int       # samples emitted per stage

    def __post_init__(self):
        if self.initial_step < 1:
            raise ValueError("initial step must be >= 1")
        if not 1.0 <= self.growth < math.inf:
            raise ValueError("growth factor must be finite and >= 1")
        if self.stage_len < 1:
            raise ValueError("stage length must be >= 1")


SamplingSpec = Union[Fixed, Random, Incremental]


# each method's spec class, and its keys in field order with their kinds
_SPEC_KEYS = {"fixed": (Fixed, {"l": Integral}),
              "random": (Random, {"p": Real}),
              "incremental": (Incremental, {"l0": Integral, "alpha": Real,
                                            "beta": Integral})}


def spec_to_dict(spec: SamplingSpec) -> dict:
    method, keys = next((method, keys) for method, (cls, keys)
                        in _SPEC_KEYS.items() if isinstance(spec, cls))
    return {"method": method, **dict(zip(keys, astuple(spec)))}


def _field(d: dict, name: str, kind: type):
    """d[name] as an int (kind Integral) or a float (kind Real): bools,
    strings and non-integral steps are rejected, not converted."""
    value = d[name]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be "
                        f"{'an integer' if kind is Integral else 'a number'}, "
                        f"got {value!r}")
    return int(value) if kind is Integral else float(value)


def spec_from_dict(d: dict) -> SamplingSpec:
    method = d["method"]
    if not isinstance(method, str) or method not in _SPEC_KEYS:
        raise ValueError(f"unknown sampling method {method!r}")
    cls, keys = _SPEC_KEYS[method]
    unknown = set(d) - {"method", *keys}
    if unknown:
        raise ValueError(f"unknown {method} sampling keys {sorted(unknown)}")
    return cls(*(_field(d, key, kind) for key, kind in keys.items()))


def sample_indices(spec: SamplingSpec, start: int, flow_len: int, window: int,
                   rng: np.random.Generator | None = None) -> list[int]:
    """Packet indices selected by the sampling strategy, at most window many:
    the row augment's builders give for this start, without its padding."""
    if start < 0 or start >= flow_len:
        raise InvalidStartError(f"start {start} out of range for flow of "
                                f"{flow_len} packets")
    if window < 1:
        raise ValueError("window must be >= 1")
    if isinstance(spec, Random):
        if rng is None:
            raise ValueError("random sampling requires an rng")
        row = _random_rows(spec, start, flow_len, window, 1, rng)[0]
    else:
        row = _stepped_rows(spec, np.array([start]), flow_len, window)[0]
    return row[row >= 0].tolist()


def _stepped_rows(spec: Fixed | Incremental, starts: np.ndarray,
                  flow_len: int, window: int) -> np.ndarray:
    """Fixed or incremental indices from each start, as rows padded with -1.

    Fixed is the integer closed form. Incremental sums positions left to
    right from float(start), step by step, and rounds each half up. A first
    step at or past the flow's end lets no later index fit either way, so it
    is capped at flow_len: huge steps stay within int64 and float range.
    """
    if isinstance(spec, Fixed):
        idx = starts[:, None] + min(spec.step, flow_len) * np.arange(window)
        return np.where(idx < flow_len, idx, -1)
    steps = []
    step = float(min(spec.initial_step, flow_len))
    for k in range(1, window):
        if k % spec.stage_len == 0:
            step *= spec.growth
        steps.append(step)
    terms = np.empty((len(starts), window))
    terms[:, 0] = starts
    terms[:, 1:] = steps
    idx = np.floor(np.cumsum(terms, axis=1) + 0.5)
    return np.where(idx < flow_len, idx, -1).astype(np.int64)


def _random_rows(spec: Random, start: int, flow_len: int, window: int,
                 copies: int, rng: np.random.Generator) -> np.ndarray:
    """Random indices from start, copies times in a row, from one block of
    draws: one uniform draw per scanned index, start..flow_len-1. The
    generator ends where drawing them one at a time would leave it.

    The hit positions (draws below p) are found once. A copy starting at
    draw `used` whose window-th hit lies within n draws takes the next
    `window` hits and ends at the last, so a run of such copies is cut out
    of the hit array with one reshape. A copy with fewer hits in its n
    draws takes those and ends n draws on. A run looks one copy ahead
    after such a copy, and twice as far after each run, so it looks little
    further than it cuts.
    """
    n = flow_len - start
    p = spec.probability
    state = rng.bit_generator.state
    # a copy scans n draws or to its window-th hit, window / p draws on
    # average: draw what the copies are expected to scan, four standard
    # deviations more, and at most what they can scan
    expect = copies * min(n, window / p)
    drawn = int(min(copies * n, _RANDOM_BLOCK,
                    expect + 4 * math.sqrt(expect / p)))
    hits = np.flatnonzero(rng.random(drawn) < p)
    rows = np.full((copies, window), -1, dtype=np.int64)
    used = k = c = 0  # next copy's first draw, its first hit, its row
    ahead = copies
    while c < copies:
        last = k + window - 1
        if last < len(hits) and hits[last] - used < n:
            # each copy ends at its window-th hit, the next starts after it
            m = 1
            if ahead > 1:
                ends = hits[last::window][:min(copies - c, ahead)]
                full = ends[1:] - ends[:-1] <= n
                m += len(full) if full.all() else int(full.argmin())
                rows[c + 1:c + m] = (
                    hits[k + window:k + m * window].reshape(m - 1, window)
                    - ends[:m - 1, None] - 1)
            rows[c] = hits[k:last + 1] - used
            used = int(hits[k + m * window - 1]) + 1
            k += m * window
            c += m
            ahead *= 2
        elif used + n <= drawn:  # fewer than window hits in n draws
            row = hits[k:k + window]
            row = row[row < used + n]
            rows[c, :len(row)] = row - used
            used += n
            k += len(row)
            c += 1
            ahead = 1
        else:
            more = rng.random(drawn)
            hits = np.concatenate([hits, np.flatnonzero(more < p) + drawn])
            drawn *= 2
    rng.bit_generator.state = state
    rng.bit_generator.advance(used)
    np.add(rows, start, out=rows, where=rows >= 0)
    return rows


def augment(flow: Flow, spec: SamplingSpec, window: int, max_copies: int,
            rng: np.random.Generator | None = None) -> np.ndarray:
    """Sample one flow up to max_copies times.

    Returns int64[copies, window] packet indices, one copy per row, each row
    equal to sample_indices for its start and padded with -1.

    Random restarts at index 0 with fresh randomness each copy; fixed and
    incremental shift the start offset over an even schedule instead, since
    re-sampling from the start would repeat the same indices.
    """
    if max_copies < 1:
        raise ValueError("max_copies must be >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    if max_copies * window > MAX_SAMPLED_INDICES:
        raise SampleSizeError(
            f"{max_copies} copies of window {window} is more than "
            f"{MAX_SAMPLED_INDICES} sampled indices a flow")
    flow_len = len(flow)

    if isinstance(spec, Random):
        if rng is None:
            raise ValueError("random sampling requires an rng")
        return _random_rows(spec, 0, flow_len, window, max_copies, rng)

    first = _stepped_rows(spec, np.zeros(1, dtype=np.int64), flow_len, window)
    if first[0, -1] < 0:
        return first  # a full window does not fit: one partial copy
    room = flow_len - 1 - int(first[0, -1])
    delta = max(1, room // max_copies)
    starts = delta * np.arange(min(max_copies, room // delta + 1))
    return _stepped_rows(spec, starts, flow_len, window)


def derive_rng(master_seed: int, flow_id: str) -> np.random.Generator:
    """Stable per-flow generator so parallel runs stay reproducible."""
    digest = hashlib.sha256(f"{master_seed}:{flow_id}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def write_sampled(samples: Iterable[tuple[Flow, np.ndarray]],
                  sink: Sink) -> None:
    """Sampled-flow file: one JSON record per copy with realized packets.

    samples pairs each flow with its augment index matrix.
    """
    fh, owned = _open_for(sink, "w")
    try:
        fh.write(json.dumps({"v": 1, "format": "sampled"}) + "\n")
        for flow, idx in samples:
            for row in idx:
                row = row[row >= 0]
                fh.write(json.dumps({
                    "flow_id": flow.id,
                    "label": flow.label,
                    "indices": row.tolist(),
                    "window": idx.shape[1],
                    "pkts": list(zip(flow.times[row].tolist(),
                                     flow.signed[row].tolist())),
                }) + "\n")
    finally:
        if owned:
            fh.close()

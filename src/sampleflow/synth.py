"""Deterministic synthetic labeled-flow generator for benchmark runs.

Every class shares an identical opening phase (the first PREFIX_LEN packets
carry no class signal), so classifiers restricted to the start of a flow
cannot separate the classes while sampled windows further in can.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import DataError
from .flows import FiveTuple, Flow

PREFIX_LEN = 200
MOTIF_LEN = 40
MIN_LENGTH = 40
MAX_LENGTH = 1434

DEFAULT_FLOW_LEN_RANGE = (600, 1100)


class SynthConfigError(DataError):
    pass


@dataclass(frozen=True)
class ClassProfile:
    label: str
    fwd_len_mean: float
    bwd_len_mean: float
    len_std: float
    mix_delta: float          # mixture components sit at mean +- mix_delta
    iat_mu: float             # log-normal location of inter-arrival times
    iat_sigma: float
    fwd_prob: float
    motif_lengths: tuple[int, ...]
    flow_len_range: tuple[int, int]


def _flow_rng(seed: int, class_idx: int, flow_idx: int) -> np.random.Generator:
    digest = hashlib.sha256(f"synth:{seed}:{class_idx}:{flow_idx}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def make_profiles(num_classes: int, seed: int, difficulty: float = 1.0,
                  flow_len_range: tuple[int, int] = DEFAULT_FLOW_LEN_RANGE
                  ) -> list[ClassProfile]:
    if not 2 <= num_classes <= 26:
        raise SynthConfigError("num_classes must be in [2, 26]")
    lo, hi = flow_len_range
    if not (100 <= lo <= hi <= 20000):
        raise SynthConfigError("flow_len_range must lie within [100, 20000]")
    if not (math.isfinite(difficulty) and difficulty > 0):
        raise SynthConfigError(f"difficulty must be a finite number > 0, "
                               f"got {difficulty}")
    rng = np.random.default_rng(seed)
    std = 60.0
    fwd_step = 150.0 * difficulty
    bwd_step = 180.0 * difficulty
    profiles = []
    for i in range(num_classes):
        motif = tuple(int(v) for v in
                      rng.integers(MIN_LENGTH, MAX_LENGTH, size=MOTIF_LEN))
        # (fwd, bwd) mean pairs are pairwise distinct for up to 26 classes
        profiles.append(ClassProfile(
            label=f"c{i}",
            fwd_len_mean=300.0 + (i % 6) * fwd_step,
            bwd_len_mean=250.0 + ((i % 6 + i // 6) % 6) * bwd_step,
            len_std=std,
            mix_delta=110.0,
            iat_mu=-6.5 + (i % 5) * 0.5 * difficulty,
            iat_sigma=0.8,
            fwd_prob=0.45 + 0.02 * (i % 4),
            motif_lengths=motif,
            flow_len_range=flow_len_range,
        ))
    if not all(math.isfinite(v) for p in profiles
               for v in (p.fwd_len_mean, p.bwd_len_mean, p.iat_mu)):
        raise SynthConfigError(f"difficulty {difficulty} overflows the "
                               "class profiles")
    return profiles


def min_pairwise_mean_gap(profiles: list[ClassProfile]) -> float:
    """Smallest L2 distance between class (fwd, bwd) length-mean vectors."""
    return min(math.hypot(a.fwd_len_mean - b.fwd_len_mean,
                          a.bwd_len_mean - b.bwd_len_mean)
               for i, a in enumerate(profiles) for b in profiles[i + 1:])


def _generate_flow(profile: ClassProfile, rng: np.random.Generator) -> tuple:
    lo, hi = profile.flow_len_range
    n = int(rng.integers(lo, hi + 1))

    # class-independent opening phase
    pre = min(PREFIX_LEN, n)
    pre_len = rng.normal(500.0, 150.0, size=pre)
    pre_dir = rng.random(pre) < 0.5
    pre_iat = rng.lognormal(-6.5, 0.8, size=pre)

    body = n - pre
    comp = rng.random(body) < 0.5
    means = np.where(
        rng.random(body) < profile.fwd_prob,
        profile.fwd_len_mean, -profile.bwd_len_mean)
    body_dir = means > 0
    body_len = (np.abs(means)
                + np.where(comp, profile.mix_delta, -profile.mix_delta)
                + rng.normal(0.0, profile.len_std, size=body))
    body_iat = rng.lognormal(profile.iat_mu, profile.iat_sigma, size=body)

    lengths = np.concatenate([pre_len, body_len])
    dirs = np.concatenate([pre_dir, body_dir])
    iats = np.concatenate([pre_iat, body_iat])

    # class-specific motif somewhere past the shared opening
    if n >= PREFIX_LEN + MOTIF_LEN:
        off = int(rng.integers(PREFIX_LEN, n - MOTIF_LEN + 1))
        lengths[off:off + MOTIF_LEN] = profile.motif_lengths
        dirs[off:off + MOTIF_LEN] = (np.arange(MOTIF_LEN) % 2) == 0
        iats[off:off + MOTIF_LEN] = 2e-4

    dirs[0] = True  # first packet defines the forward direction
    lengths = np.clip(np.rint(lengths), MIN_LENGTH, MAX_LENGTH).astype(int)
    iats = np.maximum(iats, 1e-7)
    times = np.concatenate([[0.0], np.cumsum(iats[1:])])
    signed = np.where(dirs, lengths, -lengths)
    return times, signed


def generate(num_classes: int, flows_per_class: int, seed: int,
             difficulty: float = 1.0,
             flow_len_range: tuple[int, int] = DEFAULT_FLOW_LEN_RANGE
             ) -> list[Flow]:
    """Labeled synthetic flows, byte-reproducible for a given argument set."""
    if flows_per_class < 1:
        raise SynthConfigError("flows_per_class must be >= 1")
    if seed < 0:
        raise SynthConfigError(f"seed must be >= 0, got {seed}")
    profiles = make_profiles(num_classes, seed, difficulty, flow_len_range)
    if not min_pairwise_mean_gap(profiles) >= profiles[0].len_std * min(
            1.0, difficulty):
        raise SynthConfigError(f"class length means are not separable at "
                               f"difficulty {difficulty}")
    flows = []
    for c, profile in enumerate(profiles):
        for f in range(flows_per_class):
            times, signed = _generate_flow(profile, _flow_rng(seed, c, f))
            if not np.isfinite(times[-1]):
                raise SynthConfigError(f"difficulty {difficulty} overflows "
                                       "the inter-arrival times")
            five = FiveTuple(f"10.{c}.{f // 250}.{f % 250 + 1}",
                             "192.0.2.1", 40000 + f % 20000, 443, "udp")
            flows.append(Flow(id=f"synth-{profile.label}-{f}",
                              five_tuple=five, times=times, signed=signed,
                              label=profile.label))
    return flows

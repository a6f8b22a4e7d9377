import math

import numpy as np
import pytest

from sampleflow.features import (FEATURE_NAMES, MAX_IAT_SECONDS,
                                 MAX_LENGTH_BYTES, EmptyFlowError,
                                 InconsistentSampleError, input_matrix,
                                 normalize_targets, stat_features)
from sampleflow.flows import FiveTuple, Flow
from sampleflow.sampling import (Fixed, Incremental, Random, augment,
                                 derive_rng)


def make_flow(events, fid="f"):
    return Flow(id=fid,
                five_tuple=FiveTuple("1.1.1.1", "2.2.2.2", 1, 2, "udp"),
                times=[t for t, _ in events], signed=[s for _, s in events])


def rows(window, *copies):
    """Index matrix with one row per copy, padded with -1."""
    idx = np.full((len(copies), window), -1)
    for r, copy in enumerate(copies):
        idx[r, :len(copy)] = copy
    return idx


def brute_force_input(flow, indices, window):
    """Per-copy reference: one slot at a time, from Python scalars."""
    times, signed = flow.times.tolist(), flow.signed.tolist()
    data = np.zeros((2, window))
    prev_t = None
    for k, j in enumerate(indices):
        data[1, k] = min(max(signed[j] / MAX_LENGTH_BYTES, -1.0), 1.0)
        if k > 0:
            data[0, k] = min(times[j] - prev_t, MAX_IAT_SECONDS)
        prev_t = times[j]
    return data


def brute_force_stats(events):
    """Independent oracle: explicit loops, no shared code with the package."""
    def stats4(values):
        if not values:
            return [0.0, 0.0, 0.0, 0.0]
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        return [min(values), max(values), mean, math.sqrt(var)]

    out = []
    for direction in ("fwd", "bwd", "both"):
        lengths, times = [], []
        for t, s in events:
            keep = (s > 0 if direction == "fwd"
                    else s < 0 if direction == "bwd" else True)
            if keep:
                lengths.append(abs(s))
                times.append(t)
        iats = [b - a for a, b in zip(times, times[1:])]
        out.extend(stats4(lengths))
        out.extend(stats4(iats))
    return out


class TestStatFeatures:
    def test_single_packet(self):
        vec = stat_features(make_flow([(0.0, 100)]))
        named = dict(zip(FEATURE_NAMES, vec))
        assert [named[f"f_fwd_len_{s}"] for s in
                ("min", "max", "mean", "std")] == [100, 100, 100, 0]
        assert all(named[n] == 0 for n in FEATURE_NAMES if "iat" in n)
        assert all(named[n] == 0 for n in FEATURE_NAMES if "bwd" in n)
        assert [named[f"f_both_len_{s}"] for s in
                ("min", "max", "mean", "std")] == [100, 100, 100, 0]

    def test_two_packet_hand_arithmetic(self):
        vec = stat_features(make_flow([(0.0, 100), (1.0, -300)]))
        named = dict(zip(FEATURE_NAMES, vec))
        assert [named[f"f_both_len_{s}"] for s in
                ("min", "max", "mean", "std")] == [100, 300, 200, 100]
        assert [named[f"f_both_iat_{s}"] for s in
                ("min", "max", "mean", "std")] == [1, 1, 1, 0]
        # one packet per direction: directional IAT blocks zero
        assert all(named[f"f_{d}_iat_{s}"] == 0
                   for d in ("fwd", "bwd")
                   for s in ("min", "max", "mean", "std"))

    @pytest.mark.parametrize("seed", range(100))
    def test_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        t = 0.0
        events = []
        for i in range(n):
            sign = 1 if (i == 0 or rng.random() < 0.6) else -1
            events.append((t, sign * int(rng.integers(40, 1500))))
            t += float(rng.exponential(0.05))
        # occasionally force single-direction flows
        if seed % 10 == 0:
            events = [(t, abs(s)) for t, s in events]
        got = stat_features(make_flow(events))
        expected = brute_force_stats(events)
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)

    def test_empty_flow_error(self):
        with pytest.raises(EmptyFlowError):
            stat_features(make_flow([], fid="e"))

    def test_direction_counts_consistent(self):
        rng = np.random.default_rng(3)
        events = [(0.01 * i, int(rng.integers(40, 1400)) *
                   (1 if i % 2 == 0 else -1)) for i in range(30)]
        vec = stat_features(make_flow(events))
        named = dict(zip(FEATURE_NAMES, vec))
        assert named["f_both_len_min"] == min(named["f_fwd_len_min"],
                                              named["f_bwd_len_min"])

    def test_length_scaling_property(self):
        events = [(0.0, 100), (0.2, -200), (0.5, 300)]
        base = stat_features(make_flow(events))
        scaled = stat_features(make_flow([(t, s * 3) for t, s in events]))
        for d in range(3):
            np.testing.assert_allclose(scaled[d * 8:d * 8 + 4],
                                       3 * base[d * 8:d * 8 + 4])
            np.testing.assert_allclose(scaled[d * 8 + 4:d * 8 + 8],
                                       base[d * 8 + 4:d * 8 + 8])


class TestNormalizeTargets:
    def test_cap_value_maps_to_one(self):
        vec = np.zeros(24)
        vec[2] = 1434.0  # forward length mean
        out = normalize_targets(vec)
        assert out[2] == 1.0

    def test_zero_fixed_point(self):
        np.testing.assert_array_equal(normalize_targets(np.zeros(24)),
                                      np.zeros(24))

    def test_no_clamping(self):
        vec = np.zeros(24)
        vec[1] = 2868.0
        assert normalize_targets(vec)[1] == 2.0

    def test_iat_untouched(self):
        vec = np.zeros(24)
        vec[4:8] = [0.5, 3.0, 1.5, 0.7]
        np.testing.assert_array_equal(normalize_targets(vec)[4:8],
                                      [0.5, 3.0, 1.5, 0.7])


class TestInputMatrix:
    def test_hand_example(self):
        flow = make_flow([(0.0, 717), (0.5, -1434)])
        m = input_matrix(flow, rows(4, [0, 1]))
        assert m.shape == (1, 2, 4)
        np.testing.assert_allclose(m[0, 1], [0.5, -1.0, 0, 0])
        np.testing.assert_allclose(m[0, 0], [0, 0.5, 0, 0])

    def test_iat_clamped_at_one_second(self):
        flow = make_flow([(0.0, 100), (3.2, 200)])
        m = input_matrix(flow, rows(3, [0, 1]))
        assert m[0, 0, 1] == 1.0

    def test_length_clamped(self):
        flow = make_flow([(0.0, 5000), (0.1, -5000)])
        m = input_matrix(flow, rows(2, [0, 1]))
        assert m[0, 1, 0] == 1.0
        assert m[0, 1, 1] == -1.0

    def test_empty_indices_all_zero(self):
        flow = make_flow([(0.0, 100)])
        m = input_matrix(flow, rows(5, []))
        np.testing.assert_array_equal(m, np.zeros((1, 2, 5)))

    def test_out_of_range_index(self):
        flow = make_flow([(0.0, 100)])
        with pytest.raises(InconsistentSampleError):
            input_matrix(flow, rows(8, [5]))

    @pytest.mark.parametrize("bad", [[3, 2], [0, 0], [0, -1, 2], [-2]])
    def test_rejects_malformed_rows(self, bad):
        flow = make_flow([(0.1 * i, 100) for i in range(5)])
        with pytest.raises(InconsistentSampleError):
            input_matrix(flow, np.array([bad]))

    def test_ranges_and_padding(self):
        rng = np.random.default_rng(0)
        events = [(0.3 * i, int(rng.integers(40, 3000)) *
                   (1 if rng.random() < 0.5 else -1)) for i in range(50)]
        events[0] = (0.0, 100)
        flow = make_flow(events)
        indices = list(range(0, 50, 3))
        m = input_matrix(flow, rows(45, indices))[0]
        assert np.all(m[1] >= -1) and np.all(m[1] <= 1)
        assert np.all(m[0] >= 0) and np.all(m[0] <= 1)
        assert np.all(m[:, len(indices):] == 0)

    def test_unsampled_packets_irrelevant(self):
        events = [(0.1 * i, 100 + i) for i in range(10)]
        flow_a = make_flow(events)
        events_b = list(events)
        events_b[5] = (0.5, 999)  # index 5 is not sampled
        flow_b = make_flow(events_b)
        idx = rows(5, [0, 2, 4])
        np.testing.assert_array_equal(input_matrix(flow_a, idx),
                                      input_matrix(flow_b, idx))

    @pytest.mark.parametrize("seed", range(12))
    def test_batch_equals_per_copy_reference(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 400))
        times = np.cumsum(gen.exponential(0.3, n)) - 0.1
        times[0] = 0.0
        signed = gen.integers(40, 3000, n) * gen.choice([-1, 1], n)
        flow = make_flow(list(zip(times.tolist(), signed.tolist())))
        window = int(gen.integers(1, 60))
        spec = [Fixed(int(gen.integers(1, 9))), Random(gen.uniform(0.05, 1)),
                Incremental(int(gen.integers(1, 6)), gen.uniform(1, 2),
                            int(gen.integers(1, 9)))][seed % 3]
        idx = augment(flow, spec, window, 30, derive_rng(seed, flow.id))
        got = input_matrix(flow, idx)
        want = np.stack([brute_force_input(flow, row[row >= 0], window)
                         for row in idx])
        np.testing.assert_array_equal(got, want)

import warnings

import numpy as np
import pytest

from sampleflow.synth import (MAX_LENGTH, MIN_LENGTH, MOTIF_LEN, PREFIX_LEN,
                              SynthConfigError, generate, make_profiles,
                              min_pairwise_mean_gap)


@pytest.fixture(scope="module")
def flows():
    return generate(num_classes=4, flows_per_class=5, seed=42,
                    flow_len_range=(250, 400))


class TestGenerate:
    def test_deterministic_byte_identical(self, flows):
        again = generate(num_classes=4, flows_per_class=5, seed=42,
                         flow_len_range=(250, 400))
        assert flows == again

    def test_seed_changes_output(self, flows):
        other = generate(num_classes=4, flows_per_class=5, seed=43,
                         flow_len_range=(250, 400))
        assert flows != other

    def test_counts_and_labels(self, flows):
        assert len(flows) == 20
        labels = {f.label for f in flows}
        assert labels == {"c0", "c1", "c2", "c3"}
        ids = {f.id for f in flows}
        assert len(ids) == 20

    def test_flow_lengths_in_range(self, flows):
        assert all(250 <= len(f.packets) <= 400 for f in flows)

    def test_times_start_at_zero_and_strictly_increase(self, flows):
        for f in flows:
            times = [p.rel_time for p in f.packets]
            assert times[0] == 0.0
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_first_packet_forward(self, flows):
        assert all(f.packets[0].signed_length > 0 for f in flows)

    def test_lengths_clamped(self, flows):
        for f in flows:
            for p in f.packets:
                assert MIN_LENGTH <= abs(p.signed_length) <= MAX_LENGTH

    def test_both_directions_present(self, flows):
        for f in flows:
            signs = {p.signed_length > 0 for p in f.packets}
            assert signs == {True, False}

    def test_shared_prefix_carries_no_class_signal(self):
        # mean prefix length is statistically identical across classes
        many = generate(num_classes=2, flows_per_class=30, seed=7,
                        flow_len_range=(PREFIX_LEN + MOTIF_LEN + 10, 300))
        means = {}
        for label in ("c0", "c1"):
            vals = [abs(p.signed_length)
                    for f in many if f.label == label
                    for p in f.packets[:PREFIX_LEN]]
            means[label] = np.mean(vals)
        assert abs(means["c0"] - means["c1"]) < 15.0

    def test_body_separates_classes(self):
        many = generate(num_classes=2, flows_per_class=30, seed=7,
                        flow_len_range=(500, 700))
        means = {}
        for label in ("c0", "c1"):
            vals = [abs(p.signed_length)
                    for f in many if f.label == label
                    for p in f.packets[PREFIX_LEN:]]
            means[label] = np.mean(vals)
        assert abs(means["c0"] - means["c1"]) > 50.0


class TestProfiles:
    def test_pairwise_distinct_mean_pairs(self):
        profiles = make_profiles(26, seed=0)
        pairs = {(p.fwd_len_mean, p.bwd_len_mean) for p in profiles}
        assert len(pairs) == 26
        assert min_pairwise_mean_gap(profiles) >= 60.0

    def test_difficulty_scales_gap(self):
        easy = min_pairwise_mean_gap(make_profiles(6, 0, difficulty=1.0))
        hard = min_pairwise_mean_gap(make_profiles(6, 0, difficulty=0.5))
        assert hard < easy

    def test_gap_finite_for_finite_means(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap = min_pairwise_mean_gap(make_profiles(26, 0, difficulty=1e305))
        assert gap == pytest.approx(150e305)

    @pytest.mark.parametrize("difficulty", [1e300, 1e306, 1e308])
    def test_huge_difficulty_is_config_error(self, difficulty):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SynthConfigError, match="difficulty"):
                generate(3, 1, seed=1, difficulty=difficulty)

    def test_validation(self):
        with pytest.raises(SynthConfigError):
            make_profiles(1, seed=0)
        with pytest.raises(SynthConfigError):
            make_profiles(27, seed=0)
        with pytest.raises(SynthConfigError):
            make_profiles(3, seed=0, flow_len_range=(50, 200))
        with pytest.raises(SynthConfigError):
            make_profiles(3, seed=0, difficulty=0.0)
        with pytest.raises(SynthConfigError):
            generate(3, 0, seed=0)

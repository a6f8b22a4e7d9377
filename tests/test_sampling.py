import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampleflow.flows import FiveTuple, Flow
from sampleflow.sampling import (_RANDOM_BLOCK, MAX_SAMPLED_INDICES, Fixed,
                                 Incremental, InvalidStartError, Random,
                                 SampleSizeError, _random_rows, augment,
                                 derive_rng, sample_indices, spec_from_dict,
                                 spec_to_dict)


def rng(seed=0):
    return np.random.default_rng(seed)


def make_flow(n, fid="f", label=None):
    signed = [100 if i % 3 or i == 0 else -200 for i in range(n)]
    return Flow(id=fid, five_tuple=FiveTuple("1.1.1.1", "2.2.2.2", 1, 2,
                                             "udp"),
                times=[0.01 * i for i in range(n)], signed=signed,
                label=label)


def valid(row):
    return [int(i) for i in row if i >= 0]


def simulate(spec, start, flow_len, window, seed=None, gen=None):
    """Independent re-implementation of each sampling definition.

    Random draws from gen, or from a new generator seeded with seed.
    flow_len may be math.inf, for the whole row of an unbounded flow."""
    if isinstance(spec, Fixed):
        out = []
        i = start
        while i < flow_len and len(out) < window:
            out.append(i)
            i += spec.step
        return out
    if isinstance(spec, Random):
        gen = np.random.default_rng(seed) if gen is None else gen
        out = []
        i = start
        while i < flow_len and len(out) < window:
            if gen.random() < spec.probability:
                out.append(i)
            i += 1
        return out
    out = []
    step = float(spec.initial_step)
    pos = float(start)
    since_growth = 0
    while len(out) < window:
        idx = math.floor(pos + 0.5)
        if idx >= flow_len:
            break
        out.append(idx)
        since_growth += 1
        if since_growth == spec.stage_len:
            step *= spec.growth
            since_growth = 0
        pos += step
    return out


def oracle_span(spec, window):
    """Packets a full fixed or incremental window consumes from its start."""
    return simulate(spec, 0, math.inf, window)[-1] + 1


class TestSampleIndices:
    def test_fixed_step_22(self):
        idx = sample_indices(Fixed(22), 0, 2000, 45)
        assert idx == list(range(0, 45 * 22, 22))
        assert len(idx) == 45 and idx[-1] == 968
        assert all(b - a == 22 for a, b in zip(idx, idx[1:]))

    def test_incremental_hand_simulated(self):
        # 3 samples at step 2, then step 4 for three, then step 8
        idx = sample_indices(Incremental(2, 2.0, 3), 0, 100, 7)
        assert idx == [0, 2, 4, 8, 12, 16, 24]

    def test_random_p1_degenerates_to_prefix(self):
        idx = sample_indices(Random(1.0), 0, 100, 45, rng())
        assert idx == list(range(45))

    def test_invalid_start(self):
        with pytest.raises(InvalidStartError):
            sample_indices(Fixed(1), 100, 100, 45)

    def test_short_flow_partial_window(self):
        assert sample_indices(Fixed(10), 0, 25, 45) == [0, 10, 20]

    @pytest.mark.parametrize("case", range(200))
    def test_matches_independent_simulation(self, case):
        gen = rng(1000 + case)
        flow_len = int(gen.integers(1, 3000))
        start = int(gen.integers(0, flow_len))
        window = int(gen.integers(1, 80))
        kind = case % 3
        if kind == 0:
            spec = Fixed(int(gen.integers(1, 40)))
            assert sample_indices(spec, start, flow_len, window) == \
                simulate(spec, start, flow_len, window)
        elif kind == 1:
            spec = Incremental(int(gen.integers(1, 30)),
                               float(gen.uniform(1.0, 2.5)),
                               int(gen.integers(1, 15)))
            assert sample_indices(spec, start, flow_len, window) == \
                simulate(spec, start, flow_len, window)
        else:
            spec = Random(float(gen.uniform(0.01, 1.0)))
            got_gen, want_gen = rng(case), rng(case)
            got = sample_indices(spec, start, flow_len, window, got_gen)
            assert got == simulate(spec, start, flow_len, window,
                                   gen=want_gen)
            assert got_gen.bit_generator.state == \
                want_gen.bit_generator.state

    @given(st.integers(1, 30), st.integers(1, 12), st.integers(0, 50),
           st.integers(1, 60), st.integers(51, 2000))
    @settings(max_examples=200, deadline=None)
    def test_incremental_alpha1_equals_fixed(self, l0, beta, start, window,
                                             flow_len):
        fixed = sample_indices(Fixed(l0), start, flow_len, window)
        inc = sample_indices(Incremental(l0, 1.0, beta), start, flow_len,
                             window)
        assert fixed == inc

    @given(st.integers(0, 40), st.integers(41, 500), st.integers(1, 60),
           st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_random_p1_equals_fixed_l1(self, start, flow_len, window, seed):
        assert sample_indices(Random(1.0), start, flow_len, window,
                              np.random.default_rng(seed)) == \
            sample_indices(Fixed(1), start, flow_len, window)

    @given(st.integers(0, 100), st.integers(101, 2000), st.integers(1, 60),
           st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_and_bounded(self, start, flow_len, window,
                                             seed):
        gen = np.random.default_rng(seed)
        spec_choice = seed % 3
        spec = [Fixed(1 + seed % 25),
                Random(0.05 + (seed % 19) / 20),
                Incremental(1 + seed % 10, 1.0 + (seed % 7) / 4,
                            1 + seed % 8)][spec_choice]
        idx = sample_indices(spec, start, flow_len, window, gen)
        assert all(b > a for a, b in zip(idx, idx[1:]))
        assert all(0 <= i < flow_len for i in idx)
        assert len(idx) <= window

    def test_deterministic_for_same_seed(self):
        spec = Random(0.3)
        a = sample_indices(spec, 0, 500, 45, np.random.default_rng(7))
        b = sample_indices(spec, 0, 500, 45, np.random.default_rng(7))
        assert a == b

    def test_random_sample_rate_statistics(self):
        # fraction of scanned prefix sampled ~ p within 3 sigma binomial
        p = 0.1
        window = 45
        fractions = []
        gen = rng(5)
        for _ in range(200):
            idx = sample_indices(Random(p), 0, 100_000, window, gen)
            scanned = idx[-1] + 1
            fractions.append(len(idx) / scanned)
        n_scanned = window / p  # expected scan length per draw
        sigma = math.sqrt(p * (1 - p) / n_scanned) / math.sqrt(len(fractions))
        assert abs(np.mean(fractions) - p) < 3 * sigma + 0.01


class TestAugment:
    def test_fixed_offsets_cover_short_tail(self):
        copies = augment(make_flow(46), Fixed(1), window=45, max_copies=100)
        assert copies.shape == (2, 45)
        assert copies[0, 0] == 0
        assert copies[1, 0] == 1

    def test_random_always_max_copies(self):
        copies = augment(make_flow(120), Random(0.5), window=45,
                         max_copies=100, rng=rng())
        assert len(copies) == 100
        assert all(c[0] < 20 for c in copies if c[0] >= 0)

    def test_single_copy(self):
        copies = augment(make_flow(2000), Fixed(22), window=45, max_copies=1)
        assert len(copies) == 1
        assert copies[0, 0] == 0

    @pytest.mark.parametrize("spec", [Fixed(2), Random(0.5),
                                      Incremental(8, 1.2, 10)])
    @pytest.mark.parametrize("window, copies", [
        (45, MAX_SAMPLED_INDICES // 45 + 1), (MAX_SAMPLED_INDICES + 1, 1),
        (10 ** 12, 100)])
    def test_oversized_request_refused(self, spec, window, copies):
        with pytest.raises(SampleSizeError, match="sampled indices"):
            augment(make_flow(100), spec, window=window, max_copies=copies,
                    rng=rng())

    def test_request_at_the_cap_allowed(self):
        # fixed sampling makes as many copies as the flow has room for
        copies = augment(make_flow(100), Fixed(2), window=45,
                         max_copies=MAX_SAMPLED_INDICES // 45)
        assert copies.shape == (12, 45)

    def test_partial_window_when_flow_too_short(self):
        copies = augment(make_flow(100), Fixed(22), window=45, max_copies=100)
        assert len(copies) == 1
        assert valid(copies[0]) == [0, 22, 44, 66, 88]
        assert np.all(copies[0, 5:] == -1)

    def test_copy_count_bounded(self):
        for n in (46, 100, 500, 5000):
            copies = augment(make_flow(n), Fixed(2), window=10, max_copies=30)
            assert 1 <= len(copies) <= 30

    def test_label_inherited(self):
        # copies carry no label of their own: datasets take the flow's label
        flow = make_flow(200, label="web")
        copies = augment(flow, Fixed(4), window=45, max_copies=3)
        assert copies.dtype == np.int64 and copies.shape == (3, 45)
        assert flow.label == "web"

    def test_incremental_offsets_distinct(self):
        flow = make_flow(1500)
        spec = Incremental(8, 1.2, 10)
        copies = augment(flow, spec, window=45, max_copies=100)
        starts = [int(c[0]) for c in copies]
        assert starts == sorted(set(starts))
        span = oracle_span(spec, 45)
        assert all(s + span <= 1500 for s in starts)

    def test_empty_flow_rejected(self):
        with pytest.raises(InvalidStartError):
            augment(make_flow(0), Fixed(1), window=5, max_copies=1)


def scalar_augment(flow_len, spec, window, max_copies, gen):
    """Per-copy reference: the simulate oracle at each start of the
    schedule."""
    if isinstance(spec, Random):
        return [simulate(spec, 0, flow_len, window, gen=gen)
                for _ in range(max_copies)]
    span = oracle_span(spec, window)
    if span > flow_len:
        return [simulate(spec, 0, flow_len, window)]
    delta = max(1, (flow_len - span) // max_copies)
    return [simulate(spec, start, flow_len, window)
            for start in range(0, flow_len - span + 1, delta)][:max_copies]


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(["fixed", "random", "incremental"]))
    if kind == "fixed":
        return Fixed(draw(st.integers(1, 40)))
    if kind == "random":
        return Random(draw(st.floats(0.01, 1.0)))
    return Incremental(draw(st.integers(1, 30)), draw(st.floats(1.0, 2.5)),
                       draw(st.integers(1, 15)))


class TestAugmentMatchesSampleIndices:
    @given(specs(), st.integers(1, 1500), st.integers(1, 60),
           st.integers(1, 120), st.integers(0, 2 ** 32))
    @settings(max_examples=300, deadline=None)
    def test_rows_and_rng_state(self, spec, flow_len, window, max_copies,
                                seed):
        gen_batch = np.random.default_rng(seed)
        gen_scalar = np.random.default_rng(seed)
        got = augment(make_flow(flow_len), spec, window, max_copies,
                      gen_batch)
        want = scalar_augment(flow_len, spec, window, max_copies, gen_scalar)
        assert got.shape == (len(want), window)
        assert [valid(row) for row in got] == want
        assert np.all((got >= 0) | (got == -1))
        assert gen_batch.bit_generator.state == gen_scalar.bit_generator.state

    @pytest.mark.parametrize("spec", [Fixed(30), Incremental(8, 1.2, 10)])
    def test_short_flow_single_partial_row(self, spec):
        flow_len = oracle_span(spec, 45) - 1
        got = augment(make_flow(flow_len), spec, 45, 100)
        assert [valid(row) for row in got] == \
            [simulate(spec, 0, flow_len, 45)]

    @pytest.mark.parametrize("step", [2 ** 62, 2 ** 63, 10 ** 20])
    def test_step_beyond_int64(self, step):
        got = augment(make_flow(50), Fixed(step), 45, 100)
        assert [valid(row) for row in got] == [[0]]

    @pytest.mark.parametrize("l0", [2 ** 62, 10 ** 20, 10 ** 400],
                             ids=["2**62", "10**20", "10**400"])
    def test_incremental_step_beyond_flow(self, l0):
        # the first step leaves the flow, so no full window fits: one
        # partial copy, as for a fixed step (l0 = 10**400 is past the
        # float range)
        spec = Incremental(l0, 1.5, 2)
        got = augment(make_flow(50), spec, 45, 100)
        assert got.dtype == np.int64
        assert got.tolist() == [[0] + [-1] * 44]
        assert sample_indices(spec, 7, 50, 45) == [7]

    def test_incremental_growth_past_float_range(self):
        # the step after the first stage overflows to inf
        spec = Incremental(10 ** 15, 1e300, 2)
        assert augment(make_flow(50), spec, 5, 10).tolist() == \
            [[0, -1, -1, -1, -1]]
        assert sample_indices(spec, 3, 50, 5) == [3]

    def test_random_block_grows(self):
        # more draws than the first block holds: the copies still follow
        # the scalar stream, and the generator ends where it would
        gen_batch, gen_scalar = rng(3), rng(3)
        got = augment(make_flow(5000), Random(0.002), 45, 30, gen_batch)
        want = scalar_augment(5000, Random(0.002), 45, 30, gen_scalar)
        assert [valid(row) for row in got] == want
        assert gen_batch.bit_generator.state == gen_scalar.bit_generator.state


def check_random_rows(p, start, flow_len, window, copies, seed):
    """_random_rows against the per-copy oracle: rows, dtype and the
    generator's end state. Returns the oracle's rows."""
    got_gen, want_gen = rng(seed), rng(seed)
    got = _random_rows(Random(p), start, flow_len, window, copies, got_gen)
    want = [simulate(Random(p), start, flow_len, window, gen=want_gen)
            for _ in range(copies)]
    assert got.dtype == np.int64 and got.shape == (copies, window)
    assert [valid(row) for row in got] == want
    assert np.all(got[got < start] == -1)
    assert got_gen.bit_generator.state == want_gen.bit_generator.state
    return want


def draws_used(rows, start, flow_len, window):
    """Draws the oracle's copies scan: to the last hit of a full copy, to
    the flow's end otherwise."""
    return sum(row[-1] + 1 - start if len(row) == window
               else flow_len - start for row in rows)


class TestRandomRows:
    def test_p1_takes_the_prefix_each_copy(self):
        want = check_random_rows(1.0, 0, 100, 45, 7, seed=1)
        assert want == [list(range(45))] * 7

    @pytest.mark.parametrize("p", [0.3, 1.0])
    def test_flow_shorter_than_window(self, p):
        want = check_random_rows(p, 0, 20, 45, 50, seed=3)
        assert all(len(row) < 45 for row in want)

    @pytest.mark.parametrize("start", [1, 37, 199])
    def test_start_past_zero(self, start):
        want = check_random_rows(0.2, start, 200, 10, 40, seed=start)
        assert all(row[0] >= start for row in want if row)

    def test_draws_grow_under_full_copies(self):
        # the block doubles twice, each time within a run of full copies
        start, flow_len, window, copies = 0, 2000, 45, 200
        want = check_random_rows(0.05, start, flow_len, window, copies,
                                 seed=4)
        assert all(len(row) == window for row in want)
        assert draws_used(want, start, flow_len, window) > 2 * _RANDOM_BLOCK

    def test_draws_grow_past_the_expected_scan(self):
        # one one-hit copy at p = 0.5 first draws 10 uniforms (2 expected,
        # four standard deviations more); about one seed in 1024 scans
        # past them
        grown = 0
        for seed in range(4000):
            want = check_random_rows(0.5, 0, 100, 1, 1, seed)
            grown += draws_used(want, 0, 100, 1) > 10
        assert grown

    def test_partial_copy_between_full_ones(self):
        window = 10
        want = check_random_rows(0.1, 5, 105, window, 200, seed=5)
        assert any(len(want[i]) < window
                   and len(want[i - 1]) == len(want[i + 1]) == window
                   for i in range(1, len(want) - 1))

    @pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
    def test_window_one(self, p):
        want = check_random_rows(p, 2, 60, 1, 300, seed=6)
        assert all(len(row) <= 1 for row in want)

    @given(st.data(), st.one_of(st.just(1.0), st.floats(0.005, 1.0)),
           st.integers(1, 400), st.integers(1, 50), st.integers(1, 150),
           st.integers(0, 2 ** 32))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_copy_oracle(self, data, p, flow_len, window,
                                     copies, seed):
        start = data.draw(st.integers(0, flow_len - 1))
        check_random_rows(p, start, flow_len, window, copies, seed)


class TestSpecSerialization:
    @pytest.mark.parametrize("spec", [Fixed(22), Random(1 / 22),
                                      Incremental(22, 1.6, 10)])
    def test_roundtrip(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Fixed(0)
        with pytest.raises(ValueError):
            Random(0.0)
        with pytest.raises(ValueError):
            Incremental(1, 0.9, 1)


def test_derive_rng_stable_and_distinct():
    a = derive_rng(1, "flow-a").random(3)
    b = derive_rng(1, "flow-a").random(3)
    c = derive_rng(1, "flow-b").random(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

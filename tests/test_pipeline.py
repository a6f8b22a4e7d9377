import hashlib
import json
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampleflow import pipeline
from sampleflow.features import (input_matrix, normalize_targets,
                                 stat_features)
from sampleflow.flows import FiveTuple, Flow
from sampleflow.neural import (Adam, BatchNorm1d, Conv1d, Dense, Network,
                               build_classifier, build_regressor, init_params,
                               load_checkpoint, mse_loss, save_checkpoint,
                               transfer_trunk)
from sampleflow.neural.worker import WORKER
from sampleflow.pipeline import (INFER_BATCH, ConfigError, CoverageError,
                                 DatasetSizeError, EmptyDatasetError,
                                 KnnClassifier, LabelError,
                                 NonFiniteLossError, NonFiniteOutputError,
                                 TrainConfig, _forward_batches,
                                 _predict_batched, _sampled_copies,
                                 _train_network,
                                 build_classification_dataset,
                                 build_regression_dataset,
                                 confusion_matrix, confusion_metrics,
                                 evaluate, flow_stat_vectors, knn_baseline,
                                 pretrain, retrain, split_per_class,
                                 train_supervised_baseline)
from sampleflow.sampling import (Fixed, Incremental, Random,
                                 SampleSizeError, augment, derive_rng)
from sampleflow.synth import generate
from tests.test_neural import network_arrays, trunk_bytes
from tests.test_overlap import InjectedFault, assert_idle, two_cpus


def make_flow(fid, n=60, label="a", seed=0):
    rng = np.random.default_rng(seed)
    t = 0.0
    times, signed = [0.0], [100]
    for _ in range(n - 1):
        t += float(rng.exponential(0.01))
        times.append(t)
        signed.append(int(rng.integers(40, 1434)) *
                      (1 if rng.random() < 0.5 else -1))
    return Flow(id=fid, five_tuple=FiveTuple("1.1.1.1", "2.2.2.2", 1, 2,
                                             "udp"),
                times=times, signed=signed, label=label)


def tiny_config(**kw):
    base = dict(sampling=Fixed(1), seed=7, window=10, copies=2,
                pretrain_epochs=2, retrain_epochs=2, batch_size=8)
    base.update(kw)
    return TrainConfig(**base)


class TestConfusionMetrics:
    def test_hand_example(self):
        # rows = true class, cols = predicted; recalls 5/6, 4/6, 7/8
        cm = np.array([[5, 1, 0],
                       [0, 4, 2],
                       [1, 0, 7]])
        macro, per_class = confusion_metrics(cm, ["a", "b", "c"])
        assert per_class["a"]["recall"] == pytest.approx(5 / 6)
        assert per_class["b"]["recall"] == pytest.approx(4 / 6)
        assert per_class["c"]["recall"] == pytest.approx(7 / 8)
        assert macro == pytest.approx((5 / 6 + 4 / 6 + 7 / 8) / 3)
        # one-vs-rest accuracy for "a": tp=5, fn=1, fp=1, tn=13 over 20
        assert per_class["a"]["accuracy"] == pytest.approx(18 / 20)
        assert per_class["a"]["precision"] == pytest.approx(5 / 6)
        assert per_class["a"]["f1"] == pytest.approx(5 / 6)
        assert all(info["zero_division"] == [] for info in per_class.values())

    def test_counts_match_loop(self):
        rng = np.random.default_rng(8)
        true, pred = rng.integers(0, 4, 200), rng.integers(0, 4, 200)
        expected = np.zeros((4, 4), dtype=int)
        for t, p in zip(true.tolist(), pred.tolist()):
            expected[t, p] += 1
        np.testing.assert_array_equal(confusion_matrix(true, pred, 4),
                                      expected)

    def test_perfect_predictor(self):
        macro, per_class = confusion_metrics(np.diag([3, 9, 1]),
                                             ["x", "y", "z"])
        assert macro == 1.0
        assert all(info["recall"] == 1.0 and info["precision"] == 1.0
                   for info in per_class.values())

    def test_constant_predictor(self):
        # everything predicted as the first class
        cm = np.array([[4, 0], [6, 0]])
        macro, per_class = confusion_metrics(cm, ["a", "b"])
        assert per_class["a"]["recall"] == 1.0
        assert per_class["b"]["recall"] == 0.0
        assert macro == pytest.approx(0.5)
        # class b never predicted: precision (and hence f1) are 0/0
        assert "precision" in per_class["b"]["zero_division"]
        assert "f1" in per_class["b"]["zero_division"]
        assert per_class["b"]["precision"] == 0.0

    def test_empty_true_class_flagged(self):
        cm = np.array([[3, 0], [0, 0]])
        macro, per_class = confusion_metrics(cm, ["a", "b"])
        assert "recall" in per_class["b"]["zero_division"]
        assert per_class["b"]["recall"] == 0.0
        assert macro == pytest.approx(0.5)


class TestSplitPerClass:
    def flows(self):
        out = []
        for cls, count in (("a", 8), ("b", 5), ("c", 12)):
            out += [make_flow(f"{cls}{i}", n=20, label=cls, seed=i)
                    for i in range(count)]
        return out

    def test_sizes(self):
        labeled, rest = split_per_class(self.flows(), 3, seed=0)
        counts = {}
        for f in labeled:
            counts[f.label] = counts.get(f.label, 0) + 1
        assert counts == {"a": 3, "b": 3, "c": 3}
        assert len(labeled) + len(rest) == 25

    def test_n_zero(self):
        labeled, rest = split_per_class(self.flows(), 0, seed=0)
        assert labeled == []
        assert len(rest) == 25

    def test_n_size_minus_one(self):
        labeled, rest = split_per_class(self.flows(), 4, seed=1)
        assert sum(1 for f in rest if f.label == "b") == 1

    def test_class_exhaustion_error(self):
        with pytest.raises(CoverageError):
            split_per_class(self.flows(), 5, seed=0)  # class "b" has 5

    def test_disjoint_and_conserving(self):
        flows = self.flows()
        labeled, rest = split_per_class(flows, 2, seed=3)
        ids = [f.id for f in labeled] + [f.id for f in rest]
        assert sorted(ids) == sorted(f.id for f in flows)

    def test_seeds_cover_population(self):
        flows = self.flows()
        seen = set()
        for seed in range(10):
            labeled, _ = split_per_class(flows, 2, seed=seed)
            seen |= {f.id for f in labeled if f.label == "a"}
        assert len(seen) >= 6  # different seeds pick different flows

    def test_deterministic(self):
        a, _ = split_per_class(self.flows(), 2, seed=5)
        b, _ = split_per_class(self.flows(), 2, seed=5)
        assert [f.id for f in a] == [f.id for f in b]

    def test_shared_id_not_merged(self):
        flows = self.flows()
        flows[1].id = flows[0].id  # two flows of class "a", one id
        for seed in range(10):
            labeled, rest = split_per_class(flows, 2, seed=seed)
            assert [f.label for f in labeled].count("a") == 2
            assert len(labeled) == 6 and len(rest) == 19
            assert {id(f) for f in labeled}.isdisjoint(id(f) for f in rest)

    def test_unlabeled_rejected(self):
        flows = self.flows() + [make_flow("x", label=None)]
        with pytest.raises(LabelError):
            split_per_class(flows, 2, seed=0)


class TestKnn:
    def test_k1_memorizes(self):
        stats = [(np.array([0.0, 0.0]), "a"),
                 (np.array([1.0, 0.0]), "b"),
                 (np.array([0.0, 1.0]), "c")]
        knn = KnnClassifier(stats, k=1)
        assert knn.predict(np.stack([v for v, _ in stats])) == ["a", "b", "c"]

    def test_majority_vote(self):
        stats = [(np.array([0.0]), "a"), (np.array([0.1]), "a"),
                 (np.array([10.0]), "b")]
        assert KnnClassifier(stats, k=3).predict(np.array([[0.05]])) == ["a"]

    def test_vote_tie_goes_to_nearest(self):
        stats = [(np.array([0.0]), "x"), (np.array([2.0]), "y")]
        # query 0.9: both within k=2, one vote each; nearest is "x"
        assert KnnClassifier(stats, k=2).predict(np.array([[0.9]])) == ["x"]

    def test_vote_tie_outside_nearest_class(self):
        # k=5: "a" once, "b" and "c" twice each; the tie between b and c
        # goes to the nearest neighbor's class, "a", though a is not tied
        stats = [(np.array([x]), lab) for x, lab in
                 ((0.0, "a"), (1.0, "b"), (1.1, "b"), (1.2, "c"), (1.3, "c"))]
        assert KnnClassifier(stats, k=5).predict(np.array([[0.0]])) == ["a"]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matrix_matches_per_row_rule(self, data):
        # small integer grids give many distance and vote ties
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(0, 8))
        grid = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
        x = np.array(data.draw(st.lists(grid, min_size=n, max_size=n)),
                     dtype=float)
        q = np.array(data.draw(st.lists(grid, min_size=m, max_size=m)),
                     dtype=float).reshape(m, 2)
        labels = data.draw(st.lists(st.sampled_from("abc"), min_size=n,
                                    max_size=n))
        k = data.draw(st.integers(1, 14))
        knn = KnnClassifier(list(zip(x, labels)), k=k)
        expected = []
        for vec in q:
            d = np.linalg.norm(x - vec, axis=1)
            top = [labels[i] for i in np.argsort(d, kind="stable")[:k]]
            counts = {c: top.count(c) for c in top}
            best = [c for c, v in counts.items() if v == max(counts.values())]
            expected.append(best[0] if len(best) == 1 else top[0])
        assert knn.predict(q) == expected

    def test_rejects_single_vector(self):
        knn = KnnClassifier([(np.zeros(2), "a")], k=1)
        with pytest.raises(ValueError):
            knn.predict(np.zeros(2))

    def test_distance_tie_stable(self):
        stats = [(np.array([0.0]), "p"), (np.array([2.0]), "q")]
        # exactly equidistant: stable sort keeps insertion order
        assert KnnClassifier(stats, k=1).predict(np.array([[1.0]])) == ["p"]

    def test_k_clamped_to_population(self):
        stats = [(np.array([float(i)]), "a" if i else "b") for i in range(3)]
        assert KnnClassifier(stats, k=50).predict(np.array([[2.0]])) == ["a"]

    def test_leave_in_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (60, 5))
        y = rng.integers(0, 3, 60)
        X[y == 1] += 2.0
        X[y == 2] -= 2.0
        labels = [f"c{c}" for c in y]
        knn = KnnClassifier(list(zip(X, labels)), k=5)
        preds = knn.predict(X[:20])

        for i in range(20):
            d = [(float(np.sqrt(np.sum((X[j] - X[i]) ** 2))), j)
                 for j in range(60)]
            d.sort(key=lambda p: (p[0], p[1]))
            top = [labels[j] for _, j in d[:5]]
            counts = {}
            for c in top:
                counts[c] = counts.get(c, 0) + 1
            best = max(counts.values())
            winners = {c for c, n in counts.items() if n == best}
            expected = winners.pop() if len(winners) == 1 else top[0]
            assert preds[i] == expected, i

    def test_validation(self):
        with pytest.raises(ValueError):
            KnnClassifier([(np.zeros(2), "a")], k=0)
        with pytest.raises(EmptyDatasetError):
            knn_baseline([], k=3)


class _StubModel:
    """Deterministic classifier stub exposing the Network inference API."""

    def __init__(self, classes, rule):
        self.meta = {"classes": list(classes)}
        self._rule = rule

    def fold_batch_norm(self):
        return self

    def forward(self, x):
        logits = np.zeros((x.shape[0], len(self.meta["classes"])))
        for i in range(x.shape[0]):
            logits[i, self._rule()] = 10.0
        return logits


class TestClassifyEvaluate:
    def dataset(self):
        flows = [make_flow(f"f{i}", n=40, label=str(i % 3), seed=i)
                 for i in range(12)]
        return flows, tiny_config(copies=3), ["0", "1", "2"]

    def test_perfect_stub(self):
        flows, cfg, classes = self.dataset()
        # feed the true per-copy labels back in dataset order
        _, y, _ = build_classification_dataset(flows, classes, cfg)
        answers = iter(int(t) for t in y)
        model = _StubModel(classes, lambda: next(answers))
        report = evaluate(model, flows, classes, cfg)
        assert report.macro_accuracy == 1.0
        assert report.flow_majority_accuracy == 1.0
        assert report.n_flows == 12
        cm = np.asarray(report.confusion)
        assert cm.sum() == len(y) == report.n_sampled
        np.testing.assert_array_equal(cm, np.diag(cm.diagonal()))

    def test_shared_id_not_merged(self):
        flows, cfg, classes = self.dataset()
        flows[1].id = flows[0].id  # flows of classes "1" and "0", one id
        _, y, _ = build_classification_dataset(flows, classes, cfg)
        answers = iter(int(t) for t in y)
        model = _StubModel(classes, lambda: next(answers))
        report = evaluate(model, flows, classes, cfg)
        assert report.n_flows == 12
        assert report.flow_majority_accuracy == 1.0

    def test_constant_stub(self):
        flows, cfg, classes = self.dataset()
        model = _StubModel(classes, lambda: 0)
        report = evaluate(model, flows, classes, cfg)
        assert report.per_class["0"]["recall"] == 1.0
        assert report.per_class["1"]["recall"] == 0.0
        assert report.macro_accuracy == pytest.approx(1 / 3)

    def test_flow_vote_tie_lowest_index(self):
        # one flow, two copies, one vote each: the flow's vote is class "0"
        for answers in ([1, 0], [0, 1]):
            for label, right in (("0", 1.0), ("1", 0.0)):
                flow = make_flow("g", n=40, label=label, seed=9)
                flip = iter(answers)
                model = _StubModel(["0", "1"], lambda: next(flip))
                report = evaluate(model, [flow], ["0", "1"],
                                  tiny_config(copies=2))
                assert report.n_sampled == 2
                assert report.flow_majority_accuracy == right

    def test_unknown_label_rejected(self):
        flows, cfg, classes = self.dataset()
        flows[0].label = "zz"
        model = _StubModel(classes, lambda: 0)
        with pytest.raises(LabelError):
            evaluate(model, flows, classes, cfg)

    def test_report_roundtrips_through_json(self):
        flows, cfg, classes = self.dataset()
        model = _StubModel(classes, lambda: 0)
        report = evaluate(model, flows, classes, cfg)
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


class TestDatasets:
    def test_regression_targets_match_stat_vectors(self):
        flows = [make_flow("r0", n=50, seed=1)]
        cfg = tiny_config(copies=4)
        X, y = build_regression_dataset(flows, cfg)
        assert X.shape[1:] == (2, cfg.window)
        assert y.shape[1] == 24
        expected = normalize_targets(stat_features(flows[0]))
        for row in y:
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_classification_ids_cover_flows(self):
        flows = [make_flow("c0", n=50, label="a", seed=1),
                 make_flow("c1", n=50, label="b", seed=2)]
        cfg = tiny_config(copies=3)
        _, y, pos = build_classification_dataset(flows, ["a", "b"], cfg)
        assert pos.dtype == np.int64
        assert set(pos.tolist()) == {0, 1}
        for p, cls in zip(pos, y):
            assert cls == (0 if p == 0 else 1)

    def test_deterministic_given_seed(self):
        flows = [make_flow("d0", n=80, seed=4)]
        cfg = tiny_config(sampling=Fixed(2), copies=5)
        Xa, _ = build_regression_dataset(flows, cfg)
        Xb, _ = build_regression_dataset(flows, cfg)
        np.testing.assert_array_equal(Xa, Xb)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDatasetError):
            build_regression_dataset([], tiny_config())

    def test_labels_checked_before_sampling(self, monkeypatch):
        def never(*args):
            raise AssertionError("a flow was sampled")

        monkeypatch.setattr(pipeline, "augment", never)
        flows = [make_flow("l0", label="a", seed=1),
                 make_flow("l1", label="zz", seed=2)]
        with pytest.raises(LabelError, match="l1"):
            build_classification_dataset(flows, ["a"], tiny_config())

    def test_unallocatable_dataset_is_named(self, monkeypatch):
        # 2**40 copies of window 45 ask for 720 TiB of inputs
        def huge(flow, spec, window, copies, rng):
            return np.broadcast_to(np.arange(window), (2 ** 40, window))

        monkeypatch.setattr(pipeline, "augment", huge)
        cfg = tiny_config(window=45)
        with pytest.raises(DatasetSizeError,
                           match=r"1099511627776 sampled copies of window 45 "
                                 r"need 737280\.0 GiB"):
            build_regression_dataset([make_flow("big")], cfg)


def concatenated_build(flows, cfg):
    """The per-flow list-and-concatenate build that _sampled_copies
    replaced: the reference its inputs and flow positions must equal."""
    xs = [input_matrix(f, augment(f, cfg.sampling, cfg.window, cfg.copies,
                                  derive_rng(cfg.seed, f.id)))
          for f in flows]
    return (np.concatenate(xs),
            np.repeat(np.arange(len(xs), dtype=np.int64),
                      [len(x) for x in xs]))


class TestSampledCopies:
    @pytest.mark.parametrize("sampling", [
        Fixed(2), Random(0.3), Incremental(2, 1.2, 3)],
        ids=["fixed", "random", "incremental"])
    def test_bit_equal_to_concatenated_build(self, sampling):
        flows = [make_flow("s0", n=70, seed=1),
                 make_flow("short", n=4, seed=2),  # shorter than a window
                 make_flow("s2", n=90, seed=3),
                 make_flow("s0", n=50, seed=4)]  # shares the first's id
        cfg = tiny_config(sampling=sampling, copies=6)
        x, flow_of = _sampled_copies(flows, cfg)
        want_x, want_flow_of = concatenated_build(flows, cfg)
        assert x.dtype == np.float64 and flow_of.dtype == np.int64
        assert x.shape == want_x.shape
        assert x.tobytes() == want_x.tobytes()
        assert flow_of.tobytes() == want_flow_of.tobytes()
        assert set(flow_of.tolist()) == {0, 1, 2, 3}
        if not isinstance(sampling, Random):
            assert (flow_of == 1).sum() == 1  # one partial copy

    @pytest.mark.parametrize("sampling", [Fixed(2), Incremental(2, 1.2, 3)],
                             ids=["fixed", "incremental"])
    def test_generator_derived_only_for_random(self, sampling, monkeypatch):
        # fixed and incremental sampling draw nothing, so deriving a flow's
        # generator (a SHA-256 and a new Generator) would be wasted
        flows = [make_flow("g0", n=70, seed=1), make_flow("g1", n=90, seed=2)]
        cfg = tiny_config(sampling=sampling, copies=6)
        want_x, want_flow_of = concatenated_build(flows, cfg)

        def refuse(seed, flow_id):
            raise AssertionError("derive_rng called")

        monkeypatch.setattr(pipeline, "derive_rng", refuse)
        x, flow_of = _sampled_copies(flows, cfg)
        assert x.tobytes() == want_x.tobytes()
        assert flow_of.tobytes() == want_flow_of.tobytes()

    def test_peak_memory_near_returned_bytes(self):
        # the build holds its inputs once, not once in a list and once
        # concatenated (about 1.8x the returned bytes at window 45)
        flows = [make_flow(f"m{i}", n=100, seed=i) for i in range(150)]
        cfg = tiny_config(window=45, copies=20)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            x, y = build_regression_dataset(flows, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(x) == 150 * 20
        assert peak <= 1.5 * (x.nbytes + y.nbytes)


def param_checksum(net):
    h = hashlib.sha256()
    for p in net.params():
        h.update(p.value.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return generate(num_classes=3, flows_per_class=8, seed=99,
                    flow_len_range=(100, 140))


class TestTrainingPipeline:
    def classes(self, flows):
        return sorted({f.label for f in flows})

    def test_pretrain_deterministic(self, corpus):
        cfg = tiny_config(copies=2, pretrain_epochs=2, window=12)
        a, _ = pretrain(corpus, cfg)
        b, _ = pretrain(corpus, cfg)
        assert param_checksum(a) == param_checksum(b)
        assert a.meta["train_config"]["seed"] == cfg.seed

    def test_nan_target_stops_training(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 2, 12))
        y = rng.standard_normal((16, 24))
        y[5, 3] = np.nan
        net = init_params(build_regressor(12), 0)
        with pytest.raises(NonFiniteLossError, match="epoch 1/3, batch 1"):
            _train_network(net, x, y, mse_loss, 3,
                           tiny_config(window=12, batch_size=16),
                           shuffle_seed=0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_copies_rejected(self, n):
        # batch norm skips a one-copy batch, so nothing would be trained
        net = init_params(build_regressor(12), 0)
        with pytest.raises(EmptyDatasetError, match="at least 2"):
            _train_network(net, np.zeros((n, 2, 12)), np.zeros((n, 24)),
                           mse_loss, 1, tiny_config(window=12),
                           shuffle_seed=0)

    def test_pretrain_loss_decreases(self, corpus):
        cfg = tiny_config(copies=2, pretrain_epochs=8, window=12)
        _, history = pretrain(corpus, cfg)
        assert len(history) == cfg.pretrain_epochs
        assert history[-1] < history[0]

    def test_retrain_frozen_trunk_untouched(self, corpus):
        cfg = tiny_config(copies=2, window=12, freeze_trunk=True,
                          retrain_epochs=2)
        pre, _ = pretrain(corpus, cfg)
        labeled, _ = split_per_class(corpus, 3, seed=1)
        before = trunk_bytes(pre)
        clf, _ = retrain(pre, labeled, self.classes(corpus), cfg)
        # params, running means and running variances alike
        assert trunk_bytes(clf) == before

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_frozen_retrain_forwards_trunk_once(self, corpus, monkeypatch,
                                                epochs):
        cfg = tiny_config(copies=2, window=12, freeze_trunk=True,
                          retrain_epochs=epochs)
        pre, _ = pretrain(corpus, cfg)
        labeled, _ = split_per_class(corpus, 3, seed=1)
        classes = self.classes(corpus)
        copies = len(build_classification_dataset(labeled, classes, cfg)[0])
        first_conv, rows, backward = [], [], []

        def spy_transfer(src, dst):
            first_conv.append(dst.layers[0])
            return transfer_trunk(src, dst)

        def spy(cls):
            forward, back = cls.forward, cls.backward

            def spy_forward(layer, x, train):
                if first_conv and layer is first_conv[0]:
                    rows.append(len(x))
                return forward(layer, x, train)

            def spy_backward(layer, dy, *args):
                backward.append(layer)
                return back(layer, dy, *args)

            monkeypatch.setattr(cls, "forward", spy_forward)
            monkeypatch.setattr(cls, "backward", spy_backward)

        monkeypatch.setattr(pipeline, "transfer_trunk", spy_transfer)
        for cls in {type(layer) for layer in pre.layers}:
            spy(cls)
        clf, _ = retrain(pre, labeled, classes, cfg)
        assert first_conv == [clf.layers[0]]
        assert sum(rows) == copies
        assert backward  # the head trained
        assert not {id(layer) for layer in backward} \
            & {id(layer) for layer in clf.trunk}

    def test_frozen_trunk_features_match_one_shot_forward(self, corpus,
                                                          monkeypatch):
        # the trunk features, forwarded INFER_BATCH copies at a time in
        # float32, are bit for bit those of one float32 forward over every
        # copy
        cfg = tiny_config(copies=20, window=12, freeze_trunk=True,
                          retrain_epochs=1)
        pre, _ = pretrain(corpus, cfg)
        labeled, _ = split_per_class(corpus, 3, seed=1)
        classes = self.classes(corpus)
        x, _, _ = build_classification_dataset(labeled, classes, cfg)
        assert x.shape[0] > INFER_BATCH
        features = []
        train_network = pipeline._train_network

        def spy(net, x, *args, **kw):
            features.append(x)
            return train_network(net, x, *args, **kw)

        monkeypatch.setattr(pipeline, "_train_network", spy)
        clf, _ = retrain(pre, labeled, classes, cfg)
        trunk = Network(clf.trunk, clf.trunk_len).eval()
        assert len(features) == 1
        assert features[0].tobytes() \
            == trunk.forward(x.astype(np.float32)).tobytes()

    def test_retrain_unfrozen_trunk_moves(self, corpus):
        cfg = tiny_config(copies=2, window=12, freeze_trunk=False,
                          retrain_epochs=2)
        pre, _ = pretrain(corpus, cfg)
        labeled, _ = split_per_class(corpus, 3, seed=1)
        clf, _ = retrain(pre, labeled, self.classes(corpus), cfg)
        pre_params = [p.value for l in pre.trunk for p in l.params()]
        clf_params = [p.value for l in clf.trunk for p in l.params()]
        assert any(not np.array_equal(a, b)
                   for a, b in zip(pre_params, clf_params))

    def test_classifier_metadata(self, corpus, tmp_path):
        cfg = tiny_config(copies=2, window=12)
        classes = self.classes(corpus)
        pre, _ = pretrain(corpus, cfg)
        labeled, _ = split_per_class(corpus, 2, seed=1)
        clf, _ = retrain(pre, labeled, classes, cfg)
        base, _ = train_supervised_baseline(labeled, classes, cfg)
        # each fact once: the window is train_config's, and the output count
        # follows from the kind and the classes
        assert pre.meta == {"kind": "regressor",
                            "train_config": cfg.to_dict()}
        assert clf.meta == {"kind": "classifier",
                            "train_config": cfg.to_dict(), "classes": classes,
                            "pretrained": True}
        assert base.meta == {**clf.meta, "pretrained": False}
        # save, load and save again: the same meta and the same bytes
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        for net in (pre, clf, base):
            save_checkpoint(net, first)
            loaded, _ = load_checkpoint(first)
            assert loaded.meta == net.meta
            save_checkpoint(loaded, second)
            assert first.read_bytes() == second.read_bytes()

    def test_float32_predictions_match_float64(self, corpus):
        # evaluate forwards in float32; its per-copy classes, over more than
        # one batch and more than 512 rows, are those of a float64 forward
        cfg = tiny_config(copies=40, window=12)
        classes = self.classes(corpus)
        labeled, test = split_per_class(corpus, 3, seed=2)
        net, _ = train_supervised_baseline(labeled, classes, cfg)
        x, y, _ = build_classification_dataset(test, classes, cfg)
        assert x.shape[0] > max(INFER_BATCH, 512)
        preds = net.eval().forward(x).argmax(axis=1)
        np.testing.assert_array_equal(_predict_batched(net, x), preds)
        confusion = np.zeros((len(classes), len(classes)), dtype=int)
        np.add.at(confusion, (y, preds), 1)
        report = evaluate(net, test, classes, cfg)
        assert report.confusion == confusion.tolist()

    @pytest.mark.parametrize("rows", [1, INFER_BATCH - 1, INFER_BATCH,
                                      INFER_BATCH + 1, 3 * INFER_BATCH + 7])
    def test_predict_batched_matches_one_shot(self, corpus, monkeypatch,
                                              rows):
        # INFER_BATCH rows a forward, the last batch shorter; the classes
        # are those of one float32 forward over every row. Two threads
        # share the batches, so the forwards may start in any order.
        cfg = tiny_config(copies=40, window=12)
        classes = self.classes(corpus)
        labeled, test = split_per_class(corpus, 3, seed=2)
        net, _ = train_supervised_baseline(labeled, classes, cfg)
        x = build_classification_dataset(test, classes, cfg)[0][:rows]
        assert len(x) == rows
        want = net.fold_batch_norm().forward(x.astype(np.float32))
        batches = []
        forward = Network.forward

        def spy(self, x):
            batches.append(len(x))
            return forward(self, x)

        monkeypatch.setattr(Network, "forward", spy)
        np.testing.assert_array_equal(_predict_batched(net, x),
                                      want.argmax(axis=1))
        full, rest = divmod(rows, INFER_BATCH)
        assert sorted(batches, reverse=True) \
            == [INFER_BATCH] * full + [rest] * (rest > 0)

    def test_evaluate_leaves_network_unchanged(self, corpus, tmp_path):
        # evaluate forwards a folded copy; the network it was given, and a
        # checkpoint of it, stay byte for byte as they were
        cfg = tiny_config(copies=2, window=12)
        classes = self.classes(corpus)
        labeled, test = split_per_class(corpus, 3, seed=2)
        net, _ = train_supervised_baseline(labeled, classes, cfg)
        before, after = tmp_path / "before.ckpt", tmp_path / "after.ckpt"
        save_checkpoint(net, before)
        arrays = [a.tobytes() for a in network_arrays(net)]
        evaluate(net, test, classes, cfg)
        assert [a.tobytes() for a in network_arrays(net)] == arrays
        save_checkpoint(net, after)
        assert after.read_bytes() == before.read_bytes()

    def test_oversized_config_sampling_refused(self, corpus):
        # a training config's copies and window reach augment's size check
        cfg = tiny_config(sampling=Random(0.5), copies=10 ** 12)
        with pytest.raises(SampleSizeError):
            build_regression_dataset(corpus, cfg)
        with pytest.raises(SampleSizeError):
            pretrain(corpus, tiny_config(window=10 ** 12))

    def test_missing_class_rejected(self, corpus):
        cfg = tiny_config(copies=2, window=12)
        labeled = [f for f in corpus if f.label != "c1"][:6]
        with pytest.raises(CoverageError):
            train_supervised_baseline(labeled, self.classes(corpus), cfg)

    def test_knn_on_stat_vectors(self, corpus):
        labeled, rest = split_per_class(corpus, 4, seed=2)
        knn = knn_baseline(flow_stat_vectors(labeled), k=3)
        preds = knn.predict(np.stack(
            [v for v, _ in flow_stat_vectors(rest)]))
        correct = sum(p == f.label for p, f in zip(preds, rest))
        # separable synthetic classes: the baseline must beat chance easily
        assert correct / len(rest) > 0.5

    def test_flow_stat_vectors_shape(self, corpus):
        stats = flow_stat_vectors(corpus)
        assert len(stats) == len(corpus)
        assert all(v.shape == (24,) for v, _ in stats)
        assert {lab for _, lab in stats} == set(self.classes(corpus))


class TestTrainingMemory:
    """Each train forward's cache serves one backward, so a trained network
    holds no activations, and Conv1d keeps its padded input, not its im2col
    matrix."""

    @pytest.mark.parametrize("train", ["pretrain", "retrain", "freeze_trunk",
                                       "baseline"])
    def test_trained_network_holds_no_cache(self, corpus, train):
        cfg = tiny_config(copies=4, window=12,
                          freeze_trunk=train == "freeze_trunk")
        classes = sorted({f.label for f in corpus})
        pre, _ = pretrain(corpus, cfg)
        if train == "pretrain":
            nets = [pre]
        elif train == "baseline":
            nets = [train_supervised_baseline(corpus, classes, cfg)[0]]
        else:
            nets = [pre, retrain(pre, corpus, classes, cfg)[0]]
        held = [(i, type(layer).__name__) for net in nets
                for i, layer in enumerate(net.layers)
                if layer._cache is not None]
        assert held == []

    def test_train_peak_memory_bounded(self):
        # a regressor at batch 128 and window 45, 2 epochs of 256 copies:
        # 11.25 MiB at the peak when a step computes in float32 and the convs
        # keep their padded inputs; 12.06 MiB with one float64 buffer (conv's
        # dx_pad), 17.7 MiB with every activation in float64, 34 MiB when
        # the convs kept their im2col matrices and every layer its last
        # cache. After training nothing is held.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((256, 2, 45))
        y = rng.standard_normal((256, 24))
        cfg = tiny_config(window=45, batch_size=128)
        net = init_params(build_regressor(45), 1)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _train_network(net, x, y, mse_loss, 2, cfg, shuffle_seed=5)
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 ** 20  # the float32 peak and 0.75 MiB
        assert held <= 2 ** 20
        assert all(layer._cache is None for layer in net.layers)


def folded_classifier(window=12, seed=4):
    """An eval-mode classifier with running statistics away from 0 and 1,
    and its batch-norm-folded copy."""
    net = init_params(build_classifier(window, 3), seed)
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        if isinstance(layer, BatchNorm1d):
            layer.running_mean = rng.standard_normal(layer.channels)
            layer.running_var = rng.uniform(0.5, 2.0, layer.channels)
    return net.eval(), net.fold_batch_norm()


def serial_batches(net, x, dtype):
    """The one-thread loop _forward_batches replaces."""
    return [net.forward(x[lo:lo + INFER_BATCH].astype(dtype))
            for lo in range(0, len(x), INFER_BATCH)]


class TestTwoCoreForward:
    """Inference forwards the even batches on the calling thread and the
    odd ones on the worker; each output is the serial loop's, bit for bit."""

    ROWS = [1, 127, 128, 129, 257, 4000]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("rows", ROWS)
    def test_predictions_bit_equal(self, monkeypatch, rows, cpus):
        monkeypatch.setattr(WORKER, "_cpus", cpus)
        net, folded = folded_classifier()
        x = np.random.default_rng(rows).standard_normal((rows, 2, 12))
        want = serial_batches(folded, x, np.float32)
        got = _forward_batches(folded, x, np.float32)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        np.testing.assert_array_equal(
            _predict_batched(net, x), np.concatenate(want).argmax(axis=1))
        # one forward over every row gives the same classes (its logits
        # may differ in the last bits: BLAS picks a kernel by the shape)
        np.testing.assert_array_equal(
            _predict_batched(net, x),
            folded.forward(x.astype(np.float32)).argmax(axis=1))
        assert_idle()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("rows", ROWS)
    def test_frozen_trunk_features_bit_equal(self, monkeypatch, rows, cpus):
        monkeypatch.setattr(WORKER, "_cpus", cpus)
        net, _ = folded_classifier()
        trunk = Network(net.trunk, net.trunk_len).eval()
        x = np.random.default_rng(rows).standard_normal((rows, 2, 12))
        got = _forward_batches(trunk, x, np.float64)
        want = serial_batches(trunk, x, np.float64)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        np.testing.assert_allclose(np.concatenate(got), trunk.forward(x),
                                   rtol=1e-12, atol=1e-12)
        assert_idle()

    def test_odd_batches_run_on_the_worker(self, monkeypatch):
        two_cpus(monkeypatch)
        _, folded = folded_classifier()
        x = np.random.default_rng(5).standard_normal((5 * INFER_BATCH, 2, 12))
        on_caller = {}
        forward = Network.forward

        def spy(self, x):
            on_caller[float(x[0, 0, 0])] = threading.get_ident() == caller
            return forward(self, x)

        caller = threading.get_ident()
        monkeypatch.setattr(Network, "forward", spy)
        _forward_batches(folded, x, np.float64)
        firsts = [float(x[lo, 0, 0]) for lo in range(0, len(x), INFER_BATCH)]
        assert [on_caller[f] for f in firsts] == [True, False] * 2 + [True]

    @pytest.mark.parametrize("bad, named", [
        ([1], "128..255"), ([2], "256..383"), ([1, 2], "128..255"),
        ([4], "512..516")], ids=["worker batch", "caller batch",
                                 "both, worker first", "last batch"])
    def test_non_finite_output_names_copy_range(self, monkeypatch, bad,
                                                named):
        two_cpus(monkeypatch)
        net, _ = folded_classifier()
        x = np.random.default_rng(6).standard_normal(
            (4 * INFER_BATCH + 5, 2, 12))
        for b in bad:  # inf once cast to float32
            x[b * INFER_BATCH + 3, 1, 4] = 1e300
        with pytest.raises(NonFiniteOutputError,
                           match=f"sampled copies {named}: "):
            _predict_batched(net, x)
        assert_idle()

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_fault_reaches_caller_and_train_step_still_works(
            self, monkeypatch, where):
        two_cpus(monkeypatch)
        _, folded = folded_classifier()
        x = np.random.default_rng(7).standard_normal((6 * INFER_BATCH, 2, 12))
        rng = np.random.default_rng(8)
        tx, ty = rng.standard_normal((24, 2, 12)), rng.standard_normal((24, 24))

        def train():
            net = init_params(build_regressor(12), 0)
            _train_network(net, tx, ty, mse_loss, 1,
                           tiny_config(window=12, batch_size=8), 0)
            return [p.value.tobytes() for p in net.params()]

        before = train()
        caller = threading.get_ident()
        raised_on = []
        calls = []
        forward = Network.forward

        def faulty(self, x):
            calls.append(1)
            on_caller = threading.get_ident() == caller
            if on_caller == (where == "caller") and not raised_on:
                raised_on.append(on_caller)
                raise InjectedFault(where)
            return forward(self, x)

        with monkeypatch.context() as m:
            m.setattr(Network, "forward", faulty)
            with pytest.raises(InjectedFault, match=where):
                _forward_batches(folded, x, np.float32)
            ran = len(calls)
            # a batch left to run would run before this no-op
            WORKER.submit(lambda: None).result(timeout=60)
            assert len(calls) == ran
        assert raised_on == [where == "caller"]
        assert_idle()
        assert train() == before
        got = _forward_batches(folded, x, np.float32)
        assert [a.tobytes() for a in got] \
            == [a.tobytes() for a in serial_batches(folded, x, np.float32)]

    def test_one_cpu_runs_everything_on_the_caller(self, corpus, monkeypatch,
                                                   tmp_path):
        # with one usable CPU no task reaches the worker thread, and every
        # checkpoint and report is byte for byte the two-thread one
        classes = sorted({f.label for f in corpus})
        labeled, test = split_per_class(corpus, 3, seed=1)
        threads = set()

        def spy(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args):
                threads.add(threading.get_ident())
                return original(self, *args)
            monkeypatch.setattr(cls, name, wrapper)

        for cls, name in ((Network, "forward"), (Conv1d, "backward"),
                          (Dense, "backward"), (Adam, "_update")):
            spy(cls, name)

        def run(cpus):
            monkeypatch.setattr(WORKER, "_cpus", cpus)
            threads.clear()
            out = tmp_path / str(cpus)
            out.mkdir()
            cfg = tiny_config(copies=20, window=12)
            pre, _ = pretrain(corpus, cfg)
            nets = {"pre": pre,
                    "transfer": retrain(pre, labeled, classes, cfg)[0],
                    "frozen": retrain(pre, labeled, classes,
                                      replace(cfg, freeze_trunk=True))[0],
                    "baseline": train_supervised_baseline(
                        labeled, classes, cfg)[0]}
            files = {}
            for name, net in nets.items():
                save_checkpoint(net, out / name)
                files[name] = (out / name).read_bytes()
                if name != "pre":
                    files[name + " report"] = json.dumps(
                        evaluate(net, test, classes, cfg).to_dict())
            return files, set(threads)

        one, one_threads = run(1)
        two, two_threads = run(2)
        assert one_threads == {threading.get_ident()}
        assert len(two_threads) == 2
        assert one == two


class TestTrainConfig:
    def test_roundtrip(self):
        cfg = tiny_config()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(copies=0)
        with pytest.raises(ValueError):
            tiny_config(window=0)
        with pytest.raises(ValueError):
            tiny_config(lr=0.0)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            tiny_config(seed=-3)
        with pytest.raises(ConfigError, match="batch_size must be >= 2"):
            tiny_config(batch_size=1)

    @pytest.mark.parametrize("sampling,unknown", [
        ({"method": "random", "p": 0.1, "l": 5}, ["l"]),
        ({"method": "fixed", "l": 2, "betta": 1}, ["betta"]),
        ({"method": "incremental", "l0": 8, "alpha": 1.2, "beta": 10,
          "p": 0.1, "gamma": 2}, ["gamma", "p"])],
        ids=["random-l", "fixed-betta", "incremental-two"])
    def test_unknown_sampling_keys_refused(self, sampling, unknown):
        d = {**tiny_config().to_dict(), "sampling": sampling}
        with pytest.raises(ConfigError,
                           match=re.escape(f"sampling keys {unknown}")):
            TrainConfig.from_dict(d)

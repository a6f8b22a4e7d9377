"""Acceptance suite: one pass/fail line per criterion.

Each test prints exactly one `ACCEPTANCE <n> [...]: PASS|FAIL` line (written
past pytest's capture so it always appears in the run log) and then asserts.
"""

import math
import struct
import sys
import time

import numpy as np
import pytest

from sampleflow.features import stat_features
from sampleflow.ingest import DecodeStats, ingest_pcap
from sampleflow.neural import Adam, Dense, MaxPool1d, Network, ShapeError, \
    build_classifier, build_regressor
from sampleflow.neural.gradcheck import TOLERANCE, run_all
from sampleflow.neural.layers import Param
from sampleflow.neural.network import _assert_shapes, _make_head, _make_trunk, \
    flatten_width
from sampleflow.pipeline import (TrainConfig, confusion_metrics, evaluate,
                                 flow_stat_vectors, knn_baseline, pretrain,
                                 retrain, split_per_class,
                                 train_supervised_baseline)
from sampleflow.sampling import Fixed, Incremental, Random, sample_indices
from sampleflow.synth import generate
from tests import pcaputil as pc
from tests.ingest_reference import canonical_key
from tests.test_features import brute_force_stats, make_flow
from tests.test_sampling import simulate


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _emit(line):
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)


def report(num, desc, ok):
    line = f"ACCEPTANCE {num} [{desc}]: {'PASS' if ok else 'FAIL'}"
    _emit(line)
    assert ok, line


def test_criterion_1_gradient_checks():
    started = time.monotonic()
    results = run_all(num_seeds=10)
    elapsed = time.monotonic() - started
    names = {r.name for r in results}
    required = {"conv1d", "batchnorm1d", "dense", "relu", "maxpool1d",
                "mse_loss", "cross_entropy_loss", "full_network"}
    ok = (required <= names
          and all(r.passed and r.max_rel_err < TOLERANCE for r in results)
          and elapsed < 60.0)
    report(1, f"gradient checks, {elapsed:.1f}s", ok)


def test_criterion_2_stat_feature_oracle():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        t = 0.0
        events = []
        for i in range(n):
            sign = 1 if (i == 0 or rng.random() < 0.6) else -1
            events.append((t, sign * int(rng.integers(40, 1500))))
            t += float(rng.exponential(0.05))
        if seed % 10 == 0:
            events = [(t, abs(s)) for t, s in events]  # single direction
        if seed % 25 == 0:
            events = events[:1]  # single packet
        got = stat_features(make_flow(events))
        ok = ok and np.allclose(got, brute_force_stats(events), atol=1e-12,
                                rtol=0)
    report(2, "stat features vs brute force, 100 seeds", ok)


def test_criterion_3_sampling_oracle():
    ok = True
    gen = np.random.default_rng(20_000)
    for case in range(1000):
        flow_len = int(gen.integers(1, 3000))
        start = int(gen.integers(0, flow_len))
        window = int(gen.integers(1, 80))
        kind = case % 3
        if kind == 0:
            spec = Fixed(int(gen.integers(1, 40)))
            ok = ok and sample_indices(spec, start, flow_len, window) == \
                simulate(spec, start, flow_len, window)
        elif kind == 1:
            spec = Incremental(int(gen.integers(1, 30)),
                               float(gen.uniform(1.0, 2.5)),
                               int(gen.integers(1, 15)))
            ok = ok and sample_indices(spec, start, flow_len, window) == \
                simulate(spec, start, flow_len, window)
            alpha1 = Incremental(spec.initial_step, 1.0, spec.stage_len)
            ok = ok and sample_indices(alpha1, start, flow_len, window) == \
                sample_indices(Fixed(spec.initial_step), start, flow_len,
                               window)
        else:
            seed = case
            ok = ok and sample_indices(Random(1.0), start, flow_len, window,
                                       np.random.default_rng(seed)) == \
                sample_indices(Fixed(1), start, flow_len, window)
            p = float(gen.uniform(0.01, 1.0))
            ok = ok and sample_indices(Random(p), start, flow_len, window,
                                       np.random.default_rng(seed)) == \
                simulate(Random(p), start, flow_len, window, seed)
    report(3, "sampling vs direct simulation, 1000 tuples", ok)


def test_criterion_4_adam_oracle():
    # scalar reference implementation, fully independent of the optimizer
    theta, m, v = 1.0, 0.0, 0.0
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
    p = Param(np.array([1.0]))
    opt = Adam([p], lr=lr)
    ok = True
    for t in range(1, 11):
        g = 2.0 * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t))
                                             + eps)
        p.zero_grad()
        p.grad[...] = 2.0 * p.value
        opt.step()
        ok = ok and abs(p.value[0] - theta) <= 1e-12

    q = Param(np.array([0.0]))
    opt2 = Adam([q], lr=0.05)
    q.grad[...] = 3.0
    opt2.step()
    expected = 0.05 * 3.0 / (3.0 + 1e-8)
    ok = ok and abs(-q.value[0] - expected) / expected < 1e-9
    report(4, "Adam vs scalar oracle", ok)


def test_criterion_5_shape_ledger():
    ok = flatten_width(45) == 320
    for net, out in ((build_regressor(45), 24), (build_classifier(45, 7), 7)):
        head = net.layers[net.trunk_len:]
        sizes = [l.out_features for l in head if isinstance(l, Dense)]
        first = next(l for l in head if isinstance(l, Dense))
        ok = ok and sizes == [256, 128, 128, out] and first.in_features == 320
    # a deviating pool parameter must fail construction
    trunk = _make_trunk()
    trunk[6] = MaxPool1d(5)
    bad = Network(trunk + _make_head(320, 24), trunk_len=len(trunk))
    try:
        _assert_shapes(bad, 45, 24)
        ok = False
    except ShapeError:
        pass
    report(5, "network shape ledger", ok)


@pytest.fixture(scope="module")
def corpus600():
    return generate(num_classes=5, flows_per_class=120, seed=2026)


def test_criterion_6_semi_supervised_benchmark(corpus600):
    started = time.monotonic()
    classes = sorted({f.label for f in corpus600})
    # reduced-epoch CI profile; step sizes scaled to the synthetic flow
    # lengths so a full window fits inside every flow
    sampling = Incremental(8, 1.2, 10)
    pre_cfg = TrainConfig(sampling=sampling, seed=2026, window=45, copies=6,
                          pretrain_epochs=50, batch_size=128)
    _, unlabeled = split_per_class(corpus600, 20, seed=11)
    pretrained, _ = pretrain(unlabeled, pre_cfg)

    accs, wins = [], 0
    for seed in range(1, 6):
        cfg = TrainConfig(sampling=sampling, seed=seed, window=45, copies=10,
                          retrain_epochs=20, batch_size=128)
        labeled, rest = split_per_class(corpus600, 20, seed=seed)
        transferred, _ = retrain(pretrained, labeled, classes, cfg)
        baseline, _ = train_supervised_baseline(labeled, classes, cfg)
        acc = evaluate(transferred, rest, classes, cfg).macro_accuracy
        base = evaluate(baseline, rest, classes, cfg).macro_accuracy
        accs.append(acc)
        wins += acc > base
        _emit(f"  seed {seed}: transfer {acc:.4f} baseline {base:.4f}")
    elapsed = time.monotonic() - started
    ok = min(accs) >= 0.90 and wins >= 4 and elapsed < 600.0
    report(6, f"benchmark min acc {min(accs):.4f}, wins {wins}/5, "
              f"{elapsed:.0f}s", ok)


def test_criterion_7_knn_ceiling(corpus600):
    labeled, rest = split_per_class(corpus600, 20, seed=1)
    classes = sorted({f.label for f in corpus600})
    knn = knn_baseline(flow_stat_vectors(labeled), k=5)
    index = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    test = flow_stat_vectors(rest)
    preds = knn.predict(np.stack([vec for vec, _ in test]))
    for (_, label), pred in zip(test, preds):
        confusion[index[label], index[pred]] += 1
    macro, _ = confusion_metrics(confusion, classes)
    ok = macro >= 0.95
    report(7, f"knn stat-feature ceiling {macro:.4f}", ok)


def test_criterion_8_determinism(tmp_path):
    import hashlib
    import json

    from sampleflow.cli import main
    from sampleflow.flows import read_flows
    from sampleflow.neural import load_checkpoint
    from sampleflow.pipeline import classify

    cfg = {"sampling": {"method": "fixed", "l": 2}, "seed": 3, "window": 10,
           "copies": 2, "pretrain_epochs": 3, "retrain_epochs": 3,
           "batch_size": 8}
    runs = []
    for name in ("run-a", "run-b"):
        d = tmp_path / name
        d.mkdir()
        cfg_path = d / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        fl = d / "corpus.flows"
        assert main(["--quiet", "synth", "--classes", "3",
                     "--flows-per-class", "4", "--seed", "9",
                     "--out", str(fl)]) == 0
        pre = d / "pre.ckpt"
        assert main(["--quiet", "pretrain", "--flows", str(fl),
                     "--config", str(cfg_path), "--out", str(pre)]) == 0
        clf = d / "clf.ckpt"
        assert main(["--quiet", "retrain", "--model", str(pre),
                     "--flows", str(fl), "--classes", "c0,c1,c2",
                     "--out", str(clf), "--config", str(cfg_path)]) == 0
        model, meta = load_checkpoint(clf)
        train_cfg = TrainConfig.from_dict(meta["train_config"])
        labels = [classify(model, f, train_cfg)
                  for f in read_flows(fl)]
        hashes = {p.name: json.loads(
                      (d / (p.name + ".manifest.json")).read_text()
                  )["outputs"][str(p)]
                  for p in (fl, pre, clf)}
        runs.append((labels, hashes,
                     hashlib.sha256(clf.read_bytes()).hexdigest()))
    ok = runs[0] == runs[1]
    report(8, "end-to-end determinism across identical runs", ok)


def test_criterion_9_ingestion_conservation():
    tuples = [(f"10.0.0.{k + 1}", f"10.0.1.{k + 1}", 1000 + k, 2000 + k)
              for k in range(6)]
    frames = []
    for i in range(198):
        k = i % 6
        src, dst, sport, dport = tuples[k]
        if k == 1 and (i // 6) % 2 == 1:
            src, dst, sport, dport = dst, src, dport, sport  # reverse dir
        frames.append((pc.udp_frame(src, dst, sport, dport, 100 + k),
                       0.05 * i))
    # two extra packets for tuple 0 after an idle gap > 60 s
    last = 0.05 * 197
    src, dst, sport, dport = tuples[0]
    frames.append((pc.udp_frame(src, dst, sport, dport, 100), last + 80.0))
    frames.append((pc.udp_frame(src, dst, sport, dport, 100), last + 80.05))
    assert len(frames) == 200

    stats = DecodeStats()
    flows = ingest_pcap(pc.pcap(frames), min_packets=1, stats=stats)

    ok = stats.decoded == 200
    ok = ok and sum(len(f.packets) for f in flows) == 200
    ok = ok and len(flows) == 7  # six tuples plus one timeout split
    # hand-computed fixture: flows emerge ordered by first-packet arrival
    ok = ok and [len(f.packets) for f in flows] == [33] * 6 + [2]
    by_tuple = {}
    for f in flows:
        by_tuple.setdefault(canonical_key(f.five_tuple), []).append(f)
    ok = ok and sorted(len(v) for v in by_tuple.values()) == [1] * 5 + [2]

    # direction fixture for tuple 1: alternating senders, first defines fwd;
    # IPv4 total length is 28 + payload(101) = 129 bytes
    t1 = flows[1]
    ok = ok and t1.five_tuple.src_addr == "10.0.0.2"
    expected_signs = [129 if j % 2 == 0 else -129 for j in range(33)]
    ok = ok and [p.signed_length for p in t1.packets] == expected_signs
    # rebased times: tuple 1 occupies indices 1, 7, 13, ... -> 0.3 s apart
    ok = ok and all(abs(p.rel_time - 0.3 * j) < 1e-9
                    for j, p in enumerate(t1.packets))
    # the split flow restarts its clock after the idle gap
    split = flows[6]
    ok = ok and canonical_key(split.five_tuple) == \
        canonical_key(flows[0].five_tuple)
    ok = ok and [round(p.rel_time, 6) for p in split.packets] == [0.0, 0.05]
    report(9, "pcap ingestion conservation and splits", ok)

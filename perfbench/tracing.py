"""Spans around the calls into each sampleflow module, recorded from outside.

The tracer replaces the name binding each caller looks up (for example
`pipeline.input_matrix`, which `pipeline` imported by name, rather than
`features.input_matrix`) with a wrapper that records a span: name, start,
end and the span that was open when the call began. Spans stay in memory, in
flat arrays, until the run ends. Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from sampleflow import cli, features, flows, ingest, manifest, pipeline, sampling
from sampleflow.neural import layers, network, optim

MODULES = ("cli", "ingest", "flows", "sampling", "features", "neural",
           "pipeline", "manifest")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._layer_index: dict[int, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self.intern(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, name, after=None):
        nid = self.intern(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _wrap_generator(self, fn, name):
        """One span per item, so a generator's time lands where it is spent."""
        nid = self.intern(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                yield item
        return traced

    def _wrap_layer(self, fn, kind: str, type_name: str):
        names: dict[int, int] = {}
        flops = type_name == "Conv1d"

        def traced(layer, x, *args):
            index = self._layer_index.get(id(layer), -1)
            nid = names.get(index)
            if nid is None:
                nid = names[index] = self.intern(
                    f"neural.L{index}.{type_name}.{kind}")
            i = self._open(nid)
            try:
                result = fn(layer, x, *args)
            finally:
                self._close(i)
            if flops:  # multiply-adds of the taps: 2 per MAC, backward twice
                n, _, w = x.shape
                macs = n * w * layer.in_channels * layer.out_channels \
                    * layer.kernel
                self.counts[f"neural.L{index}.Conv1d.flop"] += \
                    2 * macs * (1 if kind == "fwd" else 2)
            return result
        return traced

    def _wrap_network(self, fn, name):
        nid = self.intern(name)

        def traced(net, x):
            self._layer_index = {id(layer): i
                                 for i, layer in enumerate(net.layers)}
            i = self._open(nid)
            try:
                return fn(net, x)
            finally:
                self._close(i)
        return traced

    # ---- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _count(self, key, measure):
        def after(args, result):
            self.counts[key] += measure(args, result)
        return after

    def _dataset_bytes(self, args, result):
        size = sum(a.nbytes for a in result if isinstance(a, np.ndarray))
        self.counts["pipeline.dataset_bytes"] = max(
            self.counts["pipeline.dataset_bytes"], size)

    def install(self) -> None:
        """Wrap every public call the workloads make into a module."""
        p = self._patch
        w = self._wrap
        p(ingest, "ingest_pcap", w(ingest.ingest_pcap, "ingest.ingest_pcap"))
        p(ingest, "parse_pcap",
          self._wrap_generator(ingest.parse_pcap, "ingest.parse_pcap"))
        p(ingest, "decode_packet", w(ingest.decode_packet,
                                     "ingest.decode_packet"))
        p(ingest, "assemble_flows", w(ingest.assemble_flows,
                                      "ingest.assemble_flows"))
        p(flows, "filter_short_flows", w(flows.filter_short_flows,
                                         "flows.filter_short_flows"))
        p(flows, "write_flows", w(flows.write_flows, "flows.write_flows"))
        p(flows, "read_flows", w(
            flows.read_flows, "flows.read_flows",
            self._count("flows.read_flows.bytes", _file_size)))
        augment = w(sampling.augment, "sampling.augment",
                    self._count("sampling.copies", lambda a, r: len(r)))
        p(pipeline, "augment", augment)
        p(sampling, "augment", augment)
        p(pipeline, "derive_rng", w(sampling.derive_rng, "sampling.derive_rng"))
        p(pipeline, "input_matrix", w(features.input_matrix,
                                      "features.input_matrix"))
        stat = w(features.stat_features, "features.stat_features")
        p(pipeline, "stat_features", stat)
        p(features, "stat_features", stat)
        p(pipeline, "normalize_targets", w(features.normalize_targets,
                                           "features.normalize_targets"))
        for fn in ("pretrain", "retrain", "train_supervised_baseline",
                   "evaluate", "flow_stat_vectors", "knn_baseline",
                   "confusion_metrics"):
            p(pipeline, fn, w(getattr(pipeline, fn), f"pipeline.{fn}"))
        for fn in ("build_regression_dataset", "build_classification_dataset"):
            p(pipeline, fn, w(getattr(pipeline, fn), f"pipeline.{fn}",
                              self._dataset_bytes))
        p(pipeline.KnnClassifier, "predict", w(
            pipeline.KnnClassifier.predict, "pipeline.KnnClassifier.predict"))
        for fn in ("init_params", "build_regressor", "build_classifier",
                   "transfer_trunk"):
            p(pipeline, fn, w(getattr(pipeline, fn), f"neural.{fn}"))
        p(pipeline, "mse_loss", w(pipeline.mse_loss, "neural.loss"))
        p(pipeline, "cross_entropy_loss", w(pipeline.cross_entropy_loss,
                                            "neural.loss"))
        p(optim.Adam, "step", w(optim.Adam.step, "neural.Adam.step"))
        p(optim.Adam, "zero_grad", w(optim.Adam.zero_grad,
                                     "neural.Adam.zero_grad"))
        p(network.Network, "forward", self._wrap_network(
            network.Network.forward, "neural.Network.forward"))
        p(network.Network, "backward", self._wrap_network(
            network.Network.backward, "neural.Network.backward"))
        for cls in _layer_classes():
            for meth, kind in (("forward", "fwd"), ("backward", "bwd")):
                if meth in cls.__dict__:
                    p(cls, meth, self._wrap_layer(cls.__dict__[meth], kind,
                                                  cls.__name__))
        p(cli, "save_checkpoint", w(cli.save_checkpoint,
                                    "neural.save_checkpoint"))
        p(cli, "load_checkpoint", w(cli.load_checkpoint,
                                    "neural.load_checkpoint"))
        p(cli, "write_manifest", w(cli.write_manifest,
                                   "manifest.write_manifest"))
        p(manifest, "sha256_file", w(
            manifest.sha256_file, "manifest.sha256_file",
            self._count("manifest.sha256_file.bytes", _file_size)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- analysis ----------------------------------------------------------

    def arrays(self, lo: int = 0, hi: int | None = None):
        """Name ids, parents, starts and ends of spans lo..hi."""
        hi = len(self.start) if hi is None else hi
        return (np.frombuffer(self.name_id, dtype=np.int32)[lo:hi],
                np.frombuffer(self.parent, dtype=np.int32)[lo:hi],
                np.frombuffer(self.start, dtype=np.float64)[lo:hi],
                np.frombuffer(self.end, dtype=np.float64)[lo:hi])

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Summed self time by span name over spans lo..hi."""
        nid, parent, start, end = self.arrays(lo, hi)
        dur = end - start
        covered = np.zeros(len(dur))
        inner = parent >= lo
        np.add.at(covered, parent[inner] - lo, dur[inner])
        own = np.bincount(nid, weights=dur - covered,
                          minlength=len(self.names))
        return {self.names[i]: float(v) for i, v in enumerate(own) if v}

    def durations(self, name: str, lo: int = 0, hi: int | None = None):
        nid, _, start, end = self.arrays(lo, hi)
        if name not in self._ids:
            return np.empty(0)
        return (end - start)[nid == self._ids[name]]

    def train_steps(self, lo: int, hi: int) -> np.ndarray:
        """Seconds from each optimizer zero_grad to the step that follows."""
        nid, _, start, end = self.arrays(lo, hi)
        zero = self._ids.get("neural.Adam.zero_grad")
        step = self._ids.get("neural.Adam.step")
        if zero is None or step is None:
            return np.empty(0)
        begins = start[nid == zero]
        ends = end[nid == step]
        n = min(len(begins), len(ends))
        return ends[:n] - begins[:n]

    def save(self, path) -> None:
        nid, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            parent=parent, start=start, end=end)


def _file_size(args, result) -> int:
    return os.path.getsize(args[0])


def _layer_classes():
    out, todo = [], [layers.Layer]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out

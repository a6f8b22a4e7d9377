"""The benchmark's three workloads: input generation, one measured pass, checks.

Each workload makes its inputs from the workload seed during set-up and then
drives the program only through `sampleflow.cli.main`, in-process, on the
generated files. A pass is one run of the workload's command sequence; its
wall time is the sum of the command times, so the output checks that follow
each pass are not timed.

The host's speed is not steady, so each command's time is also measured at
one reference speed; see `Speedometer`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import signal
import struct
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sampleflow import cli, flows, pipeline, sampling, synth
from sampleflow.features import NUM_FEATURES
from sampleflow.neural import load_checkpoint

CLASSES = 5
WINDOW = 45

# The reference kernel: interpreter loops, a dict and a small BLAS product,
# about 0.3 ms at full speed. REFERENCE_S is its time at full speed on the
# machine the benchmark was tuned on (an Intel Xeon vCPU); it only scales
# normalised times into seconds.
REFERENCE_S = 3.0e-4
REFERENCE_REPEATS = 5
SAMPLE_PERIOD_S = 0.2
_REF_INTS = list(range(3000))
_REF_MATRIX = np.random.default_rng(0).standard_normal((128, 128))


def _reference_kernel() -> int:
    total, table = 0, {}
    for i in _REF_INTS:
        total += i * i
    for i in _REF_INTS:
        table[i & 255] = i
    _REF_MATRIX @ _REF_MATRIX
    return total


def reference_time() -> float:
    """Shortest of a few timings of the reference kernel, in seconds."""
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        started = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - started)
    return best


class Speedometer:
    """Times a block in seconds and in seconds at the reference speed.

    A shared host slows this machine's vCPUs by up to 1.8x, in spells from a
    tenth of a second to minutes, and each vCPU on its own, so a probe on
    another CPU cannot follow it. While the block runs, a SIGALRM handler on
    the measuring thread times the reference kernel every SAMPLE_PERIOD_S.
    Each stretch between two samples counts as its seconds x REFERENCE_S /
    the mean of the two reference times around it. The handler's own time is
    left out of both totals. Use on the main thread only.
    """

    def __enter__(self):
        self.seconds = self.normalised = 0.0
        self._reference = reference_time()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def _sample(self, *_) -> None:
        stretch = time.perf_counter() - self._mark
        reference = reference_time()
        self.seconds += stretch
        self.normalised += stretch * REFERENCE_S * 2 / (
            self._reference + reference)
        self._reference = reference
        self._mark = time.perf_counter()

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class Pass:
    """Timings, values and failed checks of one pass."""

    seconds: dict[str, float] = field(default_factory=dict)
    normalised: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, str | None] = field(default_factory=dict)
    values: dict[str, object] = field(default_factory=dict)
    failed: set[str] = field(default_factory=set)
    notes: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    def fail(self, command: str, why: str) -> None:
        self.failed.add(command)
        self.notes.append(f"{command}: {why}")


class Commands:
    """Runs CLI commands in-process, timing each and capturing its stdout.

    Untraced commands are timed with a Speedometer; traced ones are not, so
    that its samples do not fall inside the spans.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer

    def run(self, p: Pass, name: str, argv: list[str]) -> None:
        out = io.StringIO()
        meter = Speedometer()
        timing = self.tracer.span(f"cli.{name}") if self.tracer else meter
        started = time.perf_counter()
        try:
            with redirect_stdout(out), timing:
                code = cli.main(["--quiet", *argv])
        except Exception as exc:  # a crash fails the command, not the run
            code = f"{type(exc).__name__}: {exc}"
        if self.tracer:
            p.seconds[name] = time.perf_counter() - started
        else:
            p.seconds[name], p.normalised[name] = meter.seconds, \
                meter.normalised
        p.outputs[name] = out.getvalue() if code == 0 else None
        if code != 0:
            p.fail(name, f"exit {code}")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _final_loss(stdout: str | None) -> float | None:
    m = re.search(r"final epoch loss (\S+)", stdout or "")
    return float(m.group(1)) if m else None


def _check_checkpoint(p: Pass, command: str, path: str, kind: str,
                      classes: list[str] | None = None) -> None:
    try:
        _, meta = load_checkpoint(path)
    except (OSError, ValueError, KeyError) as exc:
        p.fail(command, f"checkpoint does not reload: {exc}")
        return
    if meta.get("kind") != kind:
        p.fail(command, f"checkpoint kind {meta.get('kind')!r}, want {kind!r}")
    if classes is not None and meta.get("classes") != classes:
        p.fail(command, "checkpoint class list differs")
    p.values[f"{command}.checkpoint_sha256"] = file_digest(Path(path))


def _check_report(p: Pass, command: str, plan: dict, n_flows: int,
                  n_copies: int) -> None:
    path = plan["report"]
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        p.fail(command, f"unreadable report: {exc}")
        return
    if report["n_flows"] != n_flows:
        p.fail(command, f"report covers {report['n_flows']} flows, "
                        f"want {n_flows}")
    if report["n_sampled"] != n_copies or \
            sum(map(sum, report["confusion"])) != n_copies:
        p.fail(command, f"report covers {report['n_sampled']} copies, "
                        f"want {n_copies}")
    _check_accuracy(p, command, plan, report["macro_accuracy"])
    p.values[f"{command}.copies"] = report["n_sampled"]


def _check_accuracy(p: Pass, command: str, plan: dict,
                    accuracy: float) -> None:
    p.values[f"{command}.macro_accuracy"] = accuracy
    if not accuracy >= plan["min_accuracy"]:
        p.fail(command, f"macro accuracy {accuracy} is below "
                        f"{plan['min_accuracy']}")


def _min_accuracy(scale: str) -> float:
    """Twice chance; smoke-scale inputs are too small to learn from."""
    return 2.0 / CLASSES if scale == "full" else 0.0


def _count_copies(flow_list, spec, copies: int, seed: int) -> int:
    return sum(len(sampling.augment(f, spec, WINDOW, copies,
                                    sampling.derive_rng(seed, f.id)))
               for f in flow_list)


class PretrainRetrain:
    """Paper's headline path: pretrain, transfer-retrain, evaluate."""

    name = "pretrain_retrain"
    SIZES = {
        "full": dict(flows_per_class=120, labeled=20, pre_copies=2,
                     pre_epochs=2, re_copies=6, re_epochs=10),
        "smoke": dict(flows_per_class=8, labeled=3, pre_copies=1,
                      pre_epochs=1, re_copies=2, re_epochs=6),
    }
    SAMPLING = {"method": "incremental", "l0": 8, "alpha": 1.2, "beta": 10}

    def __init__(self, scale: str):
        self.size = self.SIZES[scale]
        self.min_accuracy = _min_accuracy(scale)

    def setup(self, work: Path, seed: int) -> dict:
        s = self.size
        corpus = synth.generate(CLASSES, s["flows_per_class"], seed)
        labeled, rest = pipeline.split_per_class(corpus, s["labeled"], seed)
        flows.write_flows(labeled, work / "labeled.flows")
        flows.write_flows(rest, work / "rest.flows")
        base = {"sampling": self.SAMPLING, "seed": seed, "window": WINDOW,
                "batch_size": 128}
        spec = sampling.spec_from_dict(self.SAMPLING)
        return {
            "rest": str(work / "rest.flows"),
            "labeled": str(work / "labeled.flows"),
            "pre_cfg": _write_json(work / "pretrain.json", {
                **base, "copies": s["pre_copies"],
                "pretrain_epochs": s["pre_epochs"]}),
            "re_cfg": _write_json(work / "retrain.json", {
                **base, "copies": s["re_copies"],
                "retrain_epochs": s["re_epochs"]}),
            "pre_ckpt": str(work / "pre.ckpt"),
            "clf_ckpt": str(work / "clf.ckpt"),
            "report": str(work / "report.json"),
            "classes": sorted({f.label for f in corpus}),
            "min_accuracy": self.min_accuracy,
            "n_rest": len(rest),
            "pre_copy_epochs": s["pre_epochs"] * _count_copies(
                rest, spec, s["pre_copies"], seed),
            "re_copy_epochs": s["re_epochs"] * _count_copies(
                labeled, spec, s["re_copies"], seed),
            "eval_copies": _count_copies(rest, spec, s["re_copies"], seed),
        }

    def run_pass(self, plan: dict, cmds: Commands, p: Pass) -> None:
        cmds.run(p, "pretrain", [
            "pretrain", "--flows", plan["rest"], "--config", plan["pre_cfg"],
            "--out", plan["pre_ckpt"]])
        cmds.run(p, "retrain", [
            "retrain", "--model", plan["pre_ckpt"], "--flows", plan["labeled"],
            "--classes", ",".join(plan["classes"]), "--config", plan["re_cfg"],
            "--out", plan["clf_ckpt"]])
        cmds.run(p, "evaluate", [
            "evaluate", "--model", plan["clf_ckpt"], "--flows", plan["rest"],
            "--report", plan["report"]])

    def check(self, plan: dict, p: Pass) -> None:
        if p.outputs.get("pretrain") is not None:
            loss = _final_loss(p.outputs["pretrain"])
            if loss is None or not math.isfinite(loss):
                p.fail("pretrain", f"no finite final loss (got {loss})")
            else:
                p.values["pretrain.loss"] = loss
            _check_checkpoint(p, "pretrain", plan["pre_ckpt"], "regressor")
        if p.outputs.get("retrain") is not None:
            p.values["retrain.loss"] = _final_loss(p.outputs["retrain"])
            _check_checkpoint(p, "retrain", plan["clf_ckpt"], "classifier",
                              plan["classes"])
        if p.outputs.get("evaluate") is not None:
            _check_report(p, "evaluate", plan, plan["n_rest"],
                          plan["eval_copies"])

    def rates(self, plan: dict, p: Pass) -> dict[str, float]:
        return {
            "pretrain_copy_epochs_per_s":
                plan["pre_copy_epochs"] / p.seconds["pretrain"],
            "retrain_copy_epochs_per_s":
                plan["re_copy_epochs"] / p.seconds["retrain"],
            "evaluate_copies_per_s":
                plan["eval_copies"] / p.seconds["evaluate"],
        }


class ClassifyRandom:
    """Evaluate a fixed classifier with random sampling, 100 copies a flow.

    The classifier and its training flows do not depend on the workload
    seed: with 4 training flows per class, seed-to-seed accuracy swung by
    over 10%. The seed picks the held-out flows from a fixed pool.
    """

    name = "classify_random"
    SIZES = {
        "full": dict(pool_per_class=40, train_per_class=4, test_per_class=8,
                     epochs=2),
        "smoke": dict(pool_per_class=6, train_per_class=2, test_per_class=2,
                      epochs=1),
    }
    CORPUS_SEED = 2026
    COPIES = 100

    def __init__(self, scale: str):
        self.size = self.SIZES[scale]
        self.min_accuracy = _min_accuracy(scale)

    def setup(self, work: Path, seed: int) -> dict:
        s = self.size
        corpus = synth.generate(CLASSES, s["pool_per_class"], self.CORPUS_SEED)
        rng = np.random.default_rng(seed)
        train, test = [], []
        for label in sorted({f.label for f in corpus}):
            group = [f for f in corpus if f.label == label]
            train += group[:s["train_per_class"]]
            rest = group[s["train_per_class"]:]
            test += [rest[i] for i in sorted(rng.choice(
                len(rest), size=s["test_per_class"], replace=False))]
        flows.write_flows(train, work / "train.flows")
        flows.write_flows(test, work / "test.flows")
        classes = sorted({f.label for f in corpus})
        base = {"sampling": {"method": "random", "p": 0.1},
                "seed": self.CORPUS_SEED, "window": WINDOW}
        pre_cfg = _write_json(work / "pretrain.json", {
            **base, "copies": 1, "pretrain_epochs": 1, "batch_size": 64})
        clf_cfg = _write_json(work / "classifier.json", {
            **base, "copies": self.COPIES, "retrain_epochs": s["epochs"],
            "batch_size": 64})
        # the classifier is trained without transfer; retrain still needs a
        # model to load, so a one-step regressor is made first
        for argv in (["pretrain", "--flows", str(work / "train.flows"),
                      "--config", pre_cfg, "--out", str(work / "pre.ckpt")],
                     ["retrain", "--no-transfer",
                      "--model", str(work / "pre.ckpt"),
                      "--flows", str(work / "train.flows"),
                      "--classes", ",".join(classes), "--config", clf_cfg,
                      "--out", str(work / "clf.ckpt")]):
            with redirect_stdout(io.StringIO()):
                code = cli.main(["--quiet", *argv])
            if code != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited {code}")
        return {
            "test": str(work / "test.flows"),
            "clf_ckpt": str(work / "clf.ckpt"),
            "report": str(work / "report.json"),
            "n_test": len(test),
            "min_accuracy": self.min_accuracy,
            "eval_copies": len(test) * self.COPIES,
        }

    def run_pass(self, plan: dict, cmds: Commands, p: Pass) -> None:
        cmds.run(p, "evaluate", [
            "evaluate", "--model", plan["clf_ckpt"], "--flows", plan["test"],
            "--report", plan["report"]])

    def check(self, plan: dict, p: Pass) -> None:
        if p.outputs.get("evaluate") is not None:
            _check_report(p, "evaluate", plan, plan["n_test"],
                          plan["eval_copies"])

    def rates(self, plan: dict, p: Pass) -> dict[str, float]:
        return {"evaluate_copies_per_s":
                plan["eval_copies"] / p.seconds["evaluate"]}


# ---- capture_knn: a classic pcap written like a capture ----------------------

BASE_SECONDS = 1_700_000_000
IDLE_TIMEOUT = 60.0
MIN_PACKETS = 100


def _ip(addr: str) -> bytes:
    return bytes(int(b) for b in addr.split("."))


def _frame(src: str, dst: str, sport: int, dport: int, proto: str,
           length: int) -> bytes:
    """Ethernet + IPv4 + TCP/UDP frame whose IPv4 total length is length."""
    if proto == "tcp":
        l4 = struct.pack("!HHIIBBHHH", sport, dport, 0, 0, 5 << 4, 0x10,
                         8192, 0, 0)
        number = 6
    else:
        l4 = struct.pack("!HHHH", sport, dport, length - 20, 0)
        number = 17
    ip = struct.pack("!BBHHHBBH", 0x45, 0, length, 0, 0, 64, number, 0)
    return (b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00" + ip + _ip(src) + _ip(dst)
            + l4 + bytes(length - 20 - len(l4)))


# frames the decoder must skip, by the reason it reports
_JUNK = {
    "non-ipv4": b"\x02" * 6 + b"\x04" * 6 + b"\x08\x06" + bytes(28),
    "non-tcp-udp": (b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00"
                    + struct.pack("!BBHHHBBH", 0x45, 0, 40, 0, 0, 64, 1, 0)
                    + bytes(8) + bytes(20)),
    "malformed": b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00" + bytes(9),
}


def _stamped(flow, rng: np.random.Generator, n: int | None = None):
    """Microsecond stamps from a random start, and signed lengths, of the
    first n packets of a flow."""
    packets = flow.packets[:n]
    times = np.array([pk.rel_time for pk in packets])
    start = int(rng.integers(0, 20_000_000))
    return (start + np.rint(times * 1e6).astype(np.int64),
            np.array([pk.signed_length for pk in packets]))


def write_capture(path: Path, corpus, rng: np.random.Generator,
                  n_short: int, junk_share: dict[str, float]) -> dict:
    """Write corpus flows (plus short flows, idle-gap splits and frames the
    decoder skips) to a microsecond pcap in timestamp order.

    Returns the flows ingest must keep, in first-packet order, and the frame
    counts.
    """
    segments = []   # (five-tuple, absolute microseconds, signed lengths)
    for j, f in enumerate(corpus):
        t = f.five_tuple
        five = (t.src_addr, t.dst_addr, t.src_port, t.dst_port,
                "tcp" if j % 2 else "udp")
        us, signed = _stamped(f, rng)
        if j % 16 == 5:  # idle gap: ingest must split this flow in two
            half = len(us) // 2
            us[half:] += int(IDLE_TIMEOUT * 1.5e6)
            segments += [(five, us[:half], signed[:half]),
                         (five, us[half:], signed[half:])]
        else:
            segments.append((five, us, signed))
    for i in range(n_short):  # filtered: fewer than MIN_PACKETS packets
        n = int(rng.integers(10, MIN_PACKETS))
        us, signed = _stamped(corpus[i % len(corpus)], rng, n)
        segments.append((("10.250.0.%d" % (i + 1), "192.0.2.9", 5000 + i, 53,
                          "udp"), us, signed))

    frames, stamps, owner = [], [], []
    for k, (five, us, signed) in enumerate(segments):
        src, dst, sport, dport, proto = five
        for stamp, s in zip(us.tolist(), signed.tolist()):
            if s > 0:
                frames.append(_frame(src, dst, sport, dport, proto, s))
            else:
                frames.append(_frame(dst, src, dport, sport, proto, -s))
            stamps.append(stamp)
            owner.append(k)
    span = max(stamps) + 1
    n_real = len(frames)
    junk = {}
    for reason, share in junk_share.items():
        junk[reason] = max(1, int(n_real * share))
        frames += [_JUNK[reason]] * junk[reason]
        stamps += rng.integers(0, span, size=junk[reason]).tolist()
        owner += [-1] * junk[reason]

    order = np.argsort(np.asarray(stamps), kind="stable")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        for i in order.tolist():
            sec, usec = divmod(BASE_SECONDS * 1_000_000 + stamps[i], 1_000_000)
            frame = frames[i]
            fh.write(struct.pack("<IIII", sec, usec, len(frame), len(frame)))
            fh.write(frame)

    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    first = {}
    for i, k in enumerate(owner):
        if k >= 0 and k not in first:
            first[k] = position[i]
    kept = sorted((k for k, (_, us, _) in enumerate(segments)
                   if len(us) >= MIN_PACKETS), key=first.__getitem__)
    expected = []
    for k in kept:
        five, us, signed = segments[k]
        if signed[0] < 0:  # the first packet's sender is the flow's source
            src, dst, sport, dport, proto = five
            five, signed = (dst, src, dport, sport, proto), -signed
        expected.append({"tuple": list(five),
                         "rel_us": (us - us[0]).tolist(),
                         "signed": signed.tolist()})
    return {"frames": len(frames), "skipped": junk, "flows": expected}


class CaptureKnn:
    """Label-free path plus the paper's KNN baseline."""

    name = "capture_knn"
    SIZES = {
        "full": dict(flows_per_class=12, knn_train_per_class=4, n_short=8),
        "smoke": dict(flows_per_class=3, knn_train_per_class=1, n_short=2),
    }
    JUNK = {"non-ipv4": 0.01, "non-tcp-udp": 0.005, "malformed": 0.002}

    def __init__(self, scale: str):
        self.size = self.SIZES[scale]
        self.min_accuracy = _min_accuracy(scale)

    def setup(self, work: Path, seed: int) -> dict:
        s = self.size
        corpus = synth.generate(CLASSES, s["flows_per_class"], seed)
        capture = write_capture(work / "capture.pcap", corpus,
                                np.random.default_rng(seed), s["n_short"],
                                self.JUNK)
        train, test = pipeline.split_per_class(
            corpus, s["knn_train_per_class"], seed)
        flows.write_flows(train, work / "train.flows")
        flows.write_flows(test, work / "test.flows")
        expected = work / "expected.json"
        expected.write_text(json.dumps(capture["flows"]), encoding="utf-8")
        return {
            "pcap": str(work / "capture.pcap"),
            "ingested": str(work / "ingested.flows"),
            "stats": str(work / "stats.csv"),
            "train": str(work / "train.flows"),
            "test": str(work / "test.flows"),
            "expected": str(expected),
            "frames": capture["frames"],
            "skipped": capture["skipped"],
            "n_flows": len(capture["flows"]),
            "n_test": len(test),
            "min_accuracy": self.min_accuracy,
        }

    def run_pass(self, plan: dict, cmds: Commands, p: Pass) -> None:
        cmds.run(p, "ingest", [
            "ingest", "--pcap", plan["pcap"], "--out", plan["ingested"],
            "--timeout", str(IDLE_TIMEOUT), "--min-packets", str(MIN_PACKETS)])
        cmds.run(p, "stats", [
            "stats", "--flows", plan["ingested"], "--out", plan["stats"]])
        cmds.run(p, "baseline-knn", [
            "baseline-knn", "--train", plan["train"], "--test", plan["test"],
            "--k", "5"])

    def check(self, plan: dict, p: Pass) -> None:
        if p.outputs.get("ingest") is not None:
            self._check_ingest(plan, p.outputs["ingest"], p)
        if p.outputs.get("stats") is not None:
            self._check_stats(plan, p)
        if p.outputs.get("baseline-knn") is not None:
            self._check_knn(plan, p.outputs["baseline-knn"], p)

    def _check_ingest(self, plan: dict, out: str, p: Pass) -> None:
        m = re.search(r"decoded (\d+) packets \(skipped (\{.*?\})\), "
                      r"wrote (\d+) flows", out)
        if m is None:
            p.fail("ingest", f"unexpected output {out!r}")
            return
        decoded = int(m.group(1))
        skipped = {k: int(v) for k, v in
                   re.findall(r"'([^']+)': (\d+)", m.group(2))}
        for reason, n in skipped.items():
            p.values[f"ingest.skipped.{reason}"] = n
        if decoded + sum(skipped.values()) != plan["frames"]:
            p.fail("ingest", f"decoded {decoded} + skipped {skipped} != "
                             f"{plan['frames']} frames written")
        if skipped != plan["skipped"]:
            p.fail("ingest", f"skipped {skipped}, want {plan['skipped']}")
        got = flows.read_flows(plan["ingested"])
        want = json.loads(Path(plan["expected"]).read_text())
        if len(got) != len(want):
            p.fail("ingest", f"{len(got)} flows kept, want {len(want)}")
            return
        for g, w in zip(got, want):
            t = g.five_tuple
            rel = np.array([pk.rel_time for pk in g.packets])
            signed = [pk.signed_length for pk in g.packets]
            if [t.src_addr, t.dst_addr, t.src_port, t.dst_port,
                    t.protocol] != w["tuple"] or signed != w["signed"] or \
                    np.abs(rel - np.array(w["rel_us"]) / 1e6).max() > 1e-6:
                p.fail("ingest", f"flow {g.id} differs from the generated flow")
                return

    def _check_stats(self, plan: dict, p: Pass) -> None:
        # Cells are only counted, not parsed: `stats` writes numpy scalar
        # reprs such as np.float64(40.0) under numpy 2, a known, unfixed
        # defect.
        with open(plan["stats"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != plan["n_flows"] + 1 or \
                any(len(r) != 2 + NUM_FEATURES or not all(r[2:])
                    for r in rows):
            p.fail("stats", f"want {plan['n_flows']} rows of "
                            f"{NUM_FEATURES} features")

    def _check_knn(self, plan: dict, out: str, p: Pass) -> None:
        try:
            result = json.loads(out)
        except ValueError as exc:
            p.fail("baseline-knn", f"output is not JSON: {exc}")
            return
        if sum(map(sum, result["confusion"])) != plan["n_test"]:
            p.fail("baseline-knn", "confusion does not cover the test flows")
        _check_accuracy(p, "baseline-knn", plan, result["macro_accuracy"])

    def rates(self, plan: dict, p: Pass) -> dict[str, float]:
        return {
            "ingest_pkts_per_s": plan["frames"] / p.seconds["ingest"],
            "stats_flows_per_s": plan["n_flows"] / p.seconds["stats"],
            "knn_flows_per_s": plan["n_test"] / p.seconds["baseline-knn"],
        }


WORKLOADS = {w.name: w for w in (PretrainRetrain, ClassifyRandom, CaptureKnn)}

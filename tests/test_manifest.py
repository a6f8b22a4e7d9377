"""Run manifests: each input hashed once, on the worker, before any output.

Every test runs twice: with one usable CPU, where the worker runs its tasks
at once on the calling thread, and with two counted (`two_cpus`), where it
runs them on its own thread.
"""

import hashlib
import json
import sys
import threading
import time
from pathlib import Path

import pytest

from sampleflow import cli, manifest
from sampleflow.cli import main
from sampleflow.flows import write_flows
from sampleflow.neural.worker import WORKER
from sampleflow.synth import generate
from tests import pcaputil as pc
from tests.test_overlap import assert_idle, two_cpus

CONFIG = {"sampling": {"method": "fixed", "l": 2}, "seed": 3, "window": 10,
          "copies": 2, "pretrain_epochs": 1, "retrain_epochs": 1,
          "batch_size": 8}


@pytest.fixture(autouse=True, params=[1, 2], ids=["one cpu", "two cpus"])
def cpus(request, monkeypatch):
    if request.param == 2:
        two_cpus(monkeypatch)
    else:
        monkeypatch.setattr(WORKER, "_cpus", 1)
    return request.param


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def manifest_of(artifact) -> dict:
    return json.loads(Path(f"{artifact}.manifest.json").read_text())


def run(capsys, *argv):
    code = main(["--quiet", *argv])
    captured = capsys.readouterr()
    return code, captured.err


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "c.flows"
    write_flows(generate(2, 4, seed=5), path)
    return path


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    return path


def capture(path):
    frames = [(pc.udp_frame("10.0.0.1", "10.0.0.2", 1000, 443, 50),
               0.01 * i) for i in range(120)]
    path.write_bytes(pc.pcap(frames))
    return path


@pytest.fixture
def hashed(monkeypatch):
    """Each file hashed from disk: the function called, the path and whether
    on the main thread. sha256_file (which the benchmark tracer wraps) is
    for outputs only, and calls _file_sha256 in turn."""
    calls = []

    def recorder(name):
        original = getattr(manifest, name)

        def recorded(path):
            calls.append((name, str(path), threading.current_thread() is
                          threading.main_thread()))
            return original(path)
        monkeypatch.setattr(manifest, name, recorded)

    recorder("_file_sha256")
    recorder("sha256_file")
    return calls


class TestInputsReplacedByOutputs:
    """An output written over an input: the manifest records the bytes the
    command read, not the ones it wrote."""

    def test_stats(self, capsys, corpus, monkeypatch):
        read = sha256(corpus)
        original = manifest._file_sha256

        def slow(path):
            # a command that did not wait for this hash would open its
            # output while the hash runs
            time.sleep(0.2)
            return original(path)

        monkeypatch.setattr(manifest, "_file_sha256", slow)
        code, _ = run(capsys, "stats", "--flows", str(corpus),
                      "--out", str(corpus))
        assert code == 0
        record = manifest_of(corpus)
        assert record["inputs"] == {str(corpus): read}
        assert record["outputs"] == {str(corpus): sha256(corpus)} != \
            record["inputs"]

    def test_ingest(self, capsys, tmp_path):
        pcap = capture(tmp_path / "x")
        read = sha256(pcap)
        code, _ = run(capsys, "ingest", "--pcap", str(pcap), "--out",
                      str(pcap), "--min-packets", "1")
        assert code == 0
        record = manifest_of(pcap)
        assert record["inputs"] == {str(pcap): read}
        assert record["outputs"] == {str(pcap): sha256(pcap)} != \
            record["inputs"]


def test_seeded_sequence_hashes_each_input_once(capsys, tmp_path, cpus,
                                                hashed, config):
    """synth to evaluate: every manifest's input digests are the files',
    each file is hashed once (a capture from the bytes parsed, not from
    disk), inputs on the worker and outputs on the calling thread."""
    d = tmp_path
    pcap = capture(d / "x.pcap")
    steps = [
        (["synth", "--classes", "2", "--flows-per-class", "4", "--seed", "5",
          "--out", f"{d}/c.flows"], f"{d}/c.flows", []),
        (["ingest", "--pcap", str(pcap), "--out", f"{d}/x.flows",
          "--min-packets", "1"], f"{d}/x.flows", [str(pcap)]),
        (["stats", "--flows", f"{d}/c.flows", "--out", f"{d}/s.csv"],
         f"{d}/s.csv", [f"{d}/c.flows"]),
        (["sample", "--flows", f"{d}/c.flows", "--out", f"{d}/s.jsonl",
          "--method", "fixed", "--params", "2", "--window", "10",
          "--copies", "2", "--seed", "3"], f"{d}/s.jsonl", [f"{d}/c.flows"]),
        (["pretrain", "--flows", f"{d}/c.flows", "--config", str(config),
          "--out", f"{d}/pre.ckpt"], f"{d}/pre.ckpt", [f"{d}/c.flows"]),
        (["retrain", "--model", f"{d}/pre.ckpt", "--flows", f"{d}/c.flows",
          "--classes", "c0,c1", "--out", f"{d}/clf.ckpt"], f"{d}/clf.ckpt",
         [f"{d}/pre.ckpt", f"{d}/c.flows"]),
        (["evaluate", "--model", f"{d}/clf.ckpt", "--flows", f"{d}/c.flows",
          "--report", f"{d}/r.json"], f"{d}/r.json",
         [f"{d}/clf.ckpt", f"{d}/c.flows"]),
    ]
    on_worker = cpus == 2
    for argv, output, inputs in steps:
        hashed.clear()
        code, err = run(capsys, *argv)
        assert code == 0, err
        assert_idle()
        record = manifest_of(output)
        assert list(record["inputs"].items()) == \
            [(p, sha256(p)) for p in inputs]
        assert record["outputs"] == {output: sha256(output)}
        from_disk = [p for p in inputs if p != str(pcap)]
        assert sorted(hashed) == sorted(
            [("_file_sha256", p, not on_worker) for p in from_disk]
            + [("_file_sha256", output, True), ("sha256_file", output, True)])
    report = json.loads(Path(f"{d}/r.json").read_text())
    assert report["manifest"]["inputs"] == {
        f"{d}/c.flows": sha256(f"{d}/c.flows")}


def test_digests_under_fast_thread_switching(tmp_path):
    """Files hashed on the worker while the caller reads and queues more: a
    lost or misplaced digest would show."""
    paths = []
    for i in range(40):
        path = tmp_path / f"{i}.bin"
        path.write_bytes(bytes([i]) * (5000 * i + 1))
        paths.append(path)
    named = paths[::2] + paths[1::2]
    out = []

    def digests():
        inputs = manifest.Inputs(*paths[::2])
        for path in paths[1::2]:
            inputs.read_bytes(path)
        out.append(inputs.digests())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=digests)
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive() and len(out) == 1
    assert list(out[0].items()) == [(str(p), sha256(p)) for p in named]
    assert_idle()


def missing_flows(tmp_path, corpus):
    return ["stats", "--flows", str(tmp_path / "nope.flows"),
            "--out", str(tmp_path / "o.csv")], "No such file or directory"


def bad_record(tmp_path, corpus):
    bad = tmp_path / "bad.flows"
    bad.write_text(corpus.read_text().replace('"dport": 443',
                                              '"dport": "443"', 1))
    return ["stats", "--flows", str(bad), "--out", str(tmp_path / "o.csv")], \
        "line 2: dport must be an integer in 0..65535"


def bad_config(tmp_path, corpus):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    return ["pretrain", "--flows", str(corpus), "--config", str(bad),
            "--out", str(tmp_path / "o.ckpt")], "not a UTF-8 JSON file"


def missing_model(tmp_path, corpus):
    return ["evaluate", "--model", str(tmp_path / "nope.ckpt"), "--flows",
            str(corpus), "--report", str(tmp_path / "r.json")], \
        "No such file or directory"


@pytest.mark.parametrize("failure", [missing_flows, bad_record, bad_config,
                                     missing_model])
def test_failed_command_leaves_the_worker_clean(capsys, tmp_path, corpus,
                                                config, failure):
    """The command exits with the caller's error; nothing is left queued or
    pending, so a pretrain and a stats that follow run and record correct
    digests."""
    argv, message = failure(tmp_path, corpus)
    code, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert_idle()
    pre = tmp_path / "pre.ckpt"
    code, err = run(capsys, "pretrain", "--flows", str(corpus), "--config",
                    str(config), "--out", str(pre))
    assert code == 0, err
    assert manifest_of(pre)["inputs"] == {str(corpus): sha256(corpus)}
    code, err = run(capsys, "stats", "--flows", str(corpus), "--out",
                    str(tmp_path / "s.csv"))
    assert code == 0, err
    assert manifest_of(tmp_path / "s.csv")["inputs"] == \
        {str(corpus): sha256(corpus)}
    assert_idle()


def test_failed_hash_is_data_error_before_any_output(capsys, tmp_path,
                                                     corpus, monkeypatch):
    def denied(path):
        raise PermissionError(f"denied: {path}")

    monkeypatch.setattr(manifest, "_file_sha256", denied)
    out = tmp_path / "s.csv"
    code, err = run(capsys, "stats", "--flows", str(corpus),
                    "--out", str(out))
    assert code == 2
    assert err == f"error: denied: {corpus}\n"
    assert not out.exists()
    assert_idle()


def test_command_that_crashes_leaves_the_worker_clean(capsys, tmp_path,
                                                      corpus, monkeypatch):
    """A bug ends in a traceback, and still cancels the queued hashes."""
    def crash(path):
        raise RuntimeError("a bug")

    with monkeypatch.context() as m:
        m.setattr(cli.flows, "read_flows", crash)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["stats", "--flows", str(corpus),
                  "--out", str(tmp_path / "s.csv")])
    assert_idle()
    code, err = run(capsys, "stats", "--flows", str(corpus),
                    "--out", str(tmp_path / "s.csv"))
    assert code == 0, err

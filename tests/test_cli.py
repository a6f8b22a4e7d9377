import base64
import contextlib
import csv
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import sampleflow
from sampleflow import (DataError, cli, features, flows, ingest, manifest,
                        pipeline, sampling, synth)
from sampleflow.cli import main
from sampleflow.features import FEATURE_NAMES, stat_features
from sampleflow.flows import read_flows, write_flows
from sampleflow.neural import (CheckpointError, DegenerateBatchError,
                               ShapeError, build_classifier, init_params,
                               load_checkpoint, save_checkpoint, worker)
from sampleflow.synth import generate
from tests import pcaputil as pc
from tests.test_neural import edit_meta


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped(*argv, address_space=1_500_000_000, timeout=300):
    """The CLI in a child process with a capped address space, so that an
    allocation too large for it fails in the child instead of taking the
    memory of the process that runs the tests."""
    src = str(Path(sampleflow.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "sampleflow.cli", *argv],
                          env=env, preexec_fn=cap, capture_output=True,
                          text=True, timeout=timeout)


class TestExitCodes:
    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "synth", "--bogus")
        assert code == 1
        assert "error" in err

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys, )
        assert code == 1

    def test_missing_input_file_is_data_error(self, capsys, tmp_path):
        missing = tmp_path / "nope.flows"
        code, _, err = run(capsys, "stats", "--flows", str(missing),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert str(missing) in err

    def test_coerced_flow_field_is_data_error(self, capsys, tmp_path):
        corpus = tmp_path / "c.flows"
        write_flows(generate(2, 1, seed=5), corpus)
        corpus.write_text(corpus.read_text().replace(
            '"dport": 443', '"dport": "443"', 1))
        code, _, err = run(capsys, "stats", "--flows", str(corpus),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "line 2: dport must be an integer in 0..65535" in err

    def test_data_errors_share_one_base(self):
        assert cli.DATA_ERRORS == (OSError, DataError)
        for cls in (flows.FlowFormatError, flows.FlowVersionError,
                    ingest.UnsupportedFormatError,
                    ingest.TruncatedCaptureError,
                    features.InconsistentSampleError,
                    sampling.InvalidStartError, sampling.SampleSizeError,
                    synth.SynthConfigError,
                    pipeline.EmptyDatasetError, pipeline.LabelError,
                    pipeline.CoverageError, pipeline.NonFiniteLossError,
                    pipeline.NonFiniteOutputError, pipeline.ConfigError,
                    pipeline.DatasetSizeError, CheckpointError, ShapeError,
                    manifest.NotRegularFileError):
            assert issubclass(cls, DataError), cls
        assert not issubclass(DegenerateBatchError, DataError)

    @pytest.mark.parametrize("command, directory", [
        ("stats", "--flows"), ("stats", "--out"), ("synth", "--out"),
        ("ingest", "--pcap")])
    def test_directory_path_is_data_error(self, capsys, tmp_path, command,
                                          directory):
        corpus = tmp_path / "c.flows"
        write_flows(generate(2, 1, seed=5), corpus)
        argv = {"stats": ["--flows", str(corpus)],
                "synth": ["--classes", "2", "--flows-per-class", "1",
                          "--seed", "1"],
                "ingest": ["--pcap", str(tmp_path / "x.pcap")]}[command]
        argv += ["--out", str(tmp_path / "out")]
        argv[argv.index(directory) + 1] = str(tmp_path)
        code, _, err = run(capsys, command, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_synth_negative_seed_is_data_error(self, capsys, tmp_path):
        out = tmp_path / "s.flows"
        code, _, err = run(capsys, "synth", "--classes", "2",
                           "--flows-per-class", "1", "--seed", "-1",
                           "--out", str(out))
        assert code == 2
        assert "seed must be >= 0" in err
        assert not out.exists()

    def test_bad_sampling_params(self, capsys, tmp_path):
        f = tmp_path / "x.flows"
        f.write_text('{"v": 1, "format": "flows"}\n')
        code, _, err = run(capsys, "sample", "--flows", str(f),
                           "--out", str(tmp_path / "s.jsonl"),
                           "--method", "incremental", "--params", "8,oops,10",
                           "--seed", "1")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["--method", "random", "--params", "0.5",
         "--copies", "1000000000000"],
        ["--method", "incremental", "--params", "8,1.2,10",
         "--window", "1000000000000"],
    ], ids=["random-copies", "incremental-window"])
    def test_oversized_sampling_is_data_error(self, tmp_path, argv):
        corpus, out = tmp_path / "c.flows", tmp_path / "s.jsonl"
        write_flows(generate(3, 12, seed=5), corpus)
        result = run_capped("sample", "--flows", str(corpus),
                            "--out", str(out), *argv, "--seed", "1")
        assert result.returncode == 2, result.stderr
        err = result.stderr
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "sampled indices" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1e308", "1e306",
                                       "1e300", "1e10"])
    def test_synth_bad_difficulty_is_data_error(self, capsys, tmp_path,
                                                value):
        out = tmp_path / "d.flows"
        code, _, err = run(capsys, "synth", "--classes", "3",
                           "--flows-per-class", "2", "--seed", "1",
                           "--difficulty", value, "--out", str(out))
        assert code == 2
        assert "difficulty" in err
        assert not out.exists()

    def test_corrupt_flow_file(self, capsys, tmp_path):
        f = tmp_path / "bad.flows"
        f.write_text("garbage\n")
        code, _, err = run(capsys, "stats", "--flows", str(f),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2

    @pytest.mark.parametrize("first_time, message",
                             [(float("nan"), "non-finite rel_time"),
                              (1e9, "rel_time decreases")],
                             ids=["nan-time", "decreasing-time"])
    def test_invalid_packet_times_are_data_errors(self, capsys, tmp_path,
                                                   first_time, message):
        # a NaN time, then a first packet later than the second
        f = tmp_path / "bad.flows"
        write_flows(generate(2, 1, seed=5), f)
        header, first, second = f.read_text().splitlines()
        rec = json.loads(first)
        times = np.frombuffer(base64.b64decode(rec["times"]), "<f8").copy()
        times[0] = first_time
        rec["times"] = base64.b64encode(times.tobytes()).decode()
        f.write_text("\n".join([header, json.dumps(rec), second]) + "\n")
        code, _, err = run(capsys, "stats", "--flows", str(f),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "line 2: " + message in err

    def test_v1_flow_file_is_data_error(self, capsys, tmp_path):
        # packets as [rel_time, length] pairs, as schema 1 stored them
        f, out = tmp_path / "old.flows", tmp_path / "o.csv"
        f.write_text('{"v": 1, "format": "flows"}\n{"v": 1, "id": "f0", '
                     '"tuple": {"src": "10.0.0.1", "dst": "10.0.0.2", '
                     '"sport": 1234, "dport": 443, "proto": "udp"}, '
                     '"label": null, "pkts": [[0.0, 100]]}\n')
        code, _, err = run(capsys, "stats", "--flows", str(f),
                           "--out", str(out))
        assert code == 2
        assert err == "error: line 1: unsupported schema version 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("times", "AAAA!AAAAAAA", "times is not base64"),
        ("lengths", "ZAAAAAAAAAA", "lengths is not base64"),
        ("times", "AAAAAAAAAA==", "times holds 7 bytes"),
        ("lengths", "ZAAAAAAAAAA=", r"\d+ times but 1 lengths"),
        ("times", 5, "times must be a base64 string"),
        ("times", "", "0 times but"),
        ("v", 1, "record schema version 1 is not the header's 2"),
        ("v", 2.0, "record schema version 2.0 is not the header's 2"),
    ], ids=["non-base64", "padding", "7 bytes", "unequal", "number", "empty",
            "record v1", "record v2.0"])
    def test_v2_column_faults_are_data_errors(self, capsys, tmp_path, key,
                                              value, message):
        f = tmp_path / "bad.flows"
        write_flows(generate(2, 1, seed=5), f)
        header, first, second = f.read_text().splitlines()
        first = json.dumps({**json.loads(first), key: value})
        f.write_text("\n".join([header, first, second]) + "\n")
        code, _, err = run(capsys, "stats", "--flows", str(f),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search("line 2: " + message, err)


class TestIngestCommand:
    def test_pcap_to_flows(self, capsys, tmp_path):
        frames = [(pc.udp_frame("10.0.0.1", "10.0.0.2", 1000, 443, 50),
                   0.01 * i) for i in range(120)]
        cap = tmp_path / "t.pcap"
        cap.write_bytes(pc.pcap(frames))
        out = tmp_path / "t.flows"
        code, stdout, _ = run(capsys, "ingest", "--pcap", str(cap),
                              "--out", str(out))
        assert code == 0
        assert "decoded 120" in stdout
        assert len(read_flows(out)) == 1
        manifest = json.loads((tmp_path / "t.flows.manifest.json").read_text())
        assert manifest["subcommand"] == "ingest"
        assert str(cap) in manifest["inputs"]

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_min_packets_below_one_is_usage_error(self, capsys, tmp_path,
                                                  value):
        frames = [(pc.udp_frame("10.0.0.1", "10.0.0.2", 1000, 443, 50),
                   0.01 * i) for i in range(5)]
        cap = tmp_path / "t.pcap"
        cap.write_bytes(pc.pcap(frames))
        out = tmp_path / "t.flows"
        code, _, err = run(capsys, "ingest", "--pcap", str(cap),
                           "--out", str(out), "--min-packets", value)
        assert code == 1
        assert "--min-packets" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_timeout_not_positive_is_usage_error(self, capsys, tmp_path,
                                                 value):
        # a 499 s gap: --timeout nan used to keep both packets in one flow
        frames = [(pc.udp_frame("10.0.0.1", "10.0.0.2", 1000, 443, 50), t)
                  for t in (1.0, 500.0)]
        cap = tmp_path / "t.pcap"
        cap.write_bytes(pc.pcap(frames))
        out = tmp_path / "t.flows"
        code, _, err = run(capsys, "ingest", "--pcap", str(cap),
                           "--out", str(out), "--min-packets", "1",
                           "--timeout", value)
        assert code == 1
        assert "--timeout" in err
        assert not out.exists()

    def test_link_type_not_ethernet_is_data_error(self, capsys, tmp_path):
        # five records of a Linux cooked capture (link type 113), which
        # read as Ethernet would all be skipped as non-ipv4
        frame = pc.udp_frame("10.0.0.1", "10.0.0.2", 1000, 443, 50)
        cap = tmp_path / "cooked.pcap"
        cap.write_bytes(pc.global_header(linktype=113) + b"".join(
            pc.record(frame, 1, 1000 * i) for i in range(5)))
        out = tmp_path / "o.flows"
        code, stdout, err = run(capsys, "ingest", "--pcap", str(cap),
                                "--out", str(out), "--min-packets", "1")
        assert code == 2
        assert "link type 113" in err and stdout == ""
        assert not out.exists()
        assert not (tmp_path / "o.flows.manifest.json").exists()

    def test_truncated_pcap_is_data_error(self, capsys, tmp_path):
        cap = tmp_path / "bad.pcap"
        cap.write_bytes(pc.global_header()[:10])
        code, _, err = run(capsys, "ingest", "--pcap", str(cap),
                           "--out", str(tmp_path / "o.flows"))
        assert code == 2


def pipe_end(fifo, mode, use):
    """Start a thread that opens the FIFO at fifo in mode and calls use on
    the open file. Returns a function that lets a thread still waiting in
    open() go, by opening the other end once, and joins it."""
    def run_end():
        try:
            with open(fifo, mode) as fh:
                use(fh)
        except BrokenPipeError:  # the program closed its end early
            pass

    thread = threading.Thread(target=run_end, daemon=True)
    thread.start()
    other = os.O_WRONLY if "r" in mode else os.O_RDONLY

    def finish():
        deadline = time.monotonic() + 60
        while thread.is_alive() and time.monotonic() < deadline:
            try:
                os.close(os.open(fifo, other | os.O_NONBLOCK))
            except OSError:  # ENXIO: the thread has not opened its end yet
                pass
            thread.join(0.05)
        assert not thread.is_alive()
    return finish


PIPE_REFUSED = "not a regular file (a manifest hashes regular files only)"


class TestPipes:
    """A manifest hashes its command's inputs and output. The hash and the
    parse cannot both read a pipe, nor can a pipe written be read back, so
    a pipe is refused (exit 2); ingest reads its capture once, so a piped
    capture works there. The refused commands run in a child process,
    which a program that blocks on a pipe cannot hang."""

    @pytest.fixture
    def corpus(self, tmp_path):
        path = tmp_path / "c.flows"
        write_flows(generate(2, 3, seed=5), path)
        return path

    def test_piped_input_is_refused(self, tmp_path, corpus):
        fifo, out = tmp_path / "in.pipe", tmp_path / "s.csv"
        os.mkfifo(fifo)
        finish = pipe_end(fifo, "wb", lambda fh: fh.write(corpus.read_bytes()))
        try:
            done = run_capped("stats", "--flows", str(fifo), "--out",
                              str(out), timeout=60)
        finally:
            finish()
        assert done.returncode == 2, done.stderr
        assert done.stderr == f"error: {fifo}: {PIPE_REFUSED}\n"
        assert not out.exists()

    def test_piped_output_is_refused(self, tmp_path, corpus):
        fifo = tmp_path / "out.pipe"
        os.mkfifo(fifo)
        got = []
        finish = pipe_end(fifo, "rb", lambda fh: got.append(fh.read()))
        try:
            done = run_capped("stats", "--flows", str(corpus), "--out",
                              str(fifo), timeout=60)
        finally:
            finish()
        assert done.returncode == 2, done.stderr
        assert done.stderr == f"error: {fifo}: {PIPE_REFUSED}\n"
        assert got[0].startswith(b"flow_id,label,")
        assert not Path(f"{fifo}.manifest.json").exists()

    def test_piped_capture_is_ingested(self, capsys, tmp_path):
        frames = [(pc.udp_frame("10.0.0.1", "10.0.0.2", 1000, 443, 50),
                   0.01 * i) for i in range(120)]
        cap, fifo = tmp_path / "t.pcap", tmp_path / "t.pipe"
        cap.write_bytes(pc.pcap(frames))
        os.mkfifo(fifo)
        finish = pipe_end(fifo, "wb", lambda fh: fh.write(cap.read_bytes()))
        try:
            piped = run(capsys, "ingest", "--pcap", str(fifo), "--out",
                        str(tmp_path / "pipe.flows"), "--min-packets", "1")
        finally:
            finish()
        from_file = run(capsys, "ingest", "--pcap", str(cap), "--out",
                        str(tmp_path / "file.flows"), "--min-packets", "1")
        assert piped == from_file == (0, "decoded 120 packets (skipped {}), "
                                      "wrote 1 flows\n", "")
        assert (tmp_path / "pipe.flows").read_bytes() == \
            (tmp_path / "file.flows").read_bytes()
        digest = hashlib.sha256(cap.read_bytes()).hexdigest()
        for source, out in ((fifo, "pipe.flows"), (cap, "file.flows")):
            record = json.loads(
                (tmp_path / f"{out}.manifest.json").read_text())
            assert record["inputs"] == {str(source): digest}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synth corpus plus config shared by the round-trip tests."""
    root = tmp_path_factory.mktemp("cliws")
    flows_path = root / "corpus.flows"
    code = main(["synth", "--classes", "2", "--flows-per-class", "4",
                 "--seed", "5", "--out", str(flows_path)])
    assert code == 0
    cfg = {"sampling": {"method": "fixed", "l": 2}, "seed": 3, "window": 10,
           "copies": 2, "pretrain_epochs": 2, "retrain_epochs": 2,
           "batch_size": 8}
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return root, flows_path, cfg_path


def pretrained_model(workspace):
    """The workspace's pretrained checkpoint, made on first use."""
    root, flows_path, cfg_path = workspace
    pre = root / "pre.ckpt"
    if not pre.exists():
        assert main(["--quiet", "pretrain", "--flows", str(flows_path),
                     "--config", str(cfg_path), "--out", str(pre)]) == 0
    return pre


def classifier_model(workspace):
    """A classifier retrained from the workspace's pretrained checkpoint."""
    root, flows_path, _ = workspace
    clf = root / "c01.ckpt"
    if not clf.exists():
        assert main(["--quiet", "retrain", "--model",
                     str(pretrained_model(workspace)), "--flows",
                     str(flows_path), "--classes", "c0,c1",
                     "--out", str(clf)]) == 0
    return clf


def evaluate_report(model, flows_path, report):
    """The evaluate report at model, without its manifest (which names it)."""
    assert main(["--quiet", "evaluate", "--model", str(model), "--flows",
                 str(flows_path), "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    del payload["manifest"]
    return payload


def trunk_entries(path):
    """The p*, rm* and rv* arrays of a checkpoint's trunk, layers 0-13."""
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files if name != "meta"
                and int(re.match(r"[a-z]+(\d+)", name).group(1)) < 14}


def rewrite_meta(src, dst, change):
    """Save the checkpoint at src to dst with change applied to its meta."""
    net, _ = load_checkpoint(src)
    change(net.meta)
    save_checkpoint(net, dst)


class TestPipelineRoundTrip:
    def test_synth_manifest(self, workspace):
        root, flows_path, _ = workspace
        manifest = json.loads(
            (root / "corpus.flows.manifest.json").read_text())
        assert manifest["seed"] == 5
        digest = manifest["outputs"][str(flows_path)]
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_stats(self, capsys, workspace):
        root, flows_path, _ = workspace
        out = root / "stats.csv"
        code, stdout, _ = run(capsys, "stats", "--flows", str(flows_path),
                              "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("flow_id,label,f_fwd_len_min")
        assert len(out.read_text().splitlines()) == 9  # header + 8 flows
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["flow_id", "label", *FEATURE_NAMES]
        for row, flow in zip(rows[1:], read_flows(flows_path)):
            assert row[:2] == [flow.id, flow.label]
            # plain decimal cells that round-trip to the exact statistics
            assert [float(v) for v in row[2:]] == \
                stat_features(flow).tolist()

    def test_sample(self, capsys, workspace):
        root, flows_path, _ = workspace
        out = root / "sampled.jsonl"
        code, stdout, _ = run(capsys, "sample", "--flows", str(flows_path),
                              "--out", str(out), "--method", "fixed",
                              "--params", "2", "--window", "10",
                              "--copies", "2", "--seed", "3")
        assert code == 0
        assert "wrote 16 sampled copies" in stdout

    def test_train_and_evaluate(self, capsys, workspace):
        root, flows_path, cfg_path = workspace
        pre = root / "pre.ckpt"
        code, _, _ = run(capsys, "pretrain", "--flows", str(flows_path),
                         "--config", str(cfg_path), "--out", str(pre))
        assert code == 0

        clf = root / "clf.ckpt"
        code, stdout, _ = run(capsys, "retrain", "--model", str(pre),
                              "--flows", str(flows_path),
                              "--classes", "c0,c1", "--out", str(clf),
                              "--config", str(cfg_path))
        assert code == 0
        assert "c0" in stdout

        report = root / "report.json"
        code, stdout, _ = run(capsys, "evaluate", "--model", str(clf),
                              "--flows", str(flows_path),
                              "--report", str(report))
        assert code == 0
        assert "macro accuracy" in stdout
        payload = json.loads(report.read_text())
        assert payload["classes"] == ["c0", "c1"]
        assert 0.0 <= payload["macro_accuracy"] <= 1.0
        assert payload["manifest"]["seed"] == 3
        digest = hashlib.sha256(flows_path.read_bytes()).hexdigest()
        assert payload["manifest"]["inputs"] == {str(flows_path): digest}

    def test_sample_incremental_derives_no_generator(self, capsys, workspace,
                                                     monkeypatch):
        # only random sampling draws from a flow's generator
        root, flows_path, _ = workspace
        argv = ["sample", "--flows", str(flows_path), "--method",
                "incremental", "--params", "2,1.2,3", "--window", "10",
                "--copies", "2", "--seed", "3"]
        want = root / "inc-want.jsonl"
        assert run(capsys, *argv, "--out", str(want))[0] == 0

        def refuse(seed, flow_id):
            raise AssertionError("derive_rng called")

        monkeypatch.setattr(sampling, "derive_rng", refuse)
        got = root / "inc-got.jsonl"
        code, stdout, _ = run(capsys, *argv, "--out", str(got))
        assert code == 0
        assert "wrote 16 sampled copies" in stdout
        assert got.read_bytes() == want.read_bytes()

    def test_sample_negative_seed(self, capsys, workspace):
        # the per-flow generator hashes the seed, so any integer works
        root, flows_path, _ = workspace
        code, stdout, _ = run(capsys, "sample", "--flows", str(flows_path),
                              "--out", str(root / "neg.jsonl"), "--method",
                              "random", "--params", "0.5", "--window", "10",
                              "--copies", "2", "--seed", "-4")
        assert code == 0
        assert "wrote 16 sampled copies" in stdout

    def test_sample_fixed_step_beyond_int64(self, capsys, workspace):
        root, flows_path, _ = workspace
        code, stdout, _ = run(capsys, "sample", "--flows", str(flows_path),
                              "--out", str(root / "huge.jsonl"),
                              "--method", "fixed",
                              "--params", "100000000000000000000",
                              "--seed", "3")
        assert code == 0
        assert "wrote 8 sampled copies" in stdout  # index 0 of each flow

    def test_sample_incremental_step_beyond_float(self, capsys, workspace):
        root, flows_path, _ = workspace
        code, stdout, _ = run(capsys, "sample", "--flows", str(flows_path),
                              "--out", str(root / "huge-inc.jsonl"),
                              "--method", "incremental",
                              "--params", f"{10 ** 400},1.5,2",
                              "--seed", "3")
        assert code == 0
        assert "wrote 8 sampled copies" in stdout  # index 0 of each flow

    def test_pretrain_incremental_step_beyond_float(self, capsys, workspace,
                                                     tmp_path):
        _, flows_path, cfg_path = workspace
        cfg = {**json.loads(cfg_path.read_text()), "pretrain_epochs": 1,
               "sampling": {"method": "incremental", "l0": 10 ** 400,
                            "alpha": 1.5, "beta": 2}}
        cfg_file = tmp_path / "huge.json"
        cfg_file.write_text(json.dumps(cfg))
        out = tmp_path / "huge.ckpt"
        # 8 flows, one copy each, batch size 8: one train step
        code, _, _ = run(capsys, "pretrain", "--flows", str(flows_path),
                         "--config", str(cfg_file), "--out", str(out))
        assert code == 0
        assert out.exists()

    def test_sample_window_zero_is_usage_error(self, capsys, workspace):
        root, flows_path, _ = workspace
        code, _, err = run(capsys, "sample", "--flows", str(flows_path),
                           "--out", str(root / "w0.jsonl"), "--method",
                           "fixed", "--params", "2", "--window", "0",
                           "--seed", "3")
        assert code == 1
        assert "--window" in err

    def test_diverging_pretrain_is_data_error(self, capsys, workspace):
        root, flows_path, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["lr"] = 1e100  # the first Adam step overflows the next forward
        bad_cfg = root / "diverge.json"
        bad_cfg.write_text(json.dumps(cfg))
        out = root / "nan.ckpt"
        with np.errstate(all="ignore"):
            code, _, err = run(capsys, "pretrain", "--flows", str(flows_path),
                               "--config", str(bad_cfg), "--out", str(out))
        assert code == 2
        assert "epoch 1/2, batch" in err
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"epochs": 2}, {"copies": "2"}, {"sampling": "fixed"},
        # one train step: its NaN parameters were saved, exit 0
        {"lr": float("nan"), "pretrain_epochs": 1, "batch_size": 64},
        {"window": 5},
        # wrong types must not be converted (2.7 to step 2, true to step 1)
        {"sampling": {"method": "fixed", "l": 2.7}},
        {"sampling": {"method": "incremental", "l0": True, "alpha": 1.2,
                      "beta": 10}},
        {"sampling": {"method": "incremental", "l0": 2, "alpha": 1.2,
                      "beta": "10"}},
        {"sampling": {"method": "random", "p": "0.1"}},
        {"sampling": {"method": "fixed", "l": 0}},
        {"sampling": {"method": "incremental", "l0": 2, "alpha": 0.5,
                      "beta": 10}},
        {"sampling": {"method": "incremental", "l0": 2, "alpha": float("nan"),
                      "beta": 10}},
        {"sampling": {"method": "random", "p": 0}},
        {"seed": -3},
        # every batch would be a skipped singleton: nothing trained, exit 0
        {"batch_size": 1}],
        ids=["unknown-key", "string-count", "sampling-not-object", "nan-lr",
             "window-too-small", "float-step", "bool-step", "string-stage",
             "string-p", "zero-step", "growth-below-one", "nan-growth",
             "zero-p", "negative-seed", "batch-size-one"])
    def test_bad_config_is_data_error(self, capsys, workspace, tmp_path,
                                      change):
        _, flows_path, cfg_path = workspace
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps({**json.loads(cfg_path.read_text()),
                                       **change}))
        out = tmp_path / "bad.ckpt"
        code, _, err = run(capsys, "pretrain", "--flows", str(flows_path),
                           "--config", str(bad_cfg), "--out", str(out))
        assert code == 2
        assert next(iter(change)) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "retrain"])
    def test_config_without_sampling_is_data_error(self, capsys, workspace,
                                                   tmp_path, command):
        root, flows_path, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        del cfg["sampling"]
        bad_cfg = tmp_path / "nosampling.json"
        bad_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "out.ckpt"
        argv = ["--flows", str(flows_path), "--config", str(bad_cfg),
                "--out", str(out)]
        if command == "retrain":
            argv += ["--model", str(pretrained_model(workspace)),
                     "--classes", "c0,c1"]
        code, _, err = run(capsys, command, *argv)
        assert code == 2
        assert "sampling" in err
        assert not out.exists()

    @pytest.mark.parametrize("arg", ["--flows", "--config"])
    def test_binary_input_is_data_error(self, capsys, workspace, tmp_path,
                                        arg):
        _, flows_path, cfg_path = workspace
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfe\x00\x81 not text")
        inputs = {"--flows": flows_path, "--config": cfg_path, arg: binary}
        out = tmp_path / "out.ckpt"
        code, _, err = run(capsys, "pretrain",
                           "--flows", str(inputs["--flows"]),
                           "--config", str(inputs["--config"]),
                           "--out", str(out))
        assert code == 2
        assert "not a UTF-8" in err
        assert not out.exists()

    def test_unallocatable_dataset_is_data_error(self, capsys, workspace,
                                                 tmp_path, monkeypatch):
        _, flows_path, cfg_path = workspace

        def huge(flow, spec, window, copies, rng):
            return np.broadcast_to(np.arange(window), (2 ** 40, window))

        monkeypatch.setattr(pipeline, "augment", huge)
        cfg_file = tmp_path / "w45.json"
        cfg_file.write_text(json.dumps({**json.loads(cfg_path.read_text()),
                                        "window": 45}))
        out = tmp_path / "huge.ckpt"
        code, _, err = run(capsys, "pretrain", "--flows", str(flows_path),
                           "--config", str(cfg_file), "--out", str(out))
        assert code == 2
        assert "GiB of network inputs" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_internal_value_error_is_not_a_data_error(self, workspace,
                                                      monkeypatch):
        _, flows_path, _ = workspace

        def broken(flows):
            raise ValueError("internal bug")

        monkeypatch.setattr(pipeline, "flow_stat_vectors", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["baseline-knn", "--train", str(flows_path),
                  "--test", str(flows_path)])

    def test_evaluate_garbage_checkpoint_is_data_error(self, capsys,
                                                       workspace):
        root, flows_path, _ = workspace
        garbage = root / "garbage.ckpt"
        garbage.write_bytes(b"PK\x03\x04 truncated")
        code, _, err = run(capsys, "evaluate", "--model", str(garbage),
                           "--flows", str(flows_path),
                           "--report", str(root / "g.json"))
        assert code == 2
        assert "not a checkpoint" in err

    def test_evaluate_missing_model_names_path(self, capsys, workspace):
        root, flows_path, _ = workspace
        missing = root / "absent.ckpt"
        code, _, err = run(capsys, "evaluate", "--model", str(missing),
                           "--flows", str(flows_path),
                           "--report", str(root / "r.json"))
        assert code == 2
        assert str(missing) in err

    @pytest.mark.parametrize("command", ["retrain", "evaluate"])
    def test_checkpoint_window_beyond_memory_is_data_error(
            self, capsys, workspace, tmp_path, command):
        _, flows_path, _ = workspace
        model = pretrained_model(workspace) if command == "retrain" \
            else classifier_model(workspace)
        huge = tmp_path / "huge.ckpt"
        rewrite_meta(model, huge,
                     lambda meta: meta["train_config"].update(window=10 ** 12))
        out = tmp_path / "out"
        argv = ["--classes", "c0,c1", "--out"] if command == "retrain" \
            else ["--report"]
        code, _, err = run(capsys, command, "--model", str(huge), "--flows",
                           str(flows_path), *argv, str(out))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "window 1000000000000" in err
        assert not out.exists()

    # 1e39 is finite in float64 but not in float32, where evaluate forwards;
    # 1e300 overflows the float64 logits too; an L0 weight of 1e300 times an
    # L1 gamma of 1e300 overflows the batch-norm fold itself
    @pytest.mark.parametrize("edits", [
        pytest.param([(-1, "weight", 1e39)], id="1e+39"),
        pytest.param([(-1, "weight", 1e300)], id="1e+300"),
        pytest.param([(0, "weight", 1e300), (1, "gamma", 1e300)],
                     id="fold-1e+300"),
    ])
    def test_evaluate_overflowing_weight_is_data_error(self, capsys,
                                                       workspace, tmp_path,
                                                       edits):
        _, flows_path, _ = workspace
        net, _ = load_checkpoint(classifier_model(workspace))
        for index, name, value in edits:
            getattr(net.layers[index], name).value.flat[0] = value
        model = tmp_path / "big.ckpt"
        save_checkpoint(net, model)
        report = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "evaluate", "--model", str(model),
                               "--flows", str(flows_path),
                               "--report", str(report))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not finite" in err
        assert [str(w.message) for w in caught] == []
        assert not report.exists()

    # a running variance is a mean of squares; -1e-5 is -eps, where
    # 1/sqrt(var + eps) divides by zero
    @pytest.mark.parametrize("command,flags,value", [
        ("evaluate", [], -3.0), ("evaluate", [], -1e-5),
        ("retrain", [], -3.0), ("retrain", ["--freeze-trunk"], -3.0)],
        ids=["evaluate--3", "evaluate--1e-5", "retrain", "retrain-frozen"])
    def test_negative_running_var_is_data_error(self, capsys, workspace,
                                                tmp_path, command, flags,
                                                value):
        _, flows_path, _ = workspace
        net, _ = load_checkpoint(pretrained_model(workspace)
                                 if command == "retrain"
                                 else classifier_model(workspace))
        net.layers[1].running_var[0] = value
        model, out = tmp_path / "neg.ckpt", tmp_path / "out"
        save_checkpoint(net, model)
        argv = ["--classes", "c0,c1", "--out"] if command == "retrain" \
            else ["--report"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, command, "--model", str(model),
                               "--flows", str(flows_path), *flags, *argv,
                               str(out))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'rv1'" in err
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    def test_retrain_freeze_trunk(self, capsys, workspace, tmp_path):
        _, flows_path, _ = workspace
        pre = pretrained_model(workspace)
        clf = tmp_path / "frozen.ckpt"
        code, _, _ = run(capsys, "--quiet", "retrain", "--model", str(pre),
                         "--flows", str(flows_path), "--classes", "c0,c1",
                         "--freeze-trunk", "--out", str(clf))
        assert code == 0
        want, got = trunk_entries(pre), trunk_entries(clf)
        assert len(want) == 26  # 3 convs x 2 params, 5 batch norms x 4
        assert {k: v.tobytes() for k, v in got.items()} \
            == {k: v.tobytes() for k, v in want.items()}
        assert load_checkpoint(clf)[1]["train_config"]["freeze_trunk"] is True
        evaluate_report(clf, flows_path, tmp_path / "r.json")

    def test_freeze_trunk_without_transfer_trains_trunk(self, capsys,
                                                        workspace, tmp_path):
        # freezing applies only to a transferred trunk
        _, flows_path, cfg_path = workspace
        clf, init = tmp_path / "clf.ckpt", tmp_path / "init.ckpt"
        code, _, _ = run(capsys, "--quiet", "retrain",
                         "--model", str(pretrained_model(workspace)),
                         "--flows", str(flows_path), "--classes", "c0,c1",
                         "--no-transfer", "--freeze-trunk", "--out", str(clf))
        assert code == 0
        # retrain draws the classifier's initial weights from seed + 2
        seed = json.loads(cfg_path.read_text())["seed"]
        save_checkpoint(init_params(build_classifier(10, 2), seed + 2), init)
        before, after = trunk_entries(init), trunk_entries(clf)
        assert before.keys() == after.keys()
        assert all(not np.array_equal(before[k], after[k]) for k in before)
        # and the checkpoint does not claim a frozen trunk
        assert load_checkpoint(clf)[1]["train_config"]["freeze_trunk"] \
            is False

    def test_evaluate_rejects_regressor_checkpoint(self, capsys, workspace):
        root, flows_path, _ = workspace
        code, _, err = run(capsys, "evaluate",
                           "--model", str(pretrained_model(workspace)),
                           "--flows", str(flows_path),
                           "--report", str(root / "r2.json"))
        assert code == 2
        assert "classifier" in err

    def test_config_with_retired_key(self, capsys, workspace, tmp_path):
        # earlier versions read and wrote labeled_flows_per_class
        _, flows_path, cfg_path = workspace
        cfg, out = tmp_path / "old.json", tmp_path / "out.ckpt"
        cfg.write_text(json.dumps({**json.loads(cfg_path.read_text()),
                                   "labeled_flows_per_class": 20}))
        code, _, err = run(capsys, "pretrain", "--flows", str(flows_path),
                           "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert "unknown config keys ['labeled_flows_per_class']" in err
        assert not out.exists()

    def test_checkpoints_with_retired_key(self, capsys, workspace, tmp_path):
        # earlier versions wrote labeled_flows_per_class into train_config
        _, flows_path, _ = workspace

        def add_key(meta):
            meta["train_config"]["labeled_flows_per_class"] = 20

        old_pre, old_clf = tmp_path / "old_pre.ckpt", tmp_path / "old_clf.ckpt"
        rewrite_meta(pretrained_model(workspace), old_pre, add_key)
        rewrite_meta(classifier_model(workspace), old_clf, add_key)
        out = tmp_path / "out"
        for argv in (["retrain", "--model", str(old_pre), "--classes",
                      "c0,c1", "--out", str(out)],
                     ["evaluate", "--model", str(old_clf), "--report",
                      str(out)]):
            code, _, err = run(capsys, *argv, "--flows", str(flows_path))
            assert code == 2
            assert "unknown config keys ['labeled_flows_per_class']" in err
            assert not out.exists()

    def test_evaluate_rejects_class_list_of_wrong_length(self, capsys,
                                                         workspace):
        root, flows_path, _ = workspace
        bad = root / "three_names.ckpt"
        rewrite_meta(classifier_model(workspace), bad,
                     lambda m: m.update(classes=["c0", "c1", "c2"]))
        code, _, err = run(capsys, "evaluate", "--model", str(bad),
                           "--flows", str(flows_path),
                           "--report", str(root / "bad.json"))
        assert code == 2
        # the class list gives the head's width, which the file's is not
        assert "3 outputs needs 'p20_0' of shape (128, 3)" in err

    def test_evaluate_rejects_null_class_list(self, capsys, workspace):
        root, flows_path, _ = workspace
        bad = root / "null_classes.ckpt"
        rewrite_meta(classifier_model(workspace), bad,
                     lambda m: m.update(classes=None))
        code, _, err = run(capsys, "evaluate", "--model", str(bad),
                           "--flows", str(flows_path),
                           "--report", str(root / "null.json"))
        assert code == 2
        assert "classes None is not a non-empty list" in err

    # each key a checkpoint must hold, missing or of the wrong type, and a
    # file with the metadata that version 1 wrote
    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda m: m.update(checkpoint_version=1, window=10,
                                        num_outputs=2,
                                        feature_order_version=1),
                     "unsupported checkpoint version 1", id="version-1"),
        pytest.param(lambda m: m.pop("checkpoint_version"),
                     "unsupported checkpoint version None",
                     id="version-missing"),
        pytest.param(lambda m: m.update(checkpoint_version="2"),
                     "unsupported checkpoint version '2'",
                     id="version-string"),
        pytest.param(lambda m: m.update(checkpoint_version=2.0),
                     "unsupported checkpoint version 2.0", id="version-float"),
        pytest.param(lambda m: m.pop("kind"), "unknown checkpoint kind None",
                     id="kind-missing"),
        pytest.param(lambda m: m.update(kind=1), "unknown checkpoint kind 1",
                     id="kind-number"),
        pytest.param(lambda m: m.pop("train_config"),
                     "train_config None is not an object",
                     id="train_config-missing"),
        pytest.param(lambda m: m.update(train_config=[]),
                     "train_config [] is not an object",
                     id="train_config-list"),
        pytest.param(lambda m: m["train_config"].pop("window"),
                     "bad metadata: train_config window None is not an "
                     "integer",
                     id="window-missing"),
        pytest.param(lambda m: m["train_config"].update(window="10"),
                     "bad metadata: train_config window '10' is not an "
                     "integer",
                     id="window-string"),
        pytest.param(lambda m: m.pop("classes"),
                     "classes None is not a non-empty list of distinct names",
                     id="classes-missing"),
        pytest.param(lambda m: m.update(classes="c0,c1"),
                     "classes 'c0,c1' is not a non-empty list of "
                     "distinct names",
                     id="classes-string"),
        pytest.param(lambda m: m.pop("pretrained"),
                     "bad metadata: pretrained is missing, not true or false",
                     id="pretrained-missing"),
        pytest.param(lambda m: m.update(pretrained=None),
                     "bad metadata: pretrained is None, not true or false",
                     id="pretrained-null"),
        pytest.param(lambda m: m.update(pretrained=1),
                     "bad metadata: pretrained is 1, not true or false",
                     id="pretrained-number"),
        pytest.param(lambda m: m.update(pretrained="true"),
                     "bad metadata: pretrained is 'true', not true or false",
                     id="pretrained-string"),
    ])
    @pytest.mark.parametrize("command", ["retrain", "evaluate"])
    def test_checkpoint_schema_refused(self, capsys, workspace, tmp_path,
                                       command, edit, message):
        _, flows_path, _ = workspace
        model, out = tmp_path / "bad.ckpt", tmp_path / "out"
        model.write_bytes(classifier_model(workspace).read_bytes())
        edit_meta(model, edit)
        capsys.readouterr()  # what making the workspace's models printed
        argv = ["--classes", "c0,c1", "--out"] if command == "retrain" \
            else ["--report"]
        code, stdout, err = run(capsys, "--quiet", command, "--model",
                                str(model), "--flows", str(flows_path),
                                *argv, str(out))
        assert code == 2
        assert err == f"error: {model}: {message}\n"
        assert "Traceback" not in err and stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ckpt"]

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("command", ["retrain", "evaluate"])
    def test_regressor_with_pretrained_key_refused(self, capsys, workspace,
                                                   tmp_path, command, value):
        _, flows_path, _ = workspace
        model, out = tmp_path / "bad.ckpt", tmp_path / "out"
        model.write_bytes(pretrained_model(workspace).read_bytes())
        edit_meta(model, lambda m: m.update(pretrained=value))
        capsys.readouterr()  # what making the workspace's models printed
        argv = ["--classes", "c0,c1", "--out"] if command == "retrain" \
            else ["--report"]
        code, stdout, err = run(capsys, "--quiet", command, "--model",
                                str(model), "--flows", str(flows_path),
                                *argv, str(out))
        assert code == 2
        assert err == (f"error: {model}: bad metadata: a regressor has no "
                       "pretrained key\n")
        assert "Traceback" not in err and stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ckpt"]

    @pytest.mark.parametrize("sampling,unknown", [
        ({"method": "random", "p": 0.1, "l": 5}, "['l']"),
        ({"method": "fixed", "l": 2, "betta": 1}, "['betta']")],
        ids=["random-l", "fixed-betta"])
    def test_config_unknown_sampling_key(self, capsys, workspace, tmp_path,
                                         sampling, unknown):
        _, flows_path, cfg_path = workspace
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.ckpt"
        cfg.write_text(json.dumps({**json.loads(cfg_path.read_text()),
                                   "sampling": sampling}))
        code, _, err = run(capsys, "pretrain", "--flows", str(flows_path),
                           "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert f"sampling keys {unknown}" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,label", [
        ("retrain", ["x"]), ("evaluate", ["x"]), ("baseline-knn", ["x"]),
        ("baseline-knn", 5)], ids=["retrain", "evaluate", "knn-list",
                                   "knn-int"])
    def test_flow_label_not_string_is_data_error(self, capsys, workspace,
                                                 tmp_path, command, label):
        _, flows_path, _ = workspace
        lines = flows_path.read_text().splitlines()
        rec = json.loads(lines[3])
        rec["label"] = label
        lines[3] = json.dumps(rec)
        bad = tmp_path / "bad.flows"
        bad.write_text("\n".join(lines) + "\n")
        argv = {
            "retrain": ["--model", str(pretrained_model(workspace)),
                        "--flows", str(bad), "--classes", "c0,c1",
                        "--out", str(tmp_path / "c.ckpt")],
            "evaluate": ["--model", str(classifier_model(workspace)),
                         "--flows", str(bad),
                         "--report", str(tmp_path / "r.json")],
            "baseline-knn": ["--train", str(bad), "--test", str(bad)],
        }[command]
        code, _, err = run(capsys, command, *argv)
        assert code == 2
        assert "line 4: label must be a string or null" in err

    def test_baseline_knn(self, capsys, workspace):
        root, flows_path, _ = workspace
        code, stdout, _ = run(capsys, "baseline-knn",
                              "--train", str(flows_path),
                              "--test", str(flows_path), "--k", "1")
        assert code == 0
        payload = json.loads(stdout)
        # k=1 on identical train and test memorizes perfectly
        assert payload["macro_accuracy"] == 1.0

    def test_baseline_knn_k_zero_is_usage_error(self, capsys, workspace):
        _, flows_path, _ = workspace
        code, _, err = run(capsys, "baseline-knn", "--train", str(flows_path),
                           "--test", str(flows_path), "--k", "0")
        assert code == 1
        assert "--k" in err

    def test_baseline_knn_counts_classes_missing_from_test(self, capsys,
                                                           tmp_path):
        corpus = generate(3, 4, seed=5)
        train, test = tmp_path / "train.flows", tmp_path / "test.flows"
        write_flows(corpus, train)
        write_flows([f for f in corpus if f.label != "c2"], test)
        code, stdout, _ = run(capsys, "baseline-knn", "--train", str(train),
                              "--test", str(test), "--k", "3")
        assert code == 0
        payload = json.loads(stdout)
        assert sorted(payload["per_class"]) == ["c0", "c1", "c2"]
        assert len(payload["confusion"]) == 3
        assert sum(map(sum, payload["confusion"])) == 8  # every test flow

    def test_baseline_knn_unlabeled_flow_is_data_error(self, capsys,
                                                       tmp_path):
        corpus = generate(2, 3, seed=5)
        corpus[1].label = None
        train, test = tmp_path / "train.flows", tmp_path / "test.flows"
        write_flows(corpus, train)
        write_flows(corpus, test)
        code, _, err = run(capsys, "baseline-knn", "--train", str(train),
                           "--test", str(test))
        assert code == 2
        assert corpus[1].id in err


def test_gradcheck_single_seed(capsys):
    code, stdout, _ = run(capsys, "--quiet", "gradcheck", "--seeds", "1")
    assert code == 0
    assert "PASS" in stdout
    assert "FAIL" not in stdout


@pytest.mark.skipif(worker._usable_cpus() < 2,
                    reason="BLAS runs one thread on one CPU anyway")
def test_pretrain_bits_do_not_depend_on_blas_threads(tmp_path):
    # the CLI pins BLAS to one thread, so a run that leaves BLAS its
    # default thread count writes the bits of one pinned by the environment
    write_flows(generate(2, 3, seed=1), tmp_path / "c.flows")
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"sampling": {"method": "fixed", "l": 2}, "seed": 1, "copies": 20,
         "pretrain_epochs": 1}))
    src = str(Path(sampleflow.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    checkpoints = []
    for pinned in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"pre{len(checkpoints)}.ckpt"
        subprocess.run(
            [sys.executable, "-m", "sampleflow.cli", "--quiet", "pretrain",
             "--flows", "c.flows", "--config", "cfg.json", "--out", str(out)],
            env={**env, **pinned}, cwd=tmp_path, check=True, timeout=300,
            capture_output=True)
        checkpoints.append(out.read_bytes())
    assert checkpoints[0] == checkpoints[1]

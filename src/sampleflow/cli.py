"""Command-line entry point wiring all stages into reproducible runs."""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import (DataError, __version__, features, flows, ingest, manifest,
               pipeline, sampling, synth)
from .manifest import write_manifest
from .neural import gradcheck as gc
from .neural import CheckpointError, load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_sampling(method: str, params: str) -> sampling.SamplingSpec:
    try:
        if method == "fixed":
            return sampling.Fixed(int(params))
        if method == "random":
            return sampling.Random(float(params))
        if method == "incremental":
            l0, alpha, beta = params.split(",")
            return sampling.Incremental(int(l0), float(alpha), int(beta))
    except ValueError as exc:
        raise UsageError(f"bad --params for {method}: {exc}") from exc
    raise UsageError(f"unknown sampling method {method!r}")


def _positive_int(text: str) -> int:
    """argparse type for counts: a bad value is a usage error (exit 1)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for durations: > 0 and not NaN; inf is allowed."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid number {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _load_config(args, fallback: dict | None = None) -> pipeline.TrainConfig:
    """The --config file, else fallback (a checkpoint's train_config), with
    --seed and --freeze-trunk applied over it."""
    source = args.config or "checkpoint train_config"
    cfg = fallback or {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise pipeline.ConfigError(
                f"{source}: not a UTF-8 JSON file ({exc})") from exc
    if not isinstance(cfg, dict):
        raise pipeline.ConfigError(f"{source}: config must be a JSON object")
    cfg = dict(cfg)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if "seed" not in cfg:
        raise UsageError("a seed is required (--seed or config file)")
    if getattr(args, "freeze_trunk", False):
        cfg["freeze_trunk"] = True
    return pipeline.TrainConfig.from_dict(cfg)


def cmd_ingest(args) -> int:
    started = time.time()
    inputs = manifest.Inputs()
    stats = ingest.DecodeStats()
    result = ingest.ingest_pcap(inputs.read_bytes(args.pcap),
                                idle_timeout=args.timeout,
                                min_packets=args.min_packets, stats=stats)
    digests = inputs.digests()
    flows.write_flows(result, args.out)
    write_manifest(args.out, "ingest",
                   {"timeout": args.timeout, "min_packets": args.min_packets},
                   None, digests, started)
    print(f"decoded {stats.decoded} packets "
          f"(skipped {dict(stats.skipped)}), wrote {len(result)} flows")
    return EXIT_OK


def cmd_synth(args) -> int:
    started = time.time()
    result = synth.generate(args.classes, args.flows_per_class, args.seed,
                            difficulty=args.difficulty)
    flows.write_flows(result, args.out)
    write_manifest(args.out, "synth",
                   {"classes": args.classes,
                    "flows_per_class": args.flows_per_class,
                    "difficulty": args.difficulty},
                   args.seed, {}, started)
    print(f"wrote {len(result)} flows")
    return EXIT_OK


def cmd_stats(args) -> int:
    started = time.time()
    in_path = Path(args.flows)
    inputs = manifest.Inputs(in_path)
    flow_list = flows.read_flows(in_path)
    digests = inputs.digests()
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["flow_id", "label", *features.FEATURE_NAMES])
        for f in flow_list:
            vec = features.stat_features(f)
            writer.writerow([f.id, f.label if f.label is not None else "",
                             *vec.tolist()])
    write_manifest(args.out, "stats", {}, None, digests, started)
    print(f"wrote statistics for {len(flow_list)} flows")
    return EXIT_OK


def cmd_sample(args) -> int:
    started = time.time()
    in_path = Path(args.flows)
    inputs = manifest.Inputs(in_path)
    spec = _parse_sampling(args.method, args.params)
    flow_list = flows.read_flows(in_path)
    seeded = isinstance(spec, sampling.Random)  # the others draw nothing
    samples = [(f, sampling.augment(
        f, spec, args.window, args.copies,
        sampling.derive_rng(args.seed, f.id) if seeded else None))
        for f in flow_list]
    digests = inputs.digests()
    sampling.write_sampled(samples, args.out)
    write_manifest(args.out, "sample",
                   {"sampling": sampling.spec_to_dict(spec),
                    "window": args.window, "copies": args.copies},
                   args.seed, digests, started)
    print(f"wrote {sum(len(idx) for _, idx in samples)} sampled copies "
          f"from {len(flow_list)} flows")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    started = time.time()
    in_path = Path(args.flows)
    inputs = manifest.Inputs(in_path)
    cfg = _load_config(args)
    flow_list = flows.read_flows(in_path)
    net, history = pipeline.pretrain(flow_list, cfg)
    digests = inputs.digests()
    save_checkpoint(net, args.out)
    write_manifest(args.out, "pretrain", cfg.to_dict(), cfg.seed, digests,
                   started)
    print(f"pretrained on {len(flow_list)} flows, "
          f"final epoch loss {history[-1]:.6f}")
    return EXIT_OK


def cmd_retrain(args) -> int:
    started = time.time()
    model_path = Path(args.model)
    in_path = Path(args.flows)
    inputs = manifest.Inputs(model_path, in_path)
    pretrained, meta = load_checkpoint(model_path)
    cfg = _load_config(args, fallback=meta["train_config"])
    classes = args.classes.split(",")
    flow_list = flows.read_flows(in_path)
    if args.no_transfer:
        net, history = pipeline.train_supervised_baseline(flow_list, classes,
                                                          cfg)
    else:
        net, history = pipeline.retrain(pretrained, flow_list, classes, cfg)
    digests = inputs.digests()
    save_checkpoint(net, args.out)
    write_manifest(args.out, "retrain", cfg.to_dict(), cfg.seed, digests,
                   started)
    print(f"trained classifier over classes {classes}, "
          f"final epoch loss {history[-1]:.6f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    started = time.time()
    model_path = Path(args.model)
    in_path = Path(args.flows)
    inputs = manifest.Inputs(model_path, in_path)
    model, meta = load_checkpoint(model_path)
    if meta["kind"] != "classifier":
        raise CheckpointError(f"{model_path} is not a classifier checkpoint")
    cfg = pipeline.TrainConfig.from_dict(meta["train_config"])
    flow_list = flows.read_flows(in_path)
    report = pipeline.evaluate(model, flow_list, meta["classes"], cfg)
    digests = inputs.digests()
    payload = report.to_dict()
    payload["manifest"] = {
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "model": str(model_path),
        "inputs": {str(in_path): digests[str(in_path)]},
    }
    Path(args.report).write_text(json.dumps(payload, indent=2) + "\n",
                                 encoding="utf-8")
    write_manifest(args.report, "evaluate", cfg.to_dict(), cfg.seed, digests,
                   started)
    print(f"macro accuracy {report.macro_accuracy:.4f} over "
          f"{report.n_sampled} sampled copies / {report.n_flows} flows")
    return EXIT_OK


def cmd_baseline_knn(args) -> int:
    train_path = Path(args.train)
    test_path = Path(args.test)
    train = pipeline.flow_stat_vectors(flows.read_flows(train_path))
    test = pipeline.flow_stat_vectors(flows.read_flows(test_path))
    if not test:
        raise pipeline.EmptyDatasetError("empty test set")
    clf = pipeline.knn_baseline(train, k=args.k)
    classes = sorted({label for _, label in train + test})
    index = {c: i for i, c in enumerate(classes)}
    preds = clf.predict(np.stack([vec for vec, _ in test]))
    confusion = pipeline.confusion_matrix(
        [index[label] for _, label in test], [index[p] for p in preds],
        len(classes))
    macro, per_class = pipeline.confusion_metrics(confusion, classes)
    print(json.dumps({"k": args.k, "macro_accuracy": macro,
                      "per_class": per_class,
                      "confusion": confusion.tolist()}, indent=2))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gc.run_all(num_seeds=args.seeds)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max rel err {r.max_rel_err:.3e}  {status}")
        ok = ok and r.passed
    return EXIT_OK if ok else EXIT_DATA


def build_parser() -> _Parser:
    parser = _Parser(prog="sampleflow",
                     description="Semi-supervised traffic classification "
                                 "from sampled packet time series")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a pcap into the flow file format")
    p.add_argument("--pcap", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timeout", type=_positive_float, default=60.0,
                   help="idle seconds that end a flow (> 0; inf: never)")
    p.add_argument("--min-packets", type=_positive_int, default=100)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("synth", help="generate labeled synthetic flows")
    p.add_argument("--classes", type=_positive_int, required=True)
    p.add_argument("--flows-per-class", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--difficulty", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("stats", help="compute per-flow statistical features")
    p.add_argument("--flows", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("sample", help="sample flows into fixed-length windows")
    p.add_argument("--flows", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", required=True,
                   choices=["fixed", "random", "incremental"])
    p.add_argument("--params", required=True,
                   help="l | p | l0,alpha,beta depending on --method")
    p.add_argument("--window", type=_positive_int, default=45)
    p.add_argument("--copies", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("pretrain", help="pretrain the statistics regressor")
    p.add_argument("--flows", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("retrain", help="train a classifier from a pretrained "
                                       "model")
    p.add_argument("--model", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--classes", required=True, help="comma-separated list")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-transfer", action="store_true",
                   help="train the same architecture without weight transfer")
    p.add_argument("--freeze-trunk", action="store_true")
    p.set_defaults(fn=cmd_retrain)

    p = sub.add_parser("evaluate", help="evaluate a classifier checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--flows", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("baseline-knn", help="KNN over statistical features")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--k", type=_positive_int, default=5)
    p.set_defaults(fn=cmd_baseline_knn)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--seeds", type=_positive_int, default=10)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


DATA_ERRORS = (OSError, DataError)


def _one_blas_thread() -> None:
    """Run BLAS on one thread, so that a seeded command writes the same bits
    on any number of cores: BLAS splits a large matrix product between its
    threads, and the split changes the last bits. This reaches the OpenBLAS
    that numpy's wheels bundle in numpy.libs; under any other BLAS it does
    nothing."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_",
                       "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            set_threads = getattr(dll, symbol, None)
            if set_threads is not None:
                set_threads.argtypes = [ctypes.c_int]
                set_threads(1)
                return


def main(argv: list[str] | None = None) -> int:
    _one_blas_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

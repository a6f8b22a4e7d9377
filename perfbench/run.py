"""sampleflow benchmark: seeded CLI workloads with end-to-end and traced metrics.

Run from the root of a source checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload pretrain_retrain --seed 1 \\
        --seconds 30 --trace 0

Set-up generates the workload's inputs from --seed several times. The
measured phase then runs in a fresh child process, so that its peak RSS
excludes set-up, and repeats the workload's command sequence (a pass) for
about --seconds. Times are gated normalised to one reference speed, because
the host's speed is not steady (see workloads.Speedometer): setup_s is the
median normalised set-up time and norm_wall_s the sum over the pass's
commands of each one's median normalised time. Raw times are printed too.
With --trace 1 the passes alternate between untraced and traced, and the
per-layer metrics come from the traced ones.

Every metric is printed with its unit; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics, where
metrics holds the end_to_end (--trace 0) or per_layer (--trace 1) metrics
named in BENCHMARK.json. See NOTES.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("pretrain_retrain", "classify_random", "capture_knn")
# set up at least 3 times, and up to 9 times while the total is under 6 s
SETUP_REPEATS = (3, 9, 6.0)
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within this
# One BLAS thread: on a small shared machine a second BLAS thread made pass
# times swing by +-15% and peak RSS by several MB; one thread costs ~5%.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


class ProgramMissing(Exception):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: reduced inputs, for the benchmark's tests")
    ap.add_argument("--measure", metavar="WORKDIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program(root: Path) -> None:
    """Import sampleflow from the checkout's own sources, never elsewhere."""
    src = (root / "src").resolve()
    if not (src / "sampleflow" / "__init__.py").is_file():
        raise ProgramMissing(f"no sampleflow sources under {src}")
    sys.path.insert(0, str(src))
    import sampleflow
    if Path(sampleflow.__file__).resolve().parent.parent != src:
        raise ProgramMissing(f"sampleflow imported from {sampleflow.__file__}")


# ---- summaries ---------------------------------------------------------------

def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return q, ordered[min(n - 1, math.ceil(q / 100 * n) - 1)]


def describe(values: list[float], unit: str) -> str:
    text = f"median {statistics.median(values):.6g} {unit}, n={len(values)}"
    t = tail(values)
    return text + (f", p{t[0]} {t[1]:.6g} {unit}" if t else
                   ", no tail percentile (needs n >= 20)")


# ---- the measured phase (child process) --------------------------------------

def measure(args, work: Path) -> int:
    import tracing
    import workloads

    plan = json.loads((work / "plan.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.scale)
    tracer = tracing.Tracer() if args.trace else None
    passes = []  # (Pass, traced, first span, end span)
    started = time.perf_counter()
    totals = []
    while True:
        begun = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        p = workloads.Pass()
        lo = len(tracer.start) if tracer else 0
        if traced:
            tracer.counts.clear()
            tracer.install()
        try:
            workload.run_pass(plan, workloads.Commands(
                tracer if traced else None), p)
        finally:
            if traced:
                tracer.uninstall()
        hi = len(tracer.start) if tracer else 0
        if traced:
            p.values.update({f"count.{k}": v
                             for k, v in tracer.counts.items()})
        try:
            workload.check(plan, p)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            p.fail("check", f"{type(exc).__name__}: {exc}")
        passes.append((p, traced, lo, hi))
        totals.append(time.perf_counter() - begun)
        elapsed = time.perf_counter() - started
        enough = len(passes) >= (2 if tracer else 1)
        # stop where the next pass would end nearer to after --seconds
        if enough and elapsed + statistics.median(totals) / 2 > args.seconds:
            break

    result = summarise(workload, plan, passes)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, passes)
        out = Path.cwd() / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"spans-{args.workload}-seed{args.seed}.npz")
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def summarise(workload, plan: dict, passes) -> dict:
    first = passes[0][0]
    # the same seed must give the same losses, accuracies and checkpoints
    for p, *_ in passes[1:]:
        for key, value in first.values.items():
            if not key.startswith("count.") and p.values.get(key) != value:
                p.fail(key.split(".")[0], f"{key} {p.values.get(key)!r} "
                                          f"differs from first pass {value!r}")
    untraced = [p for p, traced, *_ in passes if not traced]
    attempted = sum(len(p.seconds) for p, *_ in passes)
    failed = sum(len(p.failed) for p, *_ in passes)
    commands, normalised = {}, {}
    for p in untraced:
        for name, s in p.seconds.items():
            commands.setdefault(name, []).append(s)
        for name, s in p.normalised.items():
            normalised.setdefault(name, []).append(s)
    rates = {}
    for p in untraced:
        if not p.failed:
            for name, v in workload.rates(plan, p).items():
                rates.setdefault(name, []).append(v)
    accuracy = [v for k, v in first.values.items()
                if k.endswith(".macro_accuracy")]
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": [n for p, *_ in passes for n in p.notes],
        "walls": [p.wall for p in untraced],
        "commands": commands,
        "normalised": normalised,
        "norm_wall": sum(statistics.median(v) for v in normalised.values()),
        "rates": rates,
        "values": {k: v for k, v in first.values.items()
                   if isinstance(v, (int, float))},
        "macro_accuracy": accuracy[0] if accuracy else None,
    }


def layer_metrics(tracer, passes) -> dict[str, float]:
    """Per-layer metrics from the traced passes (medians across passes)."""
    import tracing

    traced = [(p, lo, hi) for p, t, lo, hi in passes if t]
    per_pass: list[dict[str, float]] = []
    for p, lo, hi in traced:
        own = tracer.self_times(lo, hi)
        m = {f"{name}.s": v for name, v in own.items()}
        for module in tracing.MODULES:
            m[f"self_s.{module}"] = sum(v for name, v in own.items()
                                        if name.split(".")[0] == module)
        nid = tracer.arrays(lo, hi)[0]
        for name in ("features.input_matrix", "ingest.decode_packet"):
            m[f"{name}.calls"] = float(
                (nid == tracer.intern(name)).sum())
        m["trace.unaccounted_share"] = (p.wall - sum(own.values())) / p.wall
        m["trace.spans_per_pass"] = float(hi - lo)
        for key, v in p.values.items():
            if key.startswith("count."):
                m[key[len("count."):]] = float(v)
            elif key.startswith("ingest.skipped."):
                m[key] = float(v)
        per_pass.append(m)
    keys = sorted({k for m in per_pass for k in m})
    out = {k: statistics.median(m.get(k, 0.0) for m in per_pass)
           for k in keys}

    for name in tracer.names:
        kind = name.rsplit(".", 1)[-1]
        if name.startswith("neural.L") and kind in ("fwd", "bwd") or \
                name in ("neural.Adam.step", "neural.loss"):
            d = [d for _, a, b in traced for d in tracer.durations(name, a, b)]
            if d:
                out[f"{name}_ms"] = 1e3 * statistics.median(d)
    for key in [k for k in out if k.endswith(".Conv1d.flop")]:
        layer = key[:-len(".flop")]  # neural.L<i>.Conv1d
        busy = sum(d for _, a, b in traced for kind in ("fwd", "bwd")
                   for d in tracer.durations(f"{layer}.{kind}", a, b))
        flop = sum(p.values.get(f"count.{key}", 0) for p, *_ in traced)
        out[f"neural.conv_gflops.{layer.split('.')[1]}"] = flop / busy / 1e9
        del out[key]
    steps = [s for _, a, b in traced for s in tracer.train_steps(a, b)]
    if steps:
        out["pipeline.train_step_ms.p50"] = 1e3 * statistics.median(steps)
        out["pipeline.train_step_ms.p90"] = 1e3 * statistics.quantiles(
            steps, n=10)[-1] if len(steps) > 1 else 1e3 * steps[0]
        out["pipeline.train_steps"] = float(len(steps))
    # raw mean pass times
    out["trace.wall_s"] = statistics.mean(p.wall for p, *_ in traced)
    out["trace.untraced_wall_s"] = statistics.mean(
        p.wall for p, t, *_ in passes if not t)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


# ---- the orchestrating parent ------------------------------------------------

def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def setups(workload, work: Path, seed: int):
    """Set up several times; the inputs must come out byte-identical.

    Returns the raw and the normalised set-up times, the last plan and
    whether the inputs were identical.
    """
    import workloads

    times, norms, digests, plan, previous = [], [], [], None, None
    fewest, most, enough = SETUP_REPEATS
    while len(times) < fewest or (sum(times) < enough and len(times) < most):
        d = work / f"setup{len(times)}"
        d.mkdir(parents=True)
        with workloads.Speedometer() as meter:
            plan = workload.setup(d, seed)
        times.append(meter.seconds)
        norms.append(meter.normalised)
        digests.append({f.name: workloads.file_digest(f)
                        for f in sorted(d.iterdir())
                        if not f.name.endswith(".manifest.json")})
        if previous is not None:
            shutil.rmtree(previous)
        previous = d
    return times, norms, plan, all(d == digests[0] for d in digests)


def orchestrate(args, root: Path) -> int:
    import workloads

    began = time.perf_counter()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.scale)
    base = root / ".bench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times, setup_norms, plan, setup_same = setups(
            workload, work, args.seed)
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        argv = [sys.executable, str(HERE / "run.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale, "--measure", str(work)]
        limit = max(1.0, RUN_LIMIT_S - (time.perf_counter() - began))
        try:
            child = subprocess.run(argv, cwd=root, timeout=limit,
                                   stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            print(f"error: measured phase exceeded {limit:.0f} s",
                  file=sys.stderr)
            return 1
        if child.returncode != 0:
            print(f"error: measured phase exited {child.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    failed = result["failed"] + (0 if setup_same else 1)
    attempted = result["attempted"] + (0 if setup_same else 1)
    notes = result["notes"] + ([] if setup_same else
                               ["setup: inputs differ between set-ups"])
    print("machine: " + json.dumps(machine()))
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"trace {args.trace}: {len(result['walls'])} untraced passes")
    print(f"  setup_s (normalised): {describe(setup_norms, 's')}")
    print(f"  set-up, raw: {describe(setup_times, 's')}")
    print(f"  norm_wall_s: {result['norm_wall']:.6g} s")
    print(f"  wall_s, raw (mean pass): {statistics.mean(result['walls']):.6g} s")
    print(f"  pass times: {describe(result['walls'], 's')}; passes "
          + " ".join(f"{w:.3f}" for w in result["walls"]))
    for name, values in result["commands"].items():
        print(f"  command {name}: {describe(values, 's')}")
        print(f"  command {name}, normalised: "
              f"{describe(result['normalised'][name], 's')}")
    for name, values in result["rates"].items():
        print(f"  {name}: {describe(values, '1/s')}")
    for name, value in result["values"].items():
        print(f"  {name}: {value:.6g}")
    print(f"  peak_rss_mb: {peak_rss_mb:.1f} MB (measured phase)")
    print(f"  failed_ratio: {failed}/{attempted} commands "
          f"= {failed / attempted:.4g}")
    for note in notes:
        print(f"  FAILED {note}")

    if args.trace:
        values = result["layers"]
        declared = spec["per_layer"]
        for name in sorted(values):
            print(f"  layer {name}: {values[name]:.6g}")
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            print(f"  not exercised on this workload (reported as 0): "
                  f"{len(missing)} per-layer metrics")
    else:
        values = {"setup_s": statistics.median(setup_norms),
                  "norm_wall_s": result["norm_wall"],
                  "peak_rss_mb": peak_rss_mb,
                  "macro_accuracy": result["macro_accuracy"]}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]) or 0.0,
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    root = Path.cwd()
    try:
        import_program(root)
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.measure:
        return measure(args, Path(args.measure))
    return orchestrate(args, root)


if __name__ == "__main__":
    sys.exit(main())

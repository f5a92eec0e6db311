"""exmvit benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload train-tiny --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

Run from anywhere; the program is imported from ``src/`` beside this
directory. Human-readable lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a separate traced run. Scratch files (weights, images,
spans) go to ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-tiny", "infer-b1", "infer-b4")
MAX_BLAS_THREADS = 1
P90_MIN_SAMPLES = 100
# glibc mallopt parameters (<malloc.h>) and the values the benchmark fixes
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 * 2**20  # the ceiling of glibc's own adaptive threshold
TRIM_THRESHOLD = 2**30


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads() -> int:
    """Pin BLAS to at most nproc threads; must run before numpy is imported."""
    threads = min(nproc(), MAX_BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def pin_malloc() -> str:
    """Fix glibc's malloc thresholds so every process reuses freed memory.

    glibc adapts both thresholds to the history of frees, so two runs of the
    same workload could end in different regimes: one reusing its heap, the
    other returning an inference request's arrays to the kernel and faulting
    them in again on the next request. Inference runs on the machine of
    ``baseline.json`` made anywhere from none to 34 000 minor faults per
    request, and spent up to a fifth of it in the kernel. Fixed thresholds
    put every run in the reuse regime. Returns what was set, for the machine
    record.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default (no mallopt)"
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        return "default (mallopt refused)"
    if mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 1:
        return "default (mallopt refused)"
    return f"glibc mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", dest="self_test")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def machine_record(blas_threads: int, malloc: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "malloc": malloc,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_of(name: str) -> str:
    name = name.removesuffix(".p50").removesuffix(".p90")
    for suffix, unit in (
        ("_ms", "ms"),
        ("_us", "us"),
        ("_mb", "MB"),
        ("gmac_s", "GMAC/s"),
        ("calls", "count"),
        ("graph_nodes", "count"),
        ("per_s", "1/s"),
        ("_s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name}")


def make_workload(name: str, seed: int, workdir: Path):
    import workloads

    if name == "train-tiny":
        return workloads.TrainTiny(seed, workdir)
    return workloads.Infer(int(name.rsplit("b", 1)[1]), seed, workdir)


def end_to_end(wl, measured, setup_s: float) -> tuple[dict, list[str]]:
    """Metric dict for the JSON line, plus the human-readable lines."""
    lat = sorted(measured.latencies)
    p50 = statistics.median(lat) * 1e3
    per_s = measured.items / measured.wall
    rss = peak_rss_mb()
    metrics = {
        "setup_s": setup_s,
        "latency_ms.p50": p50,
        "items_per_s": per_s,
        "peak_rss_mb": rss,
    }
    op, items = ("step", "samples") if wl.name == "train-tiny" else ("latency", "images")
    rows = [("setup_s", f"{setup_s:.3f} s"), (f"{op}_ms.p50", f"{p50:.2f} ms  (n={len(lat)})")]
    if len(lat) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(lat, n=10)[-1] * 1e3
        rows.append((f"{op}_ms.p90", f"{p90:.2f} ms  (n={len(lat)})"))
    rows += [
        (f"{items}_per_s", f"{per_s:.3f} 1/s"),
        ("peak_rss_mb", f"{rss:.1f} MB"),
        (
            "failed_frac",
            f"{measured.failed / max(measured.attempted, 1):.4f}"
            f"  ({measured.failed}/{measured.attempted})",
        ),
    ]
    lines = [f"  {label:<16} = {value}" for label, value in rows]
    return metrics, lines


def per_layer(wl, workdir: Path, seconds: float) -> tuple[dict, object, object]:
    """Untraced then traced closed loop; per-layer metrics from the spans."""
    import tracing

    base = wl.run(seconds / 2)
    tracer = tracing.Tracer()
    traced = wl.run(seconds, tracer)
    timed = {name for name, *_ in tracer.spans if name in wl.kinds}
    macs = tracing.mac_join(wl.model, wl.kinds, timed, wl.batch)
    metrics = tracing.layer_metrics(tracer, wl.kinds)
    metrics.update(tracing.gmac_metrics(metrics, macs))
    metrics.update({f"layers.{kind}.bwd_ms": 0.0 for kind in tracing.KINDS})
    metrics.update(wl.extra_layer_metrics(tracer))
    metrics.update(wl.setup_metrics())
    metrics["tensor.op_overhead_us"] = tracing.op_overhead_us()
    metrics["trace.overhead_ms"] = (
        statistics.median(traced.latencies) - statistics.median(base.latencies)
    ) * 1e3
    tracer.dump(workdir / f"spans-{wl.name}-seed{wl.seed}.json")
    return metrics, base, traced


def run_one(args, workdir: Path, blas_threads: int, malloc: str, import_s: float) -> int:
    print("machine: " + json.dumps(machine_record(blas_threads, malloc, args.seed)))
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        wl = make_workload(args.workload, args.seed, Path(tmp))
        wl.setup()
        setup_s = import_s + statistics.median(wl.timings["setup"])
        wl.compute_expected()
        if args.trace:
            metrics, *phases = per_layer(wl, workdir, args.seconds)
        else:
            measured = wl.run(args.seconds)
            metrics, lines = end_to_end(wl, measured, setup_s)
            phases = [measured]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"workload {wl.name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}):")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<28} = {value:.6g} {unit_of(name)}")
    else:
        print("\n".join(lines))
    for phase in phases:
        for problem in phase.problems:
            print(f"  FAILED: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def self_test(workdir: Path) -> int:
    """An injected NaN or a perturbed logit must count as a failed operation."""
    import numpy as np

    import workloads

    cases = []
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        wl = workloads.Infer(1, 1, Path(tmp), variant="exmvit-928-tiny")
        wl.setup()
        wl.compute_expected()
        cases.append(("infer clean", wl.run(0.5), False))
        request = wl.request

        def perturbed(indices, prepare=None):
            logits, probs, top = request(indices)
            logits = logits.copy()
            logits[0, 3] += 0.01
            return logits, probs, top

        wl.request = perturbed
        cases.append(("infer perturbed logit", wl.run(0.5), True))
        wl.request = request
        wl.model.classifier.weight.data[0, 0] = np.nan
        cases.append(("infer NaN weight", wl.run(0.5), True))

        wl = workloads.TrainTiny(1, Path(tmp))
        wl.setup()
        cases.append(("train clean", wl.run(1.0), False))
        wl.dataset.images[:] = np.nan
        cases.append(("train NaN input", wl.run(1.0), True))
    ok = True
    for label, measured, should_fail in cases:
        good = measured.attempted > 0 and (
            measured.failed == measured.attempted if should_fail else measured.failed == 0
        )
        ok &= good
        print(
            f"self-test {label}: attempted={measured.attempted} failed={measured.failed} "
            f"{'ok' if good else 'WRONG'}"
        )
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all" and not args.self_test:
        return run_all(args)
    blas_threads = pin_blas_threads()
    malloc = pin_malloc()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401

        import exmvit  # noqa: F401
        import tracing  # noqa: F401
        import workloads  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import exmvit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(exmvit.__file__).resolve().parent != ROOT / "src" / "exmvit":
        print(f"error: exmvit was imported from {exmvit.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    if args.self_test:
        return self_test(workdir)
    return run_one(args, workdir, blas_threads, malloc, import_s)


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload infer-b4 --seeds 1 2 3 4 5 --seconds 55
    python3 perfbench/spread.py --workload train-tiny --seeds 0 --trace 1 --record baseline.json

Each run is its own process, one after another. For every metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median. ``--record FILE`` merges the
medians, with a record of the machine, into FILE under
``workloads.<name>.end_to_end`` (``--trace 0``) or ``.per_layer``
(``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

RUN = Path(__file__).resolve().with_name("run.py")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[0].split(":", 1)[1])
    return json.loads(lines[-1]), machine


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="JSON file to merge the medians into")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    for seed in args.seeds:
        result, machine = run_once(args.workload, seed, args.seconds, args.trace)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items() if args.trace == 0
        ), flush=True)
    summary = {name: dict(summarize(v), unit=units[name]) for name, v in values.items()}
    print(f"{args.workload}: attempted={attempted} failed={failed} seeds={args.seeds}")
    for name, s in summary.items():
        print(
            f"  {name:<28} median={s['median']:<12.6g} q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} "
            f"spread={s['spread']:.4f} {s['unit']}"
        )
    if args.record:
        path = Path(args.record)
        doc = json.loads(path.read_text()) if path.exists() else {"machine": {}, "workloads": {}}
        doc["machine"] = dict(machine, cpu=cpu_model(), seed=None)
        entry = doc["workloads"].setdefault(args.workload, {})
        entry["end_to_end" if args.trace == 0 else "per_layer"] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "attempted": attempted,
            "failed": failed,
            "metrics": summary,
        }
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"recorded in {path}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Measure every workload over several seeds and write baseline.json.

    python3 perfbench/baseline.py

Each run is its own ``run.py`` process, one workload at a time, measuring
for the ``run_seconds`` of BENCHMARK.json over the seeds in SEEDS (the
held-out seed of workloads.py is left out).  The
untraced runs give, per workload and end-to-end metric, the median, the
quartiles and the spread (quartile distance over the median); one traced
run per workload, at the default seed, gives the per-layer numbers.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

SEEDS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 11)
OUT_PATH = os.path.join(BENCH_DIR, "baseline.json")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    print(lines[0], flush=True)
    return json.loads(lines[-1]), lines[0]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {
        "recorded": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for w in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in SEEDS:
            result, info = run_once(w, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for part in info.split():
                if part.startswith("raw_"):
                    key, val = part.split("=")
                    raw.setdefault(key, []).append(float(val))
        traced, _ = run_once(w, workloads.DEFAULT_SEED, seconds, 1)
        out["workloads"][w] = {
            "fail_frac": failed / attempted,
            "end_to_end": {name: spread(v) for name, v in values.items()},
            "raw": {name: spread(v) for name, v in raw.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/campaign.py [--runs 10] [--workload NAME ...] [--out FILE]

Run from the root of a checkout.  Each run is a separate
``perfbench/run.py`` process with seed 1, 2, ... and the ``run_seconds`` of
BENCHMARK.json.  For every workload and end-to-end metric it prints the
median, the quartiles and the interquartile range as a share of the median,
next to the metric's bound.  Then it makes one traced run per workload.
With ``--out`` it also writes that summary, the traced run's per-layer
metrics, the machine context (cores, Python version) and each workload's
expected and idle layers as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0, "values": values}


def run_once(bench: dict, name: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [*bench["command"], "--workload", name, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    summary: dict = {}
    traced: dict = {}
    steady = True
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            start = time.perf_counter()
            result = run_once(bench, name, seed, 0)
            print(f"{name} seed {seed}: correct {result['correct']}, "
                  f"{time.perf_counter() - start:.1f} s, " + ", ".join(
                      f"{k} {v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
                  flush=True)
            steady &= result["correct"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        summary[name] = {metric: summarise(v) for metric, v in sorted(values.items())}
        for metric, s in summary[name].items():
            ok = s["iqr_share"] < bounds[metric] / 3
            steady &= ok
            print(f"  {name} {metric}: median {s['median']:.4g}, quartiles "
                  f"{s['q1']:.4g}..{s['q3']:.4g}, spread {s['iqr_share']:.3f} "
                  f"(bound {bounds[metric]}){'' if ok else '  <-- above bound/3'}")
        result = run_once(bench, name, 1, 1)
        steady &= result["correct"]
        traced[name] = {k: v["value"] for k, v in sorted(result["metrics"].items())}
        print(f"  {name} traced: correct {result['correct']}, overhead "
              f"{traced[name]['trace.overhead_ratio']:.3f}")
    if args.out:
        args.out.write_text(json.dumps({
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
            "run_seconds": bench["run_seconds"],
            "default_seed": DEFAULT_SEED,
            "seeds": list(range(1, args.runs + 1)),
            "workloads": {
                name: {"exercises": sorted(WORKLOADS[name].layers),
                       "idle": sorted(WORKLOADS[name].idle),
                       "metrics": summary[name],
                       "traced_seed_1": traced[name]}
                for name in names
            },
        }, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

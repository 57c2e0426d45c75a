"""Run the benchmark once per seed and summarise every metric.

    python3 perfbench/collect.py --runs 10 [--out perfbench/out/summary.json]

Runs `run.py` untraced, one process at a time, with seeds 1 to N on every
workload of BENCHMARK.json for its `run_seconds`, then prints, per workload
and metric, the median, the quartiles and the spread (quartile distance over
the median, the figure a metric's bound is compared with).  `--out` also writes the summary as JSON
with the git commit, Python version and CPU count it was measured with.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} checks failed")
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    seconds = spec["run_seconds"]
    summary = {
        "environment": {"git_commit": git_commit(),
                        "python": platform.python_version(),
                        "nproc": os.cpu_count()},
        "run_seconds": seconds,
        "runs": args.runs,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, seconds)
                   for seed in range(1, args.runs + 1)]
        metrics = {name: summarise([r["metrics"][name]["value"]
                                    for r in results])
                   for name in results[0]["metrics"]}
        summary["workloads"][workload] = {
            "attempted": [r["attempted"] for r in results],
            "metrics": metrics,
        }
        print(f"{workload}:")
        for name, s in metrics.items():
            print(f"  {name:<26} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.3f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n",
                            encoding="utf-8")


if __name__ == "__main__":
    main()

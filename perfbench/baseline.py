"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 1-10 --workloads cli --trace-seed 1 --out f.json

Run from the root of a checkout.  Each run is a separate process, exactly as
BENCHMARK.json's command runs it.  For each workload and end-to-end metric
the summary holds the values, their median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median,
the figure each metric's bound is set against.  With ``--trace-seed`` one
traced run per workload adds its per-layer metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    summary = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "date": datetime.date.today().isoformat(),
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result = _run(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(workload, seed, json.dumps({k: round(v["value"], 4)
                                              for k, v in result["metrics"].items()}), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                             "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}
            print(f"{workload} {name}: median {median:.6g} spread {(q3 - q1) / median:.3f}",
                  flush=True)
        entry = {"seeds": args.seeds, "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs), "metrics": metrics}
        if args.trace_seed is not None:
            traced = _run(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        summary["workloads"][workload] = entry
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness report: run each workload N times and summarize every metric.

Usage (from the repository root)::

    python3 perfbench/steady.py                      # every workload, 1 run each
    python3 perfbench/steady.py --runs 10 --workloads hall-faults

Each run is ``perfbench/run.py`` with its own seed (``--first-seed``,
``--first-seed + 1``, ...), one after another, so this one command
runs every workload of ``BENCHMARK.json`` (or those named), checks its
outputs and prints each end-to-end metric by name and unit.  With two
or more runs it also prints each metric's median and quartiles, and
flags a metric whose spread (inter-quartile distance over the median)
exceeds its bound from ``BENCHMARK.json``.  Exits 1 when a run fails
its checks or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.stats import summarize  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {completed.returncode})")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - started
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    flagged = 0
    for workload in args.workloads.split(","):
        if workload not in WORKLOADS:
            raise SystemExit(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        series: Dict[str, List[float]] = {m["name"]: [] for m in metrics}
        for k in range(args.runs):
            result = run_once(workload, args.first_seed + k, args.seconds, args.trace)
            for name, record in result["metrics"].items():  # type: ignore[union-attr]
                series[name].append(record["value"])
            values = " ".join(
                f"{name}={record['value']:.4g}"
                for name, record in list(result["metrics"].items())[:5]  # type: ignore[union-attr]
            )
            print(
                f"{workload} seed {args.first_seed + k}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"({result['elapsed_s']:.0f} s) {values}",
                flush=True,
            )
        print(f"\n{workload} ({args.runs} runs)")
        print(f"  {'metric':<32} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12}  spread  bound")
        for metric, summary in zip(metrics, summarize(series).values()):
            bound = metric.get("bound")
            spread = summary["spread"]
            flag = ""
            if bound is not None and args.runs >= 2:
                if spread > bound:
                    flag = "  OVER BOUND"
                    flagged += 1
                elif spread > bound / 3:
                    flag = "  above a third of bound"
            print(
                f"  {metric['name']:<32} {metric['unit']:<6} {summary['median']:>12.6g} "
                f"{summary['q1']:>12.6g} {summary['q3']:>12.6g}  {spread:6.3f}  "
                f"{'' if bound is None else bound}{flag}",
                flush=True,
            )
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

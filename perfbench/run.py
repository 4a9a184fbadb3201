"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hall-faults --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the traced variant and reports the per-layer
metrics instead.  Metric names, units and directions come from
``BENCHMARK.json``.  Every run checks the workload's outputs; a failed
check prints ``"correct": false`` with no metrics and exits 1.  The
lines before the last are a human-readable report: the environment
record, sample counts and each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A run that has not finished by then raises, which stops any serve
#: child on the way out, so the process always ends within 180 s.
RUN_DEADLINE_S = 170

WORKLOADS = ("fleet-tcp", "hall-faults")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Dispatch to the workload's module (imported only after pinning)."""
    from perfbench import fleet, inproc

    if name == "fleet-tcp":
        return fleet.run(seed, seconds, traced)
    return inproc.run(seed, seconds, traced)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import noise

    noise.pin_environment()  # re-executes this process when needed

    def overrun(signum: int, frame: object) -> None:
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, overrun)
    signal.alarm(RUN_DEADLINE_S)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    environment = noise.environment_record(ROOT)  # before any CPU pinning
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("environment " + json.dumps(environment, sort_keys=True))
    print("samples " + json.dumps(result["info"], sort_keys=True))
    failures = list(result["failures"])
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        failures.append(f"workload did not measure {missing}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    metrics = {}
    if not failures:
        for metric in wanted:
            value = float(result["metrics"][metric["name"]])
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"  {metric['name']:<32} {value:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

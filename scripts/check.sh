#!/usr/bin/env bash
# Repo check gate: static analysis + the tier-1 test suite.
#
# Usage: scripts/check.sh
# Run from the repository root.
#
# Gates, in order:
#   1. reprolint  — the repo's own AST linter, domain rules RL001-RL006
#                   plus the two-pass concurrency rules RL007-RL010
#                   (stdlib-only, always runs; JSON report kept as a CI
#                   artifact in REPROLINT_report.json)
#   2. ruff       — general lint (skipped when not installed)
#   3. mypy       — strict typing of the signal core (skipped when not
#                   installed; the allowlist lives in pyproject.toml)
#   4. smoke      — `repro stream` record -> replay round trip
#   5. sanitizer  — REPRO_DEBUG=1 stream run; the lock-sanitizer report
#                   must show no inversions and no unguarded accesses
#   6. chaos      — single-reader-loss run must still emit fixes
#   7. ops        — live /metrics scrape must pass the exposition validator
#   8. bench      — scripts/bench.py --smoke writes
#                   build/smoke/BENCH_pipeline.json
#   9. obs bench  — scripts/bench.py --obs --smoke writes
#                   build/smoke/BENCH_obs.json
#  10. soak       — scripts/soak.py --smoke (bounded RSS/cardinality/queues)
#  11. serve      — scripts/loadgen.py --smoke drives a shard fleet over
#                   real TCP (kill/restore drill, zero-leakage sweep)
#                   and writes build/smoke/BENCH_serve.json
#  12. chaos fleet — scripts/chaos_fleet.py --smoke injects all six
#                   fault families (partition, slow-loris, corruption,
#                   checkpoint rot, hang, overload) and writes
#                   build/smoke/BENCH_chaos.json
#  13. pytest     — the tier-1 suite
#
# Smoke records go to the git-ignored build/smoke/ so a check never
# overwrites the committed full-run BENCH_*.json trajectories.

set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE_OUT=build/smoke
mkdir -p "$SMOKE_OUT"

echo "== reprolint (domain rules RL001-RL006, concurrency rules RL007-RL010) =="
python -m tools.reprolint src/ --format json --statistics > REPROLINT_report.json \
    || { echo "reprolint findings (full report in REPROLINT_report.json):"; \
         python -m tools.reprolint src/ --statistics || true; exit 1; }

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping lint (pip install ruff to enable) =="
fi

if python -c "import mypy" >/dev/null 2>&1; then
    echo "== mypy --strict (signal-core allowlist) =="
    python -m mypy --strict -p repro
else
    echo "== mypy not installed; skipping type check (pip install mypy to enable) =="
fi

echo "== streaming smoke (record -> replay round trip) =="
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
PYTHONPATH=src python -m repro --quiet stream --environment hall --seed 7 \
    --fixes 1 --record "$SMOKE_DIR/smoke.jsonl"
PYTHONPATH=src python -m repro --quiet stream --replay "$SMOKE_DIR/smoke.jsonl"

echo "== lock sanitizer smoke (REPRO_DEBUG=1 stream; no inversions/witnesses) =="
timeout 300 env PYTHONPATH=src REPRO_DEBUG=1 python - <<'SANITIZER_SMOKE'
from repro.analysis import sanitizer
from repro.cli import main

code = main([
    "--quiet", "stream", "--environment", "hall", "--seed", "7",
    "--fixes", "2",
])
assert code == 0, f"sanitized stream exited {code}"
document = sanitizer.write_report("SANITIZER_report.json")
assert document["enabled"], "REPRO_DEBUG gate did not engage"
assert document["locks"], "sanitizer observed no lock activity"
assert document["inversions"] == [], document["inversions"]
assert document["witnesses"] == [], document["witnesses"]
print(f"sanitizer smoke ok: {len(document['locks'])} locks watched, "
      "no inversions, no unguarded accesses")
SANITIZER_SMOKE

echo "== chaos smoke (reader loss must not stop the fix stream) =="
# Hard timeout: a hung degraded pipeline is exactly the regression this
# step exists to catch.
timeout 300 env PYTHONPATH=src python -m repro --quiet stream \
    --environment hall --seed 7 --fixes 3 --chaos reader-loss \
    | grep -q "^fix " \
    || { echo "chaos smoke produced no fixes"; exit 1; }

echo "== ops smoke (telemetry run, live /metrics must validate) =="
# A stream with every telemetry flag on: the fix log must be readable
# and the live scrape must pass the in-repo Prometheus validator.
timeout 300 env PYTHONPATH=src python - <<'OPS_SMOKE'
import urllib.request
from repro.cli import main
from repro.obs.export import validate_exposition
from repro.stream import read_fix_log

code = main([
    "--quiet", "stream", "--environment", "table", "--seed", "7",
    "--fixes", "2", "--fix-log", "/tmp/check-fixes.jsonl",
])
assert code == 0, f"telemetry stream exited {code}"
fixes = list(read_fix_log("/tmp/check-fixes.jsonl"))
assert fixes and all(f.provenance is not None for f in fixes), \
    "fix log missing provenance"

from repro import obs
from repro.obs import OpsServer
obs.configure()
obs.count("stream.fixes")
with OpsServer(port=0) as server:
    with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as r:
        families = validate_exposition(r.read().decode("utf-8"))
obs.shutdown()
assert "repro_stream_fixes_total" in families
print(f"ops smoke ok: {len(fixes)} logged fixes, "
      f"{len(families)} exposed families")
OPS_SMOKE

echo "== bench smoke (perf harness writes $SMOKE_OUT/BENCH_pipeline.json) =="
# Validates the perf-trajectory harness end to end; the smoke workload
# is sized for gating, not for recording speedups (run bench.py without
# --smoke for those).  When a committed record exists it is diffed
# report-only: smoke workloads on a loaded runner jitter past the 15%
# gate routinely, so regressions print here but do not fail the check
# (a CI perf job can drop the `|| echo` to make it a gate).
if [ -f BENCH_pipeline.json ]; then
    PYTHONPATH=src python scripts/bench.py --smoke \
        --output "$SMOKE_OUT/BENCH_pipeline.json" --compare BENCH_pipeline.json \
        || echo "bench compare: regression reported (report-only in check.sh)"
else
    PYTHONPATH=src python scripts/bench.py --smoke \
        --output "$SMOKE_OUT/BENCH_pipeline.json"
fi

echo "== obs bench smoke (overhead harness writes $SMOKE_OUT/BENCH_obs.json) =="
PYTHONPATH=src python scripts/bench.py --obs --smoke --output "$SMOKE_OUT/BENCH_obs.json"

echo "== chaos soak smoke (bounded RSS, flat cardinality, drained queues) =="
timeout 600 env PYTHONPATH=src python scripts/soak.py --smoke \
    --report SOAK_report.json

echo "== serve smoke (TCP fleet: fixes emitted, drill passes, clean shutdown) =="
# The load generator self-hosts a supervisor + ingest server on
# ephemeral ports, publishes over real TCP, runs the kill/restore
# drill and the cross-shard leakage sweep, and exits non-zero unless
# every gate of its smoke record passed.
timeout 600 env PYTHONPATH=src python scripts/loadgen.py --smoke \
    --output "$SMOKE_OUT/BENCH_serve.json"

echo "== chaos fleet smoke (six fault families, recovery + zero-loss gates) =="
# Every family must recover within its deadline with zero read loss,
# chained lineage and zero cross-deployment leakage; the script exits
# non-zero if any gate fails.
timeout 600 env PYTHONPATH=src python scripts/chaos_fleet.py --smoke \
    --output "$SMOKE_OUT/BENCH_chaos.json"

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

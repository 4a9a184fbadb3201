"""The ``fleet-tcp`` workload: ``repro serve`` driven open-loop over TCP.

The system under test is a ``python -m repro serve`` subprocess: the
default fleet of two hall deployments (2 and 3 readers, 6 tags and 4
antennas each), thread workers, ops endpoint on.  One generator thread
in this process offers a fixed :data:`RATE` reads/s in batches of
:data:`BATCH`, round-robin over one :class:`ReadPublisher` connection
per deployment.  The schedule never waits for the fleet: batch ``i`` is
due at ``start + i * BATCH / RATE``, and a late generator is reported,
not hidden.

The fleet is fixed (``--seed 11``, the serve default); ``--seed`` drives
the measurement noise of each deployment's walk back (see
:mod:`perfbench.walks`).

Timed intervals:

* ``setup_s`` — from spawning the serve process to ``/healthz``
  reporting every shard ``live``; the median of :data:`SETUP_REPEATS`
  spawns (all but the last are shut down once live).
* an *ack sample* (``latency_p50_ms``; ``ack_p90_ms`` and
  ``ack_p99_ms`` on the samples line) — from a batch's due time to the
  return of ``ReadPublisher.publish``, i.e. its ack.  Generator
  lateness (due to send) is inside it.
* ``reads_per_s`` — reads acked over the time from the first batch's
  due time to the last ack.
* ``cpu_us_per_read`` — serve-process CPU (``/proc/<pid>/stat`` user +
  system) over the reads acked, per load segment (below).
* ``peak_rss_mb`` — the serve process's ``VmHWM`` at the end of the run.

The load is cut into segments of :data:`SEGMENT_BATCHES` batches; CPU
per read and the ack percentiles are taken per segment, and the run
reports their medians over segments.  Set-up, CPU and ack times are in
reference-host units (:mod:`perfbench.probe`): a probe process on the
serve CPU probes every :data:`PROBE_EVERY_S`, and each set-up and each
segment is scaled by the host factor of the probes taken during it.
``reads_per_s`` is not scaled: the generator fixes it at the offered
rate, and it falls below only when the fleet cannot keep up.

Fixes are read back from ``/provenance/recent`` every
:data:`SCRAPE_EVERY_S` during the load and once after it, so every
fix is seen although each shard's ring keeps only the last 256.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.constants import PACKETS_PER_FIX
from repro.errors import IngestProtocolError, SourceUnavailableError
from repro.serve import ReadPublisher, default_fleet
from repro.serve.registry import DeploymentSpec
from repro.sim.environments import hall_scene
from repro.sim.scene import Scene
from repro.stream.events import TagRead
from repro.stream.window import WindowAssembler

from perfbench import noise, stats, walks
from perfbench.probe import ProbeLog

ROOT = Path(__file__).resolve().parent.parent
#: The CPUs this process may use, read before any thread is pinned.
CPUS = sorted(os.sched_getaffinity(0))

#: Offered load, reads per second over the whole fleet.
RATE = 12_000
#: Reads per published batch.
BATCH = 128
#: Fleet shape, as ``repro serve --deployments N --seed S`` builds it.
DEPLOYMENTS = 2
FLEET_SEED = 11
#: Serve spawns per run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: Ack samples a run must collect (p90 needs 100; this leaves margin).
MIN_BATCHES = 1000
#: Give up on a serve process that is not live, or on fixes that do not
#: arrive, after this long.
DEADLINE_S = 45.0
#: Windows each deployment walks there (fixed noise, accuracy metrics).
WINDOWS_THERE = 30
#: Seconds between reads of ``/provenance/recent`` during the load; a
#: shard emits at most 13 fixes/s, so its 256-fix ring never wraps
#: between two reads.
SCRAPE_EVERY_S = 4.0
#: Seconds between host probes.
PROBE_EVERY_S = 0.25
#: Batches per load segment (3 s at the offered rate); CPU per read and
#: ack percentiles are taken per segment, and their medians reported.
SEGMENT_BATCHES = round(3.0 * RATE / BATCH)


@dataclass
class FleetInputs:
    specs: List[DeploymentSpec]
    batches: List[Tuple[str, List[TagRead]]]
    truth: Dict[str, List[Any]]
    #: Reads of each window the offered stream closes, by deployment
    #: and window index.  The last, still open, window is not in it.
    window_reads: Dict[str, Dict[int, int]]

    @property
    def expected_fixes(self) -> Dict[str, int]:
        return {dep: len(windows) for dep, windows in self.window_reads.items()}


def fleet_specs() -> List[DeploymentSpec]:
    return default_fleet(DEPLOYMENTS, environment="hall", seed=FLEET_SEED)


def deployment_scene(spec: DeploymentSpec) -> Scene:
    """The scene ``repro.serve.shard.build_runner`` builds for ``spec``."""
    return hall_scene(
        rng=spec.seed,
        num_tags=spec.num_tags,
        num_antennas=spec.num_antennas,
        num_readers=spec.num_readers,
    )


def closed_windows(scene: Scene, reads: Sequence[TagRead]) -> Dict[int, int]:
    """Reads of each window a runner fed ``reads`` closes before end of stream."""
    assembler = WindowAssembler.for_readers({r.name: r for r in scene.readers})
    return {
        window.index: window.reads
        for read in reads
        for window in assembler.push(read)
        if window.sweeps > 0
    }


def build_inputs(seed: int, batches: int) -> FleetInputs:
    """``batches`` round-robin batches of each deployment's walk.

    Each deployment walks :data:`WINDOWS_THERE` windows there with fixed
    noise — the accuracy metrics come from these windows — and then
    back with noise drawn from ``--seed`` (see :mod:`perfbench.walks`).
    """
    specs = fleet_specs()
    per_deployment = math.ceil(batches / len(specs)) * BATCH
    scenes: Dict[str, Scene] = {}
    streams: Dict[str, List[TagRead]] = {}
    truth: Dict[str, List[Any]] = {}
    window_reads: Dict[str, Dict[int, int]] = {}
    for index, spec in enumerate(specs):
        scene = deployment_scene(spec)
        reads_per_fix = len(scene.readers) * len(scene.tags) * spec.num_antennas * PACKETS_PER_FIX
        back = math.ceil(per_deployment / reads_per_fix) + 1 - WINDOWS_THERE
        stream, truth[spec.deployment_id] = walks.there_and_back(
            scene, WINDOWS_THERE, back, seed, stream=index
        )
        scenes[spec.deployment_id] = scene
        streams[spec.deployment_id] = stream[:per_deployment]
    cursors = {spec.deployment_id: 0 for spec in specs}
    plan: List[Tuple[str, List[TagRead]]] = []
    for i in range(batches):
        dep = specs[i % len(specs)].deployment_id
        start = cursors[dep]
        plan.append((dep, streams[dep][start : start + BATCH]))
        cursors[dep] = start + BATCH
    for spec in specs:
        dep = spec.deployment_id
        window_reads[dep] = closed_windows(scenes[dep], streams[dep][: cursors[dep]])
    return FleetInputs(specs, plan, truth, window_reads)


@dataclass
class LoadResult:
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    acked: List[float] = field(default_factory=list)
    accepted: List[int] = field(default_factory=list)
    reads_acked: int = 0
    reads_dropped: int = 0
    failed_batches: int = 0
    bad_acks: List[str] = field(default_factory=list)
    backpressure_waits: int = 0
    #: ``(batch index, time.monotonic(), mark())`` at each segment boundary.
    marks: List[Tuple[int, float, float]] = field(default_factory=list)


def drive(
    publishers: Dict[str, ReadPublisher],
    batches: Sequence[Tuple[str, List[TagRead]]],
    on_ack: Optional[Callable[[int], None]] = None,
    segments: int = 1,
    mark: Callable[[], float] = lambda: 0.0,
) -> LoadResult:
    """Offer ``batches`` open-loop at :data:`RATE`; one thread, round-robin.

    The load is cut into ``segments`` equal runs of batches; ``mark`` is
    called (and recorded) where each begins and after the last.
    """
    result = LoadResult()
    interval = BATCH / RATE
    clock = time.perf_counter
    boundaries = {round(k * len(batches) / segments) for k in range(segments)}
    start = clock() + 0.05
    for i, (dep, batch) in enumerate(batches):
        due = start + i * interval
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        if i in boundaries:
            result.marks.append((i, time.monotonic(), mark()))
        sent = clock()
        try:
            accepted, dropped = publishers[dep].publish(batch, batch_size=BATCH)
        except (SourceUnavailableError, IngestProtocolError, OSError) as exc:
            # The publisher already retried; the fleet is gone, and the
            # rest of the schedule would only wait out more retries.
            result.failed_batches += len(batches) - i
            result.bad_acks.append(f"{dep} batch {i}: {exc}; load aborted")
            break
        acked = clock()
        result.due.append(due)
        result.sent.append(sent)
        result.acked.append(acked)
        result.accepted.append(accepted)
        if accepted + dropped != len(batch):
            result.bad_acks.append(
                f"{dep} batch {i}: ack covers {accepted + dropped} of {len(batch)} reads"
            )
        result.reads_acked += accepted
        result.reads_dropped += dropped
        if on_ack is not None:
            on_ack(accepted)
    else:
        result.marks.append((len(batches), time.monotonic(), mark()))
    result.backpressure_waits = sum(p.backpressure_waits for p in publishers.values())
    return result


def segment_figures(load: LoadResult, factor: Callable[[float, float], float]) -> Dict[str, float]:
    """Per-segment CPU per read and ack percentiles, medians over segments.

    ``load.marks`` carry the serve CPU seconds at each boundary; each
    segment is scaled by ``factor(start, end)`` of its own time span.
    """
    latency, _ = stats.open_loop_samples(load.due, load.sent, load.acked)
    cpu: List[float] = []
    p50: List[float] = []
    p90: List[float] = []
    for (first, start, cpu0), (end_batch, end, cpu1) in zip(load.marks, load.marks[1:]):
        scale = factor(start, end)
        samples = [ms * scale for ms in latency[first:end_batch]]
        cpu.append((cpu1 - cpu0) * scale / sum(load.accepted[first:end_batch]) * 1e6)
        p50.append(stats.percentile(samples, 50))
        p90.append(stats.percentile(samples, 90))
    return {
        "cpu_us_per_read": statistics.median(cpu),
        "latency_p50_ms": statistics.median(p50),
        "ack_p90_ms": statistics.median(p90),
    }


def fix_quality(
    records: Dict[str, List[Dict[str, Any]]], inputs: FleetInputs
) -> Dict[str, float]:
    """Error percentiles and located share over the reference windows."""
    errors: List[float] = []
    total = 0
    for dep, fixes in records.items():
        truth = inputs.truth[dep]
        for record in fixes:
            if record["index"] >= len(truth):
                continue
            total += 1
            position = record.get("position")
            if position is not None:
                target = truth[record["index"]]
                errors.append(math.hypot(position[0] - target.x, position[1] - target.y) * 100.0)
    return stats.error_summary(errors, total)


def leakage(records: Dict[str, List[Dict[str, Any]]], specs: Sequence[DeploymentSpec]) -> List[str]:
    """Fixes whose provenance names a reader outside their own roster."""
    rosters = {spec.deployment_id: set(spec.reader_names) for spec in specs}
    found: List[str] = []
    for dep, fixes in records.items():
        for record in fixes:
            named = {r["name"] for r in record.get("provenance", {}).get("readers", [])}
            foreign = named - rosters[dep]
            if foreign:
                found.append(f"{dep} fix {record['index']} names {sorted(foreign)}")
    return found


# -- the serve subprocess -------------------------------------------------


def _get_json(url: str) -> Dict[str, Any]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _get_text(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode("utf-8")


def counter_total(exposition: str, name: str) -> float:
    """Sum of every series of one counter in Prometheus text."""
    pattern = re.compile(rf"^{re.escape(name)}(?:\{{[^}}]*\}})? (\S+)$", re.M)
    return sum(float(value) for value in pattern.findall(exposition))


def child_env() -> Dict[str, str]:
    """This process's (pinned) environment, with the repo on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn_on_serve_cpu(argv: List[str], **popen: Any) -> "subprocess.Popen[str]":
    """Start a child on the serve CPU (the last); this thread keeps the first.

    A child inherits the spawning thread's CPU mask, so the mask is set
    around the spawn and the generator (this thread) ends up alone on
    the first CPU.
    """
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, {CPUS[-1]})
    try:
        return subprocess.Popen(argv, cwd=ROOT, env=child_env(), text=True, **popen)
    finally:
        if len(CPUS) >= 2:
            os.sched_setaffinity(0, {CPUS[0]})


class ProbeProcess:
    """``python -m perfbench.probe`` on the serve CPU, its samples in a :class:`ProbeLog`."""

    def __init__(self) -> None:
        self.log = ProbeLog()
        self.proc = spawn_on_serve_cpu(
            [sys.executable, "-m", "perfbench.probe", "--every", str(PROBE_EVERY_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._first = threading.Event()
        self._thread = threading.Thread(target=self._read, name="probe-reader", daemon=True)
        self._thread.start()
        if not self._first.wait(DEADLINE_S):
            self.stop()
            raise RuntimeError("probe process printed nothing")

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            at, cpu = line.split()
            self.log.add(float(at), float(cpu))
            self._first.set()

    def stop(self) -> None:
        """Close its input (it exits at once) and wait for it."""
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self._thread.join(timeout=10)


class ServeProcess:
    """One ``repro serve`` child: spawn, wait for live, scrape, shut down."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.proc = spawn_on_serve_cpu(
            [
                sys.executable, "-m", "repro", "serve",
                "--deployments", str(DEPLOYMENTS), "--environment", "hall",
                "--seed", str(FLEET_SEED), "--workers", "thread",
                "--port", "0", "--serve-metrics", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        self.output: List[str] = []
        self.ingest: Optional[Tuple[str, int]] = None
        self.ops_url: Optional[str] = None
        self.live_at: Optional[float] = None

    def wait_live(self) -> None:
        """Block until every shard is live (stamps :attr:`live_at`)."""
        watchdog = threading.Timer(DEADLINE_S, self.proc.kill)
        watchdog.start()
        try:
            assert self.proc.stdout is not None
            while self.ingest is None or self.ops_url is None:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("serve exited before listening:\n" + "".join(self.output))
                self.output.append(line)
                match = re.search(r"url=(http://\S+)", line)
                if match:
                    self.ops_url = match.group(1)
                match = re.search(r" on (\S+):(\d+)$", line.strip())
                if match:
                    self.ingest = (match.group(1), int(match.group(2)))
            while True:
                health = _get_json(f"{self.ops_url}/healthz")
                if health["live"] == health["total"] == DEPLOYMENTS:
                    self.live_at = time.monotonic()
                    return
                time.sleep(0.02)
        finally:
            watchdog.cancel()

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def health(self) -> Dict[str, Any]:
        return _get_json(f"{self.ops_url}/healthz")

    def provenance(self, deployment: str) -> List[Dict[str, Any]]:
        document = _get_json(
            f"{self.ops_url}/provenance/recent?deployment={deployment}&limit=100000"
        )
        return sorted(document["fixes"], key=lambda record: record["index"])

    def metrics(self) -> str:
        return _get_text(f"{self.ops_url}/metrics")

    def stop(self) -> None:
        """SIGTERM, then wait; kill if it will not go.

        Not SIGINT: a process started from a non-interactive shell's
        background job inherits SIGINT as ignored, and every measurement
        is taken before this point, so no drain is needed.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.output.append(out or "")


def wait_for_fixes(
    health: Callable[[], Dict[str, Any]], expected: Dict[str, int]
) -> Dict[str, int]:
    """Poll the health document until each deployment emitted its fixes."""
    deadline = time.perf_counter() + DEADLINE_S
    while True:
        emitted = {
            dep: entry["fixes_emitted"] for dep, entry in health()["deployments"].items()
        }
        if all(emitted.get(dep, 0) >= n for dep, n in expected.items()):
            return emitted
        if time.perf_counter() > deadline:
            return emitted
        time.sleep(0.05)


class FixScraper:
    """Reads every deployment's ``/provenance/recent`` now and then, keeping all fixes."""

    def __init__(self, serve: ServeProcess, deployments: Sequence[str]) -> None:
        self.serve = serve
        self.fixes: Dict[str, Dict[int, Dict[str, Any]]] = {dep: {} for dep in deployments}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="fix-scraper", daemon=True)

    def scrape(self) -> None:
        for dep, seen in self.fixes.items():
            for record in self.serve.provenance(dep):
                seen[record["index"]] = record

    def _loop(self) -> None:
        while not self._stop.wait(SCRAPE_EVERY_S):
            self.scrape()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.ident is not None:
            self._thread.join()


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    batches = max(MIN_BATCHES, math.ceil(seconds * RATE / BATCH))
    if traced:
        from perfbench.fleet_trace import trace_fleet

        return trace_fleet(seed, seconds, batches)
    inputs = build_inputs(seed, batches)
    noise.settle()

    failures: List[str] = []
    setups: List[Tuple[float, float]] = []  # (spawned, live) on time.monotonic
    probe = ProbeProcess()
    try:
        for repeat in range(SETUP_REPEATS):
            serve = ServeProcess()
            try:
                serve.wait_live()
            except BaseException:
                serve.stop()
                raise
            setups.append((serve.started, serve.live_at or serve.started))
            if repeat < SETUP_REPEATS - 1:
                serve.stop()
        try:
            assert serve.ingest is not None
            host, port = serve.ingest
            publishers = {
                spec.deployment_id: ReadPublisher(host, port, spec.deployment_id, spec.reader_names)
                for spec in inputs.specs
            }
            scraper = FixScraper(serve, [spec.deployment_id for spec in inputs.specs])
            try:
                for publisher in publishers.values():
                    publisher.connect()
                scraper.start()
                load = drive(
                    publishers, inputs.batches,
                    segments=max(1, len(inputs.batches) // SEGMENT_BATCHES), mark=serve.cpu_s,
                )
                emitted = wait_for_fixes(serve.health, inputs.expected_fixes)
            finally:
                scraper.stop()
                for publisher in publishers.values():
                    publisher.close()
            scraper.scrape()
            health = serve.health()
            exposition = serve.metrics()
            rss = serve.peak_rss_mb()
        finally:
            serve.stop()
    finally:
        probe.stop()
    setup_raw = [live - spawned for spawned, live in setups]
    setup_scaled = [
        (live - spawned) * probe.log.factor(spawned, live) for spawned, live in setups
    ]

    records: Dict[str, List[Dict[str, Any]]] = {}
    for dep, expected in inputs.expected_fixes.items():
        if emitted.get(dep) != expected:
            failures.append(f"fleet-tcp: {dep} emitted {emitted.get(dep)} fixes, expected {expected}")
        seen = scraper.fixes[dep]
        missing = sorted(set(inputs.window_reads[dep]) - set(seen))
        if missing:
            failures.append(
                f"fleet-tcp: {dep}: {len(missing)} fixes not read back, first {missing[:5]}"
            )
        records[dep] = [seen[index] for index in sorted(seen)]
    failures.extend(f"fleet-tcp: leakage: {item}" for item in leakage(records, inputs.specs))
    failures.extend(f"fleet-tcp: {item}" for item in load.bad_acks)
    if failures:
        return {"metrics": {}, "info": {}, "failures": failures,
                "attempted": len(inputs.batches), "failed": load.failed_batches}
    sent = sum(len(batch) for _, batch in inputs.batches)
    account, without_fix = stats.closed_window_account(
        inputs.window_reads,
        scraper.fixes,
        lost={
            "never_acked": sent - load.reads_acked - load.reads_dropped,
            "ingest_dropped": load.reads_dropped,
            "queue_dropped": int(counter_total(exposition, "repro_stream_queue_dropped_total")),
            "late": int(counter_total(exposition, "repro_stream_window_late_reads_total")),
            "rejected": int(counter_total(exposition, "repro_stream_reads_rejected_total")),
        },
    )

    latency, lateness = stats.open_loop_samples(load.due, load.sent, load.acked)
    quality = fix_quality(records, inputs)
    (_, started, cpu0), (_, ended, cpu1) = load.marks[0], load.marks[-1]
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "reads_per_s": load.reads_acked / (load.acked[-1] - load.due[0]),
        "peak_rss_mb": rss,
        "folded_share": account.folded_share,
    }
    segments = segment_figures(load, probe.log.factor)
    metrics["cpu_us_per_read"] = segments["cpu_us_per_read"]
    metrics["latency_p50_ms"] = segments["latency_p50_ms"]
    metrics.update({k: v for k, v in quality.items() if k != "error_samples"})
    info = {
        "batches": len(inputs.batches),
        "ack_samples": len(latency),
        "segments": len(load.marks) - 1,
        "ack_p90_ms": segments["ack_p90_ms"],
        "ack_p99_ms": stats.percentile(latency, 99) * probe.log.factor(started, ended),
        "generator_late_p99_ms": stats.percentile(lateness, 99),
        "offered_rate": RATE,
        "fixes": emitted,
        "error_samples": quality["error_samples"],
        "setup_samples": len(setup_scaled),
        "setup_raw_s": statistics.median(setup_raw),
        "host_factor_load": probe.log.factor(started, ended),
        "host_probes": len(probe.log.samples),
        "raw_cpu_us_per_read": (cpu1 - cpu0) / load.reads_acked * 1e6,
        "raw_latency_p50_ms": stats.percentile(latency, 50),
        "raw_ack_p90_ms": stats.percentile(latency, 90),
        "failed_share": account.failed_share,
        "lost_reads": dict(account.lost),
        "reads_of_windows_without_fix": without_fix,
        "backpressure_waits": load.backpressure_waits,
        "shards_live_at_end": health["live"],
    }
    return {
        "metrics": metrics,
        "info": info,
        "failures": failures,
        "attempted": len(inputs.batches),
        "failed": load.failed_batches,
    }

"""The closed-loop, in-process workload ``hall-faults``.

A synthetic human walk through a calibrated, baselined hall deployment
(``hall_scene(rng=71)``: 4 readers x 10 tags x 6 antennas), with every
fault family of :func:`fault_plan` injected at generation time, is
offered to a fresh :class:`StreamRunner` in chunks of :data:`CHUNK`
reads through ``runner.queue.put_many``; fixes are collected with
``runner.poll()``, and the next chunk is offered only after the poll
returns (closed loop, one client).  Every :data:`CHECKPOINT_EVERY`
fixes the runner's state goes through the document the program
persists and is restored into a fresh runner.

The deployment (scene, calibration and baseline) is fixed: a site is
surveyed once and then walked through many times.  The walk is
:func:`perfbench.walks.there_and_back`: a fixed walk there, which the
accuracy metrics come from, and a walk back whose measurement noise
``--seed`` draws.

Timed intervals (``time.perf_counter`` for wall time, this process's
``time.process_time`` for CPU — this process is the system under test):

* ``setup_s`` — scene construction through ``DWatch.calibrate`` and
  ``DWatch.collect_baseline`` to a constructed ``StreamRunner``; the
  median of :data:`SETUP_REPEATS` identical set-ups.
* a *pass* — the sum of its steps: each chunk offered with its poll,
  each checkpoint round trip, and the final ``runner.finish()``.
  Building the runner and the input chunks is outside it, and so are
  the host probes taken between steps.
* a *fix sample* — from offering the chunk whose read closes a window
  to the return of the ``poll()`` that yields its fix (for the windows
  closed at end of stream: the ``finish()`` call).

A run makes :func:`timed_passes` passes, a number fixed by
``--seconds`` alone.  Every time is reported in reference-host units
(:mod:`perfbench.probe`), with the process pinned to one CPU: a set-up
is scaled by the probes a thread takes during it, and each step of a
pass by the probes taken between the steps around it.
``reads_per_s``, ``cpu_us_per_read``, ``latency_p50_ms`` and the
``fix_p90_ms`` of the samples line are the median over passes of each
pass's own figure.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import DWatch
from repro.faults import (
    DeadAntenna,
    EpcMisread,
    FaultInjector,
    FaultPlan,
    LateBurst,
    OverloadBurst,
    PhaseGlitch,
    ReaderOutage,
    fix_window_s,
    scene_schedules,
)
from repro.geometry.point import Point
from repro.sim.environments import hall_scene
from repro.sim.measurement import MeasurementSession
from repro.sim.scene import Scene
from repro.stream import StreamRunner
from repro.stream.checkpoint import INTEGRITY_KEY, checkpoint_id, seal_state
from repro.stream.events import TagRead, TrackFix

from perfbench import noise, stats, walks
from perfbench.probe import ProbeThread, local_factors, timed_probe

#: Reads offered per ``put_many`` call.
CHUNK = 256

#: Identical set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Seconds between host probes during a set-up.
SETUP_PROBE_EVERY_S = 0.1

#: A probe is taken after every this many steps of a pass.
PROBE_EVERY = 16

#: Seconds one pass (with its probes) takes on the reference host; a
#: run makes ``--seconds / PASS_SECONDS`` passes, at least
#: :data:`MIN_PASSES`, however fast the host is today.
PASS_SECONDS = 3.0
MIN_PASSES = 3

#: Site seed: calibration uses ``SITE_SEED + 1``, baseline ``+ 2``.
SITE_SEED = 71

#: Windows walked there (fixed noise) and back (seeded noise).  The
#: late burst swallows a window, so 120 windows leave more than the
#: 100 fixes a per-pass p90 needs.
WINDOWS_THERE = 60
WINDOWS_BACK = 60

#: Checkpoint/restore after every this many fixes.  A round trip
#: through the persisted document costs about 0.3 s on the reference
#: host, so two per pass keep the state write a visible minority (about
#: a fifth) of pass time.
CHECKPOINT_EVERY = 40

#: Largest relative difference allowed between any number of a fix of
#: a checkpoint/restore pass and the uninterrupted pass's fix.  Restore
#: is meant to be bit-identical, and nearly always is; on some seeds
#: (7 of seeds 1-18) one fix differs in the last bit of one coordinate,
#: whether the restored state went through JSON or not.  Those fixes are
#: counted on the samples line; a real divergence of restored state is
#: many orders of magnitude larger and fails the run.
RESTORE_TOLERANCE = 1e-12

#: Offered reads that no counted reason explains, per pass.  The late
#: burst leaves one window without a complete sweep; the runner closes
#: it without a fix and without counting its one read anywhere.  The
#: burst lies in the fixed walk there, so this is the same on every
#: seed; a run with more fails.
KNOWN_UNCOUNTED_READS = 1


def timed_passes(seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS))


def make_scene() -> Scene:
    """The streaming benchmarks' hall: 4 readers x 10 tags x 6 antennas."""
    return hall_scene(rng=SITE_SEED, num_tags=10, num_antennas=6)


def fault_plan(scene: Scene, fixes: int) -> FaultPlan:
    """Every fault family at once, placed on the walk's window grid.

    Windows are numbered ``0 .. fixes-1``; each disturbance gets its own
    stretch so its effect (quarantine, degraded fixes, late reads,
    duplicates) is visible on its own before the next begins.  The
    misread draws use the fixed seed of the walk there, so the fixes
    the accuracy metrics come from do not depend on ``--seed``.
    """
    w = fix_window_s(scene)
    names = sorted(reader.name for reader in scene.readers)
    at = lambda share: round(share * fixes) * w  # noqa: E731
    return FaultPlan(
        faults=(
            ReaderOutage(reader=names[0], start_s=at(0.15), end_s=at(0.35)),
            LateBurst(start_s=at(0.40), end_s=at(0.40) + w, delay_s=w / 2.0),
            DeadAntenna(reader=names[1], antenna=2, start_s=at(0.50), end_s=at(0.70)),
            PhaseGlitch(
                reader=names[2], offset_rad=math.pi / 2.0,
                start_s=at(0.55), end_s=at(0.65),
            ),
            OverloadBurst(start_s=at(0.75), end_s=at(0.80), copies=2),
            EpcMisread(probability=0.01),
        ),
        seed=walks.THERE_SEED,
    )


def build_deployment() -> Tuple[DWatch, Scene]:
    """Scene -> calibrated, baselined ``DWatch`` (the ``setup_s`` scope)."""
    scene = make_scene()
    dwatch = DWatch(scene, cell_size=0.1)
    dwatch.calibrate(rng=SITE_SEED + 1)
    session = MeasurementSession(scene, rng=SITE_SEED + 2)
    dwatch.collect_baseline([session.capture() for _ in range(2)])
    StreamRunner(dwatch)  # the runner's own preconditions are part of set-up
    return dwatch, scene


def walk_inputs(scene: Scene, seed: int) -> Tuple[List[List[TagRead]], List[Point]]:
    """The faulted walk as ready-made chunks, plus the truth of the windows there."""
    reads, truth = walks.there_and_back(scene, WINDOWS_THERE, WINDOWS_BACK, seed)
    injector = FaultInjector(
        fault_plan(scene, WINDOWS_THERE + WINDOWS_BACK), scene_schedules(scene)
    )
    reads = list(injector.inject(reads))
    chunks = [reads[i : i + CHUNK] for i in range(0, len(reads), CHUNK)]
    return chunks, truth


@dataclass
class PassResult:
    fixes: List[TrackFix]
    reads: int
    #: Wall and CPU seconds of the pass, and its fix samples (ms), as
    #: measured and in reference-host units (equal when not probed).
    wall_s: float
    cpu_s: float
    fix_ms: List[float]
    ref_wall_s: float
    ref_cpu_s: float
    ref_fix_ms: List[float]
    account: stats.ReadAccount
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    quarantines: int = 0
    late_reads: int = 0
    dropped_reads: int = 0


def persisted_document(runner: StreamRunner) -> str:
    """The text ``save_checkpoint`` writes: ``seal_state``, sorted-key JSON."""
    return json.dumps(seal_state(runner.checkpoint()), sort_keys=True)


def restore_document(dwatch: DWatch, text: str) -> StreamRunner:
    """A fresh runner restored from ``text``, its seal verified as ``load_checkpoint`` does."""
    document = json.loads(text)
    if checkpoint_id(document) != document.pop(INTEGRITY_KEY):
        raise RuntimeError("checkpoint seal does not verify")
    fresh = StreamRunner(dwatch)
    fresh.restore(document)
    return fresh


def persisted_roundtrip(runner: StreamRunner, on_bytes: Callable[[int], None]) -> StreamRunner:
    """Checkpoint through the document the program persists, and restore.

    Everything ``save_checkpoint`` and ``load_checkpoint`` do but the
    file and its fsyncs.
    """
    text = persisted_document(runner)
    on_bytes(len(text))
    return restore_document(runner.dwatch, text)


def run_pass(
    dwatch: DWatch,
    chunks: Sequence[Sequence[TagRead]],
    roundtrip: Optional[Callable[..., StreamRunner]] = persisted_roundtrip,
    probe_every: int = PROBE_EVERY,
) -> PassResult:
    """One closed-loop replay of the walk through a fresh runner.

    ``roundtrip`` is called every :data:`CHECKPOINT_EVERY` fixes
    (``None``: an uninterrupted pass).  Every ``probe_every`` steps (0:
    never) a host probe runs between two timed steps; each step and
    fix sample is scaled by the local factor of the stretch between
    probes it fell in (:func:`perfbench.probe.local_factors`).
    """
    runner = StreamRunner(dwatch)
    fixes: List[TrackFix] = []
    sizes: List[int] = []
    checkpoints = 0
    probes: List[float] = []
    # (stretch, wall s, cpu s) per step; (stretch, ms) per fix sample.
    steps: List[Tuple[int, float, float]] = []
    samples: List[Tuple[int, float]] = []
    clock, cpu_clock = time.perf_counter, time.process_time

    def timed(call: Callable[[], Any]) -> Any:
        offered, cpu_started = clock(), cpu_clock()
        out = call()
        wall = clock() - offered
        steps.append((len(probes) - 1, wall, cpu_clock() - cpu_started))
        return out

    def offer(chunk: Sequence[TagRead]) -> List[TrackFix]:
        runner.queue.put_many(chunk)
        return runner.poll()

    for step, chunk in enumerate(chunks):
        if probe_every and step % probe_every == 0:
            probes.append(timed_probe())
        out = timed(lambda: offer(chunk))
        if out:
            samples.extend([(steps[-1][0], steps[-1][1] * 1000.0)] * len(out))
            before = len(fixes)
            fixes.extend(out)
            if roundtrip and len(fixes) // CHECKPOINT_EVERY > before // CHECKPOINT_EVERY:
                runner = timed(lambda: roundtrip(runner, sizes.append))
                checkpoints += 1
    out = timed(runner.finish)
    samples.extend([(steps[-1][0], steps[-1][1] * 1000.0)] * len(out))
    fixes.extend(out)
    if probes:
        probes.append(timed_probe())
        factor = local_factors(probes)
    else:
        factor = [1.0]  # every step is in stretch -1
    offered_reads = sum(len(chunk) for chunk in chunks)
    queue_stats = runner.queue.stats
    lost = {
        "queue_dropped": queue_stats.dropped,
        "late": runner.assembler.late_reads,
        "rejected": runner.rejected_reads,
    }
    return PassResult(
        fixes=fixes,
        reads=offered_reads,
        wall_s=sum(wall for _, wall, _ in steps),
        cpu_s=sum(cpu for _, _, cpu in steps),
        fix_ms=[ms for _, ms in samples],
        ref_wall_s=sum(wall * factor[i] for i, wall, _ in steps),
        ref_cpu_s=sum(cpu * factor[i] for i, _, cpu in steps),
        ref_fix_ms=[ms * factor[i] for i, ms in samples],
        account=stats.ReadAccount(
            offered=offered_reads, folded=sum(f.reads for f in fixes), lost=lost
        ),
        checkpoints=checkpoints,
        checkpoint_bytes=sizes[0] if sizes else 0,
        quarantines=sum(r.quarantines for r in runner.health.report()),
        late_reads=runner.assembler.late_reads,
        dropped_reads=queue_stats.dropped,
    )


def accuracy(fixes: Sequence[TrackFix], truth: Sequence[Point]) -> Dict[str, float]:
    """Error percentiles (cm) and located share over the windows walked there."""
    there = [f for f in fixes if f.index < len(truth)]
    errors = [
        math.hypot(f.position.x - truth[f.index].x, f.position.y - truth[f.index].y) * 100.0
        for f in there
        if f.position is not None
    ]
    return stats.error_summary(errors, len(there))


def mismatches(fixes: Sequence[TrackFix], reference: Sequence[str]) -> int:
    """Fixes that differ (bit for bit, by ``repr``) from the reference."""
    return len(differences(fixes, reference))


def differences(fixes: Sequence[TrackFix], reference: Sequence[str]) -> List[float]:
    """One entry per fix not bit-identical to the reference: how far it is off.

    The entry is the largest relative difference between corresponding
    numbers of the two ``repr`` texts, or infinity when the texts differ
    anywhere else (a missing or extra fix counts as infinity too).
    """
    got = [repr(f) for f in fixes]
    found = [stats.relative_difference(a, b) for a, b in zip(got, reference) if a != b]
    return found + [math.inf] * abs(len(got) - len(reference))


def timed_setups() -> Tuple[List[float], List[float], Tuple[DWatch, Scene]]:
    """:data:`SETUP_REPEATS` set-ups: raw seconds, reference-host seconds, the first.

    A probe thread samples the host every :data:`SETUP_PROBE_EVERY_S`
    during each set-up; its CPU time is taken out of the set-up's wall
    time, and the rest is scaled by the host factor of its samples.
    """
    raw: List[float] = []
    scaled: List[float] = []
    built: Optional[Tuple[DWatch, Scene]] = None
    for _ in range(SETUP_REPEATS):
        with ProbeThread(SETUP_PROBE_EVERY_S) as probes:
            started = time.perf_counter()
            deployment = build_deployment()
            seconds = time.perf_counter() - started
        built = built or deployment
        raw.append(seconds - probes.cpu_s)
        scaled.append(raw[-1] * probes.log.factor())
    assert built is not None
    return raw, scaled, built


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Set up, generate inputs, warm up, check, then time the passes."""
    noise.pin_to_one_cpu()
    if traced:
        from perfbench.tracing import trace_closed_loop

        return trace_closed_loop(seed, seconds)
    setup_raw, setup_scaled, (dwatch, scene) = timed_setups()
    chunks, truth = walk_inputs(scene, seed)
    noise.settle()

    failures: List[str] = []
    # The untimed warm-up pass runs uninterrupted: it is the reference
    # every checkpoint/restore pass must reproduce bit for bit.
    warm = run_pass(dwatch, chunks, roundtrip=None, probe_every=0)
    reference = [repr(f) for f in warm.fixes]
    if warm.account.unexplained > KNOWN_UNCOUNTED_READS:
        failures.append(
            f"hall-faults: {warm.account.unexplained} offered reads neither folded nor "
            f"counted lost (known: {KNOWN_UNCOUNTED_READS})"
        )
    passes = [run_pass(dwatch, chunks) for _ in range(timed_passes(seconds))]
    off = [d for p in passes for d in differences(p.fixes, reference)]
    failed = sum(1 for d in off if d > RESTORE_TOLERANCE)
    if failed:
        failures.append(
            f"hall-faults: {failed} fixes of the checkpoint/restore passes differ from "
            f"the uninterrupted pass (largest relative difference {max(off):.3g})"
        )
    if not all(p.checkpoints for p in passes):
        failures.append("hall-faults: a timed pass took no checkpoint")
    attempted = len(reference) * len(passes)
    if failures:
        return {"metrics": {}, "info": {}, "failures": failures,
                "attempted": attempted, "failed": failed}

    quality = accuracy(warm.fixes, truth)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "reads_per_s": statistics.median(p.reads / p.ref_wall_s for p in passes),
        "cpu_us_per_read": statistics.median(p.ref_cpu_s / p.reads * 1e6 for p in passes),
        "latency_p50_ms": statistics.median(stats.percentile(p.ref_fix_ms, 50) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "folded_share": warm.account.folded_share,
    }
    metrics.update({k: v for k, v in quality.items() if k != "error_samples"})
    info = {
        "passes": len(passes),
        "reads_per_pass": warm.reads,
        "fixes_per_pass": len(warm.fixes),
        "fix_samples_per_pass": len(passes[0].fix_ms),
        "fix_p90_ms": statistics.median(stats.percentile(p.ref_fix_ms, 90) for p in passes),
        "setup_samples": len(setup_scaled),
        "setup_raw_s": statistics.median(setup_raw),
        "host_factor": statistics.median(p.ref_cpu_s / p.cpu_s for p in passes),
        "raw_reads_per_s": statistics.median(p.reads / p.wall_s for p in passes),
        "raw_cpu_us_per_read": statistics.median(p.cpu_s / p.reads * 1e6 for p in passes),
        "error_samples": quality["error_samples"],
        "failed_share": warm.account.failed_share,
        "lost_reads": dict(warm.account.lost),
        "uncounted_reads": warm.account.unexplained,
        "degraded_fixes": sum(1 for f in warm.fixes if f.quality.degraded),
        "quarantines": warm.quarantines,
        "checkpoints_per_pass": passes[0].checkpoints,
        "checkpoint_bytes": passes[0].checkpoint_bytes,
        # Known program defect: within the tolerance, not bit-identical.
        "restored_fixes_not_bit_identical": len(off),
        "restored_max_relative_difference": max(off, default=0.0),
    }
    return {
        "metrics": metrics,
        "info": info,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
    }

"""The traced run: which layer functions are wrapped, and the per-layer metrics.

Layer functions imported by name are patched where they are *used*
(``repro.stream.runner.batched_pmusic_from_covariances``), methods on
their class.  Per-read functions (``WindowAssembler.push``) are tallied,
not recorded.  End-to-end numbers are never taken from a traced run.

``trace.coverage`` is the sum of self times over the time the spans
could cover: the traced passes' wall time in-process, the process CPU
time of the traced phase in the multi-threaded fleet host.
``trace.overhead_pct`` compares untraced with traced passes of the same
run: reads per second in the closed loop, CPU per read in the fleet
(whose open-loop read rate is fixed by the generator).
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List

import repro.stream.runner as runner_module
from repro.core.pipeline import DWatch
from repro.core.tracker import KalmanTracker
from repro.stream.covariance import EwCovariance
from repro.stream.health import HealthTracker
from repro.stream.queue import BoundedReadQueue
from repro.stream.runner import StreamRunner
from repro.stream.window import WindowAssembler

from perfbench import noise
from perfbench.spans import Layer, SpanRecorder

#: Every per-layer metric, in BENCHMARK.json order.  A layer that does
#: not run on a workload reports 0.
PER_LAYER = (
    "calibration.calibrate_s",
    "baseline.collect_s",
    "queue.put_us_per_read",
    "queue.dropped_reads",
    "window.push_us_per_read",
    "window.late_reads",
    "health.us_per_read",
    "health.quarantines",
    "covariance.fold_us",
    "covariance.folds_per_window",
    "dsp.pmusic_ms_per_window",
    "dsp.pairs_per_call",
    "core.evidence_ms_per_window",
    "core.localize_ms_per_window",
    "core.localized_share",
    "tracker.update_us",
    "tracker.predicted_share",
    "runner.poll_self_ms_per_window",
    "checkpoint.snapshot_ms",
    "checkpoint.restore_ms",
    "checkpoint.bytes",
    "protocol.encode_us_per_read",
    "protocol.decode_us_per_read",
    "protocol.bytes_per_read",
    "shard.route_us_per_batch",
    "shard.shed_batches",
    "fleet.backlog_reads_max",
    "publisher.backpressure_waits",
    "publisher.reconnects",
    "loadgen.late_p99_ms",
    "trace.coverage",
    "trace.overhead_pct",
)


def _window_of(args: Any) -> str:
    runner, window = args[0], args[1]
    return f"{runner.config.deployment_id or 'local'}:{window.index}"


def wrap_setup(recorder: SpanRecorder) -> None:
    """Spans around calibration and baseline collection."""
    recorder.wrap(DWatch, "calibrate", "calibration.calibrate")
    recorder.wrap(DWatch, "collect_baseline", "baseline.collect")


def wrap_stream(recorder: SpanRecorder) -> None:
    """Spans around every streaming layer a ``StreamRunner`` drives."""
    recorder.wrap(
        BoundedReadQueue, "put_many", "queue.put_many", units=lambda a, k, r: len(a[1])
    )
    recorder.wrap(BoundedReadQueue, "drain", "queue.drain", units=lambda a, k, r: len(r))
    recorder.wrap(WindowAssembler, "push", "window.push", tally=True)
    recorder.wrap(
        HealthTracker, "note_reads", "health.note_reads",
        units=lambda a, k, r: len(a[1]),
    )
    recorder.wrap(HealthTracker, "observe_window", "health.observe_window")
    recorder.wrap(EwCovariance, "update_matrix", "covariance.fold")
    recorder.wrap(
        runner_module, "batched_pmusic_from_covariances", "dsp.pmusic",
        units=lambda a, k, r: a[0].shape[0],
    )
    recorder.wrap(DWatch, "evidence_from_spectra", "core.evidence")
    recorder.wrap(
        DWatch, "localize_from_evidence", "core.localize",
        marks=lambda r: {"located": 1.0 if r else 0.0},
    )
    recorder.wrap(
        KalmanTracker, "update", "tracker.update",
        marks=lambda r: {"predicted": 1.0 if r.predicted_only else 0.0},
    )
    recorder.wrap(StreamRunner, "poll", "runner.poll")
    recorder.wrap(StreamRunner, "finish", "runner.finish")
    recorder.wrap(StreamRunner, "_process_window", "runner.window", window=_window_of)


def layer_metrics(layers: Dict[str, Layer], extra: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the recorder's aggregates.

    ``extra`` supplies what spans cannot: counters read off objects,
    sampled backlogs, coverage and overhead.
    """

    def get(name: str) -> Layer:
        return layers.get(name, Layer())

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_call(name: str, scale: float) -> float:
        return ratio(get(name).total_ns * scale, get(name).calls)

    def per_unit(names: List[str], scale: float) -> float:
        return ratio(
            sum(get(n).total_ns for n in names) * scale, sum(get(n).units for n in names)
        )

    windows = get("runner.window").calls
    runner_self = sum(get(n).self_ns for n in ("runner.poll", "runner.finish", "runner.window"))
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "calibration.calibrate_s": per_call("calibration.calibrate", 1e-9),
        "baseline.collect_s": per_call("baseline.collect", 1e-9),
        "queue.put_us_per_read": per_unit(["queue.put_many"], 1e-3),
        "window.push_us_per_read": per_call("window.push", 1e-3),
        "health.us_per_read": per_unit(["health.note_reads", "health.observe_window"], 1e-3),
        "covariance.fold_us": per_call("covariance.fold", 1e-3),
        "covariance.folds_per_window": ratio(get("covariance.fold").calls, windows),
        "dsp.pmusic_ms_per_window": ratio(get("dsp.pmusic").total_ns / 1e6, windows),
        "dsp.pairs_per_call": ratio(get("dsp.pmusic").units, get("dsp.pmusic").calls),
        "core.evidence_ms_per_window": ratio(get("core.evidence").total_ns / 1e6, windows),
        "core.localize_ms_per_window": ratio(get("core.localize").total_ns / 1e6, windows),
        "core.localized_share": ratio(
            get("core.localize").marks.get("located", 0.0), get("core.localize").calls
        ),
        "tracker.update_us": per_call("tracker.update", 1e-3),
        "tracker.predicted_share": ratio(
            get("tracker.update").marks.get("predicted", 0.0), get("tracker.update").calls
        ),
        "runner.poll_self_ms_per_window": ratio(runner_self / 1e6, windows),
        "checkpoint.snapshot_ms": per_call("checkpoint.snapshot", 1e-6),
        "checkpoint.restore_ms": per_call("checkpoint.restore", 1e-6),
        "protocol.encode_us_per_read": per_unit(
            ["protocol.reads_frame", "protocol.encode_frame"], 1e-3
        ),
        "protocol.decode_us_per_read": per_unit(
            ["protocol.read_frame", "protocol.parse_reads"], 1e-3
        ),
        "shard.route_us_per_batch": per_call("shard.route", 1e-3),
        "shard.shed_batches": get("shard.route").marks.get("shed", 0.0),
    })
    metrics.update(extra)
    return metrics


def trace_closed_loop(seed: int, seconds: float) -> Dict[str, Any]:
    """Traced ``hall-faults``: alternate plain and traced passes."""
    from perfbench import inproc

    setup = SpanRecorder()
    wrap_setup(setup)
    try:
        dwatch, scene = inproc.build_deployment()
    finally:
        setup.unwrap_all()
    recorder = SpanRecorder()
    chunks, _ = inproc.walk_inputs(scene, seed)
    noise.settle()
    inproc.run_pass(dwatch, chunks, probe_every=0)  # warm-up

    def traced_roundtrip(runner: StreamRunner, on_bytes: Callable[[int], None]) -> StreamRunner:
        """:func:`perfbench.inproc.persisted_roundtrip`, split into two spans."""
        index = recorder.open("checkpoint.snapshot")
        text = inproc.persisted_document(runner)
        recorder.close(index)
        on_bytes(len(text))
        index = recorder.open("checkpoint.restore")
        fresh = inproc.restore_document(runner.dwatch, text)
        recorder.close(index)
        return fresh

    plain: List[inproc.PassResult] = []
    traced: List[inproc.PassResult] = []
    for _ in range(max(2, inproc.timed_passes(seconds) // 2)):
        plain.append(inproc.run_pass(dwatch, chunks))
        wrap_stream(recorder)
        try:
            traced.append(inproc.run_pass(dwatch, chunks, traced_roundtrip))
        finally:
            recorder.unwrap_all()

    # Overhead in reference-host units, so a host slowdown between a
    # plain and a traced pass is not charged to tracing.
    plain_rps = statistics.median(p.reads / p.ref_wall_s for p in plain)
    traced_rps = statistics.median(p.reads / p.ref_wall_s for p in traced)
    last = traced[-1]
    extra = {
        "queue.dropped_reads": float(last.dropped_reads),
        "window.late_reads": float(last.late_reads),
        "health.quarantines": float(last.quarantines),
        "checkpoint.bytes": float(last.checkpoint_bytes),
        "trace.coverage": recorder.self_total_ns() / 1e9 / sum(p.wall_s for p in traced),
        "trace.overhead_pct": (plain_rps / traced_rps - 1.0) * 100.0,
    }
    layers = recorder.layers()
    layers.update(setup.layers())
    metrics = layer_metrics(layers, extra)
    info = {
        "traced_passes": len(traced),
        "plain_passes": len(plain),
        "windows_traced": recorder.windows(),
        "spans": len(recorder.spans),
    }
    reference = [repr(f) for f in plain[0].fixes]
    failed = sum(inproc.mismatches(p.fixes, reference) for p in plain[1:] + traced)
    failures = []
    if failed:
        failures.append(
            f"hall-faults: {failed} fixes of plain or traced passes differ from the first pass"
        )
    return {
        "metrics": metrics,
        "info": info,
        "failures": failures,
        "attempted": len(reference) * (len(plain) + len(traced)),
        "failed": failed,
    }

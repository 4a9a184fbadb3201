"""Traced ``fleet-tcp``: the fleet hosted in this process so it can be wrapped.

A serve subprocess cannot be wrapped from outside, so this run builds
the same fleet ``repro serve`` builds — ``ShardSupervisor`` with thread
workers plus ``IngestServer``, observability on — in-process, and
drives it with the same generator over real TCP.  Its end-to-end
numbers are not reported.

The load runs in two halves: the first plain, the second with every
wrapper installed.  ``trace.overhead_pct`` compares their process CPU
per read.  Spans here (set-up included) are timed with the *thread*
CPU clock, so time a thread spends waiting for the interpreter lock
inside a span (the two shards calibrate concurrently) is not charged
to the layer; ``trace.coverage`` is the sum of self times over the
process CPU time of the traced half.
"""

from __future__ import annotations

import json
import threading
import time
import types
from typing import Any, Dict, List

import repro.serve.protocol as protocol
from repro import obs
from repro.serve import IngestServer, ReadPublisher, ShardSupervisor
from repro.serve.publisher import ReadPublisher as _Publisher
from repro.serve.registry import DeploymentRegistry
from repro.stream.queue import BoundedReadQueue

from perfbench import fleet, noise, stats
from perfbench.spans import SpanRecorder
from perfbench.tracing import layer_metrics, wrap_setup, wrap_stream

#: Seconds between backlog samples.
SAMPLE_EVERY_S = 1.0


def _counter(snapshot: List[Dict[str, Any]], name: str) -> float:
    return sum(float(r["value"]) for r in snapshot if r["name"] == name)


class BacklogSampler:
    """Reads acked minus reads offered to runner queues, sampled at 1 Hz.

    Runner queues are the ones shard worker threads (``repro-shard-*``)
    fill; the ingress queues are filled on ingest-handler threads.
    """

    def __init__(self) -> None:
        self.acked = 0
        self.offered_to_runners = 0
        self.samples: List[int] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="backlog-sampler", daemon=True)
        self._original = BoundedReadQueue.put_many

    def on_ack(self, accepted: int) -> None:
        with self._lock:
            self.acked += accepted

    def start(self) -> None:
        original = self._original
        sampler = self

        def put_many(queue: BoundedReadQueue, reads: Any) -> int:
            if threading.current_thread().name.startswith("repro-shard-"):
                with sampler._lock:
                    sampler.offered_to_runners += len(reads)
            return original(queue, reads)

        BoundedReadQueue.put_many = put_many  # type: ignore[method-assign]
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            with self._lock:
                self.samples.append(self.acked - self.offered_to_runners)

    def stop(self) -> None:
        self._stop.set()
        if self._thread.ident is not None:
            self._thread.join(timeout=5)
        BoundedReadQueue.put_many = self._original  # type: ignore[method-assign]


def wrap_protocol(recorder: SpanRecorder, generator: threading.Thread) -> None:
    """Encode spans on the generator thread, decode spans on the server's."""
    on_generator = lambda: threading.current_thread() is generator  # noqa: E731
    on_server = lambda: threading.current_thread() is not generator  # noqa: E731
    recorder.wrap(
        protocol, "reads_frame", "protocol.reads_frame",
        units=lambda a, k, r: len(a[1]), when=on_generator,
    )
    recorder.wrap(
        protocol, "encode_frame", "protocol.encode_frame",
        marks=lambda r: {"bytes": float(len(r))}, when=on_generator,
    )
    # read_frame blocks on the socket, so only its JSON parse is timed:
    # the module's ``json`` is swapped for a copy with a wrapped ``loads``.
    shim = types.ModuleType("json")
    shim.__dict__.update(json.__dict__)
    recorder.substitute(protocol, "json", shim)
    recorder.wrap(shim, "loads", "protocol.read_frame", when=on_server)
    recorder.wrap(
        protocol, "parse_reads", "protocol.parse_reads",
        units=lambda a, k, r: len(r[1]), when=on_server,
    )
    recorder.wrap(
        ShardSupervisor, "route", "shard.route",
        marks=lambda r: {"shed": 1.0 if r.shed else 0.0},
    )
    recorder.wrap(_Publisher, "_reconnect", "publisher.reconnect")


def trace_fleet(seed: int, seconds: float, batches: int) -> Dict[str, Any]:
    inputs = fleet.build_inputs(seed, batches)
    registry = DeploymentRegistry()
    for spec in inputs.specs:
        registry.register(spec)
    setup = SpanRecorder(clock=time.thread_time_ns)
    recorder = SpanRecorder(clock=time.thread_time_ns)
    obs.configure()
    supervisor = ShardSupervisor(registry, workers="thread")
    ingest = IngestServer(supervisor)
    wrap_setup(setup)
    try:
        supervisor.start()
        ingest.start()
        deadline = time.perf_counter() + fleet.DEADLINE_S
        while supervisor.health_document()["live"] < len(inputs.specs):
            if time.perf_counter() > deadline:
                raise RuntimeError("in-process fleet never went live")
            time.sleep(0.02)
        setup.unwrap_all()
        noise.settle()
        publishers = {
            spec.deployment_id: ReadPublisher(
                ingest.host, ingest.port, spec.deployment_id, spec.reader_names
            )
            for spec in inputs.specs
        }
        half = len(inputs.batches) // 2
        sampler = BacklogSampler()
        try:
            for publisher in publishers.values():
                publisher.connect()
            sampler.start()
            cpu0 = time.process_time()
            plain = fleet.drive(publishers, inputs.batches[:half], on_ack=sampler.on_ack)
            cpu1 = time.process_time()
            wrap_stream(recorder)
            wrap_protocol(recorder, threading.current_thread())
            traced = fleet.drive(publishers, inputs.batches[half:], on_ack=sampler.on_ack)
            fleet.wait_for_fixes(supervisor.health_document, inputs.expected_fixes)
            cpu2 = time.process_time()
        finally:
            recorder.unwrap_all()
            sampler.stop()
            for publisher in publishers.values():
                publisher.close()
        counters = obs.snapshot()
    finally:
        setup.unwrap_all()
        ingest.stop()
        supervisor.stop(drain=False)
        obs.shutdown()

    plain_cpu = (cpu1 - cpu0) / max(1, plain.reads_acked)
    traced_cpu = (cpu2 - cpu1) / max(1, traced.reads_acked)
    layers = recorder.layers()
    layers.update(setup.layers())
    encoded_bytes = layers["protocol.encode_frame"].marks.get("bytes", 0.0)
    encoded_reads = layers["protocol.reads_frame"].units
    _, lateness = stats.open_loop_samples(
        plain.due + traced.due, plain.sent + traced.sent, plain.acked + traced.acked
    )
    extra = {
        "queue.dropped_reads": _counter(counters, "stream.queue.dropped"),
        "window.late_reads": _counter(counters, "stream.window.late_reads"),
        "health.quarantines": _counter(counters, "stream.health.quarantines"),
        "protocol.bytes_per_read": encoded_bytes / encoded_reads if encoded_reads else 0.0,
        "fleet.backlog_reads_max": float(max(sampler.samples, default=0)),
        "publisher.backpressure_waits": float(traced.backpressure_waits),
        "publisher.reconnects": float(layers["publisher.reconnect"].calls)
        if "publisher.reconnect" in layers else 0.0,
        "loadgen.late_p99_ms": stats.percentile(lateness, 99),
        "trace.coverage": recorder.self_total_ns() / 1e9 / (cpu2 - cpu1),
        "trace.overhead_pct": (traced_cpu / plain_cpu - 1.0) * 100.0,
    }
    metrics = layer_metrics(layers, extra)
    info = {
        "batches": len(inputs.batches),
        "traced_batches": len(traced.due),
        "backlog_samples": len(sampler.samples),
        "windows_traced": recorder.windows(),
        "spans": len(recorder.spans),
    }
    return {
        "metrics": metrics,
        "info": info,
        "failures": plain.bad_acks + traced.bad_acks,
        "attempted": len(inputs.batches),
        "failed": plain.failed_batches + traced.failed_batches,
    }

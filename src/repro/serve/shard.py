"""Deployment shards: one streaming pipeline per monitored area.

A *shard* owns everything one deployment needs — the deterministic
scene rebuild, the calibrated :class:`~repro.core.pipeline.DWatch`, a
:class:`~repro.stream.runner.StreamRunner` and a deployment-labeled
ingress queue — behind a small uniform surface the supervisor drives:

``route(reads)``
    Admit a batch into the shard's bounded ingress queue (the
    backpressure point network ingest presses against); returns the
    ``(accepted, dropped)`` admission verdict the ingest protocol acks
    back to the publisher.
``checkpoint_sync()``
    Force a checkpoint *now* and block until it is durably on disk —
    the deterministic seam kill/restore tests and drains stand on.
``stop(drain=True)`` / ``kill()``
    Orderly drain-and-checkpoint shutdown, or an injected crash (the
    chaos path restarts exercise).

Two implementations share that surface:

* :class:`DeploymentShard` — the default: a daemon worker **thread**
  pulls the ingress queue, polls the runner and periodically
  checkpoints.  All mutable cross-thread state sits behind one
  ``sanitized_lock``; file and queue I/O happen outside it.
* :class:`ProcessShard` — the worker is a **subprocess**
  (``python -m repro.serve.worker``) spoken to over the same
  length-delimited frames as the network protocol.  Crashing it is a
  real ``SIGKILL``, which is what makes the cross-process checkpoint
  hand-off test honest.

Fixes are delivered three ways, all equivalent: pushed into the
shard's :class:`~repro.stream.provenance.ProvenanceRing` (the ops
feed), appended to :meth:`fix_records` (the programmatic feed), and
counted on the ``serve.fixes{deployment}`` metric.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Union

from repro import obs
from repro.analysis.sanitizer import sanitized_lock
from repro.errors import CheckpointError, IngestProtocolError, ShardError
from repro.serve import protocol
from repro.serve.registry import DeploymentSpec
from repro.stream.checkpoint import (
    INTEGRITY_KEY,
    checkpoint_history_dir,
    durable_write_json,
    seal_state,
)
from repro.stream.events import TagRead
from repro.stream.provenance import ProvenanceRing, fix_record
from repro.stream.queue import BoundedReadQueue
from repro.stream.runner import StreamConfig, StreamRunner

#: Callback the supervisor wires to its registry: (state, error, ckpt).
StateCallback = Callable[..., None]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class Admission:
    """A shard's verdict on one routed batch.

    Unpacks as the historical ``(accepted, dropped)`` pair, so every
    existing ``accepted, dropped = shard.route(...)`` caller keeps
    working; the new fields carry the load-shedding story the ingest
    protocol acks back to publishers.
    """

    accepted: int
    dropped: int
    #: True when the batch was refused wholesale by admission control
    #: (ingress backlog over the shed watermark) rather than admitted.
    shed: bool = False
    #: Advisory publisher pause, seconds, when ``shed`` is set.
    retry_after_s: Optional[float] = None

    def __iter__(self) -> Iterator[int]:
        yield self.accepted
        yield self.dropped


def build_runner(
    spec: DeploymentSpec,
    restore: Optional[Mapping[str, Any]] = None,
) -> StreamRunner:
    """Deterministically rebuild one deployment's streaming pipeline.

    Follows the repo-wide seed-offset convention (``seed + 1``
    calibrates, ``seed + 2`` baselines) so the same spec always yields
    the same calibrated pipeline — which is what lets a checkpoint from
    a dead shard restore into a freshly built one: the fingerprint
    (readers, window, decay) is a pure function of the spec.
    """
    from repro.core.pipeline import DWatch
    from repro.sim.environments import hall_scene, laboratory_scene, library_scene
    from repro.sim.measurement import MeasurementSession

    makers = {
        "library": library_scene,
        "laboratory": laboratory_scene,
        "hall": hall_scene,
    }
    scene = makers[spec.environment](
        rng=spec.seed,
        num_tags=spec.num_tags,
        num_antennas=spec.num_antennas,
        num_readers=spec.num_readers,
    )
    dwatch = DWatch(scene, cell_size=spec.cell_size)
    dwatch.calibrate(rng=spec.seed + 1)
    session = MeasurementSession(scene, rng=spec.seed + 2)
    dwatch.collect_baseline([session.capture() for _ in range(2)])
    runner = StreamRunner(
        dwatch,
        StreamConfig(
            decay=spec.decay,
            max_targets=spec.max_targets,
            deployment_id=spec.deployment_id,
        ),
    )
    if restore is not None:
        runner.restore(restore)
    return runner


def rotate_checkpoint_history(path: PathLike, history_keep: int) -> None:
    """Move the current "latest" checkpoint into its lineage history.

    Ancestors live under ``<path>.history/<seq>.json`` with the highest
    sequence number the most recent; the supervisor walks them
    newest-first when the latest file fails verification.  At most
    ``history_keep`` ancestors are retained — quarantined ``.corrupt``
    specimens are never pruned.
    """
    target = Path(path)
    if history_keep <= 0 or not target.exists():
        return
    history = checkpoint_history_dir(target)
    try:
        history.mkdir(parents=True, exist_ok=True)
        known = sorted(
            entry
            for entry in history.glob("*.json")
            if entry.stem.isdigit()
        )
        next_seq = int(known[-1].stem) + 1 if known else 0
        os.replace(target, history / f"{next_seq:08d}.json")
        known = sorted(
            entry
            for entry in history.glob("*.json")
            if entry.stem.isdigit()
        )
        for stale in known[: max(0, len(known) - history_keep)]:
            stale.unlink()
    except OSError as exc:
        raise ShardError(
            f"cannot rotate checkpoint history for {str(target)!r}: {exc}"
        ) from exc


def checkpoint_history_paths(path: PathLike) -> List[Path]:
    """Restore candidates for a deployment, newest first.

    The "latest" file leads, followed by the rotated ancestors in
    reverse sequence order.  Missing entries are simply absent — the
    caller tries each in turn and quarantines the ones that fail.
    """
    target = Path(path)
    candidates: List[Path] = []
    if target.exists():
        candidates.append(target)
    history = checkpoint_history_dir(target)
    if history.is_dir():
        candidates.extend(
            sorted(
                (
                    entry
                    for entry in history.glob("*.json")
                    if entry.stem.isdigit()
                ),
                reverse=True,
            )
        )
    return candidates


def write_checkpoint_file(
    path: PathLike, state: Mapping[str, Any], history_keep: int = 0
) -> str:
    """Durably persist a sealed checkpoint document; returns its identity.

    Delegates to :func:`~repro.stream.checkpoint.durable_write_json`
    (temp sibling, data fsync, atomic rename, directory fsync) and
    seals the document with an integrity digest so restore can detect
    disk corruption.  With ``history_keep > 0`` the previous "latest"
    is rotated into the lineage history first instead of being
    overwritten.
    """
    target = Path(path)
    rotate_checkpoint_history(target, history_keep)
    sealed = seal_state(state)
    try:
        durable_write_json(target, sealed)
    except CheckpointError as exc:
        raise ShardError(
            f"cannot write shard checkpoint {str(target)!r}: {exc}"
        ) from exc
    return str(sealed[INTEGRITY_KEY])


class DeploymentShard:
    """Thread-mode shard: a daemon worker around one ``StreamRunner``.

    Parameters
    ----------
    spec:
        The deployment to build and serve.
    checkpoint_path:
        Where checkpoints land (``None`` disables checkpointing).
    checkpoint_every:
        Checkpoint after this many newly emitted fixes (``0`` = only
        on demand and at drain).
    restore:
        A checkpoint document to resume from (lineage chains through
        :meth:`StreamRunner.restore`).
    on_state:
        Supervisor callback ``(state, *, error=None, checkpoint_id=None)``
        fired on lifecycle transitions.
    ingress_capacity, ingress_policy:
        The routing queue's bound and overload behaviour; its drops are
        what the per-batch ingest acks report.
    shed_watermark:
        Admission-control threshold as a fraction of
        ``ingress_capacity``: a batch arriving while the ingress
        backlog is at or above it is *shed* — refused wholesale with a
        ``retry_after_s`` hint instead of silently dropping reads.
        ``0`` disables shedding (the pre-backpressure behaviour).
    shed_retry_after_s:
        Base publisher pause advertised on a shed batch; scaled up to
        2 s as the backlog climbs past the watermark.
    history_keep:
        How many rotated checkpoint ancestors to retain next to the
        "latest" file (the lineage walk-back depth); ``0`` keeps none.
    """

    def __init__(
        self,
        spec: DeploymentSpec,
        checkpoint_path: Optional[PathLike] = None,
        checkpoint_every: int = 0,
        restore: Optional[Mapping[str, Any]] = None,
        on_state: Optional[StateCallback] = None,
        on_checkpoint: Optional[Callable[[str], None]] = None,
        ingress_capacity: int = 8192,
        ingress_policy: str = "drop-oldest",
        ring_capacity: int = 256,
        poll_interval_s: float = 0.05,
        shed_watermark: float = 0.9,
        shed_retry_after_s: float = 0.2,
        history_keep: int = 3,
    ) -> None:
        if not 0.0 <= shed_watermark <= 1.0:
            raise ShardError(
                f"shed_watermark must be within [0, 1], got {shed_watermark!r}"
            )
        self.spec = spec
        self.checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        self.checkpoint_every = checkpoint_every
        self.poll_interval_s = poll_interval_s
        self.shed_watermark = shed_watermark
        self.shed_retry_after_s = shed_retry_after_s
        self.history_keep = history_keep
        self._ingress_capacity = ingress_capacity
        self.ring = ProvenanceRing(capacity=ring_capacity)
        self._restore = None if restore is None else dict(restore)
        self._on_state = on_state
        self._on_checkpoint = on_checkpoint
        self._ingress = BoundedReadQueue(
            capacity=ingress_capacity,
            policy=ingress_policy,
            deployment=spec.deployment_id,
        )
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._fail = threading.Event()
        # Written by stop() strictly before _stop.set() and read by
        # the worker strictly after seeing _stop set -- the Event is
        # the ordering edge, so the flag itself needs no lock.
        self._drain_on_stop = True  # reprolint: lockfree
        self._ckpt_request = threading.Event()
        self._ckpt_done = threading.Event()
        self._lock = sanitized_lock("serve.shard")
        self._thread: Optional[threading.Thread] = None
        self._runner: Optional[StreamRunner] = None
        self._failure: Optional[str] = None
        self._fix_records: List[Dict[str, Any]] = []
        self._last_checkpoint_id: Optional[str] = None
        self._heartbeat = time.monotonic()
        self._stall_until = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "DeploymentShard":
        """Spawn the worker thread (build happens on the worker)."""
        with self._lock:
            if self._thread is not None:
                raise ShardError(
                    f"shard {self.spec.deployment_id!r} is already started"
                )
            thread = threading.Thread(
                target=self._work,
                name=f"repro-shard-{self.spec.deployment_id}",
                daemon=True,
            )
            self._thread = thread
        self._notify("starting")
        thread.start()
        return self

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Ask the worker to finish and join it.

        ``drain=True`` flushes the ingress queue, closes every pending
        window (``runner.finish()``) and writes a final checkpoint
        before the thread exits; ``drain=False`` abandons in-flight
        state (the crash-adjacent shutdown).
        """
        with self._lock:
            thread = self._thread
        if thread is None:
            return
        self._drain_on_stop = drain
        self._stop.set()
        self._wake.set()
        thread.join(timeout=timeout_s)
        if thread.is_alive():
            raise ShardError(
                f"shard {self.spec.deployment_id!r} worker did not stop "
                f"within {timeout_s:g}s"
            )

    def kill(self) -> None:
        """Inject a crash: the worker raises on its next loop pass."""
        self._fail.set()
        self._wake.set()

    def join(self, timeout_s: float = 30.0) -> None:
        """Wait for the worker thread to end (crashed or stopped)."""
        with self._lock:
            thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout_s)

    # -- data paths --------------------------------------------------------

    def route(self, reads: Sequence[TagRead]) -> Admission:
        """Admit a batch into the ingress queue; an :class:`Admission`.

        When the ingress backlog sits at or above the shed watermark
        the whole batch is refused (``shed=True``) with a
        ``retry_after_s`` hint — the publisher resends the *same* batch
        after the pause, so shedding never loses reads the way a
        silent queue-full drop would.
        """
        if self.shed_watermark > 0.0:
            backlog = len(self._ingress)
            threshold = self.shed_watermark * self._ingress_capacity
            if backlog >= threshold:
                # The deeper past the watermark, the longer the hint:
                # full backlog advertises 2 s, the watermark itself the
                # base pause.  Publishers treat it as advisory.
                overfill = backlog / max(1.0, float(self._ingress_capacity))
                hint = min(2.0, self.shed_retry_after_s * (1.0 + overfill))
                self._wake.set()
                obs.count(
                    "serve.shed.batches",
                    labels={"deployment": self.spec.deployment_id},
                )
                obs.count(
                    "serve.shed.reads",
                    float(len(reads)),
                    labels={"deployment": self.spec.deployment_id},
                )
                # dropped=0 on purpose: a shed batch is refused and
                # resent, not lost — a legacy client that ignores the
                # status key must not account these reads as dropped.
                return Admission(
                    accepted=0,
                    dropped=0,
                    shed=True,
                    retry_after_s=hint,
                )
        accepted = self._ingress.put_many(reads)
        self._wake.set()
        return Admission(accepted=accepted, dropped=len(reads) - accepted)

    def checkpoint_sync(self, timeout_s: float = 30.0) -> Optional[str]:
        """Checkpoint now; block until durable.  Returns the identity."""
        if self.checkpoint_path is None:
            raise ShardError(
                f"shard {self.spec.deployment_id!r} has no checkpoint path"
            )
        self._ckpt_done.clear()
        self._ckpt_request.set()
        self._wake.set()
        if not self._ckpt_done.wait(timeout=timeout_s):
            raise ShardError(
                f"shard {self.spec.deployment_id!r} did not checkpoint "
                f"within {timeout_s:g}s (worker dead? state={self.state})"
            )
        with self._lock:
            return self._last_checkpoint_id

    def fix_records(self) -> List[Dict[str, Any]]:
        """All fixes emitted so far, as fix-log records (a copy)."""
        with self._lock:
            return list(self._fix_records)

    @property
    def fixes_emitted(self) -> int:
        """How many fixes the shard has produced."""
        with self._lock:
            return len(self._fix_records)

    @property
    def state(self) -> str:
        """Coarse liveness: starting / live / stopped / failed."""
        with self._lock:
            thread, runner, failure = self._thread, self._runner, self._failure
        if failure is not None:
            return "failed"
        if thread is None:
            return "stopped"
        if not thread.is_alive():
            return "stopped"
        return "live" if runner is not None else "starting"

    @property
    def failure(self) -> Optional[str]:
        """The crash reason, when the worker died."""
        with self._lock:
            return self._failure

    def queue_stats(self) -> Dict[str, int]:
        """Ingress-queue admission counters (the backpressure view)."""
        stats = self._ingress.stats
        return {
            "offered": stats.offered,
            "accepted": stats.accepted,
            "dropped": stats.dropped,
        }

    # -- liveness ----------------------------------------------------------

    def liveness_age(self) -> float:
        """Seconds since the worker last completed a loop pass.

        The heartbeat is stamped *after* the stall gate, so a hung
        worker — stalled, deadlocked, wedged in a long poll — shows a
        growing age while its thread stays alive and its state stays
        ``live``.  That gap is exactly what the watchdog's hang
        deadline measures; a crashed shard is caught by ``state``
        instead.
        """
        with self._lock:
            return time.monotonic() - self._heartbeat

    def stall(self, duration_s: float) -> None:
        """Chaos hook: wedge the worker for ``duration_s`` seconds.

        The worker keeps its thread (state stays ``live``, no failure
        recorded) but stops draining, polling and heartbeating — a
        faithful stand-in for a deadlock or a runaway computation.
        ``kill()`` still interrupts a stalled worker within ~10 ms.
        """
        with self._lock:
            self._stall_until = time.monotonic() + duration_s
        obs.count(
            "serve.shard.stalls",
            labels={"deployment": self.spec.deployment_id},
        )

    # -- worker body -------------------------------------------------------

    def _hold_if_stalled(self) -> None:
        while True:
            with self._lock:
                remaining = self._stall_until - time.monotonic()
            if remaining <= 0.0:
                return
            if self._fail.is_set():
                raise ShardError("injected crash (kill())")
            time.sleep(min(remaining, 0.01))

    def _work(self) -> None:
        try:
            runner = build_runner(self.spec, restore=self._restore)
            with self._lock:
                self._runner = runner
                self._heartbeat = time.monotonic()
            self._notify("live")
            unflushed = 0
            while True:
                self._wake.wait(timeout=self.poll_interval_s)
                self._wake.clear()
                if self._fail.is_set():
                    raise ShardError("injected crash (kill())")
                self._hold_if_stalled()
                with self._lock:
                    self._heartbeat = time.monotonic()
                drained = self._ingress.drain()
                if drained:
                    runner.queue.put_many(drained)
                    unflushed += self._emit(runner.poll())
                if self._ckpt_request.is_set():
                    self._ckpt_request.clear()
                    self._write_checkpoint(runner)
                    unflushed = 0
                    self._ckpt_done.set()
                elif (
                    self.checkpoint_every > 0
                    and unflushed >= self.checkpoint_every
                ):
                    self._write_checkpoint(runner)
                    unflushed = 0
                if self._stop.is_set():
                    if self._drain_on_stop:
                        leftovers = self._ingress.drain()
                        if leftovers:
                            runner.queue.put_many(leftovers)
                        self._emit(runner.finish())
                        if self.checkpoint_path is not None:
                            self._write_checkpoint(runner)
                    break
            self._notify("draining")
            self._notify("stopped")
        # The shard crash boundary: ANY escaping failure must become
        # state=failed with the reason recorded, or the supervisor can
        # never notice and restart -- hence deliberately broad.
        except Exception as exc:  # reprolint: disable=RL005
            with self._lock:
                self._failure = str(exc)
            obs.count(
                "serve.shard.crashes",
                labels={"deployment": self.spec.deployment_id},
            )
            self._notify("failed", error=str(exc))

    def _emit(self, fixes: Sequence[Any]) -> int:
        records = [fix_record(fix) for fix in fixes]
        for fix, record in zip(fixes, records):
            self.ring.push(fix)
        if records:
            with self._lock:
                self._fix_records.extend(records)
            obs.count(
                "serve.fixes",
                float(len(records)),
                labels={"deployment": self.spec.deployment_id},
            )
        return len(records)

    def _write_checkpoint(self, runner: StreamRunner) -> None:
        if self.checkpoint_path is None:
            return
        state = runner.checkpoint()
        identity = write_checkpoint_file(
            self.checkpoint_path, state, history_keep=self.history_keep
        )
        with self._lock:
            self._last_checkpoint_id = identity
        obs.count(
            "serve.shard.checkpoints",
            labels={"deployment": self.spec.deployment_id},
        )
        if self._on_checkpoint is not None:
            self._on_checkpoint(identity)

    def _notify(self, state: str, error: Optional[str] = None) -> None:
        if self._on_state is None:
            return
        try:
            self._on_state(state, error=error)
        # Callbacks are bookkeeping; whatever they raise must not take
        # the worker down with them, so the boundary is broad on purpose.
        except Exception:  # reprolint: disable=RL005
            obs.count(
                "serve.shard.state_callback_errors",
                labels={"deployment": self.spec.deployment_id},
            )


class ProcessShard:
    """Process-mode shard: the worker is a killable child process.

    The parent speaks the same length-delimited frames as the network
    protocol over the child's stdin/stdout (see
    :mod:`repro.serve.worker` for the conversation).  All calls are
    synchronous and must come from one thread — the supervisor —
    which keeps the parent side lock-free by construction.
    """

    def __init__(
        self,
        spec: DeploymentSpec,
        checkpoint_path: Optional[PathLike] = None,
        checkpoint_every: int = 0,
        restore: Optional[Mapping[str, Any]] = None,
        on_state: Optional[StateCallback] = None,
        on_checkpoint: Optional[Callable[[str], None]] = None,
        ring_capacity: int = 256,
        io_timeout_s: float = 120.0,
        history_keep: int = 3,
    ) -> None:
        self.spec = spec
        self.checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        self.checkpoint_every = checkpoint_every
        self.io_timeout_s = io_timeout_s
        self.history_keep = history_keep
        self.ring = ProvenanceRing(capacity=ring_capacity)
        self._restore = None if restore is None else dict(restore)
        self._on_state = on_state
        self._on_checkpoint = on_checkpoint
        self._proc: Optional[subprocess.Popen[bytes]] = None
        self._seq = 0
        self._failure: Optional[str] = None
        self._fix_records: List[Dict[str, Any]] = []
        self._last_checkpoint_id: Optional[str] = None
        self._dropped = 0
        # Written around each synchronous pipe exchange on the single
        # supervisor thread; the watchdog thread only ever *reads* the
        # float, which CPython makes tear-free.
        self._inflight_since: Optional[float] = None  # reprolint: lockfree

    def start(self) -> "ProcessShard":
        """Spawn the worker process and wait for its ready frame."""
        if self._proc is not None:
            raise ShardError(
                f"shard {self.spec.deployment_id!r} is already started"
            )
        self._notify("starting")
        environment = os.environ.copy()
        source_root = str(Path(__file__).resolve().parents[2])
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = (
            source_root if not existing
            else source_root + os.pathsep + existing
        )
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=environment,
        )
        job: Dict[str, Any] = {
            "op": "job",
            "spec": self.spec.to_dict(),
            "checkpoint_path": (
                None
                if self.checkpoint_path is None
                else str(self.checkpoint_path)
            ),
            "checkpoint_every": self.checkpoint_every,
            "history_keep": self.history_keep,
            "restore": self._restore,
        }
        self._send(job)
        reply = self._receive()
        if reply.get("op") != "ready":
            raise self._fail_with(
                f"worker did not become ready: {reply.get('error', reply)!r}"
            )
        self._notify("live")
        return self

    def route(self, reads: Sequence[TagRead]) -> Admission:
        """Ship a batch to the child; blocks for its admission verdict.

        Process shards never shed: the pipe exchange is synchronous, so
        the caller *is* the backpressure — there is no ingress backlog
        to watermark.
        """
        self._seq += 1
        self._send(protocol.reads_frame(self._seq, reads))
        reply = self._receive()
        if reply.get("op") != "ack" or reply.get("seq") != self._seq:
            raise self._fail_with(f"worker answered out of protocol: {reply!r}")
        self._absorb_fixes(reply.get("fixes", []))
        accepted = int(reply.get("accepted", 0))
        dropped = int(reply.get("dropped", 0))
        self._dropped += dropped
        return Admission(accepted=accepted, dropped=dropped)

    def checkpoint_sync(self, timeout_s: float = 30.0) -> Optional[str]:
        """Ask the child to checkpoint; returns the identity."""
        self._send({"op": "checkpoint"})
        reply = self._receive()
        if reply.get("op") != "checkpointed":
            raise self._fail_with(f"checkpoint refused: {reply!r}")
        identity = str(reply["checkpoint_id"])
        self._last_checkpoint_id = identity
        if self._on_checkpoint is not None:
            self._on_checkpoint(identity)
        return identity

    def stop(self, drain: bool = True, timeout_s: float = 60.0) -> None:
        """Orderly shutdown: drain, final checkpoint, reap the child."""
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is not None:
            self._proc = None
            return
        try:
            self._send({"op": "bye", "drain": drain})
            reply = self._receive()
            if reply.get("op") == "done":
                self._absorb_fixes(reply.get("fixes", []))
        except ShardError:  # reprolint: disable=RL006
            # _fail_with already recorded and counted the failure; the
            # child still gets reaped below either way.
            pass
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5.0)
        self._close_pipes()
        self._proc = None
        if self._failure is None:
            self._notify("draining")
            self._notify("stopped")

    def kill(self) -> None:
        """SIGKILL the worker — a real crash, no cleanup, no flush."""
        proc = self._proc
        if proc is None:
            return
        proc.kill()
        proc.wait(timeout=10.0)
        self._close_pipes()
        self._proc = None
        self._failure = "killed"
        obs.count(
            "serve.shard.crashes",
            labels={"deployment": self.spec.deployment_id},
        )
        self._notify("failed", error="killed")

    def join(self, timeout_s: float = 30.0) -> None:
        """Process shards have no thread to join; kept for symmetry."""
        return None

    def fix_records(self) -> List[Dict[str, Any]]:
        """All fixes emitted so far, as fix-log records (a copy)."""
        return list(self._fix_records)

    @property
    def fixes_emitted(self) -> int:
        """How many fixes the shard has produced."""
        return len(self._fix_records)

    @property
    def state(self) -> str:
        """Coarse liveness: starting / live / stopped / failed."""
        if self._failure is not None:
            return "failed"
        proc = self._proc
        if proc is None or proc.poll() is not None:
            return "stopped"
        return "live"

    @property
    def failure(self) -> Optional[str]:
        """The crash reason, when the worker died."""
        return self._failure

    def queue_stats(self) -> Dict[str, int]:
        """Admission counters as reported by the child's acks."""
        return {
            "offered": self._seq,
            "accepted": self._seq,
            "dropped": self._dropped,
        }

    # -- liveness ----------------------------------------------------------

    def liveness_age(self) -> float:
        """Seconds the oldest in-flight pipe exchange has been pending.

        ``0.0`` while idle: an idle child cannot be distinguished from
        a wedged one without sending it work, so hang detection for
        process shards measures how long the current request has gone
        unanswered.
        """
        since = self._inflight_since
        if since is None:
            return 0.0
        return time.monotonic() - since

    def stall(self, duration_s: float) -> None:
        """Chaos hook: ``SIGSTOP`` the child for ``duration_s`` seconds.

        A stopped process is the canonical hung-not-crashed shard: the
        pid survives, the pipes stay open, nothing is answered.  A
        daemon timer sends ``SIGCONT`` afterwards; a ``kill()`` in the
        meantime still lands (``SIGKILL`` terminates stopped
        processes).
        """
        proc = self._proc
        if proc is None:
            raise ShardError(
                f"shard {self.spec.deployment_id!r} worker is not running"
            )
        proc.send_signal(signal.SIGSTOP)
        obs.count(
            "serve.shard.stalls",
            labels={"deployment": self.spec.deployment_id},
        )
        timer = threading.Timer(duration_s, self._resume)
        timer.daemon = True
        timer.start()

    def _resume(self) -> None:
        proc = self._proc
        if proc is None or proc.poll() is not None:
            return
        try:
            proc.send_signal(signal.SIGCONT)
        except (OSError, ProcessLookupError):  # reprolint: disable=RL006
            # The child died (or was killed) mid-stall; nothing to wake.
            pass

    # -- plumbing ----------------------------------------------------------

    def _absorb_fixes(self, records: Sequence[Mapping[str, Any]]) -> None:
        for record in records:
            materialized = dict(record)
            self._fix_records.append(materialized)
            self.ring.push_record(materialized)
        if records:
            obs.count(
                "serve.fixes",
                float(len(records)),
                labels={"deployment": self.spec.deployment_id},
            )

    def _send(self, message: Mapping[str, Any]) -> None:
        proc = self._proc
        if proc is None or proc.stdin is None:
            raise ShardError(
                f"shard {self.spec.deployment_id!r} worker is not running"
            )
        if self._inflight_since is None:
            self._inflight_since = time.monotonic()  # reprolint: lockfree
        try:
            protocol.write_frame(proc.stdin, message)
        except (OSError, ValueError) as exc:
            raise self._fail_with(f"worker pipe write failed: {exc}") from exc

    def _receive(self) -> Dict[str, Any]:
        proc = self._proc
        if proc is None or proc.stdout is None:
            raise ShardError(
                f"shard {self.spec.deployment_id!r} worker is not running"
            )
        try:
            frame = protocol.read_frame(proc.stdout)
        except (IngestProtocolError, OSError, ValueError) as exc:
            raise self._fail_with(f"worker pipe read failed: {exc}") from exc
        self._inflight_since = None  # reprolint: lockfree
        if frame is None:
            raise self._fail_with("worker closed its pipe (crashed?)")
        if frame.get("op") == "fatal":
            raise self._fail_with(f"worker failed: {frame.get('error')!r}")
        return frame

    def _fail_with(self, reason: str) -> ShardError:
        if self._failure is None:
            self._failure = reason
            obs.count(
                "serve.shard.crashes",
                labels={"deployment": self.spec.deployment_id},
            )
            self._notify("failed", error=reason)
        return ShardError(
            f"shard {self.spec.deployment_id!r}: {reason}"
        )

    def _close_pipes(self) -> None:
        proc = self._proc
        if proc is None:
            return
        for handle in (proc.stdin, proc.stdout):
            if handle is not None:
                try:
                    handle.close()
                except OSError:  # reprolint: disable=RL006
                    # Closing the pipes of an already-dead child can
                    # fail benignly; there is nothing left to release.
                    pass

    def _notify(self, state: str, error: Optional[str] = None) -> None:
        if self._on_state is None:
            return
        try:
            self._on_state(state, error=error)
        # Same contract as the thread shard: callback failures are
        # counted, never propagated into the pipe conversation.
        except Exception:  # reprolint: disable=RL005
            obs.count(
                "serve.shard.state_callback_errors",
                labels={"deployment": self.spec.deployment_id},
            )

"""Checkpoint/restore of a live :class:`~repro.stream.runner.StreamRunner`.

A continuous monitor that crashes loses more than uptime: the
covariance bank holds minutes of exponentially-weighted history, the
drift tracker has adapted the baseline, and the Kalman tracker carries
the target's velocity.  Rebuilding those from scratch after a restart
changes every subsequent fix.  This module serializes *all* mutable
stream state to a single JSON document so a restarted process continues
**bit-identically** — the crash-resume equivalence is pinned by tier-1
tests.

Format (``schema`` 2, ``kind`` ``dwatch-checkpoint``):

* ``fingerprint`` — reader names, window length and covariance decay of
  the deployment; restoring onto a mismatched runner raises
  :class:`~repro.errors.CheckpointError` rather than silently
  corrupting fixes.
* ``queue`` — still-undrained reads plus the lifetime counters.
* ``assembler`` — pending window cells (sweep/antenna slots plus their
  packed samples), watermark, emitted cursor and the
  late/torn/duplicate/unswept counters.
* ``bank`` — per-(reader, tag) weighted sums (packed), weights and
  update counts.
* ``tracker`` — Kalman state vector and covariance (packed) and the
  last update time.
* ``baseline`` — the (possibly drift-adapted) baseline spectrum sets:
  ``grids``, each distinct angle grid once, and ``sets``, whose spectra
  name their grid by index and carry packed values.
* ``drift`` / ``health`` / counters — the remaining run bookkeeping.

Numeric arrays are *packed*: ``{"dtype": "<f8" | "<c16", "shape":
[...], "data": <base64 of the little-endian bytes>}``, bit-exact by
construction (NaN payloads and signed zeros included) and an order of
magnitude cheaper to serialize than lists of float ``repr`` strings.

Ordered collections — the bank's pairs, the baseline's readers and
tags, pending windows and their cells — are JSON *lists* in the
runner's own iteration order, never key-sorted objects: the baseline's
tag order is the order evidence is multiplied in, so a restore that
re-sorted it by EPC would change fixes in their last bits.

Schema-1 documents (complex numbers as ``[re, im]`` lists, arrays as
nested lists, the baseline as reader/EPC-keyed objects) still restore;
new documents are always schema 2.

Durability and corruption discipline (added for the serving fleet's
chaos drills):

* Files are written via :func:`durable_write_json` — temp sibling,
  ``fsync`` of the data, atomic ``os.replace``, then ``fsync`` of the
  directory — so a host crash can never leave a zero-length or
  half-written "latest" checkpoint.
* Written documents carry an ``integrity`` digest (the
  :func:`checkpoint_id` of the rest of the document).  A bit-flip that
  still parses as JSON is caught on load instead of silently
  corrupting every later fix; documents from before the digest existed
  load unverified (legacy).
* A corrupt file is never deleted: :func:`quarantine_checkpoint`
  renames it to a ``.corrupt`` sibling so an operator can autopsy it,
  and the serving supervisor walks the on-disk lineage (see
  :func:`checkpoint_history_dir`) back to the newest verifiable
  ancestor.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import math
import os
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro import obs
from repro.core.baseline import SpectrumSet
from repro.dsp.spectrum import AngularSpectrum, default_angle_grid
from repro.errors import CheckpointError, EstimationError
from repro.utils.arrays import ArrayLike, ComplexArray
from repro.stream.covariance import EwCovariance
from repro.stream.events import TagRead
from repro.stream.queue import QueueStats
from repro.stream.window import _PendingWindow

if TYPE_CHECKING:
    from repro.stream.runner import StreamRunner

#: Format marker of the documents this build writes.
CHECKPOINT_SCHEMA = 2

#: Every schema this build restores.
READABLE_SCHEMAS = (1, CHECKPOINT_SCHEMA)

#: Element types a packed array may carry (always little-endian).
PACKED_DTYPES = {"<f8": np.dtype("<f8"), "<c16": np.dtype("<c16")}

#: The ``kind`` tag distinguishing checkpoints from other JSON files.
CHECKPOINT_KIND = "dwatch-checkpoint"

#: Key carrying the content digest in *persisted* checkpoint files.
#: Never part of the in-memory state document: :func:`checkpoint_id`
#: ignores it and :func:`load_checkpoint` strips it after verifying.
INTEGRITY_KEY = "integrity"

#: Suffix a corrupt checkpoint is renamed to (never deleted).
QUARANTINE_SUFFIX = ".corrupt"

PathLike = Union[str, Path]


def checkpoint_state(runner: "StreamRunner") -> Dict[str, Any]:
    """Capture every piece of mutable state of a runner (JSON-ready)."""
    items, stats = runner.queue.export_state()
    tracker_state: Optional[Dict[str, Any]] = None
    if runner.tracker is not None and runner.tracker.initialized:
        tracker_state = {
            "state": pack_array(runner.tracker._state, "<f8"),
            "covariance": pack_array(runner.tracker._covariance, "<f8"),
            "last_time": runner.tracker._last_time,
        }
    baseline: Optional[Dict[str, Any]] = None
    if runner.dwatch.baseline is not None:
        baseline = _baseline_state(runner.dwatch.baseline)
    return {
        "schema": CHECKPOINT_SCHEMA,
        "kind": CHECKPOINT_KIND,
        "fingerprint": _fingerprint(runner),
        "queue": {
            "items": [_read(r) for r in items],
            "stats": {
                "offered": stats.offered,
                "accepted": stats.accepted,
                "dropped_oldest": stats.dropped_oldest,
                "dropped_newest": stats.dropped_newest,
                "block_timeouts": stats.block_timeouts,
            },
        },
        "assembler": _assembler_state(runner),
        "bank": _bank_state(runner),
        "tracker": tracker_state,
        "baseline": baseline,
        "drift": {
            "applied_updates": runner.drift.applied_updates,
            "frozen_updates": runner.drift.frozen_updates,
        },
        "health": runner.health.export_state(),
        "fixes_emitted": runner.fixes_emitted,
        "rejected_reads": runner.rejected_reads,
        "lineage": list(runner.lineage),
    }


def checkpoint_id(state: Mapping[str, Any]) -> str:
    """Content identity of a checkpoint document (12 hex chars).

    The SHA-256 of the sorted-key JSON serialization — the same bytes
    :func:`save_checkpoint` writes — so the id is stable across
    load/save round trips and across processes.  Restoring appends this
    id to the runner's lineage, giving every later fix's provenance an
    auditable chain back through each crash-resume.
    """
    document = {k: v for k, v in state.items() if k != INTEGRITY_KEY}
    serialized = json.dumps(document, sort_keys=True)
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()[:12]


def seal_state(state: Mapping[str, Any]) -> Dict[str, Any]:
    """A copy of ``state`` carrying its own :func:`checkpoint_id` digest.

    The digest travels *inside* the persisted file so a restore can
    verify the bytes it read are the bytes that were written — the
    disk-corruption twin of the wire protocol's length prefix.
    """
    sealed = dict(state)
    sealed[INTEGRITY_KEY] = checkpoint_id(state)
    return sealed


def restore_state(runner: "StreamRunner", state: Mapping[str, Any]) -> None:
    """Adopt a checkpoint into a freshly constructed, matching runner."""
    if state.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(f"not a {CHECKPOINT_KIND!r} document")
    if state.get("schema") not in READABLE_SCHEMAS:
        raise CheckpointError(
            f"unsupported checkpoint schema {state.get('schema')!r} "
            f"(this build reads schemas {list(READABLE_SCHEMAS)})"
        )
    expected = _fingerprint(runner)
    found = state.get("fingerprint")
    if found != expected:
        raise CheckpointError(
            f"checkpoint fingerprint {found!r} does not match this "
            f"deployment {expected!r}; refusing to restore"
        )
    try:
        _restore_queue(runner, state["queue"])
        _restore_assembler(runner, state["assembler"])
        _restore_bank(runner, state["bank"])
        _restore_tracker(runner, state["tracker"])
        _restore_baseline(runner, state["baseline"])
        runner.drift.applied_updates = int(state["drift"]["applied_updates"])
        runner.drift.frozen_updates = int(state["drift"]["frozen_updates"])
        runner.health.import_state(state["health"])
        runner.fixes_emitted = int(state["fixes_emitted"])
        runner.rejected_reads = int(state["rejected_reads"])
        # The restored runner's lineage is the checkpoint's own chain
        # plus the checkpoint it just resumed from (documents written
        # before lineage existed count as an empty chain).
        runner.lineage = [
            str(entry) for entry in state.get("lineage", [])
        ] + [checkpoint_id(state)]
    except (KeyError, TypeError, ValueError, IndexError, EstimationError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc


def durable_write_json(path: PathLike, document: Mapping[str, Any]) -> None:
    """Crash-durably write ``document`` as sorted-key JSON at ``path``.

    The write goes to a temp sibling which is fsynced *before* the
    atomic ``os.replace`` and the parent directory is fsynced *after*,
    so a host crash at any instant leaves either the old file or the
    new one — never a zero-length or half-written "latest".
    """
    target = Path(path)
    temp = target.with_name(target.name + ".tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(dict(document), handle, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint {str(target)!r}: {exc}"
        ) from exc
    try:
        # Directory fsync makes the rename itself durable.  Some
        # filesystems refuse to open a directory for writing; the data
        # is still safe past the rename on those, so count and move on.
        dir_fd = os.open(str(target.parent), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        obs.count("stream.checkpoint.dir_fsync_skipped")


def quarantine_checkpoint(path: PathLike) -> Path:
    """Rename a corrupt checkpoint to a ``.corrupt`` sibling.

    The file is never deleted — an operator can autopsy the bytes to
    distinguish a torn write from bad RAM or a disk fault.  Returns the
    quarantine path; collisions gain a numeric suffix so repeated
    corruption of the same deployment keeps every specimen.
    """
    source = Path(path)
    destination = source.with_name(source.name + QUARANTINE_SUFFIX)
    index = 1
    while destination.exists():
        destination = source.with_name(
            f"{source.name}{QUARANTINE_SUFFIX}.{index}"
        )
        index += 1
    try:
        os.replace(source, destination)
    except OSError as exc:
        raise CheckpointError(
            f"cannot quarantine checkpoint {str(source)!r}: {exc}"
        ) from exc
    obs.count("stream.checkpoint.quarantined")
    return destination


def checkpoint_history_dir(path: PathLike) -> Path:
    """The lineage-history directory paired with a "latest" checkpoint.

    ``dep-00.ckpt.json`` keeps its rotated ancestors under
    ``dep-00.ckpt.json.history/<seq>.json`` — newest sequence number is
    the most recent ancestor, which the serving supervisor walks when
    the latest file fails verification.
    """
    return Path(str(path) + ".history")


def save_checkpoint(path: PathLike, runner: "StreamRunner") -> None:
    """Durably write a runner's checkpoint as one sealed JSON document."""
    durable_write_json(path, seal_state(checkpoint_state(runner)))


def load_checkpoint(path: PathLike, *, verify: bool = True) -> Dict[str, Any]:
    """Read a checkpoint document (validated on :func:`restore_state`).

    With ``verify`` (the default) a present ``integrity`` digest is
    checked against the document's :func:`checkpoint_id`; a mismatch —
    bit-flips, partial overwrites, any bytes-read != bytes-written —
    raises :class:`~repro.errors.CheckpointError`.  Documents written
    before the digest existed carry no ``integrity`` key and load
    unverified.  The digest is stripped before returning, so loaded
    state round-trips exactly with :func:`checkpoint_state`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CheckpointError(
            f"cannot open checkpoint {str(path)!r}: {exc}"
        ) from exc
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {str(path)!r} is not valid JSON "
            "(truncated or foreign file?)"
        ) from exc
    if not isinstance(data, dict):
        raise CheckpointError(
            f"checkpoint {str(path)!r} is not a JSON object"
        )
    digest = data.pop(INTEGRITY_KEY, None)
    if verify and digest is not None:
        expected = checkpoint_id(data)
        if digest != expected:
            raise CheckpointError(
                f"checkpoint {str(path)!r} is corrupt: integrity digest "
                f"{digest!r} does not match content {expected!r}"
            )
    return data


# -- serialization helpers ------------------------------------------------


def _fingerprint(runner: "StreamRunner") -> Dict[str, Any]:
    return {
        "readers": sorted(runner.dwatch.readers),
        "window_s": runner.assembler.window_s,
        "decay": runner.config.decay,
    }


def _as_complex(pair: Any) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _read(read: TagRead) -> Dict[str, Any]:
    value = complex(read.iq)
    return {
        "t": read.time_s,
        "r": read.reader_name,
        "e": read.epc,
        "i": [value.real, value.imag],
    }


def _as_read(record: Mapping[str, Any]) -> TagRead:
    return TagRead(
        reader_name=str(record["r"]),
        epc=str(record["e"]),
        time_s=float(record["t"]),
        iq=_as_complex(record["i"]),
    )


# -- packed arrays --------------------------------------------------------


def pack_array(array: ArrayLike, dtype: str) -> Dict[str, Any]:
    """A numeric array as a JSON-ready packed record (bit-exact).

    ``dtype`` is one of :data:`PACKED_DTYPES`; the bytes are always
    little-endian so a document reads back the same on any host.
    """
    data = np.ascontiguousarray(array, dtype=PACKED_DTYPES[dtype])
    return {
        "dtype": dtype,
        "shape": list(data.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def unpack_array(record: Mapping[str, Any], dtype: str) -> np.ndarray:
    """Decode a :func:`pack_array` record of ``dtype`` into a fresh array.

    The result is writable and in native byte order.  Raises
    :class:`~repro.errors.CheckpointError` when the record carries
    another dtype, its data is not base64, or its byte count does not
    match its shape.
    """
    if record.get("dtype") != dtype:
        raise CheckpointError(
            f"malformed checkpoint array: dtype {record.get('dtype')!r} "
            f"where {dtype} belongs"
        )
    element = PACKED_DTYPES[dtype]
    shape = tuple(int(n) for n in record["shape"])
    try:
        raw = base64.b64decode(record["data"], validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed checkpoint array: data is not base64 ({exc})"
        ) from exc
    expected = math.prod(shape) * element.itemsize
    if min(shape, default=0) < 0 or len(raw) != expected:
        raise CheckpointError(
            f"malformed checkpoint array: {len(raw)} bytes for shape "
            f"{list(shape)} of {dtype} ({expected} expected)"
        )
    return np.frombuffer(raw, dtype=element).reshape(shape).astype(
        element.newbyteorder("=")
    )


def _float_array(record: Any) -> np.ndarray:
    """A packed real array, or a schema-1 nested list of floats."""
    if isinstance(record, Mapping):
        return unpack_array(record, "<f8")
    return np.asarray(record, dtype=float)


def _complex_array(record: Any) -> ComplexArray:
    """A packed complex array, or a schema-1 matrix of ``[re, im]`` pairs."""
    if isinstance(record, Mapping):
        return unpack_array(record, "<c16")
    return np.array(
        [[_as_complex(cell) for cell in row] for row in record],
        dtype=np.complex128,
    )


def _baseline_state(baseline: Sequence[SpectrumSet]) -> Dict[str, Any]:
    """Baseline sets in reader/tag order, each distinct angle grid once."""
    grids: Dict[bytes, int] = {}
    packed_grids: List[Dict[str, Any]] = []
    sets: List[List[Dict[str, Any]]] = []
    for spectra in baseline:
        readers: List[Dict[str, Any]] = []
        for reader_name, per_tag in spectra.spectra.items():
            tags: List[Dict[str, Any]] = []
            for epc, spectrum in per_tag.items():
                key = np.ascontiguousarray(spectrum.angles, dtype="<f8").tobytes()
                grid = grids.get(key)
                if grid is None:
                    grid = grids[key] = len(packed_grids)
                    packed_grids.append(pack_array(spectrum.angles, "<f8"))
                tags.append(
                    {
                        "epc": epc,
                        "grid": grid,
                        "values": pack_array(spectrum.values, "<f8"),
                    }
                )
            readers.append({"reader": reader_name, "tags": tags})
        sets.append(readers)
    return {"grids": packed_grids, "sets": sets}


def _shared_grid(record: Mapping[str, Any]) -> np.ndarray:
    """One read-only angle axis for every restored spectrum on a grid.

    A grid bit-equal to the default scan grid *is* the memoized default
    object, as it is for freshly computed spectra, so identity-keyed
    fast paths downstream hit after a restore too.
    """
    angles = unpack_array(record, "<f8")
    default = default_angle_grid()
    if angles.shape == default.shape and angles.tobytes() == default.tobytes():
        return default
    angles.setflags(write=False)
    return angles


def _as_spectrum_sets(record: Any) -> List[SpectrumSet]:
    if not isinstance(record, Mapping):
        return [_as_spectrum_set_v1(entry) for entry in record]
    grids = [_shared_grid(grid) for grid in record["grids"]]
    result: List[SpectrumSet] = []
    for readers in record["sets"]:
        spectra = SpectrumSet()
        for entry in readers:
            spectra.spectra[str(entry["reader"])] = {
                str(tag["epc"]): AngularSpectrum(
                    grids[int(tag["grid"])], _float_array(tag["values"])
                )
                for tag in entry["tags"]
            }
        result.append(spectra)
    return result


def _as_spectrum_set_v1(record: Mapping[str, Any]) -> SpectrumSet:
    result = SpectrumSet()
    for reader_name, per_tag in record.items():
        result.spectra[reader_name] = {
            epc: AngularSpectrum(
                np.asarray(entry["angles"], dtype=float),
                np.asarray(entry["values"], dtype=float),
            )
            for epc, entry in per_tag.items()
        }
    return result


def _assembler_state(runner: "StreamRunner") -> Dict[str, Any]:
    assembler = runner.assembler
    pending: List[Dict[str, Any]] = []
    for index, window in assembler._pending.items():
        cells: List[Dict[str, Any]] = []
        for (reader_name, epc), per_sweep in window.cells.items():
            cells.append(
                {
                    "reader": reader_name,
                    "epc": epc,
                    "sweeps": [
                        [sweep, list(column)]
                        for sweep, column in per_sweep.items()
                    ],
                    "samples": pack_array(
                        [
                            sample
                            for column in per_sweep.values()
                            for sample in column.values()
                        ],
                        "<c16",
                    ),
                }
            )
        pending.append({"index": index, "reads": window.reads, "cells": cells})
    return {
        "pending": pending,
        "max_time": assembler._max_time,
        "emitted_through": assembler._emitted_through,
        "late_reads": assembler.late_reads,
        "torn_sweeps": assembler.torn_sweeps,
        "duplicate_reads": assembler.duplicate_reads,
        "unswept_reads": assembler.unswept_reads,
    }


def _as_cell(cell: Mapping[str, Any]) -> Dict[int, Dict[int, complex]]:
    """One pending cell's sweep -> antenna -> sample map."""
    if "samples" not in cell:
        return {
            int(sweep): {
                int(antenna): _as_complex(sample)
                for antenna, sample in column.items()
            }
            for sweep, column in cell["sweeps"].items()
        }
    sweeps = cell["sweeps"]
    samples = unpack_array(cell["samples"], "<c16").tolist()
    if len(samples) != sum(len(antennas) for _, antennas in sweeps):
        raise ValueError("pending cell sample count does not match its slots")
    flat = iter(samples)
    return {
        int(sweep): {int(antenna): next(flat) for antenna in antennas}
        for sweep, antennas in sweeps
    }


def _bank_state(runner: "StreamRunner") -> List[Dict[str, Any]]:
    return [
        {
            "reader": reader_name,
            "epc": epc,
            "num_antennas": estimator.num_antennas,
            "weighted": pack_array(estimator._weighted, "<c16"),
            "weight": estimator._weight,
            "updates": estimator.updates,
        }
        for (reader_name, epc), estimator in runner.bank._pairs.items()
    ]


# -- restore helpers ------------------------------------------------------


def _restore_queue(runner: "StreamRunner", record: Mapping[str, Any]) -> None:
    stats = record["stats"]
    runner.queue.import_state(
        [_as_read(item) for item in record["items"]],
        QueueStats(
            offered=int(stats["offered"]),
            accepted=int(stats["accepted"]),
            dropped_oldest=int(stats["dropped_oldest"]),
            dropped_newest=int(stats["dropped_newest"]),
            block_timeouts=int(stats["block_timeouts"]),
        ),
    )


def _restore_assembler(
    runner: "StreamRunner", record: Mapping[str, Any]
) -> None:
    assembler = runner.assembler
    assembler._pending.clear()
    for entry in record["pending"]:
        window = _PendingWindow(reads=int(entry["reads"]))
        for cell in entry["cells"]:
            window.cells[(str(cell["reader"]), str(cell["epc"]))] = _as_cell(cell)
        assembler._pending[int(entry["index"])] = window
    raw_max = record["max_time"]
    assembler._max_time = None if raw_max is None else float(raw_max)
    assembler._emitted_through = int(record["emitted_through"])
    # Derived readiness bound; recomputed rather than checkpointed.
    assembler._min_pending_end = min(
        ((index + 1) * assembler.window_s for index in assembler._pending),
        default=None,
    )
    assembler.late_reads = int(record["late_reads"])
    assembler.torn_sweeps = int(record["torn_sweeps"])
    assembler.duplicate_reads = int(record["duplicate_reads"])
    # Schema 1 predates the counter.
    assembler.unswept_reads = int(record.get("unswept_reads", 0))


def _restore_bank(runner: "StreamRunner", record: Any) -> None:
    runner.bank._pairs.clear()
    for entry in record:
        estimator = EwCovariance(
            num_antennas=int(entry["num_antennas"]),
            decay=runner.bank.decay,
        )
        estimator._weighted = _complex_array(entry["weighted"])
        estimator._weight = float(entry["weight"])
        estimator.updates = int(entry["updates"])
        runner.bank._pairs[(str(entry["reader"]), str(entry["epc"]))] = estimator


def _restore_tracker(
    runner: "StreamRunner", record: Optional[Mapping[str, Any]]
) -> None:
    if runner.tracker is None:
        return
    runner.tracker.reset()
    if record is None:
        return
    runner.tracker._state = _float_array(record["state"])
    runner.tracker._covariance = _float_array(record["covariance"])
    runner.tracker._last_time = float(record["last_time"])


def _restore_baseline(runner: "StreamRunner", record: Any) -> None:
    if record is None:
        runner.dwatch.baseline = None
        return
    runner.dwatch.baseline = _as_spectrum_sets(record)

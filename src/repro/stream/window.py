"""Event-time window assembly: from loose tag reads to snapshot windows.

Reads arrive interleaved across readers, tags and TDM antenna slots,
and — over a real network — slightly out of order.  The assembler
groups them back into the ``(M, N)`` snapshot matrices the spectral
chain consumes:

* **Sweep reconstruction** — each read's sweep index and antenna slot
  are derived from its event time via the reader's
  :class:`~repro.rfid.hub.TdmSchedule` (the final slot is
  end-inclusive, so a read stamped exactly on the sweep boundary still
  lands in the sweep).  A sweep with all ``M`` antennas present becomes
  one snapshot column; torn sweeps are counted and discarded, and a
  window left with no complete sweep is dropped with its reads counted
  as ``unswept_reads``.
* **Windowing** — sweeps are grouped into fixed-length event-time
  windows, count-based (``sweeps_per_window`` sweeps, the paper's 10
  packets per fix) or time-based (an explicit ``window_duration_s``).
* **Lateness** — a window closes only once the watermark (the largest
  event time seen, minus the lateness bound) passes its end, so
  out-of-order reads within the bound still make their window.  Reads
  later than that are counted and dropped — never silently reordered
  into an already-emitted window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.constants import PACKETS_PER_FIX
from repro.errors import ConfigurationError, StreamError
from repro.rfid.hub import TdmSchedule
from repro.rfid.reader import Reader
from repro.sim.measurement import Measurement
from repro.stream.events import TagRead

#: Module-local alias saving an attribute lookup in the per-read loop.
_floor = math.floor

#: Relative nudge applied before flooring times into sweep/window bins.
#: Timestamps are sums of slot multiples computed in floating point, so
#: a boundary read can sit a few ulps *below* its bin edge; the nudge
#: (one part in 10^9 of a bin — ten orders of magnitude above ulp noise,
#: five below a slot) snaps it back without ever moving an interior
#: read across a bin.
_TIME_EPS = 1e-9


def sweep_slot(schedule: TdmSchedule, time_s: float) -> Tuple[int, Optional[int]]:
    """Map an event time onto the TDM grid: ``(sweep_index, antenna)``.

    Applies the same edge-clamping the assembler uses, so boundary
    timestamps land in their sweep.  ``antenna`` is ``None`` only for
    a pathological schedule whose slots do not tile the sweep — the
    caller decides whether that is a drop or an error.  Shared with
    :mod:`repro.faults`, which must agree with the assembler about
    which antenna a read belongs to.
    """
    duration = schedule.duration
    sweep_index = int(math.floor(time_s / duration + _TIME_EPS))
    offset = time_s - sweep_index * duration
    # Clamp round-off at the sweep edges: the final slot of a sweep is
    # end-inclusive (see TdmSchedule.antenna_at), the first starts at
    # exactly zero.
    offset = min(max(offset, 0.0), duration)
    antenna = schedule.try_antenna_at(
        min(offset + duration * _TIME_EPS, duration)
    )
    return sweep_index, antenna


@dataclass(frozen=True)
class WindowConfig:
    """Shape of the snapshot windows the assembler emits.

    Parameters
    ----------
    sweeps_per_window:
        Count-based window length: how many full antenna sweeps feed
        one fix (the paper collects 10 backscatter packets per fix).
    window_duration_s:
        Time-based window length; overrides the count-based length
        when set.
    lateness_s:
        How far behind the watermark an out-of-order read may arrive
        and still be admitted.  Defaults to one sweep duration.
    """

    sweeps_per_window: int = PACKETS_PER_FIX
    window_duration_s: Optional[float] = None
    lateness_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sweeps_per_window < 1:
            raise ConfigurationError("a window needs at least one sweep")
        if self.window_duration_s is not None and self.window_duration_s <= 0.0:
            raise ConfigurationError("window duration must be positive")
        if self.lateness_s is not None and self.lateness_s < 0.0:
            raise ConfigurationError("lateness bound cannot be negative")


@dataclass(frozen=True)
class SnapshotWindow:
    """One closed window, ready for spectral estimation.

    ``measurement`` holds the reassembled per-(reader, tag) snapshot
    matrices — the same shape the batch pipeline consumes, so every
    downstream stage is shared.
    """

    index: int
    start_s: float
    end_s: float
    measurement: Measurement
    sweeps: int
    reads: int
    torn_sweeps: int


@dataclass
class _PendingWindow:
    """Accumulating state of one not-yet-closed window."""

    reads: int = 0
    #: (reader, epc) -> sweep index -> antenna -> sample
    cells: Dict[Tuple[str, str], Dict[int, Dict[int, complex]]] = field(
        default_factory=dict
    )


class WindowAssembler:
    """Groups a read stream into event-time snapshot windows.

    Parameters
    ----------
    schedules:
        Per-reader TDM schedules (sweep timing source).
    config:
        Window shape; defaults mirror the paper's 10-sweep fix.
    """

    def __init__(
        self,
        schedules: Mapping[str, TdmSchedule],
        config: Optional[WindowConfig] = None,
    ) -> None:
        if not schedules:
            raise ConfigurationError("window assembler needs at least one reader")
        for name, schedule in schedules.items():
            if schedule.duration <= 0.0:
                raise ConfigurationError(
                    f"reader {name!r} has an empty TDM schedule"
                )
        self.schedules = dict(schedules)
        #: Per-reader hot-path constants consumed by :meth:`push` — the
        #: sweep duration (a recomputing property on the frozen
        #: schedule) and the bound slot lookup.  Schedules never change
        #: after construction, so this is computed once.
        self._hot: Dict[str, Tuple[float, Callable[[float], Optional[int]]]] = {
            name: (schedule.duration, schedule.try_antenna_at)
            for name, schedule in self.schedules.items()
        }
        self.config = config or WindowConfig()
        sweep = max(schedule.duration for schedule in self.schedules.values())
        self.window_s = (
            self.config.window_duration_s
            if self.config.window_duration_s is not None
            else self.config.sweeps_per_window * sweep
        )
        self.lateness_s = (
            self.config.lateness_s if self.config.lateness_s is not None else sweep
        )
        self._pending: Dict[int, _PendingWindow] = {}
        self._max_time: Optional[float] = None
        self._emitted_through = -1
        #: Earliest end time among pending windows; lets push() skip the
        #: per-read readiness scan until the watermark can actually
        #: close something.  Derived state — recomputed after every
        #: emission and on checkpoint restore.
        self._min_pending_end: Optional[float] = None
        self.late_reads = 0
        self.torn_sweeps = 0
        self.duplicate_reads = 0
        #: Reads of windows closed without one complete sweep: such a
        #: window yields no snapshot matrix, so it is discarded.
        self.unswept_reads = 0

    @classmethod
    def for_readers(
        cls,
        readers: Mapping[str, Reader],
        config: Optional[WindowConfig] = None,
    ) -> "WindowAssembler":
        """Build an assembler from reader objects (hub sweep schedules)."""
        return cls(
            {name: reader.hub.sweep_schedule() for name, reader in readers.items()},
            config,
        )

    @property
    def watermark(self) -> Optional[float]:
        """Largest event time seen minus the lateness bound."""
        if self._max_time is None:
            return None
        return self._max_time - self.lateness_s

    def push(self, read: TagRead) -> List[SnapshotWindow]:
        """Ingest one read; returns any windows it closed (often none).

        This is the per-read hot loop of the whole streaming engine
        (hundreds of reads per fix), so :func:`sweep_slot` and the
        window bookkeeping are inlined here with the per-reader sweep
        duration precomputed — kept in sync with :func:`sweep_slot`,
        which remains the shared reference mapping.
        """
        hot = self._hot.get(read.reader_name)
        if hot is None:
            raise StreamError(
                "read references an unknown reader",
                reader=read.reader_name,
                epc=read.epc,
                time_s=read.time_s,
            )
        time_s = read.time_s
        if time_s < 0.0:
            raise StreamError(
                "read carries a negative event time",
                reader=read.reader_name,
                epc=read.epc,
                time_s=time_s,
            )
        window_s = self.window_s
        index = int(_floor(time_s / window_s + _TIME_EPS))
        if index <= self._emitted_through:
            # Beyond the lateness bound: its window has already been
            # emitted.  Dropping (and counting) beats silently mutating
            # history a consumer has acted on.
            self.late_reads += 1
            obs.count("stream.window.late_reads")
            return []
        duration, try_antenna_at = hot
        # Inlined sweep_slot(schedule, time_s); branch clamps produce
        # the same values as its min/max calls.
        sweep_index = int(_floor(time_s / duration + _TIME_EPS))
        offset = time_s - sweep_index * duration
        if offset < 0.0:
            offset = 0.0
        elif offset > duration:
            offset = duration
        probe = offset + duration * _TIME_EPS
        if probe > duration:
            probe = duration
        antenna = try_antenna_at(probe)
        if antenna is None:
            raise StreamError(
                "read falls outside every TDM slot of its reader",
                reader=read.reader_name,
                epc=read.epc,
                time_s=time_s,
            )
        window = self._pending.get(index)
        if window is None:
            window = self._pending[index] = _PendingWindow()
            end_s = (index + 1) * window_s
            if self._min_pending_end is None or end_s < self._min_pending_end:
                self._min_pending_end = end_s
        window.reads += 1
        # get-then-insert instead of setdefault: the default dict
        # argument would be allocated on every read, hit or miss.
        key = (read.reader_name, read.epc)
        per_sweep = window.cells.get(key)
        if per_sweep is None:
            per_sweep = window.cells[key] = {}
        column = per_sweep.get(sweep_index)
        if column is None:
            column = per_sweep[sweep_index] = {}
        if antenna in column:
            self.duplicate_reads += 1
            obs.count("stream.window.duplicate_reads")
        column[antenna] = read.iq
        max_time = self._max_time
        if max_time is None or time_s > max_time:
            self._max_time = max_time = time_s
        # Fast path for the by-far common case: nothing can close yet.
        min_pending_end = self._min_pending_end
        if min_pending_end is None or min_pending_end > max_time - self.lateness_s:
            return []
        return self._emit_ready()

    def flush(self) -> List[SnapshotWindow]:
        """Close and emit every pending window (end of stream)."""
        emitted = [
            self._close(index) for index in sorted(self._pending)
        ]
        self._pending.clear()
        self._min_pending_end = None
        if emitted:
            self._emitted_through = max(w.index for w in emitted)
        return [w for w in emitted if self._keep(w)]

    def _emit_ready(self) -> List[SnapshotWindow]:
        max_time = self._max_time
        if max_time is None:
            return []
        watermark = max_time - self.lateness_s
        # Fast path for the by-far common case: nothing can close yet.
        min_pending_end = self._min_pending_end
        if min_pending_end is None or min_pending_end > watermark:
            return []
        ready = sorted(
            index
            for index in self._pending
            if (index + 1) * self.window_s <= watermark
        )
        emitted: List[SnapshotWindow] = []
        for index in ready:
            window = self._close(index)
            del self._pending[index]
            self._emitted_through = max(self._emitted_through, index)
            if self._keep(window):
                emitted.append(window)
        if ready:
            self._min_pending_end = min(
                ((index + 1) * self.window_s for index in self._pending),
                default=None,
            )
        return emitted

    def _keep(self, window: SnapshotWindow) -> bool:
        """Whether a closed window has a sweep; counts the reads if not."""
        if window.sweeps > 0:
            return True
        self.unswept_reads += window.reads
        obs.count("stream.window.unswept_reads", window.reads)
        return False

    def _close(self, index: int) -> SnapshotWindow:
        pending = self._pending[index]
        measurement = Measurement()
        torn = 0
        max_columns = 0
        for (reader_name, epc), per_sweep in sorted(pending.cells.items()):
            num_antennas = len(self.schedules[reader_name].slots)
            columns: List[List[complex]] = []
            for sweep_index in sorted(per_sweep):
                column = per_sweep[sweep_index]
                if len(column) != num_antennas:
                    torn += 1
                    continue
                columns.append([column[m] for m in range(num_antennas)])
            if not columns:
                continue
            matrix = np.asarray(columns, dtype=np.complex128).T  # (M, N)
            measurement.snapshots.setdefault(reader_name, {})[epc] = matrix
            max_columns = max(max_columns, matrix.shape[1])
        if torn:
            self.torn_sweeps += torn
            obs.count("stream.window.torn_sweeps", torn)
        obs.count("stream.window.closed")
        return SnapshotWindow(
            index=index,
            start_s=index * self.window_s,
            end_s=(index + 1) * self.window_s,
            measurement=measurement,
            sweeps=max_columns,
            reads=pending.reads,
            torn_sweeps=torn,
        )

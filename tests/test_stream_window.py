"""Event-time window assembly: reassembly, lateness, torn sweeps."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, StreamError
from repro.rfid.hub import AntennaHub
from repro.sim.environments import hall_scene
from repro.sim.measurement import MeasurementConfig, MeasurementSession
from repro.stream.events import TagRead
from repro.stream.synthetic import measurement_reads
from repro.stream.window import SnapshotWindow, WindowAssembler, WindowConfig

NUM_ANTENNAS = 4
SCHEDULE = AntennaHub(num_antennas=NUM_ANTENNAS).sweep_schedule()
SWEEP_S = SCHEDULE.duration
SLOT_S = AntennaHub(num_antennas=NUM_ANTENNAS).slot_duration_s


def make_assembler(sweeps_per_window=2, lateness_s=None):
    return WindowAssembler(
        {"r": SCHEDULE},
        WindowConfig(sweeps_per_window=sweeps_per_window, lateness_s=lateness_s),
    )


def sweep_reads(sweep_index, epc="tag", value=None):
    """One full sweep of reads for ``epc``, slot-timestamped."""
    return [
        TagRead(
            reader_name="r",
            epc=epc,
            time_s=sweep_index * SWEEP_S + m * SLOT_S,
            iq=value if value is not None else complex(sweep_index, m),
        )
        for m in range(NUM_ANTENNAS)
    ]


class TestConfig:
    def test_rejects_empty_window(self):
        with pytest.raises(ConfigurationError):
            WindowConfig(sweeps_per_window=0)

    def test_rejects_negative_lateness(self):
        with pytest.raises(ConfigurationError):
            WindowConfig(lateness_s=-0.1)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigurationError):
            WindowConfig(window_duration_s=0.0)

    def test_assembler_needs_readers(self):
        with pytest.raises(ConfigurationError):
            WindowAssembler({})


class TestAssembly:
    def test_in_order_stream_emits_complete_windows(self):
        assembler = make_assembler(sweeps_per_window=2)
        emitted = []
        for sweep in range(6):
            for read in sweep_reads(sweep):
                emitted.extend(assembler.push(read))
        # Watermark (one sweep of lateness by default) has passed the
        # first two windows; window 2 is still pending.
        assert [w.index for w in emitted] == [0, 1]
        window = emitted[0]
        assert isinstance(window, SnapshotWindow)
        assert window.sweeps == 2
        matrix = window.measurement.matrix("r", "tag")
        assert matrix.shape == (NUM_ANTENNAS, 2)
        # Column t, row m carries the sample of sweep t, antenna m.
        expected = np.array(
            [[complex(t, m) for t in range(2)] for m in range(NUM_ANTENNAS)]
        )
        np.testing.assert_array_equal(matrix, expected)

    def test_flush_emits_pending_windows(self):
        assembler = make_assembler(sweeps_per_window=2)
        for read in sweep_reads(0):
            assembler.push(read)
        windows = assembler.flush()
        assert [w.index for w in windows] == [0]
        assert windows[0].sweeps == 1  # only one sweep arrived

    def test_final_slot_boundary_read_stays_in_its_sweep(self):
        # A read stamped exactly at a sweep boundary belongs to the
        # *preceding* sweep's final antenna only if it lands inside the
        # half-open slot; exactly on the boundary starts the next sweep.
        assembler = make_assembler(sweeps_per_window=1)
        boundary = TagRead(reader_name="r", epc="tag", time_s=SWEEP_S, iq=1j)
        assembler.push(boundary)
        windows = assembler.flush()
        # One sweep (index 1) with one antenna: torn, so no matrix.
        assert windows == [] or all(w.sweeps == 0 for w in windows)
        assert assembler.torn_sweeps == 1

    def test_unknown_reader_raises_stream_error(self):
        assembler = make_assembler()
        with pytest.raises(StreamError, match="unknown reader"):
            assembler.push(
                TagRead(reader_name="ghost", epc="tag", time_s=0.0, iq=0j)
            )

    def test_negative_time_raises_stream_error(self):
        assembler = make_assembler()
        with pytest.raises(StreamError, match="negative"):
            assembler.push(
                TagRead(reader_name="r", epc="tag", time_s=-1e-3, iq=0j)
            )

    def test_duplicate_slot_reads_are_counted(self):
        assembler = make_assembler()
        first = sweep_reads(0)[0]
        assembler.push(first)
        assembler.push(first)
        assert assembler.duplicate_reads == 1


class TestLateness:
    def test_out_of_order_within_bound_is_admitted(self):
        assembler = make_assembler(sweeps_per_window=2, lateness_s=SWEEP_S)
        reads = sweep_reads(0) + sweep_reads(1)
        # Deliver the first sweep's reads *after* the second sweep's.
        reordered = reads[NUM_ANTENNAS:] + reads[:NUM_ANTENNAS]
        emitted = []
        for read in reordered:
            emitted.extend(assembler.push(read))
        emitted.extend(assembler.flush())
        assert assembler.late_reads == 0
        assert [w.index for w in emitted] == [0]
        assert emitted[0].sweeps == 2

    def test_reads_beyond_lateness_bound_are_dropped_and_counted(self):
        assembler = make_assembler(sweeps_per_window=1, lateness_s=0.0)
        emitted = []
        for read in sweep_reads(0) + sweep_reads(1):
            emitted.extend(assembler.push(read))
        # Window 0 has been emitted; a straggler from it is late.
        assert [w.index for w in emitted] == [0]
        straggler = sweep_reads(0)[1]
        assert assembler.push(straggler) == []
        assert assembler.late_reads == 1
        # Late reads never mutate already-emitted windows.
        assert emitted[0].measurement.matrix("r", "tag").shape == (NUM_ANTENNAS, 1)

    def test_torn_sweeps_are_counted_and_excluded(self):
        assembler = make_assembler(sweeps_per_window=2)
        reads = sweep_reads(0) + sweep_reads(1)[:-1]  # sweep 1 misses a slot
        for read in reads:
            assembler.push(read)
        windows = assembler.flush()
        assert windows[0].sweeps == 1
        assert windows[0].torn_sweeps == 1
        assert assembler.torn_sweeps == 1

    def test_flushed_window_without_a_sweep_counts_its_reads(self):
        assembler = make_assembler(sweeps_per_window=2)
        for read in sweep_reads(0)[:2]:  # two reads, no complete sweep
            assembler.push(read)
        assert assembler.flush() == []
        assert assembler.unswept_reads == 2

    def test_closed_window_without_a_sweep_counts_its_reads(self):
        assembler = make_assembler(sweeps_per_window=1, lateness_s=0.0)
        emitted = []
        for read in sweep_reads(0)[:3] + sweep_reads(1) + sweep_reads(2):
            emitted.extend(assembler.push(read))
        # Window 0 closes with no complete sweep: dropped, reads counted.
        assert [w.index for w in emitted] == [1]
        assert assembler.unswept_reads == 3
        assert assembler.torn_sweeps == 1


class TestMeasurementRoundtrip:
    def test_synthetic_reads_reassemble_the_exact_capture(self):
        # The acid test: flatten a real multi-reader capture into
        # slot-timestamped reads, reassemble, and demand bit-identical
        # snapshot matrices.
        scene = hall_scene(rng=3, num_tags=5, num_antennas=6)
        session = MeasurementSession(
            scene, MeasurementConfig(num_snapshots=4), rng=4
        )
        measurement = session.capture()
        assembler = WindowAssembler.for_readers(
            {reader.name: reader for reader in scene.readers},
            WindowConfig(sweeps_per_window=4),
        )
        for read in measurement_reads(measurement, scene, 0.0):
            assembler.push(read)
        windows = assembler.flush()
        assert len(windows) == 1
        rebuilt = windows[0].measurement
        assert assembler.torn_sweeps == 0
        assert sorted(rebuilt.readers()) == sorted(measurement.readers())
        for reader_name in measurement.readers():
            for epc in measurement.tags_for(reader_name):
                np.testing.assert_array_equal(
                    rebuilt.matrix(reader_name, epc),
                    measurement.matrix(reader_name, epc),
                )

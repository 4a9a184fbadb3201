"""Checkpoint/restore: format validation and faithful state transfer."""

import base64
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import DWatch
from repro.dsp.spectrum import default_angle_grid
from repro.errors import CheckpointError
from repro.sim.environments import hall_scene
from repro.sim.measurement import MeasurementSession
from repro.stream import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA,
    INTEGRITY_KEY,
    QUARANTINE_SUFFIX,
    StreamRunner,
    checkpoint_history_dir,
    checkpoint_id,
    checkpoint_state,
    durable_write_json,
    load_checkpoint,
    quarantine_checkpoint,
    restore_state,
    save_checkpoint,
    seal_state,
)
from repro.stream.checkpoint import pack_array, unpack_array
from repro.stream.synthetic import SyntheticStreamConfig, synthetic_reads


@pytest.fixture(scope="module")
def tracking():
    scene = hall_scene(rng=5, num_tags=8, num_antennas=6)
    dwatch = DWatch(scene, cell_size=0.1)
    dwatch.calibrate(rng=6)
    session = MeasurementSession(scene, rng=7)
    dwatch.collect_baseline([session.capture() for _ in range(2)])
    return scene, dwatch


def mid_run_state(scene, dwatch, fixes=3):
    """Run half a stream, checkpoint, and hand back the leftovers."""
    config = SyntheticStreamConfig(fixes=fixes, moving=False)
    reads = list(synthetic_reads(scene, config, rng=8))
    half = len(reads) // 2
    runner = StreamRunner(dwatch)
    consumed = []
    for read in reads[:half]:
        runner.ingest(read)
        consumed.extend(runner.poll())
    return runner, checkpoint_state(runner), reads[half:], consumed


class TestFormat:
    def test_header_identifies_the_format(self, tracking):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        assert state["kind"] == CHECKPOINT_KIND
        assert state["schema"] == CHECKPOINT_SCHEMA
        assert state["fingerprint"]["readers"] == sorted(
            r.name for r in scene.readers
        )

    def test_state_is_json_round_trippable(self, tracking):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        clone = json.loads(json.dumps(state))
        assert clone == state

    def test_wrong_kind_is_rejected(self, tracking):
        scene, dwatch = tracking
        runner, state, _, _ = mid_run_state(scene, dwatch)
        state["kind"] = "pickle-of-doom"
        with pytest.raises(CheckpointError, match="dwatch-checkpoint"):
            restore_state(StreamRunner(dwatch), state)

    def test_wrong_schema_is_rejected(self, tracking):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        state["schema"] = CHECKPOINT_SCHEMA + 1
        with pytest.raises(CheckpointError, match="schema"):
            restore_state(StreamRunner(dwatch), state)

    def test_fingerprint_mismatch_is_rejected(self, tracking):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        state["fingerprint"]["readers"] = ["somebody", "else"]
        with pytest.raises(CheckpointError, match="fingerprint"):
            restore_state(StreamRunner(dwatch), state)

    def test_malformed_body_is_rejected(self, tracking):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        state["bank"] = [{"nonsense": True}]
        with pytest.raises(CheckpointError, match="malformed"):
            restore_state(StreamRunner(dwatch), state)


class TestRestore:
    def test_resumed_runner_matches_uninterrupted_run(self, tracking):
        scene, dwatch = tracking
        config = SyntheticStreamConfig(fixes=3, moving=False)
        reads = list(synthetic_reads(scene, config, rng=8))

        straight = StreamRunner(dwatch)
        expected = list(straight.run(iter(reads)))

        runner, state, rest, head = mid_run_state(scene, dwatch)
        resumed = StreamRunner(dwatch)
        restore_state(resumed, state)
        tail = []
        for read in rest:
            resumed.ingest(read)
            tail.extend(resumed.poll())
        tail.extend(resumed.finish())

        combined = head + tail
        assert len(combined) == len(expected)
        for a, b in zip(combined, expected):
            assert a.index == b.index
            assert a.time_s == b.time_s
            assert a.position == b.position
            assert a.predicted_only == b.predicted_only
            assert a.quality == b.quality

    def test_checkpoint_of_restored_runner_is_bit_identical(self, tracking):
        # Bit-identical except for lineage, which deliberately grows by
        # exactly the restored checkpoint's id — the audit trail of the
        # resume itself.
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        resumed = StreamRunner(dwatch)
        restore_state(resumed, state)
        again = checkpoint_state(resumed)
        assert again["lineage"] == state["lineage"] + [checkpoint_id(state)]
        stripped = {k: v for k, v in again.items() if k != "lineage"}
        original = {k: v for k, v in state.items() if k != "lineage"}
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            original, sort_keys=True
        )

    def test_lineage_chains_across_repeated_restores(self, tracking):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        first = StreamRunner(dwatch)
        restore_state(first, state)
        second_state = checkpoint_state(first)
        second = StreamRunner(dwatch)
        restore_state(second, second_state)
        assert second.lineage == [
            checkpoint_id(state),
            checkpoint_id(second_state),
        ]

    def test_pre_lineage_checkpoints_still_restore(self, tracking):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        legacy = {k: v for k, v in state.items() if k != "lineage"}
        resumed = StreamRunner(dwatch)
        restore_state(resumed, legacy)
        assert resumed.lineage == [checkpoint_id(legacy)]


class TestFiles:
    def test_save_load_round_trip(self, tracking, tmp_path):
        scene, dwatch = tracking
        runner, state, _, _ = mid_run_state(scene, dwatch)
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(path, runner)
        assert load_checkpoint(path) == state

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="open"):
            load_checkpoint(tmp_path / "absent.json")

    def test_garbage_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_non_object_payload_raises(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError, match="object"):
            load_checkpoint(path)


class TestIntegrity:
    def test_saved_files_carry_an_integrity_digest(
        self, tracking, tmp_path
    ):
        scene, dwatch = tracking
        runner, state, _, _ = mid_run_state(scene, dwatch)
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(path, runner)
        raw = json.loads(path.read_text())
        assert raw[INTEGRITY_KEY] == checkpoint_id(state)

    def test_digest_excluded_from_checkpoint_id(self, tracking):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        assert checkpoint_id(seal_state(state)) == checkpoint_id(state)

    def test_bit_flip_is_caught_on_load(self, tracking, tmp_path):
        scene, dwatch = tracking
        runner, _, _, _ = mid_run_state(scene, dwatch)
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(path, runner)
        raw = json.loads(path.read_text())
        raw["fixes_emitted"] = int(raw["fixes_emitted"]) + 1
        path.write_text(json.dumps(raw, sort_keys=True))
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_verify_false_loads_a_tampered_file(self, tracking, tmp_path):
        scene, dwatch = tracking
        runner, _, _, _ = mid_run_state(scene, dwatch)
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(path, runner)
        raw = json.loads(path.read_text())
        raw["fixes_emitted"] = int(raw["fixes_emitted"]) + 1
        path.write_text(json.dumps(raw, sort_keys=True))
        loaded = load_checkpoint(path, verify=False)
        assert INTEGRITY_KEY not in loaded

    def test_legacy_files_without_digest_load(self, tracking, tmp_path):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        path = tmp_path / "legacy.ckpt.json"
        path.write_text(json.dumps(state, sort_keys=True))
        assert load_checkpoint(path) == state


class TestQuarantine:
    def test_quarantine_renames_never_deletes(self, tmp_path):
        path = tmp_path / "dep.ckpt.json"
        path.write_text("broken {")
        moved = quarantine_checkpoint(path)
        assert not path.exists()
        assert moved == tmp_path / ("dep.ckpt.json" + QUARANTINE_SUFFIX)
        assert moved.read_text() == "broken {"

    def test_repeat_quarantine_keeps_every_specimen(self, tmp_path):
        path = tmp_path / "dep.ckpt.json"
        path.write_text("first")
        first = quarantine_checkpoint(path)
        path.write_text("second")
        second = quarantine_checkpoint(path)
        assert first != second
        assert first.read_text() == "first"
        assert second.read_text() == "second"

    def test_quarantining_a_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="quarantine"):
            quarantine_checkpoint(tmp_path / "absent.json")


class TestDurableWrite:
    def test_no_temp_sibling_left_behind(self, tmp_path):
        path = tmp_path / "doc.json"
        durable_write_json(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        assert list(tmp_path.iterdir()) == [path]

    def test_replaces_existing_file_atomically(self, tmp_path):
        path = tmp_path / "doc.json"
        durable_write_json(path, {"v": 1})
        durable_write_json(path, {"v": 2})
        assert json.loads(path.read_text()) == {"v": 2}

    def test_history_dir_is_a_sibling(self, tmp_path):
        path = tmp_path / "dep-00.ckpt.json"
        assert checkpoint_history_dir(path) == tmp_path / (
            "dep-00.ckpt.json.history"
        )


# -- schema 2: packed arrays, grid table, runner order ---------------------

#: Float64 bit patterns hypothesis might not reach on its own: signed
#: zeros, infinities, quiet and signalling NaNs with payloads, and the
#: extreme subnormals.
SPECIAL_BITS = [
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000001,  # quiet NaN, payload 1
    0xFFF8DEADBEEF0000,  # negative quiet NaN with a payload
    0x7FF0000000000001,  # signalling NaN
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest-magnitude negative subnormal
]

float_bits = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))


def floats_from_bits(bits):
    return np.frombuffer(struct.pack(f"<{len(bits)}Q", *bits), dtype="<f8")


def through_json(record):
    return json.loads(json.dumps(record, sort_keys=True))


class TestPackedArrays:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(float_bits, max_size=24))
    @example(SPECIAL_BITS)
    def test_float64_round_trip_is_bit_exact(self, bits):
        array = floats_from_bits(bits)
        back = unpack_array(through_json(pack_array(array, "<f8")), "<f8")
        assert back.dtype == np.float64
        assert back.shape == array.shape
        assert back.tobytes() == array.tobytes()
        assert back.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(st.lists(float_bits, min_size=2, max_size=24).map(
        lambda bits: bits[: len(bits) // 2 * 2]
    ))
    @example(SPECIAL_BITS + SPECIAL_BITS[:1])
    def test_complex128_round_trip_is_bit_exact(self, bits):
        array = floats_from_bits(bits).view("<c16").reshape(-1, 1)
        back = unpack_array(through_json(pack_array(array, "<c16")), "<c16")
        assert back.dtype == np.complex128
        assert back.shape == array.shape
        assert back.tobytes() == array.tobytes()

    def test_matrix_shape_survives(self):
        matrix = np.arange(12.0).reshape(3, 4) * (1 + 2j)
        back = unpack_array(through_json(pack_array(matrix, "<c16")), "<c16")
        np.testing.assert_array_equal(back, matrix)

    def test_bad_base64_raises(self):
        record = pack_array(np.ones(2), "<f8")
        record["data"] = "not*base64!"
        with pytest.raises(CheckpointError, match="base64"):
            unpack_array(record, "<f8")

    def test_length_mismatch_raises(self):
        record = pack_array(np.ones(3), "<f8")
        record["shape"] = [4]
        with pytest.raises(CheckpointError, match="bytes"):
            unpack_array(record, "<f8")
        record = pack_array(np.ones(3), "<f8")
        record["data"] = base64.b64encode(b"\0" * 23).decode("ascii")
        with pytest.raises(CheckpointError, match="bytes"):
            unpack_array(record, "<f8")

    def test_unknown_dtype_raises(self):
        record = pack_array(np.ones(2), "<f8")
        record["dtype"] = ">f4"
        with pytest.raises(CheckpointError, match="dtype"):
            unpack_array(record, "<f8")

    def test_corrupt_packed_bank_fails_restore(self, tracking):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        state["bank"][0]["weighted"]["shape"] = [7, 7]
        with pytest.raises(CheckpointError):
            restore_state(StreamRunner(dwatch), state)

    def test_pending_samples_must_match_their_slots(self, tracking):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        cell = state["assembler"]["pending"][0]["cells"][0]
        cell["samples"] = pack_array(np.zeros(1, dtype=complex), "<c16")
        with pytest.raises(CheckpointError, match="slots"):
            restore_state(StreamRunner(dwatch), state)

    def test_wrong_dtype_for_a_field_fails_restore(self, tracking):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        bank = state["bank"][0]
        bank["weighted"] = pack_array(np.ones((6, 6)), "<f8")
        with pytest.raises(CheckpointError, match="<c16"):
            restore_state(StreamRunner(dwatch), state)


def _schema1_complex(value):
    value = complex(value)
    return [value.real, value.imag]


def schema1_state(runner):
    """The runner's checkpoint in the schema-1 list encoding."""
    state = checkpoint_state(runner)
    assembler = runner.assembler
    pending = []
    for index in sorted(assembler._pending):
        window = assembler._pending[index]
        cells = [
            {
                "reader": reader_name,
                "epc": epc,
                "sweeps": {
                    str(sweep): {
                        str(antenna): _schema1_complex(sample)
                        for antenna, sample in column.items()
                    }
                    for sweep, column in window.cells[(reader_name, epc)].items()
                },
            }
            for (reader_name, epc) in sorted(window.cells)
        ]
        pending.append({"index": index, "reads": window.reads, "cells": cells})
    state["assembler"]["pending"] = pending
    del state["assembler"]["unswept_reads"]
    state["bank"] = [
        {
            "reader": reader_name,
            "epc": epc,
            "num_antennas": estimator.num_antennas,
            "weighted": [
                [_schema1_complex(cell) for cell in row]
                for row in estimator._weighted
            ],
            "weight": estimator._weight,
            "updates": estimator.updates,
        }
        for (reader_name, epc), estimator in sorted(runner.bank._pairs.items())
    ]
    if state["tracker"] is not None:
        state["tracker"]["state"] = [float(v) for v in runner.tracker._state]
        state["tracker"]["covariance"] = [
            [float(v) for v in row] for row in runner.tracker._covariance
        ]
    state["baseline"] = [
        {
            reader_name: {
                epc: {
                    "angles": [float(a) for a in spectrum.angles],
                    "values": [float(v) for v in spectrum.values],
                }
                for epc, spectrum in per_tag.items()
            }
            for reader_name, per_tag in spectra.spectra.items()
        }
        for spectra in runner.dwatch.baseline
    ]
    state["schema"] = 1
    return state


def resume(dwatch, state, rest):
    """Restore ``state`` into a fresh runner and play ``rest`` through it."""
    resumed = StreamRunner(dwatch)
    restore_state(resumed, state)
    tail = []
    for read in rest:
        resumed.ingest(read)
        tail.extend(resumed.poll())
    tail.extend(resumed.finish())
    return resumed, tail


def uninterrupted(scene, dwatch, fixes=3):
    config = SyntheticStreamConfig(fixes=fixes, moving=False)
    reads = list(synthetic_reads(scene, config, rng=8))
    return [repr(f) for f in StreamRunner(dwatch).run(iter(reads))]


class TestSchema2:
    def test_documents_pack_arrays_and_share_one_grid(self, tracking):
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        assert state["schema"] == 2
        assert state["bank"][0]["weighted"]["dtype"] == "<c16"
        baseline = state["baseline"]
        assert len(baseline["grids"]) == 1
        tags = [t for s in baseline["sets"] for r in s for t in r["tags"]]
        assert {t["grid"] for t in tags} == {0}
        assert all(t["values"]["dtype"] == "<f8" for t in tags)

    def test_restored_spectra_share_one_read_only_grid(self, tracking):
        # Freshly computed spectra all sit on the memoized scan grid;
        # restored ones must too, so identity fast paths still hit.
        scene, dwatch = tracking
        _, state, _, _ = mid_run_state(scene, dwatch)
        restore_state(StreamRunner(dwatch), through_json(state))
        axes = {
            id(spectrum.angles)
            for spectra in dwatch.baseline
            for per_tag in spectra.spectra.values()
            for spectrum in per_tag.values()
        }
        assert axes == {id(default_angle_grid())}

    def test_unswept_reads_survive_a_restore(self, tracking):
        scene, dwatch = tracking
        runner, _, _, _ = mid_run_state(scene, dwatch)
        runner.assembler.unswept_reads = 5
        resumed = StreamRunner(dwatch)
        restore_state(resumed, through_json(checkpoint_state(runner)))
        assert resumed.assembler.unswept_reads == 5

    def test_schema1_document_restores_to_the_same_fixes(self, tracking):
        scene, dwatch = tracking
        expected = uninterrupted(scene, dwatch)
        runner, _, rest, head = mid_run_state(scene, dwatch)
        legacy = schema1_state(runner)
        resumed, tail = resume(dwatch, legacy, rest)
        assert [repr(f) for f in head + tail] == expected
        assert resumed.lineage == [checkpoint_id(legacy)]

    def test_json_restore_keeps_runner_order(self, tracking):
        # Regression: sorted-key JSON used to rebuild the baseline in
        # sorted EPC order, which changes the order evidence is
        # multiplied in and so the last bits of some fixes.
        scene, dwatch = tracking
        epcs = [tag.epc for tag in scene.tags]
        assert epcs != sorted(epcs), "the scene must exercise unsorted EPCs"
        expected = uninterrupted(scene, dwatch)
        baseline_order = [
            [(reader, list(per_tag)) for reader, per_tag in s.spectra.items()]
            for s in dwatch.baseline
        ]
        runner, state, rest, head = mid_run_state(scene, dwatch)
        bank_order = list(runner.bank._pairs)
        text = json.dumps(seal_state(state), sort_keys=True)
        loaded = json.loads(text)
        assert loaded.pop(INTEGRITY_KEY) == checkpoint_id(loaded)
        resumed, tail = resume(dwatch, loaded, rest)
        assert [
            [(reader, list(per_tag)) for reader, per_tag in s.spectra.items()]
            for s in dwatch.baseline
        ] == baseline_order
        assert list(resumed.bank._pairs)[: len(bank_order)] == bank_order
        assert [repr(f) for f in head + tail] == expected

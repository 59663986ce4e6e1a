"""Round-trip tests for the JSON serialization layer."""

import json
import os

import pytest

from repro.circuit.defects import OpenDefect, OpenLocation
from repro.core.coupling import CouplingFFM
from repro.core.fault_primitives import parse_fp
from repro.core.ffm import FFM
from repro.core.regions import FPRegionMap
from repro.io import (
    CheckpointStore,
    JsonlAppender,
    dump_finding,
    dump_fp,
    dump_march,
    dump_region_map,
    dump_signature_database,
    dumps_march,
    load_finding,
    load_fp,
    load_march,
    load_region_map,
    load_signature_database,
    loads_march,
)
from repro.march.library import ALL_TESTS, IFA_13, MARCH_PF_PLUS


class TestMarchRoundTrip:
    @pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
    def test_all_library_tests(self, test):
        recovered = load_march(dump_march(test))
        assert recovered.name == test.name
        assert recovered.elements == test.elements

    def test_string_roundtrip(self):
        assert loads_march(dumps_march(IFA_13)).elements == IFA_13.elements

    def test_json_serializable(self):
        json.dumps(dump_march(MARCH_PF_PLUS))

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            load_fp(dump_march(MARCH_PF_PLUS))

    def test_format_guard(self):
        data = dump_march(MARCH_PF_PLUS)
        data["format"] = "other"
        with pytest.raises(ValueError):
            load_march(data)


class TestFaultPrimitiveRoundTrip:
    @pytest.mark.parametrize("text", [
        "<1r1/0/0>", "<0w1/0/->", "<1v [w0BL] r1v/0/0>",
        "<[w1 w0] r0/1/1>", "<0/1/->",
    ])
    def test_roundtrip(self, text):
        fp = parse_fp(text)
        assert load_fp(dump_fp(fp)) == fp


class TestRegionMapRoundTrip:
    def test_mixed_labels(self):
        region = FPRegionMap(
            (1e3, 1e4),
            (0.0, 1.0),
            (
                (FFM.RDF1, None),
                (CouplingFFM.CFST_01, parse_fp("<1r1/0/0>")),
            ),
        )
        recovered = load_region_map(dump_region_map(region))
        assert recovered == region

    def test_string_labels(self):
        region = FPRegionMap((1.0,), (0.0,), (("weird",),))
        assert load_region_map(dump_region_map(region)) == region

    def test_json_serializable(self):
        region = FPRegionMap((1.0,), (0.0,), ((FFM.SF0,),))
        json.dumps(dump_region_map(region))


class TestSignatureDatabaseRoundTrip:
    def test_roundtrip_preserves_diagnosis(self):
        from repro.core.diagnosis import SignatureDatabase

        database = SignatureDatabase(
            points_per_decade=1,
            locations=(OpenLocation.BL_PRECHARGE_CELLS, OpenLocation.CELL),
        )
        data = json.loads(json.dumps(dump_signature_database(database)))
        recovered = load_signature_database(data)
        assert recovered.size == database.size
        defect = OpenDefect(OpenLocation.BL_PRECHARGE_CELLS, 1e6)
        original = database.diagnose_defect(defect)
        # The loaded DB diagnoses from a freshly collected signature.
        loaded = recovered.diagnose(database.signature_of(defect))
        assert [c.location for c in loaded.candidates] == [
            c.location for c in original.candidates
        ]


class TestCheckpointCodecs:
    def _finding(self):
        from repro.circuit.defects import FloatingNode
        from repro.core.analysis import PartialFaultFinding
        from repro.core.fault_primitives import parse_sos

        region = FPRegionMap(
            (1e3, 1e4),
            (0.0, 1.0),
            ((FFM.RDF0, None), (None, FFM.RDF0)),
        )
        return PartialFaultFinding(
            OpenLocation.CELL,
            (FloatingNode.CELL,),
            parse_sos("0r0"),
            FFM.RDF0,
            region,
        )

    def test_finding_roundtrip(self):
        finding = self._finding()
        recovered = load_finding(json.loads(json.dumps(dump_finding(finding))))
        assert recovered.location is finding.location
        assert recovered.floating == finding.floating
        assert recovered.probe_sos == finding.probe_sos
        assert recovered.ffm is finding.ffm
        assert recovered.region == finding.region

    def _quarantined_point(self):
        from repro.circuit.defects import FloatingNode
        from repro.core.analysis import QuarantinedPoint

        return QuarantinedPoint(
            location=OpenLocation.CELL,
            floating=(FloatingNode.CELL,),
            sos="0r0",
            r_def=3e4,
            u=1.65,
            guard="nan",
            detail="solver guard 'nan' tripped: non-finite node voltage",
        )

    def test_quarantined_point_roundtrip(self):
        from repro.io import dump_quarantined_point, load_quarantined_point

        point = self._quarantined_point()
        data = json.loads(json.dumps(dump_quarantined_point(point)))
        assert load_quarantined_point(data) == point

    def test_quarantined_label_roundtrip(self):
        from repro.core.regions import QUARANTINED

        region = FPRegionMap(
            (1e3, 1e4),
            (0.0, 1.0),
            ((FFM.RDF0, QUARANTINED), (None, FFM.RDF0)),
        )
        data = json.loads(json.dumps(dump_region_map(region)))
        recovered = load_region_map(data)
        assert recovered.labels[0][1] is QUARANTINED
        assert recovered == region

class TestCheckpointStore:
    def test_record_then_load(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with CheckpointStore(path) as store:
            store.record("alpha", True)
            store.record("beta", [1, 2.5, "x"])
        assert CheckpointStore(path).load() == {
            "alpha": True, "beta": [1, 2.5, "x"],
        }

    def test_duplicate_keys_last_wins(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with CheckpointStore(path) as store:
            store.record("k", 1)
            store.record("k", 2)
        assert CheckpointStore(path).load() == {"k": 2}

    def test_missing_file_is_empty(self, tmp_path):
        assert CheckpointStore(str(tmp_path / "nope.jsonl")).load() == {}

    def test_skips_torn_foreign_and_unknown_lines(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with CheckpointStore(path) as store:
            store.record("good", 7)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write('{"format": "other", "kind": "checkpoint-unit", '
                     '"key": "x", "payload": 1}\n')
            fh.write('{"format": "repro-v1", "kind": "job-journal", '
                     '"key": "y", "payload": 1}\n')
            fh.write('{"format": "repro-v1", "kind": "checkpo')  # torn tail
        assert CheckpointStore(path).load() == {"good": 7}


class TestJsonlAppender:
    """A record starts on a fresh line exactly when the file's last line
    is torn."""

    def test_first_append_after_a_torn_tail_starts_a_fresh_line(
        self, tmp_path
    ):
        path = tmp_path / "torn.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b"')
        with JsonlAppender(str(path)) as appender:
            appender.append({"c": 3})
            appender.append({"d": 4})
        assert path.read_bytes() == (
            b'{"a": 1}\n{"b"\n{"c": 3}\n{"d": 4}\n'
        )

    def test_whole_or_empty_files_get_no_extra_newline(self, tmp_path):
        whole = tmp_path / "whole.jsonl"
        whole.write_bytes(b'{"a": 1}\n')
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        for path in (whole, empty, tmp_path / "new.jsonl"):
            before = path.read_bytes() if path.exists() else b""
            with JsonlAppender(str(path)) as appender:
                appender.append({"c": 3})
            assert path.read_bytes() == before + b'{"c": 3}\n'


class TestCheckpointConcurrentWriters:
    """O_APPEND + single-write() records interleave whole, never torn."""

    def test_concurrent_writers_interleave_whole_records(self, tmp_path):
        import threading

        path = str(tmp_path / "shared.jsonl")
        writers, per_writer = 8, 50
        barrier = threading.Barrier(writers)
        # A bulky payload makes a torn interleave (one record landing
        # inside another) far more likely if the append were not atomic.
        filler = "x" * 512

        def append(writer_index):
            with CheckpointStore(path) as store:
                barrier.wait()
                for unit in range(per_writer):
                    store.record(
                        f"w{writer_index}-u{unit}",
                        {"writer": writer_index, "unit": unit,
                         "filler": filler},
                    )

        threads = [
            threading.Thread(target=append, args=(index,))
            for index in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == writers * per_writer
        for line in lines:
            json.loads(line)  # every line is one whole record
        loaded = CheckpointStore(path).load()
        assert len(loaded) == writers * per_writer
        for writer_index in range(writers):
            for unit in range(per_writer):
                assert loaded[f"w{writer_index}-u{unit}"]["unit"] == unit

    def test_crash_torn_tail_loses_only_the_last_record(self, tmp_path):
        path = str(tmp_path / "crashed.jsonl")
        with CheckpointStore(path) as store:
            for unit in range(5):
                store.record(f"u{unit}", unit)
        # Simulate a hard kill mid-write: truncate into the last record.
        size = os.path.getsize(path)
        with open(path, "rb+") as fh:
            fh.truncate(size - 7)
        loaded = CheckpointStore(path).load()
        assert loaded == {f"u{unit}": unit for unit in range(4)}

    def test_record_after_close_reopens_the_descriptor(self, tmp_path):
        path = str(tmp_path / "reopen.jsonl")
        store = CheckpointStore(path)
        store.record("a", 1)
        store.close()
        store.record("b", 2)  # appends, never truncates
        store.close()
        assert CheckpointStore(path).load() == {"a": 1, "b": 2}

    def test_partial_write_raises_without_a_continuation_write(
        self, tmp_path, monkeypatch
    ):
        # A follow-up write after a short one would not be atomic with
        # it and could interleave with a concurrent writer — record()
        # must raise and leave only the torn tail load() already skips.
        path = str(tmp_path / "short.jsonl")
        store = CheckpointStore(path)
        store.record("ok", 1)
        real_write = os.write
        writes = []

        def short_write(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data[: len(data) // 2])

        monkeypatch.setattr(os, "write", short_write)
        with pytest.raises(OSError, match="short checkpoint append"):
            store.record("torn", 2)
        monkeypatch.undo()
        assert len(writes) == 1  # no second write for the remainder
        store.close()
        assert CheckpointStore(path).load() == {"ok": 1}

"""Content-addressed result store: caching, LRU, TTL, persistence."""

import json
import os
import time

import pytest

from repro import telemetry
from repro.service.store import ResultStore, payload_digest


def _payload(n):
    return {"format": "repro-v1", "kind": "job-result", "n": n}


class TestMemoryStore:
    def test_round_trip_and_miss(self):
        store = ResultStore()
        assert store.get("aa") is None
        store.put("aa", _payload(1))
        assert store.get("aa") == _payload(1)
        assert store.contains("aa") and not store.contains("bb")
        assert len(store) == 1 and store.addresses() == ("aa",)

    def test_clear(self):
        store = ResultStore()
        store.put("aa", _payload(1))
        store.clear()
        assert len(store) == 0 and store.get("aa") is None

    def test_lru_eviction_prefers_stale_entries(self):
        store = ResultStore(max_entries=2)
        store.put("aa", _payload(1))
        store.put("bb", _payload(2))
        store.get("aa")  # refresh: "bb" is now least recently used
        store.put("cc", _payload(3))
        assert store.get("bb") is None
        assert store.get("aa") == _payload(1)
        assert store.get("cc") == _payload(3)

    def test_ttl_expires_entries(self):
        store = ResultStore(ttl=0.05)
        store.put("aa", _payload(1))
        assert store.get("aa") == _payload(1)
        time.sleep(0.12)
        assert not store.contains("aa")
        assert store.get("aa") is None
        assert len(store) == 0  # expired entry was evicted at lookup

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ResultStore(max_entries=0)
        with pytest.raises(ValueError):
            ResultStore(ttl=0)


class TestDiskStore:
    def test_round_trip_writes_one_document_per_address(self, tmp_path):
        root = str(tmp_path / "results")
        store = ResultStore(root=root)
        store.put("aa", _payload(1))
        path = os.path.join(root, "aa.json")
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
        assert document["kind"] == "result-record"
        assert document["payload"] == _payload(1)
        assert document["digest"] == payload_digest(_payload(1))
        assert store.get("aa") == _payload(1)

    def test_index_survives_restart(self, tmp_path):
        root = str(tmp_path / "results")
        ResultStore(root=root).put("aa", _payload(1))
        reopened = ResultStore(root=root)
        assert len(reopened) == 1
        assert reopened.get("aa") == _payload(1)

    def test_eviction_removes_the_document(self, tmp_path):
        root = str(tmp_path / "results")
        store = ResultStore(root=root, max_entries=1)
        store.put("aa", _payload(1))
        store.put("bb", _payload(2))
        assert not os.path.exists(os.path.join(root, "aa.json"))
        assert store.get("aa") is None
        assert store.get("bb") == _payload(2)

    def test_vanished_document_is_a_miss(self, tmp_path):
        root = str(tmp_path / "results")
        store = ResultStore(root=root)
        store.put("aa", _payload(1))
        os.remove(os.path.join(root, "aa.json"))
        assert store.get("aa") is None
        assert len(store) == 0  # stale index entry dropped

    def test_foreign_files_are_ignored_on_rebuild(self, tmp_path):
        root = str(tmp_path / "results")
        os.makedirs(root)
        with open(os.path.join(root, "notes.txt"), "w") as fh:
            fh.write("not a result")
        assert len(ResultStore(root=root)) == 0


class TestCounters:
    def test_hit_miss_put_eviction_expiry(self):
        telemetry.enable()
        telemetry.reset()
        metrics = telemetry.get_metrics()
        store = ResultStore(max_entries=1, ttl=0.05)
        store.get("aa")
        store.put("aa", _payload(1))
        store.get("aa")
        store.put("bb", _payload(2))  # evicts "aa" (cap 1)
        time.sleep(0.12)
        store.get("bb")  # expired
        assert metrics.counter_value("service.store.misses") == 2
        assert metrics.counter_value("service.store.hits") == 1
        assert metrics.counter_value("service.store.puts") == 2
        assert metrics.counter_value("service.store.evictions") == 1
        assert metrics.counter_value("service.store.expired") == 1
        assert metrics.gauge_value("service.store.entries") == 1

    def test_contains_records_no_counters(self):
        telemetry.enable()
        telemetry.reset()
        metrics = telemetry.get_metrics()
        store = ResultStore()
        store.contains("aa")
        assert metrics.counter_value("service.store.misses") == 0


class TestIntegrity:
    def _corrupt(self, root, address):
        path = os.path.join(root, address + ".json")
        with open(path, "r+b") as fh:
            fh.seek(10)
            fh.write(b"\xff\xfe")

    def test_corrupted_document_is_quarantined_not_served(self, tmp_path):
        root = str(tmp_path / "results")
        store = ResultStore(root=root)
        store.put("aa", _payload(1))
        self._corrupt(root, "aa")
        assert store.get("aa") is None
        assert store.corrupt == 1
        # The bytes moved aside for post-mortem, not deleted.
        quarantined = os.listdir(os.path.join(root, "quarantine"))
        assert quarantined == ["aa.json"]
        assert not os.path.exists(os.path.join(root, "aa.json"))
        # A recompute stores a fresh verified copy.
        store.put("aa", _payload(1))
        assert store.get("aa") == _payload(1)

    def test_digest_mismatch_is_quarantined(self, tmp_path):
        root = str(tmp_path / "results")
        store = ResultStore(root=root)
        store.put("aa", _payload(1))
        path = os.path.join(root, "aa.json")
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
        document["payload"]["n"] = 999  # bit rot with intact JSON
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        assert store.get("aa") is None
        assert store.corrupt == 1

    def test_rebuild_skips_and_quarantines_damaged_documents(
        self, tmp_path
    ):
        root = str(tmp_path / "results")
        store = ResultStore(root=root)
        store.put("aa", _payload(1))
        store.put("bb", _payload(2))
        store.put("cc", _payload(3))
        self._corrupt(root, "aa")
        # Truncation (torn write) is also damage.
        with open(os.path.join(root, "bb.json"), "r+b") as fh:
            fh.truncate(17)
        reopened = ResultStore(root=root)
        assert reopened.addresses() == ("cc",)
        assert reopened.rebuild_skipped == 2
        assert reopened.get("cc") == _payload(3)
        assert sorted(os.listdir(os.path.join(root, "quarantine"))) == [
            "aa.json",
            "bb.json",
        ]

    def test_bare_payload_is_quarantined(self, tmp_path):
        # A document without the digest envelope cannot be verified, so
        # it is damage, not a result.
        root = str(tmp_path / "results")
        os.makedirs(root)
        with open(os.path.join(root, "aa.json"), "w") as fh:
            json.dump(_payload(1), fh)
        store = ResultStore(root=root)
        assert store.get("aa") is None
        assert store.rebuild_skipped == 1
        assert os.listdir(os.path.join(root, "quarantine")) == ["aa.json"]

    def test_envelope_with_a_foreign_kind_is_quarantined(self, tmp_path):
        root = str(tmp_path / "results")
        store = ResultStore(root=root)
        store.put("aa", _payload(1))
        path = os.path.join(root, "aa.json")
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
        document["kind"] = "result-recorc"  # one flipped byte
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        assert store.get("aa") is None
        assert store.corrupt == 1

    def test_corruption_counters(self, tmp_path):
        telemetry.enable()
        telemetry.reset()
        metrics = telemetry.get_metrics()
        root = str(tmp_path / "results")
        store = ResultStore(root=root)
        store.put("aa", _payload(1))
        self._corrupt(root, "aa")
        store.get("aa")
        assert metrics.counter_value("service.store.corrupt") == 1
        assert metrics.counter_value("service.store.misses") == 1
        self._corrupt_fresh = ResultStore(root=root)  # nothing left to skip
        assert (
            metrics.counter_value("service.store.rebuild_skipped") == 0
        )

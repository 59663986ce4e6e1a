"""Content-addressed result store with TTL/LRU eviction and integrity.

Results are keyed by the :class:`~repro.service.jobs.JobSpec` content
address — a digest over the experiment, its resolved parameters, and
the exact sweep grids (via ``SweepGrid.signature()``) — so a repeated
submission of the same computation is served from here without touching
the solver (``service.store.hits``).

Two backings share one interface:

* **in-memory** (``root=None``) — payload dicts in an ordered map;
* **on-disk** — one ``<address>.json`` document per result under
  ``root``, written atomically *and durably* (temp file + ``fsync`` +
  ``os.replace`` + directory sync), with the index rebuilt from the
  directory on restart so a redeployed service keeps its cache warm.

Integrity: every disk document embeds a sha256 digest of its payload
(canonical JSON), verified on ``get`` and on index rebuild.  A document
that fails verification — truncated write, bit rot, hand corruption —
is never served: it is moved into ``<root>/quarantine/`` for post-mortem
(``service.store.corrupt``) and the address becomes a miss.  A document
without the digest envelope is damage too.  The store keeps one copy:
the result route answers 410 for a quarantined address, and
:meth:`~repro.service.client.ServiceClient.submit_and_wait` resubmits
once, which recomputes it.

Eviction: entries older than ``ttl`` seconds are dropped at lookup time
(``service.store.expired``); beyond ``max_entries`` the
least-recently-*used* entry goes first (``service.store.evictions``).
A ``get`` refreshes recency, a ``put`` counts as first use.

Payloads are the JSON documents of
:func:`repro.service.jobs.result_payload`, whose nested objects (fault
primitives, quarantined points) are encoded with the :mod:`repro.io`
codecs — the same dump/load pairs the checkpoint JSONL lines use.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from .. import telemetry
from ..telemetry import events as event_log

__all__ = ["ResultStore", "payload_digest"]

_FORMAT = "repro-v1"
_KIND = "result-record"
QUARANTINE_DIR = "quarantine"


def payload_digest(payload: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON encoding of ``payload``."""
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _fsync_dir(path: str) -> None:
    """Best-effort directory sync so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class ResultStore:
    """Bounded ``address -> result payload`` cache (thread-safe)."""

    def __init__(
        self,
        root: Optional[str] = None,
        max_entries: int = 128,
        ttl: Optional[float] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to disable)")
        self.root = root
        self.max_entries = max_entries
        self.ttl = ttl
        #: Local lifetime counters (telemetry-independent, so /healthz
        #: can report them even when telemetry is disabled).
        self.evictions = 0
        self.expired = 0
        self.corrupt = 0
        self.rebuild_skipped = 0
        self._lock = threading.Lock()
        #: address -> stored_at wall time, in least-recently-used order
        #: (oldest first).
        self._index: "OrderedDict[str, float]" = OrderedDict()
        self._memory: Dict[str, Dict[str, Any]] = {}
        if root is not None:
            os.makedirs(root, exist_ok=True)
            self._rebuild_index()

    # -- internals -------------------------------------------------------------

    def _path(self, address: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, address + ".json")

    def _rebuild_index(self) -> None:
        """Re-adopt existing result documents after a restart.

        Every document is digest-verified before adoption; one that is
        truncated, unparseable, or fails its digest is quarantined and
        counted (``service.store.rebuild_skipped``) — a damaged cache
        entry must never crash the serve, it just recomputes.  Recency
        is approximated by file modification time — good enough to seed
        the LRU order; TTL keeps honouring the original write time.
        """
        entries = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            if not os.path.isfile(path):
                continue
            address = name[: -len(".json")]
            payload, damaged = self._load_document(path)
            if payload is None:
                if damaged:
                    self._quarantine(
                        address, "service.store.rebuild_skipped"
                    )
                continue
            try:
                entries.append((os.path.getmtime(path), address))
            except OSError:
                continue
        for mtime, address in sorted(entries):
            self._index[address] = mtime

    def _evict(self, address: str, counter: Optional[str]) -> None:
        """Drop one entry (caller holds the lock)."""
        self._index.pop(address, None)
        self._memory.pop(address, None)
        if self.root is not None:
            try:
                os.remove(self._path(address))
            except OSError:
                pass
        if counter is not None:
            telemetry.count(counter)
            if counter == "service.store.evictions":
                self.evictions += 1
                event_log.emit("service.store.evicted", address=address)
            elif counter == "service.store.expired":
                self.expired += 1
                event_log.emit("service.store.expired", address=address)

    def _quarantine(self, address: str, counter: str) -> None:
        """Move a damaged document aside instead of serving or deleting it.

        The bytes are evidence (what failed — torn write? bit flip?),
        so they land in ``<root>/quarantine/`` rather than the bin.
        """
        assert self.root is not None
        src = self._path(address)
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        dst = os.path.join(qdir, address + ".json")
        try:
            os.makedirs(qdir, exist_ok=True)
            if os.path.exists(dst):
                dst = "%s.%d" % (dst, int(time.time() * 1e6))
            os.replace(src, dst)
        except OSError:
            try:
                os.remove(src)
            except OSError:
                pass
        self._index.pop(address, None)
        self.corrupt += 1
        telemetry.count("service.store.corrupt")
        if counter == "service.store.rebuild_skipped":
            self.rebuild_skipped += 1
            telemetry.count(counter)
        event_log.emit(
            "service.store.quarantined", address=address, store=self.root
        )

    def _load_document(
        self, path: str
    ) -> Tuple[Optional[Dict[str, Any]], bool]:
        """``(payload, damaged)`` for one disk document.

        ``(None, False)`` means the file is simply gone (no document to
        distrust); ``(None, True)`` means bytes exist but are unusable —
        unparseable JSON, a non-object, a missing digest envelope, or a
        digest mismatch.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                document = json.load(fh)
        except FileNotFoundError:
            return None, False
        except (OSError, json.JSONDecodeError, ValueError):
            # Unreadable bytes are damage; a file that is simply gone
            # (racing eviction) is just a miss.
            return None, os.path.exists(path)
        if not isinstance(document, dict) or document.get("kind") != _KIND:
            return None, True
        payload = document.get("payload")
        if not isinstance(payload, dict):
            return None, True
        if document.get("digest") != payload_digest(payload):
            return None, True
        return payload, False

    def _read(self, address: str) -> Tuple[Optional[Dict[str, Any]], bool]:
        """``(payload, damaged)`` for ``address`` (see ``_load_document``)."""
        if self.root is None:
            return self._memory.get(address), False
        return self._load_document(self._path(address))

    # -- public API ------------------------------------------------------------

    def get(self, address: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``address``, or ``None``.

        Counts ``service.store.hits`` / ``service.store.misses``; an
        entry past its TTL is evicted and counted as a miss (plus
        ``service.store.expired``); an entry whose digest no longer
        matches is quarantined and counted as a miss (plus
        ``service.store.corrupt``).
        """
        with self._lock:
            stored_at = self._index.get(address)
            if stored_at is not None and self.ttl is not None:
                if time.time() - stored_at > self.ttl:
                    self._evict(address, "service.store.expired")
                    stored_at = None
            if stored_at is None:
                telemetry.count("service.store.misses")
                return None
            payload, damaged = self._read(address)
            if payload is None:
                if damaged:
                    self._quarantine(address, "service.store.corrupt")
                else:
                    # The document vanished (manual cleanup, disk
                    # error); drop the stale index entry.
                    self._evict(address, None)
                telemetry.count("service.store.misses")
                return None
            self._index.move_to_end(address)
            telemetry.count("service.store.hits")
            return payload

    def contains(self, address: str) -> bool:
        """TTL-aware presence check that records no hit/miss counters."""
        with self._lock:
            stored_at = self._index.get(address)
            if stored_at is None:
                return False
            if self.ttl is not None and time.time() - stored_at > self.ttl:
                return False
            return True

    def put(self, address: str, payload: Dict[str, Any]) -> None:
        """Store one result document; evicts LRU entries over the cap.

        Disk documents carry the payload digest and are flushed with
        ``fsync`` before the atomic rename — "atomic" without durable
        is how torn caches happen.  Raises ``OSError`` when the disk
        write fails.
        """
        with self._lock:
            if self.root is None:
                self._memory[address] = payload
            else:
                document = {
                    "format": _FORMAT,
                    "kind": _KIND,
                    "digest": payload_digest(payload),
                    "payload": payload,
                }
                path = self._path(address)
                tmp = path + ".tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(document, fh, sort_keys=True)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
                _fsync_dir(self.root)
            self._index[address] = time.time()
            self._index.move_to_end(address)
            telemetry.count("service.store.puts")
            while len(self._index) > self.max_entries:
                oldest = next(iter(self._index))
                self._evict(oldest, "service.store.evictions")
            telemetry.gauge("service.store.entries", len(self._index))

    def readable(self) -> bool:
        """Can this store serve at all (its backing directory lists)?"""
        if self.root is None:
            return True
        try:
            os.listdir(self.root)
            return True
        except OSError:
            return False

    def stats(self) -> Dict[str, Any]:
        """Occupancy and lifetime eviction counters (for ``/healthz``)."""
        with self._lock:
            return {
                "entries": len(self._index),
                "max_entries": self.max_entries,
                "ttl": self.ttl,
                "evictions": self.evictions,
                "expired": self.expired,
                "corrupt": self.corrupt,
                "rebuild_skipped": self.rebuild_skipped,
            }

    def addresses(self) -> Tuple[str, ...]:
        """Every stored address, least-recently-used first."""
        with self._lock:
            return tuple(self._index)

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def clear(self) -> None:
        with self._lock:
            for address in list(self._index):
                self._evict(address, None)

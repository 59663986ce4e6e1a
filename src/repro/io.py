"""JSON serialization for the library's analysis artifacts.

Fault analyses and fault dictionaries are expensive to compute (minutes of
electrical simulation); march tests and fault primitives are the things
teams exchange.  This module round-trips the relevant objects through
plain JSON-compatible structures:

* :class:`~repro.march.notation.MarchTest` — via the standard notation
  string (the notation *is* the interchange format);
* :class:`~repro.core.fault_primitives.FaultPrimitive` — via ``<S/F/R>``;
* :class:`~repro.core.regions.FPRegionMap` — grid plus tagged labels
  (``ffm:``/``cffm:``/``fp:``/``raw:`` prefixes preserve the label type);
* :class:`~repro.core.diagnosis.SignatureDatabase` — the signature entries,
  so the dictionary is built once and loaded afterwards;
* :class:`~repro.core.analysis.PartialFaultFinding` — location, floating
  plan, probe SOS, FFM and the full region map;
* :class:`~repro.core.analysis.QuarantinedPoint` — the grid point a
  solver guard quarantined, as the service's result documents carry it.

Every ``dump_*`` returns JSON-serializable data; ``dumps_*``/``loads_*``
go straight to strings.  Version tags guard against silent format drift.

:class:`JsonlAppender` is the crash-safe append discipline of the
repository's JSONL files, and :class:`CheckpointStore` the keyed store
built on it that the stress-corner campaign resumes from
(``docs/CAMPAIGNS.md``).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional

from .circuit.defects import FloatingNode, OpenLocation
from .core.analysis import PartialFaultFinding, QuarantinedPoint
from .core.coupling import CouplingFFM
from .core.diagnosis import SignatureDatabase
from .core.fault_primitives import FaultPrimitive, parse_fp, parse_sos
from .core.ffm import FFM
from .core.regions import FPRegionMap, SpecialLabel
from .march.notation import MarchTest, parse_march

__all__ = [
    "dump_march", "load_march", "dumps_march", "loads_march",
    "dump_fp", "load_fp",
    "dump_region_map", "load_region_map",
    "dump_signature_database", "load_signature_database",
    "dump_finding", "load_finding",
    "dump_quarantined_point", "load_quarantined_point",
    "CheckpointStore", "JsonlAppender",
]

_FORMAT = "repro-v1"


def _tagged(payload: Dict[str, Any], kind: str) -> Dict[str, Any]:
    return {"format": _FORMAT, "kind": kind, **payload}


def _check(data: Dict[str, Any], kind: str) -> Dict[str, Any]:
    if data.get("format") != _FORMAT:
        raise ValueError(f"unsupported format {data.get('format')!r}")
    if data.get("kind") != kind:
        raise ValueError(f"expected {kind!r} data, got {data.get('kind')!r}")
    return data


# -- march tests ---------------------------------------------------------------

def dump_march(test: MarchTest) -> Dict[str, Any]:
    return _tagged({"name": test.name, "notation": test.to_string()}, "march")


def load_march(data: Dict[str, Any]) -> MarchTest:
    data = _check(data, "march")
    return parse_march(data["notation"], data["name"])


def dumps_march(test: MarchTest) -> str:
    return json.dumps(dump_march(test))


def loads_march(text: str) -> MarchTest:
    return load_march(json.loads(text))


# -- fault primitives -----------------------------------------------------------

def dump_fp(fp: FaultPrimitive) -> Dict[str, Any]:
    return _tagged({"notation": fp.to_string()}, "fault-primitive")


def load_fp(data: Dict[str, Any]) -> FaultPrimitive:
    data = _check(data, "fault-primitive")
    return parse_fp(data["notation"])


# -- region maps -------------------------------------------------------------------

def _encode_label(label) -> Optional[str]:
    if label is None:
        return None
    if isinstance(label, FFM):
        return f"ffm:{label.name}"
    if isinstance(label, CouplingFFM):
        return f"cffm:{label.name}"
    if isinstance(label, FaultPrimitive):
        return f"fp:{label.to_string()}"
    if isinstance(label, SpecialLabel):
        return f"special:{label.name}"
    return f"raw:{label}"


def _decode_label(text: Optional[str]):
    if text is None:
        return None
    kind, _, payload = text.partition(":")
    if kind == "ffm":
        return FFM[payload]
    if kind == "cffm":
        return CouplingFFM[payload]
    if kind == "fp":
        return parse_fp(payload)
    if kind == "special":
        return SpecialLabel[payload]
    if kind == "raw":
        return payload
    raise ValueError(f"unknown label encoding {text!r}")


def dump_region_map(region: FPRegionMap) -> Dict[str, Any]:
    return _tagged(
        {
            "r_values": list(region.r_values),
            "u_values": list(region.u_values),
            "labels": [
                [_encode_label(cell) for cell in row] for row in region.labels
            ],
        },
        "region-map",
    )


def load_region_map(data: Dict[str, Any]) -> FPRegionMap:
    data = _check(data, "region-map")
    return FPRegionMap(
        tuple(data["r_values"]),
        tuple(data["u_values"]),
        tuple(
            tuple(_decode_label(cell) for cell in row)
            for row in data["labels"]
        ),
    )


# -- signature databases ----------------------------------------------------------------

def dump_signature_database(database: SignatureDatabase) -> Dict[str, Any]:
    entries: List[Dict[str, Any]] = []
    for signature, location, resistance in database._entries:
        entries.append(
            {
                "location": location.name,
                "resistance": resistance,
                "signature": sorted(list(item) for item in signature),
            }
        )
    return _tagged(
        {
            "test": dump_march(database.test),
            "n_rows": database.n_rows,
            "entries": entries,
        },
        "signature-database",
    )


def load_signature_database(data: Dict[str, Any]) -> SignatureDatabase:
    data = _check(data, "signature-database")
    database = SignatureDatabase.__new__(SignatureDatabase)
    database.test = load_march(data["test"])
    database.technology = None
    database.n_rows = data["n_rows"]
    database.grid_engine = True
    database._entries = [
        (
            frozenset(tuple(item) for item in entry["signature"]),
            OpenLocation[entry["location"]],
            entry["resistance"],
        )
        for entry in data["entries"]
    ]
    return database


# -- partial-fault findings ----------------------------------------------------

def dump_finding(finding: PartialFaultFinding) -> Dict[str, Any]:
    return _tagged(
        {
            "location": finding.location.name,
            "floating": [node.name for node in finding.floating],
            "probe": finding.probe_sos.to_string(),
            "ffm": finding.ffm.name,
            "region": dump_region_map(finding.region),
        },
        "finding",
    )


def load_finding(data: Dict[str, Any]) -> PartialFaultFinding:
    data = _check(data, "finding")
    return PartialFaultFinding(
        OpenLocation[data["location"]],
        tuple(FloatingNode[name] for name in data["floating"]),
        parse_sos(data["probe"]),
        FFM[data["ffm"]],
        load_region_map(data["region"]),
    )


# -- checkpointed work-unit results --------------------------------------------

def dump_quarantined_point(point: QuarantinedPoint) -> Dict[str, Any]:
    """One guard-quarantined grid point, with its full replay context."""
    return _tagged(
        {
            "location": point.location.name,
            "floating": [node.name for node in point.floating],
            "sos": point.sos,
            "r_def": point.r_def,
            "u": point.u,
            "guard": point.guard,
            "detail": point.detail,
        },
        "quarantined-point",
    )


def load_quarantined_point(data: Dict[str, Any]) -> QuarantinedPoint:
    data = _check(data, "quarantined-point")
    return QuarantinedPoint(
        location=OpenLocation[data["location"]],
        floating=tuple(FloatingNode[name] for name in data["floating"]),
        sos=data["sos"],
        r_def=data["r_def"],
        u=data["u"],
        guard=data["guard"],
        detail=data["detail"],
    )


class JsonlAppender:
    """Crash-safe JSONL appends: one record, one ``write()``, ``O_APPEND``.

    The durability discipline of the sweep service's job journal
    (``repro.service.journal``) and of :class:`CheckpointStore`.  Each
    such file has one writing process: the journal is written by the
    ``serve`` process that owns its work directory, a campaign
    checkpoint by its ``campaign run`` process (whose corner threads
    share one appender).

    * Each record plus its newline goes to the OS in a **single**
      unbuffered ``os.write`` on an ``O_APPEND`` descriptor: no
      userspace buffer, no flush window.
    * A short write (disk full, signal delivery) raises ``OSError``
      instead of issuing a continuation write.  The abandoned partial
      line is a torn tail that tolerant readers skip.
    * A record never lands on a torn line: the first append to a file
      that does not end in a newline (a kill or a short write tore its
      tail), and the first append after a failed one, start on a fresh
      line.  At worst that leaves an empty line, which readers skip.

    ``fsync=True`` additionally syncs after every append, trading append
    latency for power-loss durability (a service journal wants it).
    """

    def __init__(
        self, path: str, fsync: bool = False, label: str = "jsonl"
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.label = label
        self._fd: Optional[int] = None
        self._fresh_line = False
        self._lock = threading.Lock()

    def append(self, record: Dict[str, Any]) -> int:
        """Append one record as one ``write()``; returns bytes written."""
        line = (json.dumps(record) + "\n").encode("utf-8")
        with self._lock:
            if self._fd is None:
                self._fd = os.open(
                    self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
                )
                size = os.fstat(self._fd).st_size
                self._fresh_line = (
                    size > 0 and os.pread(self._fd, 1, size - 1) != b"\n"
                )
            data = b"\n" + line if self._fresh_line else line
            self._fresh_line = True  # until this write is known whole
            written = os.write(self._fd, data)
            if written != len(data):
                raise OSError(
                    f"short {self.label} append to {self.path}: "
                    f"{written}/{len(data)} bytes; record abandoned "
                    "(tolerant readers skip the torn tail)"
                )
            self._fresh_line = False
            if self.fsync:
                os.fsync(self._fd)
        return written

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class CheckpointStore:
    """Append-only JSONL store of finished results under stable keys.

    Each line is a self-describing record::

        {"format": "repro-v1", "kind": "checkpoint-unit",
         "key": "<stable key>", "payload": <JSON value>}

    The stress-corner campaign records one line per finished corner job
    and resumes from them.  :meth:`record` appends through a
    :class:`JsonlAppender`, so a run killed mid-way loses at most the
    record in flight.  :meth:`load` tolerates a hard interrupt: torn
    lines, empty lines and foreign records are skipped rather than
    failing the resume, and duplicate keys keep the last occurrence.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._appender = JsonlAppender(path, label="checkpoint")

    def load(self) -> Dict[str, Any]:
        """Every recoverable ``key -> payload`` entry of the file."""
        results: Dict[str, Any] = {}
        if not os.path.exists(self.path):
            return results
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn line from a hard interrupt
                if (
                    isinstance(entry, dict)
                    and entry.get("format") == _FORMAT
                    and entry.get("kind") == "checkpoint-unit"
                    and "key" in entry
                    and "payload" in entry
                ):
                    results[entry["key"]] = entry["payload"]
        return results

    def record(self, key: str, payload: Any) -> None:
        """Append one JSON-native ``payload`` under ``key``."""
        self._appender.append({
            "format": _FORMAT,
            "kind": "checkpoint-unit",
            "key": key,
            "payload": payload,
        })

    def close(self) -> None:
        self._appender.close()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

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
* one open's Table 1 inventory rows and quarantined points, the result
  of Table 1's per-open work unit, so those units can be checkpointed
  and resumed (see :class:`CheckpointStore`).

Every ``dump_*`` returns JSON-serializable data; ``dumps_*``/``loads_*``
go straight to strings.  Version tags guard against silent format drift.

:class:`CheckpointStore` is the persistence side of the resilient sweep
orchestrator (``docs/ROBUSTNESS.md``): an append-only JSONL file of
finished work-unit results, one self-describing line per unit, written
incrementally so a hard-interrupted Table 1 can resume from whatever
completed.  The per-line codecs are the dump/load pairs of this module,
selected by name through :data:`CHECKPOINT_CODECS`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

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
    "dump_open_inventory", "load_open_inventory",
    "CHECKPOINT_CODECS", "CheckpointStore", "JsonlAppender",
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


def dump_open_inventory(result) -> Dict[str, Any]:
    """One open's Table 1 unit result: its inventory rows and the grid
    points its guards quarantined (``(rows, quarantined)``)."""
    rows, quarantined = result
    return _tagged(
        {
            "rows": [
                {
                    "ffm_sim": row.ffm_sim.name,
                    "ffm_com": row.ffm_com.name,
                    "open": row.open_number,
                    "completed": (
                        None if row.completed is None
                        else dump_fp(row.completed)
                    ),
                    "floating": row.floating,
                    "marginal": row.marginal,
                }
                for row in rows
            ],
            "quarantined": [dump_quarantined_point(q) for q in quarantined],
        },
        "table1-open",
    )


def load_open_inventory(data: Dict[str, Any]):
    # Imported here: the experiments sit above this module.
    from .experiments.table1 import InventoryRow

    data = _check(data, "table1-open")
    rows = [
        InventoryRow(
            ffm_sim=FFM[row["ffm_sim"]],
            ffm_com=FFM[row["ffm_com"]],
            open_number=row["open"],
            completed=(
                None if row["completed"] is None
                else load_fp(row["completed"])
            ),
            floating=row["floating"],
            marginal=row["marginal"],
        )
        for row in data["rows"]
    ]
    return rows, [load_quarantined_point(q) for q in data["quarantined"]]


def _identity(value: Any) -> Any:
    return value


#: Named dump/load pairs for checkpoint lines.  ``"json"`` passes
#: JSON-native results (bools, numbers, strings, lists) through as-is.
CHECKPOINT_CODECS: Dict[
    str, Tuple[Callable[[Any], Any], Callable[[Any], Any]]
] = {
    "json": (_identity, _identity),
    "table1-open": (dump_open_inventory, load_open_inventory),
}


class JsonlAppender:
    """Crash-safe JSONL appends: one record, one ``write()``, ``O_APPEND``.

    The durability discipline shared by :class:`CheckpointStore` and the
    sweep service's job journal (``repro.service.journal``):

    * the descriptor is opened with ``O_APPEND``, so concurrent writers
      sharing the file interleave *whole* records (POSIX appends to a
      regular file are atomic per ``write()``);
    * each record plus its newline goes to the OS in a **single**
      unbuffered ``os.write`` — no userspace buffer, no flush window;
    * a short write (disk full, signal delivery) raises ``OSError``
      instead of issuing a continuation write that could land inside a
      concurrent writer's record — the abandoned partial line is exactly
      the torn tail that tolerant readers skip.

    ``fsync=True`` additionally syncs after every append, trading append
    latency for power-loss durability (a service journal wants it; a
    high-frequency unit checkpoint usually does not).
    """

    def __init__(
        self, path: str, fsync: bool = False, label: str = "jsonl"
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.label = label
        self._fd: Optional[int] = None

    def append(self, record: Dict[str, Any], fresh_line: bool = False) -> int:
        """Append one record as one ``write()``; returns bytes written.

        ``fresh_line`` puts a newline before the record, ending a torn
        line an earlier failed append left behind.  Only a file's single
        writer may ask for it: with concurrent writers the file's last
        line may be another writer's complete record.
        """
        line = json.dumps(record) + "\n"
        data = ("\n" + line if fresh_line else line).encode("utf-8")
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        written = os.write(self._fd, data)
        if written != len(data):
            raise OSError(
                f"short {self.label} append to {self.path}: "
                f"{written}/{len(data)} bytes; record abandoned "
                "(tolerant readers skip the torn tail)"
            )
        if self.fsync:
            os.fsync(self._fd)
        return written

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class CheckpointStore:
    """Append-only JSONL store of finished work-unit results.

    Each line is a self-describing record::

        {"format": "repro-v1", "kind": "checkpoint-unit",
         "key": "<stable unit key>", "codec": "<CHECKPOINT_CODECS name>",
         "payload": <codec dump of the unit result>}

    :meth:`record` appends one line per finished unit, so a run killed
    mid-sweep loses at most the units still in flight.  Each record is
    written as a *single* ``write()`` to a file descriptor opened with
    ``O_APPEND``, so concurrent writers sharing one checkpoint file —
    sweep-service scheduler workers, a CLI run resuming alongside them —
    interleave whole records rather than tearing each other's lines
    (POSIX appends to a regular file are atomic per ``write()``; the
    guarantee covers the normal complete-write case — a partial write,
    possible on a full disk or signal delivery, raises instead of being
    continued, because a follow-up ``write()`` could land inside a
    concurrent writer's record).
    :meth:`load` tolerates a hard interrupt: a torn (half-written) tail
    line, unknown codecs, and undecodable payloads are skipped rather
    than failing the resume — those units simply re-run.  Duplicate keys
    keep the last occurrence.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._appender = JsonlAppender(path, label="checkpoint")

    def load(self) -> Dict[str, Any]:
        """Decode every recoverable ``key -> result`` entry of the file."""
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
                    continue  # torn tail line from a hard interrupt
                if not isinstance(entry, dict):
                    continue
                if entry.get("format") != _FORMAT:
                    continue
                if entry.get("kind") != "checkpoint-unit":
                    continue
                codec = CHECKPOINT_CODECS.get(entry.get("codec"))
                if codec is None or "key" not in entry:
                    continue
                try:
                    results[entry["key"]] = codec[1](entry["payload"])
                except (KeyError, TypeError, ValueError):
                    continue  # undecodable payload: re-run the unit
        return results

    def record(self, key: str, result: Any, codec: str = "json") -> None:
        """Append one finished unit as one unbuffered ``write()``.

        Delegates to :class:`JsonlAppender`, which writes the whole line
        (record + newline) in a single ``os.write`` on an ``O_APPEND``
        descriptor — so another writer appending to the same file can
        never land *inside* this record, and a short write (disk full,
        signal) raises ``OSError`` instead of issuing a continuation
        write.  The abandoned partial line is exactly the torn tail
        :meth:`load` already skips.
        """
        dump, _ = CHECKPOINT_CODECS[codec]
        self._appender.append({
            "format": _FORMAT,
            "kind": "checkpoint-unit",
            "key": key,
            "codec": codec,
            "payload": dump(result),
        })

    def close(self) -> None:
        self._appender.close()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

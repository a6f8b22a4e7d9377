"""Flow data model and the newline-delimited JSON flow file format."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Union

import numpy as np

from . import DataError

SCHEMA_VERSION = 1

_PROTOCOLS = ("tcp", "udp")


class FlowFormatError(DataError):
    """Malformed flow file content."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FlowVersionError(FlowFormatError):
    """Flow file declares an unsupported schema version."""


@dataclass(frozen=True)
class FiveTuple:
    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    protocol: str  # "tcp" or "udp"

    def __post_init__(self):
        if self.protocol not in _PROTOCOLS:
            raise ValueError(f"protocol must be tcp or udp, got {self.protocol!r}")


@dataclass(frozen=True)
class PacketEvent:
    rel_time: float       # seconds since first packet of the flow
    signed_length: int    # bytes; positive = forward, negative = backward


@dataclass(eq=False)
class Flow:
    """One bidirectional flow, stored as two columns of equal length."""
    id: str
    five_tuple: FiveTuple
    times: np.ndarray     # float64[n]: seconds since the earliest packet
    signed: np.ndarray    # int64[n]: bytes; positive = forward
    label: str | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.signed = np.asarray(self.signed, dtype=np.int64)
        if self.times.ndim != 1 or self.times.shape != self.signed.shape:
            raise ValueError("times and signed must be 1-D, of equal length")

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Flow):
            return NotImplemented
        return (self.id == other.id and self.five_tuple == other.five_tuple
                and self.label == other.label
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.signed, other.signed))

    @property
    def packets(self) -> tuple[PacketEvent, ...]:
        """Per-packet view of the columns. Outside its own tests the last
        reader is perfbench/workloads.py; it goes once that reads columns."""
        return tuple(PacketEvent(t, s) for t, s in
                     zip(self.times.tolist(), self.signed.tolist()))


def filter_short_flows(flows: Iterable[Flow], min_packets: int) -> list[Flow]:
    """Drop flows with fewer than min_packets packets, preserving order."""
    if min_packets < 1:
        raise ValueError("min_packets must be >= 1")
    return [f for f in flows if len(f) >= min_packets]


def _flow_to_record(flow: Flow) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "id": flow.id,
        "tuple": {
            "src": flow.five_tuple.src_addr,
            "dst": flow.five_tuple.dst_addr,
            "sport": flow.five_tuple.src_port,
            "dport": flow.five_tuple.dst_port,
            "proto": flow.five_tuple.protocol,
        },
        "label": flow.label,
        "pkts": list(zip(flow.times.tolist(), flow.signed.tolist())),
    }


def _packet_columns(pkts, line: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated (times, signed) columns of [rel_time, length] pairs."""
    try:
        pairs = np.array(pkts, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FlowFormatError(f"bad packet list: {exc}", line) from exc
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        if pairs.size == 0:
            raise FlowFormatError("flow has no packets", line)
        raise FlowFormatError("packets must be [rel_time, length] pairs", line)
    times, lengths = pairs[:, 0].copy(), pairs[:, 1]
    if not np.isfinite(times).all():
        raise FlowFormatError("non-finite rel_time", line)
    if (times < 0).any():
        raise FlowFormatError(f"negative rel_time {times.min()}", line)
    if (np.diff(times) < 0).any():
        raise FlowFormatError("rel_time decreases", line)
    if not ((np.abs(lengths) < 2.0 ** 53)
            & (lengths == np.trunc(lengths))).all():
        raise FlowFormatError("packet length is not an integer", line)
    if (lengths == 0).any():
        raise FlowFormatError("zero packet length", line)
    return times, lengths.astype(np.int64)


def _record_to_flow(rec: dict, line: int) -> Flow:
    label = rec.get("label")
    if label is not None and not isinstance(label, str):
        raise FlowFormatError(f"label must be a string or null, got {label!r}",
                              line)
    try:
        t = rec["tuple"]
        five = FiveTuple(t["src"], t["dst"], int(t["sport"]), int(t["dport"]),
                         t["proto"])
        times, signed = _packet_columns(rec["pkts"], line)
        return Flow(id=str(rec["id"]), five_tuple=five, times=times,
                    signed=signed, label=label)
    except FlowFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FlowFormatError(f"bad flow record: {exc}", line) from exc


Sink = Union[str, Path, IO[str]]


def _open_for(target: Sink, mode: str):
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8", newline="\n"), True
    return target, False


def write_flows(flows: Iterable[Flow], sink: Sink) -> None:
    fh, owned = _open_for(sink, "w")
    try:
        fh.write(json.dumps({"v": SCHEMA_VERSION, "format": "flows"}) + "\n")
        for flow in flows:
            fh.write(json.dumps(_flow_to_record(flow)) + "\n")
    finally:
        if owned:
            fh.close()


def read_flows(source: Sink) -> list[Flow]:
    fh, owned = _open_for(source, "r")
    try:
        lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FlowFormatError(f"not a UTF-8 text file ({exc})") from exc
    finally:
        if owned:
            fh.close()
    if not lines:
        raise FlowFormatError("empty file: missing header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FlowFormatError(f"bad header: {exc}", 1) from exc
    if not isinstance(header, dict) or header.get("format") != "flows":
        raise FlowFormatError("not a flow file (bad header line)", 1)
    if header.get("v") != SCHEMA_VERSION:
        raise FlowVersionError(f"unsupported schema version {header.get('v')}", 1)
    flows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FlowFormatError(f"bad JSON: {exc}", lineno) from exc
        if not isinstance(rec, dict):
            raise FlowFormatError("flow record is not an object", lineno)
        if rec.get("v") != SCHEMA_VERSION:
            raise FlowVersionError(f"unsupported schema version {rec.get('v')}",
                                   lineno)
        flows.append(_record_to_flow(rec, lineno))
    return flows

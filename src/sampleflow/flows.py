"""Flow data model and the newline-delimited JSON flow file format.

Schema v2 stores each flow's packet columns as base64 of their little-endian
bytes; v1 files, whose "pkts" are [rel_time, length] pairs, still read."""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Union

import numpy as np

from . import DataError

SCHEMA_VERSION = 2

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


def _check_fields(fid, src, dst, sport, dport, label, line: int | None
                  ) -> None:
    """Raise FlowFormatError unless a flow's id, addresses and label are
    strings (the label may be None) and its ports are ints in 0..65535."""
    if label is not None and not isinstance(label, str):
        raise FlowFormatError(f"label must be a string or null, got {label!r}",
                              line)
    for name, value in (("id", fid), ("src", src), ("dst", dst)):
        if not isinstance(value, str):
            raise FlowFormatError(f"{name} must be a string, got {value!r}",
                                  line)
    for name, port in (("sport", sport), ("dport", dport)):
        if type(port) is not int or not 0 <= port <= 65535:
            raise FlowFormatError(
                f"{name} must be an integer in 0..65535, got {port!r}", line)


def _check_packets(times: np.ndarray, lengths: np.ndarray, line: int | None
                   ) -> None:
    """Raise FlowFormatError unless the columns are a flow's packets: at least
    one; times finite, at least 0 and non-decreasing; lengths non-zero
    integers below 2**53 in size."""
    if times.size == 0:
        raise FlowFormatError("flow has no packets", line)
    if not np.isfinite(times).all():
        raise FlowFormatError("non-finite rel_time", line)
    if (times < 0).any():
        raise FlowFormatError(f"negative rel_time {times.min()}", line)
    if (np.diff(times) < 0).any():
        raise FlowFormatError("rel_time decreases", line)
    if not ((-2.0 ** 53 < lengths) & (lengths < 2.0 ** 53)
            & (lengths == np.trunc(lengths))).all():
        raise FlowFormatError("packet length is not an integer", line)
    if (lengths == 0).any():
        raise FlowFormatError("zero packet length", line)


def _pair_columns(rec: dict, line: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated (times, signed) columns of a v1 record's "pkts", a list of
    [rel_time, length] pairs."""
    pkts = rec["pkts"]
    try:
        pairs = np.array(pkts, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FlowFormatError(f"bad packet list: {exc}", line) from exc
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        if pairs.size == 0:
            raise FlowFormatError("flow has no packets", line)
        raise FlowFormatError("packets must be [rel_time, length] pairs", line)
    times, lengths = pairs[:, 0].copy(), pairs[:, 1]
    _check_packets(times, lengths, line)
    # np.array converts booleans and numeric strings; checked last, so that
    # a list rejected by the checks above keeps its message
    for pair in pkts:
        for value in pair:
            if type(value) is not float and type(value) is not int:
                raise FlowFormatError(
                    f"packet field is not a number: {value!r}", line)
    return times, lengths.astype(np.int64)


# v2 packet columns: record key, dtype of its bytes, dtype of the column
_COLUMNS = (("times", "<f8", np.float64), ("lengths", "<i8", np.int64))


def _base64_columns(rec: dict, line: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated (times, signed) columns of a v2 record: "times" and
    "lengths" are the standard base64 of little-endian float64 and int64."""
    columns = []
    for key, stored, dtype in _COLUMNS:
        text = rec[key]
        if not isinstance(text, str):
            raise FlowFormatError(
                f"{key} must be a base64 string, got {text!r:.40}", line)
        try:
            data = base64.b64decode(text, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII string
            raise FlowFormatError(f"{key} is not base64: {exc}", line) from exc
        if len(data) % 8:
            raise FlowFormatError(
                f"{key} holds {len(data)} bytes, not a multiple of 8", line)
        columns.append(np.frombuffer(data, stored).astype(dtype))
    times, signed = columns
    if times.shape != signed.shape:
        raise FlowFormatError(f"{len(times)} times but {len(signed)} lengths",
                              line)
    _check_packets(times, signed, line)
    return times, signed


_COLUMN_READERS = {1: _pair_columns, 2: _base64_columns}


def _record_to_flow(rec: dict, line: int, version: int) -> Flow:
    """The flow of one decoded record of a file of the given version."""
    try:
        t = rec["tuple"]
        # int() first, so that a port int() cannot convert keeps the "bad
        # flow record" message; the type and range are checked below
        five = FiveTuple(t["src"], t["dst"], int(t["sport"]), int(t["dport"]),
                         t["proto"])
        times, signed = _COLUMN_READERS[version](rec, line)
        fid = rec["id"]
    except FlowFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FlowFormatError(f"bad flow record: {exc}", line) from exc
    label = rec.get("label")
    _check_fields(fid, t["src"], t["dst"], t["sport"], t["dport"], label, line)
    return Flow(id=fid, five_tuple=five, times=times, signed=signed,
                label=label)


def _read_record(raw: str, line: int, version: int) -> Flow:
    """One record line of a file whose header declares `version`."""
    try:
        rec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FlowFormatError(f"bad JSON: {exc}", line) from exc
    if not isinstance(rec, dict):
        raise FlowFormatError("flow record is not an object", line)
    if rec.get("v") != version:
        raise FlowVersionError(f"record schema version {rec.get('v')!r} is "
                               f"not the header's {version}", line)
    return _record_to_flow(rec, line, version)


def _flow_to_line(flow: Flow) -> str:
    """The v2 record line of a flow; FlowFormatError, naming the flow, if
    read_flows would reject it."""
    five = flow.five_tuple
    try:
        _check_fields(flow.id, five.src_addr, five.dst_addr, five.src_port,
                      five.dst_port, flow.label, None)
        _check_packets(flow.times, flow.signed, None)
    except FlowFormatError as exc:
        raise FlowFormatError(f"flow {flow.id!r}: {exc}") from None
    columns = {key: base64.b64encode(column.astype(stored).tobytes()
                                     ).decode("ascii")
               for (key, stored, _), column in zip(_COLUMNS,
                                                   (flow.times, flow.signed))}
    return json.dumps({
        "v": SCHEMA_VERSION,
        "id": flow.id,
        "tuple": {
            "src": five.src_addr,
            "dst": five.dst_addr,
            "sport": five.src_port,
            "dport": five.dst_port,
            "proto": five.protocol,
        },
        "label": flow.label,
        **columns,
    })


Sink = Union[str, Path, IO[str]]


def _open_for(target: Sink, mode: str):
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8", newline="\n"), True
    return target, False


def write_flows(flows: Iterable[Flow], sink: Sink) -> None:
    """Write a v2 flow file. Every flow is checked before the sink is opened,
    so a flow that read_flows would reject leaves no file."""
    lines = [json.dumps({"v": SCHEMA_VERSION, "format": "flows"}) + "\n"]
    lines += [_flow_to_line(flow) + "\n" for flow in flows]
    fh, owned = _open_for(sink, "w")
    try:
        fh.writelines(lines)
    finally:
        if owned:
            fh.close()


def read_flows(source: Sink) -> list[Flow]:
    """The flows of a v2 file, or of a v1 file (read through json)."""
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
    version = header.get("v")
    if type(version) is not int or version not in _COLUMN_READERS:
        raise FlowVersionError(f"unsupported schema version {version}", 1)
    return [_read_record(raw, lineno, version)
            for lineno, raw in enumerate(lines[1:], start=2) if raw.strip()]

"""Flow data model and the newline-delimited JSON flow file format.

A record stores its flow's packet columns as base64 of their little-endian
bytes."""

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
        self.times = _column(self.times, np.float64, "times")
        self.signed = _column(self.signed, np.int64, "signed")
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


def _column(values, dtype, name: str) -> np.ndarray:
    """values as a dtype array; ValueError for a boolean, or a value of a
    type that dtype does not hold exactly: a string or, for int64, a float.
    An empty column passes, so that write_flows names it."""
    array = np.asarray(values)
    if array.size and (array.dtype.kind == "b"
                       or not np.can_cast(array.dtype, dtype)
                       # np.asarray turns a boolean among numbers into one
                       or not isinstance(values, np.ndarray) and any(
                           isinstance(v, (bool, np.bool_))
                           for v in np.asarray(values, dtype=object).flat)):
        raise ValueError(f"{name} must hold {np.dtype(dtype)} values, got "
                         f"{values!r:.60}")
    return array.astype(dtype, copy=False)


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
    one; times finite, at least 0 and non-decreasing; int64 lengths non-zero
    and below 2**53 in size."""
    if times.size == 0:
        raise FlowFormatError("flow has no packets", line)
    if not np.isfinite(times).all():
        raise FlowFormatError("non-finite rel_time", line)
    if (times < 0).any():
        raise FlowFormatError(f"negative rel_time {times.min()}", line)
    if (np.diff(times) < 0).any():
        raise FlowFormatError("rel_time decreases", line)
    # compared as floats: abs(-2**63) overflows int64
    small = (-2.0 ** 53 < lengths) & (lengths < 2.0 ** 53)
    if not small.all():
        raise FlowFormatError("packet length must be an integer below 2**53 "
                              f"in size, got {lengths[~small][0]}", line)
    if (lengths == 0).any():
        raise FlowFormatError("zero packet length", line)


# packet columns: record key, dtype of its bytes, dtype of the column
_COLUMNS = (("times", "<f8", np.float64), ("lengths", "<i8", np.int64))


def _base64_columns(rec: dict, line: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated (times, signed) columns of a record: "times" and "lengths"
    are the standard base64 of little-endian float64 and int64."""
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


def _record_to_flow(rec: dict, line: int) -> Flow:
    """The flow of one decoded record."""
    try:
        t = rec["tuple"]
        # int() first, so that a port int() cannot convert keeps the "bad
        # flow record" message; the type and range are checked below
        five = FiveTuple(t["src"], t["dst"], int(t["sport"]), int(t["dport"]),
                         t["proto"])
        times, signed = _base64_columns(rec, line)
        fid = rec["id"]
    except FlowFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FlowFormatError(f"bad flow record: {exc}", line) from exc
    label = rec.get("label")
    _check_fields(fid, t["src"], t["dst"], t["sport"], t["dport"], label, line)
    return Flow(id=fid, five_tuple=five, times=times, signed=signed,
                label=label)


def _read_record(raw: str, line: int) -> Flow:
    """One record line."""
    try:
        rec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FlowFormatError(f"bad JSON: {exc}", line) from exc
    if not isinstance(rec, dict):
        raise FlowFormatError("flow record is not an object", line)
    version = rec.get("v")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise FlowVersionError(f"record schema version {version!r} is "
                               f"not the header's {SCHEMA_VERSION}", line)
    return _record_to_flow(rec, line)


def _flow_to_line(flow: Flow) -> str:
    """The record line of a flow; FlowFormatError, naming the flow, if
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
    """Write a flow file. Every flow is checked before the sink is opened,
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
    """The flows of a flow file of schema version SCHEMA_VERSION, the only
    version read; FlowFormatError, naming the line, for any other content."""
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
    if type(version) is not int or version != SCHEMA_VERSION:
        raise FlowVersionError(f"unsupported schema version {version}", 1)
    return [_read_record(raw, lineno)
            for lineno, raw in enumerate(lines[1:], start=2) if raw.strip()]

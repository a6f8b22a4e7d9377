"""Flow data model and the newline-delimited JSON flow file format.

A record stores its flow's packet columns as base64 of their little-endian
bytes."""

from __future__ import annotations

import base64
import json
import math
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
        """FlowFormatError unless the addresses are strings, the ports ints
        in 0..65535 and the protocol tcp or udp. Messages name the flow
        file's keys."""
        for name, value in (("src", self.src_addr), ("dst", self.dst_addr)):
            if not isinstance(value, str):
                raise FlowFormatError(
                    f"{name} must be a string, got {value!r}")
        for name, port in (("sport", self.src_port), ("dport", self.dst_port)):
            if type(port) is not int or not 0 <= port <= 65535:
                raise FlowFormatError(
                    f"{name} must be an integer in 0..65535, got {port!r}")
        if self.protocol not in _PROTOCOLS:
            raise FlowFormatError(
                f"protocol must be tcp or udp, got {self.protocol!r}")


@dataclass(frozen=True)
class PacketEvent:
    rel_time: float       # seconds since first packet of the flow
    signed_length: int    # bytes; positive = forward, negative = backward


@dataclass(eq=False, init=False)
class Flow:
    """One bidirectional flow, stored as two columns of equal length.

    A Flow is valid by construction, and stays valid: FlowFormatError for
    any flow that the flow file cannot hold. Both columns are made
    read-only, not copied, and cannot be rebound; id, five_tuple and label
    can, and each new value is checked as at construction."""
    id: str
    five_tuple: FiveTuple
    times: np.ndarray     # float64[n]: seconds since the earliest packet
    signed: np.ndarray    # int64[n]: bytes; positive = forward
    label: str | None = None

    def __init__(self, id: str, five_tuple: FiveTuple, times, signed,
                 label: str | None = None):
        times = _column(times, np.float64, "times")
        signed = _column(signed, np.int64, "signed")
        if times.ndim != 1 or signed.ndim != 1:
            raise FlowFormatError("times and signed must be 1-D")
        if len(times) != len(signed):
            raise FlowFormatError(
                f"{len(times)} times but {len(signed)} lengths")
        _check_packets(times, signed)
        if not isinstance(id, str):
            raise FlowFormatError(f"id must be a string, got {id!r}")
        if not isinstance(five_tuple, FiveTuple):
            raise FlowFormatError(
                f"five_tuple must be a FiveTuple, got {five_tuple!r:.60}")
        if label is not None and not isinstance(label, str):
            raise FlowFormatError(
                f"label must be a string or null, got {label!r}")
        times.flags.writeable = False
        signed.flags.writeable = False
        # stored past __setattr__, which would check each field again
        fields = self.__dict__
        fields["id"] = id
        fields["five_tuple"] = five_tuple
        fields["times"] = times
        fields["signed"] = signed
        fields["label"] = label

    def __setattr__(self, name: str, value) -> None:
        if name not in _REBINDABLE:
            raise AttributeError(f"cannot set {name!r} of a built Flow: only "
                                 f"{', '.join(_REBINDABLE)} can be rebound")
        # the checks of construction, on this flow with the new value
        Flow(**{**self.__dict__, name: value})
        self.__dict__[name] = value

    def __reduce__(self):
        # a copy or an unpickled flow is built, checked and read-only as new
        return Flow, (self.id, self.five_tuple, self.times, self.signed,
                      self.label)

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


# the fields of a built Flow that may be rebound
_REBINDABLE = ("id", "five_tuple", "label")


def _column(values, dtype, name: str) -> np.ndarray:
    """values as a dtype array; FlowFormatError for a boolean, or a value of
    a type that dtype does not hold exactly: a string or, for int64, a
    float. An empty column passes, so that _check_packets names it."""
    if isinstance(values, np.ndarray) and values.dtype == dtype:
        return values  # as ingest, synth and the reader pass
    array = np.asarray(values)
    if array.size and (array.dtype.kind == "b"
                       or not np.can_cast(array.dtype, dtype)
                       # np.asarray turns a boolean among numbers into one
                       or not isinstance(values, np.ndarray) and any(
                           isinstance(v, (bool, np.bool_))
                           for v in np.asarray(values, dtype=object).flat)):
        raise FlowFormatError(f"{name} must hold {np.dtype(dtype)} values, "
                              f"got {values!r:.60}")
    return array.astype(dtype, copy=False)


def filter_short_flows(flows: Iterable[Flow], min_packets: int) -> list[Flow]:
    """Drop flows with fewer than min_packets packets, preserving order.
    Ingest never builds such flows (ingest.assemble_flows); this stays while
    perfbench/tracing.py patches the name."""
    if min_packets < 1:
        raise ValueError("min_packets must be >= 1")
    return [f for f in flows if len(f) >= min_packets]


def _check_packets(times: np.ndarray, lengths: np.ndarray) -> None:
    """Raise FlowFormatError unless the columns are a flow's packets: at least
    one; times finite, at least 0 and non-decreasing; int64 lengths non-zero
    and below 2**53 in size."""
    # the common case, valid columns, in few passes; the ordered checks
    # below only pick the error
    if times.size and times[0] >= 0 and math.isfinite(times[-1]) \
            and (times[1:] >= times[:-1]).all() \
            and -2 ** 53 < lengths.min() and lengths.max() < 2 ** 53 \
            and lengths.all():
        return
    if times.size == 0:
        raise FlowFormatError("flow has no packets")
    if not np.isfinite(times).all():
        raise FlowFormatError("non-finite rel_time")
    if (times < 0).any():
        raise FlowFormatError(f"negative rel_time {times.min()}")
    if (np.diff(times) < 0).any():
        raise FlowFormatError("rel_time decreases")
    # compared as floats: abs(-2**63) overflows int64
    small = (-2.0 ** 53 < lengths) & (lengths < 2.0 ** 53)
    if not small.all():
        raise FlowFormatError("packet length must be an integer below 2**53 "
                              f"in size, got {lengths[~small][0]}")
    if (lengths == 0).any():
        raise FlowFormatError("zero packet length")


# packet columns: record key, dtype of its bytes, dtype of the column
_COLUMNS = (("times", "<f8", np.float64), ("lengths", "<i8", np.int64))


def _base64_column(key: str, text, stored: str, dtype) -> np.ndarray:
    """A record's column: the standard base64 of its little-endian bytes."""
    if not isinstance(text, str):
        raise FlowFormatError(
            f"{key} must be a base64 string, got {text!r:.40}")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise FlowFormatError(f"{key} is not base64: {exc}") from exc
    if len(data) % 8:
        raise FlowFormatError(
            f"{key} holds {len(data)} bytes, not a multiple of 8")
    return np.frombuffer(data, stored).astype(dtype)


def _read_record(raw: str) -> Flow:
    """The flow of one record line."""
    try:
        rec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FlowFormatError(f"bad JSON: {exc}") from exc
    if not isinstance(rec, dict):
        raise FlowFormatError("flow record is not an object")
    version = rec.get("v")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise FlowVersionError(f"record schema version {version!r} is "
                               f"not the header's {SCHEMA_VERSION}")
    try:
        t = rec["tuple"]
        five = (t["src"], t["dst"], t["sport"], t["dport"], t["proto"])
        texts = [rec[key] for key, _, _ in _COLUMNS]
        fid = rec["id"]
    except (KeyError, TypeError) as exc:
        raise FlowFormatError(f"bad flow record: {exc}") from exc
    times, signed = (_base64_column(key, text, stored, dtype)
                     for (key, stored, dtype), text in zip(_COLUMNS, texts))
    return Flow(id=fid, five_tuple=FiveTuple(*five), times=times,
                signed=signed, label=rec.get("label"))


def _flow_to_line(flow: Flow) -> str:
    """The record line of a flow: json.dumps of the whole record. Base64
    holds no character that JSON escapes, so the columns are spliced in
    after the JSON of the rest, not scanned by json."""
    five = flow.five_tuple
    head = json.dumps({
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
    })
    parts = [head[:-1]]  # without its closing brace
    for (key, stored, _), column in zip(_COLUMNS, (flow.times, flow.signed)):
        text = base64.b64encode(column.astype(stored, copy=False).tobytes())
        parts.append(f', "{key}": "{text.decode("ascii")}"')
    parts.append("}")
    return "".join(parts)


Sink = Union[str, Path, IO[str]]


def _open_for(target: Sink, mode: str):
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8", newline="\n"), True
    return target, False


def write_flows(flows: Iterable[Flow], sink: Sink) -> None:
    """Write a flow file. A Flow is valid by construction, so read_flows
    reads back every flow written."""
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
    flows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.strip():
            try:
                flows.append(_read_record(raw))
            except FlowFormatError as exc:
                raise type(exc)(str(exc), lineno) from exc
    return flows

"""Flow data model and the newline-delimited JSON flow file format."""

from __future__ import annotations

import json
import re
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
    except (TypeError, ValueError, OverflowError) as exc:
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
    # np.array converts booleans and numeric strings; checked last, so that
    # a list rejected by the checks above keeps its message
    for pair in pkts:
        for value in pair:
            if type(value) is not float and type(value) is not int:
                raise FlowFormatError(
                    f"packet field is not a number: {value!r}", line)
    return times, lengths.astype(np.int64)


def _record_to_flow(rec: dict, line: int,
                    columns: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> Flow:
    """The flow of one decoded record. `columns` are its packets' (times,
    signed), when the block reader has already parsed and checked them."""
    label = rec.get("label")
    if label is not None and not isinstance(label, str):
        raise FlowFormatError(f"label must be a string or null, got {label!r}",
                              line)
    try:
        t = rec["tuple"]
        # int() first, so that a port int() cannot convert keeps the "bad
        # flow record" message; the type and range are checked below
        five = FiveTuple(t["src"], t["dst"], int(t["sport"]), int(t["dport"]),
                         t["proto"])
        times, signed = (_packet_columns(rec["pkts"], line)
                         if columns is None else columns)
        fid = rec["id"]
    except FlowFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FlowFormatError(f"bad flow record: {exc}", line) from exc
    for name, value in (("id", fid), ("src", t["src"]), ("dst", t["dst"])):
        if not isinstance(value, str):
            raise FlowFormatError(f"{name} must be a string, got {value!r}",
                                  line)
    for name in ("sport", "dport"):
        port = t[name]
        if type(port) is not int or not 0 <= port <= 65535:
            raise FlowFormatError(
                f"{name} must be an integer in 0..65535, got {port!r}", line)
    return Flow(id=fid, five_tuple=five, times=times, signed=signed,
                label=label)


def _read_record(raw: str, line: int) -> Flow:
    """One record line through json: the reference reader."""
    try:
        rec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FlowFormatError(f"bad JSON: {exc}", line) from exc
    if not isinstance(rec, dict):
        raise FlowFormatError("flow record is not an object", line)
    if rec.get("v") != SCHEMA_VERSION:
        raise FlowVersionError(f"unsupported schema version {rec.get('v')}",
                               line)
    return _record_to_flow(rec, line)


# The block reader parses the packet text of consecutive records, up to about
# this many bytes, with one np.fromstring call. On a 14 MB file 128 KiB reads
# as fast as 1 MiB; 256 KiB and 1 MiB blocks raised the peak RSS of a process
# that reads small files between other work, 128 KiB did not.
_BLOCK_BYTES = 1 << 17
_PKTS_KEY = '"pkts": [['

# Byte classes of packet text: the index in _CLASS_BYTES, or 15 for any other
# byte, so that a pair of classes fits one byte.
_CLASS_BYTES = (b"[", b" ", b",", b"]", b"0", b"123456789", b".", b"eE", b"-",
                b"+")
_DIGITS = b"0123456789"
# The bytes that may follow each class in json.dumps' text of [number,
# number] pairs. A time starts with a digit and a length with 1-9 or -: a time
# starting - or a length starting 0 is never valid (and to json -0 is the
# integer 0, which numpy reads as -0.0), so json reads those records.
_FOLLOWERS = (_DIGITS, b"123456789-[", b" ", b",", _DIGITS + b".eE,]",
              _DIGITS + b".eE,]", _DIGITS, _DIGITS + b"-+", _DIGITS, _DIGITS)
# Events of adjacent bytes: 0 for a pair that may not occur, 1 for any other
# pair, 2 for a time's first 0 or a length's -, 3 for a 0 before a digit or a
# -0. So 2 then 3 is a time json rejects for its leading zero, or a length
# starting -0, which is zero, a fraction or json's error.
_EVENTS = {(b"[", b"0"): 2, (b" ", b"-"): 2, (b"0", b"0"): 3,
           (b"0", b"123456789"): 3, (b"-", b"0"): 3}
_BAD_START = re.compile(b"\2\3")


def _pair_tables() -> tuple[bytes, bytes]:
    """(byte -> class, pair -> event); the classes a, b of a pair make the
    byte a << 4 | b."""
    classes = bytearray([15]) * 256
    for cls, chars in enumerate(_CLASS_BYTES):
        for ch in chars:
            classes[ch] = cls
    events = bytearray(256)
    for a, first in enumerate(_CLASS_BYTES):
        for b, second in enumerate(_CLASS_BYTES):
            if second[0] in _FOLLOWERS[a]:
                events[a << 4 | b] = _EVENTS.get((first, second), 1)
    return bytes(classes), bytes(events)


_CLASS_TABLE, _EVENT_TABLE = _pair_tables()
# a fraction or exponent after an exponent, in text without its digits
_AFTER_EXPONENT = {mark: re.compile(mark + rb"[+-]?[.eE]")
                   for mark in (b"e", b"E")}
_UNBRACKET = bytes.maketrans(b"[]", b"  ")


def _split_record(raw: str) -> tuple[dict, bytes] | None:
    """A record line whose last key is "pkts" as (the record decoded with
    empty packets, the ASCII text of its pairs); None for any other line.

    The text after the first "pkts" key is the pairs' only if it passes the
    block checks, which also make that key the last."""
    i = raw.find(_PKTS_KEY)
    if i < 0 or not raw.endswith("]]}"):
        return None
    try:
        rec = json.loads(raw[:i] + '"pkts": []}')
    except json.JSONDecodeError:
        return None
    # rec is an object: the text that parsed ends with "}"
    text = raw[i + len(_PKTS_KEY) - 1:-2]  # from the first pair's "["
    if rec.get("v") != SCHEMA_VERSION or not text.isascii():
        return None
    return rec, text.encode("ascii")


def _json_number_pairs(data: bytes, skeleton: bytes, n: int) -> bool:
    """Whether `data` is n [number, number] pairs as json.dumps spells them,
    every number in json's syntax and not starting as no valid time or length
    does (see _FOLLOWERS and _EVENTS). `skeleton` is `data` without its
    digits.

    np.fromstring then reads every number whole, as json would."""
    if skeleton.translate(None, b".eE+-") != b"[, ], " * (n - 1) + b"[, ]":
        return False
    if b".." in skeleton or any(mark in skeleton and after.search(skeleton)
                                for mark, after in _AFTER_EXPONENT.items()):
        return False
    classes = np.frombuffer(data.translate(_CLASS_TABLE), dtype=np.uint8)
    events = ((classes[:-1] << 4) | classes[1:]).tobytes().translate(
        _EVENT_TABLE)
    return not (b"\0" in events or _BAD_START.search(events))


def _block_columns(texts: list[bytes]
                   ) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Each text's (times, signed), parsed with one np.fromstring call; None
    unless every text is pairs of JSON numbers that _packet_columns accepts."""
    skeletons = [t.translate(None, _DIGITS) for t in texts]
    counts = [s.count(b"[") for s in skeletons]
    data = b", ".join(texts)
    if not _json_number_pairs(data, b", ".join(skeletons), sum(counts)):
        return None
    values = np.fromstring(data.translate(_UNBRACKET), sep=",")
    if values.size != 2 * sum(counts):
        return None
    # no time starts with -, so none is below 0
    times, lengths = values[0::2], values[1::2]
    ends = np.cumsum(counts)
    steps = np.diff(times)
    steps[ends[:-1] - 1] = 0.0  # from one flow's last packet to the next's
    if not (np.isfinite(times).all() and (steps >= 0).all()
            and (lengths != 0).all()
            and ((np.abs(lengths) < 2.0 ** 53)
                 & (lengths == np.trunc(lengths))).all()):
        return None
    return [(times[a:b].copy(), lengths[a:b].astype(np.int64))
            for a, b in zip(ends - counts, ends)]


def _read_block(block: list) -> list[Flow]:
    """The flows of (line, raw, record, packet text) entries: from one block
    parse, or line by line through json if the block fails a check."""
    if not block:
        return []
    columns = _block_columns([text for _, _, _, text in block])
    if columns is None:
        return [_read_record(raw, line) for line, raw, _, _ in block]
    return [_record_to_flow(rec, line, cols)
            for (line, _, rec, _), cols in zip(block, columns)]


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
    flows, block, size = [], [], 0
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        split = _split_record(raw)
        if split is None:
            flows += _read_block(block)
            block, size = [], 0
            flows.append(_read_record(raw, lineno))
            continue
        block.append((lineno, raw, *split))
        size += len(split[1])
        if size >= _BLOCK_BYTES:
            flows += _read_block(block)
            block, size = [], 0
    return flows + _read_block(block)

"""Per-packet pcap ingest, kept as the reference for the columnar ingest.

One record, one decode and one dict lookup at a time: slow, but each rule of
the decoder and the flow assembler reads as one line. `ingest_pcap` must
give the same flows, ids, times (bit for bit) and skip counts.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from sampleflow.flows import FiveTuple, Flow
from sampleflow.ingest import TruncatedCaptureError, UnsupportedFormatError

# magic -> (byte order, timestamp fraction divisor)
_MAGICS = {
    0xA1B2C3D4: ("<", 1e6),
    0xD4C3B2A1: (">", 1e6),
    0xA1B23C4D: ("<", 1e9),
    0x4D3CB2A1: (">", 1e9),
}


def canonical_key(five: FiveTuple) -> tuple:
    """Direction-insensitive key of a 5-tuple: key(a->b) == key(b->a)."""
    a = (five.src_addr, five.src_port)
    b = (five.dst_addr, five.dst_port)
    return (min(a, b), max(a, b), five.protocol)


def parse_records(data: bytes) -> list[tuple[float, bytes]]:
    """(timestamp, frame) of each record, in file order."""
    if len(data) < 24:
        raise TruncatedCaptureError(len(data))
    magic_le = struct.unpack_from("<I", data, 0)[0]
    if magic_le not in _MAGICS:
        raise UnsupportedFormatError(f"bad pcap magic 0x{magic_le:08x}")
    order, ts_div = _MAGICS[magic_le]
    records = []
    offset = 24
    while offset < len(data):
        if offset + 16 > len(data):
            raise TruncatedCaptureError(len(data))
        ts_sec, ts_frac, incl_len, _ = struct.unpack_from(
            order + "IIII", data, offset)
        offset += 16
        if offset + incl_len > len(data):
            raise TruncatedCaptureError(len(data))
        records.append((ts_sec + ts_frac / ts_div,
                        data[offset:offset + incl_len]))
        offset += incl_len
    return records


def decode_frame(frame: bytes, skipped: Counter
                 ) -> tuple[FiveTuple, int] | None:
    """Ethernet -> IPv4 -> TCP/UDP; None (and a counted reason) if skipped."""
    def skip(reason: str):
        skipped[reason] += 1
        return None

    if len(frame) < 14:
        return skip("malformed")
    if struct.unpack_from("!H", frame, 12)[0] != 0x0800:
        return skip("non-ipv4")
    ip = frame[14:]
    if len(ip) < 20:
        return skip("malformed")
    ihl = (ip[0] & 0x0F) * 4
    if ip[0] >> 4 != 4 or ihl < 20 or ihl > len(ip):
        return skip("malformed")
    total_len = struct.unpack_from("!H", ip, 2)[0]
    if total_len < ihl or total_len > len(ip):
        return skip("malformed")
    proto = ip[9]
    if proto not in (6, 17):
        return skip("non-tcp-udp")
    if len(ip) < ihl + 4:
        return skip("malformed")
    sport, dport = struct.unpack_from("!HH", ip, ihl)
    src = ".".join(str(b) for b in ip[12:16])
    dst = ".".join(str(b) for b in ip[16:20])
    return (FiveTuple(src, dst, sport, dport, "tcp" if proto == 6 else "udp"),
            total_len)


@dataclass
class _OpenFlow:
    tuple_first: FiveTuple
    last_ts: float
    arrival_index: int
    stamps: list[float] = field(default_factory=list)
    signed: list[int] = field(default_factory=list)


def assemble(packets: list[tuple[FiveTuple, int, float]],
             idle_timeout: float) -> list[Flow]:
    """Bidirectional flows split on idle gaps, in first-packet order."""
    open_flows: dict[tuple, _OpenFlow] = {}
    seq_per_key: Counter = Counter()
    closed: list[tuple[int, Flow]] = []

    def close(key: tuple, of: _OpenFlow) -> None:
        seq = seq_per_key[key]
        seq_per_key[key] += 1
        t = of.tuple_first
        fid = (f"{t.src_addr}:{t.src_port}-{t.dst_addr}:{t.dst_port}"
               f"/{t.protocol}#{seq}")
        stamps = np.array(of.stamps)
        order = np.argsort(stamps, kind="stable")
        closed.append((of.arrival_index,
                       Flow(id=fid, five_tuple=t,
                            times=stamps[order] - stamps[order[0]],
                            signed=np.array(of.signed)[order])))

    for arrival, (five, length, ts) in enumerate(packets):
        key = canonical_key(five)
        of = open_flows.get(key)
        if of is not None and ts - of.last_ts > idle_timeout:
            close(key, of)
            del open_flows[key]
            of = None
        if of is None:
            of = _OpenFlow(tuple_first=five, last_ts=ts, arrival_index=arrival)
            open_flows[key] = of
        forward = (five.src_addr, five.src_port) == (of.tuple_first.src_addr,
                                                     of.tuple_first.src_port)
        of.stamps.append(ts)
        of.signed.append(length if forward else -length)
        of.last_ts = max(of.last_ts, ts)

    for key, of in open_flows.items():
        close(key, of)
    closed.sort(key=lambda pair: pair[0])
    return [flow for _, flow in closed]


def ingest(data: bytes, idle_timeout: float = 60.0
           ) -> tuple[list[Flow], int, Counter]:
    """Flows (unfiltered), the decoded count and the skip counts."""
    skipped: Counter = Counter()
    packets = []
    for ts, frame in parse_records(data):
        out = decode_frame(frame, skipped)
        if out is not None:
            packets.append((*out, ts))
    return assemble(packets, idle_timeout), len(packets), skipped

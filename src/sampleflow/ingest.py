"""Classic pcap parsing, Ethernet/IPv4/TCP/UDP decoding, and flow assembly."""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .flows import FiveTuple, Flow

PCAP_GLOBAL_HEADER_LEN = 24
PCAP_RECORD_HEADER_LEN = 16

# magic -> (byte order, timestamp fraction divisor)
_MAGICS = {
    0xA1B2C3D4: ("<", 1e6),
    0xD4C3B2A1: (">", 1e6),
    0xA1B23C4D: ("<", 1e9),
    0x4D3CB2A1: (">", 1e9),
}

ETHERTYPE_IPV4 = 0x0800
PROTO_TCP = 6
PROTO_UDP = 17


class UnsupportedFormatError(ValueError):
    """Input is not a classic pcap file."""


class TruncatedCaptureError(ValueError):
    """Capture ends mid-header or mid-record."""

    def __init__(self, offset: int):
        super().__init__(f"truncated capture at byte offset {offset}")
        self.offset = offset


@dataclass(frozen=True)
class RawPacket:
    timestamp: float      # seconds since capture epoch
    link_payload: bytes
    orig_len: int         # bytes on the wire


def parse_pcap(byte_stream: Union[bytes, IO[bytes]]) -> Iterator[RawPacket]:
    """Yield packets of a classic pcap byte stream in file order."""
    data = byte_stream if isinstance(byte_stream, bytes) else byte_stream.read()
    if len(data) < PCAP_GLOBAL_HEADER_LEN:
        raise TruncatedCaptureError(len(data))
    magic_le = struct.unpack_from("<I", data, 0)[0]
    if magic_le not in _MAGICS:
        raise UnsupportedFormatError(f"bad pcap magic 0x{magic_le:08x}")
    order, ts_div = _MAGICS[magic_le]
    offset = PCAP_GLOBAL_HEADER_LEN
    while offset < len(data):
        if offset + PCAP_RECORD_HEADER_LEN > len(data):
            raise TruncatedCaptureError(len(data))
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack_from(
            order + "IIII", data, offset)
        offset += PCAP_RECORD_HEADER_LEN
        if offset + incl_len > len(data):
            raise TruncatedCaptureError(len(data))
        payload = data[offset:offset + incl_len]
        offset += incl_len
        yield RawPacket(timestamp=ts_sec + ts_frac / ts_div,
                        link_payload=payload, orig_len=orig_len)


@dataclass
class DecodeStats:
    decoded: int = 0
    skipped: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return self.decoded + sum(self.skipped.values())


def decode_packet(raw: RawPacket,
                  stats: DecodeStats | None = None
                  ) -> tuple[FiveTuple, int, float] | None:
    """Decode Ethernet -> IPv4 -> TCP/UDP; returns None for skipped packets.

    length is the IPv4 total-length field (layer-3 bytes).
    """
    def skip(reason: str):
        if stats is not None:
            stats.skipped[reason] += 1
        return None

    frame = raw.link_payload
    if len(frame) < 14:
        return skip("malformed")
    ethertype = struct.unpack_from("!H", frame, 12)[0]
    if ethertype != ETHERTYPE_IPV4:
        return skip("non-ipv4")
    ip = frame[14:]
    if len(ip) < 20:
        return skip("malformed")
    ihl = (ip[0] & 0x0F) * 4
    version = ip[0] >> 4
    if version != 4 or ihl < 20 or ihl > len(ip):
        return skip("malformed")
    total_len = struct.unpack_from("!H", ip, 2)[0]
    if total_len < ihl or total_len > len(ip):
        return skip("malformed")
    proto = ip[9]
    if proto not in (PROTO_TCP, PROTO_UDP):
        return skip("non-tcp-udp")
    if len(ip) < ihl + 4:
        return skip("malformed")
    sport, dport = struct.unpack_from("!HH", ip, ihl)
    src = ".".join(str(b) for b in ip[12:16])
    dst = ".".join(str(b) for b in ip[16:20])
    five = FiveTuple(src, dst, sport, dport,
                     "tcp" if proto == PROTO_TCP else "udp")
    if stats is not None:
        stats.decoded += 1
    return five, total_len, raw.timestamp


@dataclass
class _OpenFlow:
    tuple_first: FiveTuple
    last_ts: float
    arrival_index: int
    stamps: list[float] = field(default_factory=list)
    signed: list[int] = field(default_factory=list)


def assemble_flows(packets: Iterable[tuple[FiveTuple, int, float]],
                   idle_timeout: float = 60.0) -> list[Flow]:
    """Group decoded packets into bidirectional flows split on idle gaps.

    The first packet to arrive sets a flow's forward direction. Its packets
    are then stable-sorted by capture timestamp, and rel_time counts from
    the earliest one, so reordered captures give no negative gaps.
    """
    if idle_timeout <= 0:
        raise ValueError("idle_timeout must be > 0")
    open_flows: dict[tuple, _OpenFlow] = {}
    seq_per_key: Counter = Counter()
    closed: list[tuple[int, Flow]] = []
    arrival = 0

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

    for five, length, ts in packets:
        key = five.canonical_key()
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
        arrival += 1

    for key, of in open_flows.items():
        close(key, of)
    closed.sort(key=lambda pair: pair[0])
    return [flow for _, flow in closed]


def ingest_pcap(byte_stream: Union[bytes, IO[bytes]],
                idle_timeout: float = 60.0,
                min_packets: int = 100,
                stats: DecodeStats | None = None) -> list[Flow]:
    """Full ingestion: parse, decode, assemble, filter short flows."""
    from .flows import filter_short_flows

    decoded = []
    for raw in parse_pcap(byte_stream):
        out = decode_packet(raw, stats)
        if out is not None:
            decoded.append(out)
    flows = assemble_flows(decoded, idle_timeout=idle_timeout)
    return filter_short_flows(flows, min_packets)

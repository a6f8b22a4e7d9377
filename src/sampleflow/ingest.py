"""Classic pcap parsing, Ethernet/IPv4/TCP/UDP decoding, and flow assembly.

A capture is handled as columns: one Python loop walks the record offsets,
because each record's offset depends on the length of the one before, and
decoding and flow assembly are numpy operations over all packets at once.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import DataError
from .flows import FiveTuple, Flow

PCAP_GLOBAL_HEADER_LEN = 24
PCAP_RECORD_HEADER_LEN = 16
LINKTYPE_ETHERNET = 1

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

# The fixed-position fields of an untagged Ethernet frame carrying IPv4,
# at their byte offsets in the frame.
_ETH_IPV4 = np.dtype({
    "names": ["ethertype", "version_ihl", "total_len", "proto", "src", "dst"],
    "formats": [">u2", "u1", ">u2", "u1", ">u4", ">u4"],
    "offsets": [12, 14, 16, 23, 26, 30],
    "itemsize": 34,
})
# skip reasons, indexed by the codes decode_packet assigns
_REASONS = ("malformed", "non-ipv4", "non-tcp-udp")


class UnsupportedFormatError(DataError):
    """Input is not a classic pcap file of Ethernet frames."""


class TruncatedCaptureError(DataError):
    """Capture ends mid-header or mid-record."""

    def __init__(self, offset: int):
        super().__init__(f"truncated capture at byte offset {offset}")
        self.offset = offset


@dataclass(frozen=True)
class RecordBlock:
    """Records of a capture as columns over its bytes; no frame is copied."""
    data: np.ndarray       # uint8 view of the whole capture
    start: np.ndarray      # int64[n]: offset of each record's frame in data
    length: np.ndarray     # int64[n]: captured bytes of each frame
    timestamp: np.ndarray  # float64[n]: seconds since the capture epoch


@dataclass(frozen=True)
class DecodedPackets:
    """Columns of the TCP/UDP-over-IPv4 packets of a capture, in file order."""
    timestamp: np.ndarray  # float64[n]
    src: np.ndarray        # uint32[n]: IPv4 address, first octet highest
    dst: np.ndarray        # uint32[n]
    sport: np.ndarray      # uint16[n]
    dport: np.ndarray      # uint16[n]
    proto: np.ndarray      # uint8[n]: PROTO_TCP or PROTO_UDP
    length: np.ndarray     # int64[n]: IPv4 total length (layer-3 bytes)


def parse_pcap(data: bytes) -> Iterator[RecordBlock]:
    """Yield all records of a classic pcap capture of Ethernet frames as one
    block.

    The whole capture is checked before the block is yielded, so a truncated
    capture, or one of another link type, raises before any record is
    returned.
    """
    size = len(data)
    if size < PCAP_GLOBAL_HEADER_LEN:
        raise TruncatedCaptureError(size)
    magic_le = struct.unpack_from("<I", data, 0)[0]
    if magic_le not in _MAGICS:
        raise UnsupportedFormatError(f"bad pcap magic 0x{magic_le:08x}")
    order, ts_div = _MAGICS[magic_le]
    # the top bits of the link-type field may hold FCS information
    linktype = struct.unpack_from(order + "I", data, 20)[0] & 0xFFFF
    if linktype != LINKTYPE_ETHERNET:
        raise UnsupportedFormatError(
            f"unsupported link type {linktype}: only Ethernet "
            f"({LINKTYPE_ETHERNET}) is decoded")
    incl_len = struct.Struct(order + "I").unpack_from
    headers = []
    offset = PCAP_GLOBAL_HEADER_LEN
    while offset <= size - PCAP_RECORD_HEADER_LEN:  # a record header fits
        headers.append(offset)
        offset += PCAP_RECORD_HEADER_LEN + incl_len(data, offset + 8)[0]
    if offset != size:  # a record header or frame runs past the end
        raise TruncatedCaptureError(size)
    buf = np.frombuffer(data, dtype=np.uint8)
    at = np.array(headers, dtype=np.int64)
    # ts_sec, ts_frac, incl_len, orig_len of every record
    fields = buf[at[:, None] + np.arange(PCAP_RECORD_HEADER_LEN)].view(
        order + "u4")
    yield RecordBlock(data=buf, start=at + PCAP_RECORD_HEADER_LEN,
                      length=fields[:, 2].astype(np.int64),
                      timestamp=fields[:, 0] + fields[:, 1] / ts_div)


@dataclass
class DecodeStats:
    decoded: int = 0
    skipped: Counter = field(default_factory=Counter)


def decode_packet(block: RecordBlock,
                  stats: DecodeStats | None = None) -> DecodedPackets:
    """Decode Ethernet -> IPv4 -> TCP/UDP for every record of a block.

    A record is skipped at the first check it fails, in this order: frame
    shorter than Ethernet (malformed), not IPv4 (non-ipv4), bad IPv4 header
    length, version, header length or total length (malformed), not TCP or
    UDP (non-tcp-udp), too short for the ports (malformed). stats gets the
    reasons in the order of each reason's first skipped record.
    """
    frame_len = block.length
    ip_len = frame_len - 14
    # bytes past the end of a short frame are junk, and fail a check first
    h = np.take(block.data,
                block.start[:, None] + np.arange(_ETH_IPV4.itemsize),
                mode="clip").view(_ETH_IPV4)[:, 0]
    ihl = (h["version_ihl"] & 0x0F).astype(np.int64) * 4
    total = h["total_len"].astype(np.int64)
    proto = h["proto"]
    reason = np.select(
        [frame_len < 14,
         h["ethertype"] != ETHERTYPE_IPV4,
         (ip_len < 20) | (h["version_ihl"] >> 4 != 4) | (ihl < 20)
         | (ihl > ip_len) | (total < ihl) | (total > ip_len),
         (proto != PROTO_TCP) & (proto != PROTO_UDP),
         ip_len < ihl + 4],
        [0, 1, 0, 2, 0], default=-1)
    ok = np.flatnonzero(reason < 0)
    if stats is not None:
        stats.decoded += len(ok)
        codes, first, counts = np.unique(reason[reason >= 0],
                                         return_index=True, return_counts=True)
        for i in np.argsort(first):
            stats.skipped[_REASONS[codes[i]]] += int(counts[i])
    ports = np.take(block.data, (block.start[ok] + 14 + ihl[ok])[:, None]
                    + np.arange(4)).view(">u2").astype(np.uint16)
    return DecodedPackets(timestamp=block.timestamp[ok],
                          src=h["src"][ok].astype(np.uint32),
                          dst=h["dst"][ok].astype(np.uint32),
                          sport=ports[:, 0], dport=ports[:, 1],
                          proto=proto[ok], length=total[ok])


def _dotted(addr: int) -> str:
    return ".".join(str(b) for b in addr.to_bytes(4, "big"))


def assemble_flows(packets: DecodedPackets, idle_timeout: float = 60.0,
                   min_packets: int = 1) -> list[Flow]:
    """Group decoded packets into bidirectional flows split on idle gaps,
    and build those of at least min_packets packets.

    Packets share a key when they have the same protocol and the same
    unordered pair of (address, port) endpoints. Within a key, in file
    order, a packet more than idle_timeout after the latest earlier
    timestamp starts a new flow. The first packet of a flow sets its forward
    direction. Its packets are then stable-sorted by capture timestamp, and
    rel_time counts from the earliest one, so reordered captures give no
    negative gaps. Flows come out in the order of their first packets; a
    flow's id counts the flows of its key before it, short ones included.
    """
    if not idle_timeout > 0:
        raise ValueError("idle_timeout must be > 0")
    if min_packets < 1:
        raise ValueError("min_packets must be >= 1")
    n = len(packets.timestamp)
    if n == 0:
        return []
    a = packets.src.astype(np.uint64) << 16 | packets.sport
    b = packets.dst.astype(np.uint64) << 16 | packets.dport
    lo, hi, proto = np.minimum(a, b), np.maximum(a, b), packets.proto
    # key order; lexsort is stable, so file order within a key
    order = np.lexsort((proto, hi, lo))
    lo, hi, proto = lo[order], hi[order], proto[order]
    ts = packets.timestamp[order]
    new_key = np.ones(n, dtype=bool)
    new_key[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]) \
        | (proto[1:] != proto[:-1])
    # latest timestamp so far within each key: a running max of timestamp
    # ranks, offset per key so that no key sees an earlier key's values
    uniq, rank = np.unique(ts, return_inverse=True)
    shift = (np.cumsum(new_key) - 1) * len(uniq)
    latest = uniq[np.maximum.accumulate(rank + shift) - shift]
    starts = new_key.copy()
    starts[1:] |= ts[1:] - latest[:-1] > idle_timeout
    first = np.flatnonzero(starts)
    end = np.append(first[1:], n)
    flow_of = np.cumsum(starts) - 1

    src, sport = packets.src[order], packets.sport[order]
    forward = (src == src[first][flow_of]) & (sport == sport[first][flow_of])
    length = packets.length[order]
    signed = np.where(forward, length, -length)
    by_time = np.lexsort((ts, flow_of))  # file order on equal times
    ts, signed = ts[by_time], signed[by_time]
    times = ts - ts[first][flow_of]

    key_first = np.flatnonzero(new_key[first])  # each key's first flow
    seq = np.arange(len(first)) - np.repeat(
        key_first, np.diff(key_first, append=len(first)))
    arrival = order[first]  # file position of each flow's first packet
    by_arrival = np.argsort(arrival)
    kept = by_arrival[end[by_arrival] - first[by_arrival] >= min_packets]
    flows = []
    for i, k, lo, hi in zip(arrival[kept].tolist(), seq[kept].tolist(),
                            first[kept].tolist(), end[kept].tolist()):
        five = FiveTuple(_dotted(int(packets.src[i])),
                         _dotted(int(packets.dst[i])),
                         int(packets.sport[i]), int(packets.dport[i]),
                         "tcp" if packets.proto[i] == PROTO_TCP else "udp")
        flows.append(Flow(
            id=f"{five.src_addr}:{five.src_port}-{five.dst_addr}:"
               f"{five.dst_port}/{five.protocol}#{k}",
            five_tuple=five, times=times[lo:hi], signed=signed[lo:hi]))
    return flows


def ingest_pcap(data: bytes, idle_timeout: float = 60.0,
                min_packets: int = 100,
                stats: DecodeStats | None = None) -> list[Flow]:
    """Full ingestion: parse, decode, and assemble the flows of at least
    min_packets packets."""
    (block,) = parse_pcap(data)
    return assemble_flows(decode_packet(block, stats),
                          idle_timeout=idle_timeout, min_packets=min_packets)

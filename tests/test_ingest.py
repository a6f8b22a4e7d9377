import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampleflow.features import FEATURE_NAMES, stat_features
from sampleflow.flows import FiveTuple
from sampleflow.ingest import (PCAP_GLOBAL_HEADER_LEN, DecodedPackets,
                               DecodeStats, TruncatedCaptureError,
                               UnsupportedFormatError, assemble_flows,
                               decode_packet, ingest_pcap, parse_pcap)
from tests import ingest_reference as ref
from tests import pcaputil as pc


def frames(block):
    return [block.data[s:s + n].tobytes()
            for s, n in zip(block.start.tolist(), block.length.tolist())]


class TestParsePcap:
    def test_empty_capture(self):
        [block] = parse_pcap(pc.global_header())
        assert frames(block) == []
        assert block.timestamp.shape == (0,)

    def test_swapped_magic_record(self):
        # big-endian writer: magic reads as 0xd4c3b2a1 in little-endian
        payload = bytes(range(60))
        data = (pc.global_header(magic=pc.MAGIC_US, order=">")
                + pc.record(payload, 17, 250000, order=">"))
        assert struct.unpack_from("<I", data)[0] == pc.MAGIC_US_SWAPPED
        # independent decode: big-endian fields read straight off the hex
        assert data[24:28] == struct.pack(">I", 17)
        [block] = parse_pcap(data)
        assert frames(block) == [payload]
        assert block.timestamp.tolist() == [pytest.approx(17.25)]

    def test_nanosecond_magic(self):
        data = pc.pcap([(b"\x00" * 20, 3.000000125)], magic=pc.MAGIC_NS)
        [block] = parse_pcap(data)
        assert block.timestamp[0] == pytest.approx(3.000000125, abs=1e-12)

    def test_short_file_truncated_at_offset(self):
        with pytest.raises(TruncatedCaptureError) as exc:
            list(parse_pcap(b"\xd4\xc3\xb2\xa1123456"))
        assert exc.value.offset == 10

    def test_truncated_record_payload(self):
        data = pc.global_header() + pc.record(b"abcdef", 0, 0)[:-3]
        with pytest.raises(TruncatedCaptureError) as exc:
            list(parse_pcap(data))
        assert exc.value.offset == len(data)

    def test_bad_magic(self):
        with pytest.raises(UnsupportedFormatError):
            list(parse_pcap(b"\x00" * 24))

    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("linktype", [0, 101, 113, 228, 276, 0x10071])
    def test_link_type_not_decoded_refused(self, linktype, order):
        data = pc.global_header(order=order, linktype=linktype) + pc.record(
            pc.udp_frame("10.0.0.1", "10.0.0.2", 1, 2), 0, 0, order=order)
        expected = f"^unsupported link type {linktype & 0xFFFF}:"
        with pytest.raises(UnsupportedFormatError, match=expected):
            list(parse_pcap(data))

    @pytest.mark.parametrize("order", ["<", ">"])
    def test_ethernet_with_fcs_bits_read(self, order):
        # the top bits of the link-type field may hold FCS information
        frame = pc.udp_frame("10.0.0.1", "10.0.0.2", 1, 2)
        data = pc.global_header(order=order, linktype=0x10000001) \
            + pc.record(frame, 0, 0, order=order)
        [block] = parse_pcap(data)
        assert frames(block) == [frame]


def decode(*frame_list, ts=0.0, stats=None):
    [block] = parse_pcap(pc.pcap([(f, ts) for f in frame_list]))
    return decode_packet(block, stats)


def addr(dotted: str) -> int:
    return int.from_bytes(pc.ip_to_bytes(dotted), "big")


class TestDecodePacket:
    def test_arp_skipped(self):
        stats = DecodeStats()
        frame = pc.ethernet(b"\x00" * 28, ethertype=0x0806)
        assert len(decode(frame, stats=stats).timestamp) == 0
        assert stats.skipped["non-ipv4"] == 1

    def test_udp_total_length(self):
        # IPv4 total length field drives the reported size: 20 + 8 + 1350
        frame = pc.ethernet(pc.ipv4("10.0.0.1", "10.0.0.2", 17,
                                    pc.udp(5000, 443, b"q" * 1350)))
        d = decode(frame, ts=2.5)
        assert d.length.tolist() == [1378]
        assert d.timestamp.tolist() == [2.5]
        assert (d.src.tolist(), d.dst.tolist(), d.sport.tolist(),
                d.dport.tolist(), d.proto.tolist()) == \
            ([addr("10.0.0.1")], [addr("10.0.0.2")], [5000], [443], [17])

    def test_invalid_header_length(self):
        stats = DecodeStats()
        frame = pc.ethernet(pc.ipv4("1.1.1.1", "2.2.2.2", 6,
                                    pc.tcp(1, 2), ihl=5))
        # corrupt IHL to 4 (16 bytes, below the 20-byte minimum)
        frame = frame[:14] + bytes([(4 << 4) | 4]) + frame[15:]
        assert len(decode(frame, stats=stats).timestamp) == 0
        assert stats.skipped["malformed"] == 1

    def test_total_length_beyond_capture(self):
        stats = DecodeStats()
        frame = pc.ethernet(pc.ipv4("1.1.1.1", "2.2.2.2", 17, pc.udp(1, 2),
                                    total_len=5000))
        assert len(decode(frame, stats=stats).timestamp) == 0
        assert stats.skipped["malformed"] == 1

    def test_non_tcp_udp_skipped(self):
        stats = DecodeStats()
        frame = pc.ethernet(pc.ipv4("1.1.1.1", "2.2.2.2", 1, b"\x00" * 8))
        assert len(decode(frame, stats=stats).timestamp) == 0
        assert stats.skipped["non-tcp-udp"] == 1

    def test_tcp_decoded(self):
        d = decode(pc.tcp_frame("10.1.1.1", "10.2.2.2", 80, 50000, 10))
        assert d.proto.tolist() == [6]
        assert d.length.tolist() == [20 + 20 + 10]


def pkt(src, dst, sport, dport, length, ts, proto="udp"):
    return (FiveTuple(src, dst, sport, dport, proto), length, ts)


def assemble(trace, **kwargs):
    """assemble_flows over the decoded columns of (tuple, length, ts)."""
    return assemble_flows(DecodedPackets(
        timestamp=np.array([ts for _, _, ts in trace], dtype=np.float64),
        src=np.array([addr(f.src_addr) for f, _, _ in trace], dtype=np.uint32),
        dst=np.array([addr(f.dst_addr) for f, _, _ in trace], dtype=np.uint32),
        sport=np.array([f.src_port for f, _, _ in trace], dtype=np.uint16),
        dport=np.array([f.dst_port for f, _, _ in trace], dtype=np.uint16),
        proto=np.array([6 if f.protocol == "tcp" else 17 for f, _, _ in trace],
                       dtype=np.uint8),
        length=np.array([n for _, n, _ in trace], dtype=np.int64)), **kwargs)


class TestAssembleFlows:
    def test_bidirectional_signs_and_rebasing(self):
        flows = assemble([
            pkt("10.0.0.1", "10.0.0.2", 100, 200, 500, 5.0),
            pkt("10.0.0.2", "10.0.0.1", 200, 100, 700, 6.0),
        ])
        assert len(flows) == 1
        f = flows[0]
        assert list(zip(f.times.tolist(), f.signed.tolist())) == \
            [(0.0, 500), (1.0, -700)]
        assert f.five_tuple.src_addr == "10.0.0.1"

    def test_idle_timeout_splits(self):
        flows = assemble([
            pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 0.0),
            pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 120.0),
        ], idle_timeout=60.0)
        assert len(flows) == 2
        assert all(len(f) == 1 for f in flows)
        assert flows[0].id != flows[1].id

    def test_exact_timeout_gap_does_not_split(self):
        flows = assemble([
            pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 0.0),
            pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 60.0),
        ], idle_timeout=60.0)
        assert len(flows) == 1

    def test_interleaved_flows_vs_bruteforce_grouping(self):
        # 20-packet synthetic trace over two tuples; oracle groups by
        # canonical key with explicit loops
        trace = []
        for i in range(20):
            if i % 2 == 0:
                trace.append(pkt("10.0.0.1", "10.0.0.2", 10, 20,
                                 100 + i, 0.1 * i))
            else:
                trace.append(pkt("172.16.0.9", "10.0.0.1", 33, 44,
                                 200 + i, 0.1 * i, proto="tcp"))
        flows = assemble(trace)
        assert len(flows) == 2

        expected = {}
        for five, length, ts in trace:
            expected.setdefault(ref.canonical_key(five), []).append(
                (length, ts))
        for f in flows:
            key = ref.canonical_key(f.five_tuple)
            got = [(abs(s), pytest.approx(t + expected[key][0][1]))
                   for t, s in zip(f.times.tolist(), f.signed.tolist())]
            assert got == [(l, pytest.approx(t)) for l, t in expected[key]]

    def test_conservation(self):
        trace = [pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 0.1 * i)
                 for i in range(7)]
        trace += [pkt("10.0.0.3", "10.0.0.4", 3, 4, 50, 0.1 * i + 200)
                  for i in range(5)]
        flows = assemble(trace)
        assert sum(len(f) for f in flows) == len(trace)

    def test_first_packet_always_forward(self):
        trace = [pkt("10.0.0.2", "10.0.0.1", 9, 8, 77, 0.0),
                 pkt("10.0.0.1", "10.0.0.2", 8, 9, 88, 0.5)]
        flows = assemble(trace)
        assert flows[0].signed[0] == 77
        assert flows[0].signed[1] == -88

    def test_empty_input(self):
        assert assemble([]) == []

    def test_reordered_packets_sorted_by_timestamp(self):
        # captured out of order: 10.2 arrives after 10.5
        trace = [pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 10.0),
                 pkt("10.0.0.1", "10.0.0.2", 1, 2, 200, 10.5),
                 pkt("10.0.0.1", "10.0.0.2", 1, 2, 300, 10.2),
                 pkt("10.0.0.1", "10.0.0.2", 1, 2, 400, 11.0)]
        [flow] = assemble(trace)
        assert flow.signed.tolist() == [100, 300, 200, 400]
        np.testing.assert_allclose(flow.times, [0.0, 0.2, 0.5, 1.0])
        named = dict(zip(FEATURE_NAMES, stat_features(flow)))
        assert named["f_fwd_iat_min"] == pytest.approx(0.2)

    def test_time_measured_from_earliest_packet(self):
        # the first packet to arrive sets the direction, not the clock
        trace = [pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 5.0),
                 pkt("10.0.0.2", "10.0.0.1", 2, 1, 200, 4.5),
                 pkt("10.0.0.1", "10.0.0.2", 1, 2, 300, 5.5)]
        [flow] = assemble(trace)
        assert flow.five_tuple.src_addr == "10.0.0.1"
        assert flow.signed.tolist() == [-200, 100, 300]
        assert flow.times.tolist() == [0.0, 0.5, 1.0]

    def test_equal_timestamps_keep_arrival_order(self):
        trace = [pkt("10.0.0.1", "10.0.0.2", 1, 2, s, 1.0)
                 for s in (50, 60, 70)]
        [flow] = assemble(trace)
        assert flow.signed.tolist() == [50, 60, 70]

    @pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan])
    def test_timeout_must_be_positive(self, timeout):
        trace = [pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 0.0)]
        with pytest.raises(ValueError, match="idle_timeout"):
            assemble(trace, idle_timeout=timeout)


class TestIngestPcap:
    def test_end_to_end(self):
        frames = [(pc.udp_frame("10.0.0.1", "10.0.0.2", 1000, 443, 50),
                   0.1 * i) for i in range(5)]
        frames.append((pc.ethernet(b"\x00" * 28, ethertype=0x0806), 0.9))
        stats = DecodeStats()
        flows = ingest_pcap(pc.pcap(frames), min_packets=1, stats=stats)
        assert stats.decoded == 5
        assert stats.skipped["non-ipv4"] == 1
        assert len(flows) == 1
        assert len(flows[0]) == 5

    @pytest.mark.parametrize("min_packets", [0, -5])
    def test_min_packets_below_one_rejected(self, min_packets):
        frames = [(pc.udp_frame("10.0.0.1", "10.0.0.2", 1000, 443, 50),
                   0.1 * i) for i in range(5)]
        with pytest.raises(ValueError, match="min_packets"):
            ingest_pcap(pc.pcap(frames), min_packets=min_packets)


# ---- columnar ingest against the per-packet reference -----------------------

# (address, port) endpoints and the conversations among them; the last one
# is a flow from an endpoint to itself
_ENDPOINTS = [("10.0.0.1", 1000), ("10.0.0.2", 443), ("192.168.7.9", 1000),
              ("10.0.0.1", 443)]
_CONVERSATIONS = [(0, 1, 6), (0, 1, 17), (2, 1, 17), (0, 3, 6), (2, 2, 17)]
_TIMEOUT_S = 0.5


def _ipv4(proto, l4, ihl=5, version=4, total_len=None):
    return pc.ipv4("10.9.8.7", "10.7.8.9", proto, l4, ihl=ihl,
                   version=version, total_len=total_len)


@st.composite
def _packet_frame(draw):
    """A TCP or UDP frame of one conversation, either direction."""
    a, b, proto = draw(st.sampled_from(_CONVERSATIONS))
    (src, sport), (dst, dport) = _ENDPOINTS[a], _ENDPOINTS[b]
    if draw(st.booleans()):
        src, dst, sport, dport = dst, src, dport, sport
    payload = b"p" * draw(st.integers(0, 30))
    l4 = pc.tcp(sport, dport, payload) if proto == 6 else \
        pc.udp(sport, dport, payload)
    ihl = draw(st.integers(5, 15))
    padding = b"\x00" * draw(st.sampled_from([0, 0, 6]))  # Ethernet trailer
    return pc.ethernet(pc.ipv4(src, dst, proto, l4, ihl=ihl)) + padding


_SKIPPED_FRAMES = [
    st.binary(max_size=13),                                  # short frame
    st.just(pc.ethernet(b"\x00" * 28, ethertype=0x0806)),   # ARP
    st.just(pc.ethernet(b"", ethertype=0x86DD)),            # short non-IPv4
    st.binary(max_size=19).map(pc.ethernet),                # short IPv4
    st.just(pc.ethernet(_ipv4(6, pc.tcp(1, 2), version=6))),
    st.integers(0, 4).map(lambda ihl: pc.ethernet(
        bytes([0x40 | ihl]) + _ipv4(17, pc.udp(1, 2))[1:])),  # IHL < 5
    st.integers(20, 59).map(lambda n: pc.ethernet(
        _ipv4(6, b"", ihl=15)[:n])),                        # IHL past frame
    st.just(pc.ethernet(_ipv4(17, pc.udp(1, 2), total_len=12))),
    st.just(pc.ethernet(_ipv4(17, pc.udp(1, 2), total_len=900))),
    st.sampled_from([1, 2, 47, 255]).map(
        lambda p: pc.ethernet(_ipv4(p, b"\x00" * 8))),      # not TCP/UDP
    st.integers(0, 3).map(lambda n: pc.ethernet(
        _ipv4(6, b"\x01" * n))),                            # no room for ports
    st.binary(max_size=40).map(lambda b: pc.ethernet(
        bytes([0x45]) + b)),                                # random IPv4-ish
]


@st.composite
def _captures(draw):
    """A pcap of mixed frames, its idle timeout in seconds."""
    magic, scale = draw(st.sampled_from([(pc.MAGIC_US, 10 ** 6),
                                         (pc.MAGIC_NS, 10 ** 9)]))
    order = draw(st.sampled_from(["<", ">"]))
    timeout = int(_TIMEOUT_S * scale)
    # steps between stamps: equal, tiny, around the timeout, and backwards
    steps = st.sampled_from([0, 0, 1, scale // 100, timeout - 1, timeout,
                             timeout + 1, 3 * timeout, -1, -scale // 10,
                             -timeout - 1])
    tick = draw(st.integers(0, 2 ** 31)) * scale \
        + draw(st.integers(0, scale - 1))
    out = pc.global_header(magic=magic, order=order)
    for _ in range(draw(st.integers(0, 40))):
        frame = draw(_packet_frame() if draw(st.integers(0, 3)) else
                     st.one_of(_SKIPPED_FRAMES))
        tick = max(0, tick + draw(steps))
        out += pc.record(frame, *divmod(tick, scale), order=order)
    return out, draw(st.sampled_from([_TIMEOUT_S, _TIMEOUT_S, math.inf]))


class TestIngestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_captures(), st.sampled_from([1, 1, 2, 3, 5, 8]))
    def test_same_flows_ids_times_and_stats(self, capture, min_packets):
        data, timeout = capture
        stats = DecodeStats()
        got = ingest_pcap(data, idle_timeout=timeout, min_packets=min_packets,
                          stats=stats)
        want, decoded, skipped = ref.ingest(data, idle_timeout=timeout)
        # the reference builds every flow; ids keep the #seq of all of them
        want = [f for f in want if len(f) >= min_packets]
        assert got == want
        assert [f.times.tobytes() for f in got] == \
            [f.times.tobytes() for f in want]
        assert stats.decoded == decoded
        assert list(stats.skipped.items()) == list(skipped.items())

    @settings(max_examples=200, deadline=None)
    @given(_captures(), st.floats(0, 1))
    def test_cut_capture_same_records_or_error(self, capture, share):
        data = capture[0][:int(len(capture[0]) * share)]

        def outcome(parse):
            try:
                return parse(data)
            except (TruncatedCaptureError, UnsupportedFormatError) as exc:
                return repr(exc)

        def columnar(data):
            [block] = parse_pcap(data)
            return list(zip(block.timestamp.tolist(), frames(block)))

        assert outcome(columnar) == outcome(ref.parse_records)

    def test_skip_reasons_keyed_by_first_skip(self):
        frames = [(pc.ethernet(_ipv4(1, b"\x00" * 8)), 0.0),
                  (b"\x00" * 5, 0.1),
                  (pc.ethernet(b"\x00" * 28, ethertype=0x0806), 0.2),
                  (b"\x00" * 5, 0.3)]
        stats = DecodeStats()
        assert ingest_pcap(pc.pcap(frames), min_packets=1, stats=stats) == []
        assert list(stats.skipped.items()) == \
            [("non-tcp-udp", 1), ("malformed", 2), ("non-ipv4", 1)]


def _reference_outcome(data):
    """ingest_pcap's flows, their times' bytes, its decoded count and its
    skip counts, and the same of the reference."""
    stats = DecodeStats()
    got = ingest_pcap(data, idle_timeout=_TIMEOUT_S, min_packets=1,
                      stats=stats)
    want, decoded, skipped = ref.ingest(data, idle_timeout=_TIMEOUT_S)
    return ((got, [f.times.tobytes() for f in got], stats.decoded,
             list(stats.skipped.items())),
            (want, [f.times.tobytes() for f in want], decoded,
             list(skipped.items())))


class TestGatherPaths:
    """Each path of the row gathers and of the time-order check, named, so
    that none is left to the fuzz tests to reach by chance."""

    def test_last_records_fixed_bytes_run_past_capture(self):
        # a 14-byte ARP frame and a 3-byte frame end the capture: the 34
        # fixed bytes of each run past its end, and only bytes inside each
        # frame may decide its skip reason
        frames = [(pc.udp_frame("10.0.0.1", "10.0.0.2", 1000, 443, 50), 0.0),
                  (pc.ethernet(b"", ethertype=0x0806), 0.1),
                  (b"\x08\x00\x45", 0.2)]
        data = pc.pcap(frames)
        [block] = parse_pcap(data)
        assert (block.start[1:] + 34 > len(data)).all()
        got, want = _reference_outcome(data)
        assert got == want
        assert got[2:] == (1, [("non-ipv4", 1), ("malformed", 1)])

    @pytest.mark.parametrize("frame, skipped", [
        (None, []),
        (b"", [("malformed", 1)]),
        (b"\x00" * 13, [("malformed", 1)]),
        (pc.ethernet(b"\x45\x00\x00"), [("malformed", 1)]),
        (pc.ethernet(b"\x00\x01\x08", ethertype=0x0806), [("non-ipv4", 1)]),
    ], ids=["no record", "empty frame", "13 bytes", "short IPv4", "ARP"])
    def test_capture_shorter_than_fixed_bytes(self, frame, skipped):
        # fewer than 34 bytes follow the global header
        data = pc.pcap([] if frame is None else [(frame, 1.5)])
        assert len(data) - PCAP_GLOBAL_HEADER_LEN < 34
        got, want = _reference_outcome(data)
        assert got == want
        assert got == ([], [], 0, skipped)

    @staticmethod
    def _conversations(stamps):
        """One packet a stamp, over three conversations in both directions
        and both protocols."""
        ends = [("10.0.0.1", 1000, "10.0.0.2", 443, "udp"),
                ("10.0.0.2", 443, "10.0.0.1", 1000, "udp"),
                ("192.168.1.5", 5353, "10.0.0.9", 53, "tcp"),
                ("10.0.0.1", 1000, "10.0.0.2", 443, "tcp"),
                ("10.0.0.9", 53, "192.168.1.5", 5353, "tcp")]
        frames = []
        for i, ts in enumerate(stamps):
            src, sport, dst, dport, proto = ends[i % len(ends)]
            make = pc.udp_frame if proto == "udp" else pc.tcp_frame
            frames.append((make(src, dst, sport, dport, 10 + i % 7), ts))
        return pc.pcap(frames)

    def test_in_order_capture_sorts_no_time(self, monkeypatch):
        # time order in every conversation, idle gaps and equal stamps
        stamps = np.cumsum([0.1, 0.0, 0.2, 0.7, 0.0, 0.3, 0.6, 0.1, 0.45,
                            0.05, 0.0, 0.9, 0.2, 0.1, 0.3] * 3).tolist()
        data = self._conversations(stamps)
        got, want = _reference_outcome(data)
        assert got == want
        assert sum(len(f) for f in got[0]) == len(stamps)
        assert len(got[0]) > 5  # the gaps split conversations
        # the running maximum by timestamp rank is not taken
        [block] = parse_pcap(data)
        packets = decode_packet(block)

        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", refuse)
        assert assemble_flows(packets, idle_timeout=_TIMEOUT_S,
                              min_packets=1) == got[0]

    def test_out_of_order_capture_sorted_by_time(self, monkeypatch):
        # a stamp earlier than the one before it in a conversation, and one
        # that lands after an idle gap
        stamps = [0.0, 0.1, 0.2, 0.3, 0.4, 0.25, 0.5, 0.55, 0.6, 0.7,
                  2.0, 1.0, 2.1, 2.2, 1.95, 2.3]
        data = self._conversations(stamps)
        got, want = _reference_outcome(data)
        assert got == want
        [block] = parse_pcap(data)
        packets = decode_packet(block)
        calls = []
        unique = np.unique

        def counted(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        assert assemble_flows(packets, idle_timeout=_TIMEOUT_S,
                              min_packets=1) == got[0]
        assert calls

    @settings(max_examples=200, deadline=None)
    @given(_captures(), st.floats(0, 1))
    def test_cut_capture_lengths_are_incl_len(self, capture, share):
        # a frame's length is the distance to the next record header, less
        # the header: its incl_len field, which only the offset walk reads
        data = capture[0][:int(len(capture[0]) * share)]
        try:
            [block] = parse_pcap(data)
        except TruncatedCaptureError:
            return
        order = ref._MAGICS[struct.unpack_from("<I", data)[0]][0]
        incl_len = [struct.unpack_from(order + "I", data, start - 8)[0]
                    for start in block.start.tolist()]
        assert block.length.dtype == np.int64
        assert block.length.tolist() == incl_len

import struct

import numpy as np
import pytest

from sampleflow.features import FEATURE_NAMES, stat_features
from sampleflow.flows import FiveTuple
from sampleflow.ingest import (DecodeStats, RawPacket, TruncatedCaptureError,
                               UnsupportedFormatError, assemble_flows,
                               decode_packet, ingest_pcap, parse_pcap)
from tests import pcaputil as pc


class TestParsePcap:
    def test_empty_capture(self):
        assert list(parse_pcap(pc.global_header())) == []

    def test_swapped_magic_record(self):
        # big-endian writer: magic reads as 0xd4c3b2a1 in little-endian
        payload = bytes(range(60))
        data = (pc.global_header(magic=pc.MAGIC_US, order=">")
                + pc.record(payload, 17, 250000, order=">"))
        assert struct.unpack_from("<I", data)[0] == pc.MAGIC_US_SWAPPED
        # independent decode: big-endian fields read straight off the hex
        assert data[24:28] == struct.pack(">I", 17)
        pkts = list(parse_pcap(data))
        assert len(pkts) == 1
        assert pkts[0].timestamp == pytest.approx(17.25)
        assert pkts[0].link_payload == payload
        assert pkts[0].orig_len == 60

    def test_nanosecond_magic(self):
        data = pc.pcap([(b"\x00" * 20, 3.000000125)], magic=pc.MAGIC_NS)
        pkts = list(parse_pcap(data))
        assert pkts[0].timestamp == pytest.approx(3.000000125, abs=1e-12)

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


def raw(frame, ts=0.0):
    return RawPacket(timestamp=ts, link_payload=frame, orig_len=len(frame))


class TestDecodePacket:
    def test_arp_skipped(self):
        stats = DecodeStats()
        frame = pc.ethernet(b"\x00" * 28, ethertype=0x0806)
        assert decode_packet(raw(frame), stats) is None
        assert stats.skipped["non-ipv4"] == 1

    def test_udp_total_length(self):
        # IPv4 total length field drives the reported size: 20 + 8 + 1350
        frame = pc.ethernet(pc.ipv4("10.0.0.1", "10.0.0.2", 17,
                                    pc.udp(5000, 443, b"q" * 1350)))
        five, length, ts = decode_packet(raw(frame, 2.5))
        assert length == 1378
        assert ts == 2.5
        assert five == FiveTuple("10.0.0.1", "10.0.0.2", 5000, 443, "udp")

    def test_invalid_header_length(self):
        stats = DecodeStats()
        frame = pc.ethernet(pc.ipv4("1.1.1.1", "2.2.2.2", 6,
                                    pc.tcp(1, 2), ihl=5))
        # corrupt IHL to 4 (16 bytes, below the 20-byte minimum)
        frame = frame[:14] + bytes([(4 << 4) | 4]) + frame[15:]
        assert decode_packet(raw(frame), stats) is None
        assert stats.skipped["malformed"] == 1

    def test_total_length_beyond_capture(self):
        stats = DecodeStats()
        frame = pc.ethernet(pc.ipv4("1.1.1.1", "2.2.2.2", 17, pc.udp(1, 2),
                                    total_len=5000))
        assert decode_packet(raw(frame), stats) is None
        assert stats.skipped["malformed"] == 1

    def test_non_tcp_udp_skipped(self):
        stats = DecodeStats()
        frame = pc.ethernet(pc.ipv4("1.1.1.1", "2.2.2.2", 1, b"\x00" * 8))
        assert decode_packet(raw(frame), stats) is None
        assert stats.skipped["non-tcp-udp"] == 1

    def test_tcp_decoded(self):
        five, length, _ = decode_packet(
            raw(pc.tcp_frame("10.1.1.1", "10.2.2.2", 80, 50000, 10)))
        assert five.protocol == "tcp"
        assert length == 20 + 20 + 10


def pkt(src, dst, sport, dport, length, ts, proto="udp"):
    return (FiveTuple(src, dst, sport, dport, proto), length, ts)


class TestAssembleFlows:
    def test_bidirectional_signs_and_rebasing(self):
        flows = assemble_flows([
            pkt("10.0.0.1", "10.0.0.2", 100, 200, 500, 5.0),
            pkt("10.0.0.2", "10.0.0.1", 200, 100, 700, 6.0),
        ])
        assert len(flows) == 1
        f = flows[0]
        assert [(p.rel_time, p.signed_length) for p in f.packets] == \
            [(0.0, 500), (1.0, -700)]
        assert f.five_tuple.src_addr == "10.0.0.1"

    def test_idle_timeout_splits(self):
        flows = assemble_flows([
            pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 0.0),
            pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 120.0),
        ], idle_timeout=60.0)
        assert len(flows) == 2
        assert all(len(f.packets) == 1 for f in flows)
        assert flows[0].id != flows[1].id

    def test_exact_timeout_gap_does_not_split(self):
        flows = assemble_flows([
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
        flows = assemble_flows(trace)
        assert len(flows) == 2

        expected = {}
        for five, length, ts in trace:
            expected.setdefault(five.canonical_key(), []).append((length, ts))
        for f in flows:
            key = f.five_tuple.canonical_key()
            got = [(abs(p.signed_length),
                    pytest.approx(p.rel_time + expected[key][0][1]))
                   for p in f.packets]
            assert got == [(l, pytest.approx(t)) for l, t in expected[key]]

    def test_conservation(self):
        trace = [pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 0.1 * i)
                 for i in range(7)]
        trace += [pkt("10.0.0.3", "10.0.0.4", 3, 4, 50, 0.1 * i + 200)
                  for i in range(5)]
        flows = assemble_flows(trace)
        assert sum(len(f.packets) for f in flows) == len(trace)

    def test_first_packet_always_forward(self):
        trace = [pkt("10.0.0.2", "10.0.0.1", 9, 8, 77, 0.0),
                 pkt("10.0.0.1", "10.0.0.2", 8, 9, 88, 0.5)]
        flows = assemble_flows(trace)
        assert flows[0].packets[0].signed_length == 77
        assert flows[0].packets[1].signed_length == -88

    def test_empty_input(self):
        assert assemble_flows([]) == []

    def test_reordered_packets_sorted_by_timestamp(self):
        # captured out of order: 10.2 arrives after 10.5
        trace = [pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 10.0),
                 pkt("10.0.0.1", "10.0.0.2", 1, 2, 200, 10.5),
                 pkt("10.0.0.1", "10.0.0.2", 1, 2, 300, 10.2),
                 pkt("10.0.0.1", "10.0.0.2", 1, 2, 400, 11.0)]
        [flow] = assemble_flows(trace)
        assert flow.signed.tolist() == [100, 300, 200, 400]
        np.testing.assert_allclose(flow.times, [0.0, 0.2, 0.5, 1.0])
        named = dict(zip(FEATURE_NAMES, stat_features(flow)))
        assert named["f_fwd_iat_min"] == pytest.approx(0.2)

    def test_time_measured_from_earliest_packet(self):
        # the first packet to arrive sets the direction, not the clock
        trace = [pkt("10.0.0.1", "10.0.0.2", 1, 2, 100, 5.0),
                 pkt("10.0.0.2", "10.0.0.1", 2, 1, 200, 4.5),
                 pkt("10.0.0.1", "10.0.0.2", 1, 2, 300, 5.5)]
        [flow] = assemble_flows(trace)
        assert flow.five_tuple.src_addr == "10.0.0.1"
        assert flow.signed.tolist() == [-200, 100, 300]
        assert flow.times.tolist() == [0.0, 0.5, 1.0]

    def test_equal_timestamps_keep_arrival_order(self):
        trace = [pkt("10.0.0.1", "10.0.0.2", 1, 2, s, 1.0)
                 for s in (50, 60, 70)]
        [flow] = assemble_flows(trace)
        assert flow.signed.tolist() == [50, 60, 70]


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
        assert len(flows[0].packets) == 5

    @pytest.mark.parametrize("min_packets", [0, -5])
    def test_min_packets_below_one_rejected(self, min_packets):
        frames = [(pc.udp_frame("10.0.0.1", "10.0.0.2", 1000, 443, 50),
                   0.1 * i) for i in range(5)]
        with pytest.raises(ValueError, match="min_packets"):
            ingest_pcap(pc.pcap(frames), min_packets=min_packets)

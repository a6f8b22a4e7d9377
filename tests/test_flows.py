import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampleflow.flows import (FiveTuple, Flow, FlowFormatError,
                              FlowVersionError, PacketEvent,
                              filter_short_flows, read_flows, write_flows)
from sampleflow.synth import generate


def make_flow(n=3, label=None, fid="f0"):
    return Flow(id=fid, five_tuple=FiveTuple("10.0.0.1", "10.0.0.2", 1234,
                                             443, "udp"),
                times=[0.125 * i for i in range(n)],
                signed=[100] + [200 if i % 2 else -300 for i in range(1, n)],
                label=label)


def flow_file(pkts) -> str:
    """A one-flow file whose record carries the given packet list."""
    buf = io.StringIO()
    write_flows([make_flow()], buf)
    header, record = buf.getvalue().splitlines()
    rec = json.loads(record)
    rec["pkts"] = pkts
    return header + "\n" + json.dumps(rec) + "\n"


def roundtrip(flows):
    buf = io.StringIO()
    write_flows(flows, buf)
    return read_flows(io.StringIO(buf.getvalue()))


class TestCanonicalKey:
    def test_bad_protocol_rejected(self):
        with pytest.raises(ValueError):
            FiveTuple("1.2.3.4", "5.6.7.8", 1, 2, "icmp")


# any code point, lone surrogates included; a high surrogate followed by a
# low one is not lone: JSON reads that escape pair as one astral character
_PAIRED = re.compile("[\ud800-\udbff][\udc00-\udfff]")
_TEXT = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]))
                ).filter(lambda s: not _PAIRED.search(s))
_TIME = st.one_of(st.floats(0.0, 1.7976931348623157e308),
                  st.sampled_from([0.0, 5e-324, 1.7976931348623157e308]))
_LENGTH = st.integers(-(2 ** 53 - 1), 2 ** 53 - 1).filter(bool)


@st.composite
def flow_records(draw):
    n = draw(st.integers(1, 20))
    return Flow(id=draw(_TEXT),
                five_tuple=FiveTuple(draw(_TEXT), draw(_TEXT),
                                     draw(st.integers()), draw(st.integers()),
                                     draw(st.sampled_from(["tcp", "udp"]))),
                times=sorted(draw(st.lists(_TIME, min_size=n, max_size=n))),
                signed=draw(st.lists(_LENGTH, min_size=n, max_size=n)),
                label=draw(st.one_of(st.none(), _TEXT)))


class TestFlowFile:
    @given(st.lists(flow_records(), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, flow_list):
        first = io.StringIO()
        write_flows(flow_list, first)
        back = read_flows(io.StringIO(first.getvalue()))
        assert back == flow_list
        second = io.StringIO()
        write_flows(back, second)
        assert second.getvalue() == first.getvalue()

    def test_empty_roundtrip(self):
        buf = io.StringIO()
        write_flows([], buf)
        assert buf.getvalue().count("\n") == 1  # header line only
        assert roundtrip([]) == []

    def test_labeled_roundtrip_exact(self):
        flows = [make_flow(5, "video", "a"), make_flow(1, None, "b"),
                 make_flow(3, "chat", "c")]
        # fractional times that don't have short decimal representations
        flows[0].times[2] = 0.1 + 0.2
        flows[0].signed[2] = -77
        assert roundtrip(flows) == flows
        assert roundtrip(flows)[0].packets[2] == PacketEvent(0.1 + 0.2, -77)

    def test_negative_rel_time_names_line(self):
        buf = io.StringIO()
        write_flows([make_flow()], buf)
        text = buf.getvalue().replace("0.125", "-0.125")
        with pytest.raises(FlowFormatError, match="line 2"):
            read_flows(io.StringIO(text))

    @pytest.mark.parametrize("pkts, message", [
        ([[0.0, 100], [float("nan"), 50]], "non-finite"),
        ([[0.0, 100], [float("inf"), 50]], "non-finite"),
        ([[0.0, 100], [0.5, 50], [0.25, 50]], "decreases"),
        ([[0.0, 100], [0.5, 50.5]], "integer"),
        ([[0.0, 100], [0.5, float("nan")]], "integer"),
        ([[0.0, 100], [0.5]], "packet"),
        ([[0.0, 100, 7]], "pairs"),
        ([[0.0, "x"]], "packet"),
        ([], "no packets"),
        ([[0.0, 0]], "zero"),
    ])
    def test_bad_packets_rejected(self, pkts, message):
        with pytest.raises(FlowFormatError, match=message):
            read_flows(io.StringIO(flow_file(pkts)))

    def test_record_not_an_object(self):
        with pytest.raises(FlowFormatError, match="line 2"):
            read_flows(io.StringIO('{"v": 1, "format": "flows"}\n[1, 2]\n'))

    def test_synth_file_rewrites_byte_identical(self):
        first, second = io.StringIO(), io.StringIO()
        write_flows(generate(3, 4, seed=5), first)
        write_flows(read_flows(io.StringIO(first.getvalue())), second)
        assert first.getvalue() == second.getvalue()

    def test_packets_view_matches_columns(self):
        flow = make_flow(4)
        assert [(p.rel_time, p.signed_length) for p in flow.packets] == \
            list(zip(flow.times.tolist(), flow.signed.tolist()))
        assert isinstance(flow.packets, tuple)

    def test_unknown_version_rejected(self):
        buf = io.StringIO()
        write_flows([make_flow()], buf)
        text = buf.getvalue().replace('"v": 1', '"v": 99')
        with pytest.raises(FlowVersionError):
            read_flows(io.StringIO(text))

    def test_garbage_line_reports_position(self):
        buf = io.StringIO()
        write_flows([make_flow()], buf)
        text = buf.getvalue() + "not json\n"
        with pytest.raises(FlowFormatError, match="line 3"):
            read_flows(io.StringIO(text))

    def test_not_a_flow_file(self):
        with pytest.raises(FlowFormatError):
            read_flows(io.StringIO('{"something": "else"}\n'))

    def test_path_roundtrip(self, tmp_path):
        p = tmp_path / "flows.jsonl"
        flows = [make_flow(4, "x")]
        write_flows(flows, p)
        assert read_flows(p) == flows


class TestFilterShortFlows:
    def test_below_threshold_removed(self):
        assert filter_short_flows([make_flow(99)], 100) == []

    def test_boundary_inclusive(self):
        f = make_flow(100)
        assert filter_short_flows([f], 100) == [f]

    def test_min_one_is_identity(self):
        flows = [make_flow(1), make_flow(7), make_flow(3)]
        assert filter_short_flows(flows, 1) == flows

    def test_idempotent_and_monotone(self):
        flows = [make_flow(n) for n in (1, 5, 10, 50, 100)]
        once = filter_short_flows(flows, 10)
        assert filter_short_flows(once, 10) == once
        bigger = filter_short_flows(flows, 50)
        assert set(f.id for f in bigger) <= set(f.id for f in once)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            filter_short_flows([], 0)

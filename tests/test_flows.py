import base64
import dataclasses
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampleflow import flows as flows_module
from sampleflow.flows import (FiveTuple, Flow, FlowFormatError,
                              FlowVersionError, _read_record,
                              filter_short_flows, read_flows, write_flows)
from sampleflow.synth import generate
from tests.flows_v1 import write_flows_v1


def make_flow(n=3, label=None, fid="f0"):
    return Flow(id=fid, five_tuple=FiveTuple("10.0.0.1", "10.0.0.2", 1234,
                                             443, "udp"),
                times=[0.125 * i for i in range(n)],
                signed=[100] + [200 if i % 2 else -300 for i in range(1, n)],
                label=label)


def flow_file(pkts) -> str:
    """A one-flow v1 file whose record carries the given packet list."""
    buf = io.StringIO()
    write_flows_v1([make_flow()], buf)
    header, record = buf.getvalue().splitlines()
    rec = json.loads(record)
    rec["pkts"] = pkts
    return header + "\n" + json.dumps(rec) + "\n"


def roundtrip(flows):
    buf = io.StringIO()
    write_flows(flows, buf)
    return read_flows(io.StringIO(buf.getvalue()))


def column_bytes(flows):
    """Each flow's columns as bytes: equal only if bit for bit equal."""
    return [(f.times.tobytes(), f.signed.tobytes()) for f in flows]


class TestCanonicalKey:
    def test_bad_protocol_rejected(self):
        with pytest.raises(ValueError):
            FiveTuple("1.2.3.4", "5.6.7.8", 1, 2, "icmp")


# any code point, lone surrogates included; a high surrogate followed by a
# low one is not lone: JSON reads that escape pair as one astral character
_PAIRED = re.compile("[\ud800-\udbff][\udc00-\udfff]")
_TEXT = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]))
                ).filter(lambda s: not _PAIRED.search(s))
# subnormals included; -0.0 is at least 0, so a valid time
_TIME = st.one_of(st.floats(0.0, 1.7976931348623157e308),
                  st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072009e-308,
                                   1.7976931348623157e308]))
_LENGTH = st.integers(-(2 ** 53 - 1), 2 ** 53 - 1).filter(bool)
_PORT = st.integers(0, 65535)


@st.composite
def flow_records(draw):
    n = draw(st.integers(1, 20))
    return Flow(id=draw(_TEXT),
                five_tuple=FiveTuple(draw(_TEXT), draw(_TEXT),
                                     draw(_PORT), draw(_PORT),
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
        assert column_bytes(back) == column_bytes(flow_list)
        second = io.StringIO()
        write_flows(back, second)
        assert second.getvalue() == first.getvalue()

    @given(st.lists(flow_records(), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_v1_file_reads_to_equal_flows(self, flow_list):
        text = io.StringIO()
        write_flows_v1(flow_list, text)
        back = read_flows(io.StringIO(text.getvalue()))
        assert back == flow_list
        assert column_bytes(back) == column_bytes(flow_list)

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
        back = roundtrip(flows)[0]
        assert (back.times[2], back.signed[2]) == (0.1 + 0.2, -77)

    def test_negative_rel_time_names_line(self):
        buf = io.StringIO()
        write_flows_v1([make_flow()], buf)
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

    @pytest.mark.parametrize("label", [["x"], 5, 1.5, True, {"a": "b"}],
                             ids=["list", "int", "float", "bool", "object"])
    def test_label_not_string_or_null_names_line(self, label):
        buf = io.StringIO()
        write_flows([make_flow(label="ok"), make_flow(fid="f1")], buf)
        lines = buf.getvalue().splitlines()
        rec = json.loads(lines[2])
        rec["label"] = label
        lines[2] = json.dumps(rec)
        with pytest.raises(FlowFormatError, match="line 3: label"):
            read_flows(io.StringIO("\n".join(lines) + "\n"))

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
        write_flows_v1([make_flow()], buf)
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


HEADER = '{"v": 1, "format": "flows"}'
TUPLE = ('{"src": "10.0.0.1", "dst": "10.0.0.2", "sport": 1234, "dport": 443, '
         '"proto": "udp"}')


def record(pkts="[[0.0, 100], [0.5, -200]]", fid='"f0"', tuple_=TUPLE,
           label="null", tail=""):
    """One record line, spelled out, with its packet text as given."""
    return (f'{{"v": 1, "id": {fid}, "tuple": {tuple_}, "label": {label}, '
            f'"pkts": {pkts}{tail}}}')


def outcome(read, text):
    """What reading `text` gives: each flow's fields with its columns'
    bytes and dtypes, or the error's type, message and line."""
    try:
        flows = read(text)
    except FlowFormatError as exc:
        return type(exc), str(exc), exc.line
    return [(f.id, f.five_tuple, f.label, f.times.dtype, f.times.tobytes(),
             f.signed.dtype, f.signed.tobytes()) for f in flows]


def json_reference(text):
    """Every record line of a v1 file, read one at a time."""
    return [_read_record(raw, n, 1)
            for n, raw in enumerate(text.splitlines()[1:], start=2)
            if raw.strip()]


def check_against_reference(text):
    got = outcome(lambda t: read_flows(io.StringIO(t)), text)
    assert got == outcome(json_reference, text)
    return got


def three_records(middle):
    """A file of a canonical record, `middle`, and another canonical one."""
    return "\n".join([HEADER, record(fid='"a"'), middle,
                      record(fid='"c"')]) + "\n"


_NUMBERS = ["01", "-01", "00.5", "1.", ".5", "-.5", "+1", "1.e5", "NaN",
            "Infinity", "-Infinity", "1e400", "-0", "1.2.3", "1e5e5",
            "1e5.3", "1e", "1e+", "--1", "1-2", "-", "", "0x10", "1_0",
            "10" + "0" * 400]
_VALID_NUMBERS = ["1e5", "1E+05", "1e-05", "-0.0", "7", "0", "0.0", "1e0"]


def number_id(text):
    return repr(text) if len(text) < 12 else f"{len(text)}-digit"
_STRUCTURES = {
    "triple": record(pkts="[[0.0, 100, 7]]"),
    "singleton": record(pkts="[[0.0]]"),
    "empty pair": record(pkts="[[]]"),
    "no packets": record(pkts="[]"),
    "nested pkts key in tuple": record(
        tuple_=TUPLE[:-1] + ', "pkts": [[0.0, 5]]}'),
    "nested pkts key last in tuple": (
        '{"v": 1, "id": "b", "label": null, "pkts": [[0.0, 5]], '
        '"tuple": ' + TUPLE[:-1] + ', "pkts": [[0.0, 7]]}}'),
    "duplicate pkts, last valid": record(
        label='null, "pkts": [[0.0, 0]]'),
    "duplicate pkts, first valid": record(
        pkts="[[0.0, 5]]", tail=', "pkts": [[0.0, 0]]'),
    "key after pkts": record(tail=', "z": 1'),
    "list after pkts": record(tail=', "z": [[1, 2]]'),
    "token after pair": record(pkts="[[0.0, 100]5, [0.5, 6]]"),
    "token before pair": record(pkts="[5[0.0, 100], [0.5, 6]]"),
    "pair without brackets": record(pkts="[[0.0, 100], 0.5, 6]"),
    "unbalanced pair": record(pkts="[[0.0], [100, 0.5, 6]]"),
    "unbalanced pair, no zero": record(pkts="[[1.5], [100, 2.5, 6]]"),
    "bracket inside pair": record(pkts="[[1.5, 2, [3, 4]]"),
    "pairs in pairs": record(pkts="[[1.5, 2]], [[3, 4]]"),
    "empty first time": record(pkts="[[, 100], [0.5, 6]]"),
    "nested pair": record(pkts="[[[0.0], 100]]"),
    "string field": record(pkts='[[0.0, "100"]]'),
    "null field": record(pkts="[[0.0, null]]"),
    "bool field": record(pkts="[[0.0, true]]"),
    "not JSON": record(pkts="[[0.0, 100]"),
    "version 2": record().replace('"v": 1', '"v": 2'),
    "not an object": "[[0.0, 100]]",
    "escaped key": record(label='"x\\"pkts\\": [[0.0, 1]]"'),
    "non-ASCII": record(pkts="[[0.0, 100], [0.5, ٥]]"),
    "decreasing": record(pkts="[[0.5, 100], [0.0, 100]]"),
    "zero length": record(pkts="[[0.0, 0]]"),
    "fraction length": record(pkts="[[0.0, 1.5]]"),
}
_SPACINGS = {
    "tab": "[[0.0,\t100]]", "double space": "[[0.0,  100]]",
    "no space": "[[0.0,100]]", "space before comma": "[[0.0 , 100]]",
    "no space between pairs": "[[0.0, 100],[0.5, 6]]",
    "space inside bracket": "[[ 0.0, 100]]",
    "form feed, a line break to splitlines": "[[0.0,\f100]]",
}


@pytest.fixture(scope="module")
def large_file():
    """Synth flows and their v1 file."""
    flows = generate(3, 40, seed=7)
    buf = io.StringIO()
    write_flows_v1(flows, buf)
    return flows, buf.getvalue()


class TestBlockReader:
    """v1 files, which read_flows reads through json, against the reference
    reader of one record at a time. (The v1 block reader these tests were
    written for is gone; the name keeps the tests' ids.)"""

    @pytest.mark.parametrize("where", ["time", "length"])
    @pytest.mark.parametrize("number", _NUMBERS + _VALID_NUMBERS,
                             ids=number_id)
    def test_number_matches_json(self, number, where):
        pkts = (f"[[0.0, 100], [{number}, 200]]" if where == "time" else
                f"[[0.0, 100], [0.5, {number}]]")
        check_against_reference(three_records(record(pkts=pkts, fid='"b"')))

    @pytest.mark.parametrize("number", ["1e5", "1E+05", "1e-05", "1e0"])
    def test_valid_exponent_takes_block_parse(self, number):
        """A v1 time in exponent form reads to its exact value, and a v2
        rewrite keeps it bit for bit."""
        flows = read_flows(io.StringIO(three_records(
            record(pkts=f"[[0.0, 100], [{number}, 100]]", fid='"b"'))))
        assert flows[1].times[1] == float(number)
        assert column_bytes(roundtrip(flows)) == column_bytes(flows)

    @pytest.mark.parametrize("number", _NUMBERS + ["-0.0"], ids=number_id)
    def test_other_number_leaves_block_parse(self, number):
        """A v1 length that is not a nonzero JSON integer is refused on its
        line, as the json reference refuses it."""
        got = check_against_reference(three_records(
            record(pkts=f"[[0.0, {number}]]", fid='"b"')))
        assert got[0] is FlowFormatError and got[2] == 3

    @pytest.mark.parametrize("name", _STRUCTURES)
    def test_structure_matches_json(self, name):
        check_against_reference(three_records(_STRUCTURES[name]))

    @pytest.mark.parametrize("name", _SPACINGS)
    def test_spacing_matches_json(self, name):
        got = check_against_reference(three_records(
            record(pkts=_SPACINGS[name])))
        assert isinstance(got, list) or name.startswith("form feed")

    def test_crlf_and_blank_lines(self):
        lines = [HEADER, record(fid='"a"'), "", "   ", record(fid='"b"'),
                 "", record(pkts="[[0.0, 100], [0.25, 0]]", fid='"c"')]
        good = "\r\n".join(lines[:-1]) + "\r\n"
        assert len(check_against_reference(good)) == 2
        bad = check_against_reference("\r\n".join(lines) + "\r\n")
        assert bad == (FlowFormatError, "line 7: zero packet length", 7)

    @pytest.mark.parametrize("pattern, replacement", [
        (r'"pkts": \[\[0\.0, -?\d+', '"pkts": [[0.0, 0'),
        (r'"pkts": \[\[0\.0, -?\d+', '"pkts": [[0.0, 100.5'),
        (r'"pkts": \[\[0\.0, ', '"pkts": [[1.0, 5], [0.0, '),
        (r'"pkts": \[\[0\.0, ', '"pkts": [[00.0, '),
        (r'"sport": (\d+)', r'"sport": \1.0'),
    ], ids=["zero length", "fraction", "decreasing", "leading zero",
            "float port"])
    def test_bad_record_inside_later_block(self, pattern, replacement,
                                           large_file):
        lines = large_file[1].splitlines()
        k = len(lines) // 2  # a record in the middle of the file
        lines[k] = re.sub(pattern, replacement, lines[k], count=1)
        got = check_against_reference("\n".join(lines) + "\n")
        assert got[0] is FlowFormatError and got[2] == k + 1

    def test_columns_own_their_memory(self):
        flows = read_flows(io.StringIO(flow_file([[0.0, 5], [0.5, -6]])))
        for column in (flows[0].times, flows[0].signed):
            assert column.base is None and column.flags.c_contiguous


# record fields that were converted in place of rejected: (record keyword
# arguments, message)
_FIELD_FAULTS = [
    (dict(tuple_=TUPLE.replace("1234", "80.7")), "sport must be"),
    (dict(tuple_=TUPLE.replace("1234", '"80"')), "sport must be"),
    (dict(tuple_=TUPLE.replace("1234", "true")), "sport must be"),
    (dict(tuple_=TUPLE.replace("1234", "-5")), "sport must be"),
    (dict(tuple_=TUPLE.replace("443", "70000")), "dport must be"),
    (dict(tuple_=TUPLE.replace("443", "1e400")), "bad flow record"),
    (dict(fid="null"), "id must be a string, got None"),
    (dict(fid="7"), "id must be a string, got 7"),
    (dict(fid="[1]"), r"id must be a string, got \[1\]"),
    (dict(tuple_=TUPLE.replace('"10.0.0.1"', "5")), "src must be"),
    (dict(tuple_=TUPLE.replace('"10.0.0.2"', "null")), "dst must be"),
    (dict(label="5"), "label must be a string or null, got 5"),
]


class TestCoercedFields:
    """Record fields that were converted in place of rejected."""

    @pytest.mark.parametrize("line, message", [
        (record(pkts="[[true, 600]]"), "packet field is not a number: True"),
        (record(pkts="[[0.0, true]]"), "packet field is not a number: True"),
        (record(pkts='[["0.5", 600]]'),
         "packet field is not a number: '0.5'"),
        (record(pkts="[[0.0, 1" + "0" * 400 + "]]"), "bad packet list"),
    ] + [(record(**fields), message) for fields, message in _FIELD_FAULTS])
    def test_rejected_with_line(self, line, message):
        text = three_records(line)
        with pytest.raises(FlowFormatError, match="line 3: " + message):
            read_flows(io.StringIO(text))
        check_against_reference(text)

    @pytest.mark.parametrize("port", [0, 65535])
    def test_port_range_ends_accepted(self, port):
        text = three_records(record(tuple_=TUPLE.replace("1234", str(port))))
        assert read_flows(io.StringIO(text))[1].five_tuple.src_port == port


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


HEADER_V2 = '{"v": 2, "format": "flows"}'
# a v2 record whose columns are the little-endian bytes of times
# (0.0, 0.001, 0.5) and lengths (100, -200, 1500)
GOLDEN = ('{"v": 2, "id": "f0", "tuple": ' + TUPLE + ', "label": null, '
          '"times": "AAAAAAAAAAD8qfHSTWJQPwAAAAAAAOA/", '
          '"lengths": "ZAAAAAAAAAA4/////////9wFAAAAAAAA"}')


def b64(values, dtype) -> str:
    """Standard base64 of the bytes of `values` stored as `dtype`."""
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode()


def record_v2(times=(0.0, 0.5), lengths=(100, -200), fid='"f0"',
              tuple_=TUPLE, label="null", v=2):
    """One v2 record line. `times` and `lengths` are values to encode, or
    a str of the JSON text to put in place of the column."""
    def column(values, dtype):
        return (values if isinstance(values, str)
                else json.dumps(b64(values, dtype)))
    return (f'{{"v": {v}, "id": {fid}, "tuple": {tuple_}, "label": {label}, '
            f'"times": {column(times, "<f8")}, '
            f'"lengths": {column(lengths, "<i8")}}}')


def three_records_v2(middle):
    """A v2 file of a valid record, `middle`, and another valid one."""
    return "\n".join([HEADER_V2, record_v2(fid='"a"'), middle,
                      record_v2(fid='"c"')]) + "\n"


def without(key):
    """A v2 record line without `key`."""
    rec = json.loads(record_v2())
    del rec[key]
    return json.dumps(rec)


def read_text(text):
    return read_flows(io.StringIO(text))


class TestV2File:
    def test_golden_record(self):
        [flow] = read_text(HEADER_V2 + "\n" + GOLDEN + "\n")
        assert flow.times.dtype == np.float64 and flow.signed.dtype == np.int64
        assert flow.times.tolist() == [0.0, 0.001, 0.5]
        assert flow.signed.tolist() == [100, -200, 1500]
        out = io.StringIO()
        write_flows([flow], out)
        assert out.getvalue() == HEADER_V2 + "\n" + GOLDEN + "\n"

    @pytest.mark.parametrize("times, lengths", [
        ([0.0, float("nan")], [100, 50]),
        ([0.0, float("inf")], [100, 50]),
        ([0.0, -0.125, 0.25], [100, 50, 60]),
        ([0.0, 0.5, 0.25], [100, 50, 50]),
        ([0.0, 0.5], [100, 2 ** 53]),
        ([0.0, 0.5], [100, -2 ** 63]),
        ([0.0, 0.5], [100, 0]),
        ([], []),
    ], ids=["nan", "inf", "negative", "decreasing", "length 2**53",
            "length -2**63", "zero length", "no packets"])
    def test_packet_rule_matches_v1(self, times, lengths):
        v1 = three_records(record(pkts=json.dumps(
            [list(pair) for pair in zip(times, lengths)]), fid='"b"'))
        v2 = three_records_v2(record_v2(times, lengths, fid='"b"'))
        got = outcome(read_text, v2)
        assert got == outcome(read_text, v1)
        assert got[0] is FlowFormatError and got[2] == 3

    @pytest.mark.parametrize("fields, message", _FIELD_FAULTS)
    def test_field_rule_matches_v1(self, fields, message):
        text = three_records_v2(record_v2(**fields))
        with pytest.raises(FlowFormatError, match="line 3: " + message):
            read_text(text)

    @pytest.mark.parametrize("line, error, message", [
        (record_v2(times='"AAAAAAAAAAA!AAAAAAAAAAAA"'), FlowFormatError,
         "times is not base64"),
        (record_v2(lengths='"ZAAAAAAAAAA"'), FlowFormatError,
         "lengths is not base64: Incorrect padding"),
        (record_v2(times='"AAAAAAAAAAAAAAAAAADgP\u00e9=="'), FlowFormatError,
         "times is not base64"),
        (record_v2(times=json.dumps(b64([0] * 7, "u1")), lengths=[5]),
         FlowFormatError, "times holds 7 bytes, not a multiple of 8"),
        (record_v2(lengths=[100]), FlowFormatError, "2 times but 1 lengths"),
        (record_v2(times='""'), FlowFormatError, "0 times but 2 lengths"),
        (record_v2(times='""', lengths='""'), FlowFormatError,
         "flow has no packets"),
        (record_v2(times="5"), FlowFormatError,
         "times must be a base64 string, got 5"),
        (record_v2(lengths="null"), FlowFormatError,
         "lengths must be a base64 string, got None"),
        (record_v2(times="[0.0, 0.5]"), FlowFormatError,
         r"times must be a base64 string, got \[0.0, 0.5\]"),
        (without("lengths"), FlowFormatError, "bad flow record: 'lengths'"),
        (record(pkts="[[0.0, 100]]").replace('"v": 1', '"v": 2'),
         FlowFormatError, "bad flow record: 'times'"),
        (record_v2(v=1), FlowVersionError,
         "record schema version 1 is not the header's 2"),
    ], ids=["non-base64 byte", "bad padding", "non-ASCII", "7 bytes",
            "unequal columns", "empty times", "empty columns",
            "number column", "null column", "list column", "no lengths",
            "pkts in v2", "v1 record in v2 file"])
    def test_v2_fault_names_line(self, line, error, message):
        text = three_records_v2(line)
        with pytest.raises(error, match="^line 3: " + message) as caught:
            read_text(text)
        assert type(caught.value) is error and caught.value.line == 3

    def test_v2_record_in_v1_file(self):
        with pytest.raises(FlowVersionError,
                           match="^line 3: record schema version 2 is not "
                                 "the header's 1") as caught:
            read_text(three_records(record_v2()))
        assert caught.value.line == 3

    @pytest.mark.parametrize("version", ["3", "0", "[2]", "2.0", "true",
                                         "null"])
    def test_unknown_header_version(self, version):
        with pytest.raises(FlowVersionError, match="^line 1: ") as caught:
            read_text(HEADER_V2.replace("2", version, 1) + "\n")
        assert caught.value.line == 1

    def test_columns_own_their_memory(self):
        [flow] = read_text(HEADER_V2 + "\n" + GOLDEN + "\n")
        for column in (flow.times, flow.signed):
            assert column.base is None and column.flags.c_contiguous
            assert column.flags.writeable and column.dtype.isnative

    def test_written_file_skips_pair_reader(self, monkeypatch):
        flows = generate(3, 4, seed=7)
        buf = io.StringIO()
        write_flows(flows, buf)

        def fail(*args):
            raise AssertionError("v1 pair reader used")

        monkeypatch.setattr(flows_module, "_pair_columns", fail)
        assert read_text(buf.getvalue()) == flows


def flow_with(**changes):
    """make_flow() with some of its fields, or its tuple's, replaced."""
    flow = make_flow()
    five = dataclasses.replace(flow.five_tuple, **{
        k: changes.pop(k) for k in list(changes)
        if hasattr(flow.five_tuple, k)})
    return Flow(**{"id": flow.id, "five_tuple": five, "times": flow.times,
                   "signed": flow.signed, "label": flow.label, **changes})


class TestWriteRefusesUnreadable:
    """write_flows refuses, naming the flow, any flow read_flows would
    reject, and leaves no file."""

    @pytest.mark.parametrize("changes, message", [
        (dict(src_port=70000), "sport must be an integer in 0..65535, "
                               "got 70000"),
        (dict(dst_port=-1), "dport must be an integer in 0..65535, got -1"),
        (dict(src_port=True), "sport must be an integer in 0..65535, "
                              "got True"),
        (dict(dst_port=80.0), "dport must be an integer in 0..65535, "
                              "got 80.0"),
        (dict(id=7), "id must be a string, got 7"),
        (dict(src_addr=None), "src must be a string, got None"),
        (dict(dst_addr=b"x"), "dst must be a string, got b'x'"),
        (dict(label=5), "label must be a string or null, got 5"),
        (dict(times=[0.0, 1.0, 0.5]), "rel_time decreases"),
        (dict(times=[0.0, float("nan"), 1.0]), "non-finite rel_time"),
        (dict(times=[-1.0, 0.0, 1.0]), "negative rel_time -1.0"),
        (dict(signed=[100, 0, 5]), "zero packet length"),
        (dict(signed=[100, 2 ** 53, 5]), "packet length is not an integer"),
        (dict(times=[], signed=[]), "flow has no packets"),
    ], ids=["port 70000", "port -1", "bool port", "float port", "int id",
            "None src", "bytes dst", "int label", "decreasing", "nan time",
            "negative time", "zero length", "length 2**53", "no packets"])
    def test_refused_with_flow_named(self, tmp_path, changes, message):
        bad = flow_with(**changes)
        path = tmp_path / "out.flows"
        expected = "^flow " + re.escape(f"{bad.id!r}: {message}") + "$"
        with pytest.raises(FlowFormatError, match=expected):
            write_flows([make_flow(fid="ok"), bad], path)
        assert not path.exists()
        with pytest.raises(FlowFormatError, match=expected):
            write_flows([bad], io.StringIO())

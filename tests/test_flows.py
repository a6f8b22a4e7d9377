import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampleflow import flows as flows_module
from sampleflow.flows import (FiveTuple, Flow, FlowFormatError,
                              FlowVersionError, _BLOCK_BYTES, _block_columns,
                              _read_record, filter_short_flows, read_flows,
                              write_flows)
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
        back = roundtrip(flows)[0]
        assert (back.times[2], back.signed[2]) == (0.1 + 0.2, -77)

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
    """Every record line decoded by json and checked by _record_to_flow."""
    return [_read_record(raw, n)
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
    """Synth flows and their file, a few blocks long."""
    flows = generate(3, 40, seed=7)
    buf = io.StringIO()
    write_flows(flows, buf)
    return flows, buf.getvalue()


class TestBlockReader:
    """The block parse against the json reader, record by record."""

    @pytest.mark.parametrize("where", ["time", "length"])
    @pytest.mark.parametrize("number", _NUMBERS + _VALID_NUMBERS,
                             ids=number_id)
    def test_number_matches_json(self, number, where):
        pkts = (f"[[0.0, 100], [{number}, 200]]" if where == "time" else
                f"[[0.0, 100], [0.5, {number}]]")
        check_against_reference(three_records(record(pkts=pkts, fid='"b"')))

    @pytest.mark.parametrize("number", ["1e5", "1E+05", "1e-05", "1e0"])
    def test_valid_exponent_takes_block_parse(self, number):
        columns = _block_columns([b"[0.0, 100]",
                                  f"[{number}, 100]".encode()])
        assert columns is not None
        assert columns[1][0][0] == float(number)

    @pytest.mark.parametrize("number", _NUMBERS + ["-0.0"], ids=number_id)
    def test_other_number_leaves_block_parse(self, number):
        assert _block_columns([f"[0.0, {number}]".encode()]) is None

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

    def test_canonical_file_takes_block_parse(self, monkeypatch,
                                              large_file):
        flows, text = large_file
        assert len(text) > 2 * _BLOCK_BYTES

        def fail(*args):
            raise AssertionError("json record path used")

        monkeypatch.setattr(flows_module, "_read_record", fail)
        monkeypatch.setattr(flows_module, "_packet_columns", fail)
        assert read_flows(io.StringIO(text)) == flows

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
        # a record in the middle of the second block
        k = int(np.searchsorted(np.cumsum([len(x) for x in lines]),
                                1.5 * _BLOCK_BYTES))
        lines[k] = re.sub(pattern, replacement, lines[k], count=1)
        got = check_against_reference("\n".join(lines) + "\n")
        assert got[0] is FlowFormatError and got[2] == k + 1

    def test_columns_own_their_memory(self):
        flows = read_flows(io.StringIO(flow_file([[0.0, 5], [0.5, -6]])))
        for column in (flows[0].times, flows[0].signed):
            assert column.base is None and column.flags.c_contiguous


class TestCoercedFields:
    """Record fields that were converted in place of rejected."""

    @pytest.mark.parametrize("line, message", [
        (record(pkts="[[true, 600]]"), "packet field is not a number: True"),
        (record(pkts="[[0.0, true]]"), "packet field is not a number: True"),
        (record(pkts='[["0.5", 600]]'),
         "packet field is not a number: '0.5'"),
        (record(pkts="[[0.0, 1" + "0" * 400 + "]]"), "bad packet list"),
        (record(tuple_=TUPLE.replace("1234", "80.7")), "sport must be"),
        (record(tuple_=TUPLE.replace("1234", '"80"')), "sport must be"),
        (record(tuple_=TUPLE.replace("1234", "true")), "sport must be"),
        (record(tuple_=TUPLE.replace("1234", "-5")), "sport must be"),
        (record(tuple_=TUPLE.replace("443", "70000")), "dport must be"),
        (record(tuple_=TUPLE.replace("443", "1e400")), "bad flow record"),
        (record(fid="null"), "id must be a string, got None"),
        (record(fid="7"), "id must be a string, got 7"),
        (record(fid="[1]"), r"id must be a string, got \[1\]"),
        (record(tuple_=TUPLE.replace('"10.0.0.1"', "5")), "src must be"),
        (record(tuple_=TUPLE.replace('"10.0.0.2"', "null")), "dst must be"),
    ])
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

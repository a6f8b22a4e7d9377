import base64
import copy
import dataclasses
import io
import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampleflow.flows import (FiveTuple, Flow, FlowFormatError,
                              FlowVersionError, _check_packets,
                              filter_short_flows, read_flows, write_flows)
from sampleflow.synth import generate


def make_flow(n=3, label=None, fid="f0"):
    return Flow(id=fid, five_tuple=FiveTuple("10.0.0.1", "10.0.0.2", 1234,
                                             443, "udp"),
                times=[0.125 * i for i in range(n)],
                signed=[100] + [200 if i % 2 else -300 for i in range(1, n)],
                label=label)


def roundtrip(flows):
    buf = io.StringIO()
    write_flows(flows, buf)
    return read_flows(io.StringIO(buf.getvalue()))


def column_bytes(flows):
    """Each flow's columns as bytes: equal only if bit for bit equal."""
    return [(f.times.tobytes(), f.signed.tobytes()) for f in flows]


HEADER = '{"v": 2, "format": "flows"}'
TUPLE = ('{"src": "10.0.0.1", "dst": "10.0.0.2", "sport": 1234, "dport": 443, '
         '"proto": "udp"}')
# a record whose columns are the little-endian bytes of times
# (0.0, 0.001, 0.5) and lengths (100, -200, 1500)
GOLDEN = ('{"v": 2, "id": "f0", "tuple": ' + TUPLE + ', "label": null, '
          '"times": "AAAAAAAAAAD8qfHSTWJQPwAAAAAAAOA/", '
          '"lengths": "ZAAAAAAAAAA4/////////9wFAAAAAAAA"}')


def b64(values, dtype) -> str:
    """Standard base64 of the bytes of `values` stored as `dtype`."""
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode()


def record(times=(0.0, 0.5), lengths=(100, -200), fid='"f0"', tuple_=TUPLE,
           label="null", v=2, tail=""):
    """One record line, spelled out. `times` and `lengths` are values to
    encode, or a str of the JSON text to put in place of the column; `tail`
    is text after the last column."""
    def column(values, dtype):
        return (values if isinstance(values, str)
                else json.dumps(b64(values, dtype)))
    return (f'{{"v": {v}, "id": {fid}, "tuple": {tuple_}, "label": {label}, '
            f'"times": {column(times, "<f8")}, '
            f'"lengths": {column(lengths, "<i8")}{tail}}}')


def three_records(middle):
    """A file of a valid record, `middle`, and another valid one."""
    return "\n".join([HEADER, record(fid='"a"'), middle,
                      record(fid='"c"')]) + "\n"


def without(*keys, **extra):
    """A record line without `keys`, with `extra` keys added."""
    rec = json.loads(record())
    for key in keys:
        del rec[key]
    return json.dumps({**rec, **extra})


def read_text(text):
    return read_flows(io.StringIO(text))


def outcome(text, read=read_text):
    """What reading `text` gives: each flow's fields with its columns'
    bytes and dtypes, or the error's type, message and line."""
    try:
        flows = read(text)
    except FlowFormatError as exc:
        return type(exc), str(exc), exc.line
    return [(f.id, f.five_tuple, f.label, f.times.dtype, f.times.tobytes(),
             f.signed.dtype, f.signed.tobytes()) for f in flows]


def refused_on(text, message, line=3):
    """Assert that reading `text` fails on `line` with `message`, a regular
    expression."""
    with pytest.raises(FlowFormatError,
                       match=f"^line {line}: {message}") as caught:
        read_text(text)
    assert caught.value.line == line


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

    def test_empty_roundtrip(self):
        buf = io.StringIO()
        write_flows([], buf)
        assert buf.getvalue().count("\n") == 1  # header line only
        assert roundtrip([]) == []

    def test_labeled_roundtrip_exact(self):
        first = make_flow(5, "video", "a")
        times, signed = first.times.copy(), first.signed.copy()
        # fractional times that don't have short decimal representations
        times[2] = 0.1 + 0.2
        signed[2] = -77
        flows = [dataclasses.replace(first, times=times, signed=signed),
                 make_flow(1, None, "b"), make_flow(3, "chat", "c")]
        assert roundtrip(flows) == flows
        back = roundtrip(flows)[0]
        assert (back.times[2], back.signed[2]) == (0.1 + 0.2, -77)

    def test_negative_rel_time_names_line(self):
        text = HEADER + "\n" + record(times=[-0.125, 0.0]) + "\n"
        with pytest.raises(FlowFormatError, match="line 2"):
            read_text(text)

    # each `pkts` holds the record's columns, as values or as JSON text
    @pytest.mark.parametrize("pkts, message", [
        (dict(times=[0.0, float("nan")]), "non-finite"),
        (dict(times=[0.0, float("inf")]), "non-finite"),
        (dict(times=[0.0, 0.5, 0.25], lengths=[100, 50, 50]), "decreases"),
        # a lengths column written as float64, fraction and NaN
        (dict(lengths=json.dumps(b64([100, 50.5], "<f8"))), "integer"),
        (dict(lengths=json.dumps(b64([100, float("nan")], "<f8"))),
         "integer"),
        (dict(lengths=[100, 2 ** 53]), "packet"),
        (dict(lengths=[100, -200, 300]), "2 times but 3 lengths"),
        (dict(lengths=[100, -2 ** 63]), "packet"),
        (dict(times=[], lengths=[]), "no packets"),
        (dict(lengths=[100, 0]), "zero"),
    ])
    def test_bad_packets_rejected(self, pkts, message):
        with pytest.raises(FlowFormatError, match=message):
            read_text(HEADER + "\n" + record(**pkts) + "\n")

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
            read_text(HEADER + "\n[1, 2]\n")

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
        text = buf.getvalue().replace('"v": 2', '"v": 99')
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


class TestFlowColumns:
    """Flow keeps its columns' values exactly, or refuses them."""

    @pytest.mark.parametrize("times, signed, name", [
        (["0.0", "0.5"], [100, -200], "times"),
        ([0.0, True], [100, -200], "times"),
        ([0.0, 0.5], [100.9, True], "signed"),
        ([0.0, 0.5], [100, True], "signed"),
        ([0.0, 0.5], [100, 200.5], "signed"),
        ([0.0, 0.5], ["100", "-200"], "signed"),
        ([0.0, 0.5], np.array([True, False]), "signed"),
        ([0.0, 0.5], np.array([1.0, 2.0]), "signed"),
        ([0.0, 0.5], np.array([1, 2 ** 64 - 1], np.uint64), "signed"),
    ], ids=["string times", "bool time", "fraction and bool",
            "bool among ints", "fraction", "string lengths", "bool array",
            "float array", "uint64 array"])
    def test_converting_value_refused(self, times, signed, name):
        with pytest.raises(ValueError, match=f"^{name} must hold"):
            Flow(id="f", five_tuple=make_flow().five_tuple, times=times,
                 signed=signed)

    def test_numbers_kept_exactly(self):
        flow = Flow(id="f", five_tuple=make_flow().five_tuple,
                    times=[0, 0.5], signed=np.array([100, -7], np.int32))
        assert flow.times.tolist() == [0.0, 0.5]
        assert flow.signed.dtype == np.int64
        assert flow.signed.tolist() == [100, -7]
        # float64 and int64 arrays, as ingest and synth pass, are kept
        times, signed = np.array([0.0, 0.5]), np.array([100, -7])
        flow = Flow(id="f", five_tuple=make_flow().five_tuple, times=times,
                    signed=signed)
        assert flow.times is times and flow.signed is signed


class TestFlowHoldsTheRules:
    """A Flow is valid by construction, and stays so."""

    # flows that would give stat_features and input_matrix a negative or
    # NaN inter-arrival time
    @pytest.mark.parametrize("times, signed, message", [
        ([0.0, 2.0, 1.0, 3.0], [100, -50, 60, 70], "rel_time decreases"),
        ([0.0, float("nan"), 1.0], [100, 0, 60], "non-finite rel_time"),
        ([0.0, 1.0, 1.0], [100, 0, 60], "zero packet length"),
    ], ids=["decreasing", "nan time", "zero length"])
    def test_refused_at_construction(self, times, signed, message):
        with pytest.raises(FlowFormatError, match=f"^{message}$"):
            Flow("x", make_flow().five_tuple, times=times, signed=signed)

    def test_columns_read_only_not_copied(self):
        times, signed = np.array([0.0, 0.5]), np.array([100, -7])
        flow = Flow("x", make_flow().five_tuple, times=times, signed=signed)
        assert flow.times is times and flow.signed is signed
        with pytest.raises(ValueError, match="read-only"):
            flow.times[1] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            flow.signed[0] = 0
        assert flow.times.tolist() == [0.0, 0.5]
        assert flow.signed.tolist() == [100, -7]

    @pytest.mark.parametrize("name, value", [
        ("times", np.array([1.0, 0.0])),
        ("signed", np.array([100, 0])),
        ("times", np.array([0.0, 0.25])),  # valid, and still refused
    ], ids=["decreasing times", "zero length", "valid times"])
    def test_column_not_rebound(self, name, value):
        # a rebound column would skip the checks, and write_flows would
        # write a record that read_flows refuses
        flow = Flow("x", make_flow().five_tuple, times=[0.0, 0.5],
                    signed=[100, -7])
        with pytest.raises(AttributeError, match=f"cannot set '{name}'"):
            setattr(flow, name, value)
        assert flow.times.tolist() == [0.0, 0.5]
        assert flow.signed.tolist() == [100, -7]
        assert roundtrip([flow]) == [flow]

    @pytest.mark.parametrize("name, value, message", [
        ("id", 7, "id must be a string, got 7"),
        ("label", 5, "label must be a string or null, got 5"),
        ("five_tuple", ("10.0.0.1", "10.0.0.2", 1, 2, "udp"),
         "five_tuple must be a FiveTuple, got ('10.0.0.1'"),
    ])
    def test_rebinding_checked_as_construction(self, name, value, message):
        flow = make_flow(label="a")
        before = (flow.id, flow.five_tuple, flow.label)
        with pytest.raises(FlowFormatError, match="^" + re.escape(message)):
            setattr(flow, name, value)
        with pytest.raises(FlowFormatError, match="^" + re.escape(message)):
            Flow(**{"id": flow.id, "five_tuple": flow.five_tuple,
                    "times": flow.times, "signed": flow.signed,
                    "label": flow.label, name: value})
        assert (flow.id, flow.five_tuple, flow.label) == before

    def test_valid_rebinding_kept(self):
        flow = make_flow(label="a")
        five = FiveTuple("10.9.9.9", "10.0.0.2", 7, 443, "tcp")
        flow.id, flow.label, flow.five_tuple = "renamed", None, five
        assert (flow.id, flow.label, flow.five_tuple) == ("renamed", None,
                                                          five)
        assert roundtrip([flow]) == [flow]

    def test_no_other_attribute_set(self):
        flow = make_flow()
        with pytest.raises(AttributeError, match="cannot set 'cache'"):
            flow.cache = {}
        assert not hasattr(flow, "cache")

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_read_only(self, duplicate):
        # an in-place edit of a copy would write a record that read_flows
        # refuses ("negative rel_time -5.0")
        flow = make_flow(label="a")
        dup = duplicate(flow)
        assert dup == flow and type(dup) is Flow
        with pytest.raises(ValueError, match="read-only"):
            dup.times[1] = -5.0
        with pytest.raises(ValueError, match="read-only"):
            dup.signed[0] = 0
        with pytest.raises(AttributeError, match="cannot set 'times'"):
            dup.times = np.array([0.0, -5.0, 1.0])
        assert roundtrip([dup]) == [flow]
        dup.label = "b"  # rebinding a copy leaves the flow as it was
        assert flow.label == "a"

    def test_copy_of_damaged_flow_refused(self):
        # pickled bytes of a flow whose times decrease: unpickling checks
        # them as construction does
        flow = make_flow()
        data = pickle.dumps(flow)
        good = np.array([0.0, 0.125, 0.25]).tobytes()
        bad = np.array([0.0, 0.25, 0.125]).tobytes()
        assert data.count(good) == 1
        with pytest.raises(FlowFormatError, match="rel_time decreases"):
            pickle.loads(data.replace(good, bad))


def packet_rules(times, lengths):
    """The message of the first packet rule the columns break, in the order
    _check_packets checks them, or None."""
    if len(times) == 0:
        return "flow has no packets"
    if not all(math.isfinite(t) for t in times):
        return "non-finite rel_time"
    if any(t < 0 for t in times):
        return f"negative rel_time {min(times)}"
    if any(b < a for a, b in zip(times, times[1:])):
        return "rel_time decreases"
    for n in lengths:
        if not -2 ** 53 < n < 2 ** 53:
            return ("packet length must be an integer below 2**53 in size, "
                    f"got {n}")
    if 0 in lengths:
        return "zero packet length"
    return None


_TIMES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1e300, -1e-300, -1.0,
                          math.inf, -math.inf, math.nan])
_LENGTHS = st.sampled_from([1, -1, 1500, -1500, 0, 2 ** 53 - 1, -2 ** 53 + 1,
                            2 ** 53, -2 ** 53, 2 ** 63 - 1, -2 ** 63])


class TestPacketCheck:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_TIMES, _LENGTHS), max_size=6))
    def test_accepts_and_refuses_as_the_ordered_rules(self, packets):
        # the one-pass check of valid columns accepts exactly what the
        # ordered rules accept, and an error names the first rule broken
        times = np.array(sorted(t for t, _ in packets)
                         if len(packets) % 2 else [t for t, _ in packets],
                         dtype=np.float64)
        lengths = np.array([n for _, n in packets], dtype=np.int64)
        want = packet_rules(times.tolist(), lengths.tolist())
        try:
            _check_packets(times, lengths)
            got = None
        except FlowFormatError as exc:
            assert exc.line is None
            got = str(exc)
        assert got == want


# number text, as JSON reads it or refuses it
_NUMBERS = ["01", "-01", "00.5", "1.", ".5", "-.5", "+1", "1.e5", "NaN",
            "Infinity", "-Infinity", "1e400", "-0", "1.2.3", "1e5e5",
            "1e5.3", "1e", "1e+", "--1", "1-2", "-", "", "0x10", "1_0",
            "10" + "0" * 400]
_VALID_NUMBERS = ["1e5", "1E+05", "1e-05", "-0.0", "7", "0", "0.0", "1e0"]


def number_id(text):
    return repr(text) if len(text) < 12 else f"{len(text)}-digit"


_COLUMN = json.dumps(b64([0.0, 0.5], "<f8"))
# a record line, and the message it is refused with on line 3, or None if
# it reads
_STRUCTURES = {
    "triple": (record(times=[0.0, 0.5, 1.0]), "3 times but 2 lengths"),
    "singleton": (record(times=[0.0]), "1 times but 2 lengths"),
    "empty pair": (record(times="[]", lengths="[]"),
                   r"times must be a base64 string, got \[\]"),
    "no packets": (record(times=[], lengths=[]), "flow has no packets"),
    "nested pkts key in tuple": (
        record(tuple_=TUPLE[:-1] + ', "times": 5}'), None),
    "nested pkts key last in tuple": (
        '{"v": 2, "id": "b", "label": null, "times": ' + _COLUMN
        + ', "lengths": ' + json.dumps(b64([5, 6], "<i8")) + ', "tuple": '
        + TUPLE[:-1] + ', "lengths": ""}}', None),
    "duplicate pkts, last valid": (
        record(label='null, "lengths": ' + json.dumps(b64([0, 0], "<i8"))),
        None),
    "duplicate pkts, first valid": (
        record(tail=', "lengths": ' + json.dumps(b64([5, 0], "<i8"))),
        "zero packet length"),
    "key after pkts": (record(tail=', "z": 1'), None),
    "list after pkts": (record(tail=', "z": [[1, 2]]'), None),
    "token after pair": (record(times=_COLUMN + "5"), "bad JSON"),
    "token before pair": (record(times="5" + _COLUMN), "bad JSON"),
    "pair without brackets": (record(times=_COLUMN + ", " + _COLUMN),
                              "bad JSON"),
    "unbalanced pair": (record(times=[0.0], lengths=[100, 5, 6]),
                        "1 times but 3 lengths"),
    "unbalanced pair, no zero": (record(times=[1.5, 2.5, 3.0], lengths=[6]),
                                 "3 times but 1 lengths"),
    "bracket inside pair": (record(times=f"[{_COLUMN}]"),
                            "times must be a base64 string"),
    "pairs in pairs": (record(lengths=f"[[{_COLUMN}]]"),
                       "lengths must be a base64 string"),
    "empty first time": (record(times=""), "bad JSON"),
    "nested pair": (record(times=f'{{"times": {_COLUMN}}}'),
                    "times must be a base64 string"),
    "string field": (record(lengths='"100"'), "lengths is not base64"),
    "null field": (record(lengths="null"),
                   "lengths must be a base64 string, got None"),
    "bool field": (record(lengths="true"),
                   "lengths must be a base64 string, got True"),
    "not JSON": (record()[:-1], "bad JSON"),
    "version 2": (record(v='"2"'),
                  "record schema version '2' is not the header's 2"),
    "not an object": ("[[0.0, 100]]", "flow record is not an object"),
    "escaped key": (record(label=r'"x\"lengths\": \"\""'), None),
    "non-ASCII": (record(label='"٥ é\U0001f600"'), None),
    "decreasing": (record(times=[0.5, 0.0]), "rel_time decreases"),
    "zero length": (record(lengths=[100, 0]), "zero packet length"),
    "fraction length": (record(lengths=json.dumps(b64([1.5, 2.0], "<f8"))),
                        "packet length must be an integer below 2\\*\\*53"),
}
# the JSON spacing of a record: (text, the text that replaces it)
_SPACINGS = {
    "tab": ('"times": ', '"times":\t'),
    "double space": ('"times": ', '"times":  '),
    "no space": ('"times": ', '"times":'),
    "space before comma": (', "lengths"', ' , "lengths"'),
    "no space between pairs": (', "lengths"', ',"lengths"'),
    "space inside bracket": ('{"v"', '{ "v"'),
    "form feed, a line break to splitlines": ('"times": ', '"times":\f'),
}


@pytest.fixture(scope="module")
def large_file():
    """Synth flows and their file."""
    flows = generate(3, 40, seed=7)
    buf = io.StringIO()
    write_flows(flows, buf)
    return flows, buf.getvalue()


def recolumn(key, change, stored=None):
    """An edit of a record line: its `key` column replaced by
    change(column), stored as `stored` (by default as the column is)."""
    own = {"times": "<f8", "lengths": "<i8"}[key]

    def edit(line):
        rec = json.loads(line)
        column = np.frombuffer(base64.b64decode(rec[key]), own)
        return json.dumps({**rec, key: b64(change(column), stored or own)})
    return edit


class TestBlockReader:
    """Record text: its JSON spelling and structure, and its line. (Named
    for the block reader these tests were first written for; the name keeps
    the tests' ids.)"""

    @pytest.mark.parametrize("where", ["time", "length"])
    @pytest.mark.parametrize("number", _NUMBERS + _VALID_NUMBERS,
                             ids=number_id)
    def test_number_matches_json(self, number, where):
        """A column spelled as a JSON number, valid or not, is refused on
        its line: JSON refuses the text, or the column is not a string."""
        key = "times" if where == "time" else "lengths"
        refused_on(three_records(record(**{key: number}, fid='"b"')),
                   f"(bad JSON|{key} must be a base64 string)")

    @pytest.mark.parametrize("number", ["1e5", "1E+05", "1e-05", "1e0"])
    def test_valid_exponent_takes_block_parse(self, number):
        """A time written in exponent form reads to its exact value, and a
        rewrite keeps the file byte for byte."""
        text = three_records(record(times=[0.0, float(number)], fid='"b"'))
        flows = read_text(text)
        assert flows[1].times[1] == float(number)
        out = io.StringIO()
        write_flows(flows, out)
        assert out.getvalue() == text

    @pytest.mark.parametrize("number", _NUMBERS + ["-0.0"], ids=number_id)
    def test_other_number_leaves_block_parse(self, number):
        """A lengths column holding number text, in place of base64 of
        int64 bytes, is refused on its line."""
        refused_on(
            three_records(record(lengths=json.dumps(number), fid='"b"')),
            "(lengths is not base64|lengths holds|2 times but 0 lengths)")

    @pytest.mark.parametrize("name", _STRUCTURES)
    def test_structure_matches_json(self, name):
        line, message = _STRUCTURES[name]
        text = three_records(line)
        if message is None:
            assert [f.id for f in read_text(text)] == ["a", json.loads(
                line)["id"], "c"]
        else:
            refused_on(text, message)

    @pytest.mark.parametrize("name", _SPACINGS)
    def test_spacing_matches_json(self, name):
        old, new = _SPACINGS[name]
        assert old in record()
        text = three_records(record().replace(old, new))
        if name.startswith("form feed"):
            refused_on(text, "bad JSON")
        else:
            assert outcome(text) == outcome(three_records(record()))

    def test_crlf_and_blank_lines(self):
        lines = [HEADER, record(fid='"a"'), "", "   ", record(fid='"b"'),
                 "", record(lengths=[100, 0], fid='"c"')]
        good = "\r\n".join(lines[:-1]) + "\r\n"
        assert [f.id for f in read_text(good)] == ["a", "b"]
        bad = outcome("\r\n".join(lines) + "\r\n")
        assert bad == (FlowFormatError, "line 7: zero packet length", 7)

    @pytest.mark.parametrize("edit, message", [
        (recolumn("lengths", lambda c: np.append(c[:-1], 0)),
         "zero packet length"),
        (recolumn("lengths", lambda c: c + 0.5, "<f8"),
         "packet length must be an integer below"),
        (recolumn("times", lambda c: c[::-1]), "rel_time decreases"),
        (lambda line: line.replace('"v": 2', '"v": 02', 1), "bad JSON"),
        (lambda line: re.sub(r'"sport": (\d+)', r'"sport": \1.0', line),
         "sport must be an integer in 0..65535"),
    ], ids=["zero length", "fraction", "decreasing", "leading zero",
            "float port"])
    def test_bad_record_inside_later_block(self, edit, message, large_file):
        lines = large_file[1].splitlines()
        k = len(lines) // 2  # a record in the middle of the file
        lines[k] = edit(lines[k])
        refused_on("\n".join(lines) + "\n", message, k + 1)

    def test_columns_own_their_memory(self):
        for flow in read_text(three_records(record(fid='"b"'))):
            for column in (flow.times, flow.signed):
                assert column.base is None and column.flags.c_contiguous


# the line breaks of str.splitlines other than "\n"
_BREAKS = {"CRLF": "\r\n", "CR": "\r", "CR CR LF": "\r\r\n", "FF": "\f",
           "VT": "\v", "FS": "\x1c", "GS": "\x1d", "RS": "\x1e",
           "NEL": "\x85", "LS": "\u2028", "PS": "\u2029"}


def _split_cases():
    """Flow file texts: id -> (text, the ids of its flows, or the line
    that its error names)."""
    a, b = record(fid='"a"'), record(fid='"b"')
    bad = record(lengths=[100, 0], fid='"c"')
    cases = {}
    for name, brk in _BREAKS.items():
        cases[f"{name} ends lines"] = brk.join([HEADER, a, b]) + brk, "ab"
        cases[f"{name} in header"] = "\n".join(
            [HEADER.replace(" ", brk, 1), a, b]) + "\n", 1
        cases[f"{name} in record"] = "\n".join(
            [HEADER, a.replace('"times": ', '"times":' + brk), b]) + "\n", 2
        cases[f"{name} then LF"] = "\n".join([HEADER, a + brk, b]) + "\n", "ab"
        cases[f"{name} ends file"] = "\n".join([HEADER, a, b]) + brk, "ab"
        cases[f"{name} ends bad record"] = "\n".join([HEADER, a, bad]) + brk, 3
    cases.update({
        "no final newline": ("\n".join([HEADER, a, b]), "ab"),
        "bad record, no final newline": ("\n".join([HEADER, a, bad]), 3),
        "header only, no final newline": (HEADER, ""),
        "blank lines": ("\n".join([HEADER, "", a, "", "", b, ""]) + "\n",
                        "ab"),
        "whitespace-only lines": ("\n".join(
            [HEADER, " ", a, "\t \t", "\f\n\v", b, "  "]), "ab"),
        "bad record after blank lines": ("\n".join(
            [HEADER, "", " ", a, "\r\n", bad]) + "\n", 7),
        "blank first line": ("\n".join(["", HEADER, a]) + "\n", 1),
        "whitespace-only first line": ("\n".join([" \t", HEADER, a]), 1),
        "only a newline": ("\n", 1),
        "only a CR": ("\r", 1),
    })
    return cases


_SPLIT_CASES = _split_cases()


class TestLineSplitting:
    """read_flows reads a line at a time, yet splits lines as
    str.splitlines splits the whole text."""

    @pytest.mark.parametrize("name", _SPLIT_CASES)
    def test_lines_of_splitlines_on_the_whole_text(self, name, tmp_path):
        text, expected = _SPLIT_CASES[name]
        # a reader that runs splitlines() on the whole text: its logical
        # lines, each given as one "\n"-ended line
        whole = outcome("".join(line + "\n" for line in text.splitlines()))
        if isinstance(expected, int):
            assert whole[0] is FlowFormatError and whole[2] == expected
        else:
            assert [flow[0] for flow in whole] == list(expected)
        assert outcome(text) == whole
        path = tmp_path / "c.flows"
        path.write_text(text, encoding="utf-8", newline="")
        assert outcome(path, read_flows) == whole

    @pytest.mark.parametrize("bad_record", [False, True])
    def test_undecodable_byte_met_where_read(self, bad_record, tmp_path):
        """A byte that is not UTF-8 fails the file when the reading reaches
        it, so a bad record far before it is reported in its place."""
        lines = [HEADER] + [record(fid=f'"{i}"') for i in range(200)]
        if bad_record:
            lines[2] = record(lengths=[100, 0], fid='"bad"')
        path = tmp_path / "c.flows"
        path.write_bytes(("\n".join(lines) + "\n").encode() + b"\xff\n")
        with pytest.raises(FlowFormatError) as caught:
            read_flows(path)
        if bad_record:
            assert caught.value.line == 3
            assert "zero packet length" in str(caught.value)
        else:
            assert caught.value.line is None
            assert "not a UTF-8 text file" in str(caught.value)

    def test_peak_memory_near_the_columns(self, tmp_path):
        """The file's text and its list of lines are never held whole: the
        reading peaks near the bytes of the columns it returns."""
        path = tmp_path / "large.flows"
        write_flows(generate(3, 40, seed=7), path)
        tracemalloc.start()
        try:
            flows = read_flows(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = sum(f.times.nbytes + f.signed.nbytes for f in flows)
        assert peak <= 1.5 * columns


# record fields that were once converted in place of rejected: (record
# keyword arguments, message)
_FIELD_FAULTS = [
    (dict(tuple_=TUPLE.replace("1234", "80.7")), "sport must be"),
    (dict(tuple_=TUPLE.replace("1234", '"80"')), "sport must be"),
    (dict(tuple_=TUPLE.replace("1234", "true")), "sport must be"),
    (dict(tuple_=TUPLE.replace("1234", "-5")), "sport must be"),
    (dict(tuple_=TUPLE.replace("443", "70000")), "dport must be"),
    (dict(tuple_=TUPLE.replace("443", "1e400")),
     "dport must be an integer in 0..65535, got inf"),
    (dict(fid="null"), "id must be a string, got None"),
    (dict(fid="7"), "id must be a string, got 7"),
    (dict(fid="[1]"), r"id must be a string, got \[1\]"),
    (dict(tuple_=TUPLE.replace('"10.0.0.1"', "5")), "src must be"),
    (dict(tuple_=TUPLE.replace('"10.0.0.2"', "null")), "dst must be"),
    (dict(label="5"), "label must be a string or null, got 5"),
]


class TestCoercedFields:
    """Record fields that were converted in place of rejected; each field
    rule is in TestV2File.test_field_rule_matches_v1."""

    @pytest.mark.parametrize("port", [0, 65535])
    def test_port_range_ends_accepted(self, port):
        text = three_records(record(tuple_=TUPLE.replace("1234", str(port))))
        assert read_text(text)[1].five_tuple.src_port == port


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


class TestV2File:
    def test_golden_record(self):
        [flow] = read_text(HEADER + "\n" + GOLDEN + "\n")
        assert flow.times.dtype == np.float64 and flow.signed.dtype == np.int64
        assert flow.times.tolist() == [0.0, 0.001, 0.5]
        assert flow.signed.tolist() == [100, -200, 1500]
        out = io.StringIO()
        write_flows([flow], out)
        assert out.getvalue() == HEADER + "\n" + GOLDEN + "\n"

    @pytest.mark.parametrize("fid, label", [
        ('say "hi"', None),
        ("back\\slash", "c\\0"),
        ("tab\there", "nul\x00"),
        ("caf\u00e9", "\u65e5\u672c"),
        ("line\u2028sep", "para\u2029sep"),
        ("emoji \U0001f600", "del\x7f"),
    ], ids=["quote", "backslash", "control", "non-ascii", "u2028", "astral"])
    def test_line_is_json_of_the_record(self, fid, label):
        # the columns are spliced in as text after json.dumps of the rest
        flow = make_flow(n=5, label=label, fid=fid)
        want = json.dumps({
            "v": 2, "id": fid,
            "tuple": {"src": "10.0.0.1", "dst": "10.0.0.2", "sport": 1234,
                      "dport": 443, "proto": "udp"},
            "label": label,
            "times": b64(flow.times, "<f8"),
            "lengths": b64(flow.signed, "<i8")})
        out = io.StringIO()
        write_flows([flow], out)
        assert out.getvalue() == HEADER + "\n" + want + "\n"
        assert read_text(out.getvalue()) == [flow]

    # named for the v1 reader, whose messages these rules kept
    @pytest.mark.parametrize("times, lengths, message", [
        ([0.0, float("nan")], [100, 50], "non-finite rel_time"),
        ([0.0, float("inf")], [100, 50], "non-finite rel_time"),
        ([0.0, -0.125, 0.25], [100, 50, 60], "negative rel_time -0.125"),
        ([0.0, 0.5, 0.25], [100, 50, 50], "rel_time decreases"),
        ([0.0, 0.5], [100, 2 ** 53], "packet length must be an integer "
                                     "below 2**53 in size, got "
                                     "9007199254740992"),
        ([0.0, 0.5], [100, -2 ** 63], "packet length must be an integer "
                                      "below 2**53 in size, got "
                                      "-9223372036854775808"),
        ([0.0, 0.5], [100, 0], "zero packet length"),
        ([], [], "flow has no packets"),
    ], ids=["nan", "inf", "negative", "decreasing", "length 2**53",
            "length -2**63", "zero length", "no packets"])
    def test_packet_rule_matches_v1(self, times, lengths, message):
        got = outcome(three_records(record(times, lengths, fid='"b"')))
        assert got == (FlowFormatError, "line 3: " + message, 3)

    @pytest.mark.parametrize("fields, message", _FIELD_FAULTS)
    def test_field_rule_matches_v1(self, fields, message):
        refused_on(three_records(record(**fields)), message)

    @pytest.mark.parametrize("line, error, message", [
        (record(times='"AAAAAAAAAAA!AAAAAAAAAAAA"'), FlowFormatError,
         "times is not base64"),
        (record(lengths='"ZAAAAAAAAAA"'), FlowFormatError,
         "lengths is not base64: Incorrect padding"),
        (record(times='"AAAAAAAAAAAAAAAAAADgPé=="'), FlowFormatError,
         "times is not base64"),
        (record(times=json.dumps(b64([0] * 7, "u1")), lengths=[5]),
         FlowFormatError, "times holds 7 bytes, not a multiple of 8"),
        (record(lengths=[100]), FlowFormatError, "2 times but 1 lengths"),
        (record(times='""'), FlowFormatError, "0 times but 2 lengths"),
        (record(times='""', lengths='""'), FlowFormatError,
         "flow has no packets"),
        (record(times="5"), FlowFormatError,
         "times must be a base64 string, got 5"),
        (record(lengths="null"), FlowFormatError,
         "lengths must be a base64 string, got None"),
        (record(times="[0.0, 0.5]"), FlowFormatError,
         r"times must be a base64 string, got \[0.0, 0.5\]"),
        (without("lengths"), FlowFormatError, "bad flow record: 'lengths'"),
        (without("times", "lengths", pkts=[[0.0, 100]]),
         FlowFormatError, "bad flow record: 'times'"),
        (record(v=1), FlowVersionError,
         "record schema version 1 is not the header's 2"),
    ], ids=["non-base64 byte", "bad padding", "non-ASCII", "7 bytes",
            "unequal columns", "empty times", "empty columns",
            "number column", "null column", "list column", "no lengths",
            "pkts in v2", "v1 record in v2 file"])
    def test_v2_fault_names_line(self, line, error, message):
        text = three_records(line)
        with pytest.raises(error, match="^line 3: " + message) as caught:
            read_text(text)
        assert type(caught.value) is error and caught.value.line == 3

    @pytest.mark.parametrize("version", ["2.0", "true", '"2"', "null"])
    def test_record_version_is_the_integer_2(self, version):
        """A record's version passes the header's rule: an int equal to 2."""
        text = HEADER + "\n" + record(v=version) + "\n"
        with pytest.raises(FlowVersionError,
                           match=f"^line 2: record schema version "
                                 f"{re.escape(repr(json.loads(version)))} "
                                 "is not the header's 2$") as caught:
            read_text(text)
        assert caught.value.line == 2

    def test_v2_record_in_v1_file(self):
        """A version 1 file is refused at its header, before any record."""
        text = three_records(record()).replace('"v": 2', '"v": 1', 1)
        with pytest.raises(FlowVersionError,
                           match="^line 1: unsupported schema version 1$"
                           ) as caught:
            read_text(text)
        assert caught.value.line == 1

    @pytest.mark.parametrize("version", ["3", "1", "0", "[2]", "2.0", "true",
                                         "null"])
    def test_unknown_header_version(self, version):
        with pytest.raises(FlowVersionError, match="^line 1: ") as caught:
            read_text(HEADER.replace("2", version, 1) + "\n")
        assert caught.value.line == 1

    def test_columns_own_their_memory(self):
        [flow] = read_text(HEADER + "\n" + GOLDEN + "\n")
        for column in (flow.times, flow.signed):
            assert column.base is None and column.flags.c_contiguous
            assert not column.flags.writeable and column.dtype.isnative


def flow_with(**changes):
    """make_flow() with some of its fields, or its tuple's, replaced."""
    flow = make_flow()
    five = dataclasses.replace(flow.five_tuple, **{
        k: changes.pop(k) for k in list(changes)
        if hasattr(flow.five_tuple, k)})
    return Flow(**{"id": flow.id, "five_tuple": five, "times": flow.times,
                   "signed": flow.signed, "label": flow.label, **changes})


class TestWriteRefusesUnreadable:
    """A flow that read_flows would reject cannot be built, so write_flows
    never gets one: Flow and FiveTuple refuse it with the rule's message.
    (Named for the writer's check these tests were first written for; the
    names keep the tests' ids.)"""

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
        (dict(signed=[100, 2 ** 53, 5]), "packet length must be an integer "
                                         "below 2**53 in size, got "
                                         "9007199254740992"),
        (dict(times=[], signed=[]), "flow has no packets"),
    ], ids=["port 70000", "port -1", "bool port", "float port", "int id",
            "None src", "bytes dst", "int label", "decreasing", "nan time",
            "negative time", "zero length", "length 2**53", "no packets"])
    def test_refused_with_flow_named(self, changes, message):
        with pytest.raises(FlowFormatError,
                           match="^" + re.escape(message) + "$") as caught:
            flow_with(**changes)
        assert caught.value.line is None

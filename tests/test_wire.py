import pytest
from hypothesis import given
from hypothesis import strategies as st

from whiteboard import wire
from whiteboard.errors import ParseError, UnknownFormatCode


def roundtrip(records, fmt):
    return wire.parse(wire.serialize(records, fmt), fmt)


def test_node_record_roundtrip_literal():
    text = "(7 0 6 hai 0.9 (3 12))\n"
    [record] = wire.parse(text, "node-v1")
    assert record == wire.NodeRecord(7, 0, 6, "hai", 0.9, (3, 12))
    assert wire.serialize([record], "node-v1") == text
    # the arc-id lists are gone: one id list, the sources
    with pytest.raises(ParseError):
        wire.parse("(7 0 6 hai 0.9 (3) (12 13))\n", "node-v1")


def test_empty_batch_roundtrip():
    assert wire.serialize([], "edge-v1") == ""
    assert wire.parse("", "edge-v1") == []


def test_arity_violation_is_parse_error():
    with pytest.raises(ParseError):
        wire.parse("(1 2)\n", "node-v1")


def test_unknown_head_rejected():
    with pytest.raises(ParseError) as err:
        wire.parse("(bogus 1 2)\n", "edge-v1")
    assert "bogus" in str(err.value)


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        wire.parse("(0 3 h 0.9)\n(0 3 h oops)\n", "edge-v1")
    assert err.value.line == 2
    assert err.value.column > 1


def test_unbalanced_record_rejected():
    with pytest.raises(ParseError):
        wire.parse("(0 3 h 0.9\n", "edge-v1")
    with pytest.raises(ParseError):
        wire.parse("(0 3 h 0.9) junk\n", "edge-v1")


def test_data_record_needs_format_context():
    with pytest.raises(ParseError):
        wire.parse("(0 3 h 0.9)\n")


def test_format_codes_are_enforced_on_serialize():
    edge = wire.EdgeRecord(0, 3, "h", 0.9)
    with pytest.raises(ValueError):
        wire.serialize([edge], "node-v1")
    with pytest.raises(UnknownFormatCode):
        wire.serialize([edge], "bogus-v9")
    with pytest.raises(UnknownFormatCode):
        wire.parse("(1 2 3 -0.5)\n", "arc-v1")


def test_control_records_roundtrip_without_format():
    records = [
        wire.OpenRequest(0.05, "edge-v1", "node-v1"),
        wire.OpenRequest(0.05, "edge-v1", "edge-v1", "utterances/hai.mat"),
        wire.OpenReply(3, "/tmp/a/in", "/tmp/a/out"),
        wire.CloseRequest(3),
        wire.CloseReply(3),
        wire.ErrorRecord("component_blew_up"),
    ]
    assert wire.parse(wire.serialize(records)) == records


def test_error_record_message_is_sanitized():
    [rec] = wire.parse(wire.serialize([wire.ErrorRecord("two words (here)")]))
    assert isinstance(rec, wire.ErrorRecord)
    assert " " not in rec.message and "(" not in rec.message


def test_open_request_validates_format_codes():
    with pytest.raises(UnknownFormatCode):
        wire.parse("(open 0.05 bogus edge-v1 -)\n")


def test_open_request_names_its_input_or_none():
    assert wire.parse("(open 0.05 edge-v1 edge-v1 -)\n") == [
        wire.OpenRequest(0.05, "edge-v1", "edge-v1", None)]
    assert wire.serialize([wire.OpenRequest(0.05, "edge-v1", "edge-v1",
                                            "u/hai.mat")]) == (
        "(open 0.05 edge-v1 edge-v1 u/hai.mat)\n")
    with pytest.raises(ParseError, match="expected 4 arguments"):
        wire.parse("(open 0.05 edge-v1 edge-v1)\n")
    for source in ("two words", "u(1)", "-"):
        with pytest.raises(ValueError):
            wire.serialize([wire.OpenRequest(0.05, "edge-v1", "edge-v1", source)])


def test_arc_and_edge_share_arity_but_not_format():
    text = "(1 2 3 -0.5)\n"
    [as_arc] = wire.parse(text, "node-v1")
    assert as_arc == wire.ArcRecord(1, 2, 3, -0.5)
    [as_edge] = wire.parse("(1 2 h -0.5)\n", "edge-v1")
    assert as_edge == wire.EdgeRecord(1, 2, "h", -0.5)


def test_node_batch_mixes_nodes_and_arcs():
    text = "(7 0 6 hai 0.9 ())\n(9 7 7 0.0)\n"
    records = wire.parse(text, "node-v1")
    assert isinstance(records[0], wire.NodeRecord)
    assert isinstance(records[1], wire.ArcRecord)


labels = st.from_regex(r"[A-Za-z][A-Za-z0-9_.\-]{0,11}", fullmatch=True)
frames = st.integers(min_value=0, max_value=10**6)
ids = st.integers(min_value=0, max_value=10**9)
scores = st.floats(allow_nan=False, allow_infinity=False, width=64)
id_lists = st.lists(ids, max_size=5).map(tuple)

edge_records = st.builds(wire.EdgeRecord, frames, frames, labels, scores)
node_records = st.builds(wire.NodeRecord, ids, frames, frames, labels, scores,
                         id_lists)
arc_records = st.builds(wire.ArcRecord, ids, ids, ids, scores)
inactive_records = st.builds(wire.InactiveEdgeRecord, ids, frames, frames,
                             labels, scores, id_lists)


@given(st.lists(edge_records, max_size=8))
def test_edge_batches_roundtrip(records):
    assert roundtrip(records, "edge-v1") == records


@given(st.lists(st.one_of(node_records, arc_records), max_size=8))
def test_node_batches_roundtrip(records):
    assert roundtrip(records, "node-v1") == records


@given(st.lists(arc_records, max_size=8))
def test_arc_batches_roundtrip(records):
    assert roundtrip(records, "node-v1") == records


@given(st.lists(inactive_records, max_size=8))
def test_inactive_batches_roundtrip(records):
    assert roundtrip(records, "inactive-edge-v1") == records


def test_done_record_roundtrips_in_every_format_context():
    text = "(done 42)\n"
    for fmt in (None, *wire.FORMAT_CODES):
        assert wire.parse(text, fmt) == [wire.DoneRecord(42)]
        assert wire.serialize([wire.DoneRecord(42)], fmt) == text
    edge = wire.EdgeRecord(0, 3, "h", 0.9)
    assert roundtrip([edge, wire.DoneRecord(3)], "edge-v1") == [
        edge, wire.DoneRecord(3)]


def test_done_record_needs_one_integer_frame():
    for text in ("(done)\n", "(done 1 2)\n", "(done x)\n", "(done (1))\n"):
        with pytest.raises(ParseError):
            wire.parse(text, "edge-v1")

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from whiteboard import wire
from whiteboard.errors import ParseError, UnknownFormatCode


def roundtrip(records, fmt):
    return wire.parse(wire.serialize(records, fmt), fmt)


def serialize_record(record) -> str:
    """One record, without the trailing newline."""
    return wire.serialize([record])[:-1]


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
    for fmt in (None, "edge-v1"):  # a non-record is no record, whatever the format
        with pytest.raises(TypeError, match="not a wire record: 'junk'"):
            wire.serialize(["junk"], fmt)
    with pytest.raises(UnknownFormatCode):
        wire.parse("(1 2 3 -0.5)\n", "arc-v1")


def test_control_records_roundtrip_without_format():
    records = [
        wire.OpenRequest("edge-v1", "node-v1", None),
        wire.OpenRequest("edge-v1", "edge-v1", "utterances/hai.mat"),
        wire.CloseReply(),
        wire.ErrorRecord("component_blew_up"),
    ]
    assert wire.parse(wire.serialize(records)) == records


def test_closed_carries_no_field_and_opened_and_close_are_no_records():
    text = "(closed)\n"
    assert wire.parse(text) == [wire.CloseReply()]
    assert wire.serialize(wire.parse(text)) == text
    for line in ("(closed 1)\n", "(opened)\n", "(close 3)\n", "(close)\n"):
        with pytest.raises(ParseError):
            wire.parse(line)


def test_error_record_message_is_sanitized():
    [rec] = wire.parse(wire.serialize([wire.ErrorRecord("two words (here)")]))
    assert isinstance(rec, wire.ErrorRecord)
    assert " " not in rec.message and "(" not in rec.message


def test_open_request_validates_format_codes():
    with pytest.raises(UnknownFormatCode):
        wire.parse("(open bogus edge-v1 -)\n")


def test_open_request_names_its_input_or_none():
    assert wire.parse("(open edge-v1 edge-v1 -)\n") == [
        wire.OpenRequest("edge-v1", "edge-v1", None)]
    assert wire.serialize([wire.OpenRequest("edge-v1", "edge-v1",
                                            "u/hai.mat")]) == (
        "(open edge-v1 edge-v1 u/hai.mat)\n")
    with pytest.raises(ParseError, match="expected 3 arguments"):
        wire.parse("(open edge-v1 edge-v1)\n")
    for source in ("two words", "u(1)", "-"):
        with pytest.raises(ValueError):
            wire.serialize([wire.OpenRequest("edge-v1", "edge-v1", source)])


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


# -- fuzz: one-character mutations of valid lines of every record kind --------

VALID = [
    wire.EdgeRecord(0, 3, "h", 0.9),
    wire.NodeRecord(7, 0, 6, "hai", -0.25, (3, 12)),
    wire.ArcRecord(9, 7, 8, 1e-05),
    wire.InactiveEdgeRecord(4, 3, 9, "NP", 0.5, (1,)),
    wire.OpenRequest("edge-v1", "node-v1", None),
    wire.OpenRequest("edge-v1", "inactive-edge-v1", "u/hai.mat"),
    wire.CloseReply(),
    wire.ErrorRecord("component_blew_up"),
    wire.DoneRecord(42),
]
MUTATIONS = "()0123456789 +-.e\tabxyz"


def mutate(line, rng):
    """Insert, delete or replace one character."""
    at = rng.randrange(len(line))
    return rng.choice([
        line[:at] + rng.choice(MUTATIONS) + line[at:],
        line[:at] + line[at + 1:],
        line[:at] + rng.choice(MUTATIONS) + line[at + 1:],
    ])


def test_mutated_lines_are_rejected_or_round_trip():
    rng = random.Random(13)
    parsed_some = 0
    for _ in range(400):
        for record in VALID:
            line = mutate(serialize_record(record), rng)
            for fmt in (None, *wire.FORMAT_CODES):
                try:
                    records = wire.parse(line, fmt)
                except (ParseError, UnknownFormatCode):
                    continue
                parsed_some += 1
                assert wire.parse(wire.serialize(records, fmt), fmt) == records, line
    assert parsed_some > 1000  # the mutations do not only break lines


def outcome(parse):
    """What a parse gives: its records, or its error's class, message, line
    and column. `repr` keeps apart what `==` would not, such as -0.0 and 0.0."""
    try:
        return repr(parse())
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)
    except UnknownFormatCode as exc:
        return ("UnknownFormatCode", str(exc))


def test_a_line_is_read_as_written_or_refused_at_a_column_of_its_own():
    """`parse` gives exactly the compiled reader's records, or refuses the
    first line that reader does not take, at a column of that line."""
    rng = random.Random(29)
    lines = [serialize_record(record) for record in VALID]
    lines += [serialize_record(wire.NodeRecord(1, 2, 3, "x", -0.0, ())),
              serialize_record(wire.ArcRecord(-1, 2, 3, 1.5e+300)),
              serialize_record(wire.InactiveEdgeRecord(
                  4, 3, 9, "NP", 123456789.0, (1, 22, -333))),
              "(1 2 h 1e999)", "(1 2 h %s)" % ("9" * 5000), "(00 +1 h 0.5)",
              "(1  2 h 0.5)", " (1 2 h 0.5)", "(1 2 h 0.5)\r", "(done 1)\t",
              "(open bogus-v9 edge-v1 -)", "(7 0 6 x 0.9 (3  12))", "()", "("]
    for _ in range(600):
        line = rng.choice(lines[:len(VALID)])
        for _ in range(rng.randint(0, 3)):
            line = mutate(line, rng)
        lines.append(line)
        lines.append(line + "\n" + rng.choice(lines[:len(VALID)]))
    read_all = refused = 0
    for text in lines:
        text_lines = text.split("\n")
        for fmt in (None, *wire.FORMAT_CODES):
            read = wire._READERS[fmt]
            got = outcome(lambda: wire.parse(text, fmt))
            if got[0] == "ParseError":
                _, _, lineno, column = got
                line = text_lines[lineno - 1]
                assert read(line) is None, (text, fmt)
                assert all(read(before) for before in text_lines[:lineno - 1]
                           if before.strip()), (text, fmt)
                assert 1 <= column <= len(line) + 1, (text, fmt, got)
                refused += 1
            elif got[0] != "UnknownFormatCode":
                assert got == outcome(lambda: [
                    read(line) for line in text_lines if line.strip()]), (text, fmt)
                read_all += 1
            if len(text_lines) == 1 and text.strip():
                assert got == outcome(lambda: [wire.parse_line(text, 1, fmt)])
    assert read_all > 1000 and refused > 1000


# per field kind, a text the kind's pattern does not take
SPOILED = {"int": "x", "float": "x", "ids": "x",
           "token": "", "format": "", "input": "", "message": ""}
SAMPLES = {type(record): record for record in VALID}
FIELDS = [(cls, i, field) for cls, row in wire._GRAMMAR.items()
          for i, field in enumerate(row.split()[1:])]


@pytest.mark.parametrize("cls, i, field", FIELDS,
                         ids=[f"{cls.__name__}-{field}" for cls, _, field in FIELDS])
def test_a_spoiled_field_is_named_at_its_start_column(cls, i, field):
    head, *spec = wire._GRAMMAR[cls].split()
    record = SAMPLES[cls]
    texts = [str(wire._KINDS[kind.split(":")[1]][0](getattr(record, attr.name)))
             for kind, attr in zip(spec, dataclasses.fields(cls))]
    lead = [head] if head not in wire.FORMAT_CODES else []
    assert "(" + " ".join(lead + texts) + ")" == serialize_record(record)
    name, kind = field.split(":")
    column = len("(" + " ".join(lead + texts[:i] + [""])) + 1
    texts[i] = SPOILED[kind]
    line = "(" + " ".join(lead + texts) + ")"
    for fmt in [head] if not lead else (None, *wire.FORMAT_CODES):
        with pytest.raises(ParseError) as err:
            wire.parse(line, fmt)
        assert (err.value.line, err.value.column) == (1, column), line
        assert str(err.value).startswith(f"line 1, column {column}: {name}: "), line

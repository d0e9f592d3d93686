"""Line-oriented parenthesized wire records exchanged through mailboxes.

Grammar (bit-exact): one record per line, LF endings; a record is a
parenthesized, space-separated field list; nested parentheses hold integer
lists; ids and frames are decimal integers, scores and weights decimal
floats, labels unquoted tokens without whitespace or parentheses.

Data records carry no symbolic head; their shape is fixed by the format
code of the connection plus arity:

    edge-v1           (begin end phoneme score)
    node-v1           (node-id begin end label score (source-ids))
                      and (arc-id origin extremity weight)
    inactive-edge-v1  (edge-id begin end category score (child-ids))

Arc records travel only under node-v1: their endpoints are node ids that
the node records of the same connection introduce. A node record's
source ids name the input-layer nodes it was built from, in the ids the
coordinator sent them under; the coordinator's own slices send `()`.

Control records start with a keyword token and are legal in any context:
(open import export input conn), (opened conn-id), (close conn-id),
(closed conn-id), (error message), and (done frame), which a manager
appends to its last deposit for each input batch: the batch is finished,
and frame is the highest end frame the connection has seen so far in its
inputs and outputs. An open request fixes the new connection's formats,
names its input, a token the manager hands to the component it builds for
that connection (the demo's source reads its utterance's matrix file
from it), or `-` for a component that takes none, and names the
`conn-*` directory beside the request box that holds the connection's
boxes. The manager answers it with `opened` or an error on that
directory's out box; `close` and `closed` travel on the connection's own
in and out boxes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from .errors import ParseError, UnknownFormatCode

FORMAT_CODES = ("edge-v1", "node-v1", "inactive-edge-v1")

_TOKEN_RE = re.compile(r"[^\s()]+")

NO_INPUT = "-"  # an open request's input field when the component takes none


def check_format_code(code: str) -> str:
    if code not in FORMAT_CODES:
        raise UnknownFormatCode(f"unknown format code: {code}")
    return code


@dataclass(frozen=True)
class EdgeRecord:
    begin: int
    end: int
    phoneme: str
    score: float


@dataclass(frozen=True)
class NodeRecord:
    node_id: int
    begin: int
    end: int
    label: str
    score: float
    sources: tuple[int, ...] = ()


@dataclass(frozen=True)
class ArcRecord:
    arc_id: int
    origin: int
    extremity: int
    weight: float


@dataclass(frozen=True)
class InactiveEdgeRecord:
    edge_id: int
    begin: int
    end: int
    category: str
    score: float
    children: tuple[int, ...] = ()


@dataclass(frozen=True)
class OpenRequest:
    import_format: str
    export_format: str
    input: str | None  # `-` on the wire
    conn: str  # the bare name of the connection's directory


@dataclass(frozen=True)
class OpenReply:
    conn_id: int


@dataclass(frozen=True)
class CloseRequest:
    conn_id: int


@dataclass(frozen=True)
class CloseReply:
    conn_id: int


@dataclass(frozen=True)
class ErrorRecord:
    message: str


@dataclass(frozen=True)
class DoneRecord:
    frame: int


DataRecord = Union[EdgeRecord, NodeRecord, ArcRecord, InactiveEdgeRecord]
WireRecord = Union[
    DataRecord, OpenRequest, OpenReply, CloseRequest, CloseReply,
    ErrorRecord, DoneRecord,
]

# Which data record classes a format code admits.
_FORMAT_RECORDS: dict[str, tuple[type, ...]] = {
    "edge-v1": (EdgeRecord,),
    "node-v1": (NodeRecord, ArcRecord),
    "inactive-edge-v1": (InactiveEdgeRecord,),
}


def token_ok(text: str) -> bool:
    return bool(text) and _TOKEN_RE.fullmatch(text) is not None


def sanitize_token(text: str, limit: int = 200) -> str:
    """Coerce arbitrary text into a legal single token (for error records)."""
    out = re.sub(r"[\s()]+", "_", text.strip())[:limit]
    return out or "_"


def _fmt_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value not representable on the wire: {value}")
    return repr(value)


def _fmt_token(value: str) -> str:
    if not token_ok(value):
        raise ValueError(f"not a legal wire token: {value!r}")
    return value


def check_input(value: str) -> str:
    """An open request's input: a legal token other than `-`."""
    if value == NO_INPUT:
        raise ValueError(f"{NO_INPUT!r} is reserved for a connection without input")
    return _fmt_token(value)


def _fmt_input(value: str | None) -> str:
    return NO_INPUT if value is None else check_input(value)


def _fmt_ints(values) -> str:
    return "(" + " ".join(str(int(v)) for v in values) + ")"


def serialize_record(record: WireRecord) -> str:
    """One record, without the trailing newline."""
    if isinstance(record, EdgeRecord):
        return (f"({int(record.begin)} {int(record.end)} "
                f"{_fmt_token(record.phoneme)} {_fmt_float(record.score)})")
    if isinstance(record, NodeRecord):
        return (f"({int(record.node_id)} {int(record.begin)} {int(record.end)} "
                f"{_fmt_token(record.label)} {_fmt_float(record.score)} "
                f"{_fmt_ints(record.sources)})")
    if isinstance(record, ArcRecord):
        return (f"({int(record.arc_id)} {int(record.origin)} "
                f"{int(record.extremity)} {_fmt_float(record.weight)})")
    if isinstance(record, InactiveEdgeRecord):
        return (f"({int(record.edge_id)} {int(record.begin)} {int(record.end)} "
                f"{_fmt_token(record.category)} {_fmt_float(record.score)} "
                f"{_fmt_ints(record.children)})")
    if isinstance(record, OpenRequest):
        return (f"(open {_fmt_token(record.import_format)} "
                f"{_fmt_token(record.export_format)} "
                f"{_fmt_input(record.input)} {_fmt_token(record.conn)})")
    if isinstance(record, OpenReply):
        return f"(opened {int(record.conn_id)})"
    if isinstance(record, CloseRequest):
        return f"(close {int(record.conn_id)})"
    if isinstance(record, CloseReply):
        return f"(closed {int(record.conn_id)})"
    if isinstance(record, ErrorRecord):
        return f"(error {sanitize_token(record.message)})"
    if isinstance(record, DoneRecord):
        return f"(done {int(record.frame)})"
    raise TypeError(f"not a wire record: {record!r}")


def serialize(records, format_code: str | None = None) -> str:
    """Serialize a batch, one record per line. Empty batch gives empty text.

    When a format code is given, data records are checked against it so a
    connection can never emit records its peer did not agree to.
    """
    if format_code is not None:
        check_format_code(format_code)
    lines = []
    for record in records:
        if format_code is not None and not isinstance(
            record, (OpenRequest, OpenReply, CloseRequest, CloseReply, ErrorRecord,
                     DoneRecord)
        ):
            if not isinstance(record, _FORMAT_RECORDS[format_code]):
                raise ValueError(
                    f"{type(record).__name__} not legal under format {format_code}"
                )
        lines.append(serialize_record(record))
    return "".join(line + "\n" for line in lines)


# -- parsing ----------------------------------------------------------------

def _tokenize_line(line: str, lineno: int) -> list[tuple[str, int]]:
    """Yield (token, column) pairs; parens are single-char tokens."""
    out = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            out.append((ch, i + 1))
            i += 1
            continue
        m = _TOKEN_RE.match(line, i)
        assert m is not None
        out.append((m.group(0), i + 1))
        i = m.end()
    return out


def _parse_fields(tokens: list[tuple[str, int]], lineno: int):
    """Parse one record line into a nested field structure."""
    tok, col = tokens[0]
    if tok != "(":
        raise ParseError("record must start with '('", lineno, col)
    pos = 1
    root: list = []
    stack = [root]
    while pos < len(tokens):
        tok, col = tokens[pos]
        if tok == "(":
            inner: list = []
            stack[-1].append((inner, col))
            stack.append(inner)
        elif tok == ")":
            stack.pop()
            if not stack:
                if pos != len(tokens) - 1:
                    raise ParseError("trailing text after record", lineno,
                                     tokens[pos + 1][1])
                return root
        else:
            stack[-1].append((tok, col))
        pos += 1
    raise ParseError("record not closed", lineno, tokens[-1][1])


def _want_int(field, lineno: int, what: str) -> int:
    if isinstance(field[0], list):
        raise ParseError(f"{what}: expected integer, got list", lineno, field[1])
    tok, col = field
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what}: not an integer: {tok}", lineno, col) from None


def _want_float(field, lineno: int, what: str) -> float:
    if isinstance(field[0], list):
        raise ParseError(f"{what}: expected number, got list", lineno, field[1])
    tok, col = field
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(f"{what}: not a number: {tok}", lineno, col) from None
    if not math.isfinite(value):
        raise ParseError(f"{what}: non-finite number", lineno, col)
    return value


def _want_token(field, lineno: int, what: str) -> str:
    if isinstance(field[0], list):
        raise ParseError(f"{what}: expected token, got list", lineno, field[1])
    return field[0]


def _want_int_list(field, lineno: int, what: str) -> tuple[int, ...]:
    if not isinstance(field[0], list):
        raise ParseError(f"{what}: expected id list", lineno, field[1])
    return tuple(_want_int(f, lineno, what) for f in field[0])


def _parse_data(fields, lineno: int, col: int, format_code: str | None) -> DataRecord:
    if format_code is None:
        raise ParseError("data record outside any format context", lineno, col)
    check_format_code(format_code)
    arity = len(fields)
    if format_code == "edge-v1" and arity == 4:
        return EdgeRecord(
            _want_int(fields[0], lineno, "begin"),
            _want_int(fields[1], lineno, "end"),
            _want_token(fields[2], lineno, "phoneme"),
            _want_float(fields[3], lineno, "score"),
        )
    if format_code == "node-v1" and arity == 6:
        return NodeRecord(
            _want_int(fields[0], lineno, "node-id"),
            _want_int(fields[1], lineno, "begin"),
            _want_int(fields[2], lineno, "end"),
            _want_token(fields[3], lineno, "label"),
            _want_float(fields[4], lineno, "score"),
            _want_int_list(fields[5], lineno, "source-ids"),
        )
    if format_code == "node-v1" and arity == 4:
        return ArcRecord(
            _want_int(fields[0], lineno, "arc-id"),
            _want_int(fields[1], lineno, "origin"),
            _want_int(fields[2], lineno, "extremity"),
            _want_float(fields[3], lineno, "weight"),
        )
    if format_code == "inactive-edge-v1" and arity == 6:
        return InactiveEdgeRecord(
            _want_int(fields[0], lineno, "edge-id"),
            _want_int(fields[1], lineno, "begin"),
            _want_int(fields[2], lineno, "end"),
            _want_token(fields[3], lineno, "category"),
            _want_float(fields[4], lineno, "score"),
            _want_int_list(fields[5], lineno, "child-ids"),
        )
    raise ParseError(
        f"record of arity {arity} not legal under format {format_code}",
        lineno, col,
    )


def parse_line(line: str, lineno: int, format_code: str | None) -> WireRecord:
    tokens = _tokenize_line(line, lineno)
    fields = _parse_fields(tokens, lineno)
    if not fields:
        raise ParseError("empty record", lineno, 1)
    head = fields[0]
    if not isinstance(head[0], list):
        tok, col = head
        if not re.fullmatch(r"[-+]?\d+", tok):
            # symbolic head: must be a known control keyword
            if tok == "open":
                if len(fields) != 5:
                    raise ParseError("open: expected 4 arguments", lineno, col)
                code_in = _want_token(fields[1], lineno, "import format")
                code_out = _want_token(fields[2], lineno, "export format")
                check_format_code(code_in)
                check_format_code(code_out)
                source = _want_token(fields[3], lineno, "input")
                return OpenRequest(code_in, code_out,
                                   None if source == NO_INPUT else source,
                                   _want_token(fields[4], lineno, "conn"))
            if tok == "opened":
                if len(fields) != 2:
                    raise ParseError("opened: expected 1 argument", lineno, col)
                return OpenReply(_want_int(fields[1], lineno, "conn-id"))
            if tok == "close":
                if len(fields) != 2:
                    raise ParseError("close: expected 1 argument", lineno, col)
                return CloseRequest(_want_int(fields[1], lineno, "conn-id"))
            if tok == "closed":
                if len(fields) != 2:
                    raise ParseError("closed: expected 1 argument", lineno, col)
                return CloseReply(_want_int(fields[1], lineno, "conn-id"))
            if tok == "error":
                if len(fields) != 2:
                    raise ParseError("error: expected 1 argument", lineno, col)
                return ErrorRecord(_want_token(fields[1], lineno, "message"))
            if tok == "done":
                if len(fields) != 2:
                    raise ParseError("done: expected 1 argument", lineno, col)
                return DoneRecord(_want_int(fields[1], lineno, "frame"))
            raise ParseError(f"unknown record head: {tok}", lineno, col)
    return _parse_data(fields, lineno, fields[0][1], format_code)


def parse(text: str, format_code: str | None = None) -> list[WireRecord]:
    """Parse a batch of wire text. Inverse of :func:`serialize`."""
    if format_code is not None:
        check_format_code(format_code)
    records = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        records.append(parse_line(line, lineno, format_code))
    return records

"""Line-oriented parenthesized wire records exchanged over sockets.

Grammar (bit-exact): one record per line, LF endings; a record is a
parenthesized list of fields, one space between two and none next to a
parenthesis; nested parentheses hold integer lists; ids and frames are
decimal integers, scores and weights decimal floats, labels unquoted
tokens without whitespace or parentheses.

The table `_GRAMMAR` is the grammar. Each row compiles, once at import,
the writer of its record kind and its reader: a regex for the line as the
writer gives it, whose groups go through the fields' converters. The wire
takes only what the writer writes: a line no row's regex takes, spaced
otherwise or malformed, is refused, and one error pass names its line,
column and field.

    edge-v1           (begin end phoneme score)
    node-v1           (node-id begin end label score (source-ids))
    node-v1           (arc-id origin extremity weight)
    inactive-edge-v1  (edge-id begin end category score (child-ids))
    open              (open import-format export-format input)
    closed            (closed)
    error             (error message)
    done              (done frame)

A data record's head, the format code of its connection, is not written:
that code and the arity pick the row. A control record starts with its
keyword and is legal in any context; `whiteboard.manager` says what each means.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import NoReturn, Union

from .errors import ParseError, UnknownFormatCode

FORMAT_CODES = ("edge-v1", "node-v1", "inactive-edge-v1")

_TOKEN_RE = re.compile(r"[^\s()]+")
_LIST_RE = re.compile(r"\([^()]*\)")  # an id list, for the error pass

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


@dataclass(frozen=True)
class CloseReply:
    pass


@dataclass(frozen=True)
class ErrorRecord:
    message: str


@dataclass(frozen=True)
class DoneRecord:
    frame: int


DataRecord = Union[EdgeRecord, NodeRecord, ArcRecord, InactiveEdgeRecord]
WireRecord = Union[DataRecord, OpenRequest, CloseReply, ErrorRecord, DoneRecord]


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


def _finite(text: str) -> float:
    value = float(text)
    if math.isinf(value):  # digits past the largest float
        raise ValueError(text)
    return value


def _input(text: str) -> str | None:
    return None if text == NO_INPUT else text


_TOKEN = r"([^\s()]+)"

# kind: (writer, pattern, converter, noun). A writer raises ValueError for
# what the wire cannot carry. A row's template formats ints. The pattern
# takes the field exactly as the writer gives it and nothing else, in one
# group, which the converter maps to its value (None: the text is the value).
# A line spaced otherwise is refused, and so is a line whose converter raises
# ValueError: an int past the digit limit, a float past the range. The noun
# names the kind in a ParseError.
_KINDS = {
    "int": (int, r"(-?[0-9]+)", int, "an integer"),
    "float": (_fmt_float, r"(-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?)", _finite,
              "a number"),
    "token": (_fmt_token, _TOKEN, None, "a token"),
    "ids": (lambda ids: "(" + " ".join([str(int(i)) for i in ids]) + ")",
            r"\(((?:-?[0-9]+(?: -?[0-9]+)*)?)\)",
            lambda text: tuple([int(i) for i in text.split()]), "an id list"),
    # a token naming no format code raises UnknownFormatCode
    "format": (_fmt_token, _TOKEN, check_format_code, "a format code"),
    "input": (lambda value: NO_INPUT if value is None else check_input(value),
              _TOKEN, _input, "a token"),
    "message": (sanitize_token, _TOKEN, None, "a token"),
}

# The grammar: per record class, its head (a control keyword, or the format
# code a data record travels under), then its fields in wire order as
# `name:kind`, mapped onto the class's attributes in order.
_GRAMMAR = {
    EdgeRecord: "edge-v1  begin:int end:int phoneme:token score:float",
    NodeRecord: "node-v1  node-id:int begin:int end:int label:token "
                "score:float source-ids:ids",
    ArcRecord: "node-v1  arc-id:int origin:int extremity:int weight:float",
    InactiveEdgeRecord: "inactive-edge-v1  edge-id:int begin:int end:int "
                        "category:token score:float child-ids:ids",
    OpenRequest: "open  import-format:format export-format:format input:input",
    CloseReply: "closed",
    ErrorRecord: "error  message:message",
    DoneRecord: "done  frame:int",
}


class _Row:
    """A row of `_GRAMMAR`: its record's writer and compiled reader, and its
    fields for the error pass."""

    def __init__(self, cls: type, row: str):
        self.cls = cls
        self.head, *spec = row.split()
        names = [field.split(":")[0] for field in spec]
        kinds = [_KINDS[field.split(":")[1]] for field in spec]
        self.control = self.head not in FORMAT_CODES
        self.formats = FORMAT_CODES if self.control else (self.head,)
        template = "(%s)" % " ".join([self.head] * self.control + ["%s"] * len(spec))
        # the row's writer, compiled once: looping over the fields at every
        # call made `serialize` a quarter slower than a hand-written format
        writers = {f"w{i}": kind[0] for i, kind in enumerate(kinds)}
        values = "".join(f"w{i}(r.{f.name}), " for i, f in enumerate(fields(cls)))
        self.write = eval(f"lambda r: {template!r} % ({values})", writers)
        self.pattern = r"\(%s\)" % " ".join(
            [re.escape(self.head)] * self.control + [kind[1] for kind in kinds])
        self.converters = [kind[2] for kind in kinds]
        # per field, for the error pass: its name, its pattern, which takes
        # the field only if no token character follows, its converter and
        # its kind's noun
        self.fields = [(name, re.compile(kind[1] + r"(?![^\s()])"), *kind[2:])
                       for name, kind in zip(names, kinds)]

    def reader(self, first: int):
        """The function taking a match of the row's pattern, whose fields
        are its groups from `first` on, to the record."""
        scope = {"cls": self.cls, **{f"c{i}": convert for i, convert
                                      in enumerate(self.converters)}}
        values = ", ".join(f"m[{first + i}]" if convert is None
                           else f"c{i}(m[{first + i}])"
                           for i, convert in enumerate(self.converters))
        return eval(f"lambda m: cls({values})", scope)

    def fault(self, line: str, pos: int) -> tuple[int, str]:
        """The first fault of `line` read as this row, whose fields start at
        `pos`: its column and message. The fields are matched one by one,
        spaced as the writer spaces them, and each goes through its
        converter, which raises UnknownFormatCode for a format field."""
        for i, (name, pattern, convert, noun) in enumerate(self.fields):
            if i or self.control:
                if line.startswith(")", pos):
                    return pos + 1, self._arity_fault(i)
                if not line.startswith(" ", pos):
                    return pos + 1, f"expected ' ' before {name}, got {_what(line, pos)}"
                pos += 1
            match = pattern.match(line, pos)
            if match is None:
                return pos + 1, f"{name}: not {noun}: {_what(line, pos)}"
            try:
                convert and convert(match[1])
            except ValueError:
                return pos + 1, f"{name}: out of range"
            pos = match.end()
        if line.startswith(" ", pos):
            return pos + 1, self._arity_fault(f"above {len(self.fields)}")
        if not line.startswith(")", pos):
            return pos + 1, f"expected ')', got {_what(line, pos)}"
        return pos + 2, "trailing text after record"

    def _arity_fault(self, arity) -> str:
        if self.control:
            n = len(self.fields)
            return f"{self.head}: expected {n} argument" + "s" * (n != 1)
        return f"record of arity {arity} not legal under format {self.head}"


def _what(line: str, pos: int) -> str:
    """What stands at `pos` in a line, for an error message."""
    token = _TOKEN_RE.match(line, pos) or _LIST_RE.match(line, pos)
    if token:
        return token[0]
    return repr(line[pos]) if pos < len(line) else "end of line"


def _compile_reader(rows):
    """The compiled reader of one format context: one regex in which each
    row's pattern is an alternative in a group of its own, and, keyed by
    that group's index, the row's reader. It returns the record of a line
    that a row's pattern takes, else None."""
    by_group, group = {}, 1
    for row in rows:
        by_group[group] = row.reader(group + 1)
        group += 1 + len(row.converters)
    match = re.compile("|".join(f"({row.pattern})" for row in rows)).fullmatch

    def read(line: str):
        found = match(line)
        if found is None:
            return None
        try:
            return by_group[found.lastindex](found)
        except ValueError:  # an int past the digit limit, a float past the range
            return None
    return read


_ROWS = {cls: _Row(cls, row) for cls, row in _GRAMMAR.items()}
_BY_KEYWORD = {row.head: row for row in _ROWS.values() if row.control}
# per format context (None for none): its data rows
_DATA_ROWS = {code: [row for row in _ROWS.values() if row.head == code]
              for code in (None, *FORMAT_CODES)}
# per format context: the reader of its data rows and every control row
_READERS = {code: _compile_reader(rows + list(_BY_KEYWORD.values()))
            for code, rows in _DATA_ROWS.items()}


def serialize(records, format_code: str | None = None) -> str:
    """Serialize a batch, one record per line. Empty batch gives empty text.

    When a format code is given, data records are checked against it so a
    connection can never emit records its peer did not agree to.
    """
    if format_code is not None:
        check_format_code(format_code)
    lines = []
    for record in records:
        row = _ROWS.get(type(record))
        if row is None:
            raise TypeError(f"not a wire record: {record!r}")
        if format_code is not None and format_code not in row.formats:
            raise ValueError(f"{type(record).__name__} not legal under format {format_code}")
        lines.append(row.write(record))
    return "".join([line + "\n" for line in lines])


def _fault(line: str, lineno: int, format_code: str | None) -> NoReturn:
    """Raise the error of a line the format context's compiled reader
    refused. A control keyword picks the row; else the context's data row
    of the line's arity, or the one whose fields match furthest."""
    if not line.startswith("("):
        raise ParseError("record must start with '('", lineno, 1)
    head = _TOKEN_RE.match(line, 1)
    row = _BY_KEYWORD.get(head and head[0])
    rows = _DATA_ROWS[format_code]
    if row:
        pos = head.end()
    elif not rows:
        raise ParseError("unknown record head outside a format context: "
                         + _what(line, 1), lineno, 2)
    else:
        arity = _LIST_RE.sub("", line[1:]).count(" ") + 1  # an id list's spaces aside
        row, pos = max(rows, key=lambda row: (len(row.fields) == arity,
                                              row.fault(line, 1)[0])), 1
    column, message = row.fault(line, pos)
    raise ParseError(message, lineno, column)


def parse_line(line: str, lineno: int, format_code: str | None) -> WireRecord:
    """One record line, read as `parse` reads each line of its text."""
    if format_code is not None:
        check_format_code(format_code)
    return _READERS[format_code](line) or _fault(line, lineno, format_code)


def parse(text: str, format_code: str | None = None) -> list[WireRecord]:
    """Parse a batch of wire text. Inverse of :func:`serialize`: a line is
    read only as `serialize` writes it, else its error is raised."""
    if format_code is not None:
        check_format_code(format_code)
    read = _READERS[format_code]
    return [read(line) or _fault(line, lineno, format_code)
            for lineno, line in enumerate(text.split("\n"), start=1)
            if line.strip()]

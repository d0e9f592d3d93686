"""Line-oriented parenthesized wire records exchanged over sockets.

Grammar (bit-exact): one record per line, LF endings; a record is a
parenthesized, space-separated field list; nested parentheses hold integer
lists; ids and frames are decimal integers, scores and weights decimal
floats, labels unquoted tokens without whitespace or parentheses.

The table `_GRAMMAR` is the grammar. Each row compiles, once at import,
the writer of its record kind and its reader: a regex for the line as the
writer gives it, whose groups go through the fields' converters. A line
that no row's regex takes, spaced otherwise or malformed, goes to a
scanner that reads any row's fields in one loop, or names the fault with
its line and column. The two readers give the same record for every line
that both take.

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
from itertools import islice
from typing import Union

from .errors import ParseError, UnknownFormatCode

FORMAT_CODES = ("edge-v1", "node-v1", "inactive-edge-v1")

_TOKEN_RE = re.compile(r"[^\s()]+")
_LEXEME_RE = re.compile(r"[()]|[^\s()]+")
_INT_RE = re.compile(r"[-+]?\d+")  # a data record's first field

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


def _reader(convert, noun: str):
    """The reader of a one-token field, which `convert` maps to its value.
    A plain function, not a partial: the interpreter inlines its calls."""
    article = "an" if noun == "integer" else "a"

    def read(field, lineno: int, name: str):
        text, col = field
        if text.__class__ is list:
            raise ParseError(f"{name}: expected {noun}, got list", lineno, col)
        try:
            value = convert(text)
        except ValueError:
            raise ParseError(f"{name}: not {article} {noun}: {text}", lineno, col) from None
        if value.__class__ is float and not math.isfinite(value):
            raise ParseError(f"{name}: non-finite number", lineno, col)
        return value
    return read


def _read_ids(field, lineno: int, name: str) -> tuple[int, ...]:
    items, col = field
    if items.__class__ is not list:
        raise ParseError(f"{name}: expected id list", lineno, col)
    return tuple([_read_int(item, lineno, name) for item in items])


def _finite(text: str) -> float:
    value = float(text)
    if math.isinf(value):  # digits past the largest float
        raise ValueError(text)
    return value


def _input(text: str) -> str | None:
    return None if text == NO_INPUT else text


_read_int = _reader(int, "integer")
_read_token = _reader(str, "token")

_TOKEN = r"([^\s()]+)"

# kind: (writer, scanner's reader, pattern, converter). A writer raises
# ValueError for what the wire cannot carry, a reader a ParseError naming
# the field. A row's template formats ints. The pattern takes the field as
# the writer gives it, in one group, which the converter maps to its value
# (None: the text is the value); the ValueError of a converter leaves the
# line to the scanner.
_KINDS = {
    "int": (int, _read_int, r"(-?[0-9]+)", int),
    "float": (_fmt_float, _reader(float, "number"),
              r"(-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?)", _finite),
    "token": (_fmt_token, _read_token, _TOKEN, None),
    "ids": (lambda ids: "(" + " ".join([str(int(i)) for i in ids]) + ")",
            _read_ids, r"\(((?:-?[0-9]+(?: -?[0-9]+)*)?)\)",
            lambda text: tuple([int(i) for i in text.split()])),
    # the scanner checks a format field once the row has read it
    "format": (_fmt_token, _read_token,
               "(%s)" % "|".join(map(re.escape, FORMAT_CODES)), None),
    "input": (lambda value: NO_INPUT if value is None else check_input(value),
              _reader(_input, "token"), _TOKEN, _input),
    "message": (sanitize_token, _read_token, _TOKEN, None),
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
    fields' readers for the scanner."""

    def __init__(self, cls: type, row: str):
        self.cls = cls
        self.head, *spec = row.split()
        names = [field.split(":")[0] for field in spec]
        kind_names = [field.split(":")[1] for field in spec]
        kinds = [_KINDS[kind] for kind in kind_names]
        self.control = self.head not in FORMAT_CODES
        self.formats = FORMAT_CODES if self.control else (self.head,)
        template = "(%s)" % " ".join([self.head] * self.control + ["%s"] * len(spec))
        # the row's writer, compiled once: looping over the fields at every
        # call made `serialize` a quarter slower than a hand-written format
        writers = {f"w{i}": kind[0] for i, kind in enumerate(kinds)}
        values = "".join(f"w{i}(r.{f.name}), " for i, f in enumerate(fields(cls)))
        self.write = eval(f"lambda r: {template!r} % ({values})", writers)
        self.pattern = r"\(%s\)" % " ".join(
            [re.escape(self.head)] * self.control + [kind[2] for kind in kinds])
        self.converters = [kind[3] for kind in kinds]
        self.readers = [(kind[1], name) for kind, name in zip(kinds, names)]
        self.codes = kind_names.count("format")

    def reader(self, first: int):
        """The function taking a match of the row's pattern, whose fields
        are its groups from `first` on, to the record."""
        scope = {"cls": self.cls, **{f"c{i}": convert for i, convert
                                      in enumerate(self.converters)}}
        values = ", ".join(f"m[{first + i}]" if convert is None
                           else f"c{i}(m[{first + i}])"
                           for i, convert in enumerate(self.converters))
        return eval(f"lambda m: cls({values})", scope)


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
_BY_FORMAT = {(r.head, len(r.readers)): r for r in _ROWS.values() if not r.control}
# per format context (None for none): its data rows, then every control row
_READERS = {code: _compile_reader(
    [row for row in _ROWS.values() if row.head == code]
    + list(_BY_KEYWORD.values())) for code in (None, *FORMAT_CODES)}


def serialize_record(record: WireRecord) -> str:
    """One record, without the trailing newline."""
    return serialize([record])[:-1]


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
        if format_code is not None and format_code not in getattr(row, "formats", ()):
            raise ValueError(f"{type(record).__name__} not legal under format {format_code}")
        if row is None:
            raise TypeError(f"not a wire record: {record!r}")
        lines.append(row.write(record))
    return "".join([line + "\n" for line in lines])


def _scan(line: str, lineno: int) -> list | None:
    """The fields of one record line, None for a blank one: (token, column)
    pairs, and (fields, column) pairs for parenthesized lists."""
    record = current = None
    outer: list[list] = []  # the lists enclosing `current`
    for match in _LEXEME_RE.finditer(line):
        text, col = match[0], match.start() + 1
        if current is None:
            if record is not None:
                raise ParseError("trailing text after record", lineno, col)
            if text != "(":
                raise ParseError("record must start with '('", lineno, col)
            record = current = []
        elif text == "(":
            outer.append(current)
            current = []
            outer[-1].append((current, col))
        elif text == ")":
            current = outer.pop() if outer else None
        else:
            current.append((text, col))
    if current is not None:
        raise ParseError("record not closed", lineno, col)
    return record


def parse_line(line: str, lineno: int, format_code: str | None) -> WireRecord:
    """One record line. The format context's compiled reader takes a line
    as `serialize` writes it; any other line, and a line under an unknown
    format code, goes to the scanner, which reads it or names its fault."""
    read = _READERS.get(format_code)
    return (read and read(line)) or _parse_scanned(line, lineno, format_code)


def _parse_scanned(line: str, lineno: int, format_code: str | None) -> WireRecord:
    """One record line, through the scanner: the row is picked by keyword
    or by (format code, arity), and its fields are read in one loop."""
    args = _scan(line, lineno)
    if not args:
        raise ParseError("empty record", lineno, 1)
    head, col = args[0]
    if head.__class__ is list or _INT_RE.fullmatch(head):
        if format_code is None:
            raise ParseError("data record outside any format context", lineno, col)
        row = _BY_FORMAT.get((check_format_code(format_code), len(args)))
        if row is None:
            raise ParseError(f"record of arity {len(args)} not legal under "
                             f"format {format_code}", lineno, col)
    else:
        row = _BY_KEYWORD.get(head)
        if row is None:
            raise ParseError(f"unknown record head: {head}", lineno, col)
        args = args[1:]
        n = len(row.readers)
        if len(args) != n:
            raise ParseError(f"{head}: expected {n} argument" + "s" * (n != 1), lineno, col)
    pending = zip(row.readers, args)
    values = []
    if row.codes:  # format-code fields lead the row: check them before the rest
        values = [read(field, lineno, name)
                  for (read, name), field in islice(pending, row.codes)]
        for code in values:
            check_format_code(code)
    values += [read(field, lineno, name) for (read, name), field in pending]
    return row.cls(*values)


def parse(text: str, format_code: str | None = None) -> list[WireRecord]:
    """Parse a batch of wire text. Inverse of :func:`serialize`."""
    if format_code is not None:
        check_format_code(format_code)
    read = _READERS[format_code]
    return [read(line) or _parse_scanned(line, lineno, format_code)
            for lineno, line in enumerate(text.split("\n"), start=1)
            if line.strip()]

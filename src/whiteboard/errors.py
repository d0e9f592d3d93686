"""Exception types shared across the package.

Every error raised by the lattice, grid, parser, translator, mailbox and
coordinator layers derives from :class:`WhiteboardError`, so callers can
catch the whole family at a pipeline boundary and still branch on the
specific condition where it matters.
"""

from __future__ import annotations


class WhiteboardError(Exception):
    """Base class for all package errors."""


# -- lattice / board -------------------------------------------------------

class DuplicateLayer(WhiteboardError):
    pass


class UnknownDependency(WhiteboardError):
    pass


class DependencyCycle(WhiteboardError):
    pass


class IllegalLabel(WhiteboardError):
    pass


class LayerSealed(WhiteboardError):
    pass


class NotSealed(WhiteboardError):
    pass


class EmptyLayer(WhiteboardError):
    pass


class InvalidExport(WhiteboardError):
    """A JSON export that no build can produce: a missing, unknown or
    wrongly typed field, a repeated id or packing key, or a grey node
    scoring above a node it outputs to."""


class UnknownNode(WhiteboardError):
    pass


class CrossLayerArc(WhiteboardError):
    """An arc names a node of another layer, or a grey node one of a
    layer its own does not depend on."""


class BackwardArc(WhiteboardError):
    """An arc that does not run forward in time: its extremity begins
    before its origin begins, or ends no later than its origin ends."""


class EmptyEndpointList(WhiteboardError):
    pass


# -- grid / matrices -------------------------------------------------------

class InconsistentFrameCount(WhiteboardError):
    pass


# -- chart parser ----------------------------------------------------------

class GrammarError(WhiteboardError):
    """Bad grammar file: syntax error or an undeclared terminal symbol."""


# -- dictionary ------------------------------------------------------------

class DuplicateSource(WhiteboardError):
    def __init__(self, word: str):
        super().__init__(f"duplicate dictionary source word: {word}")
        self.word = word


# -- wire format -----------------------------------------------------------

class ParseError(WhiteboardError):
    """Malformed wire text. Carries the 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownFormatCode(WhiteboardError):
    pass


# -- mailboxes / managers --------------------------------------------------

class MailboxTimeout(WhiteboardError):
    pass


class PeerGone(WhiteboardError):
    """The party on a connection's other side has gone: it closed its end
    or died, or nobody listens on a request box, so nothing will fill or
    empty it."""


class ManagerUnavailable(WhiteboardError):
    pass


class AlreadyClosed(WhiteboardError):
    pass


# -- coordinator -----------------------------------------------------------

class LayerMismatch(WhiteboardError):
    pass

"""Managers: serve components to clients through a request box and connections.

A manager is a long-lived server. It owns a request box, the socket at
``<root>/<name>/request`` that it listens on, and it serves any number of
connections, one after another or at once. A client connects to the box
(see `whiteboard.mailbox`) and sends its open request as the connection's
first frame; then it writes work on the same connection and reads results
from it. The open request fixes the connection's formats and names its
input, and the manager builds a fresh component for it from its factory,
so no component state is shared between connections.

A connection is live once asked for. The client may write batches right
behind its open request: the socket keeps them until the manager, taking
the connection, reads them. An accepted open is not answered. A refused
one, whose first frame is not one open request or whose component could
not be built, is answered with an error record, and the manager then
hangs up.

A client's hang-up is the one way a connection ends. A client closes by
writing out its last batch and shutting the connection for writing; a
client that dies closes it too. Every reply travels on the asking
connection: the results of its batches, and, once the manager has read
the connection to its end and delivered every earlier reply,
``(closed)``. The manager then closes its end, and the client returns
from its close once it has seen that hang-up.

The manager ends its reply to every input batch with one ``(done frame)``
record, carried by the last frame it writes for that batch, so the client
can count the batches still outstanding instead of guessing from silence.
The client-side `Connection` does that counting and strips the records, so
its callers see exactly what the component produced.

A manager given a pace delivers each reply piecewise in end-time order,
split by `partition_by_end`, at the pace of the simulated speech: piece k
falls due `k * pace` seconds after the first piece went, and no piece goes
before it falls due, so a late wake-up delays one piece, not every piece
after it. That is how the paper's managers make a batch component look
incremental to its client, and the only timed behaviour of the transport.

Every other wait is an event: a readable connection or request box wakes
its reader, and a writer holding the tail of a frame waits until its
connection is writable. A party whose peer closed its end, or died, gets
`PeerGone` at once, whether or not the manager had taken the connection;
a client whose box nobody listens on gets `ManagerUnavailable` at once. A
manager serves until its stop descriptor is readable, then hangs up its
connections and removes its box.
"""

from __future__ import annotations

import itertools
import logging
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

from . import wire
from .errors import (
    AlreadyClosed,
    MailboxTimeout,
    ManagerUnavailable,
    ParseError,
    PeerGone,
    UnknownFormatCode,
)
from .mailbox import Channel, Mailbox, wait_ready

log = logging.getLogger(__name__)

# a client's pause before it asks again, while no manager serves the
# request box yet or the box's queue is full
RETRY_SLEEP = 0.01


@dataclass(frozen=True)
class ConnectionParams:
    import_format: str = "node-v1"
    export_format: str = "node-v1"
    # handed to the manager's component factory; None for no input
    input: str | None = None

    def __post_init__(self):
        wire.check_format_code(self.import_format)
        wire.check_format_code(self.export_format)
        if self.input is not None:
            wire.check_input(self.input)


class Connection:
    """Client-side handle: deposit work, collect results.

    `channel` is the client's end of the connection to the manager serving
    `request_root`. `outstanding` counts the batches deposited whose
    `done` record has not been collected yet; `done_frame` is the highest
    frame those records carried. Collecting strips the `done` records from
    what it returns. A manager that has gone makes a deposit or a collect
    raise `PeerGone`.
    """

    def __init__(self, channel: Channel, params: ConnectionParams,
                 request_root: Path):
        self.channel = channel
        self.params = params
        self.request_root = request_root
        self.outstanding = 0
        self.done_frame = 0

    def deposit(self, records, timeout: float | None = None) -> None:
        text = wire.serialize(records, self.params.import_format)
        self.channel.deposit(text, timeout=timeout)
        self.outstanding += 1

    def try_deposit(self, records) -> bool:
        """Hand a batch over without blocking. Returns False, taking
        nothing, while the connection holds an earlier batch's tail."""
        text = wire.serialize(records, self.params.import_format)
        if not self.channel.try_deposit(text):
            return False
        self.outstanding += 1
        return True

    def flush(self) -> bool:
        """Write what the connection takes of the last batch's tail.
        Returns True once none is left."""
        return self.channel.flush()

    def _parse_results(self, text: str) -> list[wire.WireRecord]:
        records = []
        for record in wire.parse(text, self.params.export_format):
            if isinstance(record, wire.DoneRecord):
                self.outstanding -= 1
                self.done_frame = max(self.done_frame, record.frame)
            else:
                records.append(record)
        return records

    def collect(self, timeout: float | None = None) -> list[wire.WireRecord]:
        return self._parse_results(self.channel.collect(timeout=timeout))

    def try_collect(self) -> list[wire.WireRecord] | None:
        text = self.channel.try_collect()
        if text is None:
            return None
        return self._parse_results(text)

    def close(self, timeout: float | None = None) -> list[wire.WireRecord]:
        """Close the connection. Shuts it for writing, unless its channel
        already is, then returns the results the manager delivered before
        its `(closed)`, which is the last frame it writes on the connection
        before it hangs up; `close` returns once it has seen the hang-up, so
        the manager has let the connection go.

        The channel is closed however the wait ends, so a client that gives
        up on a close (`MailboxTimeout`) holds nothing more, and a second
        `close` raises `AlreadyClosed`. A manager that hangs up without
        `(closed)`, because it died, stopped or refused the connection,
        raises `ManagerUnavailable` at once, whether or not it had taken
        the connection."""
        if self.channel.fileno() == -1:
            raise AlreadyClosed(f"connection to {self.request_root} already closed")
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining():
            return (None if deadline is None
                    else max(0.0, deadline - time.monotonic()))

        records: list[wire.WireRecord] = []
        try:
            if self.channel.writing:
                self.channel.hang_up(timeout=timeout)
            while True:
                records.extend(self.collect(timeout=remaining()))
        except MailboxTimeout:
            raise MailboxTimeout(f"no close acknowledgment from the manager at "
                                 f"{self.request_root}") from None
        except PeerGone as exc:  # the manager's hang-up
            if records[-1:] == [wire.CloseReply()]:
                return records[:-1]
            raise ManagerUnavailable(
                f"manager at {self.request_root} hung up without "
                f"acknowledging its close") from exc
        finally:
            self.channel.close()


def request_connection(request_root: Path | str, params: ConnectionParams,
                       timeout: float = 10.0) -> Connection:
    """Connect to the manager serving `request_root` and send it the open
    request, as the connection's first frame. The connection is live at
    once: it keeps what is deposited until the manager takes it.

    Waits, asking again every `RETRY_SLEEP` seconds, for the manager to
    serve if it has not started yet, and for room in a full request box;
    `timeout` bounds the wait. A box that nobody listens on fails at once.
    A manager that refuses the connection answers with an error record,
    then hangs up."""
    request_root = Path(request_root)
    deadline = time.monotonic() + timeout
    box = Mailbox(request_root)
    while True:
        try:
            channel, why = box.try_deposit(), "the box stayed full"
        except FileNotFoundError:
            channel, why = None, "no manager serves it"
        except PeerGone as exc:
            raise ManagerUnavailable(f"manager at {request_root} did not take "
                                     f"the open request: {exc}") from exc
        if channel is not None:
            break
        if time.monotonic() >= deadline:
            raise ManagerUnavailable(f"manager at {request_root} did not take "
                                     f"the open request: {why}")
        time.sleep(RETRY_SLEEP)
    # a manager gone since the connect fails the connection's next wait
    with suppress(PeerGone):
        channel.try_deposit(wire.serialize([wire.OpenRequest(
            params.import_format, params.export_format, params.input)]))
    return Connection(channel, params, request_root)


# -- paced delivery ----------------------------------------------------------

def partition_by_end(records) -> list[list[wire.WireRecord]]:
    """Split a batch into pieces, one per distinct end frame, ascending.
    Records that carry no end frame, such as arcs, go into the last piece."""
    by_end: dict[int | None, list[wire.WireRecord]] = {}
    for record in records:
        by_end.setdefault(getattr(record, "end", None), []).append(record)
    untimed = by_end.pop(None, [])
    pieces = [by_end[end] for end in sorted(by_end)] or [[]]
    pieces[-1] += untimed
    return [piece for piece in pieces if piece]


# -- the manager service loop ---------------------------------------------------

class _Served:
    """The manager's side of one connection: its end, its component, built
    once the open request has come, and the frames it still owes the
    client, in order."""

    def __init__(self, channel: Channel, name: int):
        self.channel = channel
        self.name = name
        self.import_format: str | None = None
        self.export_format: str | None = None
        self.component = None
        self.owed: list[str] = []
        # the owed frame waits until then: the next piece of a paced reply
        self.release_at = 0.0
        self.high_frame = 0
        # why the connection ends, set by a refused open or the client's
        # hang-up: it is dropped once nothing is owed
        self.ending: str | None = None

    def see(self, records) -> None:
        """Raise the connection's high-water frame to the latest end frame
        among the records' timed data records."""
        self.high_frame = max([self.high_frame,
                               *(getattr(r, "end", 0) for r in records)])

    def finished(self, records) -> str:
        """The records as a batch's last frame, ending with `done`."""
        return wire.serialize([*records, wire.DoneRecord(self.high_frame)],
                              self.export_format)


class _Manager:
    def __init__(self, factory, request_root: Path, name: str,
                 pace: float | None, *, stop):
        self.factory = factory
        self.stop = stop
        self.request_root = Path(request_root)
        self.name = name
        self.pace = pace
        self.requests = Mailbox(self.request_root)
        # by the number the manager gave the connection when it took it
        self.served: dict[int, _Served] = {}
        self._numbers = itertools.count(1)

    def serve(self):
        """One loop: each cycle takes the connections queued at the request
        box, then writes every connection's next owed frame that is due or,
        owing none, takes its next frame or its hang-up. Between cycles the
        loop waits (`_wait`) for one of them to be ready, for the next
        piece of a paced reply to fall due, or for `stop`, which ends it.

        The request box is removed however the loop ends, when every
        connection's end is closed too. A client whose connection was
        queued but not taken yet then reads a reset."""
        self.request_root.parent.mkdir(parents=True, exist_ok=True)
        self.requests.open()
        try:
            log.info("manager %s serving at %s", self.name, self.request_root)
            while True:
                while (channel := self.requests.try_collect()) is not None:
                    name = next(self._numbers)
                    self.served[name] = _Served(channel, name)
                for name, served in list(self.served.items()):
                    try:
                        self._step(served)
                        if (not served.ending or served.owed
                                or served.channel.pending):
                            continue
                        why = served.ending
                    except PeerGone:
                        why = "nobody reads it"
                    served.channel.close()
                    del self.served[name]
                    log.info("manager %s: connection %s dropped, %s",
                             self.name, name, why)
                if self.stop in self._wait():
                    return
        finally:
            for served in self.served.values():
                served.channel.close()
            self.requests.close()

    def _wait(self) -> list:
        """Wait for `stop`, the request box or a connection that owes
        nothing to be readable, or one holding a frame's tail to be
        writable. Returns those that are ready. The wait has no timeout
        unless an owed frame falls due."""
        readers, writers, due = [self.stop, self.requests], [], []
        for served in self.served.values():
            if served.channel.pending:
                writers.append(served.channel)
            elif served.owed:
                due.append(served.release_at)
            else:
                readers.append(served.channel)
        return wait_ready(readers, writers, max(0.0, min(due) - time.monotonic())
                          if due else None)

    def _step(self, served: _Served) -> None:
        """Write the next frame owed on a connection once it is due, first
        taking its next frame if nothing is owed: its open request, then
        its input batches; the client's hang-up is owed `(closed)`, which
        ends the connection. A batch that does not parse, or is not UTF-8,
        is answered with `import-parse-error`, an open request with
        `open-error`, which refuses the connection. A reply's first frame is
        due at once, piece k of a paced reply `k * pace` seconds after the
        first went. A frame's tail that did not fit goes first."""
        if not served.channel.flush():
            return
        if not served.owed:
            try:
                text = served.channel.try_collect()
                if text is None:
                    return
                records = wire.parse(text, served.import_format)
            except PeerGone:  # the client hung up, or died
                served.ending = "its client hung up"
                served.owed = [wire.serialize([wire.CloseReply()])]
            except (ParseError, UnknownFormatCode) as exc:
                served.owed = (
                    [served.finished([wire.ErrorRecord(f"import-parse-error {exc}")])]
                    if served.component is not None
                    else self._refuse(served, f"open-error {exc}"))
            else:
                served.owed = (self._open(served, records) if served.component is None
                               else self._reply(served, records))
        now = time.monotonic()
        if (not served.owed or now < served.release_at
                or not served.channel.try_deposit(served.owed[0])):
            return
        del served.owed[0]
        # a fixed clock: a late piece does not push back the ones after it
        served.release_at = ((served.release_at or now) + self.pace
                             if served.owed else 0.0)

    def _open(self, served: _Served, records) -> list[str]:
        """Build a connection's component from its first frame, its open
        request. An accepted open owes nothing."""
        request = records[0] if len(records) == 1 else None
        if not isinstance(request, wire.OpenRequest):
            return self._refuse(served, f"open-error the first frame is not "
                                        f"one open request: {records}")
        try:
            served.component = self.factory(request.input)
        except Exception as exc:  # a refused input must not kill the manager
            return self._refuse(served, f"component-error {exc}", exc_info=True)
        served.import_format = request.import_format
        served.export_format = request.export_format
        return []

    def _refuse(self, served: _Served, why: str, exc_info=False) -> list[str]:
        """Refuse a connection's open: it is owed `why` as an error record,
        and then ends."""
        log.warning("manager %s: connection %s refused: %s", self.name,
                    served.name, why, exc_info=exc_info)
        served.ending = "its open was refused"
        return [wire.serialize([wire.ErrorRecord(why)])]

    def _reply(self, served: _Served, records) -> list[str]:
        """The frames answering one input batch: the component's results,
        piecewise if the manager is paced, the last frame ending with
        `done`."""
        served.see(records)
        try:
            outputs = list(served.component(records))
        except Exception as exc:  # component faults must not kill the manager
            log.exception("component failed in %s, connection %s",
                          self.name, served.name)
            return [served.finished([wire.ErrorRecord(f"component-error {exc}")])]
        served.see(outputs)
        pieces = (partition_by_end(outputs) if self.pace is not None
                  else [outputs]) or [[]]
        owed = []
        try:
            for piece in pieces[:-1]:
                owed.append(wire.serialize(piece, served.export_format))
            owed.append(served.finished(pieces[-1]))
        except ValueError as exc:
            # serializing failed before the piece carrying `done`
            owed.append(served.finished([wire.ErrorRecord(f"export-error {exc}")]))
        return owed


def run_manager(factory, request_root: Path | str, *, name: str = "manager",
                pace: float | None = None, stop) -> None:
    """Serve connections until `stop`, a descriptor or an object with
    `fileno()`, is readable, in a single loop on the calling thread, which
    waits between cycles on `stop`, the request box and the connections.
    With `pace` None each reply goes in one frame; with a number it is
    split by `partition_by_end` and its piece k falls due `k * pace`
    seconds after the first went, and only a piece falling due ends a wait
    by time. A readable `stop` ends the wait at once: the manager hangs up
    its connections, removes its box and returns.

    `factory` is called once per connection with the input its open
    request named (None for `-`) and returns that connection's component,
    so every component's state lives per connection. An open is answered
    only if it is refused: a first frame that is not one open request with
    `(error open-error ...)`, an input the factory raises on with
    `(error component-error ...)`; the manager then hangs up the
    connection and keeps serving. A component maps a list of wire records
    to a list of wire records; it is invoked once per collected batch and
    holds up every connection of the manager while it runs. Exceptions
    inside it become error records on the connection and the manager
    keeps serving. Whatever the outcome, the last frame written for a
    batch ends with a `(done frame)` record; the component never produces
    or sees one.

    Every reply goes to the connection that asked. The client's hang-up,
    by a client that closed the connection or died, before or after the
    manager took it, is answered by `(closed)` once every earlier batch's
    reply is delivered; that is the last frame on the connection, and the
    manager then closes its end. A connection whose client has gone is
    dropped at the manager's next write there.
    """
    _Manager(factory, Path(request_root), name, pace, stop=stop).serve()

"""Managers: serve components to clients through a request box and channels.

A manager is a long-lived server. It owns a request box, the FIFO at
``<root>/<name>/request`` where clients ask to open connections, and it
serves any number of connections, one after another or at once. A client
makes each connection's ``conn-*`` directory beside the request box, with
one channel per direction in it (see `whiteboard.mailbox`), and names it
in its open request: it writes work into the ``in`` channel and reads
results from the ``out`` channel, while the manager holds the opposite
ends in its own process. The open request fixes the connection's formats
and names its input, and the manager builds a fresh component for it from
its factory, so no component state is shared between connections.

A connection is live once asked for. The client makes both FIFOs, opens
``out`` for reading and ``in`` for writing, sends its open request and
may write batches at once: ``in`` keeps them until the manager, taking
the request, opens ``in`` for reading and ``out`` for writing. An accepted
open is not answered. A refused one, whose component could not be built,
is answered with ``(error component-error ...)``, and the manager then
hangs up. As the client held ``in`` before it asked, an end of file on
``in`` is the client's hang-up.

That hang-up is the one way a connection ends. A client closes by
writing out its last batch and closing ``in``; a client that dies closes
it too. Every reply travels on the asking connection's own out channel:
the results of its batches, and, once the manager has read ``in`` to its
hang-up and delivered every earlier reply, ``(closed)``. The manager then
closes its ends, and the client returns from its close once it has seen
that hang-up. The connection's ``conn-*`` directory is its only name.

The manager ends its reply to every input batch with one ``(done frame)``
record, carried by the last frame it writes for that batch, so the client
can count the batches still outstanding instead of guessing from silence.
The client-side `Connection` does that counting and strips the records, so
its callers see exactly what the component produced.

A manager may be configured to deliver results piecewise in end-time order,
which makes a batch component look incremental to its client. It then
releases each piece no earlier than one poll period after the one before,
which is the pace of the simulated speech.

Nobody sleeps a poll period waiting on a connection: a readable channel
or request box wakes its reader, and a writer holding the tail of a frame
waits until its channel is writable. A party whose peer closed its end,
or died, gets `PeerGone`; a client whose open finds the request box with
no reader gets `ManagerUnavailable` at once. A manager removes its box
when it stops. A manager that dies before it takes an open never opens
that connection's ``out``; a client that waits on the connection and has
heard nothing on ``out`` asks the box every `mailbox.CHECK_PERIOD`
seconds whether it is still read.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
import threading
import time
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

DEFAULT_SLEEP = 0.05
# a client's pause before it asks again, while no manager serves the
# request box yet or the box is full
RETRY_SLEEP = 0.01
CONN_PREFIX = "conn-"


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


def _discard(in_channel: Channel, out_channel: Channel) -> None:
    """Close a client's ends of its channels and remove its connection
    directory."""
    in_channel.close()
    out_channel.close()
    shutil.rmtree(in_channel.path.parent, ignore_errors=True)


class Connection:
    """Client-side handle: deposit work, collect results.

    `in_channel` is the write end of the channel carrying work to the
    manager, `out_channel` the read end of the one carrying results back;
    their directory names the connection. `outstanding` counts the batches
    deposited whose `done` record has not been collected yet; `done_frame`
    is the highest frame those records carried. Collecting strips the
    `done` records from what it returns.
    """

    def __init__(self, in_channel: Channel, out_channel: Channel,
                 params: ConnectionParams, request_root: Path):
        self.in_channel = in_channel
        self.out_channel = out_channel
        self.params = params
        self.request_root = request_root
        self.state = "open"
        self.outstanding = 0
        self.done_frame = 0
        # something has come on `out`: the manager took the open
        self.heard = False

    def deposit(self, records, timeout: float | None = None) -> None:
        text = wire.serialize(records, self.params.import_format)
        self.in_channel.deposit(text, timeout=timeout, check=self._check_writing)
        self.outstanding += 1

    def try_deposit(self, records) -> bool:
        """Hand a batch over without blocking. Returns False, taking
        nothing, while the in channel holds an earlier batch's tail."""
        text = wire.serialize(records, self.params.import_format)
        if not self.in_channel.try_deposit(text):
            return False
        self.outstanding += 1
        return True

    def flush(self) -> bool:
        """Write what the in channel takes of the last batch's tail.
        Returns True once none is left."""
        return self.in_channel.flush()

    def _check_writing(self) -> None:
        """`check_manager`, and raise `ManagerUnavailable` if the manager
        hung up `out`: a read end of the client's own keeps taking what it
        writes to `in`, so no write would fail."""
        if self.out_channel.hung_up():
            raise ManagerUnavailable(
                f"manager at {self.request_root} hung up "
                f"{self.in_channel.path.parent} before it read its input")
        self.check_manager()

    def check_manager(self) -> None:
        """Raise `ManagerUnavailable` if nothing has come on `out` and
        nobody reads the request box: the manager died, or stopped, before
        it took the open, so it never opened `out` to hang it up. Asks by
        writing a blank line to the box, which only wakes a live manager."""
        if self.heard:
            return
        try:
            Mailbox(self.request_root).try_deposit("\n")
        except (PeerGone, FileNotFoundError) as exc:
            raise ManagerUnavailable(
                f"manager at {self.request_root} went before it took the open "
                f"of {self.in_channel.path.parent}: {exc}") from exc

    def _parse_results(self, text: str) -> list[wire.WireRecord]:
        self.heard = True
        records = []
        for record in wire.parse(text, self.params.export_format):
            if isinstance(record, wire.DoneRecord):
                self.outstanding -= 1
                self.done_frame = max(self.done_frame, record.frame)
            else:
                records.append(record)
        return records

    def collect(self, timeout: float | None = None) -> list[wire.WireRecord]:
        return self._parse_results(self.out_channel.collect(
            timeout=timeout, check=self.check_manager))

    def try_collect(self) -> list[wire.WireRecord] | None:
        text = self.out_channel.try_collect()
        if text is None:
            return None
        return self._parse_results(text)

    def request_close(self, timeout: float | None = None) -> None:
        """Write out the last batch and hang up the in channel, without
        waiting for the manager's `(closed)`; `close` then only waits.
        Lets a client close many connections at once. Raises
        `AlreadyClosed` once the in channel is hung up, and
        `ManagerUnavailable` if the manager goes while the last batch's
        tail waits."""
        self.in_channel.hang_up(timeout=timeout, check=self._check_writing)
        self.state = "closing"

    def close(self, timeout: float | None = None) -> list[wire.WireRecord]:
        """Close the connection and remove its directory. Returns the
        results the manager delivered before its `(closed)`, which is the
        last frame it writes on the connection before it hangs up; `close`
        returns once it has seen the hang-up, so the manager has let the
        connection go.

        Hangs up the in channel unless `request_close` already did. The
        directory is removed however the wait ends, so a client that gives
        up on a close (`MailboxTimeout`) leaves nothing behind. A manager
        that hangs up without `(closed)`, because it died or refused the
        connection, raises `ManagerUnavailable` at once, and one that went
        before it took the open within `mailbox.CHECK_PERIOD`."""
        conn_dir = self.in_channel.path.parent
        if self.state == "closed":
            raise AlreadyClosed(f"connection {conn_dir} already closed")
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining():
            return (None if deadline is None
                    else max(0.0, deadline - time.monotonic()))

        records: list[wire.WireRecord] = []
        try:
            if self.state == "open":
                self.request_close(timeout=timeout)
            while True:
                records.extend(self.collect(timeout=remaining()))
        except MailboxTimeout:
            raise MailboxTimeout(f"no close acknowledgment for {conn_dir}") from None
        except PeerGone as exc:  # the manager's hang-up
            if records[-1:] == [wire.CloseReply()]:
                return records[:-1]
            raise ManagerUnavailable(
                f"manager at {self.request_root} hung up {conn_dir} without "
                f"acknowledging its close") from exc
        finally:
            self.state = "closed"
            _discard(self.in_channel, self.out_channel)


def request_connection(request_root: Path | str, params: ConnectionParams,
                       timeout: float = 10.0) -> Connection:
    """Make a connection directory beside `request_root`, holding its
    channels' client ends, and ask the manager serving it to open a
    connection there. The connection is live at once: its in channel
    keeps what is deposited until the manager opens it.

    Waits, asking again every `RETRY_SLEEP` seconds, for the manager to
    serve if it has not started yet, and for room in a full request box;
    `timeout` bounds the wait. A box that nobody reads fails at once. A
    manager that refuses the connection answers on its out channel with
    an error record, then hangs up."""
    request_root = Path(request_root)
    deadline = time.monotonic() + timeout
    while not request_root.exists():
        if time.monotonic() >= deadline:
            raise ManagerUnavailable(f"no manager serving {request_root}")
        time.sleep(RETRY_SLEEP)
    conn_dir = Path(tempfile.mkdtemp(prefix=CONN_PREFIX, dir=request_root.parent))
    in_channel = Channel(conn_dir / "in").make().open_writer_first()
    out_channel = Channel(conn_dir / "out").make().open_reader()
    request = wire.serialize([wire.OpenRequest(
        params.import_format, params.export_format, params.input, conn_dir.name)])
    requests = Mailbox(request_root)
    try:
        while not requests.try_deposit(request):  # the box is full
            if time.monotonic() >= deadline:
                raise MailboxTimeout(f"{request_root} stayed full")
            time.sleep(RETRY_SLEEP)
    except (MailboxTimeout, PeerGone, FileNotFoundError) as exc:
        _discard(in_channel, out_channel)
        raise ManagerUnavailable(f"manager at {request_root} did not take "
                                 f"the open request: {exc}") from exc
    return Connection(in_channel, out_channel, params, request_root)


# -- incremental delivery -----------------------------------------------------

def _end_time(record) -> int | None:
    if isinstance(record, (wire.EdgeRecord, wire.NodeRecord,
                           wire.InactiveEdgeRecord)):
        return record.end
    return None


def partition_by_end(records) -> list[list[wire.WireRecord]]:
    """Split a batch into pieces, one per distinct end frame, ascending.

    Arc records carry no time; each one rides in the piece where its later
    endpoint lands. Records with no usable time go into the first piece.
    """
    records = list(records)
    if not records:
        return []
    ends = sorted({e for e in (_end_time(r) for r in records) if e is not None})
    if not ends:
        return [records]
    index_of = {e: i for i, e in enumerate(ends)}
    node_piece: dict[int, int] = {}
    for r in records:
        if isinstance(r, wire.NodeRecord):
            node_piece[r.node_id] = index_of[r.end]
    pieces: list[list[wire.WireRecord]] = [[] for _ in ends]
    for r in records:
        end = _end_time(r)
        if end is not None:
            pieces[index_of[end]].append(r)
        elif isinstance(r, wire.ArcRecord):
            idx = max(node_piece.get(r.origin, 0), node_piece.get(r.extremity, 0))
            pieces[idx].append(r)
        else:
            pieces[0].append(r)
    return [p for p in pieces if p]


# -- the manager service loop ---------------------------------------------------

class _Served:
    """The manager's side of one connection: its ends of the channels, its
    component, and the frames it still owes the client, in order."""

    def __init__(self, conn_dir: Path, request: wire.OpenRequest):
        self.name = conn_dir.name
        self.in_channel = Channel(conn_dir / "in")
        self.out_channel = Channel(conn_dir / "out")
        self.import_format = request.import_format
        self.export_format = request.export_format
        self.component = None
        self.owed: list[str] = []
        # the owed frame waits until then: the next piece of a reply
        self.release_at = 0.0
        self.high_frame = 0
        # why the connection ends, set by a refused open or the client's
        # hang-up: it is dropped once nothing is owed
        self.ending: str | None = None

    def open(self) -> None:
        """Open the read end of `in` and the write end of `out`, whose other
        ends the client held before it asked. Raises `PeerGone` if nobody
        reads `out`."""
        self.in_channel.open_reader(writer_first=True)
        self.out_channel.open_writer()

    def close(self) -> None:
        self.in_channel.close()
        self.out_channel.close()

    def see(self, records) -> None:
        """Raise the connection's high-water frame to the latest end frame
        among the records' timed data records."""
        ends = [e for e in map(_end_time, records) if e is not None]
        self.high_frame = max([self.high_frame, *ends])

    def finished(self, records) -> str:
        """The records as a batch's last frame, ending with `done`."""
        return wire.serialize([*records, wire.DoneRecord(self.high_frame)],
                              self.export_format)


class _Manager:
    def __init__(self, factory, request_root: Path, name: str,
                 incremental: bool, sleep_time: float):
        self.factory = factory
        self.request_root = Path(request_root)
        self.name = name
        self.incremental = incremental
        self.sleep_time = sleep_time
        self.requests = Mailbox(self.request_root)
        # by the name of the connection's directory
        self.served: dict[str, _Served] = {}

    def serve(self, stop_event: threading.Event | None = None):
        """One loop: each cycle takes the requests that have arrived, then
        writes every connection's next owed frame that is due or, owing
        none, takes its next input batch or its hang-up. Between cycles the
        loop waits (`_wait`) at most one poll period, or until the next
        piece falls due.

        The request box is removed however the loop ends, when every
        connection's ends are closed too. A client whose open had arrived
        but was not taken yet then finds the box gone
        (`Connection.check_manager`)."""
        if stop_event is None:
            stop_event = threading.Event()  # never set: serve until exit
        self.request_root.parent.mkdir(parents=True, exist_ok=True)
        self.requests.open()
        try:
            log.info("manager %s serving at %s", self.name, self.request_root)
            while not stop_event.is_set():
                text = self.requests.try_collect()
                if text is not None:
                    self._dispatch(text)
                for name, served in list(self.served.items()):
                    try:
                        self._step(served)
                        if (not served.ending or served.owed
                                or served.out_channel.pending):
                            continue
                        why = served.ending
                    except PeerGone:
                        why = "nobody reads its out channel"
                    served.close()
                    del self.served[name]
                    log.info("manager %s: connection %s dropped, %s",
                             self.name, name, why)
                self._wait()
        finally:
            for served in self.served.values():
                served.close()
            self.requests.close()

    def _wait(self) -> None:
        """Wait for the request box, the in channel of every connection
        that owes nothing, or the out channel of every one holding a
        frame's tail: at most one poll period, or until an owed piece
        falls due."""
        readers, writers = [self.requests], []
        for served in self.served.values():
            if served.out_channel.pending:
                writers.append(served.out_channel)
            elif not served.owed:
                readers.append(served.in_channel)
        now = time.monotonic()
        wait_ready(readers, writers, min([
            self.sleep_time, *(s.release_at - now for s in self.served.values()
                               if s.owed and s.release_at > now)]))

    def _dispatch(self, text: str):
        """Serve the requests read from the box, line by line, so a line
        that does not parse costs only itself. A blank line only wakes the
        manager."""
        for line in text.split("\n"):
            if not line.strip():
                continue
            try:
                request = wire.parse_line(line, 1, None)
            except (ParseError, UnknownFormatCode) as exc:
                log.warning("manager %s: unparseable request ignored: %s",
                            self.name, exc)
                continue
            conn_dir = self._conn_dir(request)
            if conn_dir is None:
                log.warning("manager %s: request ignored, it names no "
                            "connection directory to answer in: %r",
                            self.name, request)
                continue
            served = _Served(conn_dir, request)
            try:
                served.open()
            except (OSError, PeerGone) as exc:
                served.close()
                log.warning("manager %s: request ignored, its channels do "
                            "not open: %s", self.name, exc)
                continue
            self.served[served.name] = served
            try:
                served.component = self.factory(request.input)
            except Exception as exc:  # a refused input must not kill the manager
                log.exception("building a component failed in %s", self.name)
                served.owed.append(wire.serialize(
                    [wire.ErrorRecord(f"component-error {exc}")]))
                served.ending = "its component was not built"

    def _conn_dir(self, request) -> Path | None:
        """The directory an open request names for its connection, if it is
        a bare `conn-*` name of a directory beside the request box that no
        served connection uses. The name comes from another process, so
        nothing else is accepted."""
        if not isinstance(request, wire.OpenRequest):
            return None
        name = request.conn
        conn_dir = self.request_root.parent / name
        if (not name.startswith(CONN_PREFIX) or Path(name).name != name
                or name in self.served or not conn_dir.is_dir()):
            return None
        return conn_dir

    def _step(self, served: _Served) -> None:
        """Write the next frame owed on a connection once it is due, first
        taking its next input batch if nothing is owed; the hang-up of `in`
        is owed `(closed)`, which ends the connection. A reply's first
        frame is due at once, each later piece one poll period after the
        one before. A frame's tail that did not fit goes first."""
        if not served.out_channel.flush():
            return
        if not served.owed:
            try:
                text = served.in_channel.try_collect()
            except PeerGone:  # the client closed `in`, or died
                served.ending = "its client hung up"
                served.owed = [wire.serialize([wire.CloseReply()])]
            else:
                if text is None:
                    return
                served.owed = self._reply(served, text)
        now = time.monotonic()
        if now < served.release_at or not served.out_channel.try_deposit(
                served.owed[0]):
            return
        del served.owed[0]
        served.release_at = now + self.sleep_time if served.owed else 0.0

    def _reply(self, served: _Served, text: str) -> list[str]:
        """The frames answering one batch taken from a connection's in
        channel: the component's results, piecewise if the manager is
        incremental, the last frame ending with `done`."""
        try:
            records = wire.parse(text, served.import_format)
        except (ParseError, UnknownFormatCode) as exc:
            return [served.finished([wire.ErrorRecord(f"import-parse-error {exc}")])]
        served.see(records)
        try:
            outputs = list(served.component(records))
        except Exception as exc:  # component faults must not kill the manager
            log.exception("component failed in %s, connection %s",
                          self.name, served.name)
            return [served.finished([wire.ErrorRecord(f"component-error {exc}")])]
        served.see(outputs)
        pieces = (partition_by_end(outputs) if self.incremental
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
                incremental: bool = False, sleep_time: float = DEFAULT_SLEEP,
                stop_event: threading.Event | None = None) -> None:
    """Serve connection requests until the process exits, or `stop_event`
    is set, in a single loop on the calling thread, which waits between
    cycles on the request box and the connections' channels. `sleep_time`
    is the longest wait, and the gap between the pieces of an incremental
    reply. A waiting manager sees `stop_event` at its next wake-up, so
    whoever sets it writes a blank line to the request box too
    (`Mailbox(request_root).try_deposit("\\n")`) to stop it at once.

    `factory` is called once per opened connection with the input its open
    request named (None for `-`) and returns that connection's component,
    so every component's state lives per connection. An open is answered
    only if it raises: with `(error component-error ...)`, after which the
    manager hangs up the connection and keeps serving. A component maps a
    list of wire records to a list of wire records; it is invoked once per
    collected batch and holds up every connection of the manager while it
    runs. Exceptions inside it become error records on the out channel and
    the manager keeps serving.
    Whatever the outcome, the last frame written for a batch ends with a
    `(done frame)` record; the component never produces or sees one.

    Every reply goes to the out channel of the connection that asked. An
    open request naming no `conn-*` directory beside the request box, or
    one whose `out` channel nobody reads, and a request line that does not
    parse, have no channel to be answered on and are only logged. The
    hang-up of a connection's in channel, by a client that closed it or
    died, before or after the manager opened it, is answered by `(closed)`
    once every earlier batch's reply is delivered; that is the last frame
    on the connection, and the manager then closes its ends. A connection
    whose client stopped reading `out` is dropped at the manager's next
    write there.
    """
    _Manager(factory, Path(request_root), name, incremental,
             sleep_time).serve(stop_event)

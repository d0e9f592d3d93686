"""Managers: serve components to clients through mailboxes.

A manager is a long-lived server. It owns a request box, one mailbox at
``<root>/<name>/request`` where clients ask to open connections, and it
serves any number of connections, one after another or at once. A client
makes each connection's ``conn-*/{in,out}`` box pair itself, beside the
request box, and names it in its open request: it writes work into the in
box and reads results from the out box, while the manager runs the
opposite side in its own process. The open request fixes the
connection's formats and names its input, and the manager builds a fresh
component for it from its factory, so no component state is shared
between connections.

Every reply travels on the asking connection's own out box: the answer to
its open, the results of its batches, and the acknowledgment of its close,
which the client sends in band on the in box, after its last batch.

The manager ends its reply to every input batch with one ``(done frame)``
record, carried by the last deposit it makes for that batch, so the client
can count the batches still outstanding instead of guessing from silence.
The client-side `Connection` does that counting and strips the records, so
its callers see exactly what the component produced.

A manager may be configured to deliver results piecewise in end-time order,
which makes a batch component look incremental to its client. It then
releases each piece no earlier than one poll period after the one before,
which is the pace of the simulated speech.

Both sides wait on doorbells (see `whiteboard.mailbox`) instead of
sleeping. A manager's bell lies beside its request box, ``request.bell``
for ``request``, and each connection directory holds its client's, named
``bell``, so both sides find each other's bell from names they already
share. A manager opens its bell before it makes its request box, and
removes it when it stops; a client waiting on a manager whose bell has
been left with no reader gives up at once (`ManagerUnavailable`).
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
    BoxRemoved,
    MailboxTimeout,
    ManagerUnavailable,
    ParseError,
    PeerGone,
    UnknownFormatCode,
)
from .mailbox import Bell, Mailbox

log = logging.getLogger(__name__)

DEFAULT_SLEEP = 0.05
CONN_PREFIX = "conn-"
# a connection directory's bell, its client's
CONN_BELL = "bell"


def manager_bell(request_root: Path) -> Path:
    """The path of the bell of the manager serving `request_root`."""
    return request_root.with_name(request_root.name + ".bell")


@dataclass(frozen=True)
class ConnectionParams:
    # the client's fallback poll period; the manager has its own
    sleep_time: float = DEFAULT_SLEEP
    import_format: str = "node-v1"
    export_format: str = "node-v1"
    # handed to the manager's component factory; None for no input
    input: str | None = None

    def __post_init__(self):
        if self.sleep_time <= 0:
            raise ValueError("sleep_time must be positive")
        wire.check_format_code(self.import_format)
        wire.check_format_code(self.export_format)
        if self.input is not None:
            wire.check_input(self.input)


def _discard(bell: Bell) -> None:
    """Close a client's bell and remove its connection directory and
    boxes. The manager may add a batch or temporary file while the tree is
    being removed, so try again; once a box is gone, the manager's next
    touch of it drops the connection."""
    bell.close()
    conn_dir = bell.path.parent
    for _ in range(3):
        shutil.rmtree(conn_dir, ignore_errors=True)
        if not conn_dir.exists():
            return
    log.warning("could not remove connection directory %s", conn_dir)


class Connection:
    """Client-side handle: deposit work, collect results.

    `outstanding` counts the batches deposited whose `done` record has not
    been collected yet; `done_frame` is the highest frame those records
    carried. Collecting strips the `done` records from what it returns.
    `bell` is the client's doorbell, which the manager rings when it fills
    the out box, or empties an in box the client found full; `close`
    removes it.
    """

    def __init__(self, conn_id: int, in_box: Mailbox, out_box: Mailbox,
                 params: ConnectionParams, request_root: Path):
        self.id = conn_id
        self.in_box = in_box
        self.out_box = out_box
        self.bell = in_box.bell
        self.params = params
        self.request_root = request_root
        self.state = "open"
        self.outstanding = 0
        self.done_frame = 0

    def deposit(self, records, timeout: float | None = None) -> None:
        text = wire.serialize(records, self.params.import_format)
        self.in_box.deposit(text, timeout=timeout)
        self.outstanding += 1

    def try_deposit(self, records) -> bool:
        text = wire.serialize(records, self.params.import_format)
        if not self.in_box.try_deposit(text):
            return False
        self.outstanding += 1
        return True

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
        return self._parse_results(self.out_box.collect(timeout=timeout))

    def try_collect(self) -> list[wire.WireRecord] | None:
        text = self.out_box.try_collect()
        if text is None:
            return None
        return self._parse_results(text)

    def request_close(self, timeout: float | None = None) -> None:
        """Send the close request, behind every batch already deposited,
        without waiting for its acknowledgment; `close` then only waits.
        Lets a client close many connections at once."""
        if self.state != "open":
            raise AlreadyClosed(f"connection {self.id} already closing")
        self.in_box.deposit(wire.serialize([wire.CloseRequest(self.id)]),
                            timeout=timeout)
        self.state = "closing"

    def close(self, timeout: float | None = None) -> list[wire.WireRecord]:
        """Close the connection and remove its directory. Returns the
        results the manager delivered before its `(closed conn-id)`, which
        is the last deposit it makes on the connection.

        Sends the close request unless `request_close` already did. The
        directory is removed however the wait ends, so a client that gives
        up on a close (`MailboxTimeout`) leaves nothing behind for the
        manager to serve. A manager found dead while waiting raises
        `ManagerUnavailable` at once."""
        if self.state == "closed":
            raise AlreadyClosed(f"connection {self.id} already closed")
        deadline = None if timeout is None else time.monotonic() + timeout
        leftovers: list[wire.WireRecord] = []
        try:
            if self.state == "open":
                self.request_close(timeout=timeout)
            while True:
                remaining = (None if deadline is None
                             else max(0.0, deadline - time.monotonic()))
                records = self.collect(timeout=remaining)
                if records[-1:] == [wire.CloseReply(self.id)]:
                    leftovers.extend(records[:-1])
                    return leftovers
                leftovers.extend(records)
        except MailboxTimeout:
            raise MailboxTimeout(
                f"no close acknowledgment for {self.id}") from None
        except PeerGone as exc:
            raise ManagerUnavailable(
                f"manager at {self.request_root} died before acknowledging "
                f"the close of {self.id}") from exc
        finally:
            self.state = "closed"
            _discard(self.bell)


class PendingOpen:
    """An open request sent to a manager whose reply is not read yet.

    `send_open` makes one and `wait` turns it into a `Connection`, so a
    client can send open requests to several managers before it waits for
    any reply.
    """

    def __init__(self, request_root: Path, params: ConnectionParams,
                 deadline: float, conn_dir: Path):
        self.request_root = request_root
        self.params = params
        self.deadline = deadline
        self.bell = Bell(conn_dir / CONN_BELL)
        peer = manager_bell(request_root)
        self.in_box = Mailbox(conn_dir / "in", params.sleep_time, self.bell, peer)
        self.out_box = Mailbox(conn_dir / "out", params.sleep_time, self.bell,
                               peer)

    def wait(self) -> Connection:
        """The manager's reply, as a connection. Raises `ManagerUnavailable`
        if no reply came before the deadline, the manager died, the reply
        was bad or the manager refused; the connection's directory is then
        removed."""
        try:
            return self._connection()
        except ManagerUnavailable:
            _discard(self.bell)
            raise

    def _connection(self) -> Connection:
        try:
            reply_text = self.out_box.collect(
                timeout=max(0.0, self.deadline - time.monotonic()))
        except (MailboxTimeout, BoxRemoved, PeerGone) as exc:
            raise ManagerUnavailable(
                f"manager at {self.request_root} did not reply") from exc
        try:
            replies = wire.parse(reply_text)
        except ParseError:
            replies = []
        if len(replies) == 1 and isinstance(replies[0], wire.ErrorRecord):
            raise ManagerUnavailable(f"manager at {self.request_root} refused "
                                     f"the connection: {replies[0].message}")
        if len(replies) != 1 or not isinstance(replies[0], wire.OpenReply):
            raise ManagerUnavailable(f"bad open reply: {reply_text!r}")
        return Connection(replies[0].conn_id, self.in_box, self.out_box,
                          self.params, self.request_root)


def send_open(request_root: Path | str, params: ConnectionParams,
              timeout: float = 10.0) -> PendingOpen:
    """Make a connection directory beside `request_root` and ask the
    manager serving it to open a connection there, waiting for the
    manager to serve if it has not started yet. `timeout` bounds the send
    and the wait for the reply together."""
    request_root = Path(request_root)
    deadline = time.monotonic() + timeout
    while not request_root.is_dir():
        if time.monotonic() >= deadline:
            raise ManagerUnavailable(f"no manager serving {request_root}")
        time.sleep(params.sleep_time)
    conn_dir = Path(tempfile.mkdtemp(prefix=CONN_PREFIX, dir=request_root.parent))
    pending = PendingOpen(request_root, params, deadline, conn_dir)
    pending.in_box.create()
    pending.out_box.create()
    pending.bell.open()
    requests = Mailbox(request_root, params.sleep_time, pending.bell,
                       manager_bell(request_root))
    request = wire.OpenRequest(params.import_format, params.export_format,
                               params.input, conn_dir.name)
    try:
        requests.deposit(wire.serialize([request]),
                         timeout=max(0.0, deadline - time.monotonic()))
    except (MailboxTimeout, BoxRemoved, PeerGone) as exc:
        _discard(pending.bell)
        raise ManagerUnavailable(f"manager at {request_root} did not reply") from exc
    return pending


def request_connection(request_root: Path | str, params: ConnectionParams,
                       timeout: float = 10.0) -> Connection:
    """Open a connection with the manager serving `request_root`."""
    return send_open(request_root, params, timeout).wait()


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
    """The manager's side of one connection: its boxes, its component, and
    the deposits it still owes the client, in order."""

    def __init__(self, conn_id: int, conn_dir: Path,
                 request: wire.OpenRequest, sleep_time: float):
        self.id = conn_id
        client = conn_dir / CONN_BELL
        self.in_box = Mailbox(conn_dir / "in", sleep_time, peer=client)
        self.out_box = Mailbox(conn_dir / "out", sleep_time, peer=client)
        self.import_format = request.import_format
        self.export_format = request.export_format
        self.component = None
        self.owed: list[str] = []
        # the owed deposit waits until then: the next piece of a reply
        self.release_at = 0.0
        self.high_frame = 0
        # set by a refused open or a close: drop once nothing is owed
        self.ending = False

    def see(self, records) -> None:
        """Raise the connection's high-water frame to the latest end frame
        among the records' timed data records."""
        ends = [e for e in map(_end_time, records) if e is not None]
        self.high_frame = max([self.high_frame, *ends])

    def finished(self, records) -> str:
        """The records as a batch's last deposit, ending with `done`."""
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
        self.requests = Mailbox(self.request_root, sleep_time)
        self.bell = Bell(manager_bell(self.request_root))
        # by the name of the connection's directory
        self.served: dict[str, _Served] = {}
        self._next_conn = 1

    def serve(self, stop_event: threading.Event | None = None):
        """One loop: each cycle takes at most one request batch, then makes
        every connection's next owed deposit that is due or, owing none,
        takes its next input batch. Between cycles the loop waits on its
        bell, at most one poll period or until the next piece falls due,
        except after a cycle that made progress and left nothing owed.

        The bell is open before the request box exists, and is removed
        however the loop ends."""
        if stop_event is None:
            stop_event = threading.Event()  # never set: serve until removed
        self.request_root.parent.mkdir(parents=True, exist_ok=True)
        self.bell.open()
        try:
            self.requests.create()
            log.info("manager %s serving at %s", self.name, self.request_root)
            while not stop_event.is_set():
                # this cycle sees what rang so far; a later ring wakes the wait
                self.bell.drain()
                try:
                    text = self.requests.try_collect()
                except BoxRemoved:
                    break
                progressed = text is not None
                if progressed:
                    self._dispatch(text)
                for name, served in list(self.served.items()):
                    try:
                        progressed |= self._step(served)
                        gone = served.ending and not served.owed
                    except BoxRemoved:
                        log.info("manager %s: connection %s dropped, its "
                                 "boxes are gone", self.name, served.id)
                        gone = True
                    if gone:
                        del self.served[name]
                if not progressed or any(s.owed for s in self.served.values()):
                    self.bell.wait(self._timeout())
        finally:
            self.bell.close()

    def _timeout(self) -> float:
        """One poll period, or less if an owed piece falls due sooner."""
        now = time.monotonic()
        return min([self.sleep_time, *(s.release_at - now
                                       for s in self.served.values()
                                       if s.owed and s.release_at > now)])

    def _dispatch(self, text: str):
        try:
            requests = wire.parse(text)
        except (ParseError, UnknownFormatCode) as exc:
            log.warning("manager %s: unparseable request ignored: %s",
                        self.name, exc)
            return
        for request in requests:
            conn_dir = self._conn_dir(request)
            if conn_dir is None:
                log.warning("manager %s: request ignored, it names no "
                            "connection directory to answer in: %r",
                            self.name, request)
                continue
            served = _Served(self._next_conn, conn_dir, request,
                             self.sleep_time)
            self._next_conn += 1
            self.served[conn_dir.name] = served
            try:
                served.component = self.factory(request.input)
            except Exception as exc:  # a refused input must not kill the manager
                log.exception("building a component failed in %s", self.name)
                served.owed.append(wire.serialize(
                    [wire.ErrorRecord(f"component-error {exc}")]))
                served.ending = True
            else:
                served.owed.append(wire.serialize([wire.OpenReply(served.id)]))

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

    def _step(self, served: _Served) -> bool:
        """Make the next deposit owed on a connection once it is due,
        first taking its next input batch if nothing is owed. A reply's
        first deposit is due at once, each later piece one poll period
        after the one before. Returns True if this delivered the last
        deposit owed."""
        if not served.owed:
            text = served.in_box.try_collect()
            if text is None:
                return False
            served.owed = self._reply(served, text)
        now = time.monotonic()
        if now < served.release_at or not served.out_box.try_deposit(
                served.owed[0]):
            return False
        del served.owed[0]
        served.release_at = now + self.sleep_time if served.owed else 0.0
        return not served.owed

    def _reply(self, served: _Served, text: str) -> list[str]:
        """The deposits answering one batch taken from a connection's in
        box: the component's results, piecewise if the manager is
        incremental, the last deposit ending with `done`; or, for the
        connection's close request, its acknowledgment alone."""
        try:
            records = wire.parse(text, served.import_format)
        except (ParseError, UnknownFormatCode) as exc:
            return [served.finished([wire.ErrorRecord(f"import-parse-error {exc}")])]
        if records == [wire.CloseRequest(served.id)]:
            served.ending = True
            return [wire.serialize([wire.CloseReply(served.id)])]
        served.see(records)
        try:
            outputs = list(served.component(records))
        except Exception as exc:  # component faults must not kill the manager
            log.exception("component failed in %s, connection %s",
                          self.name, served.id)
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
    """Serve connection requests forever (or until `stop_event` is set, or
    the request box is removed) in a single loop on the calling thread,
    which waits on the manager's bell between cycles. `sleep_time` is the
    fallback poll period, and the gap between the pieces of an incremental
    reply. A manager waiting on its bell sees `stop_event` at its next
    wake-up, so whoever sets it rings the bell too
    (`mailbox.ring(manager_bell(request_root))`) to stop it at once.

    `factory` is called once per opened connection with the input its open
    request named (None for `-`) and returns that connection's component,
    so every component's state lives per connection. If it raises, the
    open is answered with `(error component-error_...)` and the manager
    keeps serving. A component maps a list of wire records to a list of
    wire records; it is invoked once per collected batch and holds up
    every connection of the manager while it runs. Exceptions inside it
    become error records on the out box and the manager keeps serving.
    Whatever the outcome, the last deposit made for a batch ends with a
    `(done frame)` record; the component never produces or sees one.

    Every reply goes to the out box of the connection that asked. An open
    request naming no `conn-*` directory beside the request box, and a
    request that does not parse, have no box to be answered in and are
    only logged. A close request, a batch of just `(close conn-id)` on the
    connection's in box, is answered by `(closed conn-id)` once every
    earlier batch's reply is delivered; that is the last deposit on the
    connection. A connection whose boxes are removed is dropped.
    """
    _Manager(factory, Path(request_root), name, incremental,
             sleep_time).serve(stop_event)

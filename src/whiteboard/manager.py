"""Managers: serve components to clients through mailboxes.

A manager is a long-lived server. It owns a request box (a pair of
mailboxes under ``<root>/<name>/request/{in,out}``) where clients ask to
open or close connections, and it serves any number of connections, one
after another or at once. Each connection gets its own ``conn-<id>/{in,out}``
box pair: the client writes work into the in box and reads results from
the out box, while the manager runs the opposite loops in its own process.
The open request fixes the connection's formats and names its input, and
the manager builds a fresh component for it from its factory, so no
component state is shared between connections.

The manager ends its reply to every input batch with one ``(done frame)``
record, carried by the last deposit it makes for that batch, so the client
can count the batches still outstanding instead of guessing from silence.
The client-side `Connection` does that counting and strips the records, so
its callers see exactly what the component produced.

A manager may be configured to deliver results piecewise in end-time order,
which makes a batch component look incremental to its client.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from . import wire
from .errors import (
    AlreadyClosed,
    BoxRemoved,
    DrainTimeout,
    MailboxTimeout,
    ManagerUnavailable,
    ParseError,
    UnknownFormatCode,
)
from .mailbox import Mailbox

log = logging.getLogger(__name__)

DEFAULT_SLEEP = 0.05


@dataclass(frozen=True)
class ConnectionParams:
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


class Connection:
    """Client-side handle: deposit work, collect results.

    `outstanding` counts the batches deposited whose `done` record has not
    been collected yet; `done_frame` is the highest frame those records
    carried. Collecting strips the `done` records from what it returns.
    """

    def __init__(self, conn_id: int, in_box: Mailbox, out_box: Mailbox,
                 params: ConnectionParams, request_root: Path):
        self.id = conn_id
        self.in_box = in_box
        self.out_box = out_box
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
        """Send the close request without waiting for its acknowledgment;
        `close` then only waits. Lets a client close many connections at
        once."""
        if self.state != "open":
            raise AlreadyClosed(f"connection {self.id} already closing")
        req_in, _ = _request_boxes(self.request_root, self.params.sleep_time)
        req_in.deposit(wire.serialize([wire.CloseRequest(self.id)]),
                       timeout=timeout)
        self.state = "closing"

    def close(self, timeout: float | None = None) -> list[wire.WireRecord]:
        return close_connection(self, timeout=timeout)


def _request_boxes(request_root: Path, sleep_time: float) -> tuple[Mailbox, Mailbox]:
    return (Mailbox(request_root / "in", sleep_time),
            Mailbox(request_root / "out", sleep_time))


class PendingOpen:
    """An open request sent to a manager whose reply is not read yet.

    `send_open` makes one and `wait` turns it into a `Connection`, so a
    client can send open requests to several managers before it waits for
    any reply.
    """

    def __init__(self, request_root: Path, params: ConnectionParams,
                 deadline: float):
        self.request_root = request_root
        self.params = params
        self.deadline = deadline

    def wait(self) -> Connection:
        """The manager's reply, as a connection. Raises `ManagerUnavailable`
        if no reply came before the deadline or the manager refused."""
        _, req_out = _request_boxes(self.request_root, self.params.sleep_time)
        try:
            reply_text = req_out.collect(
                timeout=max(0.0, self.deadline - time.monotonic()))
        except (MailboxTimeout, BoxRemoved) as exc:
            raise ManagerUnavailable(
                f"manager at {self.request_root} did not reply") from exc
        replies = wire.parse(reply_text)
        if len(replies) == 1 and isinstance(replies[0], wire.ErrorRecord):
            raise ManagerUnavailable(f"manager at {self.request_root} refused "
                                     f"the connection: {replies[0].message}")
        if len(replies) != 1 or not isinstance(replies[0], wire.OpenReply):
            raise ManagerUnavailable(f"bad open reply: {reply_text!r}")
        reply = replies[0]
        return Connection(reply.conn_id,
                          Mailbox(reply.in_path, self.params.sleep_time),
                          Mailbox(reply.out_path, self.params.sleep_time),
                          self.params, self.request_root)


def send_open(request_root: Path | str, params: ConnectionParams,
              timeout: float = 10.0) -> PendingOpen:
    """Send an open request to the manager serving `request_root`, waiting
    for it to serve if it has not started yet. `timeout` bounds the send
    and the wait for the reply together."""
    request_root = Path(request_root)
    req_in, req_out = _request_boxes(request_root, params.sleep_time)
    deadline = time.monotonic() + timeout
    while not (req_in.exists() and req_out.exists()):
        if time.monotonic() >= deadline:
            raise ManagerUnavailable(f"no manager serving {request_root}")
        time.sleep(params.sleep_time)
    request = wire.OpenRequest(params.sleep_time, params.import_format,
                               params.export_format, params.input)
    try:
        req_in.deposit(wire.serialize([request]),
                       timeout=max(0.0, deadline - time.monotonic()))
    except (MailboxTimeout, BoxRemoved) as exc:
        raise ManagerUnavailable(f"manager at {request_root} did not reply") from exc
    return PendingOpen(request_root, params, deadline)


def request_connection(request_root: Path | str, params: ConnectionParams,
                       timeout: float = 10.0) -> Connection:
    """Open a connection with the manager serving `request_root`."""
    return send_open(request_root, params, timeout).wait()


def close_connection(conn: Connection, timeout: float | None = None) -> list[wire.WireRecord]:
    """Close a connection; drains and returns any undelivered results.

    Sends the close request unless `request_close` already did. Several
    connections to one manager are closed by waiting on them in the order
    their requests were sent, since the manager acknowledges in that order.
    Raises `DrainTimeout` if the manager removed the out box while it still
    held a batch.
    """
    if conn.state == "closed":
        raise AlreadyClosed(f"connection {conn.id} already closed")
    if conn.state == "open":
        conn.request_close(timeout=timeout)
    _, req_out = _request_boxes(conn.request_root, conn.params.sleep_time)
    leftovers: list[wire.WireRecord] = []
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        # the manager keeps delivering until its out loop drains, so keep
        # consuming while waiting for the acknowledgment
        try:
            text = conn.out_box.try_collect()
            if text is not None:
                leftovers.extend(conn._parse_results(text))
        except BoxRemoved:
            pass
        reply_text = req_out.try_collect()
        if reply_text is not None:
            replies = wire.parse(reply_text)
            if any(isinstance(r, wire.CloseReply) and r.conn_id == conn.id
                   for r in replies):
                break
        if deadline is not None and time.monotonic() >= deadline:
            raise MailboxTimeout(f"no close acknowledgment for {conn.id}")
        time.sleep(conn.params.sleep_time)
    conn.state = "closed"
    for reply in replies:
        if (isinstance(reply, wire.ErrorRecord)
                and reply.message.startswith("drain-timeout")):
            raise DrainTimeout(
                f"connection {conn.id} ({reply.message}): the manager removed "
                f"its out box with a batch still uncollected")
    return leftovers


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


def incremental_deliver(batch_result, box: Mailbox, export_format: str,
                        sleep_time: float, trailer=()) -> int:
    """Deposit a batch piecewise, one piece per writer cycle, with the
    `trailer` records appended to the last piece. Returns the number of
    deposits made; an empty batch makes one for a non-empty trailer and
    none otherwise."""
    pieces = partition_by_end(batch_result) or [[]]
    pieces[-1] = [*pieces[-1], *trailer]
    if not pieces[-1]:
        return 0
    for i, piece in enumerate(pieces):
        if i:
            time.sleep(sleep_time)
        box.deposit(wire.serialize(piece, export_format))
    return len(pieces)


# -- the manager service loop ---------------------------------------------------

class _ConnectionWorker(threading.Thread):
    """Manager-side loops for one connection: read work, run the component,
    deliver results, and end each batch's delivery with a `done` record."""

    def __init__(self, manager: "_Manager", conn_id: int, params: ConnectionParams,
                 component, in_box: Mailbox, out_box: Mailbox):
        super().__init__(daemon=True, name=f"{manager.name}-conn-{conn_id}")
        self.manager = manager
        self.conn_id = conn_id
        self.params = params
        self.component = component
        self.in_box = in_box
        self.out_box = out_box
        self.stop_requested = threading.Event()
        self.high_frame = 0

    def run(self):
        while True:
            try:
                text = self.in_box.try_collect()
            except BoxRemoved:
                return
            if text is None:
                if self.stop_requested.is_set():
                    return
                self.stop_requested.wait(self.params.sleep_time)
                continue
            self._handle(text)

    def _handle(self, text: str):
        try:
            records = wire.parse(text, self.params.import_format)
        except ParseError as exc:
            self._emit([wire.ErrorRecord(f"import-parse-error {exc}")])
            return
        self._see(records)
        try:
            outputs = list(self.component(records))
        except Exception as exc:  # component faults must not kill the manager
            log.exception("component failed in %s", self.name)
            self._emit([wire.ErrorRecord(f"component-error {exc}")])
            return
        self._see(outputs)
        try:
            if self.manager.incremental:
                incremental_deliver(outputs, self.out_box,
                                    self.params.export_format,
                                    self.params.sleep_time,
                                    [wire.DoneRecord(self.high_frame)])
            else:
                self._emit(outputs)
        except BoxRemoved:
            return
        except ValueError as exc:
            # serializing failed before the piece carrying `done` went out
            self._emit([wire.ErrorRecord(f"export-error {exc}")])

    def _see(self, records):
        """Raise the connection's high-water frame to the latest end frame
        among the records' timed data records."""
        ends = [e for e in map(_end_time, records) if e is not None]
        self.high_frame = max([self.high_frame, *ends])

    def _emit(self, records):
        """Deposit the last (here: only) delivery for a batch."""
        try:
            self.out_box.deposit(wire.serialize(
                [*records, wire.DoneRecord(self.high_frame)],
                self.params.export_format))
        except BoxRemoved:
            pass


class _Manager:
    def __init__(self, factory, request_root: Path, name: str,
                 incremental: bool, sleep_time: float):
        self.factory = factory
        self.request_root = Path(request_root)
        self.name = name
        self.incremental = incremental
        self.sleep_time = sleep_time
        self.req_in, self.req_out = _request_boxes(self.request_root, sleep_time)
        self.workers: dict[int, _ConnectionWorker] = {}
        self._next_conn = 1

    def serve(self, stop_event: threading.Event | None = None):
        if stop_event is None:
            stop_event = threading.Event()  # never set: serve until removed
        self.req_in.create()
        self.req_out.create()
        log.info("manager %s serving at %s", self.name, self.request_root)
        while not stop_event.is_set():
            try:
                text = self.req_in.try_collect()
            except BoxRemoved:
                break
            if text is None:
                stop_event.wait(self.sleep_time)
                continue
            try:
                requests = wire.parse(text)
            except ParseError as exc:
                self._reply([wire.ErrorRecord(f"bad-request {exc}")])
                continue
            for request in requests:
                self._dispatch(request)
        for worker in self.workers.values():  # no one is left to close them
            worker.stop_requested.set()
            worker.join(timeout=60 * worker.params.sleep_time)

    def _dispatch(self, request):
        if isinstance(request, wire.OpenRequest):
            try:
                params = ConnectionParams(request.sleep_time,
                                          request.import_format,
                                          request.export_format,
                                          request.input)
            except (UnknownFormatCode, ValueError) as exc:
                self._reply([wire.ErrorRecord(f"bad-params {exc}")])
                return
            try:
                component = self.factory(params.input)
            except Exception as exc:  # a refused input must not kill the manager
                log.exception("building a component failed in %s", self.name)
                self._reply([wire.ErrorRecord(f"component-error {exc}")])
                return
            conn_id = self._next_conn
            self._next_conn += 1
            conn_root = self.request_root.parent / f"conn-{conn_id}"
            in_box = Mailbox(conn_root / "in", params.sleep_time).create()
            out_box = Mailbox(conn_root / "out", params.sleep_time).create()
            worker = _ConnectionWorker(self, conn_id, params, component,
                                       in_box, out_box)
            self.workers[conn_id] = worker
            worker.start()
            self._reply([wire.OpenReply(conn_id, str(in_box.path),
                                        str(out_box.path))])
        elif isinstance(request, wire.CloseRequest):
            worker = self.workers.pop(request.conn_id, None)
            if worker is None:
                self._reply([wire.ErrorRecord(f"no-such-connection {request.conn_id}")])
                return
            worker.stop_requested.set()
            worker.join(timeout=60 * worker.params.sleep_time)
            drained = self._await_drained(worker.out_box)
            worker.in_box.remove()
            worker.out_box.remove()
            try:
                worker.in_box.path.parent.rmdir()
            except OSError:
                pass
            reply = [wire.CloseReply(request.conn_id)]
            if not drained:
                log.warning("connection %s closed with its out box uncollected",
                            request.conn_id)
                reply.insert(0, wire.ErrorRecord(f"drain-timeout {request.conn_id}"))
            self._reply(reply)

    def _await_drained(self, box: Mailbox, cycles: int = 60) -> bool:
        """Give the client's reader a bounded window to take the last
        batch. Returns False if the batch is still there afterwards."""
        for _ in range(cycles):
            try:
                if not box.is_full():
                    return True
            except BoxRemoved:
                return True
            time.sleep(box.sleep_time)
        return False

    def _reply(self, records):
        try:
            self.req_out.deposit(wire.serialize(records))
        except BoxRemoved:
            pass


def run_manager(factory, request_root: Path | str, *, name: str = "manager",
                incremental: bool = False, sleep_time: float = DEFAULT_SLEEP,
                stop_event: threading.Event | None = None) -> None:
    """Serve connection requests forever (or until `stop_event` is set).

    `factory` is called once per opened connection with the input its open
    request named (None for `-`) and returns that connection's component,
    so every component's state lives per connection. If it raises, the
    open is answered with `(error component-error_...)` and the manager
    keeps serving. A component maps a list of wire records to a list of
    wire records; it is invoked once per collected batch. Exceptions
    inside it become error records on the out box and the manager keeps
    serving. Whatever the outcome, the last deposit made for a batch ends
    with a `(done frame)` record; the component never produces or sees
    one. A close request is acknowledged with `(closed conn-id)`, preceded
    in the same reply by `(error drain-timeout_<conn-id>)` if the client
    left a batch uncollected.
    """
    _Manager(factory, Path(request_root), name, incremental,
             sleep_time).serve(stop_event)

import logging
import os
import signal
import stat
import subprocess
import sys
import threading
import time

import pytest

from whiteboard import Thresholds, load_grammar, wire
from whiteboard.components import IslandParser, MatrixSource
from whiteboard.errors import (
    AlreadyClosed,
    MailboxTimeout,
    ManagerUnavailable,
    PeerGone,
    UnknownFormatCode,
)
from whiteboard.manager import (
    ConnectionParams,
    _Manager,
    partition_by_end,
    request_connection,
    run_manager,
)
from whiteboard.mailbox import Channel, Mailbox
from oracles import identity_component
from stopping import WakingStop
from utterances import spliced_utterances

SLEEP = 0.005


class hosted_manager:
    """Run a manager service loop in a daemon thread for the test's scope,
    serving one component instance on every connection, or a fresh one per
    connection from `factory`."""

    def __init__(self, tmp_path, component=None, incremental=False, name="m",
                 sleep_time=SLEEP, factory=None):
        self.root = tmp_path / name / "request"
        self.stop = WakingStop()
        self.stop.add(self.root)
        self.thread = threading.Thread(
            target=run_manager,
            args=(factory or (lambda _input: component), self.root),
            kwargs={"incremental": incremental, "sleep_time": sleep_time,
                    "name": name, "stop_event": self.stop},
            daemon=True)

    def __enter__(self):
        self.thread.start()
        return self.root

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join(timeout=5.0)
        return False


def params(imp="edge-v1", exp="edge-v1"):
    return ConnectionParams(imp, exp)


def edges(*seq):
    return [wire.EdgeRecord(i, i + 1, "h", 0.5) for i in seq]


def test_bad_format_code_rejected_before_any_traffic():
    with pytest.raises(UnknownFormatCode):
        ConnectionParams("bogus", "edge-v1")


@pytest.mark.parametrize("source", ["two words.mat", "u(1).mat", "", "-"])
def test_an_input_that_is_not_a_wire_token_is_rejected_before_any_traffic(source):
    with pytest.raises(ValueError):
        ConnectionParams("edge-v1", "edge-v1", source)


def test_an_input_too_long_for_one_open_request_is_rejected_before_any_traffic(
        tmp_path):
    longest = "x" * wire.MAX_INPUT_BYTES
    # counted in bytes: each of these characters takes two
    for source in (longest + "x", "\u00e9" * (wire.MAX_INPUT_BYTES // 2 + 1)):
        with pytest.raises(ValueError, match="does not fit an open request"):
            ConnectionParams("edge-v1", "edge-v1", source)
    # the longest input goes over with the longest format codes
    inputs = []

    def factory(source):
        inputs.append(source)
        return identity_component

    with hosted_manager(tmp_path, factory=factory) as root:
        conn = request_connection(root, ConnectionParams(
            "inactive-edge-v1", "inactive-edge-v1", longest))
        conn.close(timeout=5.0)
    assert inputs == [longest]


def test_the_factory_builds_each_connection_its_component_from_its_input(tmp_path):
    def factory(source):
        if source is None:
            raise ValueError("this component needs an input")
        return lambda records: [wire.ErrorRecord(source)]

    with hosted_manager(tmp_path, factory=factory) as root:
        refused = request_connection(root, params())
        # the refusal is the one frame on out, and then the manager hangs up
        assert refused.collect(timeout=5.0) == [wire.ErrorRecord(
            "component-error_this_component_needs_an_input")]
        with pytest.raises(ManagerUnavailable, match="without acknowledging"):
            refused.close(timeout=5.0)
        # the refusal left the manager serving
        conns = {source: request_connection(
                     root, ConnectionParams("edge-v1", "edge-v1", source))
                 for source in ("a.mat", "b.mat")}
        for source, conn in conns.items():
            conn.deposit([], timeout=5.0)
            assert conn.collect(timeout=5.0) == [wire.ErrorRecord(source)]
            conn.close(timeout=5.0)


def test_interleaved_connections_to_one_parser_manager_keep_apart(
        tmp_path, fixtures_dir):
    grammar = load_grammar((fixtures_dir / "words.grammar").read_text())
    thresholds = Thresholds(2, 2)

    def parser(_input):
        return IslandParser(grammar, thresholds)

    # each utterance's cells in the pieces its source would deliver
    first, second = (partition_by_end(MatrixSource(path, 3)([]))
                     for path in spliced_utterances(fixtures_dir,
                                                    tmp_path / "spliced")[1:])

    def replies(conn, batches):
        out = []
        for batch in batches:
            conn.deposit(batch, timeout=5.0)
            out.append(conn.collect(timeout=5.0))
        conn.close(timeout=5.0)
        return out

    alone = []
    for i, batches in enumerate((first, second)):
        with hosted_manager(tmp_path, factory=parser, name=f"alone{i}") as root:
            alone.append(replies(request_connection(
                root, params("edge-v1", "inactive-edge-v1")), batches))
    assert alone[0] != alone[1]

    shared = ([], [])
    with hosted_manager(tmp_path, factory=parser, name="shared") as root:
        conns = [request_connection(root, params("edge-v1", "inactive-edge-v1"))
                 for _ in range(2)]
        for i in range(max(len(first), len(second))):
            for conn, batches, out in zip(conns, (first, second), shared):
                if i < len(batches):
                    conn.deposit(batches[i], timeout=5.0)
                    out.append(conn.collect(timeout=5.0))
        for conn in conns:
            conn.close(timeout=5.0)
    assert list(shared) == alone


def test_open_creates_fresh_boxes_and_echo_works(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        conn_dir = conn.in_channel.path.parent
        assert sorted(p.name for p in conn_dir.iterdir()) == ["in", "out"]
        assert all(stat.S_ISFIFO(p.stat().st_mode) for p in conn_dir.iterdir())
        assert conn.out_channel.try_collect() is None  # nothing in flight
        batch = edges(0, 1, 2)
        conn.deposit(batch, timeout=5.0)
        assert conn.collect(timeout=5.0) == batch


def test_every_deposited_batch_reappears(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        for i in range(5):
            batch = edges(i)
            conn.deposit(batch, timeout=5.0)
            assert conn.collect(timeout=5.0) == batch


def test_two_connections_are_independent(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        a = request_connection(root, params())
        b = request_connection(root, params())
        assert a.in_channel.path != b.in_channel.path
        a.deposit(edges(1), timeout=5.0)
        b.deposit(edges(2), timeout=5.0)
        assert b.collect(timeout=5.0) == edges(2)
        assert a.collect(timeout=5.0) == edges(1)


def test_manager_unavailable_when_nobody_serves(tmp_path):
    from whiteboard.errors import ManagerUnavailable
    with pytest.raises(ManagerUnavailable):
        request_connection(tmp_path / "nobody" / "request", params(),
                           timeout=0.05)


def test_close_acknowledges_and_removes_boxes(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        conn.request_close(timeout=5.0)
        with pytest.raises(AlreadyClosed):
            conn.request_close(timeout=5.0)
        leftovers = conn.close(timeout=5.0)
        assert leftovers == []
        assert conn.state == "closed"
        assert not conn.in_channel.path.parent.exists()
        with pytest.raises(AlreadyClosed):
            conn.close(timeout=5.0)
        with pytest.raises(AlreadyClosed):
            conn.deposit(edges(0), timeout=5.0)


@pytest.mark.parametrize("incremental", [False, True])
def test_close_delivers_pending_content_first(tmp_path, incremental):
    with hosted_manager(tmp_path, identity_component,
                        incremental=incremental) as root:
        conn = request_connection(root, params())
        conn.deposit(edges(0, 1, 2), timeout=5.0)  # three end frames
        # do not collect; close must hand the undelivered reply over, every
        # piece in order, before its acknowledgment
        leftovers = conn.close(timeout=5.0)
        assert leftovers == edges(0, 1, 2)
        assert not list(root.parent.glob("conn-*"))


def test_clients_sharing_a_manager_get_only_their_own_replies(tmp_path):
    failures = []

    def client(root, tag):
        try:
            for trial in range(10):
                conn = request_connection(root, params())
                batch = edges(100 * tag + trial)
                conn.deposit(batch, timeout=5.0)
                assert conn.collect(timeout=5.0) == batch
                assert conn.close(timeout=5.0) == []
        except Exception as exc:
            failures.append(f"client {tag}: {exc!r}")

    with hosted_manager(tmp_path, identity_component) as root:
        clients = [threading.Thread(target=client, args=(root, tag))
                   for tag in (1, 2)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in clients)
    assert failures == []


def test_an_open_naming_no_connection_directory_of_its_own_is_only_logged(
        tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="whiteboard.manager")
    manager = hosted_manager(tmp_path, identity_component)
    (tmp_path / "elsewhere").mkdir()
    (manager.root.parent / "plain").mkdir(parents=True)
    with manager as root:
        wait_for_request_box(root)
        before = sorted(tmp_path.rglob("*"))
        bad = ["../elsewhere", str(tmp_path / "elsewhere"), "conn-missing",
               "plain"]
        # in one write, so read at once: the unparseable line, first, costs
        # only itself, the blank line nothing, and so does a record that
        # asks for no connection
        assert Mailbox(root).try_deposit("(open edge-v1\n\n" + wire.serialize(
            [wire.CloseReply(), *(wire.OpenRequest("edge-v1", "edge-v1", None, name)
                                  for name in bad)]))
        # answered only once the manager has taken every earlier request
        conn = request_connection(root, params())
        conn.deposit(edges(0), timeout=5.0)
        assert conn.collect(timeout=5.0) == edges(0)
        conn.close(timeout=5.0)
        assert sorted(tmp_path.rglob("*")) == before
    ignored = [r.getMessage() for r in caplog.records
               if r.name == "whiteboard.manager" and "ignored" in r.getMessage()]
    assert len(ignored) == len(bad) + 2
    for name in [*map(repr, bad), "CloseReply()"]:
        assert any(name in message for message in ignored)


def test_a_client_that_gives_up_removes_its_connection(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="whiteboard.manager")
    # an open nobody serves: this test reads the box, and opens nothing
    (tmp_path / "silent").mkdir()
    silent = Mailbox(tmp_path / "silent" / "request").open()
    try:
        conn = request_connection(silent.path, params())
        with pytest.raises(MailboxTimeout):
            conn.close(timeout=0.1)
        # a box that nobody empties fills up: the open gives up in time
        for line in ("x" * 4000 + "\n", "\n"):
            while Mailbox(silent.path).try_deposit(line):
                pass
        with pytest.raises(ManagerUnavailable, match="stayed full"):
            request_connection(silent.path, params(), timeout=0.1)
    finally:
        silent.close()
    assert not list(silent.path.parent.glob("conn-*"))

    # a close nobody answers: the manager is held up in its component
    release = threading.Event()

    def held(records):
        release.wait(timeout=5.0)
        return records

    with hosted_manager(tmp_path, held, name="held") as root:
        conn = request_connection(root, params())
        conn.deposit(edges(0), timeout=5.0)
        try:
            with pytest.raises(MailboxTimeout):
                conn.close(timeout=0.1)
        finally:
            release.set()
        assert not list(root.parent.glob("conn-*"))

    # a manager that stopped has hung up: its close fails at once
    stopped = hosted_manager(tmp_path, identity_component, name="stopped")
    with stopped as root:
        conn = request_connection(root, params())
    with pytest.raises(ManagerUnavailable):
        conn.close(timeout=5.0)
    assert not list(root.parent.glob("conn-*"))

    # the manager drops a connection whose client hung up, and serves on
    with hosted_manager(tmp_path, identity_component) as root:
        gone, kept = (request_connection(root, params()) for _ in range(2))
        gone.deposit(edges(9), timeout=5.0)  # answered once the open is taken
        assert gone.collect(timeout=5.0) == edges(9)
        gone.in_channel.close()  # as a client that died would
        gone.out_channel.close()
        for i in range(3):
            kept.deposit(edges(i), timeout=5.0)
            assert kept.collect(timeout=5.0) == edges(i)
        assert any(f"connection {gone.in_channel.path.parent.name} dropped"
                   in r.getMessage()
                   for r in caplog.records)
        kept.close(timeout=5.0)


def test_component_fault_becomes_error_record_and_service_continues(tmp_path):
    calls = []

    def flaky(records):
        calls.append(len(records))
        if len(calls) == 1:
            raise RuntimeError("injected fault")
        return records

    with hosted_manager(tmp_path, flaky) as root:
        conn = request_connection(root, params())
        conn.deposit(edges(0), timeout=5.0)
        [error] = conn.collect(timeout=5.0)
        assert isinstance(error, wire.ErrorRecord)
        assert "component-error" in error.message
        conn.deposit(edges(1), timeout=5.0)
        assert conn.collect(timeout=5.0) == edges(1)


def test_manager_survives_unparseable_batch(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        conn.in_channel.deposit("(not a record\n", timeout=5.0)
        [error] = conn.collect(timeout=5.0)
        assert isinstance(error, wire.ErrorRecord)
        conn.deposit(edges(3), timeout=5.0)
        assert conn.collect(timeout=5.0) == edges(3)


# -- incremental delivery ------------------------------------------------------

def test_partition_by_distinct_end_frames():
    batch = [wire.EdgeRecord(0, 3, "a", 0.1), wire.EdgeRecord(1, 3, "b", 0.2),
             wire.EdgeRecord(2, 6, "c", 0.3), wire.EdgeRecord(3, 9, "d", 0.4)]
    pieces = partition_by_end(batch)
    assert [len(p) for p in pieces] == [2, 1, 1]
    flattened = [r for piece in pieces for r in piece]
    assert sorted(flattened, key=lambda r: (r.end, r.begin)) == batch
    ends = [p[0].end for p in pieces]
    assert ends == sorted(ends)


def test_partition_single_and_empty():
    record = wire.EdgeRecord(0, 3, "a", 0.1)
    assert partition_by_end([record]) == [[record]]
    assert partition_by_end([]) == []


def test_partition_places_arcs_with_their_later_endpoint():
    batch = [wire.NodeRecord(1, 0, 3, "a", 0.1),
             wire.NodeRecord(2, 3, 6, "b", 0.2),
             wire.ArcRecord(9, 1, 2, 0.0)]
    pieces = partition_by_end(batch)
    assert len(pieces) == 2
    assert pieces[1] == [wire.NodeRecord(2, 3, 6, "b", 0.2),
                         wire.ArcRecord(9, 1, 2, 0.0)]


def test_incremental_manager_delivers_multiple_batches(tmp_path):
    batch = edges(0, 1, 2)  # three distinct end frames

    def source(records):
        return batch

    with hosted_manager(tmp_path, source, incremental=True) as root:
        conn = request_connection(root, params())
        conn.deposit([], timeout=5.0)
        got = []
        for _ in range(3):
            got.extend(conn.collect(timeout=5.0))
        assert got == batch


# -- the done record ------------------------------------------------------------

def raw_replies(conn, count):
    """The next `count` frames on the out channel, parsed but not stripped."""
    return [wire.parse(conn.out_channel.collect(timeout=5.0),
                       conn.params.export_format) for _ in range(count)]


def assert_nothing_more(conn):
    time.sleep(10 * SLEEP)
    assert conn.out_channel.try_collect() is None


def test_done_ends_a_non_incremental_reply(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        conn.in_channel.deposit(wire.serialize(edges(0, 4, 2), "edge-v1"))
        [reply] = raw_replies(conn, 1)
        assert reply == edges(0, 4, 2) + [wire.DoneRecord(5)]
        assert_nothing_more(conn)


def test_done_rides_on_the_last_incremental_piece(tmp_path):
    def source(records):
        return edges(0, 1, 2)  # three distinct end frames

    with hosted_manager(tmp_path, source, incremental=True) as root:
        conn = request_connection(root, params())
        conn.in_channel.deposit("")
        pieces = raw_replies(conn, 3)
        assert pieces == [edges(0), edges(1), edges(2) + [wire.DoneRecord(3)]]
        assert_nothing_more(conn)


def test_done_alone_answers_an_empty_output(tmp_path):
    with hosted_manager(tmp_path, lambda records: []) as root:
        conn = request_connection(root, params())
        conn.in_channel.deposit(wire.serialize(edges(0, 1, 2), "edge-v1"))
        [reply] = raw_replies(conn, 1)
        assert reply == [wire.DoneRecord(3)]  # the inputs' last end frame
        assert_nothing_more(conn)


def test_done_follows_a_component_error(tmp_path):
    def broken(records):
        raise RuntimeError("injected fault")

    with hosted_manager(tmp_path, broken, incremental=True) as root:
        conn = request_connection(root, params())
        conn.in_channel.deposit(wire.serialize(edges(6), "edge-v1"))
        [[error, done]] = raw_replies(conn, 1)
        assert isinstance(error, wire.ErrorRecord)
        assert "component-error" in error.message
        assert done == wire.DoneRecord(7)
        assert_nothing_more(conn)


def test_connection_counts_outstanding_batches(tmp_path):
    release = threading.Event()

    def gated(records):
        release.wait(timeout=5.0)
        return records

    with hosted_manager(tmp_path, gated) as root:
        conn = request_connection(root, params())
        assert (conn.outstanding, conn.done_frame) == (0, 0)
        conn.deposit(edges(2), timeout=5.0)
        conn.deposit(edges(8), timeout=5.0)
        assert conn.outstanding == 2
        release.set()
        assert conn.collect(timeout=5.0) == edges(2)  # done stripped
        assert (conn.outstanding, conn.done_frame) == (1, 3)
        assert conn.collect(timeout=5.0) == edges(8)
        assert (conn.outstanding, conn.done_frame) == (0, 9)


def test_a_manager_told_to_stop_ends_without_waiting_out_its_poll(tmp_path):
    manager = hosted_manager(tmp_path, identity_component, sleep_time=2.0)
    with manager:
        time.sleep(0.1)  # found its request box empty; now idling until the next poll
        manager.stop.set()
        manager.thread.join(timeout=0.5)
        assert not manager.thread.is_alive()


# -- wake-ups -----------------------------------------------------------------

def wait_for_request_box(root, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not root.exists():
        assert time.monotonic() < deadline, "the manager never served"
        time.sleep(SLEEP)


def test_a_round_trip_takes_well_inside_one_poll(tmp_path):
    poll = 1.0
    with hosted_manager(tmp_path, identity_component, sleep_time=poll) as root:
        wait_for_request_box(root)
        start = time.monotonic()
        conn = request_connection(root, params())
        conn.deposit(edges(0, 1), timeout=5.0)
        assert conn.collect(timeout=5.0) == edges(0, 1)
        conn.close(timeout=5.0)
        assert time.monotonic() - start < 0.3


def test_an_incremental_manager_keeps_its_pieces_one_poll_apart(
        tmp_path, monkeypatch):
    poll = 0.05
    released = []  # when the manager began each frame it wrote on out
    deposit = Channel.try_deposit

    def timed_deposit(channel, text):
        start = time.monotonic()
        done = deposit(channel, text)
        if done and channel.path.name == "out":
            released.append(start)
        return done

    monkeypatch.setattr(Channel, "try_deposit", timed_deposit)
    with hosted_manager(tmp_path, identity_component, incremental=True,
                        sleep_time=poll) as root:
        conn = request_connection(root, params())
        conn.deposit(edges(*range(6)), timeout=5.0)
        while conn.outstanding:
            assert conn.collect(timeout=5.0)  # as soon as the frame lands
            # wakes the manager, as other connections' traffic would
            assert Mailbox(root).try_deposit("\n")
        conn.close(timeout=5.0)
    pieces = released[:-1]  # all but the close's reply
    assert len(pieces) == 6
    gaps = [b - a for a, b in zip(pieces, pieces[1:])]
    assert min(gaps) >= 0.045, gaps


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_connections_leave_no_descriptor_and_a_stopped_manager_no_request_box(
        tmp_path):
    manager = hosted_manager(tmp_path, identity_component)
    with manager as root:
        wait_for_request_box(root)
        assert stat.S_ISFIFO(root.stat().st_mode)
        before = open_fds()
        for i in range(20):
            conn = request_connection(root, params())
            conn.deposit(edges(i), timeout=5.0)
            assert conn.collect(timeout=5.0) == edges(i)
            conn.close(timeout=5.0)
        assert open_fds() == before
    assert not manager.thread.is_alive()
    # neither its request box nor the temporary it was made under
    assert list(root.parent.iterdir()) == []


def test_a_killed_manager_process_fails_opens_and_closes_at_once(
        tmp_path, fixtures_dir):
    root = tmp_path / "parser" / "request"
    worker = subprocess.Popen(
        [sys.executable, "-m", "whiteboard.workers", "parser",
         "--request-box", str(root), "--sleep", "0.05",
         "--grammar", str(fixtures_dir / "words.grammar")],
        stderr=subprocess.DEVNULL)
    try:
        wait_for_request_box(root, timeout=30.0)
        conn = request_connection(root, params())
        # killed before or after it took the open
        worker.send_signal(signal.SIGKILL)
        worker.wait(timeout=10)
        start = time.monotonic()
        with pytest.raises(ManagerUnavailable):
            conn.close(timeout=5.0)  # all 5 s without the hang-up
        assert time.monotonic() - start < 1.0
        assert not list(root.parent.glob("conn-*"))
        start = time.monotonic()
        with pytest.raises(ManagerUnavailable):
            request_connection(root, params())  # 10 s
        assert time.monotonic() - start < 1.0
        assert not list(root.parent.glob("conn-*"))
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait(timeout=10)


def test_a_manager_gone_before_it_took_the_open_fails_every_wait_at_once(
        tmp_path):
    root = tmp_path / "m" / "request"
    root.parent.mkdir()
    os.mkfifo(root)
    # the test reads the box as a manager that takes nothing would
    box_reader = os.open(root, os.O_RDONLY | os.O_NONBLOCK)
    conn = request_connection(root, params())
    os.close(box_reader)  # the manager dies, the open untaken
    start = time.monotonic()
    with pytest.raises(ManagerUnavailable, match="before it took the open"):
        conn.collect(timeout=5.0)
    with pytest.raises(ManagerUnavailable, match="before it took the open"):
        conn.deposit(edges(*range(5000)), timeout=5.0)  # more than `in` holds
    assert conn.in_channel.pending
    with pytest.raises(ManagerUnavailable, match="before it took the open"):
        conn.close(timeout=5.0)  # its tail never fits
    assert time.monotonic() - start < 1.0
    assert not list(root.parent.glob("conn-*"))


def test_a_client_that_has_heard_from_its_manager_asks_its_box_no_more(
        tmp_path):
    root = tmp_path / "m" / "request"
    root.parent.mkdir()
    os.mkfifo(root)
    box_reader = os.open(root, os.O_RDONLY | os.O_NONBLOCK)
    try:
        conn = request_connection(root, params())
        assert os.read(box_reader, 4096).startswith(b"(open ")
        # the test answers on `out` as the manager would
        out = Channel(conn.out_channel.path).open_writer()
        out.deposit(wire.serialize([]), timeout=5.0)
        assert conn.collect(timeout=5.0) == []
        conn.check_manager()  # the manager took the open: its `out` tells
        assert os.read(box_reader, 4096) == b""  # no blank line came
        out.close()
        with pytest.raises(ManagerUnavailable, match="without acknowledging"):
            conn.close(timeout=5.0)
    finally:
        os.close(box_reader)


def test_a_full_in_channel_of_a_manager_that_hung_up_fails_its_close_at_once(
        tmp_path):
    def refuse(_input):
        raise ValueError("no component")

    with hosted_manager(tmp_path, factory=refuse) as root:
        conn = request_connection(root, params())
        # `in` keeps what fits, though the manager has let it go
        assert conn.try_deposit(edges(*range(5000)))
        assert conn.in_channel.pending
        deadline = time.monotonic() + 5.0
        while not conn.out_channel.hung_up():
            assert time.monotonic() < deadline, "the manager never hung up"
            time.sleep(SLEEP)
        start = time.monotonic()
        with pytest.raises(ManagerUnavailable, match="before it read its input"):
            conn.close(timeout=5.0)
        assert time.monotonic() - start < 1.0
        assert not list(root.parent.glob("conn-*"))


def served_by_hand(tmp_path, poll=SLEEP):
    """A manager serving on a daemon thread, whose connections the test can
    see, and its stop event."""
    manager = _Manager(lambda _input: identity_component,
                       tmp_path / "m" / "request", "m", False, poll)
    stop = WakingStop()
    stop.add(manager.request_root)
    thread = threading.Thread(target=manager.serve, args=(stop,), daemon=True)
    thread.start()
    wait_for_request_box(manager.request_root)
    return manager, stop, thread


def held_up(manager):
    """Hold the manager up in a component call, through a connection of its
    own, until the returned event is set; returns the event and that
    connection."""
    entered, release = threading.Event(), threading.Event()

    def held(records):
        entered.set()
        release.wait(timeout=5.0)
        return records

    factory, manager.factory = manager.factory, (lambda _input: held)
    conn = request_connection(manager.request_root, params())
    conn.deposit(edges(0), timeout=5.0)
    assert entered.wait(timeout=5.0)
    manager.factory = factory  # the manager waits in `held` meanwhile
    return release, conn


def test_batches_written_before_the_manager_opened_in_are_served(tmp_path):
    manager, stop, thread = served_by_hand(tmp_path)
    try:
        release, holding = held_up(manager)
        early = request_connection(manager.request_root, params())
        early.deposit(edges(1), timeout=5.0)
        closed = request_connection(manager.request_root, params())
        closed.deposit(edges(2), timeout=5.0)
        closed.request_close(timeout=5.0)  # hung up before the open, too
        assert len(manager.served) == 1  # neither open is taken yet
        release.set()
        assert early.collect(timeout=5.0) == edges(1)
        assert closed.close(timeout=5.0) == edges(2)
        assert early.close(timeout=5.0) == []
        assert holding.close(timeout=5.0) == edges(0)
    finally:
        stop.set()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_the_opens_a_stopped_manager_had_not_taken_fail_at_once(tmp_path):
    manager, stop, thread = served_by_hand(tmp_path)
    try:
        release, holding = held_up(manager)
        conn = request_connection(manager.request_root, params())
        stop.set()  # seen before the manager reads its box again
        release.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        start = time.monotonic()
        with pytest.raises(ManagerUnavailable, match="before it took the open"):
            conn.close(timeout=5.0)
        assert time.monotonic() - start < 1.0  # not the close's 5 s
        with pytest.raises(ManagerUnavailable, match="without acknowledging"):
            holding.close(timeout=5.0)
    finally:
        stop.set()
        thread.join(timeout=5.0)
    assert not list(manager.request_root.parent.iterdir())


def test_a_connection_abandoned_before_its_in_channel_opened_is_dropped(
        tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="whiteboard.manager")
    manager, stop, thread = served_by_hand(tmp_path)
    try:
        release, holding = held_up(manager)
        before = open_fds()
        conn = request_connection(manager.request_root, params())
        conn.deposit(edges(1), timeout=5.0)
        conn.in_channel.close()  # the client dies before the open is taken
        conn.out_channel.close()
        release.set()
        assert holding.collect(timeout=5.0) == edges(0)
        deadline = time.monotonic() + 1.0
        while manager.served.keys() - {holding.in_channel.path.parent.name}:
            assert time.monotonic() < deadline, "not dropped"
            time.sleep(SLEEP)
        while open_fds() != before:  # the manager's ends are closed
            assert time.monotonic() < deadline, "descriptors left open"
            time.sleep(SLEEP)
        holding.close(timeout=5.0)
    finally:
        stop.set()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    name = conn.in_channel.path.parent.name
    assert any(name in r.getMessage() and "nobody reads" in r.getMessage()
               for r in caplog.records)


def test_a_client_that_hangs_up_in_gets_every_owed_reply_then_closed(tmp_path):
    with hosted_manager(tmp_path, identity_component, incremental=True) as root:
        conn = request_connection(root, params())
        conn.deposit(edges(0, 1), timeout=5.0)
        conn.deposit(edges(4), timeout=5.0)
        conn.in_channel.hang_up()  # no `close`: the client reads on
        assert raw_replies(conn, 4) == [
            edges(0), edges(1) + [wire.DoneRecord(2)],
            edges(4) + [wire.DoneRecord(5)], [wire.CloseReply()]]
        with pytest.raises(PeerGone):  # then the manager hangs up
            conn.out_channel.collect(timeout=5.0)
        conn.out_channel.close()


def test_a_client_that_leaves_an_opened_connection_is_dropped_at_once(tmp_path):
    manager, stop, thread = served_by_hand(tmp_path, poll=5.0)
    try:
        conn = request_connection(manager.request_root, params())
        deadline = time.monotonic() + 1.0
        while not manager.served:  # the manager opens its ends
            assert time.monotonic() < deadline, "the open was not taken"
            time.sleep(SLEEP)
        start = time.monotonic()
        conn.in_channel.close()  # the client goes
        conn.out_channel.close()
        while manager.served and time.monotonic() - start < 1.0:
            time.sleep(SLEEP)
        assert not manager.served  # not a poll period later
    finally:
        stop.set()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


def play_open(root, holds_in=True, holds_out=True):
    """Ask the manager at `root` for a connection as a client that holds the
    ends of its channels as told: the client's ends, in a `conn-*`
    directory."""
    conn_dir = root.parent / "conn-played"
    conn_dir.mkdir()
    in_channel, out_channel = (Channel(conn_dir / n).make() for n in ("in", "out"))
    if holds_in:
        in_channel.open_writer_first()
    if holds_out:
        out_channel.open_reader()
    assert Mailbox(root).try_deposit(wire.serialize(
        [wire.OpenRequest("edge-v1", "edge-v1", None, conn_dir.name)]))
    return in_channel, out_channel


def test_an_open_whose_out_channel_nobody_reads_is_refused_and_logged(
        tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="whiteboard.manager")
    with hosted_manager(tmp_path, identity_component) as root:
        wait_for_request_box(root)
        in_channel, out_channel = play_open(root, holds_out=False)
        try:
            # answered only once the manager has taken the played request
            conn = request_connection(root, params())
            conn.deposit(edges(0), timeout=5.0)
            assert conn.collect(timeout=5.0) == edges(0)
            assert conn.close(timeout=5.0) == []
        finally:
            in_channel.close()
    [refused] = [r.getMessage() for r in caplog.records
                 if "its channels do not open" in r.getMessage()]
    assert "nobody reads" in refused and "conn-played" in refused


def test_an_open_whose_in_channel_no_writer_holds_is_a_hang_up(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="whiteboard.manager")
    with hosted_manager(tmp_path, identity_component) as root:
        wait_for_request_box(root)
        _, out_channel = play_open(root, holds_in=False)
        try:
            assert wire.parse(out_channel.collect(timeout=5.0)) == [
                wire.CloseReply()]
            with pytest.raises(PeerGone):  # then the manager hangs up
                out_channel.collect(timeout=5.0)
        finally:
            out_channel.close()
    assert any("conn-played dropped, its client hung up" in r.getMessage()
               for r in caplog.records)


def test_an_export_error_answers_the_batch_and_service_continues(tmp_path):
    def spaced(records):
        if records == edges(0):
            return [wire.EdgeRecord(0, 1, "two words", 0.5)]
        return records

    with hosted_manager(tmp_path, spaced) as root:
        conn = request_connection(root, params())
        conn.deposit(edges(0), timeout=5.0)
        [error] = conn.collect(timeout=5.0)
        assert isinstance(error, wire.ErrorRecord)
        assert error.message.startswith("export-error")
        assert (conn.outstanding, conn.done_frame) == (0, 1)
        conn.deposit(edges(1), timeout=5.0)
        assert conn.collect(timeout=5.0) == edges(1)
        assert conn.close(timeout=5.0) == []

import logging
import os
import signal
import stat
import struct
import subprocess
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
from whiteboard.mailbox import Channel, Mailbox, wait_ready
from blocking import deposit
from conftest import worker_command
from oracles import identity_component
from stopping import PipeStop
from utterances import spliced_utterances

SLEEP = 0.005


class hosted_manager:
    """Run a manager service loop in a daemon thread for the test's scope,
    serving one component instance on every connection, or a fresh one per
    connection from `factory`, its replies paced by `pace`."""

    def __init__(self, tmp_path, component=None, pace=None, name="m",
                 factory=None):
        self.root = tmp_path / name / "request"
        self.stop = PipeStop()
        self.thread = threading.Thread(
            target=run_manager,
            args=(factory or (lambda _input: component), self.root),
            kwargs={"pace": pace, "name": name, "stop": self.stop},
            daemon=True)

    def __enter__(self):
        self.thread.start()
        return self.root

    def __exit__(self, *exc):
        self.stop.join(self.thread)
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


def test_an_open_whose_input_is_64_kib_reaches_the_factory_whole(tmp_path):
    source = "x" * (64 << 10)
    inputs = []

    def factory(source):
        inputs.append(source)
        return identity_component

    with hosted_manager(tmp_path, factory=factory) as root:
        conn = request_connection(root, ConnectionParams(
            "inactive-edge-v1", "inactive-edge-v1", source))
        conn.close(timeout=5.0)
    assert inputs == [source]


def test_a_request_box_whose_path_is_longer_than_sun_path_serves(tmp_path):
    # a socket address holds at most 107 bytes of path
    with hosted_manager(tmp_path / ("d" * 100), identity_component) as root:
        assert len(os.fsencode(root)) > 107
        conn = request_connection(root, params())
        deposit(conn, edges(0), timeout=5.0)
        assert conn.collect(timeout=5.0) == edges(0)
        assert conn.close(timeout=5.0) == []
    assert list(root.parent.iterdir()) == []


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
            deposit(conn, [], timeout=5.0)
            assert conn.collect(timeout=5.0) == [wire.ErrorRecord(source)]
            conn.close(timeout=5.0)


def test_interleaved_connections_to_one_parser_manager_keep_apart(
        tmp_path, fixtures_dir):
    grammar = load_grammar((fixtures_dir / "words.grammar").read_text())
    thresholds = Thresholds(2, 2)

    def parser(_input):
        return IslandParser(grammar, thresholds, 16)

    # each utterance's cells in the pieces its source would deliver
    first, second = (partition_by_end(MatrixSource(path, 3)([]))
                     for path in spliced_utterances(fixtures_dir,
                                                    tmp_path / "spliced")[1:])

    def replies(conn, batches):
        out = []
        for batch in batches:
            deposit(conn, batch, timeout=5.0)
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
                    deposit(conn, batches[i], timeout=5.0)
                    out.append(conn.collect(timeout=5.0))
        for conn in conns:
            conn.close(timeout=5.0)
    assert list(shared) == alone


def test_open_creates_fresh_boxes_and_echo_works(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        # the connection is one socket, and no file beside the request box
        assert list(root.parent.iterdir()) == [root]
        assert stat.S_ISSOCK(root.stat().st_mode)
        assert conn.channel.try_collect() is None  # nothing in flight
        batch = edges(0, 1, 2)
        deposit(conn, batch, timeout=5.0)
        assert conn.collect(timeout=5.0) == batch
        assert conn.close(timeout=5.0) == []


def test_every_deposited_batch_reappears(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        for i in range(5):
            batch = edges(i)
            deposit(conn, batch, timeout=5.0)
            assert conn.collect(timeout=5.0) == batch
        assert conn.close(timeout=5.0) == []


def test_two_connections_are_independent(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        a = request_connection(root, params())
        b = request_connection(root, params())
        assert a.channel.fileno() != b.channel.fileno()
        deposit(a, edges(1), timeout=5.0)
        deposit(b, edges(2), timeout=5.0)
        assert b.collect(timeout=5.0) == edges(2)
        assert a.collect(timeout=5.0) == edges(1)
        for conn in (a, b):
            assert conn.close(timeout=5.0) == []


def test_manager_unavailable_when_nobody_serves(tmp_path):
    from whiteboard.errors import ManagerUnavailable
    with pytest.raises(ManagerUnavailable):
        request_connection(tmp_path / "nobody" / "request", params(),
                           timeout=0.05)


def test_close_acknowledges_and_removes_boxes(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        conn.channel.hang_up(timeout=5.0)
        with pytest.raises(AlreadyClosed):
            conn.channel.hang_up(timeout=5.0)
        leftovers = conn.close(timeout=5.0)  # shut already: only waits
        assert leftovers == []
        assert conn.channel.fileno() == -1  # the client's end is closed
        with pytest.raises(AlreadyClosed):
            conn.close(timeout=5.0)
        with pytest.raises(AlreadyClosed):
            deposit(conn, edges(0), timeout=5.0)


@pytest.mark.parametrize("paced", [False, True])
def test_close_delivers_pending_content_first(tmp_path, paced):
    with hosted_manager(tmp_path, identity_component,
                        pace=SLEEP if paced else None) as root:
        conn = request_connection(root, params())
        deposit(conn, edges(0, 1, 2), timeout=5.0)  # three end frames
        # do not collect; close must hand the undelivered reply over, every
        # piece in order, before its acknowledgment
        leftovers = conn.close(timeout=5.0)
        assert leftovers == edges(0, 1, 2)
        assert conn.channel.fileno() == -1


def test_clients_sharing_a_manager_get_only_their_own_replies(tmp_path):
    failures = []

    def client(root, tag):
        try:
            for trial in range(10):
                conn = request_connection(root, params())
                batch = edges(100 * tag + trial)
                deposit(conn, batch, timeout=5.0)
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


def test_a_first_frame_that_is_not_one_open_request_is_refused(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="whiteboard.manager")
    # one that does not parse, one that is not UTF-8, an empty batch, a
    # record that asks for no connection, and two open requests
    opening = wire.serialize([wire.OpenRequest("edge-v1", "edge-v1", None)])
    firsts = [b"(open edge-v1\n", b"\xff\n", b"",
              wire.serialize([wire.CloseReply()]).encode(),
              (opening * 2).encode()]
    with hosted_manager(tmp_path, identity_component) as root:
        wait_for_request_box(root)
        for first in firsts:
            channel = Mailbox(root).try_deposit()
            try:
                channel._sock.sendall(struct.pack(">I", len(first)) + first)
                [error] = wire.parse(channel.collect(timeout=5.0))
                assert error.message.startswith("open-error")
                with pytest.raises(PeerGone):  # then the manager hangs up
                    channel.collect(timeout=5.0)
            finally:
                channel.close()
        # and serves on
        conn = request_connection(root, params())
        deposit(conn, edges(0), timeout=5.0)
        assert conn.collect(timeout=5.0) == edges(0)
        conn.close(timeout=5.0)
        assert list(root.parent.iterdir()) == [root]
    refused = [r.getMessage() for r in caplog.records
               if r.name == "whiteboard.manager" and "refused" in r.getMessage()]
    assert len(refused) == len(firsts)


def test_a_client_that_gives_up_removes_its_connection(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="whiteboard.manager")
    before = open_fds()
    # an open nobody serves: this test listens on the box, and takes nothing
    (tmp_path / "silent").mkdir()
    silent = Mailbox(tmp_path / "silent" / "request").open()
    queued = []
    try:
        conn = request_connection(silent.path, params())
        with pytest.raises(MailboxTimeout):
            conn.close(timeout=0.1)
        # a box that nobody empties fills up: the open gives up in time
        while (channel := Mailbox(silent.path).try_deposit()) is not None:
            queued.append(channel)
        with pytest.raises(ManagerUnavailable, match="stayed full"):
            request_connection(silent.path, params(), timeout=0.1)
    finally:
        for channel in queued:
            channel.close()
        silent.close()
    assert open_fds() == before

    # a close nobody answers: the manager is held up in its component
    release = threading.Event()

    def held(records):
        release.wait(timeout=5.0)
        return records

    with hosted_manager(tmp_path, held, name="held") as root:
        conn = request_connection(root, params())
        deposit(conn, edges(0), timeout=5.0)
        try:
            with pytest.raises(MailboxTimeout):
                conn.close(timeout=0.1)
        finally:
            release.set()
        assert conn.channel.fileno() == -1

    # a manager that stopped has hung up: its close fails at once
    stopped = hosted_manager(tmp_path, identity_component, name="stopped")
    with stopped as root:
        conn = request_connection(root, params())
    with pytest.raises(ManagerUnavailable):
        conn.close(timeout=5.0)
    assert open_fds() == before

    # the manager drops a connection whose client hung up, and serves on
    with hosted_manager(tmp_path, identity_component) as root:
        gone, kept = (request_connection(root, params()) for _ in range(2))
        deposit(gone, edges(9), timeout=5.0)  # answered once the open is taken
        assert gone.collect(timeout=5.0) == edges(9)
        gone.channel.close()  # as a client that died would
        for i in range(3):
            deposit(kept, edges(i), timeout=5.0)
            assert kept.collect(timeout=5.0) == edges(i)
        # the manager numbers its connections as it takes them
        assert any(r.getMessage().startswith("manager m: connection 1 dropped")
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
        deposit(conn, edges(0), timeout=5.0)
        [error] = conn.collect(timeout=5.0)
        assert isinstance(error, wire.ErrorRecord)
        assert "component-error" in error.message
        deposit(conn, edges(1), timeout=5.0)
        assert conn.collect(timeout=5.0) == edges(1)
        assert conn.close(timeout=5.0) == []


def test_manager_survives_unparseable_batch(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        deposit(conn.channel, "(not a record\n", timeout=5.0)
        [error] = conn.collect(timeout=5.0)
        assert error.message.startswith("import-parse-error")
        # a frame that is not UTF-8 is taken whole, and answered the same way
        conn.channel._sock.sendall(b"\x00\x00\x00\x02\xff\n")
        [error] = conn.collect(timeout=5.0)
        assert error.message.startswith("import-parse-error")
        deposit(conn, edges(3), timeout=5.0)
        assert conn.collect(timeout=5.0) == edges(3)
        assert conn.close(timeout=5.0) == []


# -- paced delivery ------------------------------------------------------------

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


def test_partition_places_arcs_in_the_last_piece():
    # the arc's later endpoint lands in the middle piece, not the last
    batch = [wire.NodeRecord(1, 0, 3, "a", 0.1),
             wire.NodeRecord(2, 3, 6, "b", 0.2),
             wire.ArcRecord(9, 1, 2, 0.0),
             wire.NodeRecord(3, 6, 9, "c", 0.3)]
    pieces = partition_by_end(batch)
    assert pieces == [[wire.NodeRecord(1, 0, 3, "a", 0.1)],
                      [wire.NodeRecord(2, 3, 6, "b", 0.2)],
                      [wire.NodeRecord(3, 6, 9, "c", 0.3),
                       wire.ArcRecord(9, 1, 2, 0.0)]]
    assert partition_by_end([wire.ArcRecord(9, 1, 2, 0.0)]) == [
        [wire.ArcRecord(9, 1, 2, 0.0)]]


def test_incremental_manager_delivers_multiple_batches(tmp_path):
    batch = edges(0, 1, 2)  # three distinct end frames

    def source(records):
        return batch

    with hosted_manager(tmp_path, source, pace=SLEEP) as root:
        conn = request_connection(root, params())
        deposit(conn, [], timeout=5.0)
        got = []
        for _ in range(3):
            got.extend(conn.collect(timeout=5.0))
        assert got == batch
        assert conn.close(timeout=5.0) == []


# -- the done record ------------------------------------------------------------

def raw_replies(conn, count):
    """The next `count` frames on the out channel, parsed but not stripped."""
    return [wire.parse(conn.channel.collect(timeout=5.0),
                       conn.params.export_format) for _ in range(count)]


def assert_nothing_more(conn):
    time.sleep(10 * SLEEP)
    assert conn.channel.try_collect() is None


def test_done_ends_a_non_incremental_reply(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        deposit(conn.channel, wire.serialize(edges(0, 4, 2), "edge-v1"))
        [reply] = raw_replies(conn, 1)
        assert reply == edges(0, 4, 2) + [wire.DoneRecord(5)]
        assert_nothing_more(conn)
        assert conn.close(timeout=5.0) == []


def test_done_rides_on_the_last_incremental_piece(tmp_path):
    def source(records):
        return edges(0, 1, 2)  # three distinct end frames

    with hosted_manager(tmp_path, source, pace=SLEEP) as root:
        conn = request_connection(root, params())
        deposit(conn.channel, "")
        pieces = raw_replies(conn, 3)
        assert pieces == [edges(0), edges(1), edges(2) + [wire.DoneRecord(3)]]
        assert_nothing_more(conn)
        assert conn.close(timeout=5.0) == []


def test_done_alone_answers_an_empty_output(tmp_path):
    with hosted_manager(tmp_path, lambda records: []) as root:
        conn = request_connection(root, params())
        deposit(conn.channel, wire.serialize(edges(0, 1, 2), "edge-v1"))
        [reply] = raw_replies(conn, 1)
        assert reply == [wire.DoneRecord(3)]  # the inputs' last end frame
        assert_nothing_more(conn)
        assert conn.close(timeout=5.0) == []


def test_done_follows_a_component_error(tmp_path):
    def broken(records):
        raise RuntimeError("injected fault")

    with hosted_manager(tmp_path, broken, pace=SLEEP) as root:
        conn = request_connection(root, params())
        deposit(conn.channel, wire.serialize(edges(6), "edge-v1"))
        [[error, done]] = raw_replies(conn, 1)
        assert isinstance(error, wire.ErrorRecord)
        assert "component-error" in error.message
        assert done == wire.DoneRecord(7)
        assert_nothing_more(conn)
        assert conn.close(timeout=5.0) == []


def test_connection_counts_outstanding_batches(tmp_path):
    release = threading.Event()

    def gated(records):
        release.wait(timeout=5.0)
        return records

    with hosted_manager(tmp_path, gated) as root:
        conn = request_connection(root, params())
        assert (conn.outstanding, conn.done_frame) == (0, 0)
        deposit(conn, edges(2), timeout=5.0)
        deposit(conn, edges(8), timeout=5.0)
        assert conn.outstanding == 2
        release.set()
        assert conn.collect(timeout=5.0) == edges(2)  # done stripped
        assert (conn.outstanding, conn.done_frame) == (1, 3)
        assert conn.collect(timeout=5.0) == edges(8)
        assert (conn.outstanding, conn.done_frame) == (0, 9)
        assert conn.close(timeout=5.0) == []


def test_a_manager_told_to_stop_ends_at_once(tmp_path):
    manager = hosted_manager(tmp_path, identity_component)
    with manager:
        time.sleep(0.1)  # found its request box empty; now waiting, untimed
        manager.stop.set()
        manager.thread.join(timeout=0.5)
        assert not manager.thread.is_alive()


# -- wake-ups -----------------------------------------------------------------

def wait_for_request_box(root, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not root.exists():
        assert time.monotonic() < deadline, "the manager never served"
        time.sleep(SLEEP)


def test_a_round_trip_takes_well_under_a_second(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        wait_for_request_box(root)
        start = time.monotonic()
        conn = request_connection(root, params())
        deposit(conn, edges(0, 1), timeout=5.0)
        assert conn.collect(timeout=5.0) == edges(0, 1)
        conn.close(timeout=5.0)
        assert time.monotonic() - start < 0.3


PACE = 0.05


def paced_pieces(tmp_path, monkeypatch, wake_others):
    """When a manager paced by PACE began writing each of the six pieces
    of its reply to one batch. With `wake_others` the client wakes the
    manager after each piece, as other connections' traffic would."""
    released = []
    try_deposit = Channel.try_deposit
    manager = hosted_manager(tmp_path, identity_component, pace=PACE)

    def timed_deposit(channel, text):
        start = time.monotonic()
        done = try_deposit(channel, text)
        if done and threading.current_thread() is manager.thread:
            released.append(start)
        return done

    monkeypatch.setattr(Channel, "try_deposit", timed_deposit)
    with manager as root:
        conn = request_connection(root, params())
        deposit(conn, edges(*range(6)), timeout=5.0)
        while conn.outstanding:
            assert conn.collect(timeout=5.0)
            if wake_others:
                Mailbox(root).try_deposit().close()
        conn.close(timeout=5.0)
    pieces = released[:-1]  # all but the close's reply
    assert len(pieces) == 6
    return pieces


def assert_none_early(pieces):
    # piece k is due k paces after the manager's clock read before the
    # first went, a moment before `pieces[0]`
    early = [k for k, at in enumerate(pieces)
             if at < pieces[0] + k * PACE - 0.001]
    assert not early, pieces


def test_a_paced_manager_keeps_its_pieces_one_pace_apart(
        tmp_path, monkeypatch):
    assert_none_early(paced_pieces(tmp_path, monkeypatch, wake_others=True))


def test_a_paced_manager_waking_late_keeps_its_clock(tmp_path, monkeypatch):
    def oversleeping(readers, writers=(), timeout=None):
        ready = wait_ready(readers, writers, timeout)
        time.sleep(0.01)
        return ready

    monkeypatch.setattr("whiteboard.manager.wait_ready", oversleeping)
    pieces = paced_pieces(tmp_path, monkeypatch, wake_others=False)
    assert_none_early(pieces)
    # each wake is 10 ms late, but the lateness does not add up
    assert pieces[-1] - pieces[0] <= 5 * PACE + 0.02, pieces


@pytest.mark.parametrize("pace", [None, 0.05])
def test_a_manager_waits_untimed_unless_a_paced_piece_falls_due(
        tmp_path, monkeypatch, pace):
    timeouts = []

    def recorded(readers, writers=(), timeout=None):
        timeouts.append(timeout)
        return wait_ready(readers, writers, timeout)

    monkeypatch.setattr("whiteboard.manager.wait_ready", recorded)
    with hosted_manager(tmp_path, identity_component, pace=pace) as root:
        conn = request_connection(root, params())
        for i in range(3):
            deposit(conn, edges(i, i + 1, i + 2), timeout=5.0)
            while conn.outstanding:
                conn.collect(timeout=5.0)
        assert conn.close(timeout=5.0) == []
    assert None in timeouts  # idle, it waits on events alone
    timed = [t for t in timeouts if t is not None]
    if pace is None:
        assert timed == []
    else:
        assert timed and all(0 <= t <= pace for t in timed), timed


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_connections_leave_no_descriptor_and_a_stopped_manager_no_request_box(
        tmp_path):
    manager = hosted_manager(tmp_path, identity_component)
    with manager as root:
        wait_for_request_box(root)
        assert stat.S_ISSOCK(root.stat().st_mode)
        before = open_fds()
        for i in range(20):
            conn = request_connection(root, params())
            deposit(conn, edges(i), timeout=5.0)
            assert conn.collect(timeout=5.0) == edges(i)
            conn.close(timeout=5.0)
        assert open_fds() == before
    assert not manager.thread.is_alive()
    # neither its request box nor the temporary it was made under
    assert list(root.parent.iterdir()) == []


def test_a_killed_manager_process_fails_opens_and_closes_at_once(tmp_path):
    root = tmp_path / "parser" / "request"
    worker = subprocess.Popen(worker_command("parser", root),
                              stdin=subprocess.PIPE, stderr=subprocess.DEVNULL)
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
        start = time.monotonic()
        with pytest.raises(ManagerUnavailable, match="nobody listens"):
            request_connection(root, params())  # 10 s
        assert time.monotonic() - start < 1.0
        assert list(root.parent.iterdir()) == [root]  # the dead one's box
    finally:
        worker.stdin.close()
        if worker.poll() is None:
            worker.kill()
            worker.wait(timeout=10)


def test_a_manager_gone_before_it_took_the_open_fails_every_wait_at_once(
        tmp_path):
    root = tmp_path / "m" / "request"
    root.parent.mkdir()
    # the test listens on the box as a manager that takes nothing would
    box = Mailbox(root).open()
    conn = request_connection(root, params())
    box.close()  # the manager goes, the open untaken
    start = time.monotonic()
    with pytest.raises(PeerGone):
        conn.collect(timeout=5.0)
    with pytest.raises(PeerGone):
        deposit(conn, edges(*range(20_000)), timeout=5.0)  # more than it holds
    assert conn.channel.pending
    with pytest.raises(ManagerUnavailable, match="without acknowledging"):
        conn.close(timeout=5.0)  # its tail never goes
    assert time.monotonic() - start < 1.0
    assert conn.channel.fileno() == -1


def served_by_hand(tmp_path, pace=None):
    """A manager serving on a daemon thread, whose connections the test can
    see, and its stop."""
    stop = PipeStop()
    manager = _Manager(lambda _input: identity_component,
                       tmp_path / "m" / "request", "m", pace, stop=stop)
    thread = threading.Thread(target=manager.serve, daemon=True)
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
    deposit(conn, edges(0), timeout=5.0)
    assert entered.wait(timeout=5.0)
    manager.factory = factory  # the manager waits in `held` meanwhile
    return release, conn


def test_a_full_in_channel_of_a_manager_that_hung_up_fails_its_close_at_once(
        tmp_path):
    def refuse(_input):
        raise ValueError("no component")

    manager, stop, thread = served_by_hand(tmp_path)
    try:
        release, holding = held_up(manager)
        conn = request_connection(manager.request_root, params())
        # filled before the manager takes the open, which it then refuses
        assert conn.try_deposit(edges(*range(20_000)))  # more than it holds
        assert conn.channel.pending
        manager.factory = refuse
        release.set()
        # the refusal comes first, and then the manager hangs up
        assert conn.collect(timeout=5.0) == [
            wire.ErrorRecord("component-error_no_component")]
        start = time.monotonic()
        with pytest.raises(ManagerUnavailable, match="without acknowledging"):
            conn.close(timeout=5.0)
        assert time.monotonic() - start < 1.0
        assert conn.channel.fileno() == -1
        holding.close(timeout=5.0)
    finally:
        stop.join(thread)
    assert not thread.is_alive()


def test_batches_written_before_the_manager_opened_in_are_served(tmp_path):
    manager, stop, thread = served_by_hand(tmp_path)
    try:
        release, holding = held_up(manager)
        early = request_connection(manager.request_root, params())
        deposit(early, edges(1), timeout=5.0)
        closed = request_connection(manager.request_root, params())
        deposit(closed, edges(2), timeout=5.0)
        closed.channel.hang_up(timeout=5.0)  # hung up before the open, too
        assert len(manager.served) == 1  # neither open is taken yet
        release.set()
        assert early.collect(timeout=5.0) == edges(1)
        assert closed.close(timeout=5.0) == edges(2)
        assert early.close(timeout=5.0) == []
        assert holding.close(timeout=5.0) == edges(0)
    finally:
        stop.join(thread)
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
        with pytest.raises(ManagerUnavailable, match="without acknowledging"):
            conn.close(timeout=5.0)
        assert time.monotonic() - start < 1.0  # not the close's 5 s
        with pytest.raises(ManagerUnavailable, match="without acknowledging"):
            holding.close(timeout=5.0)
    finally:
        stop.join(thread)
    assert not list(manager.request_root.parent.iterdir())


def test_a_connection_abandoned_before_its_in_channel_opened_is_dropped(
        tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="whiteboard.manager")
    manager, stop, thread = served_by_hand(tmp_path)
    try:
        release, holding = held_up(manager)
        before = open_fds()
        conn = request_connection(manager.request_root, params())
        deposit(conn, edges(1), timeout=5.0)
        conn.channel.close()  # the client dies before the open is taken
        release.set()
        assert holding.collect(timeout=5.0) == edges(0)
        deadline = time.monotonic() + 1.0
        while len(manager.served) > 1:
            assert time.monotonic() < deadline, "not dropped"
            time.sleep(SLEEP)
        while open_fds() != before:  # the manager's end is closed
            assert time.monotonic() < deadline, "descriptors left open"
            time.sleep(SLEEP)
        holding.close(timeout=5.0)
    finally:
        stop.join(thread)
    assert not thread.is_alive()
    # on a failure pytest shows the whole list, not only that none matched
    dropped = [r.getMessage() for r in caplog.records
               if "dropped" in r.getMessage()]
    assert "manager m: connection 2 dropped, nobody reads it" in dropped


def test_a_client_that_hangs_up_in_gets_every_owed_reply_then_closed(tmp_path):
    with hosted_manager(tmp_path, identity_component, pace=SLEEP) as root:
        conn = request_connection(root, params())
        deposit(conn, edges(0, 1), timeout=5.0)
        deposit(conn, edges(4), timeout=5.0)
        conn.channel.hang_up()  # no `close`: the client reads on
        assert raw_replies(conn, 4) == [
            edges(0), edges(1) + [wire.DoneRecord(2)],
            edges(4) + [wire.DoneRecord(5)], [wire.CloseReply()]]
        with pytest.raises(PeerGone):  # then the manager hangs up
            conn.channel.collect(timeout=5.0)
        conn.channel.close()


def test_a_client_that_leaves_an_opened_connection_is_dropped_at_once(tmp_path):
    manager, stop, thread = served_by_hand(tmp_path)
    try:
        conn = request_connection(manager.request_root, params())
        deadline = time.monotonic() + 1.0
        while not manager.served:  # the manager opens its ends
            assert time.monotonic() < deadline, "the open was not taken"
            time.sleep(SLEEP)
        start = time.monotonic()
        conn.channel.close()  # the client goes
        while manager.served and time.monotonic() - start < 1.0:
            time.sleep(SLEEP)
        assert not manager.served  # its hang-up woke the manager
    finally:
        stop.join(thread)
    assert not thread.is_alive()


def test_an_open_whose_in_channel_no_writer_holds_is_a_hang_up(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="whiteboard.manager")
    with hosted_manager(tmp_path, identity_component) as root:
        wait_for_request_box(root)
        # a client that shuts its connection for writing behind its open
        channel = Mailbox(root).try_deposit()
        try:
            deposit(channel, wire.serialize(
                [wire.OpenRequest("edge-v1", "edge-v1", None)]), timeout=5.0)
            channel.hang_up()
            assert wire.parse(channel.collect(timeout=5.0)) == [
                wire.CloseReply()]
            with pytest.raises(PeerGone):  # then the manager hangs up
                channel.collect(timeout=5.0)
        finally:
            channel.close()
    assert any(r.getMessage() == "manager m: connection 1 dropped, its client "
               "hung up" for r in caplog.records)


def test_an_export_error_answers_the_batch_and_service_continues(tmp_path):
    def spaced(records):
        if records == edges(0):
            return [wire.EdgeRecord(0, 1, "two words", 0.5)]
        return records

    with hosted_manager(tmp_path, spaced) as root:
        conn = request_connection(root, params())
        deposit(conn, edges(0), timeout=5.0)
        [error] = conn.collect(timeout=5.0)
        assert isinstance(error, wire.ErrorRecord)
        assert error.message.startswith("export-error")
        assert (conn.outstanding, conn.done_frame) == (0, 1)
        deposit(conn, edges(1), timeout=5.0)
        assert conn.collect(timeout=5.0) == edges(1)
        assert conn.close(timeout=5.0) == []

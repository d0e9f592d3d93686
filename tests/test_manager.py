import threading
import time

import pytest

from whiteboard import Thresholds, load_grammar, wire
from whiteboard.components import IslandParser, MatrixSource, identity_component
from whiteboard.errors import (
    AlreadyClosed,
    DrainTimeout,
    ManagerUnavailable,
    UnknownFormatCode,
)
from whiteboard.manager import (
    ConnectionParams,
    _ConnectionWorker,
    _Manager,
    close_connection,
    incremental_deliver,
    partition_by_end,
    request_connection,
    run_manager,
)
from whiteboard.mailbox import Mailbox
from utterances import spliced_utterances

SLEEP = 0.005


class hosted_manager:
    """Run a manager service loop in a daemon thread for the test's scope,
    serving one component instance on every connection, or a fresh one per
    connection from `factory`."""

    def __init__(self, tmp_path, component=None, incremental=False, name="m",
                 sleep_time=SLEEP, factory=None):
        self.root = tmp_path / name / "request"
        self.stop = threading.Event()
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
    return ConnectionParams(SLEEP, imp, exp)


def edges(*seq):
    return [wire.EdgeRecord(i, i + 1, "h", 0.5) for i in seq]


def test_bad_format_code_rejected_before_any_traffic():
    with pytest.raises(UnknownFormatCode):
        ConnectionParams(SLEEP, "bogus", "edge-v1")


@pytest.mark.parametrize("source", ["two words.mat", "u(1).mat", "", "-"])
def test_an_input_that_is_not_a_wire_token_is_rejected_before_any_traffic(source):
    with pytest.raises(ValueError):
        ConnectionParams(SLEEP, "edge-v1", "edge-v1", source)


def test_the_factory_builds_each_connection_its_component_from_its_input(tmp_path):
    def factory(source):
        if source is None:
            raise ValueError("this component needs an input")
        return lambda records: [wire.ErrorRecord(source)]

    with hosted_manager(tmp_path, factory=factory) as root:
        with pytest.raises(ManagerUnavailable,
                           match="refused the connection: component-error_"
                                 "this_component_needs_an_input"):
            request_connection(root, params())
        # the refusal left the manager serving
        conns = {source: request_connection(
                     root, ConnectionParams(SLEEP, "edge-v1", "edge-v1", source))
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
        assert conn.in_box.exists() and conn.out_box.exists()
        assert not conn.in_box.is_full() and not conn.out_box.is_full()
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
        assert a.id != b.id
        assert a.in_box.path != b.in_box.path
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
        leftovers = conn.close(timeout=5.0)
        assert leftovers == []
        assert conn.state == "closed"
        assert not conn.in_box.exists() and not conn.out_box.exists()
        with pytest.raises(AlreadyClosed):
            conn.close(timeout=5.0)


def test_close_delivers_pending_content_first(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        conn.deposit(edges(0, 1), timeout=5.0)
        # do not collect; close must hand the undelivered batch over
        leftovers = close_connection(conn, timeout=5.0)
        assert leftovers == edges(0, 1)


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
        conn.in_box.deposit("(not a record\n", timeout=5.0)
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


def test_incremental_deliver_deposits_piecewise(tmp_path):
    box = Mailbox(tmp_path / "out", SLEEP).create()
    batch = [wire.EdgeRecord(0, 3, "a", 0.1), wire.EdgeRecord(3, 6, "b", 0.2)]
    done = []

    def writer():
        done.append(incremental_deliver(batch, box, "edge-v1", SLEEP))

    thread = threading.Thread(target=writer)
    thread.start()
    first = wire.parse(box.collect(timeout=5.0), "edge-v1")
    second = wire.parse(box.collect(timeout=5.0), "edge-v1")
    thread.join(timeout=5.0)
    assert done == [2]
    assert first + second == batch


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
    """The next `count` deposits on the out box, parsed but not stripped."""
    return [wire.parse(conn.out_box.collect(timeout=5.0),
                       conn.params.export_format) for _ in range(count)]


def assert_nothing_more(conn):
    time.sleep(10 * SLEEP)
    assert conn.out_box.try_collect() is None


def test_done_ends_a_non_incremental_reply(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        conn.in_box.deposit(wire.serialize(edges(0, 4, 2), "edge-v1"))
        [reply] = raw_replies(conn, 1)
        assert reply == edges(0, 4, 2) + [wire.DoneRecord(5)]
        assert_nothing_more(conn)


def test_done_rides_on_the_last_incremental_piece(tmp_path):
    def source(records):
        return edges(0, 1, 2)  # three distinct end frames

    with hosted_manager(tmp_path, source, incremental=True) as root:
        conn = request_connection(root, params())
        conn.in_box.deposit("")
        pieces = raw_replies(conn, 3)
        assert pieces == [edges(0), edges(1), edges(2) + [wire.DoneRecord(3)]]
        assert_nothing_more(conn)


def test_done_alone_answers_an_empty_output(tmp_path):
    with hosted_manager(tmp_path, lambda records: []) as root:
        conn = request_connection(root, params())
        conn.in_box.deposit(wire.serialize(edges(0, 1, 2), "edge-v1"))
        [reply] = raw_replies(conn, 1)
        assert reply == [wire.DoneRecord(3)]  # the inputs' last end frame
        assert_nothing_more(conn)


def test_done_follows_a_component_error(tmp_path):
    def broken(records):
        raise RuntimeError("injected fault")

    with hosted_manager(tmp_path, broken, incremental=True) as root:
        conn = request_connection(root, params())
        conn.in_box.deposit(wire.serialize(edges(6), "edge-v1"))
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


def test_close_reports_a_drain_timeout(tmp_path):
    with hosted_manager(tmp_path, identity_component) as root:
        conn = request_connection(root, params())
        conn.deposit(edges(0), timeout=5.0)
        deadline = time.monotonic() + 5.0
        while not conn.out_box.is_full() and time.monotonic() < deadline:
            time.sleep(SLEEP)
        # a client that never collects: the manager waits out its drain
        # window and removes the box with the batch still in it
        conn.request_close(timeout=5.0)
        while conn.out_box.exists() and time.monotonic() < deadline:
            time.sleep(SLEEP)
        assert not conn.out_box.exists()
        with pytest.raises(DrainTimeout, match=f"drain-timeout_{conn.id}"):
            conn.close(timeout=5.0)
        assert conn.state == "closed"


def test_a_worker_told_to_stop_ends_without_waiting_out_its_poll(tmp_path):
    poll = 2.0
    manager = _Manager(lambda _input: identity_component,
                       tmp_path / "m" / "request", "m", False, poll)
    worker = _ConnectionWorker(
        manager, 1, ConnectionParams(poll, "edge-v1", "edge-v1"),
        identity_component, Mailbox(tmp_path / "in", poll).create(),
        Mailbox(tmp_path / "out", poll).create())
    worker.start()
    time.sleep(0.1)  # found its in box empty; now idling until the next poll
    worker.stop_requested.set()
    worker.join(timeout=0.5)
    assert not worker.is_alive()


def test_a_manager_told_to_stop_ends_without_waiting_out_its_poll(tmp_path):
    manager = hosted_manager(tmp_path, identity_component, sleep_time=2.0)
    with manager:
        time.sleep(0.1)  # found its request box empty; now idling until the next poll
        manager.stop.set()
        manager.thread.join(timeout=0.5)
        assert not manager.thread.is_alive()

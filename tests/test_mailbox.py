import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from whiteboard import wire
from whiteboard.errors import MailboxTimeout, ParseError, PeerGone
from whiteboard.mailbox import Mailbox, wait_ready
from _channel_writer import big_text, odd_texts
from blocking import deposit

SLEEP = 0.005


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


# -- request boxes ------------------------------------------------------------------

def make_box(tmp_path, name="request"):
    """A request box listened on, as its manager listens."""
    return Mailbox(tmp_path / name).open()


def connect(box):
    """A client's channel of a new connection to `box`."""
    channel = Mailbox(box.path).try_deposit()
    assert channel is not None, "the box is full"
    return channel


def test_deposit_then_collect_roundtrip(tmp_path):
    box = make_box(tmp_path)
    channels = []
    try:
        assert box.try_collect() is None
        for tag in "ab":
            channels.append(connect(box))
            deposit(channels[-1], f"(open {tag})\n")
        # every connection that has queued, in the order made
        taken = [box.try_collect(), box.try_collect()]
        assert box.try_collect() is None
        channels += taken
        assert [channel.collect(timeout=5.0) for channel in taken] == [
            "(open a)\n", "(open b)\n"]
    finally:
        for channel in channels:
            channel.close()
        box.close()
    assert list(tmp_path.iterdir()) == []  # the box and no temporary


def test_deposit_waits_for_drain(tmp_path):
    """A full box takes no connection until its manager takes one."""
    box = make_box(tmp_path)
    queued, taken = [], []
    try:
        while (channel := Mailbox(box.path).try_deposit()) is not None:
            queued.append(channel)
            assert len(queued) < 10_000, "the box never filled"
        assert queued
        assert Mailbox(box.path).try_deposit() is None  # refused again
        taken.append(box.try_collect())
        queued.append(connect(box))
        assert Mailbox(box.path).try_deposit() is None
        while (channel := box.try_collect()) is not None:
            taken.append(channel)
        assert len(taken) == len(queued)
    finally:
        for channel in queued + taken:
            channel.close()
        box.close()


def test_collect_blocks_until_deposit(tmp_path):
    """A manager waiting on its box wakes as soon as a client connects."""
    box = make_box(tmp_path)
    result = []

    def reader():
        if wait_ready([box], timeout=5.0):
            result.append((box.try_collect(), time.monotonic()))

    thread = threading.Thread(target=reader)
    client = None
    try:
        thread.start()
        time.sleep(5 * SLEEP)
        assert result == []
        sent = time.monotonic()
        client = connect(box)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        [(taken, woke)] = result
        assert taken is not None
        taken.close()
        assert woke - sent < 1.0
    finally:
        thread.join(timeout=5.0)
        if client is not None:
            client.close()
        box.close()


def test_sequential_handoffs_preserve_order(tmp_path):
    box = make_box(tmp_path)
    lines = [f"request-{i}\n" for i in range(50)]
    received = []

    def writer():
        client = Mailbox(box.path)
        for line in lines:
            while (channel := client.try_deposit()) is None:
                time.sleep(SLEEP)
            deposit(channel, line, timeout=5.0)
            channel.close()

    thread = threading.Thread(target=writer)
    try:
        thread.start()
        deadline = time.monotonic() + 10.0
        while len(received) < len(lines):
            assert time.monotonic() < deadline, "stalled"
            wait_ready([box], timeout=SLEEP)
            while (channel := box.try_collect()) is not None:
                received.append(channel.collect(timeout=5.0))
                channel.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert received == lines
    finally:
        thread.join(timeout=5.0)
        box.close()


def test_an_orphaned_request_box_is_one_nobody_reads(tmp_path):
    path = tmp_path / "request"
    with pytest.raises(FileNotFoundError):
        Mailbox(path).try_deposit()
    box = Mailbox(path).open()
    box._sock.close()  # as if its manager died: the socket file stays
    start = time.monotonic()
    with pytest.raises(PeerGone):  # at once: nobody listens on it
        Mailbox(path).try_deposit()
    assert time.monotonic() - start < 1.0
    replaced = Mailbox(path).open()  # a new manager replaces the dead one's box
    try:
        client = connect(replaced)
        deposit(client, "(y)\n")
        taken = replaced.try_collect()
        assert taken.collect(timeout=5.0) == "(y)\n"
        client.close()
        taken.close()
    finally:
        replaced.close()
    assert list(tmp_path.iterdir()) == []


def test_a_box_that_cannot_take_its_path_leaves_nothing_open(tmp_path):
    path = tmp_path / "request"
    (path / "inside").mkdir(parents=True)  # a directory holds the path
    before = open_fds()
    with pytest.raises(IsADirectoryError):
        Mailbox(path).open()
    assert open_fds() == before
    assert list(tmp_path.iterdir()) == [path]  # and no temporary
    box = make_box(tmp_path, "other")
    os.unlink(box.path)  # removed under its manager
    box.close()  # which stops listening all the same
    assert open_fds() == before


def test_a_reader_gone_between_open_and_write_is_peer_gone(tmp_path):
    """A manager that goes after a client connected, before it took the
    connection, fails the client's next write and read at once."""
    box = make_box(tmp_path)
    client = connect(box)
    box.close()
    try:
        start = time.monotonic()
        with pytest.raises(PeerGone):
            deposit(client, "(x)\n", timeout=5.0)
        with pytest.raises(PeerGone):
            client.collect(timeout=5.0)
        assert time.monotonic() - start < 1.0
    finally:
        client.close()


def test_a_box_whose_path_is_longer_than_sun_path_binds_and_connects(tmp_path):
    deep = tmp_path / ("d" * 120)
    deep.mkdir()
    box = make_box(deep)
    try:
        assert len(os.fsencode(box.path)) > 107  # more than `sun_path` holds
        client = connect(box)
        deposit(client, "(x)\n")
        taken = box.try_collect()
        assert taken.collect(timeout=5.0) == "(x)\n"
        client.close()
        taken.close()
    finally:
        box.close()
    assert list(deep.iterdir()) == []


def test_a_connection_is_one_descriptor_and_no_file(tmp_path):
    box = make_box(tmp_path)
    try:
        before = open_fds()
        client = connect(box)
        assert open_fds() == before + 1
        assert list(tmp_path.iterdir()) == [box.path]
        client.close()
        assert open_fds() == before
    finally:
        box.close()


# -- channels ---------------------------------------------------------------------

def make_channel(tmp_path, name="chan"):
    """The manager's end and the client's end of a fresh connection."""
    box = make_box(tmp_path, name)
    try:
        writer = connect(box)
        return box.try_collect(), writer
    finally:
        box.close()


def test_empty_batch_is_distinct_from_no_batch(tmp_path):
    reader, writer = make_channel(tmp_path)
    try:
        assert reader.try_collect() is None
        assert writer.try_deposit("")
        assert reader.try_collect() == ""
        assert reader.try_collect() is None
    finally:
        reader.close()
        writer.close()


def test_timeouts_raise(tmp_path):
    reader, writer = make_channel(tmp_path)
    try:
        with pytest.raises(MailboxTimeout):
            reader.collect(timeout=3 * SLEEP)
        assert writer.try_deposit("x" * 1_000_000)  # more than it holds
        with pytest.raises(MailboxTimeout):
            deposit(writer, "y\n", timeout=3 * SLEEP)
    finally:
        reader.close()
        writer.close()


def test_a_channel_returns_every_frame_whole_once_and_in_order(tmp_path):
    reader, writer = make_channel(tmp_path)
    texts = ["", "(0 1 h 0.5)\n", "a\x00b\n", "é\n" * 5, "x" * 1_000_000]
    received = []
    try:
        def read_all():
            while len(received) < len(texts):
                received.append(reader.collect(timeout=10.0))

        thread = threading.Thread(target=read_all)
        thread.start()
        for text in texts:
            deposit(writer, text, timeout=10.0)
        thread.join(timeout=10.0)
        assert received == texts
        assert reader.try_collect() is None
    finally:
        reader.close()
        writer.close()


def test_a_writer_keeps_its_tail_and_takes_no_frame_until_it_is_written(tmp_path):
    reader, writer = make_channel(tmp_path)
    big = "x" * 1_000_000  # more than the connection holds
    try:
        assert writer.try_deposit(big)
        assert writer.pending
        assert not writer.try_deposit("next\n")  # refused, nothing taken
        while not writer.flush():
            assert reader.try_collect() is None  # only part of the frame is in
            assert wait_ready([], [writer], timeout=5.0)  # room for more now
        assert not writer.pending
        assert writer.try_deposit("next\n")
        assert reader.try_collect() == big
        assert reader.try_collect() == "next\n"
    finally:
        reader.close()
        writer.close()


def test_a_read_before_any_writer_is_nothing_yet_and_a_hang_up_is_peer_gone(
        tmp_path):
    reader, writer = make_channel(tmp_path)
    try:
        assert reader.try_collect() is None  # nothing written yet
        assert not wait_ready([reader], timeout=0.01)
        deposit(writer, "last\n")
        writer.hang_up()
        assert wait_ready([reader], timeout=0.01)
        assert reader.try_collect() == "last\n"  # frames first, then the end
        with pytest.raises(PeerGone):
            reader.try_collect()
        deposit(reader, "reply\n")  # the end that hung up still reads
        assert writer.collect(timeout=5.0) == "reply\n"
        reader.close()
        with pytest.raises(PeerGone):  # and then nobody holds the other end
            writer.collect(timeout=5.0)
    finally:
        reader.close()
        writer.close()


def test_a_writer_that_hangs_up_before_its_reader_opens_keeps_its_frames(
        tmp_path):
    box = make_box(tmp_path)
    writer = connect(box)
    deposit(writer, "first\n")
    writer.hang_up()
    reader = box.try_collect()  # taken after its client hung up
    try:
        assert reader.try_collect() == "first\n"
        with pytest.raises(PeerGone):
            reader.try_collect()
    finally:
        reader.close()
        writer.close()
        box.close()


def test_a_reader_that_opens_after_a_writer_that_died_gets_peer_gone(tmp_path):
    box = make_box(tmp_path)
    writer = connect(box)
    deposit(writer, "lost\n")
    writer.close()  # as a client that died before its connection was taken
    reader = box.try_collect()
    try:
        assert reader.try_collect() == "lost\n"  # what arrived whole
        with pytest.raises(PeerGone):
            reader.try_collect()
    finally:
        reader.close()
        box.close()


def test_a_frame_length_from_a_corrupt_header_is_not_allocated(
        tmp_path, monkeypatch):
    recv = socket.socket.recv

    def bounded_recv(sock, n, *flags):
        # a read allocates `n` bytes before it reads
        assert n <= 1 << 20, f"asked to read {n} bytes"
        return recv(sock, n, *flags)

    reader, writer = make_channel(tmp_path)
    try:
        writer._sock.sendall(b"\xff\xff\xff\xf0" + b"abc")
        monkeypatch.setattr(socket.socket, "recv", bounded_recv)
        assert reader.try_collect() is None  # the frame is not whole yet
        assert reader.try_collect() is None
    finally:
        reader.close()
        writer.close()


def test_a_frame_that_is_not_utf8_is_taken_whole_as_a_parse_error(tmp_path):
    reader, writer = make_channel(tmp_path)
    try:
        writer._sock.sendall(b"\x00\x00\x00\x02\xff\n")
        deposit(writer, "after\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            reader.collect(timeout=5.0)
        assert reader.collect(timeout=5.0) == "after\n"  # the next frame whole
    finally:
        reader.close()
        writer.close()


def test_a_blocking_collect_wakes_on_the_deposit_not_the_poll(tmp_path):
    reader, writer = make_channel(tmp_path)
    try:
        timer = threading.Timer(0.05, deposit, args=(writer, "late\n"))
        start = time.monotonic()
        timer.start()
        assert reader.collect(timeout=10.0) == "late\n"
        assert time.monotonic() - start < 1.0
        timer.join()
        with pytest.raises(MailboxTimeout):
            reader.collect(timeout=3 * SLEEP)
    finally:
        reader.close()
        writer.close()


# -- fault injection: client processes of our own, at most three at a time -----

REQUEST_WRITER = Path(__file__).parent / "_request_writer.py"


def start_writer(box, tag, count, stop_at=None):
    """A client process making `count` connections to `box`."""
    proc = subprocess.Popen(
        [sys.executable, str(REQUEST_WRITER), tag, str(SLEEP),
         *([] if stop_at is None else [str(stop_at)])],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(f"{box.path} 0 {count}\n")
    proc.stdin.close()
    return proc


class Taker:
    """Takes the connections that request writers make to `box`, as a
    manager would, and reads the one frame each sends, as (tag, seq)."""

    def __init__(self, box):
        self.box = box
        self.seen: list[tuple[str, int]] = []
        # the connections taken whose frame has not come whole yet
        self.waiting = []

    def take(self) -> bool:
        """Take every queued connection, then read the frame of each taken
        one, in the order taken. False if nothing came."""
        came = False
        while (channel := self.box.try_collect()) is not None:
            self.waiting.append(channel)
            came = True
        for channel in list(self.waiting):
            try:
                text = channel.try_collect()
            except PeerGone:  # its client died before it sent
                text = ""
            if text is None:
                continue
            if text:
                tag, seq = text.split()
                self.seen.append((tag, int(seq)))
            self.waiting.remove(channel)
            channel.close()
            came = True
        return came

    def drain(self, until, timeout=30.0):
        """Take connections until `until()` holds."""
        deadline = time.monotonic() + timeout
        while not until():
            assert time.monotonic() < deadline, f"stalled with {len(self.seen)} seen"
            if not self.take():
                wait_ready([self.box, *self.waiting], timeout=SLEEP)

    def close(self):
        for channel in self.waiting:
            channel.close()
        self.box.close()


def sent_by(seen, tag):
    return [seq for t, seq in seen if t == tag]


def stopped(proc) -> bool:
    """The process is in the stopped state, as /proc reports it."""
    with open(f"/proc/{proc.pid}/stat", encoding="ascii") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0] == "T"


def stop_all(*procs):
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGCONT)
            proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_two_writer_processes_each_batch_collected_once(tmp_path):
    taker = Taker(make_box(tmp_path))
    writers = [start_writer(taker.box, tag, 150) for tag in ("a", "b")]
    try:
        taker.drain(lambda: len(taker.seen) >= 300)
        for proc in writers:
            assert proc.wait(timeout=10) == 0
        assert taker.box.try_collect() is None and not taker.waiting
    finally:
        stop_all(*writers)
        taker.close()
    assert sent_by(taker.seen, "a") == sent_by(taker.seen, "b") == list(range(150))
    assert len(taker.seen) == 300


def test_a_stopped_writer_stalls_neither_the_other_nor_the_reader(tmp_path):
    taker = Taker(make_box(tmp_path))
    stalled = start_writer(taker.box, "a", 40, stop_at=10)
    other = start_writer(taker.box, "b", 100)
    try:
        # `b` may finish first, so the stalled writer's ten frames and its
        # eleventh connection are waited for here, not in the next drain
        taker.drain(lambda: stopped(stalled)
                    and len(sent_by(taker.seen, "a")) == 10
                    and len(taker.waiting) == 1)
        assert stalled.stdout.readline() == "stopped\n"
        taker.drain(lambda: other.poll() is not None
                    and len(sent_by(taker.seen, "b")) == 100)
        assert other.returncode == 0
        assert sent_by(taker.seen, "a") == list(range(10))
        # stopped between making its connection and sending on it
        assert len(taker.waiting) == 1
        assert not taker.take()
        stalled.send_signal(signal.SIGCONT)
        taker.drain(lambda: len(sent_by(taker.seen, "a")) == 40)
        assert stalled.wait(timeout=10) == 0
        assert taker.box.try_collect() is None
    finally:
        stop_all(stalled, other)
        taker.close()
    assert sent_by(taker.seen, "a") == list(range(40))
    assert sent_by(taker.seen, "b") == list(range(100))


def test_a_killed_writer_leaves_nothing_the_reader_sees(tmp_path):
    taker = Taker(make_box(tmp_path))
    writer = start_writer(taker.box, "a", 40, stop_at=5)
    try:
        taker.drain(lambda: stopped(writer) and len(taker.seen) == 5
                    and taker.waiting)
        assert writer.stdout.readline() == "stopped\n"
        writer.kill()
        assert writer.wait(timeout=10) == -signal.SIGKILL
        # its connection ends with nothing read from it
        taker.drain(lambda: not taker.waiting)
        assert taker.seen == [("a", seq) for seq in range(5)]
        client = connect(taker.box)  # and the box serves on
        deposit(client, "after 0\n")
        client.close()
        taker.drain(lambda: len(taker.seen) == 6)
    finally:
        stop_all(writer)
        taker.close()
    assert taker.seen == [("a", seq) for seq in range(5)] + [("after", 0)]
    assert list(tmp_path.iterdir()) == []


# -- fault injection on channels: one writer process of our own at a time -------

CHANNEL_WRITER = Path(__file__).parent / "_channel_writer.py"


def start_channel_writer(tmp_path, mode):
    """Start a writer process on a fresh connection; returns it and the
    test's end of the connection."""
    box = make_box(tmp_path)
    try:
        proc = subprocess.Popen(
            [sys.executable, str(CHANNEL_WRITER), str(box.path), mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "open\n"
        return proc, box.try_collect()
    finally:
        box.close()


def stop_writer(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGCONT)
        proc.kill()
    proc.wait(timeout=10)
    proc.stdin.close()
    proc.stdout.close()


def test_a_writer_killed_mid_frame_gives_peer_gone_never_the_part(tmp_path):
    writer, reader = start_channel_writer(tmp_path, "kill")
    try:
        assert writer.stdout.readline() == "partial\n"
        assert reader.try_collect() is None  # the part the socket held
        assert reader.try_collect() is None
        writer.kill()
        assert writer.wait(timeout=10) == -signal.SIGKILL
        with pytest.raises(PeerGone):
            reader.collect(timeout=5.0)
        with pytest.raises(PeerGone):  # the part is dropped, not returned
            reader.try_collect()
    finally:
        stop_writer(writer)
        reader.close()


def test_a_stopped_writer_delivers_the_whole_frame_after_it_resumes(tmp_path):
    writer, reader = start_channel_writer(tmp_path, "stop")
    try:
        assert writer.stdout.readline() == "partial\n"
        deadline = time.monotonic() + 10.0
        while not stopped(writer):
            assert time.monotonic() < deadline, "the writer never stopped"
            time.sleep(SLEEP)
        for _ in range(3):  # nothing while it stays stopped
            assert reader.try_collect() is None
            assert not wait_ready([reader], timeout=5 * SLEEP)
        writer.send_signal(signal.SIGCONT)
        assert reader.collect(timeout=10.0) == big_text()
        assert writer.wait(timeout=10) == 0
        with pytest.raises(PeerGone):
            reader.collect(timeout=5.0)
    finally:
        stop_writer(writer)
        reader.close()


def test_a_writer_whose_reader_went_gets_peer_gone_not_sigpipe(tmp_path):
    writer, reader = start_channel_writer(tmp_path, "gone")
    try:
        reader.close()
        writer.stdin.write("go\n")
        writer.stdin.flush()
        assert writer.stdout.readline() == "PeerGone\n"
        assert writer.wait(timeout=10) == 0
    finally:
        stop_writer(writer)


def test_an_empty_batch_and_a_nul_token_cross_processes_unchanged(tmp_path):
    writer, reader = start_channel_writer(tmp_path, "odd")
    try:
        texts = odd_texts()
        assert [reader.collect(timeout=10.0) for _ in texts] == texts
        assert wire.parse(texts[1], "edge-v1")[0].phoneme == "a\x00b"
        with pytest.raises(PeerGone):
            reader.collect(timeout=10.0)
        assert writer.wait(timeout=10) == 0
    finally:
        stop_writer(writer)
        reader.close()


# -- two client processes contending for one request box --------------------------

class RequestBoxContention(RuleBasedStateMachine):
    """Two writer processes connect to one request box, each sending one
    frame per connection, and this process takes the connections as their
    manager would. Every frame is read exactly once, and each writer's in
    the order it sent them. The writers are started once per test and
    shared by its examples, each of which uses a fresh box."""

    root: Path
    writers: dict[str, subprocess.Popen]

    def __init__(self):
        super().__init__()
        self.taker = Taker(Mailbox(
            Path(tempfile.mkdtemp(dir=self.root)) / "request").open())
        self.sent = dict.fromkeys(self.writers, 0)

    @rule(tag=st.sampled_from(["a", "b"]), count=st.integers(1, 4))
    def send(self, tag, count):
        writer = self.writers[tag]
        writer.stdin.write(f"{self.taker.box.path} {self.sent[tag]} {count}\n")
        writer.stdin.flush()
        self.sent[tag] += count

    @rule()
    def collect(self):
        self.taker.take()

    @invariant()
    def each_writer_seen_once_each_in_order(self):
        for tag in self.writers:
            seqs = sent_by(self.taker.seen, tag)
            assert seqs == list(range(len(seqs)))

    def teardown(self):
        try:
            self.taker.drain(
                lambda: len(self.taker.seen) >= sum(self.sent.values()))
            self.each_writer_seen_once_each_in_order()
            assert {tag: len(sent_by(self.taker.seen, tag))
                    for tag in self.writers} == self.sent
            assert self.taker.box.try_collect() is None
        finally:
            self.taker.close()


def test_two_client_processes_contending_for_a_request_box(tmp_path):
    writers = {tag: subprocess.Popen(
                   [sys.executable, str(REQUEST_WRITER), tag, str(SLEEP)],
                   stdin=subprocess.PIPE, text=True)
               for tag in ("a", "b")}
    RequestBoxContention.root = tmp_path
    RequestBoxContention.writers = writers
    try:
        run_state_machine_as_test(RequestBoxContention, settings=settings(
            max_examples=15, stateful_step_count=20, deadline=None))
    finally:
        for writer in writers.values():
            writer.stdin.close()
        for writer in writers.values():
            assert writer.wait(timeout=30) == 0

import os
import select
import signal
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
from whiteboard.errors import MailboxTimeout, PeerGone
from whiteboard.mailbox import Channel, Mailbox, wait_ready
from _channel_writer import big_text, odd_texts

SLEEP = 0.005


# -- request boxes ------------------------------------------------------------------

def make_box(tmp_path, name="request"):
    """A request box held open for reading, as its manager holds it."""
    return Mailbox(tmp_path / name).open()


def write_raw(box, data: bytes):
    """Write bytes to the box as a writer that keeps no rules would."""
    fd = os.open(box.path, os.O_WRONLY | os.O_NONBLOCK)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def test_deposit_then_collect_roundtrip(tmp_path):
    box = make_box(tmp_path)
    try:
        assert box.try_collect() is None
        assert box.try_deposit("(0 1 h 0.5)\n")
        assert box.try_deposit("(1 2 a 0.5)\n(2 3 i 0.5)\n")
        # every whole line that has arrived, in the order written
        assert box.try_collect() == "(0 1 h 0.5)\n(1 2 a 0.5)\n(2 3 i 0.5)\n"
        assert box.try_collect() is None
        write_raw(box, b"(open")  # a line's start waits for its end
        assert box.try_collect() is None
        write_raw(box, b" x)\n\xff\n")  # a byte that is not UTF-8
        assert box.try_collect() == "(open x)\n\ufffd\n"
    finally:
        box.close()
    assert list(tmp_path.iterdir()) == []  # the box and no temporary


def test_a_deposit_is_whole_lines_that_fit_one_atomic_write(tmp_path):
    box = make_box(tmp_path)
    try:
        longest = "x" * (select.PIPE_BUF - 1) + "\n"
        assert box.try_deposit(longest)
        assert box.try_collect() == longest
        for text in ["x" * select.PIPE_BUF + "\n", "(no end of line)"]:
            with pytest.raises(ValueError):
                box.try_deposit(text)
        assert box.try_collect() is None  # nothing was written
    finally:
        box.close()


def test_deposit_waits_for_drain(tmp_path):
    """A full box takes nothing, whole lines or none, until its reader
    drains it."""
    box = make_box(tmp_path)
    try:
        line = "x" * 99 + "\n"
        sent = 0
        while box.try_deposit(line):
            sent += 1
            assert sent < 10_000, "the box never filled"
        assert sent
        assert not box.try_deposit(line)  # refused again, nothing taken
        received = ""
        while (text := box.try_collect()) is not None:
            received += text
        assert received == line * sent
        assert box.try_deposit(line)
        assert box.try_collect() == line
    finally:
        box.close()


def test_collect_blocks_until_deposit(tmp_path):
    """A reader waiting on its box wakes as soon as a request arrives."""
    box = make_box(tmp_path)
    result = []

    def reader():
        if wait_ready([box], timeout=5.0):
            result.append((box.try_collect(), time.monotonic()))

    thread = threading.Thread(target=reader)
    try:
        thread.start()
        time.sleep(5 * SLEEP)
        assert result == []
        sent = time.monotonic()
        assert Mailbox(box.path).try_deposit("late\n")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        [(text, woke)] = result
        assert text == "late\n"
        assert woke - sent < 1.0
    finally:
        thread.join(timeout=5.0)
        box.close()


def test_sequential_handoffs_preserve_order(tmp_path):
    box = make_box(tmp_path)
    lines = [f"request-{i}\n" for i in range(50)]
    received = ""

    def writer():
        client = Mailbox(box.path)
        for line in lines:
            while not client.try_deposit(line):
                time.sleep(SLEEP)

    thread = threading.Thread(target=writer)
    try:
        thread.start()
        deadline = time.monotonic() + 10.0
        while received.count("\n") < len(lines):
            assert time.monotonic() < deadline, "stalled"
            wait_ready([box], timeout=SLEEP)
            received += box.try_collect() or ""
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert received == "".join(lines)
    finally:
        thread.join(timeout=5.0)
        box.close()


def test_an_orphaned_request_box_is_one_nobody_reads(tmp_path):
    path = tmp_path / "request"
    with pytest.raises(FileNotFoundError):
        Mailbox(path).try_deposit("(x)\n")
    box = Mailbox(path).open()
    box._close_ends()  # as if its reader died: the FIFO stays, unread
    start = time.monotonic()
    with pytest.raises(PeerGone):  # at once: nobody will read it
        Mailbox(path).try_deposit("(x)\n")
    assert time.monotonic() - start < 1.0
    replaced = Mailbox(path).open()  # a new reader replaces the dead one's box
    try:
        assert Mailbox(path).try_deposit("(y)\n")
        assert replaced.try_collect() == "(y)\n"
    finally:
        replaced.close()
    assert list(tmp_path.iterdir()) == []


def test_a_box_that_cannot_take_its_path_leaves_nothing_open(tmp_path):
    path = tmp_path / "request"
    (path / "inside").mkdir(parents=True)  # a directory holds the path
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(IsADirectoryError):
        Mailbox(path).open()
    assert len(os.listdir("/proc/self/fd")) == before
    assert list(tmp_path.iterdir()) == [path]  # and no temporary
    box = make_box(tmp_path, "other")
    os.unlink(box.path)  # removed under its reader
    box.close()  # which closes its ends all the same
    assert len(os.listdir("/proc/self/fd")) == before


def test_a_reader_gone_between_open_and_write_is_peer_gone(tmp_path, monkeypatch):
    box = make_box(tmp_path)
    before = len(os.listdir("/proc/self/fd"))

    def gone(fd, data):
        raise BrokenPipeError

    try:
        monkeypatch.setattr(os, "write", gone)
        with pytest.raises(PeerGone):
            box.try_deposit("(x)\n")
        monkeypatch.undo()
        assert len(os.listdir("/proc/self/fd")) == before  # the write end too
    finally:
        monkeypatch.undo()
        box.close()


# -- channels ---------------------------------------------------------------------

def make_channel(tmp_path, name="chan"):
    """The read end and the write end of a fresh channel."""
    reader = Channel(tmp_path / name).make().open_reader()
    return reader, Channel(reader.path).open_writer()


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
        assert writer.try_deposit("x" * 100_000)  # more than the FIFO holds
        with pytest.raises(MailboxTimeout):
            writer.deposit("y\n", timeout=3 * SLEEP)
    finally:
        reader.close()
        writer.close()


def test_a_channel_returns_every_frame_whole_once_and_in_order(tmp_path):
    reader, writer = make_channel(tmp_path)
    texts = ["", "(0 1 h 0.5)\n", "a\x00b\n", "\u00e9\n" * 5, "x" * 200_000]
    received = []
    try:
        def read_all():
            while len(received) < len(texts):
                received.append(reader.collect(timeout=10.0))

        thread = threading.Thread(target=read_all)
        thread.start()
        for text in texts:
            writer.deposit(text, timeout=10.0)
        thread.join(timeout=10.0)
        assert received == texts
        assert reader.try_collect() is None
    finally:
        reader.close()
        writer.close()


def test_a_writer_keeps_its_tail_and_takes_no_frame_until_it_is_written(tmp_path):
    reader, writer = make_channel(tmp_path)
    try:
        assert writer.try_deposit("x" * 100_000)  # more than the FIFO holds
        assert writer.pending
        assert not writer.try_deposit("next\n")  # refused, nothing taken
        assert reader.try_collect() is None  # only part of the frame is in
        assert wait_ready([], [writer], timeout=5.0)  # room for the tail now
        assert writer.flush() and not writer.pending
        assert writer.try_deposit("next\n")
        assert reader.try_collect() == "x" * 100_000
        assert reader.try_collect() == "next\n"
    finally:
        reader.close()
        writer.close()


def test_a_read_before_any_writer_is_nothing_yet_and_a_hang_up_is_peer_gone(
        tmp_path):
    reader = Channel(tmp_path / "chan").make().open_reader()
    try:
        assert reader.try_collect() is None  # no writer has opened it yet
        assert not wait_ready([reader], timeout=0.01)
        writer = Channel(reader.path).open_writer()
        writer.deposit("last\n")
        writer.close()
        assert wait_ready([reader], timeout=0.01)
        assert reader.try_collect() == "last\n"  # frames first, then the end
        with pytest.raises(PeerGone):
            reader.try_collect()
    finally:
        reader.close()
    with pytest.raises(PeerGone):  # nobody holds the read end
        Channel(reader.path).open_writer()


def test_a_writer_that_hangs_up_before_its_reader_opens_keeps_its_frames(
        tmp_path):
    writer = Channel(tmp_path / "chan").make().open_writer_first()
    writer.deposit("first\n")
    writer.hang_up()
    # no POLLHUP comes to a reader that opened after its writer left, so it
    # reads an end of file as the hang-up
    reader = Channel(writer.path).open_reader(writer_first=True)
    try:
        assert reader.try_collect() == "first\n"
        with pytest.raises(PeerGone):
            reader.try_collect()
    finally:
        reader.close()
        writer.close()  # and the read end it held
    assert (writer.fileno(), writer._keep) == (None, None)


def test_a_reader_that_opens_after_a_writer_that_died_gets_peer_gone(tmp_path):
    writer = Channel(tmp_path / "chan").make().open_writer_first()
    writer.deposit("lost\n")
    writer.close()  # as a writer that died: the FIFO drops what it held
    reader = Channel(writer.path).open_reader(writer_first=True)
    try:
        with pytest.raises(PeerGone):
            reader.try_collect()
    finally:
        reader.close()


def test_a_frame_length_from_a_corrupt_header_is_not_allocated(
        tmp_path, monkeypatch):
    read = os.read

    def bounded_read(fd, n):
        # os.read allocates `n` bytes before it reads
        assert n <= 1 << 20, f"asked to read {n} bytes"
        return read(fd, n)

    reader, writer = make_channel(tmp_path)
    try:
        os.write(writer.fileno(), b"\xff\xff\xff\xf0" + b"abc")
        monkeypatch.setattr(os, "read", bounded_read)
        assert reader.try_collect() is None  # the frame is not whole yet
        assert reader.try_collect() is None
    finally:
        reader.close()
        writer.close()


def test_a_blocking_collect_wakes_on_the_deposit_not_the_poll(tmp_path):
    reader, writer = make_channel(tmp_path)
    try:
        timer = threading.Timer(0.05, writer.deposit, args=("late\n",))
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
    """A client process writing `count` open requests into `box`."""
    proc = subprocess.Popen(
        [sys.executable, str(REQUEST_WRITER), tag, str(SLEEP),
         *([] if stop_at is None else [str(stop_at)])],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(f"{box.path} 0 {count}\n")
    proc.stdin.close()
    return proc


def take(box, seen: list) -> bool:
    """Collect once into `seen`, as (tag, seq). False if nothing had
    arrived."""
    text = box.try_collect()
    if text is None:
        return False
    for request in wire.parse(text):
        _, tag, seq = request.conn.split("-")
        seen.append((tag, int(seq)))
    return True


def drain(box, seen: list, until, timeout=30.0):
    """Collect requests into `seen` until `until()` holds."""
    deadline = time.monotonic() + timeout
    while not until():
        assert time.monotonic() < deadline, f"stalled with {len(seen)} seen"
        if not take(box, seen):
            wait_ready([box], timeout=SLEEP)


def sent_by(seen, tag):
    return [seq for t, seq in seen if t == tag]


def stopped(proc) -> bool:
    """The process is in the stopped state, as /proc reports it."""
    with open(f"/proc/{proc.pid}/stat", encoding="ascii") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0] == "T"


def holds_open(proc, path) -> bool:
    """The process has `path` open, as /proc reports it."""
    fds = f"/proc/{proc.pid}/fd"
    return any(os.readlink(f"{fds}/{fd}") == str(path) for fd in os.listdir(fds))


def stop_all(*procs):
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGCONT)
            proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_two_writer_processes_each_batch_collected_once(tmp_path):
    box = make_box(tmp_path)
    writers = [start_writer(box, tag, 150) for tag in ("a", "b")]
    seen = []
    try:
        drain(box, seen, lambda: len(seen) >= 300)
        for proc in writers:
            assert proc.wait(timeout=10) == 0
        assert box.try_collect() is None
    finally:
        stop_all(*writers)
        box.close()
    assert sent_by(seen, "a") == sent_by(seen, "b") == list(range(150))
    assert len(seen) == 300


def test_a_stopped_writer_stalls_neither_the_other_nor_the_reader(tmp_path):
    box = make_box(tmp_path)
    stalled = start_writer(box, "a", 40, stop_at=10)
    other = start_writer(box, "b", 100)
    seen = []
    try:
        assert stalled.stdout.readline() == "stopped\n"
        drain(box, seen, lambda: stopped(stalled))
        # stopped between opening the box for writing and writing to it
        assert holds_open(stalled, box.path)
        drain(box, seen, lambda: other.poll() is not None
              and len(sent_by(seen, "b")) == 100)
        assert other.returncode == 0
        assert sent_by(seen, "a") == list(range(10))
        assert box.try_collect() is None
        stalled.send_signal(signal.SIGCONT)
        drain(box, seen, lambda: len(sent_by(seen, "a")) == 40)
        assert stalled.wait(timeout=10) == 0
        assert box.try_collect() is None
    finally:
        stop_all(stalled, other)
        box.close()
    assert sent_by(seen, "a") == list(range(40))
    assert sent_by(seen, "b") == list(range(100))


def test_a_killed_writer_leaves_nothing_the_reader_sees(tmp_path):
    box = make_box(tmp_path)
    writer = start_writer(box, "a", 40, stop_at=5)
    seen = []
    try:
        assert writer.stdout.readline() == "stopped\n"
        drain(box, seen, lambda: stopped(writer) and len(seen) == 5)
        assert holds_open(writer, box.path)
        writer.kill()
        assert writer.wait(timeout=10) == -signal.SIGKILL
        # its end closed with it, and the reader's own keeps the box open
        assert box.try_collect() is None
        assert not wait_ready([box], timeout=5 * SLEEP)
        assert Mailbox(box.path).try_deposit("after\n")
        assert box.try_collect() == "after\n"
    finally:
        stop_all(writer)
        box.close()
    assert seen == [("a", seq) for seq in range(5)]
    assert list(tmp_path.iterdir()) == []


# -- fault injection on channels: one writer process of our own at a time -------

CHANNEL_WRITER = Path(__file__).parent / "_channel_writer.py"


def start_channel_writer(reader, mode):
    """Start a writer process on `reader`'s channel, once it has opened."""
    proc = subprocess.Popen(
        [sys.executable, str(CHANNEL_WRITER), str(reader.path), mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "open\n"
    return proc


def stop_writer(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGCONT)
        proc.kill()
    proc.wait(timeout=10)
    proc.stdin.close()
    proc.stdout.close()


def test_a_writer_killed_mid_frame_gives_peer_gone_never_the_part(tmp_path):
    reader = Channel(tmp_path / "chan").make().open_reader()
    writer = start_channel_writer(reader, "kill")
    try:
        assert writer.stdout.readline() == "partial\n"
        assert reader.try_collect() is None  # the part the FIFO held
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
    reader = Channel(tmp_path / "chan").make().open_reader()
    writer = start_channel_writer(reader, "stop")
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
    reader = Channel(tmp_path / "chan").make().open_reader()
    writer = start_channel_writer(reader, "gone")
    try:
        reader.close()
        writer.stdin.write("go\n")
        writer.stdin.flush()
        assert writer.stdout.readline() == "PeerGone\n"
        assert writer.wait(timeout=10) == 0
    finally:
        stop_writer(writer)


def test_an_empty_batch_and_a_nul_token_cross_processes_unchanged(tmp_path):
    reader = Channel(tmp_path / "chan").make().open_reader()
    writer = start_channel_writer(reader, "odd")
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
    """Two writer processes write open requests into one request box,
    which this process reads as its manager would. Every request is
    collected exactly once, and each writer's in the order it sent them.
    The writers are started once per test and shared by its examples,
    each of which uses a fresh box."""

    root: Path
    writers: dict[str, subprocess.Popen]

    def __init__(self):
        super().__init__()
        self.box = Mailbox(Path(tempfile.mkdtemp(dir=self.root)) / "request").open()
        self.sent = dict.fromkeys(self.writers, 0)
        self.seen: list[tuple[str, int]] = []

    @rule(tag=st.sampled_from(["a", "b"]), count=st.integers(1, 4))
    def send(self, tag, count):
        writer = self.writers[tag]
        writer.stdin.write(f"{self.box.path} {self.sent[tag]} {count}\n")
        writer.stdin.flush()
        self.sent[tag] += count

    @rule()
    def collect(self):
        take(self.box, self.seen)

    @invariant()
    def each_writer_seen_once_each_in_order(self):
        for tag in self.writers:
            seqs = sent_by(self.seen, tag)
            assert seqs == list(range(len(seqs)))

    def teardown(self):
        try:
            drain(self.box, self.seen,
                  lambda: len(self.seen) >= sum(self.sent.values()))
            self.each_writer_seen_once_each_in_order()
            assert {tag: len(sent_by(self.seen, tag))
                    for tag in self.writers} == self.sent
            assert self.box.try_collect() is None
        finally:
            self.box.close()


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

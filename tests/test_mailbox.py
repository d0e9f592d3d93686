import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
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
from whiteboard.errors import BoxRemoved, MailboxTimeout, PeerGone
from whiteboard.mailbox import (
    Bell,
    Channel,
    Mailbox,
    is_orphaned,
    ring,
    wait_ready,
)
from _channel_writer import big_text, odd_texts

SLEEP = 0.005


def make_box(tmp_path, name="box"):
    return Mailbox(tmp_path / name, sleep_time=SLEEP).create()


def test_deposit_then_collect_roundtrip(tmp_path):
    box = make_box(tmp_path)
    assert box.try_deposit("(0 1 h 0.5)\n")
    assert box.is_full()
    assert not list(box.path.glob("tmp-*"))  # the temporary is gone
    assert box.try_collect() == "(0 1 h 0.5)\n"
    assert not box.is_full()


def test_empty_batch_is_distinct_from_no_batch(tmp_path):
    box = make_box(tmp_path)
    assert box.try_collect() is None
    assert box.try_deposit("")
    assert box.try_collect() == ""


def test_deposit_waits_for_drain(tmp_path):
    box = make_box(tmp_path)
    box.deposit("first\n")
    collected = []

    def reader():
        time.sleep(10 * SLEEP)
        collected.append(box.collect())
        collected.append(box.collect())

    thread = threading.Thread(target=reader)
    thread.start()
    box.deposit("second\n", timeout=5.0)  # blocks until the reader drains
    thread.join(timeout=5.0)
    assert collected == ["first\n", "second\n"]


def test_collect_blocks_until_deposit(tmp_path):
    box = make_box(tmp_path)
    result = []

    def reader():
        result.append(box.collect(timeout=5.0))

    thread = threading.Thread(target=reader)
    thread.start()
    time.sleep(5 * SLEEP)
    assert result == []
    box.deposit("late\n")
    thread.join(timeout=5.0)
    assert result == ["late\n"]


def test_sequential_handoffs_preserve_order(tmp_path):
    box = make_box(tmp_path)
    batches = [f"batch-{i}\n" for i in range(50)]
    seen = []

    def reader():
        for _ in batches:
            seen.append(box.collect(timeout=10.0))

    thread = threading.Thread(target=reader)
    thread.start()
    for text in batches:
        box.deposit(text, timeout=10.0)
    thread.join(timeout=30.0)
    assert seen == batches


def test_box_removed_raises(tmp_path):
    box = make_box(tmp_path)
    box.remove()
    with pytest.raises(BoxRemoved):
        box.try_deposit("x\n")
    with pytest.raises(BoxRemoved):
        box.try_collect()


def test_timeouts_raise(tmp_path):
    box = make_box(tmp_path)
    with pytest.raises(MailboxTimeout):
        box.collect(timeout=3 * SLEEP)
    box.deposit("x\n")
    with pytest.raises(MailboxTimeout):
        box.deposit("y\n", timeout=3 * SLEEP)


# -- doorbells -------------------------------------------------------------------

def test_a_ring_wakes_a_waiter_and_is_drained(tmp_path):
    bell = Bell(tmp_path / "bell").open()
    other = Bell(tmp_path / "other").open()
    try:
        assert not wait_ready([bell], timeout=0.01)
        for _ in range(3):
            ring(bell.path)
        start = time.monotonic()
        assert wait_ready([other, bell], timeout=5.0)
        assert time.monotonic() - start < 1.0
        assert bell.drain() == b"\0" * 3  # every ring at once
        assert not wait_ready([other, bell], timeout=0.01)
    finally:
        bell.close()
        other.close()
    assert not bell.path.exists()
    ring(bell.path)  # no bell there: nothing happens


def test_a_deposit_rings_the_readers_bell_and_a_collect_rings_nobody(tmp_path):
    reader_bell = Bell(tmp_path / "reader-bell").open()
    reader = Mailbox(tmp_path / "box", SLEEP).create()
    writer = Mailbox(reader.path, SLEEP, peer=reader_bell.path)
    try:
        assert writer.try_deposit("one\n")
        assert wait_ready([reader_bell], timeout=5.0)
        reader_bell.drain()
        assert not writer.try_deposit("two\n")  # full: nothing handed over
        assert reader.try_collect() == "one\n"
        assert not wait_ready([reader_bell], timeout=0.01)
        assert not list(reader.path.iterdir())  # no mark, no temporary
    finally:
        reader_bell.close()


def test_an_orphaned_bell_is_one_nobody_reads(tmp_path):
    path = tmp_path / "bell"
    assert not is_orphaned(path)  # no bell: nothing is known
    bell = Bell(path).open()
    assert not is_orphaned(path)
    os.close(bell._read)  # as if its owner died: the FIFO stays, unread
    os.close(bell._keep)
    bell._read = bell._keep = None
    assert is_orphaned(path)
    box = Mailbox(tmp_path / "box", SLEEP, peer=path).create()
    assert box.try_deposit("first\n")  # the ring goes nowhere
    start = time.monotonic()
    with pytest.raises(PeerGone):
        box.deposit("second\n", timeout=5.0)  # nobody will empty the box
    assert time.monotonic() - start < 1.0


# -- channels ---------------------------------------------------------------------

def make_channel(tmp_path, name="chan"):
    """The read end and the write end of a fresh channel."""
    reader = Channel(tmp_path / name).make().open_reader()
    return reader, Channel(reader.path).open_writer()


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


# -- fault injection: writer processes of our own, at most three at a time ----

WRITER = Path(__file__).parent / "_mailbox_writer.py"


def start_writer(box, tag, count, pause_at=0, mode="none"):
    return subprocess.Popen(
        [sys.executable, str(WRITER), str(box.path), tag, str(count),
         str(SLEEP), str(pause_at), mode],
        stdout=subprocess.PIPE, text=True)


def drain(box, seen: Counter, until, timeout=30.0):
    """Collect batches into `seen` until `until()` holds."""
    deadline = time.monotonic() + timeout
    while not until():
        assert time.monotonic() < deadline, f"stalled with {sum(seen.values())} seen"
        text = box.try_collect()
        if text is None:
            time.sleep(SLEEP / 5)
        else:
            seen[tuple(text.split())] += 1


def stopped(proc) -> bool:
    """The process is in the stopped state, as /proc reports it."""
    with open(f"/proc/{proc.pid}/stat", encoding="ascii") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0] == "T"


def expected(**counts):
    return Counter({(tag, str(seq)): 1
                    for tag, n in counts.items() for seq in range(n)})


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
    seen = Counter()
    try:
        drain(box, seen, lambda: sum(seen.values()) == 300)
        for proc in writers:
            assert proc.wait(timeout=10) == 0
        assert box.try_collect() is None
    finally:
        stop_all(*writers)
    assert seen == expected(a=150, b=150)


def test_a_stopped_writer_stalls_neither_the_other_nor_the_reader(tmp_path):
    box = make_box(tmp_path)
    stalled = start_writer(box, "a", 40, pause_at=10, mode="stop")
    other = start_writer(box, "b", 100)
    seen = Counter()
    try:
        drain(box, seen, lambda: stopped(stalled))
        # stopped between writing its temporary file and linking it
        assert len(list(box.path.glob(f"tmp-{stalled.pid}-*"))) == 1
        drain(box, seen, lambda: other.poll() is not None and not box.is_full())
        assert other.returncode == 0
        assert seen[("b", "99")] == 1
        # resumed onto a full slot, its link must fail and be retried
        assert box.try_deposit("c 0\n")
        stalled.send_signal(signal.SIGCONT)
        drain(box, seen, lambda: seen[("a", "39")] == 1)
        assert stalled.wait(timeout=10) == 0
        assert box.try_collect() is None
    finally:
        stop_all(stalled, other)
    assert seen == expected(a=40, b=100, c=1)
    assert not list(box.path.glob("tmp-*"))


def test_a_killed_writer_leaves_only_an_invisible_temporary(tmp_path):
    box = make_box(tmp_path)
    writer = start_writer(box, "a", 40, pause_at=5, mode="hang")
    seen = Counter()
    try:
        drain(box, seen, lambda: sum(seen.values()) == 5)
        # the box is empty, so the next deposit reaches its link and hangs
        assert writer.stdout.readline() == "paused\n"
        writer.kill()
        assert writer.wait(timeout=10) != 0
    finally:
        stop_all(writer)
    assert len(list(box.path.glob("tmp-*"))) == 1
    assert box.try_collect() is None  # the temporary never became a batch
    assert seen == expected(a=5)
    assert box.try_deposit("after\n")
    assert box.try_collect() == "after\n"
    box.remove()
    assert not box.path.exists()


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

REQUEST_WRITER = Path(__file__).parent / "_request_writer.py"


class RequestBoxContention(RuleBasedStateMachine):
    """Two writer processes deposit open requests into one request box,
    which this process reads as its manager would. Every request is
    collected exactly once, and each writer's in the order it sent them.
    The writers are started once per test and shared by its examples,
    each of which uses a fresh box."""

    root: Path
    writers: dict[str, subprocess.Popen]

    def __init__(self):
        super().__init__()
        self.box = Mailbox(Path(tempfile.mkdtemp(dir=self.root)) / "request",
                           SLEEP).create()
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
        self.take()

    def take(self) -> bool:
        text = self.box.try_collect()
        if text is None:
            return False
        [request] = wire.parse(text)
        _, tag, seq = request.conn.split("-")
        self.seen.append((tag, int(seq)))
        return True

    @invariant()
    def each_writer_seen_once_each_in_order(self):
        for tag in self.writers:
            seqs = [seq for t, seq in self.seen if t == tag]
            assert seqs == list(range(len(seqs)))

    def teardown(self):
        deadline = time.monotonic() + 30.0
        while len(self.seen) < sum(self.sent.values()):
            assert time.monotonic() < deadline, f"stalled at {self.seen}"
            if not self.take():
                time.sleep(SLEEP / 5)
        self.each_writer_seen_once_each_in_order()
        assert Counter(t for t, _ in self.seen) == Counter(self.sent)
        assert self.box.try_collect() is None
        self.box.remove()


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

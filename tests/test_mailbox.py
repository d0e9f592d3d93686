import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from whiteboard.errors import BoxRemoved, MailboxTimeout, PeerGone
from whiteboard.mailbox import (
    WAITING_NAME,
    Bell,
    Mailbox,
    is_orphaned,
    ring,
    wait_for_rings,
)

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
        assert not bell.wait(0.01)
        for _ in range(3):
            ring(bell.path)
        start = time.monotonic()
        assert wait_for_rings([other, bell], 5.0)
        assert time.monotonic() - start < 1.0
        assert not bell.wait(0.01)  # every ring was drained at once
    finally:
        bell.close()
        other.close()
    assert not bell.path.exists()
    ring(bell.path)  # no bell there: nothing happens


def test_a_collect_rings_only_a_writer_that_found_the_slot_full(tmp_path):
    writer_bell = Bell(tmp_path / "writer-bell").open()
    reader = Mailbox(tmp_path / "box", SLEEP, peer=writer_bell.path).create()
    writer = Mailbox(reader.path, SLEEP, writer_bell)
    try:
        assert writer.try_deposit("one\n")
        assert reader.try_collect() == "one\n"
        assert not writer_bell.wait(0.01)  # the writer was not held up
        assert writer.try_deposit("two\n")
        assert not writer.try_deposit("three\n")  # held up: leaves its mark
        assert (reader.path / WAITING_NAME).exists()
        assert reader.try_collect() == "two\n"
        assert not (reader.path / WAITING_NAME).exists()
        assert writer_bell.wait(5.0)
        assert writer.try_deposit("three\n")
        assert not writer.try_deposit("four\n")
        reader.remove()  # the mark goes with the box
        assert not reader.path.exists()
    finally:
        writer_bell.close()


def test_a_blocking_collect_wakes_on_the_deposit_not_the_poll(tmp_path):
    bell = Bell(tmp_path / "reader-bell").open()
    reader = Mailbox(tmp_path / "box", 5.0, bell).create()
    writer = Mailbox(reader.path, 5.0, peer=bell.path)
    try:
        timer = threading.Timer(0.05, writer.deposit, args=("late\n",))
        start = time.monotonic()
        timer.start()
        assert reader.collect(timeout=10.0) == "late\n"
        assert time.monotonic() - start < 1.0
        timer.join()
    finally:
        bell.close()


def test_an_orphaned_bell_is_one_nobody_reads(tmp_path):
    path = tmp_path / "bell"
    assert not is_orphaned(path)  # no bell: nothing is known
    bell = Bell(path).open()
    assert not is_orphaned(path)
    os.close(bell._read)  # as if its owner died: the FIFO stays, unread
    os.close(bell._keep)
    bell._read = bell._keep = None
    assert is_orphaned(path)
    box = Mailbox(tmp_path / "box", SLEEP, Bell(tmp_path / "own").open(),
                  peer=path).create()
    try:
        with pytest.raises(PeerGone):
            box.collect(timeout=5.0)
    finally:
        box.bell.close()


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

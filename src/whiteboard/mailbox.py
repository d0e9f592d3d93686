"""Single-slot file mailboxes, and the doorbells that wake their waiters.

A mailbox is a directory holding at most one `batch` file, the message.
The slot alternates strictly between empty and full. A writer writes its
batch to a temporary file of its own, ``tmp-<pid>-<n>``, and links it to
`batch`; the link is atomic and fails while the slot is full, so a batch
appears only whole, and a writer never replaces a batch another has
deposited. The reader reads `batch`, then unlinks it, which empties the
slot.

Only the file system is used, so the parties may live in any processes
on the host. Every box has exactly one reader; that is a contract, not a
detected error. A connection's boxes also have exactly one writer. A
manager's request box is the one box with several writers, every client
that opens a connection, and the link hands the slot to one of them at a
time. No lock exists, so nothing can go stale: a writer that dies
mid-deposit leaves only its temporary file, which no reader ever sees and
`remove` clears.

A waiter does not sleep a poll period between tries: it waits on its
doorbell, a FIFO that its own process holds open for reading, and a ring
is one byte written to it without blocking. Whoever fills a box rings the
bell of the box's reader. A writer that finds the slot full leaves a
`waiting` mark in the box, and the reader that next empties the slot
removes the mark and rings the writer's bell, if it knows it; so only a
writer that is held up is woken by a collect. The waiter drains every
byte and tries once more. A ring is only a hint: a box still changes
hands only by its link and unlink, and a waiter gives up on a ring after
one poll period, so a lost ring costs at most one poll. A bell whose path
is there but that no process reads was left by an owner that died, so a
waiter on its boxes stops waiting (`PeerGone`).
"""

from __future__ import annotations

import errno
import itertools
import os
import select
import time
from pathlib import Path

from .errors import BoxRemoved, MailboxTimeout, PeerGone

BATCH_NAME = "batch"
TMP_PREFIX = "tmp-"
WAITING_NAME = "waiting"

# numbers this process's temporary files, so no two writers share one
_tmp_serial = itertools.count()


class Bell:
    """A doorbell at `path`: a FIFO that the process which opened it reads.

    `open` makes the FIFO, replacing one a dead owner left, and `close`
    removes it. The owner also holds a write end of its own, so the read
    end never reports a hang-up when a ringer closes."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._read = self._keep = None

    def open(self) -> "Bell":
        path = os.fspath(self.path)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        os.mkfifo(path)
        self._read = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        self._keep = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
        return self

    def close(self) -> None:
        if self._read is None:
            return
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        os.close(self._read)
        os.close(self._keep)
        self._read = self._keep = None

    def fileno(self) -> int:
        return self._read

    def wait(self, timeout: float) -> bool:
        return wait_for_rings([self], timeout)

    def drain(self) -> bytes:
        """Every ring since the last drain: a FIFO holds at most 64 KiB."""
        try:
            return os.read(self._read, 1 << 16)
        except BlockingIOError:
            return b""


def wait_for_rings(bells, timeout: float) -> bool:
    """Block until one of `bells` rings or `timeout` seconds pass, then
    drain every bell that rang. Returns True if one rang."""
    # select(2) times out to the microsecond, where epoll and poll round
    # up to the millisecond, which would stretch a paced source's period;
    # a waiter holds only a few bells, at low descriptors
    ready, _, _ = select.select(bells, [], [], timeout)
    for bell in ready:
        bell.drain()
    return bool(ready)


def ring(path: Path | str) -> None:
    """Write one byte to the bell at `path` without blocking. Nothing
    happens if no bell is there or nobody reads it, and a full bell has
    rung already."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
    except OSError:
        return
    try:
        os.write(fd, b"\0")
    except OSError:
        pass
    finally:
        os.close(fd)


def is_orphaned(path: Path | str) -> bool:
    """True if the bell at `path` is there but no process reads it: its
    owner died without removing it."""
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
    except OSError as exc:
        return exc.errno == errno.ENXIO
    return False


class Mailbox:
    """One exchange slot rooted at `path`, polled every `sleep_time` seconds.

    `bell` is the holder's own open doorbell, which the blocking `deposit`
    and `collect` wait on between tries; without one they sleep. `peer` is
    the path of the doorbell of the party on the box's other side: a
    deposit rings it for the box's reader, and a collect for a writer that
    left its `waiting` mark."""

    def __init__(self, path: Path | str, sleep_time: float = 0.05,
                 bell: Bell | None = None, peer: Path | str | None = None):
        if sleep_time <= 0:
            raise ValueError("sleep_time must be positive")
        self.path = Path(path)
        self.sleep_time = sleep_time
        self.bell = bell
        self.peer = None if peer is None else os.fspath(peer)
        self.batch_path = self.path / BATCH_NAME
        # plain strings for the per-call system calls
        self._dir = os.fspath(self.path)
        self._batch = os.fspath(self.batch_path)
        self._waiting = os.path.join(self._dir, WAITING_NAME)

    def create(self) -> "Mailbox":
        self.path.mkdir(parents=True, exist_ok=True)
        return self

    def remove(self) -> None:
        """Remove the box with its batch, its `waiting` mark and any
        temporary file a dead writer left."""
        try:
            names = os.listdir(self._dir)
        except FileNotFoundError:
            return
        for name in names:
            if name in (BATCH_NAME, WAITING_NAME) or name.startswith(TMP_PREFIX):
                try:
                    os.unlink(os.path.join(self._dir, name))
                except FileNotFoundError:
                    pass
        try:
            os.rmdir(self._dir)
        except FileNotFoundError:
            pass

    def exists(self) -> bool:
        return os.path.isdir(self._dir)

    def is_full(self) -> bool:
        if not self.exists():
            raise self._removed()
        return os.path.exists(self._batch)

    def _removed(self) -> BoxRemoved:
        return BoxRemoved(f"mailbox gone: {self.path}")

    # -- the reader/writer protocol -------------------------------------------

    def try_deposit(self, text: str) -> bool:
        """One writer wake-up: deposit if the box is empty. Returns False
        if it is full, leaving the `waiting` mark."""
        if os.path.exists(self._batch):
            try:
                os.close(os.open(self._waiting, os.O_WRONLY | os.O_CREAT,
                                 0o666))
            except FileNotFoundError:
                raise self._removed() from None
            # the reader may have emptied the slot before the mark was there
            if os.path.exists(self._batch):
                return False
            try:
                os.unlink(self._waiting)
            except FileNotFoundError:
                pass
        tmp = f"{self._dir}/{TMP_PREFIX}{os.getpid()}-{next(_tmp_serial)}"
        try:
            with open(tmp, "xb") as fh:
                fh.write(text.encode("utf-8"))
            os.link(tmp, self._batch)
        except FileExistsError:  # another writer's batch filled the slot
            return False
        except FileNotFoundError:
            raise self._removed() from None
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
        if self.peer is not None:
            ring(self.peer)
        return True

    def try_collect(self) -> str | None:
        """One reader wake-up: drain the box if it is full."""
        try:
            with open(self._batch, "rb") as fh:
                text = fh.read().decode("utf-8")
        except FileNotFoundError:
            if not self.exists():
                raise self._removed() from None
            return None
        try:
            os.unlink(self._batch)
        except FileNotFoundError:  # besides the reader, only `remove` unlinks it
            raise self._removed() from None
        try:
            os.unlink(self._waiting)
        except FileNotFoundError:
            pass
        else:
            if self.peer is not None:
                ring(self.peer)
        return text

    def deposit(self, text: str, timeout: float | None = None) -> None:
        """Block until the batch is deposited."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.try_deposit(text):
            self._wait(deadline, "deposit")

    def collect(self, timeout: float | None = None) -> str:
        """Block until a batch is collected."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while (text := self.try_collect()) is None:
            self._wait(deadline, "collect")
        return text

    def _wait(self, deadline: float | None, what: str) -> None:
        """Wait for the next try: until the holder's bell rings, or one
        poll period. After a period with no ring, an orphaned peer bell
        means nobody is left to fill or empty the box."""
        if deadline is not None and time.monotonic() >= deadline:
            raise MailboxTimeout(f"{what} timed out on {self.path}")
        if self.bell is None:
            time.sleep(self.sleep_time)
        elif (not self.bell.wait(self.sleep_time) and self.peer is not None
              and is_orphaned(self.peer)):
            raise PeerGone(f"{what} on {self.path}: nobody reads the bell "
                           f"{self.peer}")

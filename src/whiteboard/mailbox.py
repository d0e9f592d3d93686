"""Single-slot file mailboxes, framed FIFO channels, and doorbells.

A mailbox is a directory holding at most one `batch` file, the message.
The slot alternates strictly between empty and full. A writer writes its
batch to a temporary file of its own, ``tmp-<pid>-<n>``, and links it to
`batch`; the link is atomic and fails while the slot is full, so a batch
appears only whole, and a writer never replaces a batch another has
deposited. The reader reads `batch`, then unlinks it, which empties the
slot. Every box has exactly one reader, which is a contract, not a
detected error, and may have many writers: a manager's request box is
written by every client that opens a connection, and the link hands the
slot to one of them at a time. No lock exists, so nothing can go stale: a
writer that dies mid-deposit leaves only its temporary file, which no
reader ever sees and `remove` clears.

A box's reader may own a doorbell, a FIFO that its own process holds open
for reading, and a deposit rings it: one byte written without blocking. A
ring is only a hint, since a box still changes hands only by its link and
unlink, so a waiter also tries again after one poll period. A bell whose
path is there but that no process reads was left by an owner that died,
so a writer waiting on a box whose reader's bell is orphaned stops
waiting (`PeerGone`).

A channel carries the batches of one direction of a connection, which has
exactly one writer and one reader: a FIFO in which each batch is one
frame, its UTF-8 text behind its length. An empty batch is a frame too.
The writer writes without blocking and keeps the tail that did not fit,
to be written first. The reader reads exactly one frame at a time, so
whatever it has not read stays in the FIFO, and a readable FIFO is its
reader's wake-up: a channel is its own doorbell. When the writer closes
its end, or dies, the reader drops any partial frame and raises
`PeerGone`; so does a writer whose reader has gone.
"""

from __future__ import annotations

import errno
import itertools
import os
import select
import struct
import time
from pathlib import Path

from .errors import BoxRemoved, MailboxTimeout, PeerGone

BATCH_NAME = "batch"
TMP_PREFIX = "tmp-"

# numbers this process's temporary files, so no two writers share one
_tmp_serial = itertools.count()

# a channel frame's header: the length of its UTF-8 payload in bytes
_FRAME_HEADER = struct.Struct(">I")


def wait_ready(readers, writers=(), timeout: float | None = None) -> list:
    """Block until one of `readers` is readable or one of `writers` is
    writable, or `timeout` seconds pass. Returns those that are ready, the
    readable ones first: empty if the wait timed out."""
    # select(2) times out to the microsecond, where epoll and poll round
    # up to the millisecond, which would stretch a paced source's period;
    # a waiter holds only a few descriptors, at low numbers
    readable, writable, _ = select.select(readers, writers, [], timeout)
    return readable + writable


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

    def drain(self) -> bytes:
        """Every ring since the last drain: a FIFO holds at most 64 KiB."""
        try:
            return os.read(self._read, 1 << 16)
        except BlockingIOError:
            return b""


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

    `peer` is the path of the doorbell of the box's reader: a deposit
    rings it, and a blocking deposit or collect that finds it orphaned
    gives up."""

    def __init__(self, path: Path | str, sleep_time: float = 0.05,
                 peer: Path | str | None = None):
        if sleep_time <= 0:
            raise ValueError("sleep_time must be positive")
        self.path = Path(path)
        self.sleep_time = sleep_time
        self.peer = None if peer is None else os.fspath(peer)
        self.batch_path = self.path / BATCH_NAME
        # plain strings for the per-call system calls
        self._dir = os.fspath(self.path)
        self._batch = os.fspath(self.batch_path)

    def create(self) -> "Mailbox":
        self.path.mkdir(parents=True, exist_ok=True)
        return self

    def remove(self) -> None:
        """Remove the box with its batch and any temporary file a dead
        writer left."""
        try:
            names = os.listdir(self._dir)
        except FileNotFoundError:
            return
        for name in names:
            if name == BATCH_NAME or name.startswith(TMP_PREFIX):
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
        if it is full."""
        if os.path.exists(self._batch):
            return False
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
        """Sleep one poll period before the next try. An orphaned peer bell
        means nobody is left to empty the box."""
        if deadline is not None and time.monotonic() >= deadline:
            raise MailboxTimeout(f"{what} timed out on {self.path}")
        time.sleep(self.sleep_time)
        if self.peer is not None and is_orphaned(self.peer):
            raise PeerGone(f"{what} on {self.path}: nobody reads the bell "
                           f"{self.peer}")


class Channel:
    """One end of the FIFO at `path`: the read end or the write end.

    `make` creates the FIFO. The reader opens its end first
    (`open_reader`), which needs no writer yet; the writer's
    `open_writer` then finds it, and raises `PeerGone` if nobody holds the
    read end. An empty read before any writer has opened the FIFO means
    nothing has arrived yet, not that the writer has gone."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._fd: int | None = None
        # the writer's unwritten end of its last frame
        self._tail = memoryview(b"")
        # the reader's partial frame
        self._frame = bytearray()

    def make(self) -> "Channel":
        os.mkfifo(self.path)
        return self

    def open_reader(self) -> "Channel":
        self._fd = os.open(self.path, os.O_RDONLY | os.O_NONBLOCK)
        return self

    def open_writer(self) -> "Channel":
        try:
            self._fd = os.open(self.path, os.O_WRONLY | os.O_NONBLOCK)
        except OSError as exc:
            if exc.errno != errno.ENXIO:
                raise
            raise PeerGone(f"nobody reads {self.path}") from None
        return self

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def fileno(self) -> int:
        return self._fd

    @property
    def pending(self) -> bool:
        """The writer still holds the tail of its last frame."""
        return bool(self._tail)

    # -- the writer ---------------------------------------------------------------

    def try_deposit(self, text: str) -> bool:
        """One writer wake-up: hand a batch over as one frame, writing
        what fits and keeping the rest. Returns False, taking nothing,
        while the tail of the frame before is still unwritten."""
        if not self.flush():
            return False
        payload = text.encode("utf-8")
        self._tail = memoryview(_FRAME_HEADER.pack(len(payload)) + payload)
        self.flush()
        return True

    def flush(self) -> bool:
        """Write what the FIFO takes of the last frame's tail. Returns
        True once none is left."""
        while self._tail:
            try:
                written = os.write(self._fd, self._tail)
            except BlockingIOError:
                return False
            except BrokenPipeError:
                raise PeerGone(f"nobody reads {self.path}") from None
            self._tail = self._tail[written:]
        return True

    def deposit(self, text: str, timeout: float | None = None) -> None:
        """Block until the whole frame is written."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.try_deposit(text):
            self._wait(deadline, "deposit")
        while not self.flush():
            self._wait(deadline, "deposit")

    # -- the reader ---------------------------------------------------------------

    def try_collect(self) -> str | None:
        """One reader wake-up: the next whole batch, or None while none has
        arrived whole. Raises `PeerGone` once the writer has gone, dropping
        a partial frame."""
        frame = self._frame
        while True:
            size = _FRAME_HEADER.size
            if len(frame) >= size:
                size += _FRAME_HEADER.unpack_from(frame)[0]
                if len(frame) == size:
                    self._frame = bytearray()
                    return frame[_FRAME_HEADER.size:].decode("utf-8")
            try:
                chunk = os.read(self._fd, size - len(frame))
            except BlockingIOError:
                return None
            if not chunk:  # no writer holds the FIFO
                if not self._hung_up():
                    return None
                self._frame = bytearray()
                raise PeerGone(f"the writer of {self.path} has gone")
            frame += chunk

    def _hung_up(self) -> bool:
        """A writer had the FIFO open and has closed it: the kernel reports
        a hang-up only to a reader that has seen a writer since it opened."""
        poller = select.poll()
        poller.register(self._fd, select.POLLIN)
        return any(events & select.POLLHUP for _, events in poller.poll(0))

    def collect(self, timeout: float | None = None) -> str:
        """Block until a whole batch has arrived."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while (text := self.try_collect()) is None:
            self._wait(deadline, "collect")
        return text

    def _wait(self, deadline: float | None, what: str) -> None:
        """Wait until the FIFO is writable, for a writer holding a tail, or
        readable, for a reader."""
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise MailboxTimeout(f"{what} timed out on {self.path}")
        if self.pending:
            wait_ready([], [self], remaining)
        else:
            wait_ready([self], [], remaining)

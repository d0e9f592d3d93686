"""Request boxes and channels: the FIFOs between clients and managers.

A manager's request box is a FIFO that the manager reads and any number
of clients write. A client writes its request as whole lines in one
non-blocking write of at most `select.PIPE_BUF` bytes, which pipe(7)
makes atomic, so the lines of concurrent clients never interleave, and a
full FIFO takes nothing. The manager makes the FIFO under a temporary
name, opens it for reading, and for writing too so that its read end
never reports a hang-up, and only then renames it onto the box's path,
replacing any FIFO a dead manager left. So a client that finds the box
finds its reader too, unless the manager has died: then nobody reads
the FIFO, and the client's open fails at once (`PeerGone`).

A channel carries the batches of one direction of a connection, which has
exactly one writer and one reader: a FIFO in which each batch is one
frame, its UTF-8 text behind its length. An empty batch is a frame too.
The writer writes without blocking and keeps the tail that did not fit,
to be written first. The reader reads exactly one frame at a time, so
whatever it has not read stays in the FIFO, and a readable FIFO is its
reader's wake-up: a channel is its own doorbell. When the writer closes
its end, or dies, the reader drops any partial frame and raises
`PeerGone`; so does a writer whose reader has gone.

Either end of a channel may open first. A writer that opens first holds
a read end of its own until it closes, so the FIFO takes and keeps what
it writes, even after its hang-up, for the reader to come; only a writer
that opened after its reader gets `PeerGone` once that reader has gone.
The kernel reports a hang-up only to a reader that opened while a writer
held the FIFO, so a reader that opens after its writer (`writer_first`)
reads an end of file as the hang-up.
"""

from __future__ import annotations

import errno
import os
import select
import struct
import time
from pathlib import Path

from .errors import AlreadyClosed, MailboxTimeout, PeerGone

# a channel frame's header: the length of its UTF-8 payload in bytes
_FRAME_HEADER = struct.Struct(">I")
# the most one read asks for: a frame's length comes from another process,
# and `os.read` allocates what it is asked for before it reads
_READ_LIMIT = 1 << 16
# the longest a blocking call on a channel waits before it calls its `check`
CHECK_PERIOD = 0.05


def wait_ready(readers, writers=(), timeout: float | None = None) -> list:
    """Block until one of `readers` is readable or one of `writers` is
    writable, or `timeout` seconds pass. Returns those that are ready, the
    readable ones first: empty if the wait timed out."""
    # select(2) times out to the microsecond, where epoll and poll round
    # up to the millisecond, which would stretch a paced source's period;
    # a waiter holds only a few descriptors, at low numbers
    readable, writable, _ = select.select(readers, writers, [], timeout)
    return readable + writable


def _open_writer(path: Path) -> int:
    """A non-blocking write end of the FIFO at `path`. Raises `PeerGone`
    if nobody holds its read end."""
    try:
        return os.open(path, os.O_WRONLY | os.O_NONBLOCK)
    except OSError as exc:
        if exc.errno != errno.ENXIO:
            raise
        raise PeerGone(f"nobody reads {path}") from None


class Mailbox:
    """The request box at `path`: a FIFO with one reader, which `open`s
    and `close`s it, and any number of writers, each of whose deposits
    is whole lines in one atomic write."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._read: int | None = None
        self._keep: int | None = None
        # the start of a line whose end has not arrived
        self._partial = b""

    def open(self) -> "Mailbox":
        """Make the box and hold it open for reading, replacing a box that
        a dead reader left."""
        tmp = self.path.with_name(f"{self.path.name}-{os.getpid()}.tmp")
        os.mkfifo(tmp)
        try:
            self._read = os.open(tmp, os.O_RDONLY | os.O_NONBLOCK)
            self._keep = os.open(tmp, os.O_WRONLY | os.O_NONBLOCK)
            os.rename(tmp, self.path)
        except OSError:
            os.unlink(tmp)
            self._close_ends()
            raise
        return self

    def close(self) -> None:
        """Remove the box and close the reader's ends."""
        if self._read is not None:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
        self._close_ends()

    def _close_ends(self) -> None:
        for fd in (self._read, self._keep):
            if fd is not None:
                os.close(fd)
        self._read = self._keep = None

    def fileno(self) -> int:
        return self._read

    def try_deposit(self, text: str) -> bool:
        """One writer wake-up: write `text`, whole lines of at most
        `select.PIPE_BUF` bytes, in one atomic write. Returns False,
        writing nothing, if the FIFO is full. Raises FileNotFoundError if
        no box is there, and `PeerGone` if nobody reads it."""
        data = text.encode("utf-8")
        if len(data) > select.PIPE_BUF or not data.endswith(b"\n"):
            raise ValueError(f"a deposit must be whole lines of at most "
                             f"{select.PIPE_BUF} bytes, got {len(data)} bytes")
        fd = _open_writer(self.path)
        try:
            os.write(fd, data)
        except BlockingIOError:
            return False
        except BrokenPipeError:  # the reader went since the open
            raise PeerGone(f"nobody reads {self.path}") from None
        finally:
            os.close(fd)
        return True

    def try_collect(self) -> str | None:
        """One reader wake-up: every whole line that has arrived, or None
        while none has. One read takes what the FIFO holds, 64 KiB at
        most; a byte that is not UTF-8 spoils only its own line."""
        try:
            data = self._partial + os.read(self._read, _READ_LIMIT)
        except BlockingIOError:
            return None
        end = data.rfind(b"\n") + 1
        self._partial = data[end:]
        return data[:end].decode("utf-8", errors="replace") if end else None


class Channel:
    """One end of the FIFO at `path`: the read end or the write end.

    `make` creates the FIFO. Either end may open first. The reader's
    `open_reader` needs no writer yet; the writer's `open_writer` then
    finds it, and raises `PeerGone` if nobody holds the read end. A writer
    that opens first (`open_writer_first`) holds the FIFO before its
    reader comes."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._fd: int | None = None
        # the read end held by a writer that opened first, until it closes
        self._keep: int | None = None
        # the writer's unwritten end of its last frame
        self._tail = memoryview(b"")
        # the reader's partial frame
        self._frame = bytearray()
        self._writer_first = False

    def make(self) -> "Channel":
        os.mkfifo(self.path)
        return self

    def open_reader(self, writer_first: bool = False) -> "Channel":
        """Open the read end. Unless `writer_first` says the writer opened
        the FIFO before this reader, an empty read before any writer has
        opened it means nothing has arrived yet, not that the writer has
        gone."""
        self._fd = os.open(self.path, os.O_RDONLY | os.O_NONBLOCK)
        self._writer_first = writer_first
        return self

    def open_writer(self) -> "Channel":
        self._fd = _open_writer(self.path)
        return self

    def open_writer_first(self) -> "Channel":
        """Open the write end before any reader, through a read end of
        this process's own that it holds, reading nothing, until `close`:
        what it writes waits in the FIFO for the reader to come. A reader
        that opens while this writer holds the FIFO is told when it
        goes."""
        self._keep = os.open(self.path, os.O_RDONLY | os.O_NONBLOCK)
        return self.open_writer()

    def close(self) -> None:
        for fd in (self._fd, self._keep):
            if fd is not None:
                os.close(fd)
        self._fd = self._keep = None

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
        True once none is left. Raises `AlreadyClosed` once the write end
        is closed."""
        if self._fd is None:
            raise AlreadyClosed(f"{self.path} is closed for writing")
        while self._tail:
            try:
                written = os.write(self._fd, self._tail)
            except BlockingIOError:
                return False
            except BrokenPipeError:
                raise PeerGone(f"nobody reads {self.path}") from None
            self._tail = self._tail[written:]
        return True

    def deposit(self, text: str, timeout: float | None = None,
                check=None) -> None:
        """Block until the whole frame is written."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.try_deposit(text):
            self._wait(deadline, "deposit", check)
        while not self.flush():
            self._wait(deadline, "deposit", check)

    def hang_up(self, timeout: float | None = None, check=None) -> None:
        """Write out the last frame's tail, then close the write end: the
        reader reads every frame whole, then the hang-up. A writer that
        opened first holds its read end until `close`."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.flush():
            self._wait(deadline, "hang-up", check)
        os.close(self._fd)
        self._fd = None

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
                chunk = os.read(self._fd, min(size - len(frame), _READ_LIMIT))
            except BlockingIOError:
                return None
            if not chunk:  # no writer holds the FIFO
                if not self.hung_up():
                    return None
                self._frame = bytearray()
                raise PeerGone(f"the writer of {self.path} has gone")
            frame += chunk

    def hung_up(self) -> bool:
        """A writer had the FIFO open and has closed it. A reader that opened
        after its writer knows it had; to any other, the kernel reports a
        hang-up only once it has seen a writer since it opened."""
        if self._writer_first:
            return True
        poller = select.poll()
        poller.register(self._fd, select.POLLIN)
        return any(events & select.POLLHUP for _, events in poller.poll(0))

    def collect(self, timeout: float | None = None, check=None) -> str:
        """Block until a whole batch has arrived."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while (text := self.try_collect()) is None:
            self._wait(deadline, "collect", check)
        return text

    def _wait(self, deadline: float | None, what: str, check) -> None:
        """Wait until the FIFO is writable, for a writer holding a tail, or
        readable, for a reader. With a `check` to call after a wait that
        found neither, which may raise to end the blocking call, wait at
        most `CHECK_PERIOD`."""
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise MailboxTimeout(f"{what} timed out on {self.path}")
        if check is not None:
            remaining = min(CHECK_PERIOD, remaining or CHECK_PERIOD)
        ready = (wait_ready([], [self], remaining) if self.pending
                 else wait_ready([self], [], remaining))
        if not ready and check is not None:
            check()

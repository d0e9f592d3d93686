"""Request boxes and channels: the sockets between clients and managers.

A manager's request box is an AF_UNIX stream socket listening at the
box's path. A client's non-blocking connect queues a connection there,
which the manager accepts when it next takes its requests; while the
queue is full the connect takes nothing, and the client asks again. The
manager binds the socket under a temporary name, listens, and only then
renames it onto the box's path, replacing any box a dead manager left. So
a client that finds the box finds it listened on, unless the manager has
died: then the connect is refused at once (`PeerGone`).

A socket's address must fit `sun_path`, 108 bytes, and a box's path may
be longer. So a box is always bound and connected through
``/proc/self/fd/<fd>/<name>``, where `fd` is an `O_PATH` descriptor of
the box's directory, held only for the call.

A connection is one connected socket, whose two ends are channels: each
carries the batches of one party to the other, each batch one frame, its
UTF-8 text behind its length. An empty batch is a frame too. A write
never blocks: `try_deposit` writes what fits and keeps the tail, which
`flush` writes first; only a `hang_up` and a `collect` wait. The reader
reads exactly one frame at a time, so whatever it has not read stays in
the socket, and a readable socket is its reader's wake-up: a channel is
its own doorbell. A party that is done writing shuts its end for
writing; its peer reads every frame whole, then the end of file. When
either party goes, or dies, whether or not its peer has accepted the
connection, the other gets `PeerGone` at its next read, after the frames
that arrived whole, and at its next write: the kernel reports an end of
file, `ECONNRESET` or `EPIPE` at once.
"""

from __future__ import annotations

import os
import select
import socket
import struct
import time
from contextlib import contextmanager
from pathlib import Path

from .errors import AlreadyClosed, MailboxTimeout, ParseError, PeerGone

# a channel frame's header: the length of its UTF-8 payload in bytes
_FRAME_HEADER = struct.Struct(">I")
# the most one read asks for: a frame's length comes from another process,
# and a read allocates what it is asked for before it reads
_READ_LIMIT = 1 << 16
# the connections a request box queues, not accepted yet, before a
# client's connect finds it full
BACKLOG = 16


def wait_ready(readers, writers=(), timeout: float | None = None) -> list:
    """Block until one of `readers` is readable or one of `writers` is
    writable, or `timeout` seconds pass. Returns those that are ready, the
    readable ones first: empty if the wait timed out."""
    # select(2) needs no descriptor of its own to open, register and
    # close, and a waiter holds only a few descriptors, at low numbers. A
    # registered epoll would save no CPU: in a socket ping-pong on a 2-core
    # Xeon both cost about 45 us a round trip after a 2 ms gap and
    # 110-160 us after a 45 ms one. Its timeouts, rounded up to the
    # millisecond, would not matter either: a paced manager keeps a fixed
    # clock, so a late piece does not move the ones after it
    readable, writable, _ = select.select(readers, writers, [], timeout)
    return readable + writable


@contextmanager
def _address(path: Path):
    """`path` as a socket address that fits `sun_path` however long the
    path is: through an `O_PATH` descriptor of its directory. Raises
    FileNotFoundError if the directory is not there."""
    fd = os.open(path.parent, os.O_PATH | os.O_DIRECTORY)
    try:
        yield f"/proc/self/fd/{fd}/{path.name}"
    finally:
        os.close(fd)


class Mailbox:
    """The request box at `path`: a listening socket, which its manager
    `open`s, takes connections from and `close`s, and any number of
    clients connect to."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._sock: socket.socket | None = None

    def open(self) -> "Mailbox":
        """Make the box and listen on it, replacing a box that a dead
        manager left."""
        tmp = self.path.with_name(f"{self.path.name}-{os.getpid()}.tmp")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            with _address(tmp) as address:
                sock.bind(address)
            try:
                sock.listen(BACKLOG)
                os.rename(tmp, self.path)
            except OSError:
                os.unlink(tmp)
                raise
        except OSError:
            sock.close()
            raise
        sock.setblocking(False)
        self._sock = sock
        return self

    def close(self) -> None:
        """Remove the box and stop listening: every connection queued and
        not accepted yet is reset."""
        if self._sock is not None:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
            self._sock.close()
            self._sock = None

    def fileno(self) -> int:
        return self._sock.fileno()

    def try_deposit(self) -> "Channel | None":
        """One client wake-up: connect to the box without blocking. Returns
        the client's channel of the new connection, or None while the
        box's queue is full. Raises FileNotFoundError if no box is there,
        and `PeerGone` if nobody listens on it."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.setblocking(False)
        try:
            with _address(self.path) as address:
                sock.connect(address)
        except BlockingIOError:
            sock.close()
            return None
        except ConnectionRefusedError:
            sock.close()
            raise PeerGone(f"nobody listens on {self.path}") from None
        except BaseException:
            sock.close()
            raise
        return Channel(sock)

    def try_collect(self) -> "Channel | None":
        """One manager wake-up: accept the next queued connection and
        return the manager's channel of it, or None while none is queued."""
        try:
            sock, _ = self._sock.accept()
        except BlockingIOError:
            return None
        return Channel(sock)


class Channel:
    """One party's end of a connection: a connected socket that it writes
    frames to and reads frames from."""

    def __init__(self, sock: socket.socket):
        sock.setblocking(False)
        self._sock = sock
        # False once this end is shut for writing, or closed
        self.writing = True
        # the writer's unwritten end of its last frame
        self._tail = memoryview(b"")
        # the reader's partial frame
        self._frame = bytearray()

    def close(self) -> None:
        self._sock.close()
        self.writing = False

    def fileno(self) -> int:
        return self._sock.fileno()

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
        """Write what the socket takes of the last frame's tail. Returns
        True once none is left. Raises `AlreadyClosed` once this end is
        shut for writing, and `PeerGone` once the peer has gone."""
        if not self.writing:
            raise AlreadyClosed("the channel is closed for writing")
        while self._tail:
            try:
                written = self._sock.send(self._tail)
            except BlockingIOError:
                return False
            except ConnectionError:
                raise PeerGone("the channel's peer has gone") from None
            self._tail = self._tail[written:]
        return True

    def hang_up(self, timeout: float | None = None) -> None:
        """Write out the last frame's tail, then shut this end for
        writing: the peer reads every frame whole, then the end of file.
        This end still reads what the peer writes."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.flush():
            self._wait(deadline, "hang-up")
        self._sock.shutdown(socket.SHUT_WR)
        self.writing = False

    # -- the reader ---------------------------------------------------------------

    def try_collect(self) -> str | None:
        """One reader wake-up: the next whole batch, or None while none has
        arrived whole. Raises `PeerGone` once the peer has gone, dropping a
        partial frame, and `ParseError` for a frame that is not UTF-8,
        which it consumes."""
        frame = self._frame
        while True:
            size = _FRAME_HEADER.size
            if len(frame) >= size:
                size += _FRAME_HEADER.unpack_from(frame)[0]
                if len(frame) == size:
                    self._frame = bytearray()
                    try:
                        return frame[_FRAME_HEADER.size:].decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise ParseError(f"a frame that is not UTF-8: {exc}") from None
            try:
                chunk = self._sock.recv(min(size - len(frame), _READ_LIMIT))
            except BlockingIOError:
                return None
            except ConnectionError:  # the peer went with our frames unread
                chunk = b""
            if not chunk:
                self._frame = bytearray()
                raise PeerGone("the channel's peer has gone")
            frame += chunk

    def collect(self, timeout: float | None = None) -> str:
        """Block until a whole batch has arrived."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while (text := self.try_collect()) is None:
            self._wait(deadline, "collect")
        return text

    def _wait(self, deadline: float | None, what: str) -> None:
        """Wait until the socket is writable, for a writer holding a tail,
        or readable, for a reader."""
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise MailboxTimeout(f"{what} timed out on a channel")
        if self.pending:
            wait_ready([], [self], remaining)
        else:
            wait_ready([self], [], remaining)

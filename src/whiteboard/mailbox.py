"""Single-slot file mailboxes.

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
"""

from __future__ import annotations

import itertools
import os
import time
from pathlib import Path

from .errors import BoxRemoved, MailboxTimeout

BATCH_NAME = "batch"
TMP_PREFIX = "tmp-"

# numbers this process's temporary files, so no two writers share one
_tmp_serial = itertools.count()


class Mailbox:
    """One exchange slot rooted at `path`, polled every `sleep_time` seconds."""

    def __init__(self, path: Path | str, sleep_time: float = 0.05):
        if sleep_time <= 0:
            raise ValueError("sleep_time must be positive")
        self.path = Path(path)
        self.sleep_time = sleep_time
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
            return True
        except FileExistsError:  # another writer's batch filled the slot
            return False
        except FileNotFoundError:
            raise self._removed() from None
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass

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
        """Block (polling) until the batch is deposited."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self.try_deposit(text):
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise MailboxTimeout(f"deposit timed out on {self.path}")
            time.sleep(self.sleep_time)

    def collect(self, timeout: float | None = None) -> str:
        """Block (polling) until a batch is collected."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            text = self.try_collect()
            if text is not None:
                return text
            if deadline is not None and time.monotonic() >= deadline:
                raise MailboxTimeout(f"collect timed out on {self.path}")
            time.sleep(self.sleep_time)

"""Single-slot, lock-protected file mailboxes.

A mailbox is a directory holding at most one `batch` file (the message)
and a transient `lock` file. The slot alternates strictly between empty
and full: the designated writer polls until the box is empty and unlocked,
then locks, writes the batch to a temporary name, renames it into place
and unlocks; the designated reader polls until the box is non-empty and
unlocked, then locks, reads, removes the batch and unlocks. The rename
makes a batch appear atomically complete, so a reader can never observe a
torn message even if lock discipline is violated.

Only the file system is used, so the parties may live in any processes
on the host. Every box has exactly one reader; that is a contract, not a
detected error. A connection's boxes also have exactly one writer. A
manager's request box is the one box with several writers, every client
that opens a connection, and that is safe because `try_deposit` re-checks
the slot under the lock, so a writer never replaces a batch another has
deposited.

A lock older than ``STALE_LOCK_CYCLES`` sleep periods is presumed to be
held by a crashed process; the party whose turn it is breaks it with a
loud log message.
"""

from __future__ import annotations

import logging
import os
import time
from pathlib import Path

from .errors import BoxRemoved, MailboxTimeout

log = logging.getLogger(__name__)

BATCH_NAME = "batch"
LOCK_NAME = "lock"
STALE_LOCK_CYCLES = 30


class Mailbox:
    """One exchange slot rooted at `path`, polled every `sleep_time` seconds."""

    def __init__(self, path: Path | str, sleep_time: float = 0.05):
        if sleep_time <= 0:
            raise ValueError("sleep_time must be positive")
        self.path = Path(path)
        self.sleep_time = sleep_time

    # -- plumbing ------------------------------------------------------------

    @property
    def batch_path(self) -> Path:
        return self.path / BATCH_NAME

    @property
    def lock_path(self) -> Path:
        return self.path / LOCK_NAME

    def create(self) -> "Mailbox":
        self.path.mkdir(parents=True, exist_ok=True)
        return self

    def remove(self) -> None:
        for name in (BATCH_NAME, LOCK_NAME, BATCH_NAME + ".tmp"):
            try:
                (self.path / name).unlink()
            except FileNotFoundError:
                pass
        try:
            self.path.rmdir()
        except FileNotFoundError:
            pass

    def exists(self) -> bool:
        return self.path.is_dir()

    def is_full(self) -> bool:
        self._check_present()
        return self.batch_path.exists()

    def _check_present(self):
        if not self.path.is_dir():
            raise BoxRemoved(f"mailbox gone: {self.path}")

    def _try_lock(self) -> bool:
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except FileNotFoundError:
            raise BoxRemoved(f"mailbox gone: {self.path}") from None
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        return True

    def _unlock(self):
        try:
            self.lock_path.unlink()
        except FileNotFoundError:
            pass

    def _break_stale_lock(self) -> bool:
        """Remove a lock whose holder has apparently died. Returns True if
        a lock was broken."""
        try:
            age = time.time() - self.lock_path.stat().st_mtime
        except FileNotFoundError:
            return False
        if age < STALE_LOCK_CYCLES * self.sleep_time:
            return False
        log.warning("breaking stale lock (age %.2fs) on %s", age, self.path)
        self._unlock()
        return True

    # -- the reader/writer protocol -------------------------------------------

    def try_deposit(self, text: str) -> bool:
        """One writer wake-up: deposit if the box is empty and unlocked."""
        self._check_present()
        if self.batch_path.exists():
            return False
        if not self._try_lock():
            self._break_stale_lock()
            return False
        try:
            self._check_present()
            if self.batch_path.exists():
                return False
            tmp = self.path / (BATCH_NAME + ".tmp")
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, self.batch_path)
            return True
        except FileNotFoundError:
            raise BoxRemoved(f"mailbox gone: {self.path}") from None
        finally:
            self._unlock()

    def try_collect(self) -> str | None:
        """One reader wake-up: drain if the box is non-empty and unlocked."""
        self._check_present()
        if not self.batch_path.exists():
            return None
        if not self._try_lock():
            self._break_stale_lock()
            return None
        try:
            if not self.batch_path.exists():
                return None
            text = self.batch_path.read_text(encoding="utf-8")
            self.batch_path.unlink()
            return text
        except FileNotFoundError:
            raise BoxRemoved(f"mailbox gone: {self.path}") from None
        finally:
            self._unlock()

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
